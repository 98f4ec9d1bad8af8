"""Generation of standard (Vdbench-style) workload traces from profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro.workloads.profiles import STANDARD_PROFILES, get_profile
from repro.workloads.spec import WorkloadProfile
from repro.utils.rng import SeedLike, new_rng


@dataclass
class GeneratorConfig:
    """Calibration of generated traces against a storage-system configuration.

    ``target_load`` is the fraction of the array's *total* ideal
    processing capability (Definition 2: ``N * m`` per interval) that the
    generated workload demands on average, counting the extra KV/RV work
    induced by writes and cache misses.  Values near 1.0 keep the system
    near saturation, which is where allocation policy matters; values
    well above 1.0 guarantee a backlog (and a makespan exceeding ``T``).
    """

    target_load: float = 1.0
    assumed_cache_miss_rate: float = 0.3
    min_requests: float = 1.0

    def validate(self) -> None:
        if not 0.0 < self.target_load < math.inf:
            raise WorkloadError(f"target_load must be positive and finite, got {self.target_load}")
        if not 0.0 <= self.assumed_cache_miss_rate <= 1.0:
            raise WorkloadError("assumed_cache_miss_rate must be in [0, 1]")
        if not 0.0 <= self.min_requests < math.inf:
            raise WorkloadError(
                f"min_requests must be non-negative and finite, got {self.min_requests}"
            )


class StandardWorkloadGenerator:
    """Synthesises standard workload traces from business-model profiles.

    The generator is the stand-in for Vdbench: a profile describes the IO
    mix and intensity shape; the generator calibrates absolute request
    counts against the simulated array's capability and adds per-interval
    stochasticity (lognormal burstiness and Dirichlet mix jitter).
    """

    def __init__(
        self,
        system_config: Optional[StorageSystemConfig] = None,
        generator_config: Optional[GeneratorConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self.system_config = system_config or StorageSystemConfig()
        self.system_config.validate()
        self.generator_config = generator_config or GeneratorConfig()
        self.generator_config.validate()
        self._rng = new_rng(rng)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def nominal_requests_per_interval(self, profile: WorkloadProfile) -> float:
        """Request count that loads the array at ``target_load`` under this profile."""
        mean_size = profile.mean_request_size_kb()
        write_fraction = profile.write_byte_fraction()
        read_fraction = 1.0 - write_fraction
        cfg = self.system_config
        miss = self.generator_config.assumed_cache_miss_rate
        # KB of work across all three levels generated per KB of IO payload.
        demand_multiplier = (
            1.0
            + write_fraction * (cfg.kv_write_factor + cfg.rv_write_factor)
            + read_fraction * miss * (cfg.kv_read_miss_factor + cfg.rv_read_miss_factor)
        )
        capability = cfg.total_capability_kb()
        target_payload_kb = self.generator_config.target_load * capability / demand_multiplier
        requests = target_payload_kb / mean_size
        return max(self.generator_config.min_requests, requests)

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def generate(
        self,
        profile: WorkloadProfile | str,
        duration: Optional[int] = None,
        name: Optional[str] = None,
        rng: SeedLike = None,
    ) -> WorkloadTrace:
        """Generate one standard trace for ``profile`` lasting ``duration`` intervals."""
        if isinstance(profile, str):
            profile = get_profile(profile)
        duration = profile.default_duration if duration is None else int(duration)
        if duration <= 0:
            raise WorkloadError(f"duration must be positive, got {duration}")
        rng = new_rng(rng) if rng is not None else self._rng

        base_ratios = profile.base_ratios()
        nominal_requests = self.nominal_requests_per_interval(profile)
        intensity = profile.intensity.levels(duration)

        intervals: List[WorkloadInterval] = []
        for t in range(duration):
            ratios = self._jitter_ratios(base_ratios, profile.mix_jitter, rng)
            burst = self._burst_factor(profile.burstiness, rng)
            requests = max(
                self.generator_config.min_requests,
                nominal_requests * intensity[t] * burst,
            )
            intervals.append(WorkloadInterval(ratios, requests))

        return WorkloadTrace(
            name=name or f"standard/{profile.name}",
            intervals=intervals,
            metadata={
                "kind": "standard",
                "profile": profile.name,
                "duration": duration,
                "target_load": self.generator_config.target_load,
            },
        )

    def generate_suite(
        self,
        duration: Optional[int] = None,
        profiles: Optional[Sequence[str]] = None,
        rng: SeedLike = None,
    ) -> Dict[str, WorkloadTrace]:
        """Generate one standard trace per profile (default: all 12)."""
        names = list(profiles) if profiles is not None else list(STANDARD_PROFILES)
        rng = new_rng(rng) if rng is not None else self._rng
        return {
            name: self.generate(name, duration=duration, rng=rng) for name in names
        }

    # ------------------------------------------------------------------
    # Stochastic helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _jitter_ratios(
        base_ratios: np.ndarray, jitter: float, rng: np.random.Generator
    ) -> np.ndarray:
        if jitter <= 0:
            return base_ratios.copy()
        # Dirichlet jitter around the base mix: concentration inversely
        # proportional to the jitter strength keeps the mean mix stable.
        concentration = np.clip(base_ratios, 1e-4, None) / max(jitter, 1e-6)
        sample = rng.dirichlet(concentration)
        return sample

    @staticmethod
    def _burst_factor(burstiness: float, rng: np.random.Generator) -> float:
        if burstiness <= 0:
            return 1.0
        # Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
        sigma = burstiness
        return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
