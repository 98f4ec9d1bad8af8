"""The gym-style environment exposing the storage simulator as an MDP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.env.action import ActionSpace
from repro.env.observation import Observation, ObservationEncoder
from repro.env.reward import RewardConfig, compute_step_reward, compute_terminal_reward
from repro.errors import EnvironmentError_
from repro.storage.metrics import EpisodeMetrics, IntervalMetrics
from repro.storage.migration import MigrationAction
from repro.storage.simulator import StorageSimulator, StorageSystemConfig
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class StepResult:
    """Return value of :meth:`StorageAllocationEnv.step`."""

    observation: Observation
    normalized_observation: np.ndarray
    reward: float
    done: bool
    info: Dict[str, object]


class StorageAllocationEnv:
    """Gym-like environment for the CPU-core allocation MDP.

    Typical usage::

        env = StorageAllocationEnv(config)
        obs = env.reset(trace)
        while True:
            result = env.step(agent.act(obs))
            obs = result.observation
            if result.done:
                break
    """

    def __init__(
        self,
        system_config: Optional[StorageSystemConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self.system_config = system_config or StorageSystemConfig()
        self.system_config.validate()
        self.reward_config = reward_config or RewardConfig()
        self.simulator = StorageSimulator(self.system_config, rng=rng)
        self.action_space = ActionSpace()
        self.observation_encoder = ObservationEncoder(self.system_config)
        self._trace: Optional[WorkloadTrace] = None

    # ------------------------------------------------------------------
    # Episode API
    # ------------------------------------------------------------------
    def reset(self, trace: WorkloadTrace, rng: SeedLike = None) -> Observation:
        """Start a new episode on ``trace`` and return the initial observation
        (``rng`` names the episode seed, as in :class:`StorageSimulator`)."""
        self.simulator.reset(trace, rng=rng)
        self._trace = trace
        return self._build_observation()

    def step(self, action: MigrationAction | int) -> StepResult:
        """Apply ``action`` for one interval and observe the outcome."""
        if self._trace is None:
            raise EnvironmentError_("step() called before reset()")
        if self.simulator.is_done:
            raise EnvironmentError_("step() called on a finished episode")

        decision_mask = self.valid_action_mask()
        metrics: IntervalMetrics = self.simulator.step(action)
        done = self.simulator.is_done
        reward = compute_step_reward(self.reward_config, metrics)
        if done:
            reward += compute_terminal_reward(
                self.reward_config, self.simulator.makespan
            )

        observation = self._build_observation()
        info: Dict[str, object] = {
            "interval_metrics": metrics,
            "makespan": self.simulator.makespan,
            "backlog_kb": self.simulator.backlog_kb(),
            "action_name": MigrationAction(int(action)).short_name,
            "truncated": self.simulator.episode_metrics.truncated,
            # The mask that was in force when the action was chosen, so
            # downstream consumers (FSM interpretation, evaluation) can
            # tell deliberate no-ops from silently rejected migrations.
            "valid_action_mask": decision_mask,
        }
        return StepResult(
            observation=observation,
            normalized_observation=self.observation_encoder.normalize(observation),
            reward=reward,
            done=done,
            info=info,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def observation_dim(self) -> int:
        return self.observation_encoder.dimension

    @property
    def episode_metrics(self) -> EpisodeMetrics:
        return self.simulator.episode_metrics

    def valid_action_mask(self) -> np.ndarray:
        return self.action_space.valid_mask_from_counts(
            self.simulator.core_counts_vector(),
            self.system_config.min_cores_per_level,
        )

    def _build_observation(self) -> Observation:
        return self.observation_encoder.build(
            core_counts=self.simulator.core_counts(),
            utilization=self.simulator.utilization(),
            workload=self.simulator.current_workload(),
        )
