"""Curriculum learning (paper Section 3.2.2, validated in Section 4.3.1).

Real customer traces are scarce, so the paper first trains the policy on
plentiful *standard* (Vdbench-synthesised) traces — the "easy tasks" —
and then continues training on the few *real* traces — the "hard tasks".
Figure 3 compares this curriculum against training from scratch on real
traces only: the same trainer with ``standard_epochs=0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.drl.a2c import A2CConfig, A2CTrainer, TrainingHistory
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, TrainingError
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import SeedLike, new_rng

PHASE_STANDARD = "pretrain_standard"
PHASE_REAL = "finetune_real"


@dataclass(frozen=True)
class CurriculumConfig:
    """Epoch budget of the two curriculum phases.

    The paper uses 1000 epochs on standard traces followed by 1000 on
    real traces (and 0 + 2000 epochs for the from-scratch comparison);
    the defaults here are scaled down so the full pipeline runs on a
    laptop, and the benchmarks set them explicitly.
    """

    standard_epochs: int = 150
    real_epochs: int = 150

    def __post_init__(self) -> None:
        if self.standard_epochs < 0 or self.real_epochs < 0:
            raise ConfigurationError("epoch counts must be non-negative")
        if self.standard_epochs + self.real_epochs == 0:
            raise ConfigurationError("curriculum must have at least one epoch")

    @property
    def total_epochs(self) -> int:
        return self.standard_epochs + self.real_epochs


class CurriculumTrainer:
    """Runs curriculum training: standard traces, then real traces."""

    def __init__(
        self,
        system_config: StorageSystemConfig,
        reward_config: Optional[RewardConfig] = None,
        policy_config: Optional[PolicyConfig] = None,
        a2c_config: Optional[A2CConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self.system_config = system_config
        self.reward_config = reward_config
        self.policy_config = policy_config or PolicyConfig()
        self.a2c_config = a2c_config or A2CConfig()
        self._rng = new_rng(rng)

    def _new_trainer(self, policy: RecurrentPolicyValueNet) -> A2CTrainer:
        return A2CTrainer(
            policy, self.system_config, self.reward_config, self.a2c_config, rng=self._rng
        )

    # ------------------------------------------------------------------
    # Training regimes
    # ------------------------------------------------------------------
    def train_with_curriculum(
        self,
        standard_traces: Sequence[WorkloadTrace],
        real_traces: Sequence[WorkloadTrace],
        config: Optional[CurriculumConfig] = None,
        policy: Optional[RecurrentPolicyValueNet] = None,
    ) -> tuple[RecurrentPolicyValueNet, TrainingHistory]:
        """Pre-train on standard traces, then fine-tune on real traces."""
        config = config or CurriculumConfig()
        if config.standard_epochs > 0 and not standard_traces:
            raise TrainingError("curriculum pre-training requested but no standard traces given")
        if config.real_epochs > 0 and not real_traces:
            raise TrainingError("curriculum fine-tuning requested but no real traces given")

        policy = policy or RecurrentPolicyValueNet(self.policy_config, rng=self._rng)
        history = TrainingHistory()
        trainer = self._new_trainer(policy)
        if config.standard_epochs > 0:
            trainer.train(
                list(standard_traces),
                config.standard_epochs,
                phase=PHASE_STANDARD,
                history=history,
            )
        if config.real_epochs > 0:
            trainer.train(
                list(real_traces), config.real_epochs, phase=PHASE_REAL, history=history
            )
        return policy, history
