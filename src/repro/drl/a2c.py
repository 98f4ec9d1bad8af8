"""Advantage Actor-Critic trainer for the recurrent policy.

Loss design follows A2C (Mnih et al., 2016) as cited by the paper:

    L = -E[ log pi(a_t | h_t) * A_t ]  +  c_v * E[(V(h_t) - G_t)^2]
        -  c_e * E[ H(pi(.|h_t)) ]

with ``A_t = G_t - V(h_t)`` computed from Monte-Carlo discounted
returns, Adam (lr 3e-4), global gradient-norm clipping at 2.0, and
epsilon-greedy exploration at 0.1 — the hyper-parameters of paper
Section 4.2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.drl.policy import RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector, Trajectory, TrajectoryBatch
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ConfigurationError, TrainingError
from repro.optim import Adam, clip_grad_norm
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class A2CConfig:
    """Hyper-parameters of the A2C training loop."""

    learning_rate: float = 3e-4
    gamma: float = 0.99
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    grad_clip_norm: float = 2.0
    epsilon: float = 0.1
    episodes_per_epoch: int = 1
    normalize_advantages: bool = True
    n_step: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError("learning_rate must be positive and finite")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in [0, 1]")
        if self.value_coef < 0 or self.entropy_coef < 0:
            raise ConfigurationError("loss coefficients must be non-negative")
        if not 0 < self.grad_clip_norm < np.inf:
            raise ConfigurationError("grad_clip_norm must be positive and finite")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if self.episodes_per_epoch <= 0:
            raise ConfigurationError("episodes_per_epoch must be positive")
        if self.n_step < 0:
            raise ConfigurationError("n_step must be non-negative (0 = Monte-Carlo)")


@dataclass(frozen=True)
class EpochRecord:
    """Metrics from one training epoch."""

    epoch: int
    phase: str
    trace_name: str
    makespan: float
    total_reward: float
    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float
    epsilon: float
    wall_time_s: float


@dataclass
class TrainingHistory:
    """All epoch records of a training run (possibly spanning phases)."""

    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def makespans(self) -> np.ndarray:
        return np.array([r.makespan for r in self.records])

    def phases(self) -> List[str]:
        return [r.phase for r in self.records]

    def final_makespan(self, window: int = 10) -> float:
        values = self.makespans()
        if values.size == 0:
            raise TrainingError("training history is empty")
        return float(values[-window:].mean())


class A2CTrainer:
    """Trains a :class:`RecurrentPolicyValueNet` on a set of workload traces."""

    def __init__(
        self,
        policy: RecurrentPolicyValueNet,
        system_config: StorageSystemConfig,
        reward_config: Optional[RewardConfig] = None,
        config: Optional[A2CConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self.policy = policy
        self.config = config or A2CConfig()
        self._rng = new_rng(rng)
        self.batched_collector = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config), rng=self._rng
        )
        self.optimizer = Adam(self.policy.parameters(), lr=self.config.learning_rate)
        self._global_epoch = 0

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train(
        self,
        traces: Sequence[WorkloadTrace],
        epochs: int,
        phase: str = "train",
        history: Optional[TrainingHistory] = None,
    ) -> TrainingHistory:
        """Run ``epochs`` training epochs, each on one trace sampled from ``traces``."""
        if not traces:
            raise TrainingError("train() needs at least one workload trace")
        if epochs <= 0:
            raise TrainingError(f"epochs must be positive, got {epochs}")
        history = history if history is not None else TrainingHistory()

        for _ in range(epochs):
            start = time.perf_counter()
            trace = traces[int(self._rng.integers(len(traces)))]
            epoch_metrics = self._train_one_epoch(trace)
            elapsed = time.perf_counter() - start
            record = EpochRecord(
                epoch=self._global_epoch,
                phase=phase,
                trace_name=trace.name,
                epsilon=self.config.epsilon,
                wall_time_s=elapsed,
                **epoch_metrics,
            )
            history.append(record)
            self._global_epoch += 1
        return history

    def _train_one_epoch(self, trace: WorkloadTrace) -> Dict[str, float]:
        traces = [trace] * self.config.episodes_per_epoch
        trajectories = self.batched_collector.collect_batch(
            self.policy, traces, epsilon=self.config.epsilon, greedy=False
        )
        return {
            "makespan": float(np.mean([t.makespan for t in trajectories])),
            "total_reward": float(np.mean([t.total_reward for t in trajectories])),
            **self._update_from_batch(trajectories),
        }

    # ------------------------------------------------------------------
    # One gradient update
    # ------------------------------------------------------------------
    def _update_from_batch(self, trajectories: Sequence[Trajectory]) -> Dict[str, float]:
        """One gradient update over a padded, masked batch of episodes.

        The recurrent network runs over the ``(T, B, obs_dim)`` batch as
        one node (:meth:`RecurrentPolicyValueNet.unroll`); padded
        positions never enter the losses (they are dropped by indexing
        with the batch's valid positions).  A single trajectory is the
        B = 1 case.
        """
        batch = TrajectoryBatch.from_trajectories(trajectories)
        horizon, width = batch.max_steps, batch.batch_size

        logits_steps, value_steps = self.policy.unroll(batch.observations, values=True)
        time_idx, env_idx = batch.valid_positions()
        logits_matrix = logits_steps[time_idx, env_idx]                   # (N, A)
        values_vector = value_steps[time_idx, env_idx]                    # (N,)
        values_np = values_vector.numpy()
        actions = batch.actions[time_idx, env_idx]

        if self.config.n_step > 0:
            padded_values = np.zeros((horizon, width))
            padded_values[time_idx, env_idx] = values_np
            padded_returns = np.zeros((horizon, width))
            for b, trajectory in enumerate(batch.trajectories):
                steps = len(trajectory)
                padded_returns[:steps, b] = self._n_step_returns(
                    trajectory.rewards(), padded_values[:steps, b]
                )
            returns = padded_returns[time_idx, env_idx]
        else:
            returns = batch.padded_returns(self.config.gamma)[time_idx, env_idx]

        advantages = returns - values_np
        if self.config.normalize_advantages and advantages.size > 1:
            std = advantages.std()
            if std > 1e-8:
                advantages = (advantages - advantages.mean()) / std

        log_probs = F.log_softmax(logits_matrix, axis=-1)
        chosen_nll = F.nll_of_actions(log_probs, actions)
        policy_loss = (chosen_nll * Tensor(advantages)).mean()
        value_loss = F.mse_loss(values_vector, returns)
        probs = F.softmax(logits_matrix, axis=-1)
        entropy = F.entropy(probs, axis=-1)
        loss = (
            policy_loss
            + value_loss * self.config.value_coef
            - entropy * self.config.entropy_coef
        )

        self.optimizer.zero_grad()
        loss.backward()
        grad_norm = clip_grad_norm(self.optimizer.parameters, self.config.grad_clip_norm)
        self.optimizer.step()

        return {
            "policy_loss": float(policy_loss.item()),
            "value_loss": float(value_loss.item()),
            "entropy": float(entropy.item()),
            "grad_norm": float(grad_norm),
        }

    def _n_step_returns(self, rewards: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Bootstrapped n-step return targets.

        ``G_t = r_t + gamma r_{t+1} + ... + gamma^{n-1} r_{t+n-1}
                + gamma^n V(h_{t+n})``, truncating (without bootstrap) at
        the end of the episode.  Compared to full Monte-Carlo returns this
        keeps the credit for each decision local to the next few
        intervals, which is what makes the shaped rewards learnable
        within a small epoch budget.
        """
        n = self.config.n_step
        gamma = self.config.gamma
        horizon = len(rewards)
        returns = np.zeros(horizon, dtype=float)
        for t in range(horizon):
            acc = 0.0
            discount = 1.0
            last = min(t + n, horizon)
            for i in range(t, last):
                acc += discount * rewards[i]
                discount *= gamma
            if t + n < horizon:
                acc += discount * values[t + n]
            returns[t] = acc
        return returns
