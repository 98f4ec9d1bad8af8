"""Behaviour-cloning warm start for the recurrent policy.

The paper trains its GRU agent for 2000 epochs on a production-scale
simulator.  Within the minutes-scale budget of this reproduction, pure
on-policy A2C often cannot leave the random-policy regime, so the
pipeline optionally warm-starts the policy by imitating an expert
heuristic (any :class:`~repro.agents.base.Agent`, by default the greedy
utilisation controller) before the A2C phases.  This is a documented
deviation from the paper made purely for sample efficiency; it can be
disabled by setting the warm-start epochs to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.agents.base import Agent
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.drl.policy import RecurrentPolicyValueNet
from repro.engine.backends import AgentBatchBackend
from repro.engine.evaluation import EvaluationEngine
from repro.engine.sessions import SessionTable
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, TrainingError
from repro.optim import Adam, clip_grad_norm
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import SeedLike, new_rng


@dataclass
class Demonstration:
    """One expert episode: normalised observations and the actions taken."""

    trace_name: str
    observations: np.ndarray
    actions: np.ndarray
    makespan: int

    def __len__(self) -> int:
        return int(self.actions.shape[0])


#: Cap on an action's loss weight, so a rare action seen a handful of
#: times cannot dominate the fit.
_MAX_CLASS_WEIGHT = 5.0


@dataclass(frozen=True)
class ImitationConfig:
    """Hyper-parameters of behaviour cloning."""

    epochs: int = 20
    learning_rate: float = 1e-3
    grad_clip_norm: float = 2.0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError("learning_rate must be positive and finite")
        if not 0 < self.grad_clip_norm < np.inf:
            raise ConfigurationError("grad_clip_norm must be positive and finite")


@dataclass
class ImitationResult:
    """Loss curve and final imitation accuracy."""

    losses: List[float] = field(default_factory=list)
    accuracy: float = 0.0
    demonstrations: int = 0


class _RecordingBackend(AgentBatchBackend):
    """Per-slot teacher replicas that keep what each slot saw and did."""

    # The demonstrations are the normalised rows the student will read,
    # so this lift needs them even though the teacher acts on raw rows.
    reads_raw = False

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        super().begin_sessions(table, slots)
        # slot -> (normalised observation rows, actions), in trace order.
        self.episodes = {slot: ([], []) for slot in slots.tolist()}

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: np.ndarray,
    ) -> np.ndarray:
        actions = super().decide(table, slots, raw, normalized)
        for slot, row, action in zip(slots.tolist(), normalized, actions.tolist()):
            observations, taken = self.episodes[slot]
            observations.append(row)
            taken.append(action)
        return actions


class BehaviorCloningTrainer:
    """Collects expert demonstrations and fits the recurrent policy to them."""

    def __init__(
        self,
        system_config: StorageSystemConfig,
        reward_config: Optional[RewardConfig] = None,
        config: Optional[ImitationConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self.engine = EvaluationEngine(system_config, reward_config)
        self.config = config or ImitationConfig()
        self._rng = new_rng(rng)

    # ------------------------------------------------------------------
    # Demonstration collection
    # ------------------------------------------------------------------
    def collect_demonstrations(
        self, teacher: Agent, traces: Sequence[WorkloadTrace], episode_seed: int = 0
    ) -> List[Demonstration]:
        """Run the teacher on every trace (one lockstep batch, trace ``i``
        seeded ``episode_seed + i``) and record its decisions."""
        if not traces:
            raise TrainingError("demonstration collection needs at least one trace")
        recorder = _RecordingBackend.from_agent(teacher, self.engine.encoder)
        result = self.engine.evaluate(recorder, traces, episode_seed=episode_seed)
        return [
            Demonstration(
                trace_name=trace.name,
                observations=np.stack(observations),
                actions=np.array(actions, dtype=int),
                makespan=makespan,
            )
            for trace, (observations, actions), makespan in zip(
                traces, recorder.episodes.values(), result.makespans
            )
        ]

    # ------------------------------------------------------------------
    # Supervised fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        policy: RecurrentPolicyValueNet,
        demonstrations: Sequence[Demonstration],
    ) -> ImitationResult:
        """Minimise the cross-entropy between the policy and the expert actions."""
        demonstrations = [d for d in demonstrations if len(d) > 0]
        if not demonstrations:
            raise TrainingError("behaviour cloning needs non-empty demonstrations")
        parameters = policy.parameters()
        optimizer = Adam(parameters, lr=self.config.learning_rate)
        result = ImitationResult(demonstrations=len(demonstrations))
        class_weights = self._class_weights(demonstrations, policy.config.num_actions)

        order = np.arange(len(demonstrations))
        for _ in range(self.config.epochs):
            self._rng.shuffle(order)
            epoch_losses: List[float] = []
            for index in order:
                demo = demonstrations[index]
                log_probs = F.log_softmax(policy.unroll(demo.observations), axis=-1)
                nll = F.nll_of_actions(log_probs, demo.actions)
                weights = class_weights[demo.actions]
                loss = (nll * Tensor(weights)).sum() * (1.0 / max(weights.sum(), 1e-9))
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(parameters, self.config.grad_clip_norm)
                optimizer.step()
                epoch_losses.append(loss.item())
            result.losses.append(float(np.mean(epoch_losses)))

        result.accuracy = self.evaluate_accuracy(policy, demonstrations)
        return result

    def _class_weights(
        self, demonstrations: Sequence[Demonstration], num_actions: int
    ) -> np.ndarray:
        """Per-action loss weights, inverse to each action's frequency.

        Expert controllers emit "no migration" for most intervals; without
        re-weighting the cloned policy collapses to the majority class
        instead of learning *when* to migrate.
        """
        actions = np.concatenate([demo.actions for demo in demonstrations])
        counts = np.bincount(actions, minlength=num_actions).astype(float)
        total = counts.sum()
        weights = np.where(counts > 0, total / (num_actions * np.maximum(counts, 1.0)), 0.0)
        return np.clip(weights, 0.0, _MAX_CLASS_WEIGHT)

    @staticmethod
    def evaluate_accuracy(
        policy: RecurrentPolicyValueNet, demonstrations: Sequence[Demonstration]
    ) -> float:
        """Fraction of expert decisions reproduced by the greedy policy."""
        correct = 0
        total = 0
        with no_grad():
            for demo in demonstrations:
                logits = policy.unroll(demo.observations).data
                correct += int((np.argmax(logits, axis=1) == demo.actions).sum())
                total += len(demo)
        return correct / total if total else 0.0
