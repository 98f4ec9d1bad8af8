"""The transition dataset collected from a trained policy.

Paper Section 3.2.1: "A dataset of <h_t, h_{t+1}, o_t, a_t> can be
collected via running the trained DRL model.  The QBNs are then trained
over the collected dataset using supervised learning to minimize the
reconstruction error."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ExtractionError
from repro.utils.rng import SeedLike, new_rng

if TYPE_CHECKING:
    from repro.drl.rollout import Trajectory


@dataclass
class TransitionDataset:
    """Arrays of aligned transitions from one or more trajectories.

    All arrays share the first dimension N (total number of steps):

    * ``observations`` — normalised observations o_t, shape (N, obs_dim)
    * ``raw_observations`` — unnormalised o_t (used for interpretation)
    * ``hidden_before`` / ``hidden_after`` — h_t and h_{t+1}
    * ``actions`` — a_t
    * ``episode_ids`` / ``step_ids`` — provenance of each row
    """

    observations: np.ndarray
    raw_observations: np.ndarray
    hidden_before: np.ndarray
    hidden_after: np.ndarray
    actions: np.ndarray
    episode_ids: np.ndarray
    step_ids: np.ndarray

    def __post_init__(self) -> None:
        n = self.observations.shape[0]
        for name in (
            "raw_observations",
            "hidden_before",
            "hidden_after",
            "actions",
            "episode_ids",
            "step_ids",
        ):
            if getattr(self, name).shape[0] != n:
                raise ExtractionError(
                    f"dataset arrays are misaligned: {name} has "
                    f"{getattr(self, name).shape[0]} rows, expected {n}"
                )

    def __len__(self) -> int:
        return int(self.observations.shape[0])

    @property
    def observation_dim(self) -> int:
        return int(self.observations.shape[1])

    @property
    def hidden_dim(self) -> int:
        return int(self.hidden_before.shape[1])

    @staticmethod
    def from_trajectories(trajectories: Sequence[Trajectory]) -> "TransitionDataset":
        """Build a dataset from rollouts of the trained policy."""
        trajectories = [t for t in trajectories if len(t) > 0]
        if not trajectories:
            raise ExtractionError("cannot build a transition dataset from empty rollouts")
        observations, raw, before, after, actions, episodes, steps = [], [], [], [], [], [], []
        for episode_id, trajectory in enumerate(trajectories):
            observations.append(trajectory.observations())
            raw.append(trajectory.raw_observations())
            before.append(trajectory.hidden_states_before())
            after.append(trajectory.hidden_states_after())
            actions.append(trajectory.actions())
            episodes.append(np.full(len(trajectory), episode_id, dtype=int))
            steps.append(np.arange(len(trajectory), dtype=int))
        return TransitionDataset(
            observations=np.concatenate(observations),
            raw_observations=np.concatenate(raw),
            hidden_before=np.concatenate(before),
            hidden_after=np.concatenate(after),
            actions=np.concatenate(actions),
            episode_ids=np.concatenate(episodes),
            step_ids=np.concatenate(steps),
        )

    # ------------------------------------------------------------------
    # Mini-batching
    # ------------------------------------------------------------------
    def batches(
        self, field: str, batch_size: int, rng: SeedLike = None, shuffle: bool = True
    ) -> Iterator[np.ndarray]:
        """Yield mini-batches of one array field (e.g. ``"observations"``)."""
        if batch_size <= 0:
            raise ExtractionError(f"batch_size must be positive, got {batch_size}")
        data = getattr(self, field)
        indices = np.arange(len(self))
        if shuffle:
            new_rng(rng).shuffle(indices)
        for start in range(0, len(self), batch_size):
            yield data[indices[start : start + batch_size]]

    def split(self, fraction: float, rng: SeedLike = None) -> Tuple["TransitionDataset", "TransitionDataset"]:
        """Random split into (train, held-out) datasets by row."""
        if not 0.0 < fraction < 1.0:
            raise ExtractionError(f"fraction must be in (0, 1), got {fraction}")
        indices = np.arange(len(self))
        new_rng(rng).shuffle(indices)
        cut = int(round(fraction * len(self)))
        cut = min(max(cut, 1), len(self) - 1)
        first, second = indices[:cut], indices[cut:]
        return self._subset(first), self._subset(second)

    def _subset(self, indices: np.ndarray) -> "TransitionDataset":
        return TransitionDataset(
            observations=self.observations[indices],
            raw_observations=self.raw_observations[indices],
            hidden_before=self.hidden_before[indices],
            hidden_after=self.hidden_after[indices],
            actions=self.actions[indices],
            episode_ids=self.episode_ids[indices],
            step_ids=self.step_ids[indices],
        )

    def episodes(self) -> List[np.ndarray]:
        """Row indices of each episode, in step order."""
        result = []
        for episode_id in np.unique(self.episode_ids):
            rows = np.where(self.episode_ids == episode_id)[0]
            rows = rows[np.argsort(self.step_ids[rows])]
            result.append(rows)
        return result
