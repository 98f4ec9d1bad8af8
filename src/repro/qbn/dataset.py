"""The transition dataset collected from a trained policy.

Paper Section 3.2.1: "A dataset of <h_t, h_{t+1}, o_t, a_t> can be
collected via running the trained DRL model.  The QBNs are then trained
over the collected dataset using supervised learning to minimize the
reconstruction error."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ExtractionError

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
