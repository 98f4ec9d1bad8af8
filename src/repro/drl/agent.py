"""Adapter exposing a trained :class:`RecurrentPolicyValueNet` as an :class:`Agent`."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.base import Agent
from repro.drl.policy import RecurrentPolicyValueNet
from repro.env.observation import Observation, ObservationEncoder
from repro.errors import ConfigurationError
from repro.storage.migration import MigrationAction
from repro.utils.rng import ACTION_DOMAIN, SeedLike, episode_lanes, episode_seed


class DRLPolicyAgent(Agent):
    """Greedy (deterministic) controller backed by the trained GRU policy.

    The agent keeps the GRU hidden state across an episode and resets it
    at episode boundaries, matching how the policy was trained.  With
    ``epsilon > 0`` it explores on the action lane of the episode seed
    ``rng`` names, one lane across all its episodes.
    """

    name = "gru_drl"

    def __init__(
        self,
        policy: RecurrentPolicyValueNet,
        encoder: ObservationEncoder,
        epsilon: float = 0.0,
        rng: SeedLike = None,
    ) -> None:
        self.policy = policy
        self.encoder = encoder
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self._streams = episode_lanes([episode_seed(rng)], ACTION_DOMAIN)
        self._hidden: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._hidden = self.policy.initial_state().numpy()

    def act(self, observation: Observation) -> MigrationAction:
        if self._hidden is None:
            self.reset()
        normalized = self.encoder.normalize(observation)
        output = self.policy.act_batch(
            normalized[None], self._hidden[None], self._streams.uniforms, epsilon=self.epsilon
        )
        self._hidden = output.hidden_states[0]
        return MigrationAction(int(output.actions[0]))

    @property
    def hidden_state(self) -> np.ndarray:
        """Current GRU hidden state (useful for FSM extraction diagnostics)."""
        if self._hidden is None:
            self.reset()
        return np.array(self._hidden)
