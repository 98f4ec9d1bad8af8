"""Adapter exposing a trained :class:`RecurrentPolicyValueNet` as an :class:`Agent`."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.base import Agent
from repro.drl.policy import RecurrentPolicyValueNet
from repro.env.observation import Observation, ObservationEncoder
from repro.storage.migration import MigrationAction


class DRLPolicyAgent(Agent):
    """Greedy (deterministic) controller backed by the trained GRU policy.

    The agent keeps the GRU hidden state across an episode and resets it
    at episode boundaries, matching how the policy was trained.  It is
    the one-row reference for :class:`~repro.engine.backends.GRUPolicyBackend`'s
    batched decisions; exploration lives on ``act_batch`` lanes
    (``A2CConfig.epsilon``).
    """

    name = "gru_drl"

    def __init__(self, policy: RecurrentPolicyValueNet, encoder: ObservationEncoder) -> None:
        self.policy = policy
        self.encoder = encoder
        self._hidden: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._hidden = self.policy.initial_state().numpy()

    def act(self, observation: Observation) -> MigrationAction:
        if self._hidden is None:
            self.reset()
        normalized = self.encoder.normalize(observation)
        output = self.policy.act_batch(normalized[None], self._hidden[None])
        self._hidden = output.hidden_states[0]
        return MigrationAction(int(output.actions[0]))

    @property
    def hidden_state(self) -> np.ndarray:
        """Current GRU hidden state (useful for FSM extraction diagnostics)."""
        if self._hidden is None:
            self.reset()
        return np.array(self._hidden)
