"""Common interface implemented by every controller (baseline, DRL or FSM)."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.env.observation import Observation
from repro.storage.migration import MigrationAction


class Agent(ABC):
    """A controller that maps observations to migration actions.

    Agents may keep internal state across a trajectory (the recurrent
    DRL policy and the extracted FSM both do); ``reset`` is called at the
    start of every episode.

    The batched evaluation engine runs an agent through per-session
    shallow copies (one replica per lockstep slot, see
    :class:`repro.engine.backends.AgentBatchBackend`).  That lift is
    faithful only when ``act`` is deterministic and every piece of
    per-episode state is *rebound* (not mutated in place) by ``reset``.
    """

    name: str = "agent"

    def reset(self) -> None:
        """Clear per-episode state.  Stateless agents need not override."""

    @abstractmethod
    def act(self, observation: Observation) -> MigrationAction:
        """Choose the migration action for the upcoming interval."""
