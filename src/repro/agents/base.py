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
    """

    name: str = "agent"

    # The batched evaluation engine may run an agent through
    # per-session shallow copies (one replica per lockstep slot, see
    # :class:`repro.engine.backends.AgentBatchBackend`).  That lift is
    # faithful only when ``act`` is deterministic and every piece of
    # per-episode state is *rebound* (not mutated in place) by
    # ``reset``; agents that draw from a shared rng or mutate shared
    # containers must set this to False so routing runs their episodes
    # one at a time on the live object (``evaluate_agent``).
    engine_safe: bool = True

    def reset(self) -> None:
        """Clear per-episode state.  Stateless agents need not override."""

    @abstractmethod
    def act(self, observation: Observation) -> MigrationAction:
        """Choose the migration action for the upcoming interval."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
