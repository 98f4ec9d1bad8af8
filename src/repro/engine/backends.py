"""The :class:`DecisionBackend` protocol and its standard backends.

This is the repo's single decision contract: batched evaluation
(:class:`~repro.engine.evaluation.EvaluationEngine`) and the serving
layer (:class:`~repro.serving.server.PolicyServer`, the asyncio front
door) drive their hot loops through the same small protocol, so the
compiled-FSM tables, the GRU policy and the scalar heuristics are
interchangeable across both consumers.

Standard backends:

* :class:`CompiledFSMBackend` — the O(1) table-gather fast path over a
  :class:`~repro.engine.compiled_fsm.CompiledFSMPolicy`, fed raw rows
  (it normalises each distinct row once itself);
* :class:`GRUPolicyBackend` — the full recurrent policy via
  ``act_batch`` (greedy), hidden rows resident in the session table;
* :class:`AgentBatchBackend` — lifts any scalar
  :class:`~repro.agents.base.Agent` into the protocol (one replica per
  session).
"""

from __future__ import annotations

import copy
import hashlib
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.agents.base import Agent
from repro.drl.policy import RecurrentPolicyValueNet
from repro.engine.compiled_fsm import CompiledFSMPolicy
from repro.engine.sessions import SessionTable
from repro.env.observation import ObservationEncoder
from repro.errors import ConfigurationError


@runtime_checkable
class DecisionBackend(Protocol):
    """What a batched decision consumer needs from an inference engine."""

    name: str

    def session_table(self, capacity: int) -> SessionTable:
        """A :class:`SessionTable` shaped for this backend's per-session state."""

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        """Initialise per-session state for freshly opened ``slots``."""

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: Optional[np.ndarray],
    ) -> np.ndarray:
        """Decide one action per row and advance the sessions' state.

        ``normalized`` is ``None`` exactly when the backend ``reads_raw``.
        """

    # Optional protocol extensions (consumers call them when present):
    #
    # ``check_encoder(encoder)`` — raise ConfigurationError if the
    # consumer's observation encoder is incompatible with the backend's
    # compiled artifacts.
    # ``reads_raw = True`` — the backend reads only ``raw``: consumers
    # skip ``normalize_batch`` and pass ``normalized=None``.  Absent (or
    # False) means ``decide`` needs the normalised rows.
    # ``end_sessions(table, slots)`` — release per-session resources
    # when sessions close.
    # ``session_state_signature()`` — a hashable token describing what
    # the backend's per-session state *means*.  Two backends with equal
    # signatures interpret each other's session rows identically, so a
    # blue/green :meth:`~repro.serving.server.PolicyServer.swap_backend`
    # migrates live state instead of resetting it.  Return ``None`` (or
    # omit the method) to always reset on swap.


class CompiledFSMBackend:
    """Serves decisions from a :class:`CompiledFSMPolicy`'s dense tables.

    It reads raw rows and normalises only each batch's distinct rows,
    with the encoder :meth:`check_encoder` verified; it refuses to decide
    before one was checked.
    """

    reads_raw = True

    def __init__(self, policy: CompiledFSMPolicy) -> None:
        self.policy = policy
        self.name = "compiled_fsm"
        self._encoder: Optional[ObservationEncoder] = None

    def check_encoder(self, encoder: ObservationEncoder) -> None:
        """Refuse to serve behind an encoder the artifact was not compiled for.

        A passing encoder becomes the one ``decide`` normalises with, so a
        second consumer must normalise like the first.
        """
        if not self.policy.matches_encoder(encoder):
            raise ConfigurationError(
                "observation encoder normalises differently from the one the "
                "compiled FSM artifact was stamped with "
                f"(artifact constants {self.policy.encoder_constants.tolist()}, "
                f"encoder constants {encoder.constants()}) — decisions would "
                "silently diverge from the extracted policy"
            )
        if self._encoder is not None and not self._encoder.is_equivalent(encoder):
            raise ConfigurationError(
                "observation encoder normalises differently from the one this "
                "backend already serves behind"
            )
        self._encoder = encoder

    def session_table(self, capacity: int) -> SessionTable:
        return SessionTable(capacity=capacity, hidden_size=0)

    def session_state_signature(self) -> Optional[Tuple[str, str]]:
        """Identity of the compiled state space (rows + start + actions).

        Two compiled artifacts migrate session state only when their
        state rows *mean the same thing* — same codes in the same order,
        same emitted actions, same start row.  Re-extracted machines get
        fresh rows and therefore reset.
        """
        digest = hashlib.sha256()
        digest.update(self.policy.state_codes.tobytes())
        digest.update(self.policy.action_table.tobytes())
        digest.update(int(self.policy.start_state).to_bytes(8, "little"))
        return ("fsm", digest.hexdigest())

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        table.state[slots] = self.policy.start_state

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: Optional[np.ndarray],
    ) -> np.ndarray:
        if self._encoder is None:
            raise ConfigurationError(
                "compiled FSM backend has no checked observation encoder; "
                "call check_encoder(encoder) before decide"
            )
        decision = self.policy.act_batch(raw, table.state[slots], self._encoder)
        table.state[slots] = decision.next_states
        return decision.actions


class GRUPolicyBackend:
    """Serves decisions from the recurrent policy (greedy ``act_batch``)."""

    def __init__(self, policy: RecurrentPolicyValueNet) -> None:
        self.policy = policy
        self.name = "gru"

    def session_table(self, capacity: int) -> SessionTable:
        return SessionTable(capacity=capacity, hidden_size=self.policy.hidden_dim())

    def session_state_signature(self) -> Optional[Tuple[str, int]]:
        # A hidden row keeps its meaning across weight updates of the
        # same architecture (warm start after a fine-tune); only a
        # dimension change forces a reset.
        return ("gru", int(self.policy.hidden_dim()))

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        table.hidden[slots] = self.policy.initial_hidden_np(slots.shape[0])

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: np.ndarray,
    ) -> np.ndarray:
        output = self.policy.act_batch(normalized, table.hidden[slots], greedy=True)
        table.hidden[slots] = output.hidden_states
        return np.asarray(output.actions, dtype=np.int64)


class AgentBatchBackend:
    """Lifts any scalar :class:`Agent` into the protocol — one replica per slot.

    Per-session Python objects make this the compatibility path, not the
    scale path; it is how baseline heuristics ride the same lockstep
    evaluation engine (and decision server) as the learned policies.

    The lift is only faithful for agents whose ``act`` is deterministic
    and whose per-episode state is fully *rebound* by ``reset()`` (the
    :class:`Agent` contract).  Agents act on raw rows (``reads_raw``).
    """

    reads_raw = True

    def __init__(
        self,
        agent_factory: Callable[[], Agent],
        encoder: ObservationEncoder,
        name: Optional[str] = None,
    ) -> None:
        self.agent_factory = agent_factory
        self.encoder = encoder
        self._agents: Dict[int, Agent] = {}
        if name is None:
            # Most factories are Agent classes with a class-level name;
            # only build a throwaway instance when the factory hides it
            # (lambdas).
            label = getattr(agent_factory, "name", None)
            name = label if isinstance(label, str) else agent_factory().name
        self.name = name

    @classmethod
    def from_agent(cls, agent: Agent, encoder: ObservationEncoder) -> "AgentBatchBackend":
        """Adapt one prototype agent: every session gets a shallow copy.

        ``begin_sessions`` calls ``reset()`` on each replica, which (per
        the :class:`Agent` contract) rebinds all per-episode state, so
        replicas never share mutable episode state with the prototype or
        each other.
        """
        return cls(lambda: copy.copy(agent), encoder, name=agent.name)

    def session_table(self, capacity: int) -> SessionTable:
        return SessionTable(capacity=capacity, hidden_size=0)

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        for slot in slots.tolist():
            agent = self.agent_factory()
            agent.reset()
            self._agents[int(slot)] = agent

    def end_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        for slot in slots.tolist():
            self._agents.pop(int(slot), None)

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: Optional[np.ndarray],
    ) -> np.ndarray:
        actions = np.empty(slots.shape[0], dtype=np.int64)
        for i, slot in enumerate(slots.tolist()):
            observation = self.encoder.split_raw(raw[i])
            actions[i] = int(self._agents[int(slot)].act(observation))
        return actions
