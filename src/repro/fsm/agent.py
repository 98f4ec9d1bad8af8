"""Deploying an extracted FSM as a controller."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.agents.base import Agent
from repro.env.observation import Observation, ObservationEncoder
from repro.errors import ExtractionError
from repro.fsm.extraction import ExtractionResult
from repro.fsm.generalize import NearestObservationMatcher
from repro.fsm.machine import FiniteStateMachine, StateKey
from repro.qbn.autoencoder import QuantizedBottleneckNetwork
from repro.qbn.quantize import code_key
from repro.storage.migration import MigrationAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.compiled_fsm import CompiledFSMPolicy


class FSMPolicyAgent(Agent):
    """Runs the extracted finite state machine as a white-box controller.

    Each decision quantises the current observation with the observation
    QBN; if the resulting code was never seen during extraction, the
    nearest-observation matcher substitutes the closest known code
    (paper Section 3.2.2).  The machine then advances one transition and
    emits the action of the new state.
    """

    name = "extracted_fsm"

    def __init__(
        self,
        fsm: FiniteStateMachine,
        observation_qbn: QuantizedBottleneckNetwork,
        encoder: ObservationEncoder,
        matcher: Optional[NearestObservationMatcher] = None,
    ) -> None:
        if fsm.num_states == 0:
            raise ExtractionError("cannot deploy an FSM with no states")
        self.fsm = fsm
        self.observation_qbn = observation_qbn
        self.encoder = encoder
        self.matcher = matcher
        self._state: Optional[StateKey] = None
        self.unseen_observation_count = 0

    @classmethod
    def from_extraction(
        cls, result: ExtractionResult, encoder: ObservationEncoder,
        observation_qbn: QuantizedBottleneckNetwork,
    ) -> "FSMPolicyAgent":
        """Convenience constructor from an :class:`ExtractionResult`."""
        return cls(
            fsm=result.fsm,
            observation_qbn=observation_qbn,
            encoder=encoder,
            matcher=result.matcher,
        )

    def reset(self) -> None:
        self._state = self._starting_state()
        self.unseen_observation_count = 0

    def _starting_state(self) -> StateKey:
        if self.fsm.initial_state is not None and self.fsm.initial_state in self.fsm.states:
            return self.fsm.initial_state
        # Fall back to the most-visited state.
        return max(self.fsm.states, key=lambda code: self.fsm.states[code].visit_count)

    def act(self, observation: Observation) -> MigrationAction:
        if self._state is None:
            self.reset()
        normalized = self.encoder.normalize(observation)
        observation_code = code_key(self.observation_qbn.discrete_code(normalized))
        known = observation_code in self.fsm.observation_prototypes
        if not known and self.matcher is not None:
            # The code is already established as unseen, so the matcher's
            # exact-encoder shortcut cannot fire; going straight to the
            # shared nearest-prototype resolution keeps this agent and the
            # compiled serving fast path on one code path (and one
            # tie-break order) for fallback decisions.
            observation_code = self.matcher.key_at(self.matcher.match_index(normalized))
            self.unseen_observation_count += 1
        self._state, action = self.fsm.step(self._state, observation_code)
        return action

    def compiled_routable(self) -> bool:
        """True when the dense-table compilation replays this agent bit for bit.

        The compiled fast path resolves every non-prototype code through
        nearest-prototype fallback over the *machine's* prototype table;
        the interpreted agent resolves through its *matcher*.  The two
        agree decision for decision exactly when the matcher indexes the
        machine's prototypes in the machine's own order (same keys, same
        vectors — so ``nearest_prototype_rows`` breaks ties identically),
        or when the machine has no prototypes at all and no matcher is
        installed (both sides then self-loop on truly unseen codes and
        resolve transition-only codes exactly).
        """
        prototypes = self.fsm.observation_prototypes
        if self.matcher is None:
            # Without a matcher the interpreted agent never substitutes
            # unseen codes, but the compiled tables would fall back to
            # the nearest prototype whenever one exists.
            return not prototypes
        if not prototypes or self.matcher.keys != list(prototypes):
            return False
        machine_matrix = np.stack(
            [np.asarray(vector, dtype=float) for vector in prototypes.values()]
        )
        return np.array_equal(self.matcher.prototype_matrix, machine_matrix)

    def compile(self) -> "CompiledFSMPolicy":
        """Compile this agent's machine into its dense-table equivalent.

        Raises :class:`ExtractionError` when the compiled tables would
        not be decision-for-decision identical (see
        :meth:`compiled_routable`) — callers that want a best-effort
        answer should check routability first and keep the interpreted
        agent otherwise.
        """
        from repro.engine.compiled_fsm import CompiledFSMPolicy

        if not self.compiled_routable():
            raise ExtractionError(
                "this agent's matcher does not mirror the machine's prototype "
                "table (different keys, order or vectors) — the compiled "
                "fallback would resolve unseen observations differently; "
                "keep the interpreted agent"
            )
        metric = self.matcher.metric_name if self.matcher is not None else "euclidean"
        return CompiledFSMPolicy.compile(
            self.fsm, self.observation_qbn, encoder=self.encoder, metric=metric
        )
