"""The finite state machine data structure.

States correspond to distinct quantised hidden-state codes of the GRU;
each state is labelled with the action the policy emits from it, and the
transition table maps every (state, prototype observation code) pair to
a successor state.  The machine is a standalone controller: it needs
only the observation QBN codes (or, for unseen observations, the
nearest prototype's code) to run — no neural network at decision time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExtractionError
from repro.storage.migration import MigrationAction

StateKey = Tuple[int, ...]
ObservationKey = Tuple[int, ...]


@dataclass
class FSMState:
    """One extracted state.

    ``state_id`` is a small integer label (S0, S1, ... in the paper's
    Figure 5); ``code`` is the underlying quantised hidden-state vector;
    ``action`` is the single action associated with the state;
    ``visit_count`` is how many dataset transitions passed through it.
    """

    state_id: int
    code: StateKey
    action: MigrationAction
    visit_count: int = 0

    @property
    def label(self) -> str:
        return f"S{self.state_id}"

    @property
    def action_name(self) -> str:
        return self.action.short_name


@dataclass
class FiniteStateMachine:
    """Transition-table controller extracted from the recurrent policy."""

    states: Dict[StateKey, FSMState] = field(default_factory=dict)
    transitions: Dict[Tuple[StateKey, ObservationKey], StateKey] = field(default_factory=dict)
    transition_counts: Dict[Tuple[StateKey, StateKey], int] = field(default_factory=dict)
    observation_prototypes: Dict[ObservationKey, np.ndarray] = field(default_factory=dict)
    initial_state: Optional[StateKey] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_state(self, code: StateKey, action: MigrationAction) -> FSMState:
        if code not in self.states:
            self.states[code] = FSMState(
                state_id=len(self.states), code=code, action=action
            )
        return self.states[code]

    def add_transition(
        self,
        source: StateKey,
        observation: ObservationKey,
        destination: StateKey,
        observation_vector: Optional[np.ndarray] = None,
    ) -> None:
        if source not in self.states or destination not in self.states:
            raise ExtractionError("both endpoints of a transition must be existing states")
        self.transitions[(source, observation)] = destination
        pair = (source, destination)
        self.transition_counts[pair] = self.transition_counts.get(pair, 0) + 1
        if observation_vector is not None:
            self._update_prototype(observation, observation_vector)

    def _update_prototype(self, observation: ObservationKey, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=float)
        if observation in self.observation_prototypes:
            # Running mean keeps one representative vector per observation code.
            current = self.observation_prototypes[observation]
            self.observation_prototypes[observation] = 0.9 * current + 0.1 * vector
        else:
            self.observation_prototypes[observation] = vector

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def states_by_id(self) -> List[FSMState]:
        return sorted(self.states.values(), key=lambda s: s.state_id)

    def start_state(self) -> StateKey:
        """The state a deployed machine starts in.

        The recorded initial state when it is a known state, otherwise
        the first most-visited state in insertion order (``max`` keeps
        the first of equal counts).
        """
        if self.initial_state is not None and self.initial_state in self.states:
            return self.initial_state
        return max(self.states, key=lambda code: self.states[code].visit_count)

    def successors(self, code: StateKey) -> Dict[StateKey, int]:
        """Successor states of ``code`` with transition counts."""
        result: Dict[StateKey, int] = {}
        for (source, destination), count in self.transition_counts.items():
            if source == code:
                result[destination] = result.get(destination, 0) + count
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(
        self, current: StateKey, observation: ObservationKey
    ) -> Tuple[StateKey, MigrationAction]:
        """Advance one step: returns (next state, action emitted by next state).

        An extracted machine is total over its prototype codes (every
        (state, code) cell has a successor, :meth:`validate`); an
        observation outside them is mapped to its nearest prototype's
        code before this is called (:mod:`repro.fsm.generalize`).  A
        pair with no transition raises :class:`ExtractionError`.
        """
        if current not in self.states:
            raise ExtractionError(f"unknown current state {current!r}")
        next_state = self.transitions.get((current, observation))
        if next_state is None:
            raise ExtractionError(
                f"no transition from state {current!r} on observation code {observation!r}"
            )
        return next_state, self.states[next_state].action

    def validate(self) -> None:
        """Every transition joins two states on a prototype code, and every
        (state, prototype code) cell has one: the machine is total."""
        if self.initial_state is not None and self.initial_state not in self.states:
            raise ExtractionError("initial state is not a known state")
        for (source, observation), destination in self.transitions.items():
            if source not in self.states or destination not in self.states:
                raise ExtractionError("transition references an unknown state")
            if observation not in self.observation_prototypes:
                raise ExtractionError(
                    f"transition on observation code {observation!r}, which has no prototype"
                )
        cells = len(self.states) * len(self.observation_prototypes)
        if len(self.transitions) != cells:
            raise ExtractionError(
                f"the machine is not total: {len(self.transitions)} of {cells} cells"
            )
        ids = [state.state_id for state in self.states.values()]
        if len(set(ids)) != len(ids):
            raise ExtractionError("duplicate state ids")

    def relabel(self) -> None:
        """Re-assign contiguous state ids ordered by decreasing visit count."""
        ordered = sorted(
            self.states.values(), key=lambda s: (-s.visit_count, s.state_id)
        )
        for new_id, state in enumerate(ordered):
            state.state_id = new_id
