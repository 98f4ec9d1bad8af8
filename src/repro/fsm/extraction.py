"""Extraction of a finite state machine from the trained recurrent policy.

Given the transition dataset ``<h_{t-1}, h_t, o_t, a_t>`` collected by
running the trained policy, and the two trained QBNs, extraction
proceeds exactly as in paper Section 3.2.1:

1. quantise every hidden state and observation with the QBNs, producing
   discrete codes ``bh`` and ``bo``;
2. the distinct ``bh`` codes become the FSM states; each state is
   labelled with the majority action the policy emits from it (ties to
   the lowest action id);
3. the tuples ``(bh_{t-1}, bo_t) -> bh_t`` decide the seen cells: a
   cell's successor is the majority successor over its records (ties to
   the lowest raw state id), so the machine does not depend on record
   order;
4. compatible states of that partial machine are folded
   (:func:`~repro.fsm.minimize.fold_compatible_states`, Koul et al.'s
   minimisation step), then the machine is made total: an unseen
   (state, code) cell gets the code's majority successor over all
   records (ties to the lowest final state id).  Filled cells add no
   ``transition_counts``, so renderings and interpretation show only the
   evidence.  A machine that emits one action while two or more actions
   each hold at least 5% of the records is refused;
5. the continuous observations are kept per transition so the
   interpretation stage (Section 3.3) can compute fan-in/fan-out and
   history statistics, and so unseen observations can be matched to
   their nearest known observation at deployment time (Section 3.2.2).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ExtractionError
from repro.fsm.machine import FiniteStateMachine, StateKey
from repro.fsm.minimize import fold_compatible_states
from repro.qbn.autoencoder import QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.qbn.quantize import code_key
from repro.storage.migration import MigrationAction


@dataclass(frozen=True)
class TransitionRecord:
    """One dataset transition annotated with its discrete codes."""

    episode: int
    step: int
    source_state: StateKey
    destination_state: StateKey
    observation_code: Tuple[int, ...]
    action: int
    raw_observation: np.ndarray
    normalized_observation: np.ndarray


# An action that holds at least this share of the records must not
# vanish from the machine, so a one-action machine over two such actions
# is refused.
FREQUENT_ACTION_SHARE = 0.05


def _majority(votes: Counter, rank: Callable[[Hashable], int]) -> Hashable:
    """The most common key of ``votes``, ties to the lowest ``rank``."""
    return min(votes, key=lambda key: (-votes[key], rank(key)))


@dataclass(frozen=True)
class ExtractionConfig:
    """Options of the extraction stage.

    Extraction has no options left; ``min_state_visits`` is accepted only
    as the integer 0, which callers written for the removed rare-state
    pruning still pass.
    """

    min_state_visits: int = 0

    def __post_init__(self) -> None:
        if type(self.min_state_visits) is not int or self.min_state_visits != 0:
            raise ConfigurationError(
                f"min_state_visits accepts only the integer 0 (rare states are not "
                f"pruned), got {self.min_state_visits!r}"
            )


@dataclass
class ExtractionResult:
    """The extracted machine plus everything needed to interpret and deploy it."""

    fsm: FiniteStateMachine
    records: List[TransitionRecord] = field(default_factory=list)
    num_raw_states: int = 0
    num_observation_codes: int = 0
    # (source, observation code) cells whose records name more than one
    # successor; the majority decides each.
    transition_conflicts: int = 0

    @property
    def coverage(self) -> float:
        """Share of the machine's (state, code) cells that the records visit."""
        cells = self.fsm.num_states * len(self.fsm.observation_prototypes)
        seen = {(record.source_state, record.observation_code) for record in self.records}
        return len(seen) / cells if cells else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "states": float(self.fsm.num_states),
            "raw_states": float(self.num_raw_states),
            "coverage": self.coverage,
            "transitions": float(self.fsm.num_transitions),
            "observation_codes": float(self.num_observation_codes),
            "records": float(len(self.records)),
            "transition_conflicts": float(self.transition_conflicts),
        }


class FSMExtractor:
    """Builds a :class:`FiniteStateMachine` from a policy, its QBNs and rollouts."""

    def __init__(
        self,
        observation_qbn: QuantizedBottleneckNetwork,
        hidden_qbn: QuantizedBottleneckNetwork,
        config: Optional[ExtractionConfig] = None,
    ) -> None:
        self.observation_qbn = observation_qbn
        self.hidden_qbn = hidden_qbn
        self.config = config or ExtractionConfig()

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def extract(self, dataset: TransitionDataset) -> ExtractionResult:
        if len(dataset) == 0:
            raise ExtractionError("cannot extract an FSM from an empty dataset")

        hidden_before_codes = self.hidden_qbn.discrete_code(dataset.hidden_before)
        hidden_after_codes = self.hidden_qbn.discrete_code(dataset.hidden_after)
        observation_codes = self.observation_qbn.discrete_code(dataset.observations)

        # ``code_key`` of every row, one conversion a matrix.
        source_keys, destination_keys, observation_keys = (
            [tuple(row) for row in np.asarray(codes, dtype=int).tolist()]
            for codes in (hidden_before_codes, hidden_after_codes, observation_codes)
        )

        # Action of a state = majority action emitted when the policy's
        # hidden state quantises to that code.
        action_votes: Dict[StateKey, Counter] = defaultdict(Counter)
        for destination, action in zip(destination_keys, dataset.actions):
            action_votes[destination][int(action)] += 1

        fsm = FiniteStateMachine()
        for state in sorted(set(source_keys) | set(destination_keys)):
            votes = action_votes.get(state)
            action = MigrationAction(_majority(votes, int)) if votes else MigrationAction.NOOP
            fsm.add_state(state, action).visit_count = sum(votes.values()) if votes else 0

        # The initial state is the quantisation of the all-zero GRU state.
        zero_hidden = np.zeros(dataset.hidden_dim)
        initial_key = code_key(self.hidden_qbn.discrete_code(zero_hidden))
        fsm.add_state(initial_key, MigrationAction.NOOP)
        fsm.initial_state = initial_key
        self._refuse_erased_actions(fsm, dataset.actions)

        successor_votes: Dict[Tuple[StateKey, Tuple[int, ...]], Counter] = defaultdict(Counter)
        for i in range(len(dataset)):
            successor_votes[(source_keys[i], observation_keys[i])][destination_keys[i]] += 1
            fsm.add_transition(
                source_keys[i],
                observation_keys[i],
                destination_keys[i],
                observation_vector=dataset.observations[i],
            )
        raw_id = {key: state.state_id for key, state in fsm.states.items()}
        for cell, votes in successor_votes.items():
            fsm.transitions[cell] = _majority(votes, raw_id.__getitem__)
        num_raw_states = fsm.num_states

        final = fold_compatible_states(fsm)
        records = [
            TransitionRecord(
                episode=int(dataset.episode_ids[i]),
                step=int(dataset.step_ids[i]),
                source_state=final.get(source_keys[i], source_keys[i]),
                destination_state=final.get(destination_keys[i], destination_keys[i]),
                observation_code=observation_keys[i],
                action=int(dataset.actions[i]),
                raw_observation=dataset.raw_observations[i],
                normalized_observation=dataset.observations[i],
            )
            for i in range(len(dataset))
        ]
        fsm.relabel()
        self._fill_unseen_cells(fsm, records)
        fsm.validate()

        return ExtractionResult(
            fsm=fsm,
            records=records,
            num_raw_states=num_raw_states,
            num_observation_codes=len(fsm.observation_prototypes),
            transition_conflicts=sum(len(votes) > 1 for votes in successor_votes.values()),
        )

    @staticmethod
    def _refuse_erased_actions(fsm: FiniteStateMachine, actions: np.ndarray) -> None:
        """Refuse a one-action machine over records that hold two frequent actions."""
        emitted = {state.action for state in fsm.states.values()}
        counts = Counter(int(action) for action in actions)
        frequent = sorted(a for a, n in counts.items() if n >= FREQUENT_ACTION_SHARE * len(actions))
        if len(emitted) == 1 and len(frequent) >= 2:
            raise ExtractionError(
                f"the extracted machine emits only {emitted.pop().short_name} while actions "
                f"{frequent} each hold at least {FREQUENT_ACTION_SHARE:.0%} of the "
                f"{len(actions)} records"
            )

    @staticmethod
    def _fill_unseen_cells(fsm: FiniteStateMachine, records: List[TransitionRecord]) -> None:
        """Give every unseen (state, code) cell the code's majority successor."""
        votes: Dict[Tuple[int, ...], Counter] = defaultdict(Counter)
        for record in records:
            votes[record.observation_code][record.destination_state] += 1
        final_id = {key: state.state_id for key, state in fsm.states.items()}
        for observation, successors in votes.items():
            successor = _majority(successors, final_id.__getitem__)
            for state in fsm.states:
                fsm.transitions.setdefault((state, observation), successor)
