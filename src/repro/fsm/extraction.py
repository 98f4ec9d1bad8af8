"""Extraction of a finite state machine from the trained recurrent policy.

Given the transition dataset ``<h_{t-1}, h_t, o_t, a_t>`` collected by
running the trained policy, and the two trained QBNs, extraction
proceeds exactly as in paper Section 3.2.1:

1. quantise every hidden state and observation with the QBNs, producing
   discrete codes ``bh`` and ``bo``;
2. the distinct ``bh`` codes become the FSM states; each state is
   labelled with the (majority) action the policy emits from it;
3. the tuples ``(bh_{t-1}, bo_t) -> bh_t`` populate the transition table;
4. optionally, equivalent states are merged and rarely visited states
   pruned (Koul et al.'s minimisation step);
5. the continuous observations are kept per transition so the
   interpretation stage (Section 3.3) can compute fan-in/fan-out and
   history statistics, and so unseen observations can be matched to
   their nearest known observation at deployment time (Section 3.2.2).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExtractionError
from repro.fsm.generalize import NearestObservationMatcher
from repro.fsm.machine import FiniteStateMachine, StateKey
from repro.fsm.minimize import merge_equivalent_states, prune_rare_states
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


@dataclass(frozen=True)
class ExtractionConfig:
    """Options of the extraction stage."""

    merge_equivalent: bool = True
    min_state_visits: int = 0
    similarity_metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.min_state_visits < 0:
            raise ExtractionError("min_state_visits must be non-negative")


@dataclass
class ExtractionResult:
    """The extracted machine plus everything needed to interpret and deploy it."""

    fsm: FiniteStateMachine
    records: List[TransitionRecord] = field(default_factory=list)
    matcher: Optional[NearestObservationMatcher] = None
    num_raw_states: int = 0
    num_observation_codes: int = 0
    # Records whose (source, observation code) already led to a different
    # successor; the later record overwrote it (last write wins).
    transition_conflicts: int = 0

    def summary(self) -> Dict[str, float]:
        return {
            "states": float(self.fsm.num_states),
            "raw_states": float(self.num_raw_states),
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

        source_keys = [code_key(row) for row in hidden_before_codes]
        destination_keys = [code_key(row) for row in hidden_after_codes]
        observation_keys = [code_key(row) for row in observation_codes]

        # Action of a state = majority action emitted when the policy's
        # hidden state quantises to that code.
        action_votes: Dict[StateKey, Counter] = defaultdict(Counter)
        visit_counts: Dict[StateKey, int] = defaultdict(int)
        for destination, action in zip(destination_keys, dataset.actions):
            action_votes[destination][int(action)] += 1
            visit_counts[destination] += 1

        fsm = FiniteStateMachine()
        all_states = set(source_keys) | set(destination_keys)
        for state in sorted(all_states):
            votes = action_votes.get(state)
            action = (
                MigrationAction(votes.most_common(1)[0][0])
                if votes
                else MigrationAction.NOOP
            )
            added = fsm.add_state(state, action)
            added.visit_count = visit_counts.get(state, 0)

        records: List[TransitionRecord] = []
        conflicts = 0
        for i in range(len(dataset)):
            known = fsm.transitions.get((source_keys[i], observation_keys[i]))
            conflicts += known is not None and known != destination_keys[i]
            fsm.add_transition(
                source_keys[i],
                observation_keys[i],
                destination_keys[i],
                observation_vector=dataset.observations[i],
            )
            records.append(
                TransitionRecord(
                    episode=int(dataset.episode_ids[i]),
                    step=int(dataset.step_ids[i]),
                    source_state=source_keys[i],
                    destination_state=destination_keys[i],
                    observation_code=observation_keys[i],
                    action=int(dataset.actions[i]),
                    raw_observation=dataset.raw_observations[i],
                    normalized_observation=dataset.observations[i],
                )
            )

        # The initial state is the quantisation of the all-zero GRU state.
        zero_hidden = np.zeros(dataset.hidden_dim)
        initial_key = code_key(self.hidden_qbn.discrete_code(zero_hidden))
        if initial_key not in fsm.states:
            fsm.add_state(initial_key, MigrationAction.NOOP)
        fsm.initial_state = initial_key

        num_raw_states = fsm.num_states

        state_rename: Dict[StateKey, StateKey] = {}
        if self.config.min_state_visits > 0:
            state_rename.update(prune_rare_states(fsm, self.config.min_state_visits))
        if self.config.merge_equivalent:
            state_rename.update(merge_equivalent_states(fsm))
        if state_rename:
            records = [self._remap_record(record, state_rename) for record in records]

        fsm.relabel()
        fsm.validate()

        matcher = NearestObservationMatcher(
            fsm.observation_prototypes,
            metric=self.config.similarity_metric,
            encoder=lambda vector: code_key(self.observation_qbn.discrete_code(vector)),
        )
        return ExtractionResult(
            fsm=fsm,
            records=records,
            matcher=matcher,
            num_raw_states=num_raw_states,
            num_observation_codes=len(set(observation_keys)),
            transition_conflicts=conflicts,
        )

    @staticmethod
    def _remap_record(
        record: TransitionRecord, rename: Dict[StateKey, StateKey]
    ) -> TransitionRecord:
        def resolve(key: StateKey) -> StateKey:
            seen = set()
            while key in rename and key not in seen:
                seen.add(key)
                key = rename[key]
            return key

        return TransitionRecord(
            episode=record.episode,
            step=record.step,
            source_state=resolve(record.source_state),
            destination_state=resolve(record.destination_state),
            observation_code=record.observation_code,
            action=record.action,
            raw_observation=record.raw_observation,
            normalized_observation=record.normalized_observation,
        )
