"""FSM minimisation: merging equivalent states and pruning rare ones.

Raw extraction can produce more states than are meaningful (several
hidden-state codes that behave identically, or codes visited a handful
of times).  Two standard clean-ups are applied:

* **merge_equivalent_states** — Moore-style partition refinement: states
  that emit the same action and, for every observation code, transition
  into the same partition are merged into one representative.
* **prune_rare_states** — states visited fewer than ``min_visits`` times
  are removed; transitions into them are redirected to the most-visited
  surviving state with the same action (falling back to the most-visited
  state overall).

Both functions mutate the machine in place and return the mapping from
removed state codes to their surviving representative so callers can
remap any side data (e.g. interpretation records).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.errors import ExtractionError
from repro.fsm.machine import FiniteStateMachine, StateKey


def _apply_merges(fsm: FiniteStateMachine, mapping: Dict[StateKey, StateKey]) -> None:
    """Rewrite the machine so every state in ``mapping`` is replaced by its target."""

    def resolve(key: StateKey) -> StateKey:
        seen = set()
        while key in mapping and key not in seen:
            seen.add(key)
            key = mapping[key]
        return key

    # Merge visit counts into representatives, then drop merged states.
    for removed, target in list(mapping.items()):
        target = resolve(target)
        if removed in fsm.states and target in fsm.states and removed != target:
            fsm.states[target].visit_count += fsm.states[removed].visit_count
    for removed in mapping:
        fsm.states.pop(removed, None)

    new_transitions: Dict[Tuple[StateKey, Tuple[int, ...]], StateKey] = {}
    for (source, observation), destination in fsm.transitions.items():
        new_transitions[(resolve(source), observation)] = resolve(destination)
    fsm.transitions = new_transitions

    new_counts: Dict[Tuple[StateKey, StateKey], int] = defaultdict(int)
    for (source, destination), count in fsm.transition_counts.items():
        new_counts[(resolve(source), resolve(destination))] += count
    fsm.transition_counts = dict(new_counts)

    if fsm.initial_state is not None:
        fsm.initial_state = resolve(fsm.initial_state)


def merge_equivalent_states(fsm: FiniteStateMachine) -> Dict[StateKey, StateKey]:
    """Merge behaviourally equivalent states (same action, same successor partition)."""
    if fsm.num_states == 0:
        return {}

    # Initial partition: by emitted action.
    partition: Dict[StateKey, int] = {}
    blocks: Dict[int, List[StateKey]] = defaultdict(list)
    action_to_block: Dict[int, int] = {}
    for code, state in fsm.states.items():
        block = action_to_block.setdefault(int(state.action), len(action_to_block))
        partition[code] = block
        blocks[block].append(code)

    observations = sorted({observation for (_, observation) in fsm.transitions})

    # Refine until stable: two states stay together only if, for every
    # observation, their successors are in the same block.
    changed = True
    while changed:
        changed = False
        signature_to_block: Dict[Tuple, int] = {}
        new_partition: Dict[StateKey, int] = {}
        for code in fsm.states:
            signature = [partition[code]]
            for observation in observations:
                destination = fsm.transitions.get((code, observation), code)
                signature.append(partition.get(destination, -1))
            signature = tuple(signature)
            if signature not in signature_to_block:
                signature_to_block[signature] = len(signature_to_block)
            new_partition[code] = signature_to_block[signature]
        if len(set(new_partition.values())) != len(set(partition.values())):
            changed = True
        partition = new_partition

    # Pick the most-visited state of each block as its representative.
    block_members: Dict[int, List[StateKey]] = defaultdict(list)
    for code, block in partition.items():
        block_members[block].append(code)
    mapping: Dict[StateKey, StateKey] = {}
    for members in block_members.values():
        if len(members) <= 1:
            continue
        representative = max(members, key=lambda c: (fsm.states[c].visit_count, c))
        for member in members:
            if member != representative:
                mapping[member] = representative
    if mapping:
        if fsm.initial_state is None:
            # Merging sums visit counts, which can move the most-visited
            # start fallback to another block; pin the start it has now.
            fsm.initial_state = fsm.start_state()
        _apply_merges(fsm, mapping)
    return mapping


def prune_rare_states(fsm: FiniteStateMachine, min_visits: int) -> Dict[StateKey, StateKey]:
    """Remove states visited fewer than ``min_visits`` times."""
    if min_visits <= 0 or fsm.num_states <= 1:
        return {}
    keep = {code for code, state in fsm.states.items() if state.visit_count >= min_visits}
    if fsm.initial_state is not None:
        keep.add(fsm.initial_state)
    if not keep:
        raise ExtractionError(
            f"pruning with min_visits={min_visits} would remove every state"
        )
    removed = [code for code in fsm.states if code not in keep]
    if not removed:
        return {}

    survivors = sorted(keep, key=lambda c: -fsm.states[c].visit_count)
    mapping: Dict[StateKey, StateKey] = {}
    for code in removed:
        action = fsm.states[code].action
        same_action = [s for s in survivors if fsm.states[s].action == action]
        mapping[code] = same_action[0] if same_action else survivors[0]
    _apply_merges(fsm, mapping)
    return mapping
