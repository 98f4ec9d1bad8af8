"""FSM minimisation: one compatible-merge fold over the partial machine.

Raw extraction yields one state per distinct hidden-state code, and the
records visit only a few percent of the (state, observation code)
cells.  The one minimiser is the state-merging test of grammatical
inference (RPNI, Oncina & García 1992; ALERGIA, Carrasco & Oncina 1994),
run on that partial machine before it is made total: two states are
**compatible** when they emit the same action and their successors are
compatible on every code both have seen.  A cell neither has seen
constrains nothing, and a machine without unseen cells folds exactly its
Moore-equivalent states.

:func:`fold_compatible_states` visits the states least-visited first
(ties by state key) and folds each into the most-visited compatible
state (ties by state key).  Folding two states folds their successors on
every shared code too, so the machine stays deterministic; a fold that
would join two actions is abandoned whole.  The start state may absorb
other states but is never folded away.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.fsm.machine import FiniteStateMachine, ObservationKey, StateKey

Edges = Dict[ObservationKey, StateKey]


def fold_compatible_states(fsm: FiniteStateMachine) -> Dict[StateKey, StateKey]:
    """Fold compatible states in place; returns ``removed -> final representative``."""
    if fsm.num_states <= 1:
        return {}
    start = fsm.start_state()
    index = {key: position for position, key in enumerate(sorted(fsm.states))}
    action = {key: state.action for key, state in fsm.states.items()}
    weight = {key: state.visit_count for key, state in fsm.states.items()}
    # One union-find and one successor map per block representative,
    # built once from the seen cells (sorted, so the fold does not depend
    # on the order the cells were recorded in).
    parent = {key: key for key in fsm.states}
    edges: Dict[StateKey, Edges] = {key: {} for key in fsm.states}
    for (source, observation), destination in sorted(fsm.transitions.items()):
        edges[source][observation] = destination

    def find(key: StateKey, moved: Dict[StateKey, StateKey]) -> StateKey:
        while (up := moved.get(key, parent[key])) != key:
            key = up
        return key

    def fold(absorbed: StateKey, target: StateKey) -> Optional[Tuple[dict, dict, dict]]:
        """The union-find, edge and weight changes that fold ``absorbed``
        into ``target`` and close the result under shared codes, or None
        when the closure would join two actions."""
        moved: Dict[StateKey, StateKey] = {}
        merged: Dict[StateKey, Edges] = {}
        weights: Dict[StateKey, int] = {}
        pending = [(absorbed, target)]
        while pending:
            a, b = (find(key, moved) for key in pending.pop())
            if a == b:
                continue
            wa, wb = weights.get(a, weight[a]), weights.get(b, weight[b])
            # The first fold goes as asked; a fold it forces keeps the
            # start, else the heavier block, else the lower key.
            if moved and (a == start or (b != start and (wa, -index[a]) > (wb, -index[b]))):
                a, b, wa, wb = b, a, wb, wa
            kept = merged.get(b)
            if kept is None:
                kept = merged[b] = dict(edges[b])
            for observation, successor in merged.get(a, edges[a]).items():
                known = kept.setdefault(observation, successor)
                if known != successor:
                    # A block emits its members' action, so two
                    # successors that differ in action can never fold.
                    if action[known] != action[successor]:
                        return None
                    pending.append((successor, known))
            moved[a] = b
            weights[b] = wa + wb
        return moved, merged, weights

    representatives = set(fsm.states)
    for absorbed in sorted(fsm.states, key=lambda key: (weight[key], index[key])):
        if absorbed == start or absorbed not in representatives:
            continue
        for target in sorted(
            (key for key in representatives if key != absorbed and action[key] == action[absorbed]),
            key=lambda key: (-weight[key], index[key]),
        ):
            change = fold(absorbed, target)
            if change is not None:
                for table, update in zip((parent, edges, weight), change):
                    table.update(update)
                representatives.difference_update(change[0])
                break

    final = {key: find(key, {}) for key in fsm.states if key not in representatives}
    for removed, target in final.items():
        fsm.states[target].visit_count += fsm.states.pop(removed).visit_count
    fsm.transitions = {
        (source, observation): final.get(destination, destination)
        for source in fsm.states
        for observation, destination in edges[source].items()
    }
    counts: Dict[Tuple[StateKey, StateKey], int] = defaultdict(int)
    for (source, destination), count in fsm.transition_counts.items():
        counts[(final.get(source, source), final.get(destination, destination))] += count
    fsm.transition_counts = dict(counts)
    # Folding sums visit counts, which can move the most-visited start
    # fallback; pin the start the machine had.
    fsm.initial_state = start
    return final
