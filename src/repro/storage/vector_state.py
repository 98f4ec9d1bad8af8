"""Struct-of-arrays simulator core: B episodes advanced as array kernels.

:class:`VectorSimulatorState` holds the complete state of ``B``
independent storage-simulator episodes in B-major numpy arrays — level
occupancies (backlogs), per-core residency and migration cooldowns, and
the per-interval accumulators — and advances every unfinished episode in
one pass per interval.  Where the scalar simulator ran B Python loops
over the three levels (the dominant cost of batched rollout collection),
the vectorized kernels resolve migrations, workload injection, cache
hit/miss accounting, idle sampling, and polling dispatch with a handful
of array operations over all ``(slot, level)`` cells at once.

Determinism contract
--------------------
Slot ``i`` of a vector episode is **bit-identical** to a scalar
:class:`~repro.storage.simulator.StorageSimulator` episode on the same
trace with the same Philox lane (and the scalar simulator itself is the
``B=1`` view of this state).  Three properties carry that guarantee:

* every per-cell floating-point reduction is performed on the same
  values in the same order as the scalar code (numpy's pairwise
  summation over a contiguous row matches the standalone vector sum,
  which ``tests/test_vector_state.py`` pins);
* each slot draws its idle cores from its own
  :class:`~repro.utils.rng.PhiloxStreams` lane, whose values depend on
  the lane's episode id and cursor only, never on the other slots of
  the batch;
* selection logic is fixed by rule, not by a sort's tie order: the
  migration candidate is chosen by the rule below, and a level idles its
  cores highest capacity first, lowest core id among equals (a
  ``kind="stable"`` argsort; the default kind's tie order depends on
  the host's SIMD sort, and in a level of 8 or more cores the position
  of an idled core moves the pairwise total).

Layout of the cores
-------------------
Cores are stored in a **fixed level-major layout**: per slot, a padded
positional tensor ``(level, position)`` whose row ``l`` holds the cores
currently at level ``l`` in ascending core-id order (``counts[l]`` valid
positions, then padding — sentinel ids, zero cooldowns).  "The
capacities of level ``l``'s cores in scalar order" is therefore a plain
row read — the per-interval ``argsort``/gather the id-major layout
needed is gone entirely — and a migration only rewrites the two level
rows it touches (one vectorized shift each across all migrating slots).
A reset lays out ``initial_allocation``: core ids ``0..N-1`` ascending
level by level in ``LEVELS`` order, every cooldown zero.

Migration rule
--------------
A migration moves one core, and only when its source level holds more
than ``min_cores_per_level`` cores (otherwise it is a no-op).  The core
that moves is the lowest-id unpenalised core at the source level, or
the lowest-id penalised one when every core there is penalised.  It
pays the migration penalty in the interval it moves and for
``migration_cooldown_intervals`` intervals after; cooldowns decay by
one at the end of every interval.

Episodes of different lengths coexist: finished slots are masked out of
every kernel and stop consuming randomness, so a partial batch drains
without perturbing the remaining slots.

Kernels
-------
:meth:`VectorSimulatorState.step` picks one of two kernels at each
reset, byte-equal in every state array:

1. the native kernel (``_sim_kernel.c``, registered with
   :mod:`repro.native` as ``"simulator"``), when it is ready and no
   level can hold more than 15 cores — one C pass for
   migrations and injection, one for dispatch through the done flags,
   on either side of the idle draws, which stay in Python;
2. otherwise the numpy migration and injection passes and the per-cell
   reference dispatch loop: the specification the native kernel is
   checked against when it loads.  It is there for correctness, not
   for serving.

Dispatch rule
-------------
The paper assigns IO requests to cores "in a polling manner" (Section
2, property 1), with no work stealing: a request queued on a slow core
(one paying a migration penalty, say) stays there.  Both kernels split
a level's pending work evenly over its cores and let each core process
at most its own effective capacity, so work assigned to a penalised or
idle core is not redistributed.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.native import _address, kernel as native_kernel, register
from repro.storage.levels import LEVELS
from repro.storage.metrics import EpisodeMetrics, StepColumns
from repro.storage.migration import (
    ACTION_DEST_INDICES,
    ACTION_SOURCE_INDICES,
    NUM_ACTIONS as _NUM_ACTIONS,
)
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import IDLE_DOMAIN, PhiloxStreams, episode_lanes, episode_seed

_NUM_LEVELS = len(LEVELS)
_DRAIN_EPSILON = 1e-9
_EMPTY_LEVEL = "polling dispatch requires at least one core per level"


def _bad_actions(actions: np.ndarray) -> SimulationError:
    return SimulationError(
        f"action indices must be in [0, {_NUM_ACTIONS}), got {actions}"
    )


class VectorSimulatorState:
    """B-major state and vectorized update kernels for lockstep episodes.

    One instance is reused across resets; the batch size is set by each
    :meth:`reset` call, and so are the Philox lanes the slots draw from.
    """

    def __init__(self, config, record_metrics: bool = False) -> None:
        config.validate()
        self.config = config
        self._record_metrics = bool(record_metrics)
        self._capability = float(config.core_capability_kb)
        self._penalized_capability = self._capability * (1.0 - config.migration_penalty)
        self._arange_buffer = np.arange(0)
        self.last_step_all_active = False
        # A level can hold at most total - (levels-1) * min cores; this
        # bound is also the width of the padded positional core arrays.
        self._level_capacity = config.total_cores - (
            (_NUM_LEVELS - 1) * config.min_cores_per_level
        )
        # The native kernel replays numpy's pairwise summation for rows
        # below 16 elements (left-to-right under 8, unrolled tree + tail
        # up to 15); wider levels step on the reference loop.
        self._native_supported = self._level_capacity <= _KERNEL_MAX_WIDTH
        # Sentinel core id marking padding positions; it compares greater
        # than every real id — and also greater than any penalised core's
        # selection key ``id + N`` — so insertion-point searches and the
        # migration-candidate argmin need no validity masks.
        self._id_sentinel = 2 * config.total_cores
        self.batch = 0
        self._kernel: Optional[NativeSimulatorKernel] = None
        self._kernel_args = None
        self._streams: Optional[PhiloxStreams] = None
        self.episodes: List[EpisodeMetrics] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return int(self.config.total_cores)

    # ------------------------------------------------------------------
    # Episode control
    # ------------------------------------------------------------------
    def reset(
        self,
        traces: Sequence[WorkloadTrace],
        rngs: Optional[PhiloxStreams] = None,
    ) -> None:
        """Start one episode per trace; slot ``i`` draws from lane ``i`` of ``rngs``.

        ``rngs`` is a :class:`~repro.utils.rng.PhiloxStreams` with one
        lane per slot (the fleet's, or the design path's
        :func:`~repro.utils.rng.episode_lanes`); every interval samples
        the whole batch's idle cores in one call on it, advancing its
        cursors.  ``None`` gives the slots fresh lanes.
        """
        traces = list(traces)
        if not traces:
            raise SimulationError("reset() needs at least one trace")
        if rngs is not None and not isinstance(rngs, PhiloxStreams):
            raise SimulationError(
                f"rngs must be PhiloxStreams with one lane per trace, got {type(rngs).__name__}"
            )
        if rngs is not None and len(rngs) != len(traces):
            raise SimulationError(
                f"got {len(rngs)} rng streams for {len(traces)} traces"
            )
        # Slots may share trace *objects* (a fleet shard hands two dozen
        # to thousands of slots): everything read off a trace is built
        # once per distinct object, in first-occurrence order, then
        # gathered.
        distinct = {id(trace): trace for trace in traces}
        row_of = {key: row for row, key in enumerate(distinct)}
        self.distinct_traces = list(distinct.values())
        self.trace_index = np.array(
            [row_of[id(trace)] for trace in traces], dtype=np.intp
        )
        for trace in self.distinct_traces:
            if len(trace) == 0:
                raise SimulationError(f"trace {trace.name!r} has no intervals")
        batch = len(traces)
        self.batch = batch
        if rngs is None:
            first = episode_seed(None)
            rngs = episode_lanes(range(first, first + batch), IDLE_DOMAIN)
        self._streams = rngs

        lengths = np.array([len(t) for t in self.distinct_traces], dtype=np.int64)
        self.trace_len = lengths[self.trace_index]
        t_max = int(lengths.max())
        read_kb = np.zeros((lengths.shape[0], t_max))
        write_kb = np.zeros((lengths.shape[0], t_max))
        for row, trace in enumerate(self.distinct_traces):
            for t, interval in enumerate(trace):
                read_kb[row, t] = interval.read_kb()
                write_kb[row, t] = interval.write_kb()
        self._read_kb = read_kb[self.trace_index]
        self._write_kb = write_kb[self.trace_index]
        # Slot i's interval t is flat element ``i * t_max + t`` of both
        # tables: a 1-D gather costs a third of the 2-D ``[rows, t]`` one.
        self._interval_base = np.arange(batch, dtype=np.int64) * t_max

        # Every slot starts from the same layout: ``initial_allocation``'s
        # counts, core ids 0..N-1 ascending level by level, no cooldowns.
        counts = np.array(self.config.initial_counts(), dtype=np.int64)
        width = self._level_capacity
        offs = np.arange(width)
        first_ids = np.cumsum(counts) - counts
        pos_state = np.zeros((2, _NUM_LEVELS, width), dtype=np.int64)
        pos_state[0] = np.where(
            offs < counts[:, None], first_ids[:, None] + offs, self._id_sentinel
        )
        # Ids and cooldowns share one (2, B, levels, width) tensor so the
        # migration kernel moves both with single gathers; ``pos_ids`` /
        # ``pos_cooldown`` are *contiguous* views of its two leading
        # planes (the dispatch kernels read cooldowns every interval).
        self._pos_state = np.tile(pos_state[:, None], (1, batch, 1, 1))
        self.pos_ids = self._pos_state[0]
        self.pos_cooldown = self._pos_state[1]
        self.counts = np.tile(counts, (batch, 1))
        # Shift permutations for delete-at-p / insert-at-q row surgery,
        # precomputed per offset so a migration only gathers table rows.
        self._del_perm_table = np.minimum(
            offs[None, :] + (offs[None, :] >= offs[:, None]), width - 1
        )
        self._ins_perm_table = np.maximum(
            offs[None, :] - (offs[None, :] > offs[:, None]), 0
        )
        self.backlog = np.zeros((batch, _NUM_LEVELS))
        self.interval_index = np.zeros(batch, dtype=np.int64)
        # The next-interval cursor and the makespan counter advance in
        # lockstep (both +1 per stepped slot, nothing else writes them),
        # so they share one array; the two names keep the two meanings
        # readable at their use sites.
        self.steps_taken = self.interval_index
        self.done = np.zeros(batch, dtype=bool)
        self.truncated = np.zeros(batch, dtype=bool)
        self.max_intervals = (
            self.config.max_intervals_factor * self.trace_len
            + self.config.max_intervals_slack
        ).astype(np.int64)
        self.incoming = np.zeros((batch, _NUM_LEVELS))
        self.processed = np.zeros((batch, _NUM_LEVELS))
        self.capacity = np.zeros((batch, _NUM_LEVELS))
        self.utilization = np.zeros((batch, _NUM_LEVELS))
        self.idle = np.zeros((batch, _NUM_LEVELS), dtype=np.int64)
        # Truncation bookkeeping: no slot can hit its interval cap before
        # the smallest cap many steps have elapsed, so the per-interval
        # truncation checks are skipped until then (and the done-mask OR
        # is skipped until a truncation actually happened).
        self._steps_elapsed = 0
        self._min_max_intervals = int(self.max_intervals.min())
        self._any_truncated = False
        self.migration_applied = np.zeros(batch, dtype=bool)
        self.episodes = [EpisodeMetrics(trace_name=t.name) for t in traces]
        # The native kernel steps these arrays through their addresses,
        # packed here: nothing may rebind a state array until the next
        # reset.
        self._kernel = None
        if self._native_supported:
            self._kernel = native_kernel("simulator")
            if self._kernel is not None:
                self._kernel.pack(self)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, actions: Sequence[int]) -> np.ndarray:
        """Advance every unfinished slot one interval; returns the stepped mask.

        Finished slots ignore their action, consume no randomness and
        keep their final accumulator values; callers that need strict
        scalar semantics (step-after-done is an error) enforce it above
        this layer.
        """
        if self.batch == 0:
            raise SimulationError("simulator has not been reset with a trace")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (self.batch,):
            raise SimulationError(
                f"expected ({self.batch},) actions, got shape {actions.shape}"
            )
        kernel = self._kernel
        if kernel is None:
            if int(actions.min()) < 0 or int(actions.max()) >= _NUM_ACTIONS:
                raise _bad_actions(actions)
            stepped = ~self.done
            active_count = int(stepped.sum())
        else:
            if not actions.flags.c_contiguous:
                actions = np.ascontiguousarray(actions)
            # Migrations and workload injection, before the idle draws.
            active_count = kernel.pre(self, actions)
            if active_count < 0:
                raise _bad_actions(actions)
            stepped = ~self.done
        self.last_step_all_active = all_active = active_count == self.batch
        if active_count == 0:
            return stepped
        rows = self._arange(self.batch) if all_active else np.nonzero(stepped)[0]
        # Whole-batch steps (the common case until episodes start
        # finishing) index with a slice: views instead of gather/scatter.
        ix = slice(None) if all_active else rows

        if kernel is None:
            self._apply_migrations(rows, ix, actions)
            self._inject_workload(rows, ix)
        self._sample_idle(rows, ix)
        self._steps_elapsed += 1
        if kernel is None:
            truncated = self._finish_interval(rows, ix)
        else:
            # Dispatch, accounting, cooldown decay, time and the flags.
            truncated = kernel.post(self)
            if truncated < 0:
                raise SimulationError(_EMPTY_LEVEL)
        if truncated:
            self._any_truncated = True
            for slot in np.nonzero(stepped & self.truncated)[0].tolist():
                self.episodes[slot].truncated = True

        if self._record_metrics:
            self._record_interval_metrics(rows, ix, actions)
        return stepped

    def _finish_interval(self, rows: np.ndarray, ix) -> int:
        """Dispatch, decay cooldowns, advance time and set the done and
        truncated flags of the stepped rows; returns how many truncated."""
        self._process_intervals_reference(rows)

        # Advance time and decay every positive cooldown by one.  With no
        # penalised core every cooldown, padding included, is zero:
        # skipped.
        cooldowns = self.pos_cooldown[ix]
        if cooldowns.any():
            if isinstance(ix, slice):
                self.pos_cooldown -= self.pos_cooldown > 0
            else:
                self.pos_cooldown[rows] = cooldowns - (cooldowns > 0)
        self.interval_index[ix] += 1  # also advances steps_taken (shared array)

        injected_all = self.interval_index[ix] >= self.trace_len[ix]
        if injected_all.any():
            drained = (self.backlog[ix] <= _DRAIN_EPSILON).all(axis=1)
            finished = injected_all & drained
        else:
            # No slot has injected its full trace yet, so none can finish
            # this interval (mid-episode fast path).
            finished = injected_all
        truncated = 0
        if self._steps_elapsed >= self._min_max_intervals:
            truncated_now = (
                self.steps_taken[ix] >= self.max_intervals[ix]
            ) & ~finished
            truncated = int(np.count_nonzero(truncated_now))
            if truncated:
                self.truncated[ix] |= truncated_now
        if self._any_truncated or truncated:
            self.done[ix] = finished | self.truncated[ix]
        else:
            self.done[ix] = finished
        return truncated

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _apply_migrations(self, rows: np.ndarray, ix, actions: np.ndarray) -> None:
        """Resolve all slots' migration actions in one vectorized pass.

        A slot whose source level sits at ``min_cores_per_level`` does
        not migrate.  Otherwise the chosen core is the lowest-id core at
        the source level that is not already paying a penalty, falling
        back to the lowest-id penalised core; its cooldown becomes at
        least ``migration_cooldown_intervals + 1`` (the interval it
        moves, then the cooldown window).  The
        padded level-major layout is maintained with two vectorized row
        shifts over all migrating slots: delete the chosen core from its
        source level row, insert it id-sorted into the destination row.
        """
        if self._record_metrics:
            self.migration_applied[ix] = False
        moving = rows[actions[ix] != 0]
        if moving.size == 0:
            return
        src = ACTION_SOURCE_INDICES[actions[moving]]
        dst = ACTION_DEST_INDICES[actions[moving]]
        legal = self.counts[moving, src] > self.config.min_cores_per_level
        if not legal.all():
            moving, src, dst = moving[legal], src[legal], dst[legal]
            if moving.size == 0:
                return
        m = moving.size
        m_idx = self._arange(m)

        # One gather serves both affected level rows of every migrating
        # slot: rows [0:m] are the sources, rows [m:2m] the destinations
        # (source and destination are different levels, so the final
        # scatter has no write conflicts).
        pair_slots = np.concatenate([moving, moving])
        pair_levels = np.concatenate([src, dst])
        pair_state = self._pos_state[:, pair_slots, pair_levels]   # (2, 2m, width)
        src_ids, src_cooldown = pair_state[0, :m], pair_state[1, :m]
        dst_ids = pair_state[0, m:]
        src_count = self.counts[moving, src]

        # Chosen core: id + N * is_penalized orders the unpenalised cores
        # by id ahead of the penalised ones, and the 2N sentinel of the
        # padding positions compares greater than every valid key, so the
        # argmin needs no validity mask.
        key = src_ids + self.num_cores * (src_cooldown > 0)
        p = key.argmin(axis=1)
        chosen_ids = src_ids[m_idx, p]
        chosen_cooldown = src_cooldown[m_idx, p]
        # Insertion offset in the destination row keeping ids ascending
        # (again mask-free thanks to the sentinel padding ids).
        q = (dst_ids < chosen_ids[:, None]).sum(axis=1)

        # Source rows shift left from p (delete); destination rows shift
        # right from q (insert) — both permutations come straight from
        # the precomputed shift tables.
        perm = np.concatenate([self._del_perm_table[p], self._ins_perm_table[q]])
        new_state = pair_state[
            self._arange(2)[:, None, None],
            self._arange(2 * m)[None, :, None],
            perm[None, :, :],
        ]
        # Source fix-up: when the row was full, the clipped shift leaves
        # a ghost copy of the last core in the padding — re-pad the new
        # end position (a no-op otherwise).
        new_state[0, m_idx, src_count - 1] = self._id_sentinel
        new_state[1, m_idx, src_count - 1] = 0
        # Destination fix-up: place the migrated core at q with its
        # refreshed penalty window.
        dst_rows = m_idx + m
        new_state[0, dst_rows, q] = chosen_ids
        new_state[1, dst_rows, q] = np.maximum(
            chosen_cooldown, self.config.migration_cooldown_intervals + 1
        )
        self._pos_state[:, pair_slots, pair_levels] = new_state
        self.counts[moving, src] = src_count - 1
        self.counts[moving, dst] += 1
        if self._record_metrics:
            self.migration_applied[moving] = True

    def _inject_workload(self, rows: np.ndarray, ix) -> None:
        """Add this interval's per-level demand to the backlogs (array form
        of the scalar simulator's incoming-work computation).

        When every slot steps and injects (``ix`` a slice, the common case
        mid-episode) nothing is gathered and the accumulators update in place.
        """
        t = self.interval_index[ix]
        injecting = t < self.trace_len[ix]
        if not injecting.all():
            # Some stepped slots have injected their whole trace and only
            # drain: they get zero demand, the rest are gathered.
            self.incoming[ix] = 0.0
            rows, t = rows[injecting], t[injecting]
            if rows.size == 0:
                return
            ix = rows
        config = self.config
        flat = self._interval_base[ix] + t
        read_kb = self._read_kb.ravel()[flat]
        write_kb = self._write_kb.ravel()[flat]
        missed_read_kb = read_kb * config.cache_miss_rate
        incoming = np.empty((rows.size, _NUM_LEVELS))
        incoming[:, 0] = read_kb + write_kb
        incoming[:, 1] = (
            write_kb * config.kv_write_factor
            + missed_read_kb * config.kv_read_miss_factor
        )
        incoming[:, 2] = (
            write_kb * config.rv_write_factor
            + missed_read_kb * config.rv_read_miss_factor
        )
        self.incoming[ix] = incoming
        self.backlog[ix] += incoming

    def _sample_idle(self, rows: np.ndarray, ix) -> None:
        """Draw each stepped slot's idle-core counts (Poisson), in one
        ``PhiloxStreams.idle_poisson`` call for the whole batch.

        Every multi-core (slot, level) cell samples; levels with one core
        (or ``idle_rate == 0``) draw nothing.  A lane's eligible levels
        map to consecutive cursor values in NORMAL/KV/RV order, and both
        the keystream and the Poisson inversion are element-wise, so slot
        i draws the same values whichever slots share its batch.  A
        whole-batch step asks for every lane in lane order (``rows=None``:
        no gathers).
        """
        if self.config.idle_rate <= 0:
            self.idle[ix] = 0
            return
        counts = self.counts[ix]
        lam = self.config.idle_rate * counts
        lanes = None if isinstance(ix, slice) else rows
        self.idle[ix], _ = self._streams.idle_poisson(lanes, counts, lam, np.exp(-lam))

    def _process_intervals_reference(self, rows: np.ndarray) -> None:
        """Per-cell polling dispatch loop — the scalar simulator's exact
        inner loop (the module docstring's "Dispatch rule").

        The specification of the native kernel's dispatch, and the
        dispatch of every state the native kernel does not step.
        """
        capability = self._capability
        for slot in rows.tolist():
            cooldown_rows = self.pos_cooldown[slot]
            no_penalty = not (cooldown_rows > 0).any()
            for level_index in range(_NUM_LEVELS):
                core_count = int(self.counts[slot, level_index])
                if not core_count:
                    raise SimulationError(_EMPTY_LEVEL)
                idle = int(self.idle[slot, level_index])
                if no_penalty:
                    capacities = np.full(core_count, capability, dtype=float)
                else:
                    # Level-major rows keep a level's cores in ascending
                    # core-id order: the order the capacities are
                    # reduced and idle cores ranked in.
                    capacities = np.where(
                        cooldown_rows[level_index, :core_count] > 0,
                        self._penalized_capability,
                        capability,
                    ).astype(float)
                if idle > 0:
                    order = np.argsort(-capacities, kind="stable")
                    capacities[order[:idle]] = 0.0
                total_capacity = float(capacities.sum())
                pending = self.backlog[slot, level_index]
                processed_kb = np.minimum(pending / capacities.size, capacities)
                total_processed = float(processed_kb.sum())
                self.processed[slot, level_index] = total_processed
                self.capacity[slot, level_index] = total_capacity
                self.utilization[slot, level_index] = (
                    min(1.0, total_processed / total_capacity)
                    if total_capacity > 0
                    else 0.0
                )
                self.backlog[slot, level_index] = max(0.0, pending - total_processed)

    def _arange(self, n: int) -> np.ndarray:
        """Read-only ``np.arange(n)`` (hot-path index helper): a prefix of
        one grow-only buffer, not one array per distinct ``n`` asked for."""
        if n > self._arange_buffer.shape[0]:
            self._arange_buffer = np.arange(n)
            self._arange_buffer.setflags(write=False)
        return self._arange_buffer[:n]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_interval_metrics(self, rows: np.ndarray, ix, actions: np.ndarray) -> None:
        """One column snapshot for the batch; episodes materialise on read."""
        columns = StepColumns(
            *(
                column[ix].tolist()
                for column in (
                    self.interval_index - 1,
                    actions,
                    self.migration_applied,
                    self.counts,
                    self.utilization,
                    self.incoming,
                    self.processed,
                    self.backlog,
                    self.capacity,
                    self.idle,
                )
            )
        )
        for row, slot in enumerate(rows.tolist()):
            self.episodes[slot].record_columns(columns, row)


# ----------------------------------------------------------------------
# Native kernel
# ----------------------------------------------------------------------
#: Largest row length :func:`pairwise_sum_ragged` reproduces; numpy's
#: pairwise summation switches to recursive splitting above this block
#: size (``PW_BLOCKSIZE``), which the column-accumulate model does not
#: cover.  Callers with longer rows must fall back to per-row ``sum()``.
PAIRWISE_MAX_LENGTH = 128


def pairwise_sum_ragged(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-cell ``values[..., :lengths[...]].sum()`` for ragged rows.

    ``values`` is ``(..., n_max)`` with ``0 <= lengths <= n_max``; cell
    ``c`` of the result is bit-identical to ``values[c, :lengths[c]].sum()``
    — the function replays numpy's pairwise summation order for every
    row length at once (a plain left-to-right accumulation below 8
    elements, the 8-accumulator unrolled tree with a sequential tail up
    to :data:`PAIRWISE_MAX_LENGTH`) using one masked column pass.
    Columns at and beyond a cell's length may hold arbitrary finite
    garbage; they never reach an accumulation.

    This is the **executable specification** of the summation-order
    model that the native simulator step (``pairwise_sum`` in
    ``_sim_kernel.c``) inlines for its hot path:
    ``tests/test_vector_state.py`` pins this function against per-row
    ``sum()`` across lengths, so a numpy
    upgrade that changes the pairwise internals fails here loudly
    instead of silently drifting a golden trace.
    """
    n_max = values.shape[-1]
    if n_max > PAIRWISE_MAX_LENGTH:
        raise SimulationError(
            f"pairwise_sum_ragged supports rows up to {PAIRWISE_MAX_LENGTH}, got {n_max}"
        )
    # Left-to-right accumulation: exact for lengths < 8.
    small = np.zeros(values.shape[:-1])
    for j in range(min(n_max, 7)):
        small = small + np.where(j < lengths, values[..., j], 0.0)
    if n_max < 8:
        return small
    # 8-accumulator unrolled path for lengths >= 8: full blocks of 8
    # accumulate r[j] += a[8k + j], the eight accumulators combine as a
    # balanced tree, and the non-multiple-of-8 tail adds sequentially.
    full_blocks = lengths - lengths % 8
    accumulators = [np.array(values[..., j]) for j in range(8)]
    for base in range(8, n_max - 7, 8):
        include = base + 8 <= full_blocks
        for j in range(8):
            accumulators[j] = accumulators[j] + np.where(
                include, values[..., base + j], 0.0
            )
    big = (
        (accumulators[0] + accumulators[1]) + (accumulators[2] + accumulators[3])
    ) + ((accumulators[4] + accumulators[5]) + (accumulators[6] + accumulators[7]))
    for j in range(8, n_max):
        big = big + np.where((full_blocks <= j) & (j < lengths), values[..., j], 0.0)
    return np.where(lengths < 8, small, big)


_KERNEL_MAX_WIDTH = 15  # MAX_WIDTH in the C file
# The state arrays ``sim_args`` points at, in its field order, with the
# dtype the C side reads them as (all C-contiguous, batch-major).
_KERNEL_ARRAYS = (
    ("pos_ids", np.int64), ("pos_cooldown", np.int64), ("counts", np.int64),
    ("idle", np.int64), ("backlog", np.float64), ("incoming", np.float64),
    ("processed", np.float64), ("capacity", np.float64),
    ("utilization", np.float64), ("interval_index", np.int64),
    ("trace_len", np.int64), ("max_intervals", np.int64), ("done", np.bool_),
    ("truncated", np.bool_), ("migration_applied", np.bool_),
    ("_read_kb", np.float64), ("_write_kb", np.float64),
)


class _KernelArgs(ctypes.Structure):
    """``sim_args`` of ``_sim_kernel.c``, field for field."""

    _fields_ = (
        [(name.lstrip("_"), ctypes.c_void_p) for name, _dtype in _KERNEL_ARRAYS]
        + [("action_src", ctypes.c_void_p), ("action_dst", ctypes.c_void_p)]
        + [
            (name, ctypes.c_int64)
            for name in (
                "batch", "width", "t_max", "num_actions", "min_cores",
                "cooldown_window", "id_sentinel", "num_cores", "record",
            )
        ]
        + [
            (name, ctypes.c_double)
            for name in (
                "capability", "penalized_capability", "cache_miss_rate",
                "drain_epsilon", "kv_write_factor", "kv_read_miss_factor",
                "rv_write_factor", "rv_read_miss_factor",
            )
        ]
    )


class NativeSimulatorKernel:
    """ctypes wrapper for ``_sim_kernel.c``, one simulator interval in C.

    :meth:`pack` stores a state's argument block on the state; :meth:`pre`
    and :meth:`post` step it in place on either side of the idle draws.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        lib.repro_sim_pre.restype = ctypes.c_long
        lib.repro_sim_pre.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        lib.repro_sim_post.restype = ctypes.c_long
        lib.repro_sim_post.argtypes = [ctypes.c_void_p]
        self._pre = lib.repro_sim_pre
        self._post = lib.repro_sim_post

    def pack(self, state: VectorSimulatorState) -> None:
        """Store the argument block of ``state``'s arrays on the state."""
        if state._level_capacity > _KERNEL_MAX_WIDTH:
            raise SimulationError(f"levels wider than {_KERNEL_MAX_WIDTH} cores")
        arrays = [getattr(state, name) for name, _dtype in _KERNEL_ARRAYS]
        for (name, dtype), array in zip(_KERNEL_ARRAYS, arrays):
            if (
                array.dtype != dtype
                or not array.flags.c_contiguous
                or array.shape[0] != state.batch
            ):
                raise SimulationError(f"state array {name} does not fit the native kernel")
        config = state.config
        args = _KernelArgs(
            *(_address(array) for array in arrays),
            _address(ACTION_SOURCE_INDICES),
            _address(ACTION_DEST_INDICES),
            state.batch,
            state._level_capacity,
            state._read_kb.shape[1],
            _NUM_ACTIONS,
            config.min_cores_per_level,
            config.migration_cooldown_intervals,
            state._id_sentinel,
            config.total_cores,
            state._record_metrics,
            state._capability,
            state._penalized_capability,
            config.cache_miss_rate,
            _DRAIN_EPSILON,
            config.kv_write_factor,
            config.kv_read_miss_factor,
            config.rv_write_factor,
            config.rv_read_miss_factor,
        )
        state._kernel_args = (args, ctypes.addressof(args))

    def pre(self, state: VectorSimulatorState, actions: np.ndarray) -> int:
        """Migrations and injection; the active row count, -1 for a bad action."""
        return self._pre(state._kernel_args[1], _address(actions))

    def post(self, state: VectorSimulatorState) -> int:
        """Dispatch to the flags; rows truncated now, -1 for an empty level."""
        return self._post(state._kernel_args[1])


def _self_check_runs() -> List[bytes]:
    """Every state array after every step of two seeded batches.

    The batches cover a partial batch (traces of 3 to 9 intervals, some
    draining, some truncated), levels of 8 to 11 cores holding penalised
    and idled cores together, and ``record_metrics`` on and off.
    """
    from repro.storage.simulator import StorageSystemConfig
    from repro.storage.workload import WorkloadInterval

    config = StorageSystemConfig(
        total_cores=13,
        initial_allocation={"normal": 9, "kv": 2, "rv": 2},
        migration_penalty=0.3,
        migration_cooldown_intervals=2,
        idle_rate=0.1,
        max_intervals_factor=1.0,
        max_intervals_slack=2,
    )
    rng = np.random.default_rng(20240)
    traces = [
        WorkloadTrace(
            f"selfcheck-{length}",
            [
                WorkloadInterval(rng.dirichlet(np.ones(14)), rng.uniform(0.6, 1.0) * demand)
                for _ in range(length)
            ],
        )
        for length, demand in ((3, 300.0), (9, 5500.0), (5, 4500.0), (7, 4000.0))
    ] * 2
    names = [name for name, _dtype in _KERNEL_ARRAYS[:15]]
    snapshots = []
    for record, seed in ((True, 4), (False, 5)):
        state = VectorSimulatorState(config, record_metrics=record)
        state.reset(traces, rngs=PhiloxStreams(seed, 8, "check"))
        # Penalised cores at every position from the start, so the 8-wide
        # trees sum mixed capacities and shares.
        state.pos_cooldown[...] = np.random.default_rng(11).integers(
            0, 3, state.pos_cooldown.shape
        ) * (state.pos_ids < state._id_sentinel)
        actions = np.random.default_rng(7)
        for _ in range(16):
            stepped = state.step(actions.integers(0, _NUM_ACTIONS, size=len(traces)))
            snapshots.append(
                b"".join(getattr(state, name).tobytes() for name in names)
                + stepped.tobytes()
                + bytes(episode.truncated for episode in state.episodes)
            )
    return snapshots


register(
    "simulator", Path(__file__).with_name("_sim_kernel.c"), NativeSimulatorKernel, _self_check_runs
)
