"""Array-backed per-session state for the policy serving layer.

A *session* is one client's decision stream (in the paper's setting: one
tenant's storage array being steered interval by interval).  At serving
scale there are far too many concurrent sessions for one Python object
each, so :class:`SessionTable` keeps every session's state in dense
arrays — an integer FSM-state row and/or a GRU hidden row, plus request
counters — indexed by a small integer *slot*.  Closed slots go onto a
free list and are reused (LIFO) by later opens, so the table's footprint
tracks the number of *concurrent* sessions, not the total ever opened.

Stepping a slot that is currently closed is an explicit error (the
``active`` mask is checked on every validated access).  A session handle
is only its slot id, so a stale handle held across a close *and a
reuse of the same slot* passes that check — the per-slot ``generation``
counter (incremented on every close) exists so callers that hold
handles across unknown lifetimes can detect this themselves: capture
``generation[slot]`` at open and compare before trusting a handle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, StaleSessionError

SlotLike = Union[int, np.integer, Sequence[int], np.ndarray]
GenerationLike = Union[int, np.integer, Sequence[int], np.ndarray]


class SessionTable:
    """Dense per-session state with free-list slot reuse.

    ``hidden_size`` > 0 allocates a float64 hidden matrix (GRU backends);
    the integer ``state`` column (FSM state rows) and the ``steps``
    request counter exist for every table.  Arrays grow by doubling, so
    opening N sessions is amortised O(N) regardless of the initial
    capacity.
    """

    def __init__(self, capacity: int = 1024, hidden_size: int = 0) -> None:
        if capacity <= 0:
            raise ConfigurationError("SessionTable capacity must be positive")
        if hidden_size < 0:
            raise ConfigurationError("hidden_size must be non-negative")
        self.hidden_size = int(hidden_size)
        self._capacity = int(capacity)
        self.state = np.zeros(capacity, dtype=np.int64)
        self.hidden = np.zeros((capacity, hidden_size)) if hidden_size else None
        self.steps = np.zeros(capacity, dtype=np.int64)
        self.active = np.zeros(capacity, dtype=bool)
        self.generation = np.zeros(capacity, dtype=np.int64)
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._num_active = 0
        self.peak_active = 0
        self.total_opened = 0
        self.total_closed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_active(self) -> int:
        return self._num_active

    def active_slots(self) -> np.ndarray:
        """Slots currently holding an open session (ascending order)."""
        return np.nonzero(self.active)[0]

    def occupancy(self) -> dict:
        """Occupancy snapshot (the fleet load harness samples this per step)."""
        return {
            "active": self._num_active,
            "peak_active": self.peak_active,
            "capacity": self._capacity,
            "total_opened": self.total_opened,
            "total_closed": self.total_closed,
        }

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def ensure_capacity(self, capacity: int) -> None:
        """Grow the backing arrays (never shrinks) to at least ``capacity``."""
        if capacity <= self._capacity:
            return
        new_capacity = self._capacity
        while new_capacity < capacity:
            new_capacity *= 2
        grown = new_capacity - self._capacity
        self.state = np.concatenate([self.state, np.zeros(grown, dtype=np.int64)])
        if self.hidden is not None:
            self.hidden = np.concatenate(
                [self.hidden, np.zeros((grown, self.hidden_size))]
            )
        self.steps = np.concatenate([self.steps, np.zeros(grown, dtype=np.int64)])
        self.active = np.concatenate([self.active, np.zeros(grown, dtype=bool)])
        self.generation = np.concatenate(
            [self.generation, np.zeros(grown, dtype=np.int64)]
        )
        # New slots go under the existing free stack so previously-freed
        # (warm) slots are still reused first.
        self._free = list(range(new_capacity - 1, self._capacity - 1, -1)) + self._free
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self, count: int = 1) -> np.ndarray:
        """Allocate ``count`` fresh session slots and return their ids."""
        if count <= 0:
            raise ConfigurationError("open() needs a positive session count")
        if count > len(self._free):
            self.ensure_capacity(self._capacity + (count - len(self._free)))
        slots = np.array([self._free.pop() for _ in range(count)], dtype=np.int64)
        self.active[slots] = True
        self.state[slots] = 0
        if self.hidden is not None:
            self.hidden[slots] = 0.0
        self.steps[slots] = 0
        self._num_active += count
        if self._num_active > self.peak_active:
            self.peak_active = self._num_active
        self.total_opened += count
        return slots

    def close(
        self, slots: SlotLike, expected_generation: Optional[GenerationLike] = None
    ) -> None:
        """Release session slots back to the free list.

        Duplicate slots in one call are rejected: closing ``[3, 3]``
        would push slot 3 onto the free list twice and hand it out to
        two different sessions later.
        """
        slots = self.checked_slots(
            slots, unique=True, expected_generation=expected_generation
        )
        self.active[slots] = False
        self.generation[slots] += 1
        self._free.extend(int(s) for s in slots)
        self._num_active -= len(slots)
        self.total_closed += len(slots)

    def adopt_allocation(self, other: "SessionTable") -> None:
        """Take over ``other``'s slot allocation (blue/green backend swap).

        Copies everything that defines *which* sessions exist — the
        active mask, free list, generations, step counters and open/close
        totals — but not the per-session decision state (``state`` /
        ``hidden``), which the new backend either migrates or re-seeds.
        The two tables must have equal capacity (grow first).
        """
        if other.capacity != self._capacity:
            raise ConfigurationError(
                f"cannot adopt allocation across capacities "
                f"({other.capacity} -> {self._capacity}); grow the target first"
            )
        self.active[:] = other.active
        self.generation[:] = other.generation
        self.steps[:] = other.steps
        self._free = list(other._free)
        self._num_active = other._num_active
        self.peak_active = max(self.peak_active, other.peak_active)
        self.total_opened = other.total_opened
        self.total_closed = other.total_closed

    def record_steps(self, slots: SlotLike) -> None:
        """Count one served decision against each of ``slots``."""
        slots = self.checked_slots(slots)
        self.steps[slots] += 1

    def checked_slots(
        self,
        slots: SlotLike,
        unique: bool = False,
        expected_generation: Optional[GenerationLike] = None,
    ) -> np.ndarray:
        """Validate ``slots`` refer to open sessions and return them as an array.

        ``unique=True`` additionally rejects duplicate slots (a sort of the
        batch, never a scan of the table); ``expected_generation`` (scalar
        or per-slot array) rejects stale handles whose slot was recycled
        since they were issued.
        """
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        if slots.size == 0:
            return slots
        if slots.min() < 0 or slots.max() >= self._capacity:
            raise ConfigurationError(
                f"session slot out of range [0, {self._capacity}): {slots}"
            )
        inactive = slots[~self.active[slots]]
        if inactive.size:
            raise ConfigurationError(
                f"sessions {inactive.tolist()} are not open (closed slot reused?)"
            )
        if unique and slots.size > 1:
            ordered = np.sort(slots)
            repeated = ordered[1:] == ordered[:-1]
            if repeated.any():
                duplicates = np.unique(ordered[1:][repeated]).tolist()
                raise ConfigurationError(
                    f"duplicate session slots in one call: {duplicates}"
                )
        if expected_generation is not None:
            expected = np.broadcast_to(
                np.asarray(expected_generation, dtype=np.int64), slots.shape
            )
            stale = slots[self.generation[slots] != expected]
            if stale.size:
                raise StaleSessionError(
                    f"stale session handles for slots {stale.tolist()}: the "
                    "slot was closed (and possibly reopened by another "
                    "session) since the handle was issued"
                )
        return slots

    def __len__(self) -> int:
        return self._num_active
