"""Shadow-mode evaluation: serve from one backend, audit with another.

The paper's offline *fidelity* metric asks how often the extracted FSM
reproduces the GRU's decisions.  :class:`ShadowEvaluator` is the
serving-time analogue: it answers every request from the **primary**
backend (typically the compiled FSM fast path) while also running the
**shadow** backend (typically the full GRU) on the same observations
with its own resident session state, and streams agreement/divergence
counters online — per action pair, so operators can see not only *how
often* the fast path diverges but *which* decisions it trades.

It implements the same :class:`~repro.engine.backends.DecisionBackend`
protocol as the backends it wraps, so shadowing is one constructor call
around an existing server setup and adds one backend invocation of
latency per batch.  The counters are a measurement only: nothing in the
serving layer acts on them, and replacing the primary is an explicit
:meth:`~repro.serving.server.PolicyServer.swap_backend` call.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.engine.backends import DecisionBackend
from repro.engine.sessions import SessionTable
from repro.storage.migration import NUM_ACTIONS, MigrationAction


class ShadowEvaluator:
    """Primary/shadow backend pair with streaming fidelity counters."""

    def __init__(self, primary: DecisionBackend, shadow: DecisionBackend) -> None:
        self.primary = primary
        self.shadow = shadow
        self.name = f"shadow({primary.name}|{shadow.name})"
        self._shadow_table: SessionTable | None = None
        # confusion[i, j]: primary decided i while the shadow decided j.
        self.confusion = np.zeros((NUM_ACTIONS, NUM_ACTIONS), dtype=np.int64)
        self.decisions = 0
        self.divergences = 0

    # ------------------------------------------------------------------
    # DecisionBackend protocol
    # ------------------------------------------------------------------
    def session_table(self, capacity: int) -> SessionTable:
        self._shadow_table = self.shadow.session_table(capacity)
        return self.primary.session_table(capacity)

    def session_state_signature(self):
        """The served state is the primary's — swaps migrate against it."""
        signature = getattr(self.primary, "session_state_signature", None)
        return signature() if signature is not None else None

    def check_encoder(self, encoder) -> None:
        for backend in (self.primary, self.shadow):
            check = getattr(backend, "check_encoder", None)
            if check is not None:
                check(encoder)

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        self.primary.begin_sessions(table, slots)
        shadow_table = self._require_shadow_table()
        shadow_table.ensure_capacity(table.capacity)
        self.shadow.begin_sessions(shadow_table, slots)

    def end_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        for backend, owned_table in (
            (self.primary, table),
            (self.shadow, self._require_shadow_table()),
        ):
            end = getattr(backend, "end_sessions", None)
            if end is not None:
                end(owned_table, slots)

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: np.ndarray,
    ) -> np.ndarray:
        actions = self.primary.decide(table, slots, raw, normalized)
        shadow_actions = self.shadow.decide(
            self._require_shadow_table(), slots, raw, normalized
        )
        np.add.at(self.confusion, (actions, shadow_actions), 1)
        self.decisions += int(actions.shape[0])
        self.divergences += int((actions != shadow_actions).sum())
        return actions

    def _require_shadow_table(self) -> SessionTable:
        if self._shadow_table is None:
            # Server-less use (tests, direct decide calls): size lazily.
            self._shadow_table = self.shadow.session_table(1024)
        return self._shadow_table

    # ------------------------------------------------------------------
    # Fidelity reporting
    # ------------------------------------------------------------------
    @property
    def fidelity(self) -> float:
        """Fraction of decisions where primary and shadow agreed."""
        if self.decisions == 0:
            return 1.0
        return 1.0 - self.divergences / self.decisions

    def divergence_pairs(self) -> Dict[str, int]:
        """Non-zero (primary -> shadow) disagreement counts by action name."""
        pairs: Dict[str, int] = {}
        rows, cols = np.nonzero(self.confusion)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if i == j:
                continue
            key = (
                f"{MigrationAction(i).short_name}->{MigrationAction(j).short_name}"
            )
            pairs[key] = int(self.confusion[i, j])
        return pairs

    def summary(self) -> Dict[str, object]:
        return {
            "primary": self.primary.name,
            "shadow": self.shadow.name,
            "decisions": self.decisions,
            "divergences": self.divergences,
            "fidelity": round(self.fidelity, 6),
            "divergence_pairs": self.divergence_pairs(),
        }

