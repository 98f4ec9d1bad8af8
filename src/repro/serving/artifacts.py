"""Versioned decision artifacts and the blue/green swap audit trail.

An :class:`ArtifactRegistry` holds every backend version a serving
process may run — compiled-FSM bundles (the ``.npz`` + encoder-stamp
format :class:`~repro.engine.compiled_fsm.CompiledFSMPolicy` already
saves), GRU policy checkpoints, or pre-built
:class:`~repro.engine.backends.DecisionBackend` objects — keyed by a
version string.  The registry is what makes a hot-swap an *operation*
rather than a restart: the network front door asks it for a version,
:meth:`swap` drains and swaps the live :class:`PolicyServer`, and every
swap (manual or fidelity-alarm-driven) lands in an append-only audit
trail with the compatibility decision (state migrated vs reset) that
was taken.

Artifacts registered by path load lazily and are cached: a registry can
enumerate a whole artifact store without paying a load per version, and
a version that never becomes active is never materialised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.drl.checkpoints import load_policy
from repro.errors import ConfigurationError
from repro.engine.backends import CompiledFSMBackend, DecisionBackend, GRUPolicyBackend
from repro.engine.compiled_fsm import CompiledFSMPolicy
from repro.serving.server import PolicyServer
from repro.utils.serialization import PathLike


@dataclass
class ArtifactRecord:
    """One registered backend version."""

    version: str
    kind: str                      # "compiled_fsm" | "gru_checkpoint" | "backend"
    source: Optional[str] = None   # artifact path, when loaded from disk
    loader: Optional[Callable[[], DecisionBackend]] = None
    backend: Optional[DecisionBackend] = None

    def materialise(self) -> DecisionBackend:
        if self.backend is None:
            self.backend = self.loader()
        return self.backend

    @property
    def loaded(self) -> bool:
        return self.backend is not None

    def describe(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "kind": self.kind,
            "source": self.source,
            "loaded": self.loaded,
        }


class ArtifactRegistry:
    """Version-string-keyed store of decision backends + swap audit trail."""

    def __init__(self) -> None:
        self._records: Dict[str, ArtifactRecord] = {}
        self.audit_trail: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _add(self, record: ArtifactRecord) -> None:
        if record.version in self._records:
            raise ConfigurationError(
                f"artifact version {record.version!r} is already registered"
            )
        self._records[record.version] = record

    def register_backend(
        self, version: str, backend: DecisionBackend, kind: str = "backend"
    ) -> None:
        """Register a pre-built backend object under ``version``."""
        self._add(ArtifactRecord(version=str(version), kind=kind, backend=backend))

    def register_compiled_fsm(self, version: str, path: PathLike) -> None:
        """Register a compiled-FSM ``.npz`` bundle (lazy-loaded)."""
        self._add(
            ArtifactRecord(
                version=str(version),
                kind="compiled_fsm",
                source=str(path),
                loader=lambda: CompiledFSMBackend(CompiledFSMPolicy.load(path)),
            )
        )

    def register_policy_checkpoint(self, version: str, path: PathLike) -> None:
        """Register a GRU policy checkpoint ``.npz`` (lazy-loaded)."""
        self._add(
            ArtifactRecord(
                version=str(version),
                kind="gru_checkpoint",
                source=str(path),
                loader=lambda: GRUPolicyBackend(load_policy(path)),
            )
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def versions(self) -> List[str]:
        return list(self._records)

    def __contains__(self, version: str) -> bool:
        return version in self._records

    def record(self, version: str) -> ArtifactRecord:
        try:
            return self._records[version]
        except KeyError:
            raise ConfigurationError(
                f"unknown artifact version {version!r} "
                f"(registered: {sorted(self._records)})"
            ) from None

    def get(self, version: str) -> DecisionBackend:
        """The backend for ``version``, loading the artifact on first use."""
        return self.record(version).materialise()

    def describe(self) -> List[Dict[str, object]]:
        return [record.describe() for record in self._records.values()]

    # ------------------------------------------------------------------
    # Swap orchestration + audit
    # ------------------------------------------------------------------
    def swap(
        self,
        server: PolicyServer,
        version: str,
        from_version: Optional[str] = None,
        reason: str = "manual",
        **extra: object,
    ) -> Dict[str, object]:
        """Swap ``server`` onto ``version`` and append an audit record.

        Returns the audit record (also appended to :attr:`audit_trail`).
        A failed swap (unknown version, incompatible encoder) raises
        *before* touching the server and records nothing.
        """
        backend = self.get(version)
        swap_info = server.swap_backend(backend)
        entry: Dict[str, object] = {
            "seq": len(self.audit_trail),
            "time": time.time(),
            "event": "swap",
            "reason": reason,
            "from_version": from_version,
            "to_version": version,
            **swap_info,
            **extra,
        }
        self.audit_trail.append(entry)
        return entry

    def record_event(self, event: str, **details: object) -> Dict[str, object]:
        """Append a non-swap operational event (alarm trip, drain) to the trail."""
        entry: Dict[str, object] = {
            "seq": len(self.audit_trail),
            "time": time.time(),
            "event": event,
            **details,
        }
        self.audit_trail.append(entry)
        return entry
