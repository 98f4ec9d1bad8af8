"""Online policy serving: micro-batching, shadowing, artifacts, sockets.

The layer that turns trained artifacts (GRU policy, extracted FSM,
observation QBN) into a high-throughput decision service.  The decision
engine itself — the ``DecisionBackend`` protocol, the compiled FSM
tables and the session table — lives in :mod:`repro.engine` (it is
shared with training rollouts and batched evaluation); import those
names from there.

* :mod:`repro.serving.server` — the micro-batching request broker in
  front of one ``DecisionBackend``: a columnar queue of
  ``DecisionWave`` records, one per ``submit_many`` call;
* :mod:`repro.serving.shadow` — run a second backend in shadow mode and
  stream serving-time fidelity counters (plus the threshold alarm that
  can drive an automatic rollback);
* :mod:`repro.serving.artifacts` — versioned artifact registry with the
  blue/green swap audit trail;
* :mod:`repro.serving.netserver` — the asyncio network front door
  (unix-socket / TCP, length-prefixed frames: JSON control ops, one
  binary columnar decide block) and its pipelining client.
"""

from repro.serving.artifacts import ArtifactRecord, ArtifactRegistry
from repro.serving.netserver import PolicyClient, PolicyNetServer
from repro.serving.server import DecisionTicket, DecisionWave, PolicyServer, ServerStats
from repro.serving.shadow import FidelityAlarm, ShadowEvaluator

__all__ = [
    "ArtifactRecord",
    "ArtifactRegistry",
    "DecisionTicket",
    "DecisionWave",
    "FidelityAlarm",
    "PolicyClient",
    "PolicyNetServer",
    "PolicyServer",
    "ServerStats",
    "ShadowEvaluator",
]
