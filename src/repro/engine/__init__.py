"""The inference engine: one decision contract for eval and serve.

Everything that turns observations into migration decisions at batch
granularity lives here, behind the :class:`DecisionBackend` protocol:

* :mod:`repro.engine.backends` — the protocol and its standard
  implementations (compiled-FSM tables, the recurrent policy, scalar
  agents lifted per-session);
* :mod:`repro.engine.compiled_fsm` — the FSM + quantiser flattened into
  dense numpy tables; a decision is an integer gather, bit-identical to
  the interpreted :class:`~repro.fsm.agent.FSMPolicyAgent`;
* :mod:`repro.engine.sessions` — array-backed per-session state with
  free-list slot reuse for very large concurrent session counts;
* :mod:`repro.engine.evaluation` — the one lockstep loop
  (``run_lockstep``) and the :class:`EvaluationEngine` that runs any
  backend over a trace set with it, each episode bit-identical to the
  same episode run alone (B = 1).

Policy evaluation (:mod:`repro.pipeline.evaluation`), training rollout
collection (:mod:`repro.drl.rollout`, a recording
:class:`GRUPolicyBackend` on the same loop) and the serving layer
(:mod:`repro.serving`) drive their hot loops through this package.
"""

from repro.engine.backends import (
    AgentBatchBackend,
    CompiledFSMBackend,
    DecisionBackend,
    GRUPolicyBackend,
)
from repro.engine.compiled_fsm import CompiledDecision, CompiledFSMPolicy
from repro.engine.evaluation import (
    EvaluationEngine,
    EvaluationResult,
    backend_for_agent,
)
from repro.engine.sessions import SessionTable

__all__ = [
    "AgentBatchBackend",
    "CompiledDecision",
    "CompiledFSMPolicy",
    "CompiledFSMBackend",
    "DecisionBackend",
    "EvaluationEngine",
    "EvaluationResult",
    "GRUPolicyBackend",
    "SessionTable",
    "backend_for_agent",
]
