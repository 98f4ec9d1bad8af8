"""Span recording from outside the program.

The ledger benchmark measures layers by wrapping *public* callables of
``repro`` from here — attribute patches looked up by dotted name plus
the pass-through proxies in :mod:`ledger_workloads` — and never edits
``src/``.  Spans live in memory until the workload ends.

The process is single-threaded, so one global stack gives exact nesting:
a synchronous call cannot interleave with anything, and the two
asynchronous *scope* spans (``FleetDriver.run_async`` and the transport
proxy's ``decide_wave``) are strictly nested because the fleet loop is
closed.  Server-side work done on another asyncio task while a wave is
awaited therefore lands under that wave — the span that caused it.
Per-request client awaits overlap each other; they are recorded as
``concurrent`` spans (latency samples with a parent, never a parent
themselves and never subtracted from anybody's self time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

NESTED, CONCURRENT = "nested", "concurrent"

# (span name, dotted target, kind).  The span name is the layer: a
# layer's ``<name>_s`` metric is the summed self time of its spans.
# ``FleetDriver.run_async`` is the one asynchronous target that nests.
PATCH_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("loadgen.self", "repro.loadgen.driver:FleetDriver.__init__", NESTED),
    ("loadgen.self", "repro.loadgen.driver:FleetDriver.run_async", NESTED),
    ("env.step", "repro.env.vector_env:VectorStorageAllocationEnv.step", NESTED),
    ("storage.step", "repro.storage.vector_state:VectorSimulatorState.step", NESTED),
    ("env.raw_observations", "repro.env.vector_env:VectorStorageAllocationEnv.raw_observations", NESTED),
    ("env.reset", "repro.env.vector_env:VectorStorageAllocationEnv.reset", NESTED),
    ("workloads.generate", "repro.workloads.generator:StandardWorkloadGenerator.generate", NESTED),
    ("env.normalize", "repro.env.observation:ObservationEncoder.normalize_batch", NESTED),
    ("serving.submit_many", "repro.serving.server:PolicyServer.submit_many", NESTED),
    ("serving.submit", "repro.serving.server:PolicyServer.submit", NESTED),
    ("serving.flush", "repro.serving.server:PolicyServer.flush", NESTED),
    ("serving.open_close", "repro.serving.server:PolicyServer.open_sessions", NESTED),
    ("serving.open_close", "repro.serving.server:PolicyServer.close_sessions", NESTED),
    ("engine.fsm_encode", "repro.engine.compiled_fsm:CompiledFSMPolicy.encode_codes", NESTED),
    ("engine.fsm_resolve", "repro.engine.compiled_fsm:CompiledFSMPolicy.resolve_observations", NESTED),
    ("drl.act_batch", "repro.drl.policy:RecurrentPolicyValueNet.act_batch", NESTED),
    ("engine.evaluate", "repro.engine.evaluation:EvaluationEngine.evaluate", NESTED),
    ("netserver.request", "repro.serving.netserver:PolicyClient.decide", CONCURRENT),
    ("netserver.encode_frame", "repro.serving.netserver:encode_frame", NESTED),
    ("netserver.decode_body", "repro.serving.netserver:decode_body", NESTED),
    ("pipeline.build_workloads", "repro.pipeline.learning_aided:LearningAidedPipeline.build_workloads", NESTED),
    ("pipeline.run_self", "repro.pipeline.learning_aided:LearningAidedPipeline.run", NESTED),
    ("pipeline.evaluate", "repro.pipeline.learning_aided:LearningAidedPipeline.evaluate", NESTED),
    ("pipeline.verify_fidelity", "repro.pipeline.learning_aided:LearningAidedPipeline.verify_fidelity", NESTED),
    ("drl.bc_collect", "repro.drl.imitation:BehaviorCloningTrainer.collect_demonstrations", NESTED),
    ("drl.bc_fit", "repro.drl.imitation:BehaviorCloningTrainer.fit", NESTED),
    ("drl.rollout_collect", "repro.drl.rollout:BatchedRolloutCollector.collect_batch", NESTED),
    ("drl.a2c_update", "repro.drl.a2c:A2CTrainer.train", NESTED),
    ("autograd.backward", "repro.autograd.tensor:Tensor.backward", NESTED),
    ("optim.step", "repro.optim.optimizer:Optimizer.step", NESTED),
    ("qbn.train", "repro.qbn.trainer:QBNTrainer.train", NESTED),
    ("fsm.extract", "repro.fsm.extraction:FSMExtractor.extract", NESTED),
    ("fsm.compile", "repro.engine.compiled_fsm:CompiledFSMPolicy.compile", NESTED),
)


class SpanRecorder:
    """In-memory spans: ``[id, name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._concurrent: set = set()

    def begin(self, name: str, concurrent: bool = False) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, name, time.perf_counter(), None, parent])
        if concurrent:
            self._concurrent.add(span_id)
        else:
            self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][3] = time.perf_counter()
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        elif span_id in self._stack:  # a cancelled scope unwinding out of order
            self._stack.remove(span_id)

    def wrap(self, name: str, function: Callable, kind: str = NESTED) -> Callable:
        """A pass-through wrapper that records one span per call."""
        concurrent = kind == CONCURRENT
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced(*args, **kwargs):
                span_id = self.begin(name, concurrent)
                try:
                    return await function(*args, **kwargs)
                finally:
                    self.end(span_id)

        else:

            @functools.wraps(function)
            def traced(*args, **kwargs):
                span_id = self.begin(name, concurrent)
                try:
                    return function(*args, **kwargs)
                finally:
                    self.end(span_id)

        return traced

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------
    def closed_spans(self) -> List[list]:
        return [span for span in self.spans if span[3] is not None]

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, summed self seconds, summed inclusive seconds.

        Self time is a span's duration minus the part its child spans cover.
        Children of one parent run one after another (single thread), so the
        covered part is the plain sum of their durations; concurrent spans
        cover nothing and have no self time of their own.
        """
        spans = self.closed_spans()
        own = {span[0]: span[3] - span[2] for span in spans}
        for span in spans:
            if span[4] in own and span[0] not in self._concurrent:
                own[span[4]] -= span[3] - span[2]
        table: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(span[1], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[3] - span[2]
            if span[0] not in self._concurrent:
                row["self_s"] += own[span[0]]
        return table

    def durations(self, name: str) -> List[float]:
        return [span[3] - span[2] for span in self.closed_spans() if span[1] == name]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.closed_spans():
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps(record) + "\n")


def _resolve(target: str):
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name, raw attribute)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = vars(owner)[attribute] if attribute in vars(owner) else getattr(owner, attribute)
    return owner, attribute, raw


class Patches:
    """Attribute patches over ``targets``; a missing target is skipped.

    A later PR may delete a shim, a collector or ``submit``; the layer
    then drops out of the table with a warning instead of failing the
    run.  ``missing`` lists the span names that lost every target.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        targets: Tuple[Tuple[str, str, str], ...] = PATCH_TARGETS,
    ) -> None:
        self.recorder = recorder
        self.targets = targets
        self._undo: List[Tuple[object, str, object]] = []
        self.skipped: List[str] = []
        self.patched_names: set = set()

    def __enter__(self) -> "Patches":
        for name, target, kind in self.targets:
            try:
                owner, attribute, raw = _resolve(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.skipped.append(target)
                print(
                    f"ledger: patch target {target} is gone "
                    f"({type(exc).__name__}); layer {name} drops this span",
                    file=sys.stderr,
                )
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.recorder.wrap(name, raw.__func__, kind))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.recorder.wrap(name, raw.__func__, kind))
            else:
                wrapped = self.recorder.wrap(name, raw, kind)
            setattr(owner, attribute, wrapped)
            self._undo.append((owner, attribute, raw))
            self.patched_names.add(name)
        return self

    def __exit__(self, *_exc) -> None:
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)

    @property
    def missing(self) -> List[str]:
        wanted = {name for name, _target, _kind in self.targets}
        return sorted(wanted - self.patched_names)
