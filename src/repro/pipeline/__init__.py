"""End-to-end pipeline and evaluation harness.

* :mod:`repro.pipeline.evaluation` — run any controller over workload
  traces and compare makespans (the measurement behind Figure 4).
* :mod:`repro.pipeline.learning_aided` — the paper's integrated
  pipeline: curriculum-train the DRL policy, train the QBNs, extract the
  FSM and interpret it.
* :mod:`repro.pipeline.experiments` — ``small_pipeline_config``, the
  scaled-down configuration every design run starts from.
* :mod:`repro.pipeline.sweep` — sharded experiment sweeps: grid
  expansion into seeded jobs, multi-process execution with failure
  capture, deterministic per-job JSON results.

The paper's figures are sweep jobs: ``benchmarks/scorecard.json``
declares them (its ``paper-curriculum`` sweep is the paper's own recipe
at the paper's scale) and ``benchmarks/scorecard.py`` renders their
verdicts into ``EXPERIMENTS.md``.
"""

from repro.pipeline.evaluation import EvaluationResult, evaluate_agent, compare_agents
from repro.pipeline.learning_aided import (
    FidelityReport,
    LearningAidedPipeline,
    PipelineConfig,
    PipelineResult,
)
from repro.pipeline.sweep import (
    SweepJob,
    SweepResult,
    SweepRunner,
    SweepSpec,
    expand_jobs,
)
from repro.pipeline import experiments

__all__ = [
    "EvaluationResult",
    "evaluate_agent",
    "compare_agents",
    "FidelityReport",
    "LearningAidedPipeline",
    "PipelineConfig",
    "PipelineResult",
    "SweepSpec",
    "SweepJob",
    "SweepRunner",
    "SweepResult",
    "expand_jobs",
    "experiments",
]
