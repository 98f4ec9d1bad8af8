"""The scaled-down pipeline configuration every design run starts from.

A :class:`~repro.pipeline.sweep.SweepRunner` job is
``apply_overrides(small_pipeline_config(seed=seed), params)``; the
paper's figures are such jobs, declared in ``benchmarks/scorecard.json``
and rendered with verdicts into ``EXPERIMENTS.md`` by
``benchmarks/scorecard.py``.
"""

from __future__ import annotations

from repro.drl.a2c import A2CConfig
from repro.drl.curriculum import CurriculumConfig
from repro.drl.policy import PolicyConfig
from repro.env.reward import RewardConfig
from repro.pipeline.learning_aided import PipelineConfig
from repro.qbn.trainer import QBNTrainingConfig
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig
from repro.workloads.sampler import SamplerConfig


def small_pipeline_config(
    seed: int = 0,
    standard_epochs: int = 20,
    real_epochs: int = 20,
    hidden_size: int = 48,
    trace_duration: int = 48,
    num_real_traces: int = 20,
    num_eval_traces: int = 10,
) -> PipelineConfig:
    """A pipeline configuration small enough for CI-style runs.

    At this scaled-down budget the pipeline relies on the documented
    sample-efficiency deviations (behaviour-cloning warm start from the
    greedy-utilisation heuristic, shaped bottleneck-pressure reward and a
    conservative A2C fine-tuning learning rate).  The paper's own recipe
    (GRU-128, 1000 + 1000 epochs of pure A2C on the inverse-makespan
    reward) is the ``paper-curriculum`` sweep of
    ``benchmarks/scorecard.json``: these defaults with its overrides.
    """
    return PipelineConfig(
        system=StorageSystemConfig(),
        generator=GeneratorConfig(target_load=1.0),
        sampler=SamplerConfig(),
        reward=RewardConfig(
            mode="bottleneck_pressure", step_penalty=0.05, balance_scale=0.05
        ),
        policy=PolicyConfig(hidden_size=hidden_size),
        a2c=A2CConfig(
            learning_rate=3e-5, gamma=0.95, n_step=8, entropy_coef=0.01, epsilon=0.02
        ),
        curriculum=CurriculumConfig(standard_epochs=standard_epochs, real_epochs=real_epochs),
        qbn=QBNTrainingConfig(
            epochs=35, observation_latent_dim=12, hidden_latent_dim=16
        ),
        standard_trace_duration=trace_duration,
        num_real_traces=num_real_traces,
        num_eval_traces=num_eval_traces,
        rollout_traces_for_extraction=5,
        bc_pretrain_epochs=30,
        seed=seed,
    )
