"""Experiment runners that regenerate the paper's figures.

Each function runs a scaled-down but structurally faithful version of
one evaluation figure and returns a plain-data result object that the
benchmark harness prints.  The scale knobs (epochs, trace counts,
durations) default to values that complete in minutes on a laptop;
passing the paper-scale values reproduces the full experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.agents.default import DefaultPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.drl.a2c import A2CConfig, TrainingHistory
from repro.drl.curriculum import CurriculumConfig, CurriculumTrainer
from repro.drl.policy import PolicyConfig
from repro.env.reward import RewardConfig
from repro.fsm.interpretation import StateHistoryProfile, history_profile
from repro.pipeline.evaluation import (
    EvaluationResult,
    compare_agents,
    comparison_table,
    relative_reduction,
)
from repro.pipeline.learning_aided import LearningAidedPipeline, PipelineConfig, PipelineResult
from repro.qbn.trainer import QBNTrainingConfig
from repro.fsm.extraction import ExtractionConfig
from repro.storage.simulator import StorageSystemConfig
from repro.utils.tables import format_series, format_table
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler, SamplerConfig


# ----------------------------------------------------------------------
# Shared scaled-down pipeline configuration
# ----------------------------------------------------------------------
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

    The paper-scale equivalents are: GRU hidden 128, 1000 + 1000 epochs of
    pure A2C on the inverse-makespan reward, QBN latent 64, 50 real traces.
    At this scaled-down budget the pipeline relies on the documented
    sample-efficiency deviations (behaviour-cloning warm start from the
    greedy-utilisation heuristic, shaped bottleneck-pressure reward and a
    conservative A2C fine-tuning learning rate).
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
        extraction=ExtractionConfig(min_state_visits=8),
        standard_trace_duration=trace_duration,
        num_real_traces=num_real_traces,
        num_eval_traces=num_eval_traces,
        rollout_traces_for_extraction=5,
        qbn_fine_tune_epochs=20,
        bc_pretrain_epochs=30,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Figure 3 — convergence of curriculum learning vs from-scratch training
# ----------------------------------------------------------------------
@dataclass
class Figure3Result:
    """Learning curves for the curriculum and from-scratch regimes."""

    curriculum_history: TrainingHistory
    scratch_history: TrainingHistory
    smoothing_window: int = 10

    def curriculum_curve(self) -> np.ndarray:
        return self.curriculum_history.smoothed_makespans(self.smoothing_window)

    def scratch_curve(self) -> np.ndarray:
        return self.scratch_history.smoothed_makespans(self.smoothing_window)

    def final_makespans(self) -> Dict[str, float]:
        return {
            "curriculum": self.curriculum_history.final_makespan(self.smoothing_window),
            "from_scratch": self.scratch_history.final_makespan(self.smoothing_window),
        }

    def render(self) -> str:
        lines = ["Figure 3 — convergence comparison (lower makespan is better)"]
        curve_c = self.curriculum_curve()
        curve_s = self.scratch_curve()
        lines.append(
            format_series("curriculum  ", list(range(len(curve_c))), curve_c, floatfmt=".1f")
        )
        lines.append(
            format_series("from_scratch", list(range(len(curve_s))), curve_s, floatfmt=".1f")
        )
        finals = self.final_makespans()
        lines.append(
            f"final smoothed makespan: curriculum={finals['curriculum']:.1f} "
            f"from_scratch={finals['from_scratch']:.1f}"
        )
        return "\n".join(lines)


def run_figure3(
    config: Optional[PipelineConfig] = None,
    scratch_epochs: Optional[int] = None,
    seed: int = 0,
) -> Figure3Result:
    """Reproduce Figure 3: curriculum learning vs training from scratch.

    The curriculum agent trains ``standard_epochs`` on standard traces
    then ``real_epochs`` on real traces; the comparison agent trains the
    same total number of epochs on real traces only.
    """
    config = config or small_pipeline_config(seed=seed)
    pipeline = LearningAidedPipeline(config)
    standard, real = pipeline.build_workloads()
    train_real = real[: -config.num_eval_traces]

    trainer = CurriculumTrainer(
        config.system, config.reward, policy_config=config.policy, a2c_config=config.a2c, rng=seed
    )
    _, curriculum_history = trainer.train_with_curriculum(
        list(standard.values()), train_real, config.curriculum
    )

    scratch_trainer = CurriculumTrainer(
        config.system, config.reward,
        policy_config=config.policy, a2c_config=config.a2c, rng=seed + 1,
    )
    total_epochs = scratch_epochs or config.curriculum.total_epochs
    _, scratch_history = scratch_trainer.train_from_scratch(train_real, total_epochs)

    return Figure3Result(curriculum_history=curriculum_history, scratch_history=scratch_history)


# ----------------------------------------------------------------------
# Figure 4 — makespan of Default / Handcrafted / GRU DRL / Extracted FSM
# ----------------------------------------------------------------------
@dataclass
class Figure4Result:
    """Per-trace makespans of the four controllers over the evaluation traces."""

    results: Dict[str, EvaluationResult]
    pipeline_result: PipelineResult

    def mean_makespans(self) -> Dict[str, float]:
        return {name: result.mean_makespan() for name, result in self.results.items()}

    def reduction_vs_default(self) -> Dict[str, float]:
        default = self.results["default"]
        return {
            name: relative_reduction(default, result)
            for name, result in self.results.items()
            if name != "default"
        }

    def drl_vs_handcrafted_reduction(self) -> float:
        return relative_reduction(self.results["handcrafted_fsm"], self.results["gru_drl"])

    def fsm_vs_drl_gap(self) -> float:
        """Relative makespan increase of the extracted FSM over the DRL policy."""
        drl = self.results["gru_drl"].mean_makespan()
        fsm = self.results["extracted_fsm"].mean_makespan()
        return float((fsm - drl) / drl)

    def render(self) -> str:
        lines = ["Figure 4 — performance comparison over real workload instances"]
        lines.append(comparison_table(self.results))
        reductions = self.reduction_vs_default()
        lines.append(
            "reduction vs default: "
            + ", ".join(f"{name}={100 * value:.1f}%" for name, value in reductions.items())
        )
        lines.append(
            f"DRL vs handcrafted reduction: {100 * self.drl_vs_handcrafted_reduction():.1f}%  |  "
            f"extracted FSM vs DRL gap: {100 * self.fsm_vs_drl_gap():+.2f}%"
        )
        return "\n".join(lines)


def run_figure4(
    config: Optional[PipelineConfig] = None,
    pipeline_result: Optional[PipelineResult] = None,
    seed: int = 0,
) -> Figure4Result:
    """Reproduce Figure 4: compare the four controllers on the evaluation traces."""
    config = config or small_pipeline_config(seed=seed)
    pipeline = LearningAidedPipeline(config)
    result = pipeline_result or pipeline.run()

    env = pipeline.make_env()
    agents = [
        DefaultPolicy(),
        HandcraftedFSMPolicy(),
        result.drl_agent(env),
        result.fsm_agent(env),
    ]
    comparison = compare_agents(
        agents,
        result.eval_traces,
        system_config=config.system,
        reward_config=config.reward,
        episode_seed=seed,
    )
    return Figure4Result(results=comparison, pipeline_result=result)


# ----------------------------------------------------------------------
# Figure 5 — extracted FSM structure and fan-in/fan-out interpretation
# ----------------------------------------------------------------------
@dataclass
class Figure5Result:
    """The extracted FSM, its rendering and per-state statistics."""

    pipeline_result: PipelineResult
    summary_table: str
    dot_graph: str
    num_states: int
    action_names: List[str] = field(default_factory=list)
    noop_is_most_visited: bool = False

    def render(self) -> str:
        lines = ["Figure 5 — extracted FSM visualisation and statistics"]
        lines.append(self.summary_table)
        lines.append(f"states={self.num_states} actions={sorted(set(self.action_names))}")
        lines.append(f"most visited state is Noop: {self.noop_is_most_visited}")
        return "\n".join(lines)


def run_figure5(
    config: Optional[PipelineConfig] = None,
    pipeline_result: Optional[PipelineResult] = None,
    seed: int = 0,
) -> Figure5Result:
    """Reproduce Figure 5: extract the FSM and compute its state statistics."""
    from repro.fsm.render import fsm_summary_table, fsm_to_dot

    config = config or small_pipeline_config(seed=seed)
    if pipeline_result is None:
        pipeline_result = LearningAidedPipeline(config).run()
    fsm = pipeline_result.extraction.fsm
    records = pipeline_result.extraction.records
    states = fsm.states_by_id()
    most_visited = max(states, key=lambda s: s.visit_count) if states else None
    return Figure5Result(
        pipeline_result=pipeline_result,
        summary_table=fsm_summary_table(fsm, records),
        dot_graph=fsm_to_dot(fsm),
        num_states=fsm.num_states,
        action_names=[state.action_name for state in states],
        noop_is_most_visited=bool(most_visited and most_visited.action_name == "Noop"),
    )


# ----------------------------------------------------------------------
# Figure 6 — history information preceding a non-obvious state
# ----------------------------------------------------------------------
@dataclass
class Figure6Result:
    """History profile of the analysed state (the paper's S2)."""

    state_label: str
    profile: StateHistoryProfile

    def render(self) -> str:
        lines = [f"Figure 6 — history information of {self.state_label} "
                 f"(action {self.profile.action}, {self.profile.num_entries} entries)"]
        steps = list(range(-self.profile.window, 0))
        lines.append(
            format_series("write_kb ", steps, self.profile.write_intensity, floatfmt=".0f")
        )
        lines.append(
            format_series("read_kb  ", steps, self.profile.read_intensity, floatfmt=".0f")
        )
        lines.append(
            format_series(
                "cap_ratio", steps, self.profile.capacity_ratio_series, floatfmt=".3f"
            )
        )
        lines.append(
            f"write trend={self.profile.write_trend():+.1f} KB/interval, "
            f"capacity-ratio trend={self.profile.capacity_ratio_trend():+.4f}/interval"
        )
        return "\n".join(lines)


def run_figure6(
    config: Optional[PipelineConfig] = None,
    pipeline_result: Optional[PipelineResult] = None,
    window: int = 10,
    seed: int = 0,
) -> Figure6Result:
    """Reproduce Figure 6: history window before entering an interesting state.

    The paper analyses S2, a state whose action is *not* the obvious
    low-to-high utilisation move.  We pick the most-entered state whose
    action migrates a core toward KV or RV (falling back to the most
    visited non-Noop state, then to the most visited state overall).
    """
    config = config or small_pipeline_config(seed=seed)
    if pipeline_result is None:
        pipeline_result = LearningAidedPipeline(config).run()
    fsm = pipeline_result.extraction.fsm
    records = pipeline_result.extraction.records

    states = fsm.states_by_id()
    toward_kv_rv = [
        s for s in states if s.action_name in ("N=>K", "N=>R", "K=>R", "R=>K")
    ]
    non_noop = [s for s in states if s.action_name != "Noop"]
    candidates = toward_kv_rv or non_noop or states
    target = max(candidates, key=lambda s: s.visit_count)
    profile = history_profile(fsm, records, target.label, window=window)
    return Figure6Result(state_label=target.label, profile=profile)


# ----------------------------------------------------------------------
# Baseline-only comparison (used by tests and the §4.3.2 text claim)
# ----------------------------------------------------------------------
def run_baseline_comparison(
    system_config: Optional[StorageSystemConfig] = None,
    num_traces: int = 10,
    seed: int = 0,
    duration: int = 48,
) -> Dict[str, float]:
    """Compare only Default and Handcrafted FSM (no training involved)."""
    system_config = system_config or StorageSystemConfig()
    generator = StandardWorkloadGenerator(system_config, GeneratorConfig(), rng=seed)
    standard = generator.generate_suite(duration=duration)
    sampler = RealTraceSampler(standard, rng=seed + 1)
    traces = sampler.sample_many(num_traces)
    comparison = compare_agents(
        [DefaultPolicy(), HandcraftedFSMPolicy()], traces,
        system_config=system_config, episode_seed=seed,
    )
    default = comparison["default"]
    handcrafted = comparison["handcrafted_fsm"]
    return {
        "default_mean": default.mean_makespan(),
        "handcrafted_mean": handcrafted.mean_makespan(),
        "handcrafted_reduction": relative_reduction(default, handcrafted),
    }
