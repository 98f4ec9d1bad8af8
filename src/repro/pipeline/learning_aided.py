"""The integrated learning-aided heuristics design pipeline.

This is the paper's primary contribution packaged as a single object:

1. synthesise standard workload traces and sample "real" traces;
2. curriculum-train the recurrent A2C policy (standard -> real);
3. roll out the trained policy to collect the transition dataset;
4. train the observation/hidden QBNs (optionally fine-tuning them with
   the policy in the loop);
5. extract, minimise and generalise the finite state machine;
6. interpret the states (fan-in/fan-out and history profiles).

Every stage's artefacts are returned in a :class:`PipelineResult` so
examples, tests and benchmarks can inspect intermediate products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.drl.a2c import A2CConfig, TrainingHistory
from repro.drl.agent import DRLPolicyAgent
from repro.drl.curriculum import CurriculumConfig, CurriculumTrainer
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.engine.evaluation import EvaluationResult
from repro.env.environment import StorageAllocationEnv
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError
from repro.fsm.agent import FSMPolicyAgent
from repro.fsm.extraction import ExtractionConfig, ExtractionResult, FSMExtractor
from repro.fsm.interpretation import interpret_fsm
from repro.qbn.dataset import TransitionDataset
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig, QBNTrainingResult
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import RngFactory
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler, SamplerConfig


@dataclass
class PipelineConfig:
    """All knobs of the end-to-end pipeline.

    The defaults are laptop-scale; the paper-scale settings (GRU-128,
    2000 epochs, QBN latent 64) are documented per field and can be set
    explicitly for a full run.
    """

    system: StorageSystemConfig = field(default_factory=StorageSystemConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    reward: RewardConfig = field(default_factory=lambda: RewardConfig(mode="per_step_penalty"))
    policy: PolicyConfig = field(default_factory=lambda: PolicyConfig(hidden_size=64))
    a2c: A2CConfig = field(default_factory=A2CConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    qbn: QBNTrainingConfig = field(default_factory=QBNTrainingConfig)
    extraction: ExtractionConfig = field(default_factory=lambda: ExtractionConfig(min_state_visits=3))
    standard_trace_duration: int = 64
    num_real_traces: int = 50
    num_eval_traces: int = 10
    rollout_traces_for_extraction: int = 5
    qbn_fine_tune_epochs: int = 0
    interpretation_window: int = 10
    bc_pretrain_epochs: int = 0
    bc_teacher: str = "greedy_utilization"
    seed: int = 0

    def validate(self) -> None:
        if self.num_real_traces <= 0:
            raise ConfigurationError("num_real_traces must be positive")
        if not 0 < self.num_eval_traces < self.num_real_traces:
            raise ConfigurationError(
                "num_eval_traces must be positive and smaller than num_real_traces "
                "(the held-out traces are the last ones; at least one must be left "
                "to train on)"
            )
        if self.rollout_traces_for_extraction <= 0:
            raise ConfigurationError("rollout_traces_for_extraction must be positive")
        if self.bc_pretrain_epochs < 0:
            raise ConfigurationError("bc_pretrain_epochs must be non-negative")
        if self.bc_teacher not in ("greedy_utilization", "handcrafted_fsm", "proportional_allocation"):
            raise ConfigurationError(
                "bc_teacher must be one of 'greedy_utilization', 'handcrafted_fsm', "
                f"'proportional_allocation', got {self.bc_teacher!r}"
            )
        if self.standard_trace_duration <= 0:
            raise ConfigurationError("standard_trace_duration must be positive")
        if self.interpretation_window <= 0:
            raise ConfigurationError("interpretation_window must be positive")


@dataclass
class PipelineResult:
    """Artefacts produced by a full pipeline run."""

    policy: RecurrentPolicyValueNet
    training_history: TrainingHistory
    qbn_result: QBNTrainingResult
    extraction: ExtractionResult
    interpretation: Dict[str, Dict[str, object]]
    standard_traces: Dict[str, WorkloadTrace]
    real_traces: List[WorkloadTrace]
    eval_traces: List[WorkloadTrace]
    transition_dataset: TransitionDataset

    def drl_agent(self, env: StorageAllocationEnv) -> DRLPolicyAgent:
        """Wrap the trained policy as an agent bound to ``env``'s encoder."""
        return DRLPolicyAgent(self.policy, env.observation_encoder)

    def fsm_agent(self, env: StorageAllocationEnv) -> FSMPolicyAgent:
        """Wrap the extracted FSM as an agent bound to ``env``'s encoder."""
        return FSMPolicyAgent.from_extraction(
            self.extraction, env.observation_encoder, self.qbn_result.observation_qbn
        )

    def compiled_fsm_policy(self, env: StorageAllocationEnv):
        """Compile the extracted FSM into the dense decision fast path.

        Returns a :class:`repro.engine.compiled_fsm.CompiledFSMPolicy`
        stamped with ``env``'s normalisation constants — the train →
        extract → serve handoff in one call.
        """
        return self.fsm_agent(env).compile()


@dataclass
class FidelityReport:
    """Compiled-vs-interpreted FSM verification (one engine, same seeds).

    ``identical`` says the compiled tables reproduced the interpreted
    agent's makespans and total rewards exactly.
    """

    identical: bool
    interpreted: "EvaluationResult"
    compiled: "EvaluationResult"

    @property
    def routable(self) -> bool:
        """Always True: every extracted machine compiles to dense tables."""
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "identical": self.identical,
            "interpreted_mean_makespan": self.interpreted.mean_makespan(),
            "compiled_mean_makespan": self.compiled.mean_makespan(),
        }


class LearningAidedPipeline:
    """Orchestrates the full learning-aided heuristics design process."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self.config.validate()
        self.config.system.validate()
        self._rngs = RngFactory(self.config.seed)

    # ------------------------------------------------------------------
    # Stage 0: workload synthesis
    # ------------------------------------------------------------------
    def build_workloads(self) -> tuple[Dict[str, WorkloadTrace], List[WorkloadTrace]]:
        """Generate the 12 standard traces and the sampled real traces."""
        generator = StandardWorkloadGenerator(
            self.config.system, self.config.generator, rng=self._rngs.get("generator")
        )
        standard = generator.generate_suite(duration=self.config.standard_trace_duration)
        sampler = RealTraceSampler(
            standard, self.config.sampler, rng=self._rngs.get("sampler")
        )
        real = sampler.sample_many(self.config.num_real_traces)
        return standard, real

    def make_env(self) -> StorageAllocationEnv:
        """Build an environment with this pipeline's system and reward configs."""
        return StorageAllocationEnv(
            self.config.system,
            reward_config=self.config.reward,
            rng=self._rngs.get("environment"),
        )

    def _behaviour_clone(
        self, policy: RecurrentPolicyValueNet, traces: Sequence[WorkloadTrace]
    ) -> None:
        """Warm-start ``policy`` by imitating the configured expert heuristic."""
        from repro.agents.greedy import GreedyUtilizationPolicy
        from repro.agents.handcrafted import HandcraftedFSMPolicy
        from repro.agents.proportional import ProportionalAllocationPolicy
        from repro.drl.imitation import BehaviorCloningTrainer, ImitationConfig

        teachers = {
            "greedy_utilization": GreedyUtilizationPolicy,
            "handcrafted_fsm": HandcraftedFSMPolicy,
            "proportional_allocation": lambda: ProportionalAllocationPolicy(self.config.system),
        }
        teacher = teachers[self.config.bc_teacher]()
        trainer = BehaviorCloningTrainer(
            self.config.system,
            self.config.reward,
            ImitationConfig(epochs=self.config.bc_pretrain_epochs),
            rng=self._rngs.get("imitation"),
        )
        demos = trainer.collect_demonstrations(teacher, list(traces))
        trainer.fit(policy, demos)

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------
    def run(
        self,
        standard_traces: Optional[Dict[str, WorkloadTrace]] = None,
        real_traces: Optional[Sequence[WorkloadTrace]] = None,
    ) -> PipelineResult:
        """Execute every stage and return all artefacts."""
        if standard_traces is None or real_traces is None:
            generated_standard, generated_real = self.build_workloads()
            standard_traces = standard_traces or generated_standard
            real_traces = list(real_traces) if real_traces is not None else generated_real
        else:
            real_traces = list(real_traces)

        num_eval = self.config.num_eval_traces
        if len(real_traces) <= num_eval:
            raise ConfigurationError(
                f"{len(real_traces)} real trace(s) leave none to train on beside the "
                f"{num_eval} held-out one(s)"
            )
        train_real = real_traces[:-num_eval]
        eval_traces = real_traces[-num_eval:]

        policy = RecurrentPolicyValueNet(self.config.policy, rng=self._rngs.get("policy"))
        if self.config.bc_pretrain_epochs > 0:
            self._behaviour_clone(policy, list(standard_traces.values()))
        trainer = CurriculumTrainer(
            self.config.system,
            self.config.reward,
            policy_config=self.config.policy,
            a2c_config=self.config.a2c,
            rng=self._rngs.get("trainer"),
        )
        policy, history = trainer.train_with_curriculum(
            list(standard_traces.values()), train_real, self.config.curriculum, policy=policy
        )

        # Collect the transition dataset by running the trained policy
        # greedily — all rollout traces in one vectorized lockstep batch.
        vector_env = VectorStorageAllocationEnv(self.config.system, self.config.reward)
        collector = BatchedRolloutCollector(vector_env, rng=self._rngs.get("rollout"))
        rollout_traces = train_real[: self.config.rollout_traces_for_extraction]
        trajectories = collector.collect_batch(policy, list(rollout_traces), greedy=True)
        dataset = TransitionDataset.from_trajectories(trajectories)

        qbn_trainer = QBNTrainer(self.config.qbn, rng=self._rngs.get("qbn"))
        qbn_result = qbn_trainer.train(
            dataset, policy=policy, fine_tune_epochs=self.config.qbn_fine_tune_epochs
        )

        extractor = FSMExtractor(
            qbn_result.observation_qbn, qbn_result.hidden_qbn, self.config.extraction
        )
        extraction = extractor.extract(dataset)
        interpretation = interpret_fsm(
            extraction.fsm, extraction.records, window=self.config.interpretation_window
        )

        return PipelineResult(
            policy=policy,
            training_history=history,
            qbn_result=qbn_result,
            extraction=extraction,
            interpretation=interpretation,
            standard_traces=dict(standard_traces),
            real_traces=list(real_traces),
            eval_traces=list(eval_traces),
            transition_dataset=dataset,
        )

    # ------------------------------------------------------------------
    # Evaluation + fidelity stages (engine-backed)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        result: PipelineResult,
        baselines: Sequence = (),
        traces: Optional[Sequence[WorkloadTrace]] = None,
        episode_seed: int = 0,
    ) -> Dict[str, EvaluationResult]:
        """Evaluate the run's artefacts (plus ``baselines``) on the eval set.

        Every agent is routed into one
        :class:`~repro.engine.evaluation.EvaluationEngine` lockstep
        batch, each on its own copy of the traces — the DRL policy as
        batched (greedy) GRU forwards, the extracted FSM on its compiled
        dense tables, baselines as per-slot replicas.  Results are keyed by agent name and
        bit-identical to :func:`~repro.pipeline.evaluation.evaluate_agent`
        (the same episodes one at a time).
        """
        from repro.pipeline.evaluation import compare_agents

        env = self.make_env()
        agents = list(baselines) + [result.drl_agent(env), result.fsm_agent(env)]
        return compare_agents(
            agents,
            list(traces) if traces is not None else list(result.eval_traces),
            system_config=self.config.system,
            reward_config=self.config.reward,
            episode_seed=episode_seed,
        )

    def verify_fidelity(
        self,
        result: PipelineResult,
        traces: Optional[Sequence[WorkloadTrace]] = None,
        episode_seed: int = 0,
    ) -> FidelityReport:
        """Verify the compiled tables against the interpreted FSM agent.

        Runs the same seeded evaluation set through the
        :class:`~repro.engine.backends.CompiledFSMBackend` and through
        per-slot replicas of the interpreted
        :class:`~repro.fsm.agent.FSMPolicyAgent` (the reference), side by
        side in one engine batch — then compares makespans and total
        rewards for exact equality.
        """
        from repro.engine.backends import AgentBatchBackend, CompiledFSMBackend
        from repro.engine.evaluation import EvaluationEngine

        engine = EvaluationEngine(self.config.system, self.config.reward)
        fsm_agent = result.fsm_agent(self.make_env())
        runs = engine.evaluate_many(
            {
                "extracted_fsm[interpreted]": AgentBatchBackend.from_agent(fsm_agent, engine.encoder),
                "extracted_fsm[compiled]": CompiledFSMBackend(fsm_agent.compile()),
            },
            list(traces) if traces is not None else list(result.eval_traces),
            episode_seed=episode_seed,
        )
        interpreted, compiled = runs.values()
        identical = (
            compiled.makespans == interpreted.makespans
            and compiled.total_rewards == interpreted.total_rewards
        )
        return FidelityReport(
            identical=identical,
            interpreted=interpreted,
            compiled=compiled,
        )
