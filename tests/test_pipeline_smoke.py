"""End-to-end pipeline smoke coverage at CI scale.

Reuses the session-scoped ``tiny_pipeline_result`` (one full
``LearningAidedPipeline.run`` at tiny settings) and checks every
artefact is usable: the trained DRL agent and the extracted-FSM agent
both act in a live environment, and ``small_pipeline_config`` builds and
validates at small scale.
"""

import pytest

from repro.env.environment import StorageAllocationEnv
from repro.errors import ConfigurationError
from repro.pipeline.experiments import small_pipeline_config
from repro.pipeline.learning_aided import LearningAidedPipeline, PipelineConfig
from repro.pipeline.sweep import apply_overrides


class TestPipelineRunArtifacts:
    def test_all_artifacts_populated(self, tiny_pipeline_result, tiny_pipeline_config):
        result = tiny_pipeline_result
        assert len(result.training_history) == tiny_pipeline_config.curriculum.total_epochs
        assert result.extraction.fsm.num_states > 0
        assert len(result.transition_dataset) > 0
        assert len(result.standard_traces) > 0
        assert len(result.real_traces) == tiny_pipeline_config.num_real_traces
        assert len(result.eval_traces) == tiny_pipeline_config.num_eval_traces
        assert result.interpretation

    @pytest.mark.parametrize("agent_factory", ["drl_agent", "fsm_agent"])
    def test_agents_act_in_environment(
        self, tiny_pipeline_result, tiny_pipeline_config, agent_factory
    ):
        config = tiny_pipeline_config
        env = StorageAllocationEnv(config.system, reward_config=config.reward, rng=0)
        agent = getattr(tiny_pipeline_result, agent_factory)(env)
        observation = env.reset(tiny_pipeline_result.eval_traces[0], rng=0)
        agent.reset()
        steps = 0
        while True:
            step = env.step(agent.act(observation))
            observation = step.observation
            steps += 1
            if step.done or steps > 500:
                break
        assert step.done
        assert env.simulator.makespan == steps


class TestExperimentHelpers:
    def test_small_pipeline_config_validates(self):
        config = small_pipeline_config(seed=3, standard_epochs=2, real_epochs=2)
        assert isinstance(config, PipelineConfig)
        config.validate()
        assert config.seed == 3
        assert config.curriculum.total_epochs == 4
        # It must be constructible into a pipeline without touching training.
        pipeline = LearningAidedPipeline(config)
        standard, real = pipeline.build_workloads()
        assert len(standard) > 0
        assert len(real) == config.num_real_traces

    def test_small_pipeline_config_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            small_pipeline_config(num_eval_traces=0).validate()

    def test_held_out_set_must_leave_a_training_trace(self):
        """Equality would put the one training trace in the held-out set."""
        with pytest.raises(ConfigurationError, match="smaller than num_real_traces"):
            PipelineConfig(num_real_traces=3, num_eval_traces=3).validate()

    def test_the_removed_fine_tune_field_is_refused(self):
        """The QBNs' action term replaced the separate fine-tune stage and
        its knob; a spec written for it fails loudly instead of doing nothing."""
        with pytest.raises(ConfigurationError, match="qbn_fine_tune_epochs"):
            apply_overrides(small_pipeline_config(), {"qbn_fine_tune_epochs": 0})

    def test_run_rejects_supplied_traces_without_a_disjoint_training_trace(
        self, tiny_pipeline_config, real_traces
    ):
        pipeline = LearningAidedPipeline(tiny_pipeline_config)
        held_out = tiny_pipeline_config.num_eval_traces
        with pytest.raises(ConfigurationError, match="none to train on"):
            pipeline.run(real_traces=real_traces[:held_out])

