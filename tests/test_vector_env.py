"""Shape, masking and lockstep-semantics tests for the vectorized environment."""

import copy

import numpy as np
import pytest

from repro.env.environment import StorageAllocationEnv
from repro.env.observation import OBSERVATION_DIM
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import EnvironmentError_
from repro.storage.migration import NUM_ACTIONS
from repro.storage.simulator import StorageSimulator
from repro.storage.workload import WorkloadInterval
from repro.utils.rng import IDLE_DOMAIN, PhiloxStreams, episode_lanes


@pytest.fixture
def vector_env(system_config):
    return VectorStorageAllocationEnv(
        system_config, RewardConfig(mode="per_step_penalty")
    )


class TestVectorReset:
    def test_reset_returns_batched_observations(self, vector_env, real_traces):
        observations = vector_env.reset(
            real_traces, rngs=episode_lanes(range(len(real_traces)), IDLE_DOMAIN)
        )
        assert observations.shape == (len(real_traces), OBSERVATION_DIM)
        assert vector_env.num_envs == len(real_traces)
        assert not vector_env.all_done
        assert vector_env.raw_observations().shape == observations.shape

    def test_reset_matches_sequential_reset(self, system_config, vector_env, real_traces):
        observations = vector_env.reset(
            real_traces, rngs=episode_lanes(range(7, 7 + len(real_traces)), IDLE_DOMAIN)
        )
        env = StorageAllocationEnv(system_config, reward_config=RewardConfig(mode="per_step_penalty"))
        for i, trace in enumerate(real_traces):
            first = env.reset(trace, rng=7 + i)
            np.testing.assert_array_equal(
                observations[i], env.observation_encoder.normalize(first)
            )
            np.testing.assert_array_equal(vector_env.raw_observations()[i], first.raw())

    def test_reset_validation(self, vector_env, real_traces):
        with pytest.raises(EnvironmentError_):
            vector_env.reset([])
        with pytest.raises(EnvironmentError_):
            vector_env.reset(real_traces, rngs=episode_lanes([0], IDLE_DOMAIN))

    def test_resize_between_resets(self, vector_env, real_traces):
        vector_env.reset(real_traces)
        assert vector_env.num_envs == len(real_traces)
        vector_env.reset(real_traces[:2])
        assert vector_env.num_envs == 2


class TestSharedTraceReset:
    """Slots that share a trace object share its rows; values do not change."""

    SLOTS, SHARED = 512, 4

    def _traces(self, generator):
        pool = [
            generator.generate(profile, duration=duration, rng=seed)
            for seed, (profile, duration) in enumerate(
                [("web_server", 12), ("oltp_database", 9), ("web_server", 12), ("backup", 7)]
            )
        ]
        picks = np.random.default_rng(0).integers(self.SHARED, size=self.SLOTS)
        return pool, [pool[i] for i in picks]

    def test_rows_are_built_once_per_distinct_trace(
        self, monkeypatch, vector_env, generator
    ):
        pool, traces = self._traces(generator)
        calls = {"read_kb": 0}
        read_kb = WorkloadInterval.read_kb

        def counting(interval):
            calls["read_kb"] += 1
            return read_kb(interval)

        monkeypatch.setattr(WorkloadInterval, "read_kb", counting)
        vector_env.reset(traces, rngs=PhiloxStreams(5, self.SLOTS, "shared"))
        longest = max(len(trace) for trace in pool)
        assert 0 < calls["read_kb"] <= self.SHARED * longest
        state = vector_env.simulator_state
        assert len(state.distinct_traces) == self.SHARED
        assert all(
            state.distinct_traces[row] is trace
            for row, trace in zip(state.trace_index, traces)
        )

    def test_shared_traces_equal_private_copies(self, system_config, generator):
        """Same batch over ``copy.deepcopy``'d traces: every array and step equal."""
        _pool, traces = self._traces(generator)
        envs = []
        for batch in (traces, [copy.deepcopy(trace) for trace in traces]):
            venv = VectorStorageAllocationEnv(
                system_config, RewardConfig(mode="per_step_penalty")
            )
            first = venv.reset(batch, rngs=PhiloxStreams(5, self.SLOTS, "shared"))
            envs.append((venv, first))
        (shared, shared_first), (private, private_first) = envs
        assert len(shared.simulator_state.distinct_traces) == self.SHARED
        assert len(private.simulator_state.distinct_traces) == self.SLOTS
        np.testing.assert_array_equal(shared_first, private_first)
        for name in ("_read_kb", "_write_kb", "trace_len"):
            np.testing.assert_array_equal(
                getattr(shared.simulator_state, name),
                getattr(private.simulator_state, name),
            )
        np.testing.assert_array_equal(
            shared._workload_features[shared.simulator_state.trace_index],
            private._workload_features[private.simulator_state.trace_index],
        )
        actions = np.random.default_rng(1).integers(NUM_ACTIONS, size=(10, self.SLOTS))
        for step_actions in actions:
            a, b = shared.step(step_actions), private.step(step_actions)
            for field in (
                "observations", "raw_observations", "rewards", "dones", "makespans"
            ):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.dones.any() and not a.dones.all()  # masked steps were compared too


class TestVectorStep:
    def test_step_shapes(self, vector_env, real_traces):
        vector_env.reset(real_traces, rngs=episode_lanes(range(len(real_traces)), IDLE_DOMAIN))
        batch = len(real_traces)
        result = vector_env.step(np.zeros(batch, dtype=int))
        assert result.observations.shape == (batch, OBSERVATION_DIM)
        assert result.raw_observations.shape == (batch, OBSERVATION_DIM)
        assert result.rewards.shape == (batch,)
        assert result.dones.shape == (batch,)
        assert result.stepped.all()

    def test_step_before_reset_raises(self, vector_env):
        with pytest.raises(EnvironmentError_):
            vector_env.step(np.zeros(1, dtype=int))

    def test_wrong_action_shape_raises(self, vector_env, real_traces):
        vector_env.reset(real_traces)
        with pytest.raises(EnvironmentError_):
            vector_env.step(np.zeros(len(real_traces) + 1, dtype=int))

    def test_heterogeneous_lengths_auto_mask(self, vector_env, real_traces):
        """Shorter episodes finish first and are frozen while others drain."""
        batch = len(real_traces)
        vector_env.reset(real_traces, rngs=episode_lanes(range(batch), IDLE_DOMAIN))
        makespans = np.zeros(batch, dtype=int)
        frozen_rows = {}
        steps = 0
        while not vector_env.all_done:
            result = vector_env.step(np.zeros(batch, dtype=int))
            steps += 1
            assert steps < 10_000
            for i in range(batch):
                if result.newly_done[i]:
                    makespans[i] = result.makespans[i]
                    frozen_rows[i] = result.observations[i].copy()
                elif result.dones[i]:
                    # Finished slots keep their final observation row and
                    # contribute zero reward.
                    np.testing.assert_array_equal(result.observations[i], frozen_rows[i])
                    assert result.rewards[i] == 0.0
                    assert not result.stepped[i]
        # Episodes have different lengths (heterogeneous traces) and every
        # makespan is at least its trace duration.
        assert len(set(makespans.tolist())) > 1
        for i, trace in enumerate(real_traces):
            assert makespans[i] >= len(trace)

    def test_result_observations_belong_to_their_own_step(self, vector_env, real_traces):
        """``result.observations`` is computed on first read from the
        result's own snapshot: reading it two steps late gives the step's
        rows, not the environment's current ones."""
        batch = len(real_traces)
        vector_env.reset(real_traces, rngs=episode_lanes(range(batch), IDLE_DOMAIN))
        normalize = vector_env.observation_encoder.normalize_batch
        result = vector_env.step(np.ones(batch, dtype=int))
        at_the_time = vector_env.observations()
        for _ in range(2):
            vector_env.step(np.full(batch, 3, dtype=int))
        assert not np.array_equal(vector_env.observations(), at_the_time)
        np.testing.assert_array_equal(result.observations, at_the_time)
        np.testing.assert_array_equal(
            result.observations, normalize(result.raw_observations)
        )
        assert result.observations is result.observations  # normalised once

    def test_observations_after_partial_batch_step(self, vector_env, real_traces):
        """Frozen rows of finished slots and fresh rows of stepped ones:
        the current matrix is a full normalisation of the raw one."""
        batch = len(real_traces)
        vector_env.reset(real_traces, rngs=episode_lanes(range(batch), IDLE_DOMAIN))
        normalize = vector_env.observation_encoder.normalize_batch
        partial_steps = 0
        while not vector_env.all_done:
            result = vector_env.step(np.zeros(batch, dtype=int))
            if not result.stepped.all():
                partial_steps += 1
                np.testing.assert_array_equal(
                    vector_env.observations(), normalize(vector_env.raw_observations())
                )
                np.testing.assert_array_equal(
                    vector_env.observations(), result.observations
                )
        assert partial_steps > 0

    def test_rewards_match_sequential(self, system_config, vector_env, real_traces):
        batch = len(real_traces)
        vector_env.reset(real_traces, rngs=episode_lanes(range(batch), IDLE_DOMAIN))
        env = StorageAllocationEnv(system_config, reward_config=RewardConfig(mode="per_step_penalty"))
        for i, trace in enumerate(real_traces):
            env.reset(trace, rng=i)
        result = vector_env.step(np.ones(batch, dtype=int))
        for i, trace in enumerate(real_traces):
            env.reset(trace, rng=i)
            step = env.step(1)
            assert step.reward == result.rewards[i]
            np.testing.assert_array_equal(result.raw_observations[i], step.observation.raw())


def _batch_masks(venv):
    """Next-decision masks of every slot, from the simulator's core counts."""
    minimum = venv.system_config.min_cores_per_level
    return np.stack(
        [
            venv.action_space.valid_mask_from_counts(counts, minimum)
            for counts in venv.simulator_state.counts
        ]
    )


class TestVectorMasks:
    def test_mask_shape_and_initial_legality(self, vector_env, real_traces):
        vector_env.reset(real_traces)
        masks = _batch_masks(vector_env)
        assert masks.shape == (len(real_traces), NUM_ACTIONS)
        assert masks[:, 0].all()  # noop always legal

    def test_masks_match_sequential_env(self, system_config, vector_env, real_traces):
        """Slot ``i``'s row is the scalar env's mask, decision after decision."""
        batch = len(real_traces)
        vector_env.reset(real_traces, rngs=episode_lanes(range(batch), IDLE_DOMAIN))
        envs = []
        for i, trace in enumerate(real_traces):
            env = StorageAllocationEnv(
                system_config, reward_config=RewardConfig(mode="per_step_penalty")
            )
            env.reset(trace, rng=i)
            envs.append(env)
        # Drain KV, then RV, into NORMAL until their migrations close;
        # then hand cores back, which reopens them.
        schedule = [3] * 4 + [5] * 4 + [1, 2] * 2
        for action in schedule:
            masks = _batch_masks(vector_env)
            for i, env in enumerate(envs):
                if not env.simulator.is_done:
                    np.testing.assert_array_equal(masks[i], env.valid_action_mask())
            if vector_env.all_done:
                break
            vector_env.step(np.full(batch, action))
            for env in envs:
                if not env.simulator.is_done:
                    env.step(action)

    def test_sequential_step_info_contains_decision_mask(self, env, short_trace):
        env.reset(short_trace, rng=0)
        mask_before = env.valid_action_mask()
        result = env.step(0)
        np.testing.assert_array_equal(result.info["valid_action_mask"], mask_before)


class TestBatchedNormalize:
    def test_normalize_batch_matches_per_row(self, env, short_trace):
        observation = env.reset(short_trace, rng=0)
        rows = []
        expected = []
        for action in (0, 1, 2):
            step = env.step(action)
            rows.append(step.observation.raw())
            expected.append(env.observation_encoder.normalize(step.observation))
        batch = env.observation_encoder.normalize_batch(np.stack(rows))
        np.testing.assert_array_equal(batch, np.stack(expected))

    def test_normalize_batch_validates_shape(self, env):
        with pytest.raises(EnvironmentError_):
            env.observation_encoder.normalize_batch(np.zeros((3, OBSERVATION_DIM + 1)))


class TestMetricsModes:
    def test_metrics_recorded_when_enabled(self, system_config, real_traces):
        venv = VectorStorageAllocationEnv(
            system_config, RewardConfig(mode="per_step_penalty"), record_metrics=True
        )
        venv.reset(real_traces[:2], rngs=episode_lanes([0, 1], IDLE_DOMAIN))
        while not venv.all_done:
            venv.step(np.zeros(2, dtype=int))
        for episode, makespan in zip(venv.episode_metrics(), venv._makespans):
            assert episode.makespan == makespan
            assert len(episode.intervals) == makespan

    def test_interval_records_materialise_on_first_read(self, system_config, real_traces):
        """The simulator keeps one column snapshot per step; the records
        built from it on first read equal the ones the scalar simulator
        hands back step by step."""
        traces = real_traces[:3]
        venv = VectorStorageAllocationEnv(system_config, record_metrics=True)
        venv.reset(traces, rngs=episode_lanes([4, 5, 6], IDLE_DOMAIN))
        actions = np.random.default_rng(0).integers(0, NUM_ACTIONS, size=(200, 3))
        step = 0
        while not venv.all_done:
            venv.step(actions[step] * ~venv.dones)
            step += 1
        for slot, (trace, episode) in enumerate(zip(traces, venv.episode_metrics())):
            assert episode.makespan == venv._makespans[slot]
            assert episode._intervals == []  # makespan did not materialise
            simulator = StorageSimulator(system_config, rng=4 + slot)
            simulator.reset(trace)
            expected = [
                simulator.step(int(actions[t, slot])) for t in range(episode.makespan)
            ]
            assert simulator.is_done
            assert episode.intervals == expected
            assert episode.migrations == simulator.episode_metrics.migrations

    def test_metrics_free_mode_still_tracks_makespan(self, system_config, real_traces):
        venv = VectorStorageAllocationEnv(
            system_config, RewardConfig(mode="per_step_penalty"), record_metrics=False
        )
        venv.reset(real_traces[:2], rngs=episode_lanes([0, 1], IDLE_DOMAIN))
        while not venv.all_done:
            result = venv.step(np.zeros(2, dtype=int))
        assert (result.makespans >= np.array([len(t) for t in real_traces[:2]])).all()
        for episode in venv.episode_metrics():
            assert len(episode.intervals) == 0  # nothing materialised
