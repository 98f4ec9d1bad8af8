"""Seeded equivalence of multi-process rollout collection.

The contract under test: episode ``i`` of a collection always consumes
rng streams ``derive_episode_streams(base_seed, N)[i]``, so the merged
result of :class:`PersistentWorkerPool` is bit-identical to the
one-episode-at-a-time (B = 1) collection and to one lockstep batch — regardless of
worker count, shard layout, or whether the shards ran in worker
processes or (inside a daemonic process) in-process.  Pool
lifecycle and failure injection live in ``test_worker_pool.py``.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import (
    BatchedRolloutCollector,
    derive_episode_streams,
)
from repro.drl.worker_pool import PersistentWorkerPool, shard_indices
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ConfigurationError, TrainingError


@pytest.fixture
def reward_config():
    return RewardConfig(mode="per_step_penalty")


def _assert_identical(reference, sharded):
    assert reference.trace_name == sharded.trace_name
    assert len(reference) == len(sharded)
    assert reference.makespan == sharded.makespan
    assert reference.truncated == sharded.truncated
    np.testing.assert_array_equal(reference.observations(), sharded.observations())
    np.testing.assert_array_equal(
        reference.raw_observations(), sharded.raw_observations()
    )
    np.testing.assert_array_equal(
        reference.hidden_states_after(), sharded.hidden_states_after()
    )
    np.testing.assert_array_equal(reference.actions(), sharded.actions())
    np.testing.assert_array_equal(reference.rewards(), sharded.rewards())
    np.testing.assert_array_equal(
        reference.value_estimates(), sharded.value_estimates()
    )


def _pooled(system_config, reward_config, num_workers, policy, traces, **collect_args):
    with PersistentWorkerPool(
        system_config, reward_config, num_workers=num_workers
    ) as pool:
        return pool.collect(policy, traces, **collect_args)


def _sequential_reference(
    system_config, reward_config, policy, traces, base_seed,
    epsilon=0.0, greedy=False,
):
    """One episode at a time on ``derive_episode_streams(base_seed, N)``."""
    return BatchedRolloutCollector(
        VectorStorageAllocationEnv(system_config, reward_config)
    ).collect_many(
        policy, traces, epsilon=epsilon, greedy=greedy,
        batch_size=1, base_seed=base_seed,
    )


def _collect_in_daemon(result_queue, system_config, reward_config, policy, traces):
    """Daemonic-process entry point: one collection through a 2-worker pool."""
    try:
        result_queue.put(
            _pooled(
                system_config, reward_config, 2, policy, traces,
                base_seed=41, epsilon=0.1,
            )
        )
    except Exception as exc:  # surfaced by the parent's assertion
        result_queue.put(exc)


class TestShardIndices:
    def test_balanced_and_ordered(self):
        shards = shard_indices(10, 3)
        assert shards == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [i for shard in shards for i in shard] == list(range(10))

    def test_more_shards_than_items(self):
        assert shard_indices(3, 8) == [[0], [1], [2]]

    def test_exact_multiple(self):
        assert shard_indices(4, 2) == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("count,num_shards", [(0, 2), (-1, 2), (4, 0)])
    def test_invalid_arguments(self, count, num_shards):
        with pytest.raises(TrainingError):
            shard_indices(count, num_shards)

    @pytest.mark.parametrize("count,num_shards", [(7, 2), (16, 5), (5, 5), (9, 4)])
    def test_full_coverage(self, count, num_shards):
        shards = shard_indices(count, num_shards)
        assert [i for shard in shards for i in shard] == list(range(count))
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1


class TestParallelEquivalence:
    @pytest.mark.parametrize("epsilon,greedy", [(0.0, True), (0.1, False)])
    def test_two_workers_match_sequential_reference(
        self, system_config, reward_config, real_traces, tiny_policy, epsilon, greedy
    ):
        """The acceptance-criterion test: 2 workers == sequential, bit for bit."""
        parallel = _pooled(
            system_config, reward_config, 2, tiny_policy, real_traces,
            base_seed=1234, epsilon=epsilon, greedy=greedy,
        )
        reference = _sequential_reference(
            system_config, reward_config, tiny_policy, real_traces, 1234,
            epsilon=epsilon, greedy=greedy,
        )
        for expected, actual in zip(reference, parallel):
            _assert_identical(expected, actual)

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_worker_count_never_changes_results(
        self, system_config, reward_config, real_traces, tiny_policy, num_workers
    ):
        """1, 2 and 3 workers against the sequential reference."""
        reference = _sequential_reference(
            system_config, reward_config, tiny_policy, real_traces, 77,
            epsilon=0.1,
        )
        parallel = _pooled(
            system_config, reward_config, num_workers, tiny_policy, real_traces,
            base_seed=77, epsilon=0.1,
        )
        assert len(parallel) == len(reference)
        for expected, actual in zip(reference, parallel):
            _assert_identical(expected, actual)

    def test_daemonic_process_falls_back_in_process(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        """A daemonic process may not have children: the pool runs the
        same shards in-process there, bit-identical."""
        context = multiprocessing.get_context()
        result_queue = context.Queue()
        process = context.Process(
            target=_collect_in_daemon,
            args=(result_queue, system_config, reward_config, tiny_policy, real_traces),
            daemon=True,
        )
        process.start()
        collected = result_queue.get(timeout=60)
        process.join(timeout=10)
        assert not process.is_alive()
        assert isinstance(collected, list), collected
        reference = _sequential_reference(
            system_config, reward_config, tiny_policy, real_traces, 41,
            epsilon=0.1,
        )
        assert len(collected) == len(reference)
        for expected, actual in zip(reference, collected):
            _assert_identical(expected, actual)

    def test_empty_traces_collects_nothing(self, system_config, tiny_policy):
        """Zero episodes is a no-op, not an error: no shards are created."""
        with PersistentWorkerPool(system_config, num_workers=2) as pool:
            assert pool.collect(tiny_policy, [], base_seed=0) == []
            assert not pool.started

    def test_fewer_episodes_than_workers_matches_batched(
        self, system_config, real_traces, tiny_policy
    ):
        """Episode count below the worker count must shrink the shard
        layout (never create empty shards) and keep the merge
        bit-identical to the lockstep reference."""
        traces = list(real_traces)[:3]
        reward_config = RewardConfig(mode="per_step_penalty")
        episode_rngs, action_rngs = derive_episode_streams(17, len(traces))
        reference = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config)
        ).collect_batch(
            tiny_policy, traces, episode_rngs=episode_rngs, action_rngs=action_rngs
        )
        sharded = _pooled(
            system_config, reward_config, 8, tiny_policy, traces, base_seed=17
        )
        assert len(sharded) == len(reference)
        for expected, actual in zip(reference, sharded):
            _assert_identical(expected, actual)

    def test_single_episode_many_workers(self, system_config, real_traces, tiny_policy):
        trajectories = _pooled(
            system_config, None, 4, tiny_policy, list(real_traces)[:1], base_seed=3
        )
        assert len(trajectories) == 1
        assert len(trajectories[0]) > 0

    def test_invalid_worker_count_rejected(self, system_config):
        with pytest.raises(TrainingError):
            PersistentWorkerPool(system_config, num_workers=0)

    def test_worker_failure_is_attributed_to_its_shard(
        self, system_config, real_traces
    ):
        """A crash inside a worker surfaces as TrainingError naming the shard."""
        bad_policy = RecurrentPolicyValueNet(
            PolicyConfig(observation_dim=5, hidden_size=8), rng=0
        )
        with pytest.raises(TrainingError, match=r"rollout shard \d \(episodes \["):
            _pooled(system_config, None, 2, bad_policy, real_traces, base_seed=0)


class TestChunkedCollectionDeterminism:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, None])
    def test_collect_many_base_seed_independent_of_chunking(
        self, system_config, reward_config, real_traces, tiny_policy, batch_size
    ):
        """With a base seed, chunking (incl. B=1 and partial final chunks)
        never changes the trajectories."""
        collector = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config)
        )
        reference = collector.collect_many(
            tiny_policy, real_traces, greedy=True, base_seed=5
        )
        chunked = collector.collect_many(
            tiny_policy, real_traces, greedy=True, batch_size=batch_size, base_seed=5
        )
        assert len(chunked) == len(real_traces)
        for ref, got in zip(reference, chunked):
            _assert_identical(ref, got)


class TestParallelTraining:
    def test_rollout_workers_bit_identical_to_batched_training(
        self, system_config, reward_config, real_traces
    ):
        """A2C with rollout_workers=2 reproduces the in-process batched run."""
        histories = []
        policies = []
        for workers in (1, 2):
            policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=3)
            with A2CTrainer(
                policy, system_config, reward_config,
                A2CConfig(episodes_per_epoch=3, n_step=4, rollout_workers=workers),
                rng=0,
            ) as trainer:
                histories.append(trainer.train(real_traces[:2], epochs=2))
            policies.append(policy)
        reference, parallel = policies
        for name, value in reference.state_dict().items():
            np.testing.assert_array_equal(value, parallel.state_dict()[name], err_msg=name)
        assert len(histories[0]) == len(histories[1]) == 2
        for ref_record, par_record in zip(histories[0].records, histories[1].records):
            # Record for record, wall time aside.
            assert dataclasses.replace(ref_record, wall_time_s=0.0) == (
                dataclasses.replace(par_record, wall_time_s=0.0)
            )

    def test_rollout_workers_validation(self):
        with pytest.raises(ConfigurationError):
            A2CConfig(rollout_workers=0)

