"""Persistent worker pool: reuse, lifecycle and failure injection.

Seeded equivalence against the sequential reference (worker counts, rng
families, the daemonic in-process fallback) lives in
``test_parallel_rollout.py`` and, across ~50 random configs, in
``test_differential_equivalence.py``; this file covers what is specific
to long-lived workers:

* **reuse** — one pool across epochs with weight updates in between
  stays bit-identical to the lockstep batched collector;
* **lifecycle** — pools are reusable across epochs with weight deltas
  broadcast only when weights changed, survive zero-episode epochs,
  close idempotently, and refuse work after close;
* **failure injection** — a worker killed mid-epoch (SIGKILL, no chance
  to flush results) surfaces as a prompt :class:`TrainingError` naming
  the dead worker, never a hang and never a partial merge, and the pool
  refuses further work instead of silently misbehaving;
* **ownership** — trainers that build a pool shut it down before they
  return.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.drl.a2c import A2CConfig
from repro.drl.curriculum import CurriculumConfig, CurriculumTrainer
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector, derive_episode_streams
from repro.drl.worker_pool import PersistentWorkerPool
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import TrainingError
from repro.pipeline.sweep import SweepRunner, SweepSpec


@pytest.fixture
def reward_config():
    return RewardConfig(mode="per_step_penalty")


def _live_pool_workers():
    return [
        child for child in multiprocessing.active_children()
        if child.name.startswith("rollout-pool-worker-")
    ]


def _assert_identical(reference, other):
    assert reference.trace_name == other.trace_name
    assert reference.makespan == other.makespan
    assert reference.truncated == other.truncated
    np.testing.assert_array_equal(reference.observations(), other.observations())
    np.testing.assert_array_equal(reference.actions(), other.actions())
    np.testing.assert_array_equal(reference.rewards(), other.rewards())
    np.testing.assert_array_equal(
        reference.value_estimates(), other.value_estimates()
    )
    np.testing.assert_array_equal(
        reference.hidden_states_after(), other.hidden_states_after()
    )


class TestPoolEquivalenceAndReuse:
    def test_pool_reuse_across_epochs_is_bit_identical(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        """One pool, several epochs with weight updates in between; every
        epoch matches a fresh lockstep-batched collection."""
        batched = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config)
        )
        with PersistentWorkerPool(
            system_config, reward_config, num_workers=2
        ) as pool:
            for epoch in range(3):
                base_seed = 900 + epoch
                episode_rngs, action_rngs = derive_episode_streams(
                    base_seed, len(real_traces)
                )
                reference = batched.collect_batch(
                    tiny_policy, real_traces, epsilon=0.1, greedy=False,
                    episode_rngs=episode_rngs, action_rngs=action_rngs,
                )
                pooled = pool.collect(
                    tiny_policy, real_traces, base_seed=base_seed,
                    epsilon=0.1, greedy=False,
                )
                assert len(pooled) == len(reference)
                for ref, got in zip(reference, pooled):
                    _assert_identical(ref, got)
                # Perturb the weights like a gradient step would.
                for param in tiny_policy.parameters():
                    param.data += 1e-3

    def test_weight_deltas_only_sent_when_changed(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        with PersistentWorkerPool(
            system_config, reward_config, num_workers=2
        ) as pool:
            pool.collect(tiny_policy, real_traces[:2], base_seed=0, greedy=True)
            version_after_first = pool.weights_version
            # Unchanged weights: no new broadcast.
            pool.collect(tiny_policy, real_traces[:2], base_seed=1, greedy=True)
            assert pool.weights_version == version_after_first
            stale = pool.collect(tiny_policy, real_traces[:2], base_seed=2, greedy=True)
            tiny_policy.gru.b_r.data += 0.5
            pooled = pool.collect(tiny_policy, real_traces[:2], base_seed=2, greedy=True)
            assert pool.weights_version == version_after_first + 1
            # The one-parameter delta, written in place in the workers,
            # reaches their next forward: same values as a local
            # collection with the new bias, not the pre-delta ones.
            episode_rngs, action_rngs = derive_episode_streams(2, 2)
            reference = BatchedRolloutCollector(
                VectorStorageAllocationEnv(system_config, reward_config)
            ).collect_batch(
                tiny_policy, real_traces[:2], greedy=True,
                episode_rngs=episode_rngs, action_rngs=action_rngs,
            )
            for ref, got, old in zip(reference, pooled, stale):
                _assert_identical(ref, got)
                assert not np.array_equal(
                    got.hidden_states_after(), old.hidden_states_after()
                )

    def test_zero_episode_epoch_is_a_noop(
        self, system_config, reward_config, tiny_policy, real_traces
    ):
        with PersistentWorkerPool(
            system_config, reward_config, num_workers=2
        ) as pool:
            assert pool.collect(tiny_policy, [], base_seed=5) == []
            # The pool stays healthy for real epochs afterwards.
            result = pool.collect(
                tiny_policy, real_traces[:2], base_seed=5, greedy=True
            )
            assert len(result) == 2

    def test_architecture_change_rejected(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        with PersistentWorkerPool(
            system_config, reward_config, num_workers=2
        ) as pool:
            pool.collect(tiny_policy, real_traces[:2], base_seed=0, greedy=True)
            other = RecurrentPolicyValueNet(PolicyConfig(hidden_size=8), rng=0)
            with pytest.raises(TrainingError, match="architecture"):
                pool.collect(other, real_traces[:2], base_seed=1, greedy=True)


class TestPoolLifecycle:
    def test_double_close_is_idempotent(self, system_config, reward_config):
        pool = PersistentWorkerPool(system_config, reward_config, num_workers=2)
        pool.close()
        pool.close()  # second close must be a clean no-op
        assert pool.closed

    def test_close_after_use_then_collect_raises(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        pool = PersistentWorkerPool(system_config, reward_config, num_workers=2)
        pool.collect(tiny_policy, real_traces[:2], base_seed=0, greedy=True)
        pool.close()
        pool.close()
        with pytest.raises(TrainingError, match="closed"):
            pool.collect(tiny_policy, real_traces[:2], base_seed=1, greedy=True)

    def test_invalid_worker_count_rejected(self, system_config):
        with pytest.raises(TrainingError):
            PersistentWorkerPool(system_config, num_workers=0)

    def test_collector_context_manager_closes_pool(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        with PersistentWorkerPool(
            system_config, reward_config, num_workers=2
        ) as pool:
            pool.collect(tiny_policy, real_traces[:2], base_seed=3, greedy=True)
            assert len(pool.worker_pids()) == len(_live_pool_workers()) == 2
        assert pool.closed
        assert pool.worker_pids() == [] and _live_pool_workers() == []


class TestFailureInjection:
    def test_worker_killed_between_epochs_raises_clearly(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        pool = PersistentWorkerPool(system_config, reward_config, num_workers=2)
        try:
            pool.collect(tiny_policy, real_traces, base_seed=0, greedy=True)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(TrainingError, match=r"worker 0"):
                pool.collect(tiny_policy, real_traces, base_seed=1, greedy=True)
            # The pool is broken, not wedged: further use raises cleanly.
            with pytest.raises(TrainingError, match="broken"):
                pool.collect(tiny_policy, real_traces, base_seed=2, greedy=True)
        finally:
            pool.close()

    def test_worker_killed_mid_epoch_raises_without_hang(
        self, system_config, reward_config, standard_suite, tiny_policy
    ):
        """SIGKILL a worker while its shard is in flight; the parent must
        raise within the liveness-poll interval instead of waiting on a
        result that will never arrive."""
        # Long traces keep the shard busy well past the kill.
        traces = [next(iter(standard_suite.values()))] * 4
        pool = PersistentWorkerPool(system_config, reward_config, num_workers=2)
        try:
            # Warm the pool so worker pids exist and weights are resident.
            pool.collect(tiny_policy, traces[:2], base_seed=0, greedy=True)
            victim = pool.worker_pids()[0]
            outcome = {}

            def kill_soon():
                time.sleep(0.05)
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=kill_soon)
            killer.start()
            start = time.perf_counter()
            try:
                with pytest.raises(TrainingError, match="worker"):
                    # Many episodes so the shard outlives the kill delay.
                    pool.collect(
                        tiny_policy, traces * 60, base_seed=1, greedy=False,
                        epsilon=0.2,
                    )
            finally:
                killer.join()
            outcome["elapsed"] = time.perf_counter() - start
            # Detection is bounded by kill delay + one poll beat, and the
            # abort terminates the survivor instead of waiting out its
            # in-flight shard (which used to cost the whole shutdown grace).
            assert outcome["elapsed"] < 2.0
        finally:
            pool.close()

    def test_worker_exception_aborts_epoch_with_no_partial_merge(
        self, system_config, reward_config, real_traces
    ):
        """A policy whose observation width cannot run in the workers
        makes every shard fail; the error names a shard and the pool
        refuses further work (no partial trajectory list escapes)."""
        bad_policy = RecurrentPolicyValueNet(
            PolicyConfig(observation_dim=5, hidden_size=8), rng=0
        )
        pool = PersistentWorkerPool(system_config, reward_config, num_workers=2)
        try:
            with pytest.raises(TrainingError, match=r"shard \d"):
                pool.collect(bad_policy, real_traces, base_seed=0, greedy=True)
            with pytest.raises(TrainingError, match="broken"):
                pool.collect(bad_policy, real_traces, base_seed=1, greedy=True)
        finally:
            pool.close()


class TestTrainerIntegration:
    def test_curriculum_trainer_leaves_no_worker_alive(
        self, system_config, reward_config, real_traces, monkeypatch
    ):
        """The curriculum builds its A2C trainer internally, so it must
        also close it: no pool worker outlives the call — without help
        from the pool's finalizer, which only runs when the garbage
        collector gets to it."""
        monkeypatch.delattr(PersistentWorkerPool, "__del__")
        trainer = CurriculumTrainer(
            system_config,
            reward_config,
            PolicyConfig(hidden_size=8),
            A2CConfig(episodes_per_epoch=2, rollout_workers=2),
            rng=0,
        )
        _, history = trainer.train_with_curriculum(
            real_traces[:1], real_traces[1:2],
            CurriculumConfig(standard_epochs=1, real_epochs=1),
        )
        assert len(history) == 2
        assert _live_pool_workers() == []
        _, history = trainer.train_from_scratch(real_traces[:1], epochs=1)
        assert len(history) == 1
        assert _live_pool_workers() == []

    def test_sweep_training_job_leaves_no_worker_alive(self, monkeypatch):
        """Same ownership rule for the sweep's in-process training job."""
        monkeypatch.delattr(PersistentWorkerPool, "__del__")
        spec = SweepSpec(
            name="owned-pool",
            kind="training",
            base={"epochs": 1, "num_traces": 2, "duration": 10, "hidden_size": 8,
                  "a2c.episodes_per_epoch": 2, "a2c.rollout_workers": 2},
            seeds=[0],
        )
        result = SweepRunner(spec, num_workers=1).run()
        assert [record["status"] for record in result.records] == ["ok"]
        assert _live_pool_workers() == []
