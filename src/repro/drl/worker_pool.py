"""Multi-process rollout collection: a pool of long-lived workers.

:class:`PersistentWorkerPool` is the one multi-process rollout path.  It
shards an episode set over worker processes that live across epochs:

* each worker builds its simulator/environment stack **once** at spawn
  (from the pickled system/reward configs) and keeps it resident;
* policy weights live in the workers between epochs — the parent sends
  only a **compact weight-delta message** (the parameters whose values
  actually changed since the last broadcast, full arrays so the update
  is bit-exact) plus small per-epoch episode-shard descriptors;
* results stream back over one shared queue; the parent polls it with a
  timeout and checks worker liveness on every beat, so a crashed worker
  surfaces as a prompt :class:`~repro.errors.TrainingError` naming the
  worker — never a hang, never a partial merge.

The determinism contract: episode ``i`` of a collection always consumes
streams ``derive_episode_streams(base_seed, N)[i]`` regardless of which
worker runs it, so the merged trajectory list is bit-identical to one
lockstep batch (and to one episode at a time, B = 1) for any worker
count — sharding only changes wall-clock, never semantics.

Lifecycle: the pool is context-managed (``with PersistentWorkerPool(...)
as pool: ...``) or closed explicitly; ``close()`` is idempotent and
tolerates already-dead workers.  After a worker crash the surviving
workers are terminated (their results would be discarded), the pool is
marked broken and every subsequent ``collect`` raises cleanly.  Inside a
daemonic process (a ``SweepRunner`` job), which may not have children,
``collect`` runs the same shards in-process instead.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry

from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import (
    BatchedRolloutCollector,
    Trajectory,
    derive_episode_streams,
)
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import TrainingError
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadTrace

#: Seconds between liveness checks while waiting for shard results.
_RESULT_POLL_INTERVAL_S = 0.05
#: Seconds a worker gets to exit voluntarily before being terminated.
_SHUTDOWN_GRACE_S = 5.0


def shard_indices(count: int, num_shards: int) -> List[List[int]]:
    """Split ``range(count)`` into at most ``num_shards`` contiguous slices.

    Shards are balanced to within one episode, ordered, and never empty,
    so concatenating the shards reproduces the original episode order.
    """
    if count <= 0:
        raise TrainingError(f"count must be positive, got {count}")
    if num_shards <= 0:
        raise TrainingError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, count)
    base, extra = divmod(count, num_shards)
    shards: List[List[int]] = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def _collect_shard(
    collector: BatchedRolloutCollector,
    policy: RecurrentPolicyValueNet,
    indices: Sequence[int],
    traces: Sequence[WorkloadTrace],
    base_seed: int,
    total: int,
    epsilon: float,
    greedy: bool,
) -> List[Trajectory]:
    """Episodes ``indices`` of a ``total``-episode collection, in lockstep.

    Streams are selected by global episode id, so a shard's draws are
    identical to the same lanes of the full batch.
    """
    episode_rngs, action_rngs = derive_episode_streams(base_seed, total)
    return collector.collect_batch(
        policy,
        list(traces),
        epsilon=epsilon,
        greedy=greedy,
        episode_rngs=[episode_rngs[i] for i in indices],
        action_rngs=[action_rngs[i] for i in indices],
    )


def _drain_worker_telemetry() -> Optional[Dict[str, object]]:
    """This process's telemetry delta since the last drain (or ``None``).

    Shipped as the fourth element of every successful shard reply;
    the parent folds the metrics snapshot into its own registry and
    ingests the spans stamped ``worker=<shard id>``.
    """
    registry = telemetry.registry()
    tracer = telemetry.tracer()
    if not registry.enabled and not tracer.enabled:
        return None
    return {
        "metrics": registry.drain_snapshot(),
        "spans": tracer.drain(),
    }


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    system_config: StorageSystemConfig,
    reward_config: Optional[RewardConfig],
) -> None:
    """Worker loop: build the environment once, then serve messages.

    Messages (tuples, dispatched on the first element):

    * ``("weights", version, policy_config, changed_state)`` — create the
      resident policy on first receipt and overwrite exactly the changed
      parameters in place (full arrays, so the update is bit-exact);
    * ``("collect", shard_id, version, shard_args)`` — run
      ``_collect_shard(collector, policy, *shard_args)``
      and reply ``(shard_id, trajectories, None, telemetry)``
      (or ``(shard_id, None, traceback_str, None)`` on failure), where
      ``telemetry`` is this worker's metrics/span delta for the shard;
    * ``("shutdown",)`` — exit the loop.
    """
    policy: Optional[RecurrentPolicyValueNet] = None
    weights_version = -1
    vector_env = VectorStorageAllocationEnv(system_config, reward_config)
    collector = BatchedRolloutCollector(vector_env)
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "weights":
            _, version, policy_config, changed_state = message
            try:
                if policy is None:
                    policy = RecurrentPolicyValueNet(policy_config)
                own = dict(policy.named_parameters())
                for name, value in changed_state.items():
                    own[name].data[...] = value
                weights_version = version
            except Exception:  # pragma: no cover - defensive
                result_queue.put((None, None, traceback.format_exc(), None))
            continue
        if kind == "collect":
            _, shard_id, version, shard_args = message
            try:
                if policy is None:
                    raise TrainingError(
                        f"worker {worker_id} received a shard before any weights"
                    )
                if version != weights_version:
                    raise TrainingError(
                        f"worker {worker_id} has weights v{weights_version} but the "
                        f"shard expects v{version}"
                    )
                trajectories = _collect_shard(collector, policy, *shard_args)
                result_queue.put(
                    (shard_id, trajectories, None, _drain_worker_telemetry())
                )
            except Exception:
                result_queue.put((shard_id, None, traceback.format_exc(), None))
            continue
        result_queue.put(
            (None, None, f"worker {worker_id} got an unknown message kind {kind!r}", None)
        )


class PersistentWorkerPool:
    """A pool of long-lived rollout workers with resident policy weights.

    Typical use (one pool reused across training epochs)::

        with PersistentWorkerPool(system_config, reward_config, num_workers=4) as pool:
            for epoch in range(epochs):
                trajectories = pool.collect(policy, traces, base_seed=seed)
                ...update policy...

    ``collect`` broadcasts the policy's changed parameters (all of them
    on the first epoch, typically all after a gradient step, none for
    repeated evaluation of frozen weights), then dispatches one episode
    shard per worker and merges the results in episode order.
    """

    def __init__(
        self,
        system_config: Optional[StorageSystemConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        num_workers: int = 2,
        start_method: Optional[str] = None,
    ) -> None:
        if num_workers <= 0:
            raise TrainingError(f"num_workers must be positive, got {num_workers}")
        self.system_config = system_config or StorageSystemConfig()
        self.system_config.validate()
        self.reward_config = reward_config
        self.num_workers = int(num_workers)
        self.start_method = start_method
        self._context = None
        self._processes: List = []
        self._task_queues: List = []
        self._result_queue = None
        self._weights_version = -1
        self._last_state: Dict[str, np.ndarray] = {}
        self._last_policy_config: Optional[PolicyConfig] = None
        self._closed = False
        self._broken: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._processes)

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_started(self) -> None:
        if self._processes:
            return
        self._context = multiprocessing.get_context(self.start_method)
        self._result_queue = self._context.Queue()
        for worker_id in range(self.num_workers):
            task_queue = self._context.Queue()
            process = self._context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    task_queue,
                    self._result_queue,
                    self.system_config,
                    self.reward_config,
                ),
                daemon=True,
                name=f"rollout-pool-worker-{worker_id}",
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)

    def close(self) -> None:
        """Shut the workers down; idempotent and safe after crashes."""
        if self._closed:
            return
        self._closed = True
        for task_queue, process in zip(self._task_queues, self._processes):
            if process.is_alive():
                try:
                    task_queue.put(("shutdown",))
                except Exception:  # pragma: no cover - queue already broken
                    pass
        self._reap_workers()

    def _reap_workers(self) -> None:
        """Join every worker (terminating stragglers) and drop the queues."""
        for process in self._processes:
            process.join(timeout=_SHUTDOWN_GRACE_S)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_SHUTDOWN_GRACE_S)
        for task_queue in self._task_queues:
            task_queue.close()
        if self._result_queue is not None:
            self._result_queue.close()
        self._processes = []
        self._task_queues = []
        self._result_queue = None

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def _mark_broken(self, reason: str) -> None:
        """Record the failure and take surviving workers down.

        The epoch is aborted and whatever the survivors are computing is
        discarded, so they are terminated outright: a polite shutdown
        message would queue behind their in-flight shards and stall the
        error for the whole shutdown grace.
        """
        self._broken = reason
        for task_queue, process in zip(self._task_queues, self._processes):
            task_queue.cancel_join_thread()
            if process.is_alive():
                process.terminate()
        self._reap_workers()

    # ------------------------------------------------------------------
    # Weights broadcast
    # ------------------------------------------------------------------
    def _broadcast_weights(self, policy: RecurrentPolicyValueNet) -> None:
        state = policy.state_dict()
        if self._last_policy_config is not None and policy.config != self._last_policy_config:
            raise TrainingError(
                "persistent worker pool cannot change policy architecture "
                f"mid-flight ({self._last_policy_config} -> {policy.config}); "
                "close the pool and create a new one"
            )
        if self._weights_version < 0:
            changed = state
        else:
            changed = {
                name: value
                for name, value in state.items()
                if not np.array_equal(value, self._last_state[name])
            }
        if changed or self._weights_version < 0:
            self._weights_version += 1
            message = ("weights", self._weights_version, policy.config, changed)
            for task_queue in self._task_queues:
                task_queue.put(message)
        self._last_state = state
        self._last_policy_config = policy.config

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(
        self,
        policy: RecurrentPolicyValueNet,
        traces: Sequence[WorkloadTrace],
        base_seed: int,
        epsilon: float = 0.0,
        greedy: bool = False,
    ) -> List[Trajectory]:
        """Collect one trajectory per trace across the resident workers.

        The result is ordered like ``traces`` and bit-identical to::

            episode_rngs, action_rngs = derive_episode_streams(base_seed, len(traces))
            BatchedRolloutCollector(...).collect_batch(
                policy, traces, episode_rngs=episode_rngs, action_rngs=action_rngs)

        An empty trace list is a no-op that touches no worker (a
        zero-episode epoch must not desync weight versions — the
        broadcast still happens lazily on the next non-empty epoch), and
        fewer episodes than workers shrinks the shard count — shards are
        never empty.
        """
        if self._closed:
            raise TrainingError("persistent worker pool has been closed")
        if self._broken is not None:
            raise TrainingError(f"persistent worker pool is broken: {self._broken}")
        traces = list(traces)
        if not traces:
            return []
        total = len(traces)
        shards = shard_indices(total, self.num_workers)
        shard_args = [
            (
                tuple(indices),
                tuple(traces[i] for i in indices),
                int(base_seed),
                total,
                float(epsilon),
                bool(greedy),
            )
            for indices in shards
        ]
        if multiprocessing.current_process().daemon:
            # A daemonic process (e.g. a SweepRunner job) cannot have
            # children: run the same shards here.  Identical results —
            # the worker layout never touches the rng streams — and
            # telemetry lands in this process's registry directly.
            collector = BatchedRolloutCollector(
                VectorStorageAllocationEnv(self.system_config, self.reward_config)
            )
            return [
                trajectory
                for args in shard_args
                for trajectory in _collect_shard(collector, policy, *args)
            ]
        self._ensure_started()
        self._broadcast_weights(policy)
        for shard_id, args in enumerate(shard_args):
            self._task_queues[shard_id].put(
                ("collect", shard_id, self._weights_version, args)
            )
        outcomes = self._await_results(len(shards))
        merged: List[Optional[Trajectory]] = [None] * total
        for shard_id, trajectories, error, shard_telemetry in outcomes:
            if error is not None:
                # shard_id None marks worker-level failures (weights
                # application, protocol errors) not tied to one shard.
                if shard_id is None:
                    self._mark_broken("worker-level failure")
                    raise TrainingError(
                        f"rollout worker failed outside a shard:\n{error}"
                    )
                self._mark_broken(f"shard {shard_id} failed")
                raise TrainingError(
                    f"rollout shard {shard_id} "
                    f"(episodes {list(shards[shard_id])}) failed:\n{error}"
                )
            indices = shards[shard_id]
            if trajectories is None or len(trajectories) != len(indices):
                self._mark_broken(f"shard {shard_id} returned a bad payload")
                raise TrainingError(
                    f"rollout shard {shard_id} returned "
                    f"{0 if trajectories is None else len(trajectories)} trajectories "
                    f"for {len(indices)} episodes"
                )
            for index, trajectory in zip(indices, trajectories):
                merged[index] = trajectory
            if shard_telemetry is not None:
                # Metrics fold by pure addition (no worker label — the
                # cardinality stays flat); spans keep attribution via a
                # ``worker=<shard id>`` attribute.
                telemetry.registry().merge_snapshot(shard_telemetry["metrics"])
                telemetry.tracer().ingest(
                    shard_telemetry["spans"], worker=shard_id
                )
        missing = [i for i, trajectory in enumerate(merged) if trajectory is None]
        if missing:
            self._mark_broken(f"episodes {missing} were never returned")
            raise TrainingError(f"episodes {missing} were not covered by any shard")
        return list(merged)

    def _await_results(self, expected: int) -> List[Tuple]:
        """Wait for ``expected`` shard results with crash detection.

        The result queue is polled with a short timeout; on every beat
        the worker processes are liveness-checked, so a worker that died
        mid-epoch (crash, OOM-kill, SIGKILL) raises within one poll
        interval instead of blocking forever on a result that will never
        arrive.
        """
        outcomes: List[Tuple] = []
        while len(outcomes) < expected:
            try:
                outcomes.append(
                    self._result_queue.get(timeout=_RESULT_POLL_INTERVAL_S)
                )
            except queue_module.Empty:
                dead = [
                    (worker_id, process.exitcode)
                    for worker_id, process in enumerate(self._processes)
                    if not process.is_alive()
                ]
                if dead:
                    details = ", ".join(
                        f"worker {worker_id} (exit code {code})"
                        for worker_id, code in dead
                    )
                    self._mark_broken(f"worker death: {details}")
                    raise TrainingError(
                        "persistent worker pool lost "
                        f"{details} while {expected - len(outcomes)} shard "
                        "result(s) were still pending; the epoch was aborted "
                        "with no partial merge"
                    )
        return outcomes

    # ------------------------------------------------------------------
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------
    @property
    def weights_version(self) -> int:
        """Version of the last broadcast weight set (-1 before the first)."""
        return self._weights_version

    def worker_pids(self) -> List[int]:
        """Pids of the live workers (empty before the first ``collect``)."""
        return [int(process.pid) for process in self._processes]
