"""Serve policy decisions over the network front door, with one hot-swap.

Run with::

    python examples/serve_over_socket.py [--sessions 200] [--rounds 8] \
        [--clients 4] [--latency-json out.json] \
        [--metrics-prom out.prom] [--trace-jsonl trace.jsonl]

With ``--metrics-prom`` the run also scrapes the server's ``metrics``
op twice mid-load (before and after the hot-swap) and fails unless the
key serving series are present and monotone between the scrapes —
a closed-loop check that live telemetry actually moves under load.

Stands up the asyncio :class:`PolicyNetServer` on a unix socket over a
broker serving the compiled FSM with the GRU in shadow, drives a few
hundred concurrent sessions through real framed :class:`PolicyClient`
connections, swaps the broker to the GRU itself mid-stream
(:meth:`PolicyServer.swap_backend`, in process), then drains gracefully
and prints — and optionally writes — the per-request latency histogram.

The artifacts are built directly (a handmade FSM over the storage
observation space plus an untrained GRU) so the demo starts in seconds;
see ``examples/serve_policy.py`` for the full train-extract-compile
pipeline feeding the same serving stack.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import tempfile
import time

import numpy as np

from repro import telemetry
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.fsm.machine import FiniteStateMachine
from repro.qbn.autoencoder import build_observation_qbn
from repro.qbn.quantize import code_key
from repro.engine import CompiledFSMBackend, CompiledFSMPolicy, GRUPolicyBackend
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer, ShadowEvaluator
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.utils.serialization import save_json
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator


def _series_total(snapshot: dict, name: str) -> float:
    """Sum of every labeled series of one metric in a JSON snapshot."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    values = []
    for series in family["series"]:
        value = series["value"]
        # Histograms snapshot as a state dict; use the recording count.
        values.append(value["total"] if isinstance(value, dict) else value)
    return float(sum(values))


def build_artifacts(seed: int):
    """A small compiled FSM + GRU over the real observation space."""
    env = StorageAllocationEnv(
        StorageSystemConfig(),
        reward_config=RewardConfig(mode="per_step_penalty"),
        rng=seed,
    )
    generator = StandardWorkloadGenerator(
        env.system_config, GeneratorConfig(), rng=seed
    )
    trace = generator.generate("web_server", duration=24)
    rng = np.random.default_rng(seed + 9)
    observation = env.reset(trace)
    rows = []
    while True:
        rows.append(observation.raw())
        result = env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
        observation = result.observation
        if result.done:
            break
    stream = np.array(rows)

    rng = np.random.default_rng(seed + 3)
    qbn = build_observation_qbn(stream.shape[1], latent_dim=6, hidden_dim=16, rng=seed + 4)
    fsm = FiniteStateMachine()
    codes = []
    while len(codes) < 4:
        code = tuple(int(c) for c in rng.integers(0, 3, size=5))
        if code not in fsm.states:
            state = fsm.add_state(code, MigrationAction(int(rng.integers(NUM_ACTIONS))))
            state.visit_count = int(rng.integers(20))
            codes.append(code)
    normalized = env.observation_encoder.normalize_batch(stream)
    for vector in normalized[:5]:
        key = code_key(qbn.discrete_code(vector))
        if key not in fsm.observation_prototypes:
            fsm.observation_prototypes[key] = np.asarray(vector, float)
    observation_keys = list(fsm.observation_prototypes)
    for _ in range(20):
        fsm.add_transition(
            codes[int(rng.integers(len(codes)))],
            observation_keys[int(rng.integers(len(observation_keys)))],
            codes[int(rng.integers(len(codes)))],
        )
    fsm.initial_state = codes[1]
    fsm.validate()
    compiled = CompiledFSMPolicy.compile(fsm, qbn, encoder=env.observation_encoder)
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=seed + 5)
    return env, compiled, policy, stream


async def drive(args) -> None:
    env, compiled, policy, stream = build_artifacts(args.seed)

    shadowed = ShadowEvaluator(CompiledFSMBackend(compiled), GRUPolicyBackend(policy))
    server = PolicyServer(
        shadowed,
        env.observation_encoder,
        initial_capacity=args.sessions,
        max_batch_size=256,
    )
    netserver = PolicyNetServer(server, flush_interval=0.001)

    socket_dir = tempfile.mkdtemp(prefix="repro-net", dir="/tmp")
    socket_path = os.path.join(socket_dir, "policy.sock")
    endpoints = await netserver.start(unix_path=socket_path)
    print(f"serving on {endpoints['unix']}  "
          f"(compiled FSM + GRU shadow, swapping to the GRU mid-stream)")

    clients = [await PolicyClient.connect_unix(socket_path)
               for _ in range(args.clients)]
    per_client = args.sessions // args.clients
    handles = [await client.open(per_client) for client in clients]
    total_sessions = per_client * args.clients
    print(f"opened {total_sessions} sessions over {args.clients} connections")

    swap_round = args.rounds // 2
    start = time.perf_counter()
    first_scrape = None
    swap = None
    for round_index in range(args.rounds):
        if round_index == swap_round:
            # Mid-load scrape #1: under live traffic, before the swap.
            first_scrape = await clients[0].metrics()
            swap = server.swap_backend(GRUPolicyBackend(policy))
            print(f"round {round_index}: hot-swapped "
                  f"{swap['from_backend']} -> {swap['to_backend']} "
                  f"(state {swap['state']}, "
                  f"flushed {swap['flushed_pending']} pending)")
        await asyncio.gather(*[
            client.decide(
                handle,
                stream[(c * per_client + s + round_index * 13) % len(stream)],
            )
            for c, client in enumerate(clients)
            for s, handle in enumerate(handles[c])
        ])
    elapsed = time.perf_counter() - start

    # Mid-load scrape #2: after the swapped backend served traffic.
    second_scrape = await clients[0].metrics()
    stats = await clients[0].stats()
    for client in clients:
        await client.close()
    summary = await netserver.drain()

    # Telemetry liveness: the key serving series must be present and
    # monotone between the two in-flight scrapes.
    for metric in ("serving_decisions_total", "serving_batches_total",
                   "netserver_requests_total", "serving_batch_size"):
        if first_scrape is not None and _series_total(first_scrape["json"], metric) <= 0:
            raise SystemExit(f"first metrics scrape is missing {metric}")
        if _series_total(second_scrape["json"], metric) <= 0:
            raise SystemExit(f"second metrics scrape is missing {metric}")
    if first_scrape is not None:
        before = _series_total(first_scrape["json"], "serving_decisions_total")
        after = _series_total(second_scrape["json"], "serving_decisions_total")
        if after <= before:
            raise SystemExit(
                f"serving_decisions_total did not advance between scrapes "
                f"({before} -> {after})"
            )
        print(f"metrics scrape: serving_decisions_total {before:.0f} -> {after:.0f}, "
              f"swaps {_series_total(second_scrape['json'], 'serving_swaps_total'):.0f}, "
              f"flush_loop_errors {second_scrape['flush_loop_errors']}")
    if not second_scrape["prometheus"].startswith("# HELP"):
        raise SystemExit("prometheus exposition looks malformed")

    decisions = stats["decisions"]
    latency = stats["latency"]
    print(f"\nserved {decisions} decisions over the socket in {elapsed:.3f}s "
          f"({decisions / elapsed:,.0f} decisions/s)")
    print(f"request latency: p50 {latency['p50_ms']:.3f}ms  "
          f"p95 {latency['p95_ms']:.3f}ms  p99 {latency['p99_ms']:.3f}ms")
    print(f"drained cleanly: parked {summary['parked_replies']}, "
          f"pending {summary['pending']}, failed {summary['failed']}")
    if summary["parked_replies"] or summary["pending"]:
        raise SystemExit("drain left unresolved work")

    if args.latency_json:
        payload = {
            "example": "serve_over_socket",
            "sessions": total_sessions,
            "rounds": args.rounds,
            "clients": args.clients,
            "decisions": decisions,
            "decisions_per_second": decisions / elapsed,
            "swap": swap,
            "latency": latency,
            "drain": summary,
        }
        save_json(args.latency_json, payload)
        print(f"latency histogram written to {args.latency_json}")

    if args.metrics_prom:
        with open(args.metrics_prom, "w", encoding="utf-8") as handle:
            handle.write(second_scrape["prometheus"])
        print(f"prometheus exposition written to {args.metrics_prom}")
    if args.trace_jsonl:
        spans = telemetry.tracer().export_jsonl(args.trace_jsonl)
        print(f"{spans} spans written to {args.trace_jsonl}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=200,
                        help="concurrent sessions (default 200)")
    parser.add_argument("--rounds", type=int, default=8,
                        help="decision rounds per session (default 8)")
    parser.add_argument("--clients", type=int, default=4,
                        help="client connections to spread sessions over")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency-json", type=str, default=None,
                        help="write the latency histogram summary to this path")
    parser.add_argument("--metrics-prom", type=str, default=None,
                        help="write the final Prometheus exposition to this path")
    parser.add_argument("--trace-jsonl", type=str, default=None,
                        help="write the span ring buffer as JSONL to this path")
    args = parser.parse_args()
    if args.clients < 1 or args.sessions < args.clients:
        raise SystemExit("need at least one session per client")
    asyncio.run(drive(args))


if __name__ == "__main__":
    main()
