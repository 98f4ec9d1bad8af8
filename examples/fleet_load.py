"""Fleet-scale sim-to-serve load run against the policy server.

Run with::

    python examples/fleet_load.py [--sessions 2048] [--shard-size 512] \
        [--mode inprocess|socket] [--clients 4] [--seed 42] \
        [--json report.json] [--verify-determinism] \
        [--metrics-out fleet.prom] [--trace-out fleet_trace.jsonl]

Thousands of simulated storage nodes (B-major vector simulator shards)
hold ``(slot, generation)`` sessions on one micro-batching
:class:`PolicyServer` and submit a decision request per simulated
interval, through a three-phase schedule: steady warmup, a churn storm
with deliberate stale-handle probes, and a correlated flash crowd.
``--mode socket`` drives the identical schedule through the asyncio
:class:`PolicyNetServer` over real framed connections — the report's
deterministic section is byte-identical either way.

``--verify-determinism`` runs the fleet twice on fresh servers and
exits non-zero unless the two deterministic sections match byte for
byte.  The exit code is non-zero too if any request errored, was
BUSY-rejected, or was left pending — so CI can use this example as a
closed-loop serving smoke.

The artifacts are built directly (a handmade FSM over the storage
observation space) so the demo starts in seconds; see
``examples/serve_policy.py`` for the full train-extract-compile
pipeline feeding the same serving stack.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile

from serve_over_socket import build_artifacts

from repro import telemetry
from repro.loadgen import (
    FleetDriver,
    FleetSchedule,
    InProcessTransport,
    LoadPhase,
    SocketTransport,
)
from repro.engine import CompiledFSMBackend
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer


def demo_schedule(sessions: int, shard_size: int) -> FleetSchedule:
    return FleetSchedule(
        sessions=sessions,
        shard_size=shard_size,
        trace_duration=10,
        trace_variants=2,
        phases=[
            LoadPhase(name="warmup", steps=2),
            LoadPhase(
                name="churn_storm",
                steps=3,
                churn_rate=0.05,
                stale_probes_per_step=4,
            ),
            LoadPhase(
                name="flash_crowd",
                steps=3,
                churn_rate=0.01,
                burst_multiplier=3,
                burst_tenant_fraction=0.25,
            ),
        ],
    )


def make_server(args) -> PolicyServer:
    env, compiled, _policy, _stream = build_artifacts(args.seed)
    return PolicyServer(
        CompiledFSMBackend(compiled),
        env.observation_encoder,
        initial_capacity=args.sessions,
        max_batch_size=2048,
    )


def run_inprocess(args):
    server = make_server(args)
    schedule = demo_schedule(args.sessions, args.shard_size)
    driver = FleetDriver(schedule, InProcessTransport(server), base_seed=args.seed)
    return driver.run()


def run_socket(args):
    async def scenario():
        server = make_server(args)
        netserver = PolicyNetServer(server, max_inflight=64)
        socket_dir = tempfile.mkdtemp(prefix="rfleet", dir="/tmp")
        socket_path = os.path.join(socket_dir, "fleet.sock")
        try:
            await netserver.start(unix_path=socket_path)
            clients = [
                await PolicyClient.connect_unix(socket_path)
                for _ in range(args.clients)
            ]
            schedule = demo_schedule(args.sessions, args.shard_size)
            driver = FleetDriver(
                schedule,
                SocketTransport(clients, per_connection_window=32),
                base_seed=args.seed,
            )
            report = await driver.run_async()
            for client in clients:
                await client.close()
            summary = await netserver.drain()
            if summary["pending"] or summary["parked_replies"]:
                raise SystemExit(
                    f"drain left work behind: {summary['pending']} pending, "
                    f"{summary['parked_replies']} parked"
                )
            return report
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)

    return asyncio.run(scenario())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sessions", type=int, default=2048)
    parser.add_argument("--shard-size", type=int, default=512)
    parser.add_argument("--mode", choices=("inprocess", "socket"), default="inprocess")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", type=str, default=None)
    parser.add_argument("--verify-determinism", action="store_true")
    parser.add_argument(
        "--metrics-out", type=str, default=None,
        help="write the process and report registries as Prometheus text",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None,
        help="write the span ring buffer as JSONL (one span per line)",
    )
    args = parser.parse_args()

    runner = run_inprocess if args.mode == "inprocess" else run_socket
    report = runner(args)
    payload = report.as_dict()
    det = payload["deterministic"]
    timing = payload["timing"]
    print(
        f"{args.mode}: {det['decisions_total']} decisions "
        f"(+{det['probe_decisions_total']} flash-crowd probes) over "
        f"{len(det['occupancy_timeline'])} steps at "
        f"{timing['decisions_per_sec']} decisions/s"
    )
    print(
        f"  churn cycles: {det['churn_cycles_total']}  "
        f"stale rejections: {det['stale_rejections_total']}  "
        f"recycles: {det['recycles']}  digest: {det['digest'][:16]}…"
    )
    latency = timing["latency"]
    print(
        f"  latency ms: p50={latency['p50_ms']} p95={latency['p95_ms']} "
        f"p99={latency['p99_ms']} max={latency['max_ms']}"
    )

    errors = sum(int(p["errors"]) for p in det["phases"])
    busy = int(payload["server"].get("busy_rejections", 0))
    if errors or busy:
        print(f"FAILED: {errors} errors, {busy} BUSY rejections", file=sys.stderr)
        return 1

    if args.verify_determinism:
        repeat = runner(args)
        if repeat.deterministic_json() != report.deterministic_json():
            print("FAILED: deterministic sections differ between runs",
                  file=sys.stderr)
            return 1
        print("  determinism verified: repeat run is byte-identical")

    if args.json:
        report.save(args.json)
        print(f"  report written to {args.json}")

    if args.metrics_out:
        # The process-global registry (the broker/netserver/engine
        # series), then the report's own timing instruments; their
        # family names are disjoint, so the two expositions concatenate.
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(telemetry.registry().to_prometheus_text())
            handle.write(report.metrics.to_prometheus_text())
        print(f"  metrics written to {args.metrics_out}")
    if args.trace_out:
        spans = telemetry.tracer().export_jsonl(args.trace_out)
        print(f"  {spans} spans written to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
