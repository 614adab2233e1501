"""What an idle fleet costs the host: CPU ms and events per simulated second.

    python3 benchmarks/probes/idle_cost.py [--peers 20 40 80] [--windows 5] [--seed 11]

A fleet of WAKU-RLN-RELAY peers registers, forms its meshes, settles for
20 simulated seconds and then runs with no traffic at all.  Each of
``--windows`` windows of 40 simulated seconds is timed with the
process's CPU clock (``time.process_time``: what this interpreter
burned, whoever else shares the machine), and the simulator's processed
events are counted.  Two profiles, built as the e2e benchmark builds
them (``benchmarks/e2e/harness.py``): the paper profile (flat trees,
inline crypto, telemetry off) and the collector profile
``production_fleet`` runs (sharded trees, two crypto lanes with batches
of 8, one collector with ``CollectorOptions(interval=1.0,
trace_sample=0.25, alerting=True)``).  On an idle collector-profile
fleet everything above the paper profile's floor is telemetry: each
peer's exporter tick and its one-way heartbeat, and the collector's
liveness mark and alert passes.  Each row is the median over the windows,
whole and divided by the peer count (host µs per peer per simulated
second: whether an idle peer's cost stays flat from 20 to 40 to 80
peers reads off that column); each (profile, size) runs in its own
interpreter.  A collector-profile row also splits the telemetry cost, in
host µs per simulated second, measured on a second fleet of the same
size whose three entry points are timed (exclusive wall time, so the
timers never bill one part's work to another): the exporters' ticks with
their heartbeats (``TelemetryExporter.export``), the collector's folds
(``CollectorPeer._on_export``, a heartbeat's liveness mark included) and
its alert passes (``_evaluate`` and the due samples).  The last line is
the rows as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import subprocess
import sys
import time
from functools import wraps

ROOT = pathlib.Path(__file__).resolve().parents[2]
WINDOW_S = 40.0
SETTLE_S = 20.0
PROFILES = ("paper", "production")


def build(profile: str, peers: int, seed: int):
    """A registered, meshed fleet under ``profile``, as the e2e harness builds it."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.config import RLNConfig
    from repro.core.deployment import RLNDeployment
    from repro.crypto.identity import Identity
    from repro.net.latency import ConstantLatency
    from repro.pipeline import PipelineConfig
    from repro.telemetry import CollectorOptions

    production = profile == "production"
    dep = RLNDeployment.create(
        peer_count=peers,
        degree=min(6, peers - 1),
        seed=seed,
        config=RLNConfig(
            epoch_length=1.0,
            max_epoch_gap=2,
            tree_depth=20,
            tree_backend="sharded" if production else "flat",
        ),
        latency=ConstantLatency(0.05),
        block_interval=12.0,
        pipeline_config=(
            PipelineConfig(workers=2, batch_size=8) if production else None
        ),
        collector=(
            CollectorOptions(interval=1.0, trace_sample=0.25, alerting=True) if production else None
        ),
    )
    secrets = random.Random(f"identities-{seed}")
    for peer in dep.peers.values():
        peer.identity = Identity.from_secret(secrets.getrandbits(248) + 1)
    dep.register_all()
    dep.form_meshes()
    dep.run(SETTLE_S)
    return dep


#: The split's parts, each the entry points whose time it is billed.
PARTS = {
    "tick_beat": (("repro.telemetry.exporter", "TelemetryExporter", "export"),),
    "fold": (("repro.telemetry.collector", "CollectorPeer", "_on_export"),),
    "alerts": (
        ("repro.telemetry.collector", "CollectorPeer", "_evaluate"),
        ("repro.telemetry.collector", "CollectorPeer", "_take_due_sample"),
    ),
}


def timed_parts() -> dict[str, float]:
    """Wrap every entry point of :data:`PARTS` in a timer billing its
    exclusive wall time (an inner part's time is not its caller's);
    returns the seconds per part, which the wrappers keep adding to."""
    import importlib

    sys.path.insert(0, str(ROOT / "src"))
    seconds = dict.fromkeys(PARTS, 0.0)
    open_parts: list[str] = []
    mark = [0.0]

    def timer(part, method):
        @wraps(method)
        def timed(*args, **kwargs):
            now = time.perf_counter()
            if open_parts:
                seconds[open_parts[-1]] += now - mark[0]
            open_parts.append(part)
            mark[0] = now
            try:
                return method(*args, **kwargs)
            finally:
                end = time.perf_counter()
                seconds[open_parts.pop()] += end - mark[0]
                mark[0] = end

        return timed

    for part, entries in PARTS.items():
        for module, cls, name in entries:
            owner = getattr(importlib.import_module(module), cls)
            setattr(owner, name, timer(part, getattr(owner, name)))
    return seconds


def windows_of(dep, windows: int, each=lambda: None) -> tuple[list[float], list[float]]:
    """Host CPU ms and events per simulated second of each window; ``each``
    is called before every window."""
    simulator = dep.simulator
    host_ms: list[float] = []
    events: list[float] = []
    for _ in range(windows):
        each()
        before, start = simulator.processed_events, time.process_time()
        dep.run(WINDOW_S)
        host_ms.append((time.process_time() - start) * 1000 / WINDOW_S)
        events.append((simulator.processed_events - before) / WINDOW_S)
    return host_ms, events


def measure(profile: str, peers: int, windows: int, seed: int) -> dict:
    """One (profile, size), in this interpreter."""
    host_ms, events = windows_of(build(profile, peers, seed), windows)
    row = {
        "profile": profile,
        "peers": peers,
        "host_ms_per_sim_s": round(statistics.median(host_ms), 3),
        "host_us_per_peer_sim_s": round(statistics.median(host_ms) * 1000 / peers, 2),
        "events_per_sim_s": round(statistics.median(events), 3),
        "windows": windows,
    }
    if profile == "production":
        # A second fleet, timed from its first object on: the timers wrap
        # the methods its ticker and handler are bound to.
        seconds = timed_parts()
        dep = build(profile, peers, seed)
        split: dict[str, list[float]] = {part: [] for part in PARTS}
        start = dict(seconds)

        def window() -> None:
            for part in PARTS:
                split[part].append(seconds[part] - start[part])
                start[part] = seconds[part]

        windows_of(dep, windows, window)
        window()
        row["split_us_per_sim_s"] = {
            part: round(statistics.median(values[1:]) * 1e6 / WINDOW_S, 1)
            for part, values in split.items()
        }
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--peers", type=int, nargs="+", default=[20, 40, 80])
    parser.add_argument("--windows", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--one", choices=PROFILES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.one, args.peers[0], args.windows, args.seed)))
        return 0
    rows = []
    print(f"{'profile':>11} {'peers':>6} {'host ms / sim s':>16} {'µs / peer / sim s':>18} "
          f"{'events / sim s':>15}   split, µs / sim s (tick+beat, fold, alerts)")
    for peers in args.peers:
        for profile in PROFILES:
            child = subprocess.run(
                [sys.executable, __file__, "--one", profile, "--peers", str(peers),
                 "--windows", str(args.windows), "--seed", str(args.seed)],
                check=True, capture_output=True, text=True,
            )
            row = json.loads(child.stdout.strip().splitlines()[-1])
            rows.append(row)
            split = row.get("split_us_per_sim_s")
            parts = "   " + " ".join(f"{split[part]:>8.1f}" for part in PARTS) if split else ""
            print(f"{row['profile']:>11} {row['peers']:>6} {row['host_ms_per_sim_s']:>16.3f} "
                  f"{row['host_us_per_peer_sim_s']:>18.2f} {row['events_per_sim_s']:>15.3f}{parts}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
