"""Where the production profile's accept path spends the host's time.

    python3 benchmarks/probes/accept_path.py [--rounds 36] [--runs 1] [--seed 11]

One honest traffic phase — every peer of a 20-peer fleet publishes once
per 1-s epoch for ``--rounds`` rounds, then the exporters flush and the
fleet drains for 3 simulated seconds — on the ``production_fleet``
profile of the e2e benchmark (built by ``benchmarks/e2e/harness.py``:
sharded trees, two crypto lanes with batches of 8, one collector with
``CollectorOptions(interval=1.0, trace_sample=0.25, alerting=True)``),
under four arms that each turn one thing off:

* ``configured`` — the profile as the benchmark runs it;
* ``trace_sample=0.0`` — no validation span travels or is archived
  (every peer still keeps its stage histograms);
* ``collector=None`` — no collector, exporter, tracer or histogram;
* ``pipeline_config=None`` — inline crypto, no batching window.

Each arm sets up the same fleet and then times the traffic phase alone
with the process's CPU clock (``time.process_time``: what this
interpreter burned, whoever else shares the machine).  The figure is
host microseconds per validated bundle: the phase's CPU time over the
fleet's validator calls (``relay.stats.validations`` summed over the
peers).  Every (arm, run) runs in its own interpreter with
``PYTHONHASHSEED=0``, arms rotating from run to run; a row is the median
over ``--runs``.  The last line is the rows as JSON.  Standard library
and the repo only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
PEERS = 20
DRAIN_S = 3.0
ARMS = ("configured", "trace_sample=0.0", "collector=None", "pipeline_config=None")


def workload(arm: str):
    """``production_fleet`` with the one change ``arm`` names."""
    from benchmarks.e2e.workloads import WORKLOADS

    fleet = WORKLOADS["production_fleet"]
    if arm == "trace_sample=0.0":
        return dataclasses.replace(
            fleet, collector=dataclasses.replace(fleet.collector, trace_sample=0.0)
        )
    if arm == "collector=None":
        return dataclasses.replace(fleet, collector=None)
    if arm == "pipeline_config=None":
        return dataclasses.replace(fleet, pipeline=None)
    return fleet


def measure(arm: str, rounds: int, seed: int) -> dict:
    """One arm, in this interpreter."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e import harness
    from repro.crypto.engine import use_backend

    with use_backend(harness.CRYPTO_BACKEND):
        dep = harness.build(workload(arm), seed, PEERS)
        dep.register_all()
        dep.form_meshes()
        peers = [dep.peers[p] for p in dep.peer_ids()]
        validations = sum(p.relay.stats.validations for p in peers)
        start = time.process_time()
        for number in range(rounds):
            for index, peer in enumerate(peers):
                peer.publish(b"honest|%d|%d" % (number, index))
            dep.run(1.0)
        if dep.exporters:
            dep.flush_telemetry()
        dep.run(DRAIN_S)
        host_s = time.process_time() - start
        validations = sum(p.relay.stats.validations for p in peers) - validations
    return {
        "arm": arm,
        "validated": validations,
        "host_s": round(host_s, 4),
        "us_per_bundle": round(host_s * 1e6 / validations, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=36)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--one", choices=ARMS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.one, args.rounds, args.seed)))
        return 0
    samples: dict[str, list[dict]] = {arm: [] for arm in ARMS}
    env = dict(os.environ, PYTHONHASHSEED="0")
    for run in range(args.runs):
        for arm in ARMS[run % len(ARMS):] + ARMS[:run % len(ARMS)]:
            child = subprocess.run(
                [sys.executable, __file__, "--one", arm, "--rounds", str(args.rounds),
                 "--seed", str(args.seed)],
                check=True, capture_output=True, text=True, env=env,
            )
            samples[arm].append(json.loads(child.stdout.strip().splitlines()[-1]))
    base = statistics.median(s["us_per_bundle"] for s in samples["configured"])
    rows = []
    print(f"{'arm':>21} {'validated':>10} {'host us / bundle':>17} {'vs configured':>14}")
    for arm in ARMS:
        cost = statistics.median(s["us_per_bundle"] for s in samples[arm])
        row = {
            "arm": arm,
            "validated": samples[arm][0]["validated"],
            "us_per_bundle": round(cost, 2),
            "vs_configured": round(cost / base, 3),
            "runs": args.runs,
        }
        rows.append(row)
        print(f"{arm:>21} {row['validated']:>10} {cost:>17.2f} {row['vs_configured']:>14.3f}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
