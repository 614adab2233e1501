"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is this catalogue projected onto the
driver's fixed schema (name / unit / better / bound); the extra columns here
— owning layer, the end-to-end metric a layer metric should move, and the
workloads it should move it on — are what README.md renders and what
``compare.py`` reads.  ``test_smoke.py`` fails if the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``run_seconds`` of BENCHMARK.json: the measured phase a workload's round
#: count is sized for, in normalised seconds.
RUN_SECONDS = 10

#: name -> why it exists (one line; the long form is in README.md).
WORKLOADS: dict[str, str] = {
    "honest_steady": (
        "accept path: every peer publishes once per epoch; prove, gossip, verify; "
        "no tree writes after set-up"
    ),
    "spam_flood": (
        "reject path: forged bundles die at hop 1, a double-signal is slashed; "
        "gossip forwarding does little"
    ),
    "membership_churn": (
        "tree writes beside reads: registrations and withdrawals applied by every "
        "replica while a few peers publish"
    ),
    "production_fleet": (
        "honest traffic on the other arm of the switches: sharded forest, crypto lanes, "
        "batching, collector, alerts"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: ``bound`` of BENCHMARK.json: what the driver holds a median over runs
    #: on *different* seeds against.
    bound: float
    #: What ``compare.py`` holds two ledgers of *one* seed against: the
    #: issue's 10 % on host times (5 % on memory), and 0 — exact — on what
    #: the seed determines.
    same_seed: float
    definition: str


#: Reported by every workload's untraced run.  Host times are normalised
#: seconds (see calibrate.py); ``sim_s`` is seconds on the simulated clock.
#: The driver draws another seed for every run and accepts a ``bound`` only
#: if the spread over ten seeds stays inside it, so each is three times the
#: widest quartile spread seen over ten seeds on the reference sandbox
#: (README.md, "Steadiness"), rounded up.  Seeds draw the topology, which
#: alone moves the two simulated figures by 3-5 % and the event count behind
#: ``bundles_per_s`` by as much; between runs of one seed none of that moves,
#: hence the tighter ``same_seed`` column.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, 0.10,
             "warm create + register (chunks of 2 peers) + mesh; median of the run's set-ups"),
    EndToEnd("bundles_per_s", "1/s", "higher", 0.25, 0.10,
             "bundles offered (honest + hostile) / measured phase incl. drain, forging excluded"),
    EndToEnd("publish_ms_p50", "ms", "lower", 0.15, 0.10,
             "median host time of one peer.publish(): witness + proof + local routing"),
    EndToEnd("sim_delivery_mean_s", "sim_s", "lower", 0.20, 0.0,
             "publish -> delivery on the simulated clock, mean over (honest bundle, peer) pairs"),
    EndToEnd("bytes_per_delivery", "bytes", "lower", 0.20, 0.0,
             "Network.total_bytes() over the measured phase (all protocols) / honest deliveries"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05, 0.05,
             "ru_maxrss of the workload's process"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: End-to-end metric(s) this should move, and where.
    moves: str
    on: str
    #: Span kinds whose self time the metric sums (time metrics only);
    #: a trailing ``*`` matches any suffix.
    kinds: tuple[str, ...] = ()
    #: Set on the workload-scoped outcomes only, which compare.py judges
    #: like end-to-end metrics between ledgers of one seed; 0 means exact.
    same_seed: float | None = None


def _count(name: str, layer: str, moves: str, on: str, *, unit: str = "count",
           better: str = "lower") -> PerLayer:
    return PerLayer(name, unit, better, layer, moves, on)


def _time(name: str, layer: str, moves: str, on: str, *kinds: str) -> PerLayer:
    return PerLayer(name, "s", "lower", layer, moves, on, kinds)


_ALL = "all"
_ACCEPT = "honest_steady, production_fleet"

PER_LAYER: tuple[PerLayer, ...] = (
    # crypto
    _count("crypto.hashes_setup", "crypto", "setup_s", _ALL),
    _count("crypto.hashes_run", "crypto", "bundles_per_s, publish_ms_p50", _ALL),
    PerLayer("crypto.hash_s", "s", "lower", "crypto", "bundles_per_s", _ALL),
    _count("crypto.hashes_per_member_event", "crypto", "bundles_per_s", "membership_churn"),
    # crypto.merkle / treesync
    _count("merkle.appends", "crypto.merkle", "bundles_per_s, setup_s", "membership_churn"),
    _count("merkle.deletes", "crypto.merkle", "bundles_per_s", "membership_churn"),
    _count("merkle.proofs", "crypto.merkle", "publish_ms_p50", "membership_churn"),
    _time("merkle.self_s", "crypto.merkle", "bundles_per_s, setup_s", "membership_churn",
          "crypto.merkle.*"),
    _time("treesync.self_s", "treesync", "bundles_per_s, setup_s", "production_fleet",
          "treesync.*"),
    # zksnark
    _count("zksnark.proofs", "zksnark", "publish_ms_p50", _ACCEPT),
    _time("zksnark.prove_s", "zksnark", "publish_ms_p50, bundles_per_s", _ACCEPT,
          "zksnark.prove"),
    _count("zksnark.verifications", "zksnark", "bundles_per_s", "honest_steady, spam_flood"),
    _time("zksnark.verify_s", "zksnark", "bundles_per_s", "honest_steady, spam_flood",
          "zksnark.verify", "zksnark.verify_batch"),
    _count("zksnark.pairings", "zksnark", "bundles_per_s", "spam_flood, production_fleet"),
    _count("zksnark.cached_verdicts", "zksnark", "bundles_per_s", "spam_flood",
           better="higher"),
    # chain
    _count("chain.txs", "chain", "bundles_per_s", "membership_churn, spam_flood"),
    _count("chain.blocks", "chain", "bundles_per_s", "membership_churn"),
    _time("chain.self_s", "chain", "bundles_per_s", "membership_churn, spam_flood",
          "chain.*"),
    # core.membership
    _count("membership.events_applied", "core.membership", "bundles_per_s, setup_s",
           "membership_churn"),
    _time("membership.self_s", "core.membership", "bundles_per_s, setup_s",
          "membership_churn", "core.membership.*"),
    # core (publish, slashing)
    PerLayer("core.publish_ms_p99", "ms", "lower", "core", "publish_ms_p50", _ACCEPT),
    _time("core.publish_self_s", "core", "publish_ms_p50", "honest_steady", "core.publish"),
    _count("slashing.attempts", "core", "spam_exclusion_sim_s", "spam_flood"),
    _count("slashing.txs", "core", "spam_exclusion_sim_s", "spam_flood"),
    # gossipsub
    _count("gossipsub.rpcs", "gossipsub", "bundles_per_s, bytes_per_delivery", _ACCEPT),
    _count("gossipsub.forwards", "gossipsub", "bundles_per_s", _ACCEPT),
    _count("gossipsub.duplicates_ratio", "gossipsub", "bundles_per_s, bytes_per_delivery",
           _ACCEPT, unit="ratio"),
    _count("gossipsub.control_msgs", "gossipsub", "bytes_per_delivery", _ACCEPT),
    _time("gossipsub.self_s", "gossipsub", "bundles_per_s", _ACCEPT, "gossipsub.*"),
    # pipeline
    _count("pipeline.validations", "pipeline", "bundles_per_s", "spam_flood"),
    _count("pipeline.prefilter_drops", "pipeline", "bundles_per_s", "spam_flood",
           better="higher"),
    _count("pipeline.ratelimited", "pipeline", "bundles_per_s", "spam_flood"),
    _count("pipeline.cheap_rejects", "pipeline", "verifications_per_hostile", "spam_flood",
           better="higher"),
    _count("pipeline.batches", "pipeline", "bundles_per_s", "production_fleet"),
    _count("pipeline.mean_batch", "pipeline", "bundles_per_s, sim_delivery_mean_s",
           "production_fleet", unit="proofs", better="higher"),
    _count("pipeline.hostile_verifications_hop2", "pipeline", "verifications_per_hostile",
           "spam_flood"),
    _time("pipeline.self_s", "pipeline", "bundles_per_s", "spam_flood, production_fleet",
          "pipeline.*"),
    # exec
    _count("exec.jobs", "exec", "bundles_per_s", "production_fleet"),
    _count("exec.sim_queue_wait_max_s", "exec", "sim_delivery_mean_s", "production_fleet",
           unit="sim_s"),
    _count("exec.lane_busy_sim_s", "exec", "sim_delivery_mean_s", "production_fleet",
           unit="sim_s"),
    _time("exec.self_s", "exec", "bundles_per_s", "production_fleet", "exec.*"),
    # net
    _count("net.events", "net", "bundles_per_s", "honest_steady"),
    PerLayer("net.events_per_s", "1/s", "higher", "net", "bundles_per_s", "honest_steady"),
    _count("net.sends", "net", "bundles_per_s, bytes_per_delivery", "honest_steady"),
    _time("net.send_self_s", "net", "bundles_per_s", "honest_steady", "net.send"),
    _time("net.sim_self_s", "net", "bundles_per_s", "honest_steady", "net.sim"),
    _time("net.event_self_s", "net", "bundles_per_s", "honest_steady", "net.event"),
    _count("net.bytes.gossipsub", "net", "bytes_per_delivery", _ACCEPT, unit="bytes"),
    # telemetry
    _count("telemetry.batches", "telemetry", "bundles_per_s", "production_fleet"),
    _count("telemetry.bytes", "telemetry", "bytes_per_delivery", "production_fleet",
           unit="bytes"),
    _time("telemetry.collector_self_s", "telemetry", "bundles_per_s", "production_fleet",
          "telemetry.handler"),
    _time("telemetry.send_self_s", "telemetry", "bundles_per_s", "production_fleet",
          "telemetry.tick", "telemetry.event"),
    _count("telemetry.lost_batches", "telemetry", "-", "production_fleet"),
    # Workload-scoped outcomes: end-to-end in meaning, but the driver's
    # schema wants every end-to-end metric on every workload, never 0 and
    # never the same time on every run.  Three of these exist on one
    # workload only (they read 0 on the others); the two percentiles are
    # whole hops of 0.05 s and read 0.1 / 0.15 on every seed of the paper
    # profile.  All but the first repeat exactly for a seed.
    PerLayer("member_events_per_s", "1/s", "higher", "e2e", "-", "membership_churn",
             same_seed=0.10),
    PerLayer("sim_delivery_p50_s", "sim_s", "lower", "e2e", "-", _ALL, same_seed=0.0),
    PerLayer("sim_delivery_p99_s", "sim_s", "lower", "e2e", "-", _ALL, same_seed=0.0),
    PerLayer("verifications_per_hostile", "ratio", "lower", "e2e", "-", "spam_flood",
             same_seed=0.0),
    PerLayer("spam_exclusion_sim_s", "sim_s", "lower", "e2e", "-", "spam_flood",
             same_seed=0.0),
    # harness
    PerLayer("harness.wall_s", "s", "lower", "harness", "-", _ALL),
    PerLayer("harness.cpu_s", "s", "lower", "harness", "-", _ALL),
    PerLayer("harness.measured_s", "s", "lower", "harness", "-", _ALL),
    PerLayer("harness.cal_factor", "ratio", "lower", "harness", "-", _ALL),
    PerLayer("harness.cal_share", "ratio", "lower", "harness", "-", _ALL),
    PerLayer("harness.warmup_s", "s", "lower", "harness", "-", _ALL),
    _time("harness.generator_s", "harness", "-", _ALL,
          "harness.generator", "harness.forging", "harness.on_event"),
    PerLayer("harness.unattributed_s", "s", "lower", "harness", "-", _ALL),
    PerLayer("harness.attributed_share", "ratio", "higher", "harness", "-", _ALL),
)

#: Per-layer metrics that must read the same in any two runs of one seed
#: (counts and simulated seconds) — everything that is not a host time.
_HOST_UNITS = ("s", "ms", "1/s")
_HOST_RATIOS = ("harness.cal_factor", "harness.cal_share", "harness.attributed_share")
EXACT = tuple(
    m.name for m in PER_LAYER if m.unit not in _HOST_UNITS and m.name not in _HOST_RATIOS
)


def benchmark_json() -> dict:
    """The driver-schema projection of this catalogue: ``/BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def markdown() -> str:
    """The metric tables of README.md."""
    lines = [
        "| end-to-end metric | unit | better | bound | same seed | definition |",
        "|---|---|---|---|---|---|",
    ]
    lines += [
        f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.0%} "
        f"| {f'{m.same_seed:.0%}' if m.same_seed else 'exact'} | {m.definition} |"
        for m in END_TO_END
    ]
    lines += [
        "",
        "| per-layer metric | layer | unit | better | should move | on |",
        "|---|---|---|---|---|---|",
    ]
    lines += [
        f"| `{m.name}` | {m.layer} | {m.unit} | {m.better} | {m.moves} | {m.on} |"
        for m in PER_LAYER
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    # ``python3 benchmarks/e2e/catalogue.py json > BENCHMARK.json`` and
    # ``... markdown`` regenerate the two projections test_smoke.py pins.
    import json
    import sys

    print(markdown() if sys.argv[1:] == ["markdown"] else json.dumps(benchmark_json(), indent=2))
