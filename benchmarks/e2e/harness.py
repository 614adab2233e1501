"""One workload, one process: warm-up, set-ups, measured phase, gates, metrics.

The harness reaches the system only through its public API (README.md lists
the surface).  Host time is read off a :class:`calibrate.Clock`: the work is
cut into intervals of a few tens of milliseconds — a publish, a twentieth of
a simulated second, a registration chunk — with calibration samples between
them, and reported in normalised seconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core import RLNConfig, RLNDeployment, ValidationOutcome, WakuRLNRelayPeer
from repro.crypto.engine import engine_stats, use_backend
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.net.latency import ConstantLatency
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions
from repro.waku.message import WakuMessage

from benchmarks.e2e import calibrate, trace
from benchmarks.e2e.catalogue import PER_LAYER, RUN_SECONDS

#: Pinned so an installed gmpy2 cannot change the numbers.
CRYPTO_BACKEND = "int"
DEGREE = 6
TREE_DEPTH = 20
BLOCK_INTERVAL = 12.0
LINK_LATENCY = 0.05
#: Peers registered per set-up interval, so calibration interleaves with the
#: N^2 tree work instead of bracketing one multi-second block.
REGISTER_CHUNK = 2
#: Simulated seconds the event loop runs between two ticks of the clock.
SIM_STEP = 0.05
#: Groups the rounds of a measured phase are split into; the quartiles of
#: the groups' rates are the run's own spread.
GROUPS = 8
#: Counters of ``read_counters`` that are per-layer metrics as they stand.
_PER_LAYER_NAMES = {m.name for m in PER_LAYER}


@dataclass(frozen=True)
class Sizes:
    peers: int
    setups: int
    #: Fixed round count (smoke) or None (scale with --seconds).
    rounds: int | None = None


FULL = Sizes(peers=20, setups=3)
SMOKE = Sizes(peers=8, setups=1, rounds=3)


@dataclass(frozen=True)
class Workload:
    """A traffic shape plus the deployment profile it runs under."""

    name: str
    #: Rounds whose measured phase (drain included) takes ``RUN_SECONDS``
    #: normalised seconds; ``--seconds`` scales the count, so a run is a
    #: fixed amount of work.
    full_rounds: int
    generate: Callable[["Run", int], None]
    gates: Callable[["Run"], None] = lambda run: None
    auto_slash: bool = False
    tree_backend: str = "flat"
    pipeline: PipelineConfig | None = None
    collector: CollectorOptions | None = None

    def rounds(self, seconds: float, sizes: Sizes) -> int:
        if sizes.rounds is not None:
            return sizes.rounds
        return max(2, round(self.full_rounds * seconds / RUN_SECONDS))


# -- deployment -----------------------------------------------------------------


def build(workload: Workload, seed: int, peers: int) -> RLNDeployment:
    """``RLNDeployment.create`` under the workload's profile, identities seeded."""
    config = RLNConfig(
        epoch_length=1.0,
        max_epoch_gap=2,
        tree_depth=TREE_DEPTH,
        tree_backend=workload.tree_backend,
    )
    dep = RLNDeployment.create(
        peer_count=peers,
        degree=min(DEGREE, peers - 1),
        seed=seed,
        config=config,
        latency=ConstantLatency(LINK_LATENCY),
        block_interval=BLOCK_INTERVAL,
        auto_slash=workload.auto_slash,
        pipeline_config=workload.pipeline,
        collector=workload.collector,
    )
    secrets = random.Random(f"identities-{seed}")
    for peer in dep.peers.values():
        peer.identity = Identity.from_secret(secrets.getrandbits(248) + 1)
    return dep


def set_up(
    workload: Workload, seed: int, peers: int, clock: calibrate.Clock
) -> tuple[RLNDeployment, int, int]:
    """create + register + mesh; returns the deployment and its range of ``clock``."""
    clock.resume()
    start = clock.position
    dep = build(workload, seed, peers)
    clock.tick()
    ids = dep.peer_ids()
    for first in range(0, len(ids), REGISTER_CHUNK):
        dep.register_all(ids[first:first + REGISTER_CHUNK])
        clock.tick()
    dep.form_meshes()
    return dep, start, clock.cut()


# -- the run context the generators drive ------------------------------------------


class Run:
    """What a workload generator sees, and what it leaves behind for the gates."""

    def __init__(
        self,
        dep: RLNDeployment,
        clock: calibrate.Clock,
        seed: int,
        tracer: trace.Tracer | None,
    ) -> None:
        self.dep = dep
        self.clock = clock
        self.rng = random.Random(f"traffic-{seed}")
        self.peers: list[WakuRLNRelayPeer] = [dep.peers[p] for p in dep.peer_ids()]
        #: Honest payload -> simulated publish time; due at every peer once.
        self.sent_at: dict[bytes, float] = {}
        #: Hostile payload -> index of the peer that injected it; due nowhere else.
        self.hostile: dict[bytes, int] = {}
        self.deliveries: list[tuple[int, bytes, float]] = []
        #: (clock interval, raw seconds) of every timed ``peer.publish``.
        self.publish_s: list[tuple[int, float]] = []
        #: Bundles offered so far (honest and hostile).
        self.offered = 0
        #: (clock position, bundles offered) where each group of rounds began,
        #: closed by one last entry where the drain begins.
        self.groups: list[tuple[int, int]] = []
        self.attempted = 0
        self.failures: list[str] = []
        #: Outcomes only this workload has (exclusion time, membership events
        #: …), left by its generator and gates; they read 0 everywhere else.
        self.facts: dict[str, Any] = {}
        self._tracer = tracer
        self._calibration = tracer.kind(trace.CALIBRATION) if tracer else 0
        self._forging = tracer.kind(trace.FORGING) if tracer else 0
        for index, peer in enumerate(self.peers):
            peer.relay.subscribe(self._stamp(index))

    def _stamp(self, index: int) -> Callable[[WakuMessage], None]:
        deliveries, simulator = self.deliveries, self.dep.simulator

        def delivered(message: WakuMessage) -> None:
            deliveries.append((index, message.payload, simulator.now))

        return delivered

    # -- time ---------------------------------------------------------------------

    def tick(self, cut: bool = False) -> None:
        """A point where the work may be interrupted for calibration."""
        tick = self.clock.cut if cut else self.clock.tick
        tracer = self._tracer
        if tracer is None:
            tick()
            return
        # Kernel time is no layer's: keep it out of the generator's span.
        tracer.begin(self._calibration)
        try:
            tick()
        finally:
            tracer.end()

    @contextmanager
    def untimed(self) -> Iterator[None]:
        """Generator work that is an attacker's cost, not the fleet's."""
        self.clock.pause()
        if self._tracer is not None:
            self._tracer.begin(self._forging)
        try:
            yield
        finally:
            if self._tracer is not None:
                self._tracer.end()
            self.clock.resume()

    def rounds(self, count: int) -> Iterator[int]:
        """Round numbers, marking where each of ``GROUPS`` groups begins."""
        for number in range(count):
            if number == 0 or number * GROUPS // count != (number - 1) * GROUPS // count:
                self.mark_group()
            yield number
        self.mark_group()

    def mark_group(self) -> None:
        self.tick(cut=True)
        self.groups.append((self.clock.position, self.offered))

    def advance(self, seconds: float) -> None:
        """``dep.run(seconds)`` in steps of ``SIM_STEP``, ticking between them."""
        simulator = self.dep.simulator
        start = simulator.now
        steps = max(1, round(seconds / SIM_STEP))
        for step in range(1, steps):
            simulator.run(start + seconds * step / steps)
            self.tick()
        simulator.run(start + seconds)
        self.tick()

    # -- load ---------------------------------------------------------------------

    def publish(self, peer: WakuRLNRelayPeer, payload: bytes, *, force: bool = False) -> None:
        """An honest, timed ``peer.publish``."""
        self.sent_at[payload] = self.dep.simulator.now
        t0 = time.perf_counter()
        peer.publish(payload, force=force)
        self.publish_s.append((self.clock.position, time.perf_counter() - t0))
        self.offered += 1
        self.tick()

    def inject(self, origin: int, message: WakuMessage) -> None:
        """A hostile bundle pushed straight into ``origin``'s relay."""
        self.hostile[message.payload] = origin
        self.peers[origin].relay.publish(message)
        self.offered += 1
        self.tick()

    def op(self, ok: bool, label: str) -> None:
        """Account one attempted operation; a failed one is kept by name."""
        self.attempted += 1
        if not ok:
            self.failures.append(label)


# -- public counters ---------------------------------------------------------------


def _mined_txs(dep: RLNDeployment) -> int:
    """Transactions mined so far (ids are sequential and mined in order)."""
    count = 0
    while dep.chain.receipt(count + 1) is not None:
        count += 1
    return count


def read_counters(dep: RLNDeployment) -> dict[str, float]:
    """Every cumulative count the per-layer metrics need, from public stats."""
    peers = list(dep.peers.values())
    engine = engine_stats()[CRYPTO_BACKEND]
    counter = dep.prover.pairing_counter
    net = dep.network
    protocol_bytes = net.protocol_bytes()
    outcomes = {
        outcome: sum(p.validator.stats.count(outcome) for p in peers)
        for outcome in ValidationOutcome
    }
    executors = [p.crypto_executor.stats for p in peers]
    collector = dep.collector
    return {
        "crypto.hashes": engine.hashes,
        "crypto.hash_s": engine.seconds,
        "zksnark.proofs": sum(p.stats.published for p in peers),
        "zksnark.verifications": sum(p.validator.stats.proofs_verified for p in peers),
        "zksnark.cached_verdicts": sum(p.validator.stats.proofs_cached for p in peers),
        "zksnark.pairings": counter.evaluations,
        "chain.txs": _mined_txs(dep),
        "chain.blocks": dep.chain.block_number,
        "membership.events_applied": sum(p.group.event_seq for p in peers),
        "slashing.attempts": sum(p.stats.slash_attempts for p in peers),
        "slashing.txs": sum(
            (a.commit_tx is not None) + (a.reveal_tx is not None)
            for p in peers
            for a in p.slasher.attempts
        ),
        "gossipsub.rpcs": net.total_messages(protocol="gossipsub"),
        "gossipsub.forwards": sum(p.relay.stats.forwarded for p in peers),
        "gossipsub.duplicates": sum(p.relay.stats.duplicates for p in peers),
        "gossipsub.control_msgs": sum(
            p.relay.stats.gossip_sent + p.relay.stats.iwant_served for p in peers
        ),
        "pipeline.validations": sum(p.relay.stats.validations for p in peers),
        "pipeline.prefilter_drops": sum(
            p.pipeline.prefilter.stats.total_dropped() for p in peers
        ),
        "pipeline.ratelimited": sum(p.pipeline_stats.rate_limited for p in peers),
        "pipeline.cheap_rejects": outcomes[ValidationOutcome.UNKNOWN_ROOT]
        + outcomes[ValidationOutcome.PAYLOAD_MISMATCH],
        "pipeline.batches": sum(
            p.pipeline.batch_verifier.stats.batches_verified for p in peers
        ),
        "pipeline.batch_jobs": sum(
            p.pipeline.batch_verifier.stats.jobs_submitted for p in peers
        ),
        "exec.jobs": sum(s.jobs_submitted for s in executors),
        "exec.lane_busy_sim_s": sum(sum(s.lane_busy_seconds) for s in executors),
        "net.events": dep.simulator.processed_events,
        "net.sends": net.total_messages(),
        "net.bytes": net.total_bytes(),
        "net.bytes.gossipsub": protocol_bytes.get("gossipsub", 0),
        "telemetry.bytes": sum(
            size for name, size in protocol_bytes.items() if name.startswith("telemetry")
        ),
        "telemetry.batches": collector.stats.batches if collector else 0,
        "telemetry.lost_batches": collector.stats.lost_batches if collector else 0,
    }


def fingerprint(dep: RLNDeployment, deliveries: int) -> str:
    """Hash of what the simulation did; equal for equal seeds, traced or not."""
    peers = dep.peers.values()
    outcomes = {
        outcome.value: sum(p.validator.stats.count(outcome) for p in peers)
        for outcome in ValidationOutcome
    }
    material = [
        dep.simulator.processed_events,
        deliveries,
        dep.network.total_messages(),
        dep.network.protocol_bytes(),
        outcomes,
    ]
    digest = hashlib.sha256(json.dumps(material, sort_keys=True).encode())
    return digest.hexdigest()[:16]


# -- gates common to every workload ------------------------------------------------


def common_gates(run: Run) -> int:
    """Deliveries, containment, replica roots.  Returns honest deliveries."""
    peer_count = len(run.peers)
    seen: dict[bytes, list[int]] = {}
    for index, payload, _when in run.deliveries:
        seen.setdefault(payload, []).append(index)
    honest_deliveries = 0
    for payload in run.sent_at:
        receivers = seen.get(payload, [])
        honest_deliveries += len(set(receivers))
        missing = peer_count - len(set(receivers))
        duplicate = len(receivers) - len(set(receivers))
        run.attempted += peer_count
        if missing or duplicate:
            run.failures.extend(
                [f"delivery {payload!r}: {missing} missing, {duplicate} duplicate"]
                * (missing + duplicate)
            )
    for payload, origin in run.hostile.items():
        leaked = [i for i in seen.get(payload, []) if i != origin]
        run.op(not leaked, f"hostile {payload!r} reached {len(leaked)} applications")
    # One flat rebuild from the contract's list, compared with every
    # replica's root — GroupManager.assert_synced() without N rebuilds.
    leaves = [FieldElement(pk) for pk in run.dep.contract.commitment_list()]
    expected = MerkleTree.from_leaves(leaves, depth=TREE_DEPTH).root
    for peer in run.peers:
        run.op(peer.group.root == expected, f"{peer.peer_id} root diverged from contract")
    return honest_deliveries


# -- metrics ------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _kind_matches(kind: str, selector: str) -> bool:
    if selector.endswith(".*"):
        return kind.rsplit(".", 1)[0] == selector[:-2]
    return kind == selector


def execute(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    sizes: Sizes,
    trace_out: pathlib.Path | None = None,
) -> dict[str, Any]:
    """Run ``workload`` once and return the full result record.

    With ``trace_out`` the run is traced, and every span is written there.
    """
    tracer = trace.Tracer() if trace_out is not None else None
    with use_backend(CRYPTO_BACKEND):
        if tracer is not None:
            trace.install(tracer)
        try:
            record = _execute(workload, seed, seconds, tracer, sizes)
        finally:
            if tracer is not None:
                trace.uninstall(tracer)
    if tracer is not None:
        tracer.write(trace_out)
    return record


def _execute(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: trace.Tracer | None,
    sizes: Sizes,
) -> dict[str, Any]:
    wrappers = trace.installed_wrappers()

    # Warm-up: trusted set-up, Poseidon codegen, imports, the profile's code
    # paths — on a deployment too small to matter.
    t0 = time.perf_counter()
    warm, _start, _stop = set_up(workload, seed, 4, calibrate.Clock())
    warm.peers[warm.peer_ids()[0]].publish(b"warm-up")
    warm.run(2.0)
    warmup_s = time.perf_counter() - t0
    del warm

    # Set-up, several times; the last deployment carries the measured phase.
    # A traced run reports no set-up time and sets up once.
    setup_clock = calibrate.Clock()
    setups: list[float] = []
    dep = None
    hashes_setup = 0
    for _ in range(sizes.setups if tracer is None else 1):
        dep = None  # free the previous fleet first: peak RSS is one fleet's
        gc.collect()
        before = engine_stats()[CRYPTO_BACKEND].hashes
        dep, start, stop = set_up(workload, seed, sizes.peers, setup_clock)
        hashes_setup = engine_stats()[CRYPTO_BACKEND].hashes - before
        setups.append(setup_clock.norm_s(start, stop))
    assert dep is not None

    # Measured phase.
    clock = calibrate.Clock()
    run = Run(dep, clock, seed, tracer)
    rounds = workload.rounds(seconds, sizes)
    gc.collect()
    spans_before = tracer.snapshot() if tracer else {}
    counters_before = read_counters(dep)
    if tracer is not None:
        tracer.begin(tracer.kind(trace.GENERATOR))
    clock.resume()
    workload.generate(run, rounds)
    run.tick(cut=True)
    if tracer is not None:
        tracer.end()
    counters_after = read_counters(dep)
    spans_after = tracer.snapshot() if tracer else {}
    delta = {name: counters_after[name] - counters_before[name] for name in counters_after}

    # Gates.
    honest_deliveries = common_gates(run)
    workload.gates(run)
    if tracer is None:
        run.op(not wrappers, f"untraced run has wrappers installed: {wrappers}")

    measured_raw = clock.raw_s()
    measured_norm = clock.norm_s()
    cal_factor = calibrate.CAL_REF / statistics.fmean(clock.samples)
    latencies = sorted(
        when - run.sent_at[payload]
        for _i, payload, when in run.deliveries
        if payload in run.sent_at
    )
    publish_ms = [raw * clock.factor(interval) * 1e3 for interval, raw in run.publish_s]

    end_to_end = {
        "setup_s": statistics.median(setups),
        "bundles_per_s": run.offered / measured_norm,
        "publish_ms_p50": statistics.median(publish_ms),
        "sim_delivery_mean_s": statistics.fmean(latencies),
        "bytes_per_delivery": delta["net.bytes"] / max(1, honest_deliveries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Spread between the run's own groups (set-ups, groups of rounds): what
    # compare.py holds against the bound before calling a difference real.
    rates, medians = [], []
    for (start, offered), (stop, offered_next) in zip(run.groups, run.groups[1:]):
        rates.append((offered_next - offered) / clock.norm_s(start, stop))
        inside = [
            raw * clock.factor(i) * 1e3 for i, raw in run.publish_s if start <= i < stop
        ]
        if inside:
            medians.append(statistics.median(inside))
    spread = {
        name: (*_quartiles(values), len(values))
        for name, values in (
            ("setup_s", setups), ("bundles_per_s", rates), ("publish_ms_p50", medians)
        )
    }

    # Per-layer: counts from the public stats, times from the spans.
    member_events = run.facts.get("member_events", 0)
    publish_ms.sort()
    per_layer: dict[str, float | None] = {
        name: delta[name] for name in delta if name in _PER_LAYER_NAMES
    }
    per_layer.update(
        {
            "crypto.hashes_setup": hashes_setup,
            "crypto.hashes_run": delta["crypto.hashes"],
            "crypto.hash_s": delta["crypto.hash_s"] * cal_factor,
            "crypto.hashes_per_member_event": (
                delta["crypto.hashes"] / member_events if member_events else 0
            ),
            "gossipsub.duplicates_ratio": (
                delta["gossipsub.duplicates"] / max(1, delta["gossipsub.rpcs"])
            ),
            "pipeline.mean_batch": (
                delta["pipeline.batch_jobs"] / max(1, delta["pipeline.batches"])
            ),
            "exec.sim_queue_wait_max_s": max(
                c.queue_delay_max
                for p in run.peers
                for c in p.crypto_executor.stats.classes.values()
            ),
            "net.events_per_s": delta["net.events"] / measured_norm,
            "core.publish_ms_p99": _percentile(publish_ms, 0.99),
            "member_events_per_s": member_events / measured_norm,
            "sim_delivery_p50_s": _percentile(latencies, 0.50),
            "sim_delivery_p99_s": _percentile(latencies, 0.99),
            "verifications_per_hostile": run.facts.get("verifications_per_hostile", 0),
            "spam_exclusion_sim_s": run.facts.get("spam_exclusion_sim_s", 0),
            "pipeline.hostile_verifications_hop2": run.facts.get(
                "hostile_verifications_hop2", 0
            ),
            "harness.wall_s": measured_raw,
            "harness.cpu_s": clock.cpu_s(),
            "harness.measured_s": measured_norm,
            "harness.cal_factor": cal_factor,
            "harness.cal_share": clock.cal_s / (clock.cal_s + measured_raw),
            "harness.warmup_s": warmup_s,
        }
    )
    if tracer is not None:
        per_layer.update(
            _span_metrics(tracer, spans_before, spans_after, measured_raw, cal_factor)
        )

    return {
        "workload": workload.name,
        "seed": seed,
        "traced": tracer is not None,
        "peers": sizes.peers,
        "rounds": rounds,
        "ops_attempted": run.attempted,
        "ops_failed": len(run.failures),
        "failures": run.failures[:20],
        "sim_fingerprint": fingerprint(dep, len(run.deliveries)),
        "wrappers_installed": len(wrappers),
        "missing_seams": tracer.missing if tracer else [],
        "end_to_end": end_to_end,
        "spread": spread,
        "per_layer": per_layer,
    }


def _span_metrics(
    tracer: trace.Tracer,
    before: dict[str, tuple[float, int]],
    after: dict[str, tuple[float, int]],
    measured_raw: float,
    cal_factor: float,
) -> dict[str, float | None]:
    """Self time per catalogue metric over the measured phase, normalised."""
    self_s = {k: v[0] - before.get(k, (0.0, 0))[0] for k, v in after.items()}
    calls = {k: v[1] - before.get(k, (0.0, 0))[1] for k, v in after.items()}
    missing_layers = tracer.missing_layers
    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        if not metric.kinds:
            continue
        if metric.layer in missing_layers:
            out[metric.name] = None
            continue
        out[metric.name] = cal_factor * sum(
            seconds
            for kind, seconds in self_s.items()
            if any(_kind_matches(kind, sel) for sel in metric.kinds)
        )
    # Tree operations as the membership layer issued them: the forest's
    # own calls when it is the backend (it drives a flat shard tree below).
    tree_gone = "crypto.merkle" in missing_layers
    for op in ("append", "delete", "proof"):
        out[f"merkle.{op}s"] = (
            None
            if tree_gone
            else calls.get(f"treesync.{op}") or calls.get(f"crypto.merkle.{op}", 0)
        )
    # On the clock and inside a repo layer's span; the rest of the measured
    # phase is the generator's own time.
    attributed = sum(
        seconds
        for kind, seconds in self_s.items()
        if kind != trace.GENERATOR and kind not in trace.OFF_THE_CLOCK
    )
    out["harness.unattributed_s"] = (measured_raw - attributed) * cal_factor
    out["harness.attributed_share"] = attributed / measured_raw
    return out
