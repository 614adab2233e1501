"""E16 — unified telemetry: per-stage waterfalls, zero-cost when disabled.

PR 6's observability claim, measured in two arms:

* **stage waterfall under honest+flood load** — a relay peer validates a
  mixed arrival stream (honest bundles interleaved with forged proofs,
  the E10/E13 flood shape) at three depth-scaled group sizes (depth 14 /
  17 / 20 ≈ 10k / 100k / 1M member capacity — proof and tree costs are
  depth-governed, the E1 observation, so depth *is* the scale knob).
  Every bundle carries a :class:`~repro.telemetry.disttrace.DistTracer`
  span from relay ingress to verdict resolve; the per-stage simulated-time
  histograms print exact p50/p99 from retained samples — the real
  queueing/service decomposition, not modeled guesses;
* **disabled-telemetry overhead** — the same run with ``telemetry=None``
  must be *bit-identical* to the seed path in every modeled figure
  (verdict sequence, inline crypto seconds, occupancy, simulated end
  time).  The simulation is deterministic, so "within noise" is provable
  as exact equality; wall-clock times for both arms are reported
  alongside.
"""

import time
from dataclasses import replace

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.validator import BundleValidator
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline
from repro.telemetry import Telemetry, tracing
from repro.testing import RLN_TEST_EPOCH, mint_bundle, register_member
from repro.zksnark.groth16 import Proof
from repro.zksnark.prover import NativeProver

#: members -> tree depth: capacity 2^14 / 2^17 / 2^20.  Structure and
#: proof cost scale with depth, never with occupancy (E1), so a handful
#: of registered members at depth 20 *is* the 1M-member configuration.
SCALES = {10_000: 14, 100_000: 17, 1_000_000: 20}
EPOCH = RLN_TEST_EPOCH
ARRIVALS = 96
FORGE_EVERY = 3  # every 3rd proof zeroed: the flood half of the load
ARRIVAL_INTERVAL = 0.002
BATCH = 8
WORKERS = 4

WATERFALL_STAGES = (
    tracing.PREFILTER,
    tracing.RATELIMIT,
    tracing.CHEAP_CHECKS,
    tracing.VERDICT_CACHE,
    tracing.BATCH_ENQUEUE,
    tracing.BATCH_FLUSH,
    tracing.LANE_DISPATCH,
    tracing.PAIRING,
    tracing.RESOLVE,
)


class Env:
    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.prover = NativeProver(depth)
        self.chain = Blockchain()
        self.contract = RLNMembershipContract(deposit=1 * WEI)
        self.chain.deploy(self.contract)
        self.chain.fund("funder", 100 * WEI)
        self.manager = GroupManager(
            self.chain, self.contract, tree_depth=depth, root_window=5
        )
        self.identity = register_member(self.chain, self.contract, 0xE16)
        self.config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=depth)
        # Honest+flood mix: message i at epoch EPOCH+i (distinct
        # nullifiers), every FORGE_EVERY-th proof forged.
        self.load = []
        for i in range(ARRIVALS):
            message = mint_bundle(
                self.identity, b"e16-%d" % i, EPOCH + i, self.manager, self.prover
            )
            if i % FORGE_EVERY == 0:
                message = message.with_proof(
                    replace(
                        message.rate_limit_proof,
                        proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
                    )
                )
            self.load.append((i, message))


@pytest.fixture(scope="module")
def envs() -> dict:
    return {members: Env(depth) for members, depth in SCALES.items()}


class ArmResult:
    """Every modeled figure of one run — the bit-identity surface."""

    def __init__(self) -> None:
        self.actions: list = []
        self.verdict_latency: list[float] = []
        self.inline_seconds = 0.0
        self.occupancy = 0.0
        self.end_time = 0.0

    def modeled(self) -> tuple:
        return (
            tuple(self.actions),
            tuple(self.verdict_latency),
            self.inline_seconds,
            self.occupancy,
            self.end_time,
        )


def run_arm(env: Env, telemetry=None) -> ArmResult:
    simulator = Simulator()
    validator = BundleValidator(env.config, env.prover, env.manager)
    pipeline = ValidationPipeline(
        validator,
        env.prover,
        simulator,
        PipelineConfig(workers=WORKERS, batch_size=BATCH),
        telemetry=telemetry,
        peer_id="e16-relay",
    )
    result = ArmResult()
    slots: dict[int, object] = {}

    def arrive(index: int, message) -> None:
        submitted = simulator.now
        verdict = pipeline.validate(
            "sender", message, EPOCH + index, b"e16-%d" % index
        )
        if isinstance(verdict, Promise):

            def record(v, index=index, submitted=submitted):
                slots[index] = v.action
                result.verdict_latency.append(simulator.now - submitted)

            verdict.subscribe(record)
        else:
            slots[index] = verdict.action
            result.verdict_latency.append(simulator.now - submitted)

    for index, message in env.load:
        simulator.schedule(
            index * ARRIVAL_INTERVAL, lambda i=index, m=message: arrive(i, m)
        )
    simulator.run_until_idle()
    assert len(slots) == ARRIVALS
    result.actions = [slots[i] for i in range(ARRIVALS)]
    result.inline_seconds = pipeline.executor.stats.inline_seconds
    result.occupancy = pipeline.executor.stats.occupancy(simulator.now)
    result.end_time = simulator.now
    pipeline.close()  # flushes final gauges into the registry
    return result


def test_stage_waterfall_across_scales(envs, report_sink, snapshot_sink, benchmark):
    for members, env in envs.items():
        telemetry = Telemetry()
        run_arm(env, telemetry)
        registry = telemetry.registry

        report = ExperimentReport(
            experiment=f"E16-{members}",
            claim="per-bundle stage tracing: the validate path decomposed on "
            "the simulated clock, exact percentiles from retained samples",
            headers=("stage", "bundles", "p50", "p90", "p99", "max"),
        )
        for stage in WATERFALL_STAGES:
            histogram = registry.histogram(
                "trace_stage_seconds", kind="bundle", stage=stage
            )
            if histogram.count == 0:
                continue
            report.add_row(
                stage,
                histogram.count,
                format_seconds(histogram.p50),
                format_seconds(histogram.p90),
                format_seconds(histogram.p99),
                format_seconds(histogram.maximum),
            )
        total = registry.histogram("trace_total_seconds", kind="bundle")
        report.add_row(
            "ingress -> final",
            total.count,
            format_seconds(total.p50),
            format_seconds(total.p90),
            format_seconds(total.p99),
            format_seconds(total.maximum),
        )
        wait = registry.histogram(
            "executor_queue_wait_seconds", peer="e16-relay", priority="relay"
        )
        # A relay window waits for a free lane before it is queued, so the
        # wait shows in the batch-flush stage, not in the lane queue.
        window = registry.histogram(
            "trace_stage_seconds", kind="bundle", stage=tracing.BATCH_FLUSH
        )
        report.add_note(
            f"depth {env.depth} (capacity {members}); {ARRIVALS} arrivals, "
            f"every {FORGE_EVERY}rd proof forged; {WORKERS} lanes, batch "
            f"{BATCH}; relay wait for a lane p99 {format_seconds(window.p99)} "
            f"in the window, {format_seconds(wait.p99)} in the lane queue"
        )
        report_sink(report)
        snapshot_sink(f"E16-{members}", telemetry.snapshot())

        # Every bundle's trace finished, and the expensive stages really
        # ran: pairing spans for flushed batches, a resolve per proof-path
        # bundle, waterfall totals spanning the whole trace.
        assert registry.counter("traces_finished_total", kind="bundle").value == ARRIVALS
        pairing = registry.histogram(
            "trace_stage_seconds", kind="bundle", stage=tracing.PAIRING
        )
        assert pairing.count > 0 and pairing.p99 > 0.0
        resolve = registry.histogram(
            "trace_stage_seconds", kind="bundle", stage=tracing.RESOLVE
        )
        admitted = registry.counter("pipeline_admitted_total", peer="e16-relay").value
        assert 0 < admitted <= resolve.count <= ARRIVALS
        # The close() flush pinned the final lane gauges into the registry.
        assert registry.gauge("executor_queue_depth", peer="e16-relay").value == 0.0
        assert registry.gauge("executor_busy_lanes", peer="e16-relay").value == 0.0

    benchmark.pedantic(
        lambda: run_arm(envs[10_000], Telemetry()), rounds=3, iterations=1
    )


def test_disabled_telemetry_is_bit_identical(envs, report_sink, benchmark):
    env = envs[10_000]

    started = time.perf_counter()
    seed = run_arm(env, telemetry=None)  # the seed path: no telemetry kwarg wired
    seed_wall = time.perf_counter() - started

    started = time.perf_counter()
    traced = run_arm(env, telemetry=Telemetry())
    traced_wall = time.perf_counter() - started

    # Determinism makes "within noise" provable: every modeled figure —
    # verdict sequence, latencies, inline crypto seconds, occupancy,
    # simulated end time — is exactly equal with telemetry off or on.
    assert seed.modeled() == traced.modeled()

    report = ExperimentReport(
        experiment="E16-overhead",
        claim="telemetry never moves a modeled figure; disabled runs ride "
        "one shared no-op object",
        headers=("arm", "modeled figures", "wall time"),
    )
    report.add_row("telemetry=None (seed)", "baseline", format_seconds(seed_wall))
    report.add_row("telemetry=Telemetry()", "bit-identical", format_seconds(traced_wall))
    report.add_note(
        "disabled instrumentation is an attribute load plus an empty "
        "method call per site (the one DISABLED object); "
        "enabled tracing stamps the simulated clock, so modeled time is "
        "untouched either way"
    )
    report_sink(report)

    timed = benchmark.pedantic(lambda: run_arm(env, None), rounds=3, iterations=1)
    assert timed.modeled() == seed.modeled()
