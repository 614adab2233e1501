"""E13 — async crypto executor: relay-callback vs verdict-completion latency.

The seed path runs Groth16 pairing work *inside* the relay callback, so an
invalid-proof flood (the E10 attack, which defeats RLC batching and forces
per-proof fallback sweeps) stalls the event loop exactly when batching is
most valuable.  The executor subsystem moves every flush onto prioritized
worker lanes: the relay callback pays only a submit, and the verdict lands
at simulated completion time.

Measured here, in the centralized cost model's units
(:class:`repro.exec.costs.CryptoCostModel`, anchored to the paper's ~30 ms
per verify):

* **relay-callback latency** — modeled crypto seconds the event loop is
  charged in an arrival's instant: the validate call and the end of the
  instant, where a batch window goes to the executor.  Zero lanes pay the
  pairing work inline (a whole classical check per lone arrival); worker
  lanes pay the submit overhead.  The acceptance bar is a >= 10x drop —
  measured to be orders of magnitude.
* **verdict-completion latency** — submission to verdict, including lane
  queueing; reported with CPU occupancy across 1/2/4/8 workers.
* **verdict totals** — accepted/rejected counts must not move at all:
  concurrency relocates latency, never verdicts.
"""

from dataclasses import replace

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds, summarize
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.validator import BundleValidator
from repro.exec.costs import DEFAULT_COST_MODEL
from repro.gossipsub.router import ValidationResult
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline
from repro.telemetry import Telemetry
from repro.testing import RLN_TEST_EPOCH, mint_bundle, register_member
from repro.zksnark.groth16 import PAIRINGS_PER_VERIFY, Proof
from repro.zksnark.prover import NativeProver

DEPTH = 8
EPOCH = RLN_TEST_EPOCH
#: Flood shape: bursty arrivals every 2 ms, every 3rd proof forged — dense
#: enough that every batch fails its RLC check and falls back per-proof.
ARRIVALS = 48
FORGE_EVERY = 3
ARRIVAL_INTERVAL = 0.002
BATCH = 8
WORKER_COUNTS = (1, 2, 4, 8)


class Env:
    def __init__(self) -> None:
        self.prover = NativeProver(DEPTH)
        self.chain = Blockchain()
        self.contract = RLNMembershipContract(deposit=1 * WEI)
        self.chain.deploy(self.contract)
        self.chain.fund("funder", 100 * WEI)
        self.manager = GroupManager(
            self.chain, self.contract, tree_depth=DEPTH, root_window=5
        )
        self.identity = register_member(self.chain, self.contract, 0xE13)
        self.config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
        # One fixed flood reused by every arm: message i at epoch EPOCH+i
        # (distinct nullifiers — the flood attacks proofs, not the rate
        # limit), every FORGE_EVERY-th proof zeroed out.
        self.flood = []
        for i in range(ARRIVALS):
            message = mint_bundle(
                self.identity, b"flood-%d" % i, EPOCH + i, self.manager, self.prover
            )
            if i % FORGE_EVERY == 0:
                message = message.with_proof(
                    replace(
                        message.rate_limit_proof,
                        proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
                    )
                )
            self.flood.append((i, message))

    def pipeline(self, simulator: Simulator, config: PipelineConfig, telemetry=None):
        validator = BundleValidator(self.config, self.prover, self.manager)
        return ValidationPipeline(
            validator,
            self.prover,
            simulator,
            config,
            telemetry=telemetry,
            peer_id="e13-relay",
        )


@pytest.fixture(scope="module")
def env() -> Env:
    return Env()


class ArmResult:
    def __init__(self) -> None:
        self.callback_inline: list[float] = []
        self.verdict_latency: list[float] = []
        self.actions: list[ValidationResult] = []
        self.occupancy = 0.0
        self.queue_delay_max = 0.0

    # Summaries route through the shared analysis helper — one percentile
    # definition for every benchmark (repro.analysis.reporting.summarize).
    @property
    def max_callback(self) -> float:
        return summarize(self.callback_inline).maximum

    @property
    def mean_callback(self) -> float:
        return summarize(self.callback_inline).mean

    @property
    def max_verdict_latency(self) -> float:
        return summarize(self.verdict_latency).maximum

    def totals(self) -> tuple[int, int]:
        accepted = sum(1 for a in self.actions if a is ValidationResult.ACCEPT)
        rejected = sum(1 for a in self.actions if a is ValidationResult.REJECT)
        return accepted, rejected


def run_arm(env: Env, workers: int, telemetry=None) -> ArmResult:
    """Drive the fixed flood through a fresh pipeline at ``workers`` lanes."""
    simulator = Simulator()
    pipeline = env.pipeline(
        simulator,
        PipelineConfig(workers=workers, batch_size=BATCH),
        telemetry,
    )
    result = ArmResult()
    slots: dict[int, ValidationResult] = {}

    def arrive(index: int, message) -> None:
        submitted = simulator.now
        inline_before = pipeline.executor.stats.inline_seconds
        verdict = pipeline.validate(
            "flooder", message, EPOCH + index, b"e13-%d" % index
        )
        # Queued after the window's own end-of-instant event: read once the
        # instant's batch, if any, went to the executor.
        simulator.schedule(
            0.0,
            lambda: result.callback_inline.append(
                pipeline.executor.stats.inline_seconds - inline_before
            ),
        )
        if isinstance(verdict, Promise):

            def record(v, index=index, submitted=submitted):
                slots[index] = v.action
                result.verdict_latency.append(simulator.now - submitted)

            verdict.subscribe(record)
        else:
            slots[index] = verdict.action
            result.verdict_latency.append(simulator.now - submitted)

    for index, message in env.flood:
        simulator.schedule(index * ARRIVAL_INTERVAL, lambda i=index, m=message: arrive(i, m))
    simulator.run_until_idle()
    assert len(slots) == ARRIVALS  # every verdict landed
    result.actions = [slots[i] for i in range(ARRIVALS)]
    result.occupancy = pipeline.executor.stats.occupancy(simulator.now)
    result.queue_delay_max = max(
        cls.queue_delay_max for cls in pipeline.executor.stats.classes.values()
    )
    return result


def test_worker_lanes_unstall_the_relay_callback(env, report_sink, snapshot_sink, benchmark):
    report = ExperimentReport(
        experiment="E13",
        claim="worker lanes: relay callbacks stop paying for pairing work "
        "(>= 10x under an invalid-proof flood), verdict totals unchanged",
        headers=(
            "arm",
            "max cb latency",
            "mean cb latency",
            "max verdict latency",
            "occupancy",
            "accepted/rejected",
        ),
    )

    def add_row(label: str, arm: ArmResult) -> None:
        accepted, rejected = arm.totals()
        report.add_row(
            label,
            format_seconds(arm.max_callback),
            format_seconds(arm.mean_callback),
            format_seconds(arm.max_verdict_latency),
            f"{arm.occupancy:.0%}",
            f"{accepted}/{rejected}",
        )

    sync = run_arm(env, workers=0)
    add_row("sync (workers=0, seed path)", sync)
    # The synchronous arm really does crypto on the event loop: each
    # arrival, alone in its instant, pays a classical check inline.
    assert sync.max_callback >= DEFAULT_COST_MODEL.seconds_for_pairings(PAIRINGS_PER_VERIFY)

    arms = {}
    for workers in WORKER_COUNTS:
        arm = arms[workers] = run_arm(env, workers)
        add_row(f"async workers={workers}", arm)
        # Verdict totals never move — concurrency relocates latency only.
        assert arm.totals() == sync.totals()
        # The acceptance bar: relay-callback latency drops >= 10x.
        assert sync.max_callback >= 10 * arm.max_callback
        assert sync.mean_callback >= 10 * arm.mean_callback

    # More lanes drain the flood's queueing delay monotonically-ish; at
    # least the extremes must order correctly.
    assert arms[8].queue_delay_max <= arms[1].queue_delay_max

    # Instrumented re-run of the 4-lane arm: telemetry must not move a
    # single modeled figure, and its snapshot ships as a CI artifact.
    telemetry = Telemetry()
    traced = run_arm(env, 4, telemetry)
    assert traced.totals() == arms[4].totals()
    assert traced.callback_inline == arms[4].callback_inline
    assert traced.verdict_latency == arms[4].verdict_latency
    snapshot_sink("E13", telemetry.snapshot())
    report.add_note(
        "callback latency is modeled inline crypto time from the shared "
        f"cost model ({format_seconds(DEFAULT_COST_MODEL.seconds_per_pairing)}"
        "/pairing); async callbacks pay only the submit overhead "
        f"({format_seconds(DEFAULT_COST_MODEL.submit_overhead_seconds)})"
    )
    report.add_note(
        "verdict-completion latency includes lane queueing: the price of "
        "an unstalled event loop, amortized away by more workers"
    )
    timed = benchmark.pedantic(lambda: run_arm(env, 4), rounds=3, iterations=1)
    assert timed.totals() == sync.totals()
    report_sink(report)

