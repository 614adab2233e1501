"""E11 — per-proof vs batched proof verification throughput (extends E10).

The §III-F decision verifies every surviving proof; the staged pipeline
batches those checks into one random-linear-combination multi-pairing
(N + 3 pairing evaluations instead of 4N).  Measured here, in the same
cost model as E2 (pairing evaluations, the unit the paper's ~30 ms
constant-time verification is made of):

* honest traffic — the batched verifier's pairing saving and wall-clock
  throughput across batch sizes;
* an invalid-proof flood (the E10 attack) — the fallback cost when a batch
  contains forged members, versus the naive per-proof baseline, versus the
  staged pipeline whose prefilter absorbs the flood before any pairing;
* the verdict cache — re-broadcast bundles served with zero pairing work,
  visible in the split ``proofs_verified`` / ``proofs_cached`` counters.
"""

import time

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.validator import BundleValidator
from repro.exec.executor import Priority
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import BatchVerifier
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline
from repro.testing import RLN_TEST_EPOCH, mint_bundle, register_member
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import BATCH_FIXED_PAIRINGS, PAIRINGS_PER_VERIFY
from repro.zksnark.prover import NativeProver

DEPTH = 8
EPOCH = RLN_TEST_EPOCH
HONEST = 64
FLOOD = 64
BATCH_SIZES = (8, 16, 32, 64)


class Env:
    """A registered member able to mint honest and forged bundles."""

    def __init__(self) -> None:
        self.prover = NativeProver(DEPTH)
        self.chain = Blockchain()
        self.contract = RLNMembershipContract(deposit=1 * WEI)
        self.chain.deploy(self.contract)
        self.chain.fund("funder", 100 * WEI)
        self.manager = GroupManager(
            self.chain, self.contract, tree_depth=DEPTH, root_window=5
        )
        self.identity = register_member(self.chain, self.contract, 0xE11)
        self.config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)

    def message(self, payload: bytes, epoch: int = EPOCH) -> WakuMessage:
        return mint_bundle(self.identity, payload, epoch, self.manager, self.prover)

    def jobs(self, count: int, *, forge_every: int | None = None):
        jobs = []
        for i in range(count):
            bundle = self.message(b"job-%d" % i).rate_limit_proof
            if forge_every is not None and i % forge_every == 0:
                bundle = bundle.forged_copy()
            jobs.append(bundle)
        return jobs

    def pipeline(self, config: PipelineConfig) -> ValidationPipeline:
        validator = BundleValidator(self.config, self.prover, self.manager)
        return ValidationPipeline(validator, self.prover, Simulator(), config)


@pytest.fixture(scope="module")
def env() -> Env:
    return Env()


def run_jobs(env: Env, jobs, batch_size: int) -> tuple[int, float]:
    """(pairing evaluations, wall seconds) to clear ``jobs`` at ``batch_size``."""
    counter = env.prover.pairing_counter
    counter.reset()
    verifier = BatchVerifier(env.prover, Simulator(), batch_size=batch_size)
    start = time.perf_counter()
    for bundle in jobs:
        verifier.check(bundle, priority=Priority.RELAY)
    verifier.flush()
    return counter.evaluations, time.perf_counter() - start


def test_batched_verification_throughput(env, report_sink, benchmark):
    report = ExperimentReport(
        experiment="E11",
        claim="batched RLC verification: N+3 pairings per batch of N vs 4N per-proof",
        headers=("arm", "pairing evaluations", "proofs/sec"),
    )
    honest = env.jobs(HONEST)

    baseline_evals, baseline_seconds = run_jobs(env, honest, batch_size=1)
    assert baseline_evals == HONEST * PAIRINGS_PER_VERIFY
    report.add_row(
        f"per-proof x{HONEST} (honest)",
        baseline_evals,
        round(HONEST / baseline_seconds),
    )

    for batch_size in BATCH_SIZES:
        evals, seconds = run_jobs(env, honest, batch_size=batch_size)
        expected = (HONEST // batch_size) * (batch_size + BATCH_FIXED_PAIRINGS)
        assert evals == expected
        assert evals < baseline_evals
        report.add_row(
            f"batch={batch_size} x{HONEST} (honest)", evals, round(HONEST / seconds)
        )

    # The E10 attack arm: every 4th proof forged, so every batch of >= 4
    # fails its combined check and falls back to per-proof isolation.
    flood = env.jobs(FLOOD, forge_every=4)
    flood_base_evals, flood_base_seconds = run_jobs(env, flood, batch_size=1)
    report.add_row(
        f"per-proof x{FLOOD} (25% forged)",
        flood_base_evals,
        round(FLOOD / flood_base_seconds),
    )
    flood_evals, flood_seconds = run_jobs(env, flood, batch_size=16)
    report.add_row(
        f"batch=16 x{FLOOD} (25% forged, fallback)",
        flood_evals,
        round(FLOOD / flood_seconds),
    )
    report.add_note(
        "forged members force the per-proof fallback, so dense floods cost "
        "more than the baseline — which is why the prefilter and token "
        "buckets sit in front of the verifier (see the pipeline arm)"
    )

    timed = benchmark.pedantic(
        lambda: run_jobs(env, honest, batch_size=32), rounds=3, iterations=1
    )
    assert timed[0] < baseline_evals
    report_sink(report)


def test_pipeline_absorbs_flood_and_caches_verdicts(env, report_sink, benchmark):
    report = ExperimentReport(
        experiment="E11-pipeline",
        claim="staged pipeline: floods die before pairings; re-broadcasts hit the cache",
        headers=("stage", "messages", "pairing evaluations"),
    )
    counter = env.prover.pairing_counter

    # Stale-epoch flood: absorbed by the prefilter, zero pairing work.
    pipeline = env.pipeline(PipelineConfig())
    stale = [env.message(b"stale-%d" % i, epoch=EPOCH - 50) for i in range(FLOOD)]
    counter.reset()
    for i, message in enumerate(stale):
        pipeline.validate("attacker", message, EPOCH, b"stale-%d" % i)
    assert counter.evaluations == 0
    report.add_row("prefilter (stale-epoch flood)", FLOOD, counter.evaluations)

    # Honest traffic plus an exact re-broadcast of every bundle under a
    # fresh message id: the second pass is served from the verdict cache.
    pipeline = env.pipeline(PipelineConfig())
    honest = [env.message(b"fresh-%d" % i, epoch=EPOCH + i) for i in range(32)]
    counter.reset()
    for i, message in enumerate(honest):
        pipeline.validate("peer", message, EPOCH + i, b"first-%d" % i)
    first_pass = counter.evaluations
    for i, message in enumerate(honest):
        pipeline.validate("peer", message, EPOCH + i, b"again-%d" % i)
    report.add_row("verify (first broadcast)", 32, first_pass)
    report.add_row("verdict cache (re-broadcast)", 32, counter.evaluations - first_pass)
    stats = pipeline.validator.stats
    assert stats.proofs_verified == 32
    assert stats.proofs_cached == 32
    assert counter.evaluations == first_pass
    report.add_note(
        f"validator counters split the work: proofs_verified={stats.proofs_verified}, "
        f"proofs_cached={stats.proofs_cached}"
    )
    report_sink(report)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
