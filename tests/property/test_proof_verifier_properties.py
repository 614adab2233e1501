"""Property tests: a peer's one proof verifier under random check streams.

Relay-class and service-class checks of honest, forged and repeated
bundles, interleaved with simulator advances and ``close()`` /
``reopen()``, at every ``batch_size`` x ``workers`` shape the pipeline
builds.  After quiescence every verdict equals the prover's own, nothing
is left pending, every check is accounted exactly once (a cache hit, a
join, or a verification), and no bundle is paid for twice: only its first
check does pairing work.  Every check carries a recording span, and its
marks trail the path it took: a cache hit or a join is one
``verdict-cache`` mark; a fresh check is enqueued, flushed (relay class
only), dispatched and paired — all of it before ``check`` returns when
the verdict lands now.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import testing
from repro.chain.blockchain import WEI, Blockchain
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.validator import BundleValidator
from repro.exec.executor import Priority
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.pipeline import PipelineConfig, ValidationPipeline
from repro.telemetry.tracing import (
    BATCH_ENQUEUE, BATCH_FLUSH, LANE_DISPATCH, PAIRING, VERDICT_CACHE,
)

EPOCH = testing.RLN_TEST_EPOCH
POOL = 9

#: A fresh check's whole trail, by class.
FRESH_TRAIL = {
    "relay": [BATCH_ENQUEUE, BATCH_FLUSH, LANE_DISPATCH, PAIRING],
    "service": [BATCH_ENQUEUE, LANE_DISPATCH, PAIRING],
}


class Trail(list):
    """A span that records the marks it is given, in order."""

    def mark(self, name: str) -> None:
        self.append(name)


@pytest.fixture(scope="module")
def world(native_prover):
    """A validator factory and a pool of honest, forged and rebuilt bundles."""
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=native_prover.depth)
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 10 * WEI)
    manager = GroupManager(
        chain, contract, tree_depth=config.tree_depth, root_window=config.root_window
    )
    member = testing.register_member(chain, contract, 0x9E41F)
    honest = [
        testing.mint_bundle(member, b"pv-%d" % i, EPOCH + i, manager, native_prover)
        .rate_limit_proof
        for i in range(4)
    ]
    pool = honest + [
        honest[0].forged_copy(),  # garbage proof
        honest[1].forged_copy(),
        honest[3].forged_copy(proof=honest[2].proof),  # real proof, wrong statement
        dataclasses.replace(honest[0]),  # an equal bundle that remembers nothing
        dataclasses.replace(honest[1].forged_copy()),
    ]
    assert len(pool) == POOL
    expected = [native_prover.verify(b.public_inputs(), b.proof) for b in pool]
    assert expected.count(True) == 5 and expected.count(False) == 4

    def make_validator() -> BundleValidator:
        return BundleValidator(config, native_prover, manager)

    return make_validator, pool, expected


def statement(bundle) -> tuple[bytes, bytes]:
    """What a verdict is about, derived here rather than by the verifier."""
    return bundle.public_inputs().serialize(), bundle.proof.serialize()


operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["relay", "service"]), st.integers(0, POOL - 1)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.03, 0.06, 0.5])),
        st.tuples(st.sampled_from(["close", "reopen"]), st.just(0)),
    ),
    min_size=1,
    max_size=24,
)


@given(
    batch_size=st.sampled_from([1, 3, 8]),
    workers=st.sampled_from([0, 1, 2]),
    ops=operations,
)
@settings(max_examples=60, deadline=None)
def test_every_check_lands_once_with_the_provers_verdict(
    world, native_prover, batch_size, workers, ops
):
    make_validator, pool, expected = world
    simulator = Simulator()
    pipeline = ValidationPipeline(
        make_validator(),
        native_prover,
        simulator,
        PipelineConfig(batch_size=batch_size, workers=workers),
    )
    checker = pipeline.batch_verifier
    answers = []  # (pool index, bool | Promise, fresh, class, trail)
    seen: set[tuple[bytes, bytes]] = set()
    for op, arg in ops:
        if op == "advance":
            simulator.run(until=simulator.now + arg)
        elif op == "close":
            pipeline.close()
        elif op == "reopen":
            pipeline.reopen()
        else:
            priority = Priority.RELAY if op == "relay" else Priority.SERVICE
            trail = Trail()
            verdict, fresh = checker.check(pool[arg], priority=priority, trace=trail)
            # Paid for on a bundle's first check only: every later one is a
            # cache hit or joins the check still in flight.
            key = statement(pool[arg])
            assert fresh is (key not in seen)
            seen.add(key)
            if not fresh:
                assert trail == [VERDICT_CACHE]
            elif not isinstance(verdict, Promise) or verdict.resolved:
                assert trail == FRESH_TRAIL[op]  # landed now: the whole trail
            answers.append((arg, verdict, fresh, op, trail))
    simulator.run_until_idle()

    for index, verdict, fresh, op, trail in answers:
        if isinstance(verdict, Promise):
            assert verdict.resolved
            verdict = verdict.value
        assert verdict is expected[index]
        assert trail == (FRESH_TRAIL[op] if fresh else [VERDICT_CACHE])
    assert not checker._in_flight
    assert checker.cache_hits + checker.joined_in_flight + checker.verified == len(answers)
    assert checker.verified == len(seen) == sum(answer[2] for answer in answers)
