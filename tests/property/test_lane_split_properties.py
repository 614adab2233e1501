"""Property tests: a relay window split across the idle crypto lanes.

Any mix of honest and forged bundles, arriving over a few instants, at
1-4 lanes and ``batch_size`` 1-8.  Whatever split the lanes force, every
verdict equals the bundle's own classical check, each failed batch
fingerprints exactly its forged members, no batch exceeds ``batch_size``,
the batches keep the arrival order, and the pairing work is the rule the
split must not bend: k + 3 per multi-job batch of k, plus 4 per single
classical check (a batch of one, or one step of a failed batch's sweep).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import testing
from repro.chain.blockchain import WEI, Blockchain
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import BatchVerifier, verdict_key
from repro.zksnark.groth16 import BATCH_FIXED_PAIRINGS, PAIRINGS_PER_VERIFY

EPOCH = testing.RLN_TEST_EPOCH
POOL = 20


@pytest.fixture(scope="module")
def bundles(native_prover):
    """Per slot, an honest bundle and a forged copy of it (all distinct)."""
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=native_prover.depth)
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 10 * WEI)
    manager = GroupManager(
        chain, contract, tree_depth=config.tree_depth, root_window=config.root_window
    )
    member = testing.register_member(chain, contract, 0x5917)
    honest = [
        testing.mint_bundle(member, b"split-%d" % i, EPOCH + i, manager, native_prover)
        .rate_limit_proof
        for i in range(POOL)
    ]
    return honest, [bundle.forged_copy() for bundle in honest]


@given(
    arrivals=st.lists(
        st.tuples(st.booleans(), st.sampled_from([0.0, 0.0, 0.01, 0.04])),
        min_size=1,
        max_size=POOL,
    ),
    workers=st.integers(1, 4),
    batch_size=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_a_split_window_keeps_every_verdict_and_the_pairing_rule(
    bundles, native_prover, arrivals, workers, batch_size
):
    honest, forged = bundles
    simulator = Simulator()
    counter = native_prover.pairing_counter
    executor = SimulatedCryptoExecutor(simulator, workers, counter=counter)
    verifier = BatchVerifier(native_prover, simulator, batch_size=batch_size, executor=executor)
    batches: list[list[int]] = []  # each batch's slots, as the lanes took them
    verify = verifier._verify
    slot_of, is_forged, verdicts = {}, [], []

    def recording_verify(jobs):
        results = verify(jobs)
        slots = [slot_of[job.key] for job in jobs]
        batches.append(slots)
        if len(jobs) > 1 and not all(results):
            bad = [index for index, slot in enumerate(slots) if is_forged[slot]]
            assert verifier.stats.forged_indices == bad
        return results

    verifier._verify = recording_verify
    counter.reset()
    for slot, (bad, gap) in enumerate(arrivals):
        simulator.run(until=simulator.now + gap)
        bundle = (forged if bad else honest)[slot]
        verdict, fresh = verifier.check(bundle, priority=Priority.RELAY)
        assert fresh
        slot_of[verdict_key(bundle)] = slot
        is_forged.append(bad)
        verdicts.append(verdict)
    simulator.run_until_idle()

    assert [slot for batch in batches for slot in batch] == list(range(len(arrivals)))
    assert all(1 <= len(batch) <= batch_size for batch in batches)
    multi = [batch for batch in batches if len(batch) > 1]
    swept = [batch for batch in multi if any(is_forged[slot] for slot in batch)]
    singles = len(batches) - len(multi) + sum(len(batch) for batch in swept)
    assert counter.evaluations == (
        sum(len(batch) + BATCH_FIXED_PAIRINGS for batch in multi)
        + PAIRINGS_PER_VERIFY * singles
    )
    assert not verifier._pending and not verifier._in_flight
    for slot, verdict in enumerate(verdicts):
        bundle = (forged if is_forged[slot] else honest)[slot]
        assert verdict.resolved
        assert verdict.value is native_prover.verify(bundle.public_inputs(), bundle.proof)

