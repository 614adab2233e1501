"""Integration: a small network running the *full* Groth16 pipeline.

Everything else uses the fast native backend; this test proves the real
R1CS prover drops into the protocol unchanged (same trusted setup shared
across peers, proofs verified on route, spam still detected).
"""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.zksnark import prover as provers

DEPTH = 4  # small circuit: proving is ~100 ms per message


@pytest.fixture(scope="module")
def deployment():
    provers._SHARED.clear()
    config = RLNConfig(
        epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH, prover_backend="groth16"
    )
    dep = RLNDeployment.create(peer_count=4, degree=2, seed=71, config=config)
    dep.register_all()
    dep.form_meshes(4.0)
    return dep


class TestGroth16Network:
    def test_publish_and_deliver_with_real_circuit(self, deployment):
        dep = deployment
        dep.peer("peer-000").publish(b"zk message")
        dep.run(3.0)
        assert dep.delivery_count(b"zk message") == 4
        # Proofs really were verified on route.
        verified = sum(p.validator.stats.proofs_verified for p in dep.peers.values())
        assert verified >= 3

    def test_spam_detected_with_real_circuit(self, deployment):
        dep = deployment
        spammer = dep.peer("peer-003")
        spammer.publish(b"g16-a", force=True)
        dep.run(2.0)
        spammer.publish(b"g16-b", force=True)
        dep.run(2.0)
        assert dep.total_spam_detected() >= 1
        assert dep.delivery_count(b"g16-b") == 1
