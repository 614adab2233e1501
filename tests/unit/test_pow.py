"""Unit tests for the PoW (Whisper) baseline."""

import random

import pytest

from repro.baselines.pow import PoWRelayPeer, PoWStamp, expected_mint_seconds, sample_attempts
from repro.errors import ProtocolError
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.testing import inbox


class TestCostModel:
    def test_expected_time_doubles_per_bit(self):
        assert expected_mint_seconds(11, 1e5) == 2 * expected_mint_seconds(10, 1e5)

    def test_weak_device_pays_more(self):
        # §I: PoW "imposes a high computational cost ... devices with
        # limited resources won't be able to participate".
        phone = expected_mint_seconds(20, 1e5)
        server = expected_mint_seconds(20, 1e8)
        assert phone == 1000 * server
        assert phone > 10.0  # tens of seconds per message on a phone

    def test_sample_attempts_mean_close_to_2_pow_d(self):
        rng = random.Random(42)
        samples = [sample_attempts(8, rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 0.8 * 256 < mean < 1.25 * 256

    def test_invalid_hash_rate(self):
        with pytest.raises(ProtocolError):
            expected_mint_seconds(10, 0)


class TestPoWPeer:
    def build(self, difficulty=12, hash_rates=None):
        sim = Simulator()
        graph = full_mesh(4)
        network = Network(simulator=sim, graph=graph, latency=ConstantLatency(0.01))
        rates = hash_rates or {}
        peers = {
            p: PoWRelayPeer(
                p,
                network,
                sim,
                difficulty=difficulty,
                hash_rate=rates.get(p, 1e5),
                rng=random.Random(i),
            )
            for i, p in enumerate(sorted(graph.nodes))
        }
        for peer in peers.values():
            peer.start()
        sim.run(3.0)
        return sim, peers

    def test_publish_after_minting_delay(self):
        sim, peers = self.build()
        inboxes = [inbox(p) for p in peers.values()]
        delay = peers["peer-000"].publish(b"stamped")
        assert delay > 0
        sim.run(sim.now + delay + 5)
        assert all(any(m.payload == b"stamped" for m in got) for got in inboxes)

    def test_underpowered_stamp_rejected(self):
        sim, peers = self.build(difficulty=12)
        # A spammer claims a lower difficulty than the network requires.
        from repro.waku.message import WakuMessage

        cheap = WakuMessage(
            payload=b"cheap",
            content_topic="t",
            rate_limit_proof=PoWStamp(nonce=1, difficulty=4),
        )
        others = [p for name, p in peers.items() if name != "peer-000"]
        inboxes = [inbox(p) for p in others]
        peers["peer-000"].relay.publish(cheap)
        sim.run(sim.now + 3)
        assert all(not any(m.payload == b"cheap" for m in got) for got in inboxes)
        assert sum(p.stats.dropped_invalid for p in others) >= 1

    def test_mint_accounting(self):
        sim, peers = self.build()
        peer = peers["peer-001"]
        peer.publish(b"a")
        peer.publish(b"b")
        assert peer.stats.hash_attempts_total >= 2
        assert peer.stats.mint_seconds_total > 0

    def test_server_mints_much_faster_than_phone(self):
        sim, peers = self.build(
            difficulty=16, hash_rates={"peer-000": 1e8, "peer-001": 1e4}
        )
        fast = [peers["peer-000"].publish(b"f%d" % i) for i in range(10)]
        slow = [peers["peer-001"].publish(b"s%d" % i) for i in range(10)]
        assert sum(slow) > 100 * sum(fast)
