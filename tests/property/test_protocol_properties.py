"""Property-based tests on protocol-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import compute_max_epoch_gap
from repro.core.epoch import epoch_gap, external_nullifier
from repro.core.nullifier_log import NullifierLog, NullifierOutcome
from repro.core.protocol import build_message
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash
from repro.crypto.shamir import Share, recover_secret
from repro.zksnark.prover import NativeProver
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness
from tests.conftest import epoch_at


field_values = st.integers(min_value=0, max_value=FIELD_MODULUS - 1).map(FieldElement)
nonzero_values = st.integers(min_value=1, max_value=FIELD_MODULUS - 1).map(FieldElement)


class TestEpochProperties:
    @given(
        st.floats(min_value=0, max_value=1e10, allow_nan=False),
        st.floats(min_value=0.001, max_value=3600, allow_nan=False),
    )
    def test_epoch_monotone_in_time(self, t, length):
        assert epoch_at(t, length) <= epoch_at(t + length, length)

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=0.001, max_value=3600, allow_nan=False),
    )
    def test_epoch_width_is_T(self, e, length):
        # Times inside [e*T, (e+1)*T) map to epoch e, up to one float ulp
        # at the boundary (e*T may round below the true product).
        start = e * length
        assert epoch_at(start, length) in (e - 1, e)
        assert epoch_at(start + length / 2, length) == e
        assert epoch_at(start + length * 0.999, length) in (e, e + 1)

    @given(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.01, max_value=600, allow_nan=False),
    )
    def test_thr_formula_covers_total_delay(self, delay, asynchrony, length):
        # A message delayed by exactly NetworkDelay + ClockAsynchrony can
        # shift by at most Thr epochs: Thr * T >= total delay.
        thr = compute_max_epoch_gap(delay, asynchrony, length)
        assert thr * length >= min(delay + asynchrony, thr * length)
        assert thr >= 1
        if delay + asynchrony > 0:
            assert thr * length >= delay + asynchrony - 1e-9

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    def test_gap_is_a_metric(self, a, b):
        assert epoch_gap(a, b) == epoch_gap(b, a) >= 0
        assert epoch_gap(a, a) == 0


class TestNullifierProperties:
    @given(nonzero_values, field_values, field_values, st.integers(min_value=0, max_value=1000))
    def test_one_message_per_epoch_invariant(self, sk, x1, x2, epoch):
        # For ANY two distinct messages in one epoch by one member, the log
        # yields SPAM with evidence that recovers exactly sk.
        if x1 == x2:
            return
        identity = Identity.from_secret(sk)
        ext = FieldElement(epoch)
        phi = identity.epoch_secrets(ext).internal_nullifier
        log = NullifierLog()
        log.observe(epoch, phi, identity.share_for(ext, x1), b"m1")
        outcome, evidence = log.observe(epoch, phi, identity.share_for(ext, x2), b"m2")
        assert outcome is NullifierOutcome.SPAM
        assert recover_secret(evidence.share_a, evidence.share_b) == identity.sk

    @given(nonzero_values, field_values, st.integers(min_value=0, max_value=1000))
    def test_duplicates_never_convict(self, sk, x, epoch):
        identity = Identity.from_secret(sk)
        ext = FieldElement(epoch)
        phi = identity.epoch_secrets(ext).internal_nullifier
        share = identity.share_for(ext, x)
        log = NullifierLog()
        log.observe(epoch, phi, share, b"m1")
        outcome, evidence = log.observe(epoch, phi, share, b"m2")
        assert outcome is NullifierOutcome.DUPLICATE and evidence is None

    @given(nonzero_values, nonzero_values, st.integers(min_value=0, max_value=1000))
    def test_distinct_members_never_collide(self, sk1, sk2, epoch):
        # Different members' nullifiers differ (Poseidon collision would be
        # required), so one member can never be framed by another's message.
        if sk1 == sk2:
            return
        ext = FieldElement(epoch)
        phi1 = Identity.from_secret(sk1).epoch_secrets(ext).internal_nullifier
        phi2 = Identity.from_secret(sk2).epoch_secrets(ext).internal_nullifier
        assert phi1 != phi2


PUBLISH_DEPTH = 4
PUBLISH_LIMIT = 4
#: (who, epoch, message id, payload): few members, few epochs and few ids,
#: so a sequence revisits an epoch (a forced double-signal), alternates
#: between epochs and ids, and interleaves members.
publish_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=PUBLISH_LIMIT - 1),
        st.binary(max_size=6),
    ),
    min_size=1,
    max_size=10,
)
secret_keys = st.lists(
    st.integers(min_value=1, max_value=FIELD_MODULUS - 1),
    min_size=1,
    max_size=3,
    unique=True,
)


class TestPublishEquivalence:
    """A long-lived identity remembers its last epoch secrets and the prover
    asks it for them; whatever the history, a bundle is what an identity
    built for that one message would have produced."""

    @staticmethod
    def group(sks):
        members = [Identity.from_secret(sk) for sk in sks]
        tree = MerkleTree(depth=PUBLISH_DEPTH)
        indices = [tree.insert(member.pk) for member in members]
        return members, tree.root, [tree.proof(index) for index in indices]

    @staticmethod
    def check_line(lines, key, share, sk):
        # Two distinct points of one (member, epoch, id) are a double-signal.
        for earlier in lines.setdefault(key, []):
            if earlier.x != share.x:
                assert recover_secret(earlier, share) == sk
        lines[key].append(share)

    @given(secret_keys, publish_steps)
    @settings(max_examples=25, deadline=None)
    def test_bundles_equal_a_fresh_identitys(self, sks, steps):
        prover = NativeProver(PUBLISH_DEPTH)
        members, root, paths = self.group(sks)
        lines = {}
        for who, epoch, _, payload in steps:
            who %= len(members)
            member = members[who]
            bundle = build_message(
                member, payload, epoch, paths[who], root, prover=prover, content_topic="t"
            ).rate_limit_proof
            fresh = Identity.from_secret(sks[who])
            expected = RLNPublicInputs.for_message(
                fresh, payload, external_nullifier(epoch), root
            )
            assert (bundle.epoch, bundle.public_inputs()) == (epoch, expected)
            assert prover.verify(expected, bundle.proof)
            assert member.share_for(external_nullifier(epoch), expected.x) == bundle.share
            self.check_line(lines, (who, epoch), bundle.share, member.sk)

    @given(secret_keys, publish_steps)
    @settings(max_examples=25, deadline=None)
    def test_limited_statements_equal_a_fresh_identitys(self, sks, steps):
        prover = NativeProver(PUBLISH_DEPTH, PUBLISH_LIMIT)
        members, root, paths = self.group(sks)
        lines = {}
        for who, epoch, message_id, payload in steps:
            who %= len(members)
            statements = [
                RLNPublicInputs.for_message(
                    identity,
                    payload,
                    external_nullifier(epoch),
                    root,
                    message_id=message_id,
                    message_limit=PUBLISH_LIMIT,
                )
                for identity in (members[who], Identity.from_secret(sks[who]))
            ]
            assert statements[0] == statements[1]
            proof = prover.prove(
                statements[0], RLNWitness(members[who], paths[who], message_id)
            )
            assert prover.verify(statements[1], proof)
            share = Share(x=statements[0].x, y=statements[0].y)
            self.check_line(lines, (who, epoch, message_id), share, members[who].sk)


class TestHashProperties:
    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_message_hash_injective_in_practice(self, a, b):
        if a != b:
            assert hash_message_to_field(a) != hash_message_to_field(b)

    @given(
        st.lists(field_values, min_size=1, max_size=4),
        st.lists(field_values, min_size=1, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_poseidon_no_cross_arity_collisions(self, xs, ys):
        if xs != ys:
            assert poseidon_hash(xs) != poseidon_hash(ys)
