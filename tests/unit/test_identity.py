"""Unit tests for identities and per-epoch derivations."""

import pytest

from repro.crypto.field import FieldElement
from repro.crypto.identity import (
    Identity,
    derive_commitment,
    derive_internal_nullifier,
    derive_slope,
)
from repro.crypto.poseidon import poseidon_hash
from repro.crypto.shamir import recover_secret
from repro.errors import IdentityError


class TestIdentity:
    def test_commitment_is_poseidon_of_sk(self):
        identity = Identity.from_secret(1234)
        assert identity.pk == poseidon_hash([FieldElement(1234)])

    def test_generate_unique(self):
        assert Identity.generate().sk != Identity.generate().sk

    def test_zero_secret_rejected(self):
        with pytest.raises(IdentityError):
            Identity.from_secret(0)

    def test_mismatched_commitment_rejected(self):
        with pytest.raises(IdentityError):
            Identity(sk=FieldElement(1), pk=FieldElement(2))

    def test_the_key_is_hashed_once_however_it_is_built(self, engine_hashes):
        assert engine_hashes(lambda: Identity.from_secret(77)) == 1
        assert engine_hashes(Identity.generate) == 1
        derived = Identity.from_secret(77)
        checked = Identity(sk=derived.sk, pk=derived.pk)  # the checking route
        assert checked == derived and hash(checked) == hash(derived)
        assert checked._commitment == derived._commitment == derived.pk

    def test_secret_bytes_roundtrip(self):
        identity = Identity.from_secret(0xDEADBEEF)
        restored = Identity.from_secret_bytes(identity.export_secret())
        assert restored == identity

    def test_export_sizes_are_32_bytes(self):
        # §IV: "Each peer persists a 32B public and secret keys".
        identity = Identity.generate()
        assert len(identity.export_secret()) == 32
        assert len(identity.export_commitment()) == 32


class TestEpochDerivations:
    def test_slope_is_poseidon2(self):
        sk, ext = FieldElement(5), FieldElement(99)
        assert derive_slope(sk, ext) == poseidon_hash([sk, ext])

    def test_nullifier_is_hash_of_slope(self):
        slope = FieldElement(777)
        assert derive_internal_nullifier(slope) == poseidon_hash([slope])

    def test_epoch_secrets_consistent(self):
        identity = Identity.from_secret(42)
        ext = FieldElement(1000)
        secrets = identity.epoch_secrets(ext)
        assert secrets.slope == derive_slope(identity.sk, ext)
        assert secrets.internal_nullifier == derive_internal_nullifier(secrets.slope)
        assert secrets.external_nullifier == ext

    def test_nullifier_stable_within_epoch(self):
        identity = Identity.from_secret(42)
        ext = FieldElement(7)
        assert (
            identity.epoch_secrets(ext).internal_nullifier
            == identity.epoch_secrets(ext).internal_nullifier
        )

    def test_the_last_epoch_secrets_are_remembered_not_the_one_before(
        self, engine_hashes
    ):
        identity = Identity.from_secret(42)
        one, two = FieldElement(1), FieldElement(2)
        assert engine_hashes(lambda: identity.epoch_secrets(one)) == 2
        first = identity.epoch_secrets(one)
        assert engine_hashes(lambda: identity.epoch_secrets(one)) == 0
        assert engine_hashes(lambda: identity.share_for(one, FieldElement(9))) == 0
        assert engine_hashes(lambda: identity.epoch_secrets(one, 0)) == 2  # an id
        assert engine_hashes(lambda: identity.epoch_secrets(two)) == 2
        assert engine_hashes(lambda: identity.epoch_secrets(one)) == 2
        assert identity.epoch_secrets(one) == first
        assert first.slope == derive_slope(identity.sk, one)

    def test_nullifier_unlinkable_across_epochs(self):
        identity = Identity.from_secret(42)
        n1 = identity.epoch_secrets(FieldElement(1)).internal_nullifier
        n2 = identity.epoch_secrets(FieldElement(2)).internal_nullifier
        assert n1 != n2

    def test_nullifier_distinct_across_members(self):
        ext = FieldElement(5)
        a = Identity.from_secret(1).epoch_secrets(ext).internal_nullifier
        b = Identity.from_secret(2).epoch_secrets(ext).internal_nullifier
        assert a != b


class TestShareDerivation:
    def test_share_uses_epoch_slope(self):
        identity = Identity.from_secret(321)
        ext, x = FieldElement(10), FieldElement(55)
        share = identity.share_for(ext, x)
        slope = derive_slope(identity.sk, ext)
        assert share.y == identity.sk + slope * x

    def test_double_signal_recovers_sk(self):
        # The core slashing property (§II-B): two shares in one epoch
        # reconstruct exactly the secret key.
        identity = Identity.from_secret(0xFEED)
        ext = FieldElement(54827003)
        s1 = identity.share_for(ext, FieldElement(1111))
        s2 = identity.share_for(ext, FieldElement(2222))
        recovered = recover_secret(s1, s2)
        assert recovered == identity.sk
        assert derive_commitment(recovered) == identity.pk

    def test_single_epoch_single_share_per_x(self):
        identity = Identity.from_secret(5)
        ext, x = FieldElement(1), FieldElement(9)
        assert identity.share_for(ext, x) == identity.share_for(ext, x)
