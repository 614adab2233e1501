"""A ``RateLimitProof`` remembers ``share``, ``public_inputs()``, its last
``matches_payload`` answer and its verdict-cache key on the frozen instance.
Whatever a bundle remembers must equal a fresh derivation — on the bundle
itself, on every one-field ``dataclasses.replace`` of it, on its forged
copies and behind a re-stamped message — and must never change ``==`` or
``hash``."""

import dataclasses
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epoch import external_nullifier
from repro.core.messages import RateLimitProof
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.shamir import Share
from repro.pipeline.batch_verifier import verdict_key
from repro.waku.message import WakuMessage
from repro.zksnark.rln_circuit import RLNPublicInputs
from tests.property import wire_strategies as ws

FIELDS = [f.name for f in dataclasses.fields(RateLimitProof)]


def fresh_public(bundle: RateLimitProof) -> RLNPublicInputs:
    return RLNPublicInputs(
        x=bundle.share_x,
        external_nullifier=external_nullifier(bundle.epoch),
        y=bundle.share_y,
        internal_nullifier=bundle.internal_nullifier,
        root=bundle.root,
    )


def fresh_key(bundle: RateLimitProof) -> bytes:
    statement = fresh_public(bundle)
    return hashlib.sha256(statement.serialize() + bundle.proof.serialize()).digest()


def rebuilt(bundle: RateLimitProof) -> RateLimitProof:
    """An equal bundle built field by field: it remembers nothing."""
    return RateLimitProof(**{name: getattr(bundle, name) for name in FIELDS})


def warm(bundle: RateLimitProof, payloads) -> None:
    """Fill every memo (the last payload asked about is remembered)."""
    bundle.share
    bundle.public_inputs().serialize()
    verdict_key(bundle)
    for payload in payloads:
        bundle.matches_payload(payload)


def assert_fresh(bundle: RateLimitProof, payloads) -> None:
    for _ in range(2):  # the second pass reads what the first remembered
        assert bundle.share == Share(x=bundle.share_x, y=bundle.share_y)
        assert bundle.public_inputs() == fresh_public(bundle)
        assert bundle.public_inputs().serialize() == fresh_public(bundle).serialize()
        assert verdict_key(bundle) == fresh_key(bundle)
        for payload in payloads:
            expected = hash_message_to_field(payload) == bundle.share_x
            assert bundle.matches_payload(payload) is expected
    assert bundle == rebuilt(bundle) and hash(bundle) == hash(rebuilt(bundle))


@given(
    bundle=ws.bundles,
    other=ws.bundles,
    payloads=st.lists(st.binary(max_size=48), min_size=1, max_size=3),
    epoch_shift=st.integers(min_value=0, max_value=3),
    trace=st.none() | ws.span_contexts,
)
@settings(max_examples=80, deadline=None)
def test_what_a_bundle_remembers_equals_a_fresh_derivation(
    bundle, other, payloads, epoch_shift, trace
):
    # One payload the bundle is really bound to, asked about in turn with
    # the others, so the remembered answer flips between True and False.
    bound, *rest = payloads
    bundle = dataclasses.replace(bundle, share_x=hash_message_to_field(bound))
    asked = [bound, *rest, bytearray(bound), bound + b"!", *rest, bound]
    warm(bundle, asked)
    assert_fresh(bundle, asked)

    variants = [
        dataclasses.replace(bundle, **{name: getattr(other, name)}) for name in FIELDS
    ]
    variants += [
        bundle.forged_copy(epoch_shift=epoch_shift),
        bundle.forged_copy(proof=other.proof),
    ]
    for variant in variants:
        assert_fresh(variant, asked)
        warm(variant, asked)
    # Warming the variants never leaked back into the original.
    assert_fresh(bundle, asked)

    # A re-stamped message carries the very same (remembering) bundle.
    message = WakuMessage(payload=bound, content_topic="t", rate_limit_proof=bundle)
    restamped = message.with_trace(trace).rate_limit_proof
    assert restamped is bundle
    assert_fresh(restamped, asked)


@given(bundle=ws.bundles, payload=st.binary(max_size=48))
@settings(max_examples=40, deadline=None)
def test_a_remembered_value_never_changes_equality_or_hash(bundle, payload):
    plain = rebuilt(bundle)
    warm(bundle, [payload])
    assert bundle == plain and plain == bundle
    assert hash(bundle) == hash(plain)
    assert len({bundle, plain}) == 1
    assert repr(bundle) == repr(plain)
