"""Byte-oriented hash helpers with domain separation.

Poseidon (:mod:`repro.crypto.poseidon`) handles everything *inside* the
circuit; this module handles everything outside it: hashing message payloads
to field elements (``x = H(m)``, §II-B), deriving the message ids the
GossipSub router dedups by, and the commit-and-reveal commitments used during
slashing.  All byte hashing is SHA-256 with an explicit domain tag so that
digests from different contexts can never collide.
"""

from __future__ import annotations

import hashlib

from repro.crypto.field import FieldElement, element_from_hash

#: Domain tags.  Each context gets its own prefix.
DOMAIN_MESSAGE = b"waku-rln-relay:message"
DOMAIN_MESSAGE_ID = b"waku-rln-relay:message-id"
DOMAIN_MALFORMED_ID = b"waku-rln-relay:malformed-message-id"
DOMAIN_COMMITMENT = b"waku-rln-relay:commit-reveal"


def tagged_sha256(domain: bytes, *parts: bytes) -> bytes:
    """SHA-256 over length-prefixed parts under a domain tag.

    Length prefixes make the encoding injective: ``(b"ab", b"c")`` and
    ``(b"a", b"bc")`` hash differently.
    """
    hasher = hashlib.sha256()
    hasher.update(len(domain).to_bytes(2, "big"))
    hasher.update(domain)
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def hash_message_to_field(payload: bytes) -> FieldElement:
    """Map a message payload to the field element ``x = H(m)`` of §II-B."""
    return element_from_hash(tagged_sha256(DOMAIN_MESSAGE, payload))


def message_id(payload: bytes, topic: str, *parts: bytes) -> bytes:
    """The GossipSub id of ``payload`` (and ``parts``) on ``topic``; a payload
    that is not bytes (hostile) is hashed by ``repr`` under its own tag."""
    domain = DOMAIN_MESSAGE_ID
    if not isinstance(payload, (bytes, bytearray)):
        domain, payload = DOMAIN_MALFORMED_ID, repr(payload).encode("utf-8", "backslashreplace")
    return tagged_sha256(domain, topic.encode("utf-8"), payload, *parts)
