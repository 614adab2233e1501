"""Binary wire format for WAKU-RLN-RELAY message bundles.

§III-E defines the bundle ``(m, (x, y), phi, epoch, tau, pi)``; this module
gives it a concrete byte encoding so the reproduction's sizes are real
wire sizes, and so interop-style tests can round-trip messages through
bytes instead of passing Python objects around.

Layout (big-endian):

```
offset  size  field
0       2     version (0x0001)
2       4     payload length  n
6       n     payload m
6+n     2     content-topic length  t
8+n     t     content topic (utf-8)
...     8     timestamp (milliseconds since Unix epoch, unsigned)
...     1     flags (bit 0: ephemeral, bit 1: proof present)
-- when the proof flag is set --
...     32    share_x
...     32    share_y
...     32    internal nullifier
...     8     epoch
...     32    tree root tau
...     128   proof pi (A || B || C)
```

The proof section is :class:`~repro.core.messages.RateLimitProof`'s own
encoding, which the message id covers.  Written and read through
:mod:`repro.codec`: field elements must be canonical, unknown flag bits
and trailing bytes are refused, and every malformed input is one
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

from repro.codec import Reader, Writer
from repro.core.messages import RateLimitProof
from repro.errors import ProtocolError
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import PROOF_SIZE

WIRE_VERSION = 1

_FLAG_EPHEMERAL = 0x01
_FLAG_PROOF = 0x02

#: Fixed size of the encoded proof section.
PROOF_SECTION_SIZE = 32 * 4 + 8 + PROOF_SIZE


def encode_message(message: WakuMessage) -> bytes:
    """Serialize a WakuMessage (with optional rate-limit proof) to bytes."""
    payload = message.payload
    if len(payload) > 0xFFFFFFFF:
        raise ProtocolError("payload too large for wire format")
    flags = 0
    if message.ephemeral:
        flags |= _FLAG_EPHEMERAL
    proof = message.rate_limit_proof
    if proof is not None and not isinstance(proof, RateLimitProof):
        raise ProtocolError("wire format only carries RateLimitProof bundles")
    if proof is not None:
        flags |= _FLAG_PROOF
    w = Writer()
    w.pack(">HI", WIRE_VERSION, len(payload))
    w.raw(payload)
    w.str(message.content_topic)
    w.pack(">QB", max(0, int(message.timestamp * 1000)), flags)
    if proof is not None:
        proof._write(w)
    return w.getvalue()


def decode_message(data: bytes) -> WakuMessage:
    """Parse bytes produced by :func:`encode_message`."""
    r = Reader(data)
    version, payload_length = r.unpack(">HI")
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    payload = r.raw(payload_length)
    topic = r.str()
    timestamp_ms, flags = r.unpack(">QB")
    if flags & ~(_FLAG_EPHEMERAL | _FLAG_PROOF):
        raise ProtocolError(f"unknown flag bits {flags:#04x}")
    proof = RateLimitProof._read(r) if flags & _FLAG_PROOF else None
    r.end()
    return WakuMessage(
        payload=payload,
        content_topic=topic,
        timestamp=timestamp_ms / 1000.0,
        ephemeral=bool(flags & _FLAG_EPHEMERAL),
        rate_limit_proof=proof,
    )
