"""The one byte codec: how every wire type is written, read and refused.

The paper's bundle ``(m, (x, y), phi, epoch, tau, pi)`` (§III-E) and its
§IV storage and bandwidth figures are byte claims, so every artefact the
repo accounts in bytes has a real encoding.  This module is the only
place that decides how those bytes are laid down and picked up, and how
a bad byte is reported:

* :class:`Writer` — an append-only buffer: ``pack`` (big-endian
  :mod:`struct` formats), ``field`` (32-byte field element), ``str``
  (u16 length + UTF-8), ``proof`` (a Merkle authentication path) and
  ``raw``.
* :class:`Reader` — a cursor over received bytes with the mirror-image
  reads plus :meth:`Reader.end`.  Every way a read can go wrong — bytes
  run out, a string is not UTF-8, a field element is not canonical,
  bytes are left over — is one :class:`~repro.errors.ProtocolError`; no
  ``struct.error``, ``IndexError`` or ``UnicodeDecodeError`` leaves a
  decoder.  A hostile length prefix costs nothing: reads slice the
  buffer that is already there, they never allocate what a count claims.
* :class:`Wire` — the mixin a wire type inherits.  The type spells its
  layout out exactly twice, as ``_write(writer)`` and ``_read(reader)``;
  ``to_bytes``, ``decode``, ``from_bytes`` (which always refuses
  trailing bytes) and ``byte_size`` follow from those two.  Nested
  values write into, and read from, their parent's cursor.

Decoding is *canonical*: a byte string that decodes re-encodes to
itself, so no two byte strings stand for one value (flags are 0 or 1,
field elements are below the modulus, strings are strict UTF-8).

:func:`size_of` is the one "what does this payload weigh" rule the
simulated network and the envelope types bill by.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, TypeVar

from repro.crypto.field import FIELD_BYTES, FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.errors import ProtocolError

W = TypeVar("W", bound="Wire")


@lru_cache(maxsize=512)
def _str_bytes(value: str) -> bytes:
    """u16 length + UTF-8.  Remembered: what gets written is a small
    vocabulary (metric names, label keys, peer ids, stage names) written
    over and over — without this a telemetry batch encodes a third slower
    than the inline ``struct.pack`` code the cursor replaced."""
    data = value.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolError(f"string too long for wire ({len(data)} bytes)")
    return len(data).to_bytes(2, "big") + data


class Writer(list):
    """Append-only byte buffer: the chunks written so far, joined at the end.

    A ``list`` so that the commonest write, :meth:`raw`, is the list's
    own C-level append and building one costs no Python frame —
    ``byte_size()`` of a telemetry batch is billed on every export.
    """

    __slots__ = ()

    #: ``raw(data)`` appends bytes as they are.
    raw = list.append

    def pack(self, fmt: str, *values: Any) -> None:
        """Fixed-width scalars, by :mod:`struct` format (write ``>``)."""
        self.append(struct.pack(fmt, *values))

    def field(self, value: FieldElement) -> None:
        self.append(value.to_bytes())

    def str(self, value: str) -> None:
        """u16 length + UTF-8; longer than 65 535 bytes is refused."""
        self.append(_str_bytes(value))

    def proof(self, proof: MerkleProof) -> None:
        """(index, depth) header, the leaf, then one sibling per level."""
        self.pack(">QH", proof.index, proof.depth)
        self.field(proof.leaf)
        self.extend(sibling.to_bytes() for sibling in proof.siblings)

    def getvalue(self) -> bytes:
        return b"".join(self)


class Reader:
    """Cursor over received bytes; every failure is a ProtocolError."""

    __slots__ = ("_data", "offset")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self.offset = offset

    @property
    def remaining(self) -> int:
        return len(self._data) - self.offset

    def unpack(self, fmt: str) -> tuple[Any, ...]:
        try:
            values = struct.unpack_from(fmt, self._data, self.offset)
        except struct.error as exc:
            raise ProtocolError(f"truncated at byte {self.offset}: {exc}") from exc
        self.offset += struct.calcsize(fmt)
        return values

    def raw(self, size: int) -> bytes:
        end = self.offset + size
        if end > len(self._data):
            raise ProtocolError(
                f"truncated at byte {self.offset}: need {size}, have {self.remaining}"
            )
        data = self._data[self.offset : end]
        self.offset = end
        return data

    def field(self) -> FieldElement:
        """A canonical field element: ``value + p`` is not ``value``.

        (:meth:`FieldElement.from_bytes` reduces instead — hash-to-field
        relies on that — so it is not the wire decoder.)
        """
        value = int.from_bytes(self.raw(FIELD_BYTES), "big")
        if value >= FIELD_MODULUS:
            raise ProtocolError("non-canonical field element")
        return FieldElement(value)

    def str(self) -> str:
        (length,) = self.unpack(">H")
        try:
            return self.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"string is not valid utf-8: {exc}") from exc

    def proof(self) -> MerkleProof:
        index, depth = self.unpack(">QH")
        leaf = self.field()
        siblings = tuple(self.field() for _ in range(depth))
        bits = tuple((index >> level) & 1 for level in range(depth))
        return MerkleProof(leaf=leaf, index=index, siblings=siblings, path_bits=bits)

    def end(self) -> None:
        """A value ends where its bytes do; anything after it is malformed."""
        if self.remaining:
            raise ProtocolError(f"{self.remaining} trailing bytes")


def flag(byte: int) -> bool:
    """A boolean travels as 0 or 1; 2..255 are not other spellings of True."""
    if byte > 1:
        raise ProtocolError(f"flag byte must be 0 or 1, got {byte}")
    return bool(byte)


class Wire:
    """Mixin: a type that defines ``_write`` and ``_read`` is a wire type."""

    __slots__ = ()

    def _write(self, writer: Writer) -> None:
        raise NotImplementedError

    @classmethod
    def _read(cls: type[W], reader: Reader) -> W:
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        writer = Writer()
        self._write(writer)
        return writer.getvalue()

    @classmethod
    def decode(cls: type[W], data: bytes, offset: int = 0) -> tuple[W, int]:
        """Read one value starting at ``offset``; return it and where it ended."""
        reader = Reader(data, offset)
        return cls._read(reader), reader.offset

    @classmethod
    def from_bytes(cls: type[W], data: bytes) -> W:
        """Decode a value that must span ``data`` exactly."""
        reader = Reader(data)
        value = cls._read(reader)
        reader.end()
        return value

    def byte_size(self) -> int:
        return len(self.to_bytes())


def size_of(payload: Any, default: int) -> int:
    """Wire weight of ``payload``: its ``byte_size()``, else its length,
    else ``default`` (an opaque object's flat allowance)."""
    byte_size = getattr(payload, "byte_size", None)
    if callable(byte_size):
        return int(byte_size())
    try:
        return len(payload)
    except TypeError:
        return default
