"""The one byte codec: how every wire type is written, read and refused.

The paper's bundle ``(m, (x, y), phi, epoch, tau, pi)`` (§III-E) and its
§IV storage and bandwidth figures are byte claims, so every artefact the
repo accounts in bytes has a real encoding.  This module is the only
place that decides how those bytes are laid down and picked up, and how
a bad byte is reported:

* :class:`Writer` — an append-only buffer: ``pack`` (big-endian
  :mod:`struct` formats), ``field`` (32-byte field element), ``str``
  (u16 length + UTF-8), ``proof`` (a Merkle authentication path),
  ``frame`` (a symbol table: each string once, up front in first-use
  order, then referred to by a varint index) and ``raw``; :func:`varint`
  / :func:`svarint` are unsigned LEB128 and its zigzag for signed values.
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
field elements are below the modulus, strings are strict UTF-8, varints
are minimal, a symbol table has no duplicate or unused string).

:func:`size_of` is the one "what does this payload weigh" rule the
simulated network and the envelope types bill by.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from functools import lru_cache
from itertools import count
from typing import Any, Callable, TypeVar

from repro.crypto.field import FIELD_BYTES, FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.errors import ProtocolError

W = TypeVar("W", bound="Wire")


@lru_cache(maxsize=512)
def _str_bytes(value: str) -> bytes:
    """u16 length + UTF-8.  Remembered: what gets written is a small
    vocabulary (content topics, trace origins) written over and over."""
    data = value.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolError(f"string too long for wire ({len(data)} bytes)")
    return len(data).to_bytes(2, "big") + data


_SMALL_VARINTS = tuple(bytes((value,)) for value in range(0x80))


def varint(value: int, bits: int = 64) -> bytes:
    """Unsigned LEB128 (seven bits a byte, low group first) of a value
    below ``2**bits``."""
    if value >> bits or value < 0:
        raise ProtocolError(f"varint out of range: {value}")
    if value < 0x80:
        return _SMALL_VARINTS[value]
    if value < 0x4000:  # two bytes: a seq, a local span id
        return bytes((value & 0x7F | 0x80, value >> 7))
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def svarint(value: int) -> bytes:
    """A signed 64-bit value, zigzagged (0, -1, 1, -2, ... -> 0, 1, 2, 3)."""
    if not -(1 << 63) <= value < 1 << 63:
        raise ProtocolError(f"signed varint out of range: {value}")
    return varint((value << 1) ^ (value >> 63))


@lru_cache(maxsize=1024)
def _symbol(value: str) -> bytes:
    """A table entry, varint length + UTF-8 (remembered: frames share words)."""
    data = value.encode("utf-8")
    return varint(len(data)) + data


#: A frame's table as written: ``symbols[text]`` is the varint referring to
#: ``text``, a new one appended (counted apart: a factory reading the table
#: would make it a reference cycle).  As read, ``symbol()`` reads a reference.
Symbols = dict[str, bytes]
Symbol = Callable[[], str]


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

    def frame(self, body: Callable[["Writer", Symbols], None]) -> None:
        """``body(writer, symbols)`` writes the body with each string's
        reference from ``symbols``; the table it filled goes in front."""
        slot = len(self)
        self.append(b"")
        symbols: Symbols = defaultdict(map(varint, count()).__next__)
        body(self, symbols)
        self[slot] = varint(len(symbols)) + b"".join(map(_symbol, symbols))

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

    def str(self, length: int | None = None) -> str:
        """UTF-8 of ``length`` bytes, or of as many as a u16 prefix says."""
        try:
            return self.raw(self.unpack(">H")[0] if length is None else length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"string is not valid utf-8: {exc}") from exc

    def varint(self, bits: int = 64) -> int:
        """A minimal LEB128 below ``2**bits``: ceil(bits / 7) bytes at most."""
        value = 0
        for shift in range(0, bits or 1, 7):
            (byte,) = self.raw(1)
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                if (byte or not shift) and not value >> bits:
                    return value
                raise ProtocolError(f"non-canonical varint before byte {self.offset}")
        raise ProtocolError(f"varint longer than {bits} bits at byte {self.offset}")

    def svarint(self) -> int:
        return (value := self.varint()) >> 1 ^ -(value & 1)

    def frame(self, body: Callable[["Reader", Symbol], Any]) -> Any:
        """Mirror of :meth:`Writer.frame`: ``body(reader, symbol)`` calls
        ``symbol()`` per reference, which must be in range and in first-use order."""
        strings = [self.str(self.varint()) for _ in range(self.varint())]
        if len(set(strings)) != len(strings):
            raise ProtocolError("duplicate string in a symbol table")
        used = 0

        def symbol() -> str:
            nonlocal used
            index = self.varint()
            if index == used < len(strings):
                used += 1
            elif index >= used:
                raise ProtocolError(f"symbol {index} out of range or of first-use order")
            return strings[index]

        value = body(self, symbol)
        if used != len(strings):
            raise ProtocolError(f"{len(strings) - used} unused symbols")
        return value

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


class Record(tuple):
    """Mixin ahead of a ``namedtuple`` base: an immutable record built with
    one ``tuple.__new__`` (a frozen dataclass pays an ``object.__setattr__``
    per field), equal only to a record of its own type."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other


def memo_slots(*names: str) -> type:
    """Slots for a frozen dataclass's memos: not fields, so ``==``, ``hash``
    and ``dataclasses.replace`` ignore them and a copy starts empty."""
    return type("MemoSlots", (), {"__slots__": names})


class Framed(Wire):
    """A wire type whose body (``_write_body`` / ``_read_body``) is framed
    with its own symbol table; inside another frame it shares that one's."""

    __slots__ = ()

    def _write(self, writer: Writer) -> None:
        writer.frame(self._write_body)

    @classmethod
    def _read(cls: type[W], reader: Reader) -> W:
        return reader.frame(cls._read_body)


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
