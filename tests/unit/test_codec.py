"""Unit tests for the one byte codec, and the guard that keeps it the one."""

import importlib
import inspect
import pkgutil
from dataclasses import dataclass

import pytest

import repro
from repro.codec import Reader, Wire, Writer, flag, size_of, svarint, varint
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.errors import ProtocolError


def written(write) -> bytes:
    writer = Writer()
    write(writer)
    return writer.getvalue()


class TestCursor:
    def test_scalars_fields_strings_and_raw_round_trip(self):
        data = written(
            lambda w: (
                w.pack(">QH", 7, 9),
                w.field(FieldElement(5)),
                w.str("комната"),
                w.raw(b"\x01\x02"),
            )
        )
        r = Reader(data)
        assert r.unpack(">QH") == (7, 9)
        assert r.field() == FieldElement(5)
        assert r.str() == "комната"
        assert r.remaining == 2 and r.raw(2) == b"\x01\x02"
        r.end()

    def test_a_merkle_path_round_trips_and_still_verifies(self):
        tree = MerkleTree(depth=4)
        for value in (11, 12, 13):
            tree.insert(FieldElement(value))
        proof = tree.proof(2)
        decoded = Reader(written(lambda w: w.proof(proof))).proof()
        assert decoded == proof and decoded.verify(tree.root)

    @pytest.mark.parametrize(
        "read",
        [
            lambda r: r.unpack(">Q"),
            lambda r: r.raw(9),
            lambda r: r.field(),
            lambda r: r.str(),  # length prefix says 0x0102 bytes follow
            lambda r: r.proof(),
        ],
        ids=["unpack", "raw", "field", "str", "proof"],
    )
    def test_running_out_of_bytes_is_a_protocol_error(self, read):
        reader = Reader(b"\x01\x02\x03")
        with pytest.raises(ProtocolError):
            read(reader)

    def test_a_failed_read_at_any_offset_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            Reader(b"abc", 10).unpack(">B")
        with pytest.raises(ProtocolError):
            Reader(b"abc", 10).raw(1)

    def test_bad_utf8_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            Reader(b"\x00\x02\xff\xfe").str()

    def test_string_too_long_to_prefix_is_refused_at_the_writer(self):
        with pytest.raises(ProtocolError):
            Writer().str("x" * 0x10000)

    def test_field_elements_are_canonical_on_the_wire(self):
        top = (FIELD_MODULUS - 1).to_bytes(32, "big")
        assert Reader(top).field().value == FIELD_MODULUS - 1
        with pytest.raises(ProtocolError):
            Reader(FIELD_MODULUS.to_bytes(32, "big")).field()
        # The reducing constructor stays what hash-to-field relies on.
        assert FieldElement.from_bytes(FIELD_MODULUS.to_bytes(32, "big")).value == 0

    def test_flags_are_zero_or_one(self):
        assert flag(0) is False and flag(1) is True
        with pytest.raises(ProtocolError):
            flag(2)

    def test_end_refuses_leftovers(self):
        reader = Reader(b"ab")
        reader.raw(1)
        with pytest.raises(ProtocolError):
            reader.end()


class TestVarints:
    @pytest.mark.parametrize(
        "value, encoded",
        [(0, "00"), (1, "01"), (127, "7f"), (128, "8001"), (300, "ac02"),
         (16383, "ff7f"), (16384, "808001"), (2**64 - 1, "ffffffffffffffffff01")],
    )
    def test_unsigned_leb128(self, value, encoded):
        assert varint(value).hex() == encoded
        reader = Reader(bytes.fromhex(encoded))
        assert reader.varint() == value
        reader.end()

    @pytest.mark.parametrize("value", [0, -1, 1, -2, 2**63 - 1, -(2**63)])
    def test_signed_values_zigzag(self, value):
        data = svarint(value)
        assert Reader(data).svarint() == value
        assert len(data) == (1 if -64 <= value < 64 else 10)

    def test_out_of_range_values_are_refused_at_the_writer(self):
        for encode in (
            lambda: varint(-1),
            lambda: varint(2**64),
            lambda: varint(8, bits=3),
            lambda: svarint(2**63),
            lambda: svarint(-(2**63) - 1),
        ):
            with pytest.raises(ProtocolError):
                encode()

    @pytest.mark.parametrize(
        "data, bits",
        [
            ("80", 64),  # runs out mid-value
            ("8000", 64),  # a high zero group: 0 spelled in two bytes
            ("ff00", 64),
            ("ffffffffffffffffff02", 64),  # 2**64: eleven groups' worth
            ("8080808080808080808001", 64),  # longer than ten bytes
            ("08", 3),  # past the bound the reader was given
            ("8001", 7),  # too long for seven bits
        ],
    )
    def test_non_canonical_varints_are_refused(self, data, bits):
        with pytest.raises(ProtocolError):
            Reader(bytes.fromhex(data)).varint(bits)


def symbol_frame(strings, refs) -> bytes:
    """A hand-built frame: ``strings`` as the table, ``refs`` as the body."""
    data = bytes([len(strings)])
    for text in strings:
        data += bytes([len(text.encode())]) + text.encode()
    return data + bytes(refs)


def read_refs(data: bytes, count: int) -> list[str]:
    reader = Reader(data)
    strings = reader.frame(lambda r, symbol: [symbol() for _ in range(count)])
    reader.end()
    return strings


class TestSymbolTables:
    def test_each_string_once_in_first_use_order(self):
        words = ["peer-1", "stage", "peer-1", "x", "stage"]
        data = written(lambda w: w.frame(lambda body, refs: body.extend(map(refs.__getitem__, words))))
        assert data == symbol_frame(["peer-1", "stage", "x"], [0, 1, 0, 2, 1])
        assert read_refs(data, len(words)) == words

    @pytest.mark.parametrize(
        "strings, refs",
        [
            (["a", "b"], [1, 0]),  # not in first-use order
            (["a", "b"], [0, 0]),  # "b" never used
            (["a"], [0, 1]),  # a reference past the table
            (["a", "a"], [0, 1]),  # the same string twice
        ],
        ids=["order", "unused", "range", "duplicate"],
    )
    def test_a_table_is_canonical(self, strings, refs):
        with pytest.raises(ProtocolError):
            read_refs(symbol_frame(strings, refs), len(refs))

    def test_a_hostile_table_count_costs_only_the_bytes_present(self):
        with pytest.raises(ProtocolError):
            read_refs(bytes.fromhex("ffffffffffffffff7f") + b"\x01a", 1)


@dataclass(frozen=True)
class Pair(Wire):
    """The smallest wire type: what a new codec has to write."""

    left: int
    right: str

    def _write(self, w):
        w.pack(">I", self.left)
        w.str(self.right)

    @classmethod
    def _read(cls, r):
        (left,) = r.unpack(">I")
        return cls(left, r.str())


class TestWireMixin:
    def test_two_methods_give_the_whole_interface(self):
        pair = Pair(3, "xy")
        data = pair.to_bytes()
        assert data == b"\x00\x00\x00\x03\x00\x02xy"
        assert pair.byte_size() == 8
        assert Pair.from_bytes(data) == pair
        assert Pair.decode(b"!!" + data + b"??", 2) == (pair, 10)

    def test_from_bytes_is_always_strict(self):
        data = Pair(3, "xy").to_bytes()
        with pytest.raises(ProtocolError):
            Pair.from_bytes(data + b"\x00")
        with pytest.raises(ProtocolError):
            Pair.from_bytes(data[:-1])


class TestSizeOf:
    def test_byte_size_then_length_then_the_default(self):
        assert size_of(Pair(1, "abc"), 64) == 9
        assert size_of(b"12345", 64) == 5
        assert size_of(object(), 64) == 64
        assert size_of(None, 128) == 128


# -- the guard --------------------------------------------------------------------


def repro_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_every_type_with_a_byte_encoding_goes_through_the_codec():
    """An eighteenth hand-rolled codec fails here.

    Only :class:`Wire` spells ``to_bytes`` / ``from_bytes`` out, so a
    class that can do either is a ``Wire`` subclass declaring ``_write``
    and ``_read``.  ``FieldElement`` is the one exception: it is the
    32-byte primitive the codec is built from, not a message.
    """
    classes = list(repro_classes())
    definers = {
        cls for cls in classes if {"to_bytes", "from_bytes"} & vars(cls).keys()
    }
    assert definers == {Wire, FieldElement}
    wire_types = [cls for cls in classes if issubclass(cls, Wire) and cls is not Wire]
    assert len(wire_types) >= 16  # the walk really saw the wire modules
    for cls in wire_types:
        assert "decode" not in vars(cls), f"{cls.__qualname__} overrides decode"
