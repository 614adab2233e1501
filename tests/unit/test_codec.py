"""Unit tests for the one byte codec, and the guard that keeps it the one."""

import importlib
import inspect
import pkgutil
from dataclasses import dataclass

import pytest

import repro
from repro.codec import Reader, Wire, Writer, flag, size_of
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
