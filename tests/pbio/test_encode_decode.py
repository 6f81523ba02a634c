"""Encode/decode roundtrips, including full cross-architecture matrix."""

import itertools

import pytest

from repro.arch import SPARC_32, X86_32, X86_64
from repro.errors import DecodeError, EncodeError
from repro.pbio import IOContext, IOField
from repro.pbio.context import HEADER_SIZE
from repro.pbio.encode import get_encode_plan
from repro.pbio.oracle import make_interpreted_converter

from tests.pbio.conftest import ALL_ARCHES, ASDOFF_RECORD, register_asdoff


def roundtrip(sender_arch, receiver_arch, register, record):
    sender = IOContext(sender_arch)
    fmt = register(sender)
    message = sender.encode(fmt, record)
    receiver = IOContext(receiver_arch)
    receiver.learn_format(fmt.to_wire_metadata())
    return receiver.decode(message).values


class TestPaperStructureRoundtrip:
    @pytest.mark.parametrize(
        "pair",
        list(itertools.product(ALL_ARCHES, ALL_ARCHES)),
        ids=lambda pair: f"{pair[0].name}->{pair[1].name}",
    )
    def test_full_architecture_matrix(self, pair):
        sender_arch, receiver_arch = pair
        values = roundtrip(sender_arch, receiver_arch, register_asdoff, ASDOFF_RECORD)
        assert values == ASDOFF_RECORD

    def test_interpreted_mode_matches(self, any_arch):
        sender = IOContext(any_arch)
        fmt = register_asdoff(sender)
        payload = sender.encode(fmt, ASDOFF_RECORD)[HEADER_SIZE:]
        assert make_interpreted_converter(fmt)(payload) == ASDOFF_RECORD


class TestValueShapes:
    def _scalar_format(self, ctx):
        return ctx.register_format(
            "scalars",
            [
                IOField("i8", "integer", 1, 0),
                IOField("i16", "integer", 2, 2),
                IOField("i32", "integer", 4, 4),
                IOField("i64", "integer", 8, 8),
                IOField("u32", "unsigned integer", 4, 16),
                IOField("f32", "float", 4, 20),
                IOField("f64", "double", 8, 24),
                IOField("c", "char", 1, 32),
                IOField("b", "boolean", 1, 33),
                IOField("e", "enumeration", 4, 36),
            ],
            record_length=40,
        )

    def test_all_scalar_kinds_roundtrip(self, any_arch):
        record = {
            "i8": -5, "i16": -30000, "i32": -(2**31) + 1, "i64": -(2**62),
            "u32": 4_000_000_000, "f32": 0.5, "f64": 3.141592653589793,
            "c": "Q", "b": True, "e": 7,
        }
        values = roundtrip(any_arch, SPARC_32, self._scalar_format, record)
        assert values == record

    def test_null_string_roundtrips_as_none(self, any_arch):
        def register(ctx):
            return ctx.register_format(
                "s", [IOField("name", "string", ctx.arch.pointer_size, 0)]
            )

        assert roundtrip(any_arch, X86_64, register, {"name": None}) == {"name": None}

    def test_empty_string_distinct_from_null(self):
        def register(ctx):
            return ctx.register_format(
                "s", [IOField("name", "string", ctx.arch.pointer_size, 0)]
            )

        assert roundtrip(SPARC_32, X86_64, register, {"name": ""}) == {"name": ""}

    def test_unicode_string_roundtrips(self):
        def register(ctx):
            return ctx.register_format(
                "s", [IOField("name", "string", ctx.arch.pointer_size, 0)]
            )

        record = {"name": "Zürich ✈ Tōkyō"}
        assert roundtrip(SPARC_32, X86_32, register, record) == record

    def test_static_string_array(self):
        def register(ctx):
            p = ctx.arch.pointer_size
            return ctx.register_format(
                "s",
                [IOField("names", "string[3]", p, 0), IOField("n", "integer", 4, 3 * p)],
            )

        record = {"names": ["a", None, "ccc"], "n": 9}
        assert roundtrip(SPARC_32, X86_64, register, record) == record

    def test_char_array_as_fixed_string_buffer(self):
        def register(ctx):
            return ctx.register_format(
                "s",
                [IOField("tag", "char[8]", 1, 0), IOField("n", "integer", 4, 8)],
            )

        values = roundtrip(SPARC_32, X86_64, register, {"tag": "ATL", "n": 1})
        assert values == {"tag": "ATL", "n": 1}

    def test_empty_dynamic_array(self):
        def register(ctx):
            return ctx.register_format(
                "s",
                [
                    IOField("n", "integer", 4, 0),
                    IOField("data", "double[n]", 8, ctx.arch.pointer_size),
                ],
                record_length=2 * max(ctx.arch.pointer_size, 8),
            )

        values = roundtrip(SPARC_32, X86_64, register, {"data": [], "n": 0})
        assert values["data"] == []
        assert values["n"] == 0

    def test_count_field_derived_when_omitted(self):
        def register(ctx):
            return ctx.register_format(
                "s",
                [
                    IOField("n", "integer", 4, 0),
                    IOField("data", "double[n]", 8, 8),
                ],
                record_length=16,
            )

        values = roundtrip(SPARC_32, X86_64, register, {"data": [1.5, 2.5]})
        assert values["n"] == 2
        assert values["data"] == [1.5, 2.5]

    def test_float_dynamic_array_roundtrip(self):
        def register(ctx):
            return ctx.register_format(
                "s",
                [
                    IOField("n", "integer", 4, 0),
                    IOField("data", "float[n]", 4, 8),
                ],
                record_length=16,
            )

        record = {"n": 4, "data": [0.25, 0.5, 0.75, 1.0]}
        assert roundtrip(X86_32, SPARC_32, register, record) == record


class TestNesting:
    def _register_nested(self, ctx):
        point = ctx.register_format(
            "point",
            [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)],
        )
        return ctx.register_format(
            "segment",
            [
                IOField("label", "string", ctx.arch.pointer_size, 0),
                IOField("a", "point", 16, 8),
                IOField("b", "point", 16, 24),
            ],
            record_length=40,
        )

    def test_nested_format_roundtrip(self):
        record = {
            "label": "runway",
            "a": {"x": 1.0, "y": 2.0},
            "b": {"x": 3.0, "y": 4.0},
        }
        assert roundtrip(SPARC_32, X86_64, self._register_nested, record) == record

    def test_static_array_of_nested_formats(self):
        def register(ctx):
            point = ctx.register_format(
                "point",
                [IOField("x", "double", 8, 0), IOField("y", "double", 8, 8)],
            )
            return ctx.register_format(
                "poly", [IOField("pts", "point[3]", 16, 0)], record_length=48
            )

        record = {"pts": [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}, {"x": 5.0, "y": 6.0}]}
        assert roundtrip(X86_64, SPARC_32, register, record) == record

    def test_nested_with_strings_shares_variable_section(self):
        def register(ctx):
            p = ctx.arch.pointer_size
            inner = ctx.register_format(
                "named", [IOField("name", "string", p, 0), IOField("v", "integer", 4, p)]
            )
            return ctx.register_format(
                "pair",
                [
                    IOField("first", "named", inner.record_length, 0),
                    IOField("second", "named", inner.record_length, inner.record_length),
                ],
            )

        record = {
            "first": {"name": "alpha", "v": 1},
            "second": {"name": "beta", "v": 2},
        }
        assert roundtrip(SPARC_32, X86_64, register, record) == record


class TestEncodeErrors:
    def _fmt(self, ctx):
        return ctx.register_format(
            "s",
            [
                IOField("n", "integer", 4, 0),
                IOField("name", "string", ctx.arch.pointer_size, ctx.arch.pointer_size),
                IOField("data", "double[n]", 8, 2 * ctx.arch.pointer_size),
            ],
            record_length=3 * max(ctx.arch.pointer_size, 4) + 8,
        )

    def test_missing_field_rejected(self, x86_context):
        fmt = self._fmt(x86_context)
        with pytest.raises(EncodeError, match="missing field"):
            x86_context.encode(fmt, {"n": 0, "data": []})

    def test_type_mismatch_rejected(self, x86_context):
        fmt = self._fmt(x86_context)
        with pytest.raises(EncodeError, match="expects a string"):
            x86_context.encode(fmt, {"name": 42, "data": [], "n": 0})

    def test_inconsistent_count_rejected(self, x86_context):
        fmt = self._fmt(x86_context)
        with pytest.raises(EncodeError, match="count field"):
            x86_context.encode(fmt, {"name": "x", "data": [1.0, 2.0], "n": 5})

    def test_non_sequence_for_array_rejected(self, x86_context):
        fmt = self._fmt(x86_context)
        with pytest.raises(EncodeError, match="expects a sequence"):
            x86_context.encode(fmt, {"name": "x", "data": 3.0, "n": 1})

    def test_out_of_range_scalar_rejected(self, x86_context):
        fmt = x86_context.register_format("t", [IOField("v", "integer", 2, 0)])
        with pytest.raises(EncodeError):
            x86_context.encode(fmt, {"v": 2**40})

    def test_wrong_static_array_length_rejected(self, x86_context):
        fmt = x86_context.register_format("t", [IOField("v", "integer[3]", 4, 0)])
        with pytest.raises(EncodeError, match="exactly 3"):
            x86_context.encode(fmt, {"v": [1, 2]})

    def test_shared_count_field_consistency_enforced(self, x86_context):
        fmt = x86_context.register_format(
            "t",
            [
                IOField("n", "integer", 4, 0),
                IOField("a", "integer[n]", 4, 8),
                IOField("b", "integer[n]", 4, 16),
            ],
            record_length=24,
        )
        with pytest.raises(EncodeError, match="differing lengths"):
            x86_context.encode(fmt, {"a": [1], "b": [1, 2]})
        message = x86_context.encode(fmt, {"a": [1, 2], "b": [3, 4]})
        assert x86_context.decode(message).values["b"] == [3, 4]


class TestDecodeErrors:
    def test_truncated_message_rejected(self, x86_context):
        fmt = x86_context.register_format("t", [IOField("v", "integer", 4, 0)])
        message = x86_context.encode(fmt, {"v": 1})
        with pytest.raises(DecodeError, match="truncated"):
            x86_context.decode(message[:-2])

    def test_short_header_rejected(self, x86_context):
        with pytest.raises(DecodeError, match="header"):
            x86_context.decode(b"\x01\x01")

    def test_unknown_format_id_rejected(self, x86_context, sparc_context):
        fmt = sparc_context.register_format("t", [IOField("v", "integer", 4, 0)])
        message = sparc_context.encode(fmt, {"v": 1})
        with pytest.raises(DecodeError, match="unknown format id"):
            x86_context.decode(message)

    def test_non_data_message_rejected(self, x86_context):
        fmt = x86_context.register_format("t", [IOField("v", "integer", 4, 0)])
        with pytest.raises(DecodeError, match="data message"):
            x86_context.decode(x86_context.format_message(fmt))

    def test_bad_protocol_version_rejected(self, x86_context):
        fmt = x86_context.register_format("t", [IOField("v", "integer", 4, 0)])
        message = bytearray(x86_context.encode(fmt, {"v": 1}))
        message[1] = 99
        with pytest.raises(DecodeError, match="version"):
            x86_context.decode(bytes(message))


class TestEncodedLayout:
    """White-box checks of the NDR payload layout."""

    def test_base_record_is_native_bytes(self):
        ctx = IOContext(SPARC_32)
        fmt = ctx.register_format(
            "t", [IOField("a", "integer", 4, 0), IOField("b", "integer", 4, 4)]
        )
        message = ctx.encode(fmt, {"a": 1, "b": 2})
        payload = message[16:]
        assert payload == b"\x00\x00\x00\x01\x00\x00\x00\x02"

    def test_little_endian_base_record(self):
        ctx = IOContext(X86_32)
        fmt = ctx.register_format("t", [IOField("a", "integer", 4, 0)])
        assert ctx.encode(fmt, {"a": 1})[16:] == b"\x01\x00\x00\x00"

    def test_compiler_padding_present_in_payload(self):
        ctx = IOContext(X86_64)
        fmt = ctx.register_format(
            "t",
            [IOField("c", "char", 1, 0), IOField("d", "double", 8, 8)],
            record_length=16,
        )
        payload = ctx.encode(fmt, {"c": "A", "d": 1.0})[16:]
        assert len(payload) == 16
        assert payload[0:1] == b"A"
        assert payload[1:8] == b"\x00" * 7  # the alignment hole travels

    def test_string_offset_points_into_variable_section(self):
        ctx = IOContext(SPARC_32)
        fmt = ctx.register_format(
            "t", [IOField("s", "string", 4, 0)], record_length=4
        )
        payload = ctx.encode(fmt, {"s": "hi"})[16:]
        offset = int.from_bytes(payload[0:4], "big")
        assert offset == 4  # directly after the base record
        assert payload[offset : offset + 3] == b"hi\x00"

    def test_variable_items_are_aligned(self):
        ctx = IOContext(SPARC_32)
        fmt = ctx.register_format(
            "t",
            [
                IOField("s", "string", 4, 0),
                IOField("n", "integer", 4, 4),
                IOField("data", "double[n]", 8, 8),
            ],
            record_length=12,
        )
        payload = ctx.encode(fmt, {"s": "x", "data": [1.0]})[16:]
        array_offset = int.from_bytes(payload[8:12], "big")
        assert array_offset % 8 == 0

    def test_encode_plan_cached_on_format(self):
        ctx = IOContext(X86_64)
        fmt = ctx.register_format("t", [IOField("v", "integer", 4, 0)])
        assert get_encode_plan(fmt) is get_encode_plan(fmt)
