"""Unit tests for the generated (sender-side DCG) encoder."""

import pytest

from repro import XML2Wire
from repro.arch import SPARC_32, X86_64
from repro.errors import EncodeError
from repro.pbio import IOContext, IOField
from repro.pbio.codegen import generate_encoder_source, make_generated_encoder
from repro.pbio.encode import encode_record

from repro.workloads import ASDOFF_A_SCHEMA, ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA

from tests.golden import vectors
from tests.pbio.conftest import ASDOFF_RECORD, register_asdoff


class TestByteParity:
    def test_identical_to_plan_on_paper_structure(self, any_arch):
        ctx = IOContext(any_arch)
        fmt = register_asdoff(ctx)
        generated = encode_record(fmt, ASDOFF_RECORD, mode="generated")
        interpreted = encode_record(fmt, ASDOFF_RECORD, mode="interpreted")
        assert generated == interpreted

    def test_identical_with_nulls_and_empties(self, sparc_context):
        fmt = sparc_context.register_format(
            "t",
            [
                IOField("s", "string", 4, 0),
                IOField("n", "integer", 4, 4),
                IOField("d", "double[n]", 8, 8),
            ],
            record_length=16,
        )
        for record in (
            {"s": None, "d": []},
            {"s": "", "d": [1.0]},
            {"s": "x", "d": None},
        ):
            assert encode_record(fmt, record, mode="generated") == encode_record(
                fmt, dict(record), mode="interpreted"
            )

    def test_identical_on_nested_with_char_buffers(self, sparc_context):
        inner = sparc_context.register_format(
            "inner",
            [IOField("tag", "char[4]", 1, 0), IOField("c", "char", 1, 4),
             IOField("b", "boolean", 1, 5)],
            record_length=8,
        )
        fmt = sparc_context.register_format(
            "outer", [IOField("pair", "inner[2]", 8, 0)], record_length=16
        )
        record = {"pair": [{"tag": "ab", "c": "x", "b": True},
                           {"tag": "cdef", "c": "y", "b": False}]}
        assert encode_record(fmt, record, mode="generated") == encode_record(
            fmt, record, mode="interpreted"
        )


class TestGeneratedSource:
    def test_single_pack_for_fixed_region(self, sparc_context):
        fmt = register_asdoff(sparc_context)
        source = generate_encoder_source(fmt)
        assert source.count("return pack(") == 1

    def test_offsets_absent_because_order_is_baked(self, sparc_context):
        """The encoder never mentions offsets: the pack format string of
        the plan already encodes them as pads."""
        fmt = register_asdoff(sparc_context)
        source = generate_encoder_source(fmt)
        assert "offset" not in source


class TestErrorParity:
    """The generated path must raise the same errors as the plan."""

    @pytest.fixture
    def fmt(self, x86_context):
        return x86_context.register_format(
            "t",
            [
                IOField("n", "integer", 4, 0),
                IOField("name", "string", 8, 8),
                IOField("data", "double[n]", 8, 16),
                IOField("trio", "integer[3]", 4, 24),
            ],
            record_length=40,
        )

    def test_missing_field(self, fmt):
        with pytest.raises(EncodeError, match="missing field"):
            encode_record(fmt, {"name": "x", "data": []})

    def test_string_type_mismatch(self, fmt):
        with pytest.raises(EncodeError, match="expects a string"):
            encode_record(fmt, {"name": 5, "data": [], "trio": [1, 2, 3]})

    def test_count_mismatch(self, fmt):
        with pytest.raises(EncodeError, match="count field"):
            encode_record(
                fmt, {"name": "x", "data": [1.0], "n": 3, "trio": [1, 2, 3]}
            )

    def test_static_array_length(self, fmt):
        with pytest.raises(EncodeError, match="exactly 3"):
            encode_record(fmt, {"name": "x", "data": [], "trio": [1]})

    def test_out_of_range_scalar(self, x86_context):
        fmt = x86_context.register_format("s", [IOField("v", "integer", 2, 0)])
        with pytest.raises(EncodeError):
            encode_record(fmt, {"v": 2**40})

    def test_unknown_mode_rejected(self, fmt):
        with pytest.raises(EncodeError, match="unknown encode mode"):
            encode_record(fmt, {}, mode="quantum")


class TestFallbackCorrectness:
    def test_enum_members_encode_identically(self, x86_context):
        import enum

        class Color(enum.IntEnum):
            RED = 3

        fmt = x86_context.register_format(
            "t", [IOField("e", "enumeration", 4, 0)]
        )
        generated = encode_record(fmt, {"e": Color.RED}, mode="generated")
        interpreted = encode_record(fmt, {"e": Color.RED}, mode="interpreted")
        assert generated == interpreted
        assert x86_context.decode(
            x86_context.encode(fmt, {"e": Color.RED})
        ).values == {"e": 3}

    def test_char_given_as_int_falls_back_identically(self, x86_context):
        """Int-valued chars miss the generated fast path's str handling;
        the fallback must produce the same bytes the plan does."""
        fmt = x86_context.register_format("t", [IOField("c", "char", 1, 0)])
        generated = encode_record(fmt, {"c": 65}, mode="generated")
        interpreted = encode_record(fmt, {"c": 65}, mode="interpreted")
        assert generated == interpreted == b"A"


#: Golden vector name -> (schema document, format the record is encoded as).
XML_VECTORS = {
    "asdoff_a": (ASDOFF_A_SCHEMA, "ASDOffEvent"),
    "asdoff_b": (ASDOFF_B_SCHEMA, "ASDOffEvent"),
    "asdoff_cd": (ASDOFF_CD_SCHEMA, "threeASDOffs"),
}


def encoder_misses(registry) -> dict:
    snap = registry.snapshot().get("pbio_codegen_total", {})
    return {
        kind: snap.get((("kind", kind), ("event", "miss")), 0)
        for kind in ("encoder", "encode_into")
    }


class TestCompiledOnFirstEncode:
    """Registration compiles no encoder; the first encode compiles the
    one it uses, and its output is already byte-exact."""

    def test_receiver_binding_compiles_no_encoder(self, fresh_registry):
        golden_data = vectors.data_path("asdoff_b").read_bytes()
        sender = IOContext(SPARC_32)
        XML2Wire(sender).register_schema(ASDOFF_B_SCHEMA)
        wire = sender.lookup_format("ASDOffEvent")
        receiver = IOContext(X86_64)
        XML2Wire(receiver).register_schema(ASDOFF_B_SCHEMA)
        native = receiver.lookup_format("ASDOffEvent")
        receiver.learn_format(wire.to_wire_metadata())
        decoded = receiver.decode(golden_data, expect="ASDOffEvent").values
        assert decoded["fltNum"] == vectors.RECORD_B["fltNum"]
        assert encoder_misses(fresh_registry) == {"encoder": 0, "encode_into": 0}
        for fmt in (wire, native):
            assert not hasattr(fmt, "_generated_encoder")
            assert not hasattr(fmt, "_generated_encode_into")

    @pytest.mark.parametrize("name", sorted(XML_VECTORS))
    def test_first_encode_is_byte_exact(self, name, fresh_registry):
        schema, format_name = XML_VECTORS[name]
        record = vectors.VECTORS[name][1]
        context = IOContext(SPARC_32)
        XML2Wire(context).register_schema(schema)
        assert context.encode(format_name, record) == vectors.data_path(name).read_bytes()
        assert encoder_misses(fresh_registry) == {"encoder": 1, "encode_into": 0}

    @pytest.mark.parametrize("name", sorted(XML_VECTORS))
    def test_first_encode_into_is_byte_exact(self, name, fresh_registry):
        schema, format_name = XML_VECTORS[name]
        record = vectors.VECTORS[name][1]
        golden_data = vectors.data_path(name).read_bytes()
        context = IOContext(SPARC_32)
        XML2Wire(context).register_schema(schema)
        buffer = bytearray(len(golden_data) + 8)
        length = context.encode_into(format_name, record, buffer, 8)
        assert bytes(buffer[8 : 8 + length]) == golden_data
        assert encoder_misses(fresh_registry) == {"encoder": 0, "encode_into": 1}
