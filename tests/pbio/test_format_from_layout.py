"""Unit tests for format_from_layout and the standalone decode API."""

import pytest

from repro.arch import SPARC_32, X86_64, FieldDecl, layout_struct
from repro.errors import DecodeError, FormatRegistrationError
from repro.pbio import IOContext, format_from_layout
from repro.pbio.decode import ConverterCache, decode_payload
from repro.pbio.encode import encode_record
from repro.pbio.oracle import make_interpreted_converter


class TestFormatFromLayout:
    def _layout(self, arch):
        return layout_struct(
            arch,
            "track",
            [
                FieldDecl("flight", "char*"),
                FieldDecl("alt", "int"),
                FieldDecl("coords", "double", count=2),
                FieldDecl("n", "int"),
                FieldDecl("speeds", "double*"),
            ],
        )

    def test_builds_format_with_layout_offsets(self):
        layout = self._layout(SPARC_32)
        fmt = format_from_layout(
            "track",
            layout,
            {
                "flight": "string",
                "alt": "integer",
                "coords": "double[2]",
                "n": "integer",
                "speeds": "double[n]",
            },
            element_sizes={"speeds": 8},
        )
        assert fmt.record_length == layout.size
        assert fmt.field("coords").offset == layout.offsetof("coords")
        assert fmt.field("speeds").size == 8  # element size, not pointer

    def test_roundtrip_through_built_format(self):
        layout = self._layout(SPARC_32)
        fmt = format_from_layout(
            "track",
            layout,
            {
                "flight": "string",
                "alt": "integer",
                "coords": "double[2]",
                "n": "integer",
                "speeds": "double[n]",
            },
            element_sizes={"speeds": 8},
        )
        record = {
            "flight": "DL1", "alt": 31000, "coords": [33.6, -84.4],
            "n": 2, "speeds": [450.0, 455.5],
        }
        payload = encode_record(fmt, record)
        assert decode_payload(fmt, payload) == record

    def test_missing_type_rejected(self):
        layout = layout_struct(SPARC_32, "t", [FieldDecl("x", "int")])
        with pytest.raises(FormatRegistrationError, match="no type given"):
            format_from_layout("t", layout, {})

    def test_dynamic_array_needs_element_size(self):
        layout = layout_struct(
            SPARC_32, "t", [FieldDecl("n", "int"), FieldDecl("d", "double*")]
        )
        with pytest.raises(FormatRegistrationError, match="element_sizes"):
            format_from_layout("t", layout, {"n": "integer", "d": "double[n]"})

    def test_nested_via_catalog(self):
        inner_layout = layout_struct(X86_64, "pt", [FieldDecl("x", "double")])
        inner = format_from_layout("pt", inner_layout, {"x": "double"})
        outer_layout = layout_struct(
            X86_64, "seg", [FieldDecl("a", inner_layout), FieldDecl("b", inner_layout)]
        )
        outer = format_from_layout(
            "seg", outer_layout, {"a": "pt", "b": "pt"}, catalog={"pt": inner}
        )
        record = {"a": {"x": 1.0}, "b": {"x": 2.0}}
        assert decode_payload(outer, encode_record(outer, record)) == record


class TestDecodePayloadAPI:
    def test_short_payload_rejected(self, x86_context):
        from repro.pbio import IOField

        fmt = x86_context.register_format("t", [IOField("v", "double", 8, 0)])
        with pytest.raises(DecodeError, match="shorter than"):
            decode_payload(fmt, b"\x00\x00")

    def test_shared_cache_reused(self, x86_context):
        from repro.pbio import IOField

        fmt = x86_context.register_format("t", [IOField("v", "integer", 4, 0)])
        payload = encode_record(fmt, {"v": 7})
        cache = ConverterCache()
        decode_payload(fmt, payload, cache=cache)
        decode_payload(fmt, payload, cache=cache)
        assert cache.builds == 1

    def test_interpreted_mode(self, x86_context):
        from repro.pbio import IOField

        fmt = x86_context.register_format("t", [IOField("v", "integer", 4, 0)])
        payload = encode_record(fmt, {"v": 9})
        assert make_interpreted_converter(fmt)(payload) == {"v": 9}


class TestXDRStaticStringArrays:
    def test_static_string_array_roundtrip(self, x86_context):
        from repro.pbio import IOField
        from repro.wire import XDRCodec

        fmt = x86_context.register_format(
            "t", [IOField("names", "string[3]", 8, 0)]
        )
        codec = XDRCodec(fmt)
        record = {"names": ["alpha", None, ""]}
        assert codec.decode(codec.encode(record)) == record
