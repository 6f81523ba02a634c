"""Property-based roundtrip invariants across the whole stack.

For any schema the metadata grammar can express and any record fitting
it, and for any (sender, receiver) architecture pair:

- NDR encode/decode is the identity on records;
- generated and interpreted converters agree;
- XDR and text XML round-trip the same record;
- format metadata survives serialization with its identity intact.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, XDRCodec, XMLTextCodec, XML2Wire
from repro.arch import ALPHA, SPARC_32, SPARC_64, X86_32, X86_64
from repro.pbio.codegen import make_generated_converter
from repro.pbio.encode import encode_record
from repro.pbio.oracle import make_interpreted_converter
from repro.pbio.format import IOFormat

from tests.property.strategies import schema_and_record

ARCHES = [X86_32, X86_64, SPARC_32, SPARC_64, ALPHA]

arch_pairs = st.tuples(st.sampled_from(ARCHES), st.sampled_from(ARCHES))

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def register(schema, format_name, arch):
    tool = XML2Wire(IOContext(arch))
    tool.register_schema(schema)
    return tool.context, tool.context.lookup_format(format_name)


class TestNDRRoundtrip:
    @RELAXED
    @given(case=schema_and_record(), pair=arch_pairs)
    def test_cross_architecture_identity(self, case, pair):
        schema, format_name, record = case
        sender_arch, receiver_arch = pair
        sender, fmt = register(schema, format_name, sender_arch)
        message = sender.encode(fmt, record)
        receiver = IOContext(receiver_arch)
        receiver.learn_format(fmt.to_wire_metadata())
        assert receiver.decode(message).values == record

    @RELAXED
    @given(case=schema_and_record(nested=True), pair=arch_pairs)
    def test_nested_cross_architecture_identity(self, case, pair):
        schema, format_name, record = case
        sender_arch, receiver_arch = pair
        sender, fmt = register(schema, format_name, sender_arch)
        message = sender.encode(fmt, record)
        receiver = IOContext(receiver_arch)
        receiver.learn_format(fmt.to_wire_metadata())
        assert receiver.decode(message).values == record

    @RELAXED
    @given(case=schema_and_record(), arch=st.sampled_from(ARCHES))
    def test_generated_equals_interpreted(self, case, arch):
        schema, format_name, record = case
        _, fmt = register(schema, format_name, arch)
        payload = encode_record(fmt, record)
        assert make_generated_converter(fmt)(payload) == \
            make_interpreted_converter(fmt)(payload)

    @RELAXED
    @given(case=schema_and_record(), arch=st.sampled_from(ARCHES))
    def test_encode_deterministic(self, case, arch):
        schema, format_name, record = case
        sender, fmt = register(schema, format_name, arch)
        payload_one = encode_record(fmt, record)
        payload_two = encode_record(fmt, record)
        assert payload_one == payload_two


class TestBaselineRoundtrips:
    @RELAXED
    @given(case=schema_and_record(), arch=st.sampled_from(ARCHES))
    def test_xdr_identity(self, case, arch):
        schema, format_name, record = case
        _, fmt = register(schema, format_name, arch)
        codec = XDRCodec(fmt)
        assert codec.decode(codec.encode(record)) == record

    @RELAXED
    @given(case=schema_and_record(), arch=st.sampled_from(ARCHES))
    def test_xmltext_identity(self, case, arch):
        schema, format_name, record = case
        _, fmt = register(schema, format_name, arch)
        codec = XMLTextCodec(fmt)
        assert codec.decode(codec.encode(record)) == record

    @RELAXED
    @given(case=schema_and_record(), arch=st.sampled_from(ARCHES))
    def test_cdr_identity(self, case, arch):
        from repro.wire import CDRCodec

        schema, format_name, record = case
        _, fmt = register(schema, format_name, arch)
        codec = CDRCodec(fmt)
        assert codec.decode(codec.encode(record)) == record


class TestMetadataProperties:
    @RELAXED
    @given(case=schema_and_record(nested=True), arch=st.sampled_from(ARCHES))
    def test_wire_metadata_roundtrip_preserves_identity(self, case, arch):
        schema, format_name, record = case
        _, fmt = register(schema, format_name, arch)
        again = IOFormat.from_wire_metadata(fmt.to_wire_metadata())
        assert again.format_id == fmt.format_id
        assert again.record_length == fmt.record_length
        assert [f.name for f in again.fields] == [f.name for f in fmt.fields]

    @RELAXED
    @given(case=schema_and_record(), pair=arch_pairs)
    def test_format_ids_differ_across_architectures_when_layouts_do(
        self, case, pair
    ):
        schema, format_name, record = case
        arch_a, arch_b = pair
        _, fmt_a = register(schema, format_name, arch_a)
        _, fmt_b = register(schema, format_name, arch_b)
        if arch_a == arch_b:
            assert fmt_a.format_id == fmt_b.format_id
        else:
            # Same name but potentially different layouts; ids must match
            # exactly when the full metadata matches.
            same_metadata = fmt_a.to_wire_metadata() == fmt_b.to_wire_metadata()
            assert (fmt_a.format_id == fmt_b.format_id) == same_metadata

    @RELAXED
    @given(case=schema_and_record(), arch=st.sampled_from(ARCHES))
    def test_registration_idempotent(self, case, arch):
        schema, format_name, record = case
        tool = XML2Wire(IOContext(arch))
        first = tool.register_schema(schema)
        second = tool.register_schema(schema)
        assert [f.format_id for f in first] == [f.format_id for f in second]
