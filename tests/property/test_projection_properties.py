"""Property-based parity for fused converters against the oracle.

For any (wire schema, evolved target schema) pair the metadata grammar
can express, any record fitting the wire schema, and any (sender,
receiver) architecture pair:

- the projection compiled into the fused converter and the interpreted
  projection of :mod:`repro.pbio.oracle` produce identical records;
- the fused decode+project converter and the interpreted
  decode-then-project composition produce identical records;
- defaulted mutable values are fresh objects on every call (no
  aliasing between decodes);
- when :func:`compare_formats` says no projection is needed, projecting
  is the identity.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, XML2Wire
from repro.arch import ALPHA, SPARC_32, SPARC_64, X86_32, X86_64
from repro.pbio.codegen import generate_fused_converter_source, make_fused_converter
from repro.pbio.context import HEADER_SIZE
from repro.pbio.evolution import Compatibility, compare_formats
from repro.pbio.oracle import make_interpreted_decoder, make_interpreted_projection

from tests.property.strategies import evolution_case

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


class TestProjectionParity:
    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_compiled_equals_interpreted(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        _, target = register(target_schema, name, pair[1])
        decoded = IOContext(pair[1])
        decoded.learn_format(wire.to_wire_metadata())
        message = sender.encode(wire, record)
        wire_shaped = decoded.decode(message).values
        compiled = make_fused_converter(wire, target)
        interpreted = make_interpreted_projection(wire, target)
        assert compiled(message[HEADER_SIZE:]) == interpreted(wire_shaped)

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_fused_equals_interpreted_composition(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        receiver, target = register(target_schema, name, pair[1])
        receiver.learn_format(wire.to_wire_metadata())
        message = sender.encode(wire, record)
        fused = receiver.decode(message, expect=name).values
        interpreted = make_interpreted_decoder(wire, target)(message[HEADER_SIZE:])
        assert fused == interpreted

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_fused_equals_two_step(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        fused_rx, target = register(target_schema, name, pair[1])
        message = sender.encode(wire, record)
        fused_rx.learn_format(wire.to_wire_metadata())
        project = make_interpreted_projection(wire, target)
        assert fused_rx.decode(message, expect=name).values == project(
            fused_rx.decode(message).values
        )

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_defaults_are_fresh_per_decode(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        receiver, _ = register(target_schema, name, pair[1])
        receiver.learn_format(wire.to_wire_metadata())
        message = sender.encode(wire, record)
        first = receiver.decode(message, expect=name).values
        snapshot = copy.deepcopy(first)
        for value in first.values():
            if isinstance(value, list):
                value.append("tampered")
            elif isinstance(value, dict):
                value["tampered"] = True
        second = receiver.decode(message, expect=name).values
        assert second == snapshot

    @RELAXED
    @given(case=evolution_case(), arch=st.sampled_from(ARCHES))
    def test_projection_source_always_compiles(self, case, arch):
        wire_schema, target_schema, name, record = case
        _, wire = register(wire_schema, name, arch)
        _, target = register(target_schema, name, arch)
        source = generate_fused_converter_source(wire, target)
        compile(source, "<projection>", "exec")


class TestCompatibilityConsistency:
    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_no_projection_needed_means_identity_projection(self, case, pair):
        wire_schema, target_schema, name, record = case
        sender, wire = register(wire_schema, name, pair[0])
        _, target = register(target_schema, name, pair[1])
        if compare_formats(wire, target) is Compatibility.PROJECTION:
            return
        decoded = IOContext(pair[1])
        decoded.learn_format(wire.to_wire_metadata())
        wire_shaped = decoded.decode(sender.encode(wire, record)).values
        assert make_interpreted_projection(wire, target)(wire_shaped) == wire_shaped

    @RELAXED
    @given(case=evolution_case(), arch=st.sampled_from(ARCHES))
    def test_self_comparison_is_identity(self, case, arch):
        wire_schema, _, name, record = case
        _, wire = register(wire_schema, name, arch)
        assert compare_formats(wire, wire) is Compatibility.IDENTITY

    @RELAXED
    @given(case=evolution_case(), pair=arch_pairs)
    def test_relation_is_architecture_symmetric(self, case, pair):
        """PROJECTION-ness depends on field sets, not on direction of
        the architecture change."""
        wire_schema, target_schema, name, record = case
        _, a = register(wire_schema, name, pair[0])
        _, b = register(wire_schema, name, pair[1])
        relation_ab = compare_formats(a, b)
        relation_ba = compare_formats(b, a)
        assert (relation_ab is Compatibility.PROJECTION) == (
            relation_ba is Compatibility.PROJECTION
        )
