"""Instance-based lazy binding: LRU caches, fused converters.

Covers the PROTOCOL §16 machinery: the shared :class:`BoundedLRU`, the
bounded :class:`ConverterCache` with the fused decode+project path, the
bounded :class:`FormatServer` decode cache, the
:class:`Compatibility` lattice, and the :class:`FormatLineage`
registry.
"""

import struct
import threading

import pytest

from repro.arch import SPARC_32, X86_64
from repro.errors import ConversionError, DecodeError, ReproError
from repro.obs import get_registry
from repro.pbio import FormatLineage, FormatServer, IOContext, IOField
from repro.pbio.codegen import (
    generate_fused_converter_source,
    make_fused_converter,
    make_generated_converter,
)
from repro.pbio.context import HEADER, HEADER_SIZE
from repro.pbio.decode import ConverterCache
from repro.pbio.evolution import (
    Compatibility,
    compare_formats,
    describe_projection,
    formats_compatible,
)
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU
from repro.pbio.oracle import make_interpreted_decoder, make_interpreted_projection


def v1_fields(arch):
    return [
        IOField("flight", "string", arch.pointer_size, 0),
        IOField("alt", "integer", 4, arch.pointer_size),
    ]


def v2_fields(arch):
    return v1_fields(arch) + [
        IOField("speed", "double", 8, arch.pointer_size + 8),
    ]


class TestBoundedLRU:
    def test_capacity_enforced_lru_order(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a: b becomes LRU
        lru.put("c", 3)
        assert "b" not in lru
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert lru.evictions == 1

    def test_counters(self):
        lru = BoundedLRU(4)
        lru.put("k", "v")
        lru.get("k")
        lru.get("absent")
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            BoundedLRU(0)

    def test_pop_is_not_an_eviction(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.pop("a")
        lru.pop("never-there")
        assert len(lru) == 0 and lru.evictions == 0

    def test_metrics_series_exported(self, fresh_registry):
        lru = BoundedLRU(1, name="testcache")
        lru.put("a", 1)
        lru.get("a")
        lru.get("miss")
        lru.put("b", 2)  # evicts a
        text = get_registry().render()
        assert 'pbio_converter_cache_hits{cache="testcache"} 1' in text
        assert 'pbio_converter_cache_misses{cache="testcache"} 1' in text
        assert 'pbio_converter_cache_evictions{cache="testcache"} 1' in text
        assert 'pbio_converter_cache_size{cache="testcache"} 1' in text

    def test_thread_safety_under_churn(self):
        lru = BoundedLRU(16)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    lru.put((base, i % 32), i)
                    lru.get((base, (i + 1) % 32))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(lru) <= 16


class TestCompiledProjection:
    """The projection compiled into the fused converter, against the
    interpreted projection of :mod:`repro.pbio.oracle`."""

    def wire_and_target(self):
        sender = IOContext(SPARC_32)
        wire = sender.register_format("track", v2_fields(SPARC_32))
        receiver = IOContext(X86_64)
        target = receiver.register_format("track", v1_fields(X86_64))
        return wire, target

    def test_compiled_matches_interpreted(self):
        wire, target = self.wire_and_target()
        record = {"flight": "DL1", "alt": 31000, "speed": 450.0}
        payload = IOContext(SPARC_32).encode(wire, record)[HEADER_SIZE:]
        compiled = make_fused_converter(wire, target)
        interpreted = make_interpreted_projection(wire, target)
        assert compiled(payload) == interpreted(record) == {
            "flight": "DL1", "alt": 31000,
        }

    def test_source_is_inspectable(self):
        wire, target = self.wire_and_target()
        source = generate_fused_converter_source(wire, target)
        assert source.startswith("def convert(payload")
        assert "'flight':" in source
        assert "'speed'" not in source

    def test_defaults_never_alias(self):
        sender = IOContext(SPARC_32)
        wire = sender.register_format(
            "t", [IOField("a", "integer", 4, 0)]
        )
        receiver = IOContext(X86_64)
        target = receiver.register_format(
            "t",
            [IOField("a", "integer", 4, 0), IOField("xs", "integer[3]", 4, 4)],
        )
        payloads = [
            sender.encode(wire, {"a": a})[HEADER_SIZE:] for a in (1, 2)
        ]
        for project in (
            make_fused_converter(wire, target),
            make_interpreted_decoder(wire, target),
        ):
            first = project(payloads[0])
            second = project(payloads[1])
            first["xs"].append(99)
            assert second["xs"] == [0, 0, 0]


class TestFusedConverter:
    def formats(self):
        sender = IOContext(SPARC_32)
        wire = sender.register_format("track", v2_fields(SPARC_32))
        receiver = IOContext(X86_64)
        target = receiver.register_format("track", v1_fields(X86_64))
        return sender, wire, receiver, target

    def test_fused_equals_decode_then_project(self):
        sender, wire, receiver, target = self.formats()
        record = {"flight": "DL1", "alt": 31000, "speed": 450.0}
        message = sender.encode(wire, record)
        payload = message[HEADER_SIZE:]
        fused = make_fused_converter(wire, target)
        two_step = make_interpreted_projection(wire, target)
        base = make_generated_converter(wire)
        assert fused(payload) == two_step(base(payload)) == {
            "flight": "DL1", "alt": 31000,
        }

    def test_fused_skips_unused_dynamic_arrays(self):
        sender = IOContext(SPARC_32)
        wire = sender.register_format(
            "t",
            [
                IOField("n", "integer", 4, 0),
                IOField("xs", "double[n]", 4, 4),
                IOField("keep", "integer", 4, 8),
            ],
        )
        receiver = IOContext(X86_64)
        target = receiver.register_format("t", [IOField("keep", "integer", 4, 0)])
        source = generate_fused_converter_source(wire, target)
        # The dropped array's unpack prologue must not be emitted.
        assert "a0" not in source

    def test_context_fused_and_interpreted_agree(self):
        sender, wire, receiver, target = self.formats()
        message = sender.encode(wire, {"flight": "X", "alt": 7, "speed": 1.25})
        receiver.learn_format(wire.to_wire_metadata())
        fused = receiver.decode(message, expect="track").values
        interpreted = make_interpreted_decoder(wire, target)(message[HEADER_SIZE:])
        assert fused == interpreted == {"flight": "X", "alt": 7}

    @pytest.fixture
    def broken_fusion(self, monkeypatch):
        def fail(wire_format, target_format):
            raise RuntimeError("fusion unavailable")

        monkeypatch.setattr("repro.pbio.decode.make_fused_converter", fail)

    def test_forced_fusion_failure_propagates_uncounted(
        self, broken_fusion, fresh_registry
    ):
        """A generator failure is a typed error, not a slower path."""
        sender, wire, receiver, _ = self.formats()
        receiver.learn_format(wire.to_wire_metadata())
        message = sender.encode(wire, {"flight": "Z", "alt": 3, "speed": 0.5})
        with pytest.raises(ConversionError, match="fusion unavailable"):
            receiver.decode(message, expect="track")
        snap = fresh_registry.snapshot()["pbio_codegen_total"]
        assert (("kind", "fused"), ("event", "fallback")) not in snap
        assert receiver.converter_builds == 0


class TestConverterCacheBounds:
    def test_cache_is_bounded(self):
        cache = ConverterCache(4)
        context = IOContext(SPARC_32, converter_cache=cache)
        for i in range(10):
            fmt = IOFormat(
                f"f{i}", [IOField("v", "integer", 4, 0)], SPARC_32, catalog={}
            )
            cache.lookup(fmt)
        assert len(cache) == 4
        assert cache.stats()["evictions"] == 6
        assert context.converter_builds == 10

    def test_shared_cache_compiles_once(self):
        cache = ConverterCache()
        a = IOContext(X86_64, converter_cache=cache)
        b = IOContext(X86_64, converter_cache=cache)
        sender = IOContext(SPARC_32)
        wire = sender.register_format("track", v1_fields(SPARC_32))
        message = sender.encode(wire, {"flight": "A", "alt": 1})
        for receiver in (a, b):
            receiver.register_format("track", v1_fields(X86_64))
            receiver.learn_format(wire.to_wire_metadata())
            receiver.decode(message, expect="track")
        assert cache.builds == 1  # second context reused the converter

    def test_invalidate_by_format_id(self):
        cache = ConverterCache()
        sender = IOContext(SPARC_32)
        wire = sender.register_format("track", v1_fields(SPARC_32))
        cache.lookup(wire)
        assert len(cache) == 1
        cache.invalidate(wire.format_id)
        assert len(cache) == 0

    def test_reregistration_survives_without_invalidation(self):
        """Content-addressed ids: identical metadata -> same cache entry."""
        cache = ConverterCache()
        first = IOContext(SPARC_32, converter_cache=cache)
        wire = first.register_format("track", v1_fields(SPARC_32))
        cache.lookup(wire)
        again = IOContext(SPARC_32, converter_cache=cache)
        wire_again = again.register_format("track", v1_fields(SPARC_32))
        cache.lookup(wire_again)
        assert cache.builds == 1

    def test_unknown_mode_rejected(self):
        """The key is (wire id, target id); no mode selects a converter."""
        cache = ConverterCache()
        fmt = IOFormat("f", [IOField("v", "integer", 4, 0)], SPARC_32, catalog={})
        with pytest.raises(TypeError):
            cache.lookup(fmt, None, "interpreted")

    def test_churn_10k_distinct_formats_holds_cap(self):
        """10k distinct wire formats cannot grow the cache past its cap.

        Every format has the same layout but a distinct name, so each
        has a distinct content-addressed id and the same payload bytes —
        the header's format id is swapped per message.
        """
        capacity = 64
        receiver = IOContext(
            X86_64, converter_capacity=capacity, format_server=FormatServer()
        )
        template = IOFormat(
            "fmt0", [IOField("v", "integer", 4, 0)], X86_64, catalog={}
        )
        base_message = bytearray(
            HEADER.pack(1, 1, 0, 4, template.format_id)
            + struct.pack("<i", 42)
        )
        for i in range(10_000):
            fmt = IOFormat(
                f"fmt{i}", [IOField("v", "integer", 4, 0)], X86_64, catalog={}
            )
            receiver._wire_formats[fmt.format_id] = fmt
            base_message[8:16] = fmt.format_id
            decoded = receiver.decode(bytes(base_message))
            assert decoded.values == {"v": 42}
        stats = receiver.converter_cache_stats()
        assert stats["size"] <= capacity
        assert stats["evictions"] >= 10_000 - capacity


class TestFormatServerBoundedCache:
    def test_decode_cache_bounded(self):
        server = FormatServer(decode_capacity=8)
        ids = []
        for i in range(20):
            fmt = IOFormat(
                f"f{i}", [IOField("v", "integer", 4, 0)], X86_64, catalog={}
            )
            server.register(fmt)
            ids.append(fmt.format_id)
        for format_id in ids:
            server.resolve(format_id)
        stats = server.decode_cache_stats()
        assert stats["size"] <= 8
        assert stats["evictions"] >= 12
        # Evicted entries still resolve (from the raw metadata).
        assert server.resolve(ids[0]).name == "f0"

    def test_hot_format_hits(self):
        server = FormatServer()
        fmt = IOFormat("f", [IOField("v", "integer", 4, 0)], X86_64, catalog={})
        server.register(fmt)
        for _ in range(5):
            server.resolve(fmt.format_id)
        assert server.decode_cache_stats()["hits"] == 4


class TestCompatibilityLattice:
    def test_identity_same_format(self):
        context = IOContext(SPARC_32)
        fmt = context.register_format("track", v1_fields(SPARC_32))
        assert compare_formats(fmt, fmt) is Compatibility.IDENTITY

    def test_equivalent_same_fields_other_arch(self):
        wire = IOContext(SPARC_32).register_format("track", v1_fields(SPARC_32))
        native = IOContext(X86_64).register_format("track", v1_fields(X86_64))
        relation = compare_formats(wire, native)
        assert relation is Compatibility.EQUIVALENT
        assert relation.compatible and not relation.projection_needed
        assert formats_compatible(wire, native)

    def test_reordered_fields_are_projection_not_identity(self):
        """The old set-equality predicate called these 'identity'."""
        a = IOContext(X86_64).register_format(
            "t", [IOField("x", "integer", 4, 0), IOField("y", "double", 8, 8)]
        )
        b = IOContext(X86_64).register_format(
            "t", [IOField("y", "double", 8, 0), IOField("x", "integer", 4, 8)]
        )
        assert compare_formats(a, b) is Compatibility.PROJECTION
        assert not formats_compatible(a, b)

    def test_retyped_field_is_projection(self):
        a = IOContext(X86_64).register_format(
            "t", [IOField("x", "integer", 4, 0)]
        )
        b = IOContext(X86_64).register_format(
            "t", [IOField("x", "double", 8, 0)]
        )
        assert compare_formats(a, b) is Compatibility.PROJECTION

    def test_added_field_is_projection(self):
        wire = IOContext(SPARC_32).register_format("track", v2_fields(SPARC_32))
        native = IOContext(X86_64).register_format("track", v1_fields(X86_64))
        relation = compare_formats(wire, native)
        assert relation is Compatibility.PROJECTION
        assert relation.compatible  # projection cannot fail
        assert relation.projection_needed

    def test_nested_relation_bounds_whole(self):
        def make(arch, with_z):
            context = IOContext(arch)
            fields = [IOField("x", "integer", 4, 0), IOField("y", "integer", 4, 4)]
            if with_z:
                fields.append(IOField("z", "integer", 4, 8))
            context.register_format("pt", fields)
            return context.register_format(
                "shape", [IOField("p", "pt", 12, 0), IOField("k", "integer", 4, 12)]
            )

        same = compare_formats(make(X86_64, False), make(X86_64, False))
        assert same is Compatibility.IDENTITY
        evolved = compare_formats(make(X86_64, False), make(X86_64, True))
        assert evolved is Compatibility.PROJECTION

    def test_describe_projection_lines(self):
        wire = IOContext(SPARC_32).register_format("track", v2_fields(SPARC_32))
        native = IOContext(X86_64).register_format("track", v1_fields(X86_64))
        lines = describe_projection(wire, native)
        assert any(line.startswith("copy") and "flight" in line for line in lines)
        assert any(line.startswith("drop") and "speed" in line for line in lines)
        back = describe_projection(native, wire)
        assert any(line.startswith("default") and "speed" in line for line in back)


class TestFormatLineage:
    def test_versions_chain_by_name(self):
        lineage = FormatLineage()
        v1 = IOContext(SPARC_32).register_format("track", v1_fields(SPARC_32))
        v2 = IOContext(X86_64).register_format("track", v2_fields(X86_64))
        assert lineage.register(v1) == 1
        assert lineage.register(v2) == 2
        assert lineage.ancestry(v2.format_id) == [v2.format_id, v1.format_id]
        assert lineage.latest("track").format_id == v2.format_id

    def test_registration_idempotent(self):
        lineage = FormatLineage()
        fmt = IOContext(SPARC_32).register_format("track", v1_fields(SPARC_32))
        assert lineage.register(fmt) == 1
        assert lineage.register(fmt) == 1
        assert len(lineage) == 1

    def test_explicit_parent(self):
        lineage = FormatLineage()
        a = IOContext(SPARC_32).register_format("a", v1_fields(SPARC_32))
        b = IOContext(SPARC_32).register_format("b", v2_fields(SPARC_32))
        lineage.register(a)
        assert lineage.register(b, parent=a) == 2
        assert lineage.ancestry(b.format_id) == [b.format_id, a.format_id]

    def test_describe_document(self):
        lineage = FormatLineage()
        v1 = IOContext(SPARC_32).register_format("track", v1_fields(SPARC_32))
        v2 = IOContext(X86_64).register_format("track", v2_fields(X86_64))
        lineage.register(v1)
        lineage.register(v2)
        document = lineage.describe(v2.format_id)
        assert document["name"] == "track" and document["version"] == 2
        assert document["parent"] == v1.format_id.hex()
        assert document["ancestors"] == [
            {"format": v1.format_id.hex(), "name": "track", "version": 1}
        ]

    def test_compatibility_document(self):
        lineage = FormatLineage()
        v1 = IOContext(X86_64).register_format("track", v1_fields(X86_64))
        v2 = IOContext(X86_64).register_format("track", v2_fields(X86_64))
        lineage.register(v1)
        lineage.register(v2)
        answer = lineage.compatibility(v2.format_id, v1.format_id)
        assert answer["relation"] == "projection"
        assert answer["compatible"] and answer["projection_needed"]
        assert not answer["identity"]
        same = lineage.compatibility(v1.format_id, v1.format_id)
        assert same["relation"] == "identity" and same["identity"]

    def test_unknown_id_raises(self):
        lineage = FormatLineage()
        with pytest.raises(DecodeError):
            lineage.describe(b"\x00" * 8)

    def test_documents_for_replication(self):
        lineage = FormatLineage()
        fmt = IOContext(SPARC_32).register_format("track", v1_fields(SPARC_32))
        lineage.register(fmt)
        documents = lineage.documents()
        assert f"/lineage/{fmt.format_id.hex()}" in documents

    def test_context_populates_lineage(self):
        lineage = FormatLineage()
        sender = IOContext(SPARC_32, lineage=lineage)
        v1 = sender.register_format("track", v1_fields(SPARC_32))
        receiver = IOContext(X86_64, lineage=lineage)
        receiver.learn_format(v1.to_wire_metadata())
        v2 = receiver.register_format("track", v2_fields(X86_64))
        assert lineage.ancestry(v2.format_id) == [v2.format_id, v1.format_id]
