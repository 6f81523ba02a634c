"""Decoding NDR payloads: converter selection and bounded caching.

Decoding is driven entirely by the *wire* format's metadata (which
arrived once, out-of-band or in-band); the receiver picks a converter:

- **generated** (default): the dynamically generated routine from
  :mod:`~repro.pbio.codegen`, built on first use per wire format and
  cached — PBIO's "custom routines created on-the-fly";
- **interpreted**: the per-record metadata-walking fallback, kept for
  the A1 ablation and as an executable specification of the wire format.

If the receiver's *native* format differs from the wire format (format
evolution: the sender added or removed fields), the generated path
compiles a **fused** decode+project converter — the wire record decodes
straight into the receiver's native shape with no intermediate
wire-shaped dict — while the interpreted path composes the interpreted
converter with the interpreted projection (the executable
specification the fused routine must match).

The cache is *instance-based* (PROTOCOL §16): converters are compiled
only for the (wire format id, native format id) pairs traffic actually
presents, and a bounded, thread-safe LRU (:class:`~repro.pbio.lru.BoundedLRU`)
guarantees that pairs traffic no longer touches cannot hold compiled
code forever.  Content-addressed format ids make the entries survive
re-registration of identical metadata for free.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DecodeError
from repro.obs.metrics import get_registry
from repro.pbio.codegen import (
    make_fused_converter,
    make_generated_converter,
    make_interpreted_converter,
)
from repro.pbio.evolution import make_interpreted_projection
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU

Converter = Callable[[bytes], dict]

_MODES = ("generated", "interpreted")

#: Default bound on live converters per cache.  Each entry is one
#: compiled function (a few KB); 1024 pairs comfortably covers a server
#: speaking to a heterogeneous fleet while capping a 10k-format churn.
DEFAULT_CONVERTER_CAPACITY = 1024


class ConverterCache:
    """Bounded cache of converters keyed by (wire id, target id, mode).

    One instance lives in each :class:`~repro.pbio.context.IOContext`
    by default; sharing one cache across contexts is safe (converters
    are pure functions) and supported — pass the same instance to
    several contexts to share compiled pairs across connections.

    ``use_fused`` is the tri-state codegen switch for the evolved-record
    path: ``None`` (default) fuses decode+project in generated mode and
    falls back to compose-then-project if fusion fails, counting each
    fallback as ``pbio_codegen_total{kind="fused",event="fallback"}``;
    ``True`` forces fusion (errors propagate); ``False`` keeps the
    two-step path.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CONVERTER_CAPACITY,
        *,
        name: str = "converter",
        use_fused: bool | None = None,
    ) -> None:
        self._converters: BoundedLRU = BoundedLRU(capacity, name=name)
        self.use_fused = use_fused
        self.builds = 0  # observable for amortization experiments

    @property
    def hits(self) -> int:
        """Cache hits (also exported as ``pbio_converter_cache_hits``)."""
        return self._converters.hits

    @property
    def capacity(self) -> int:
        return self._converters.capacity

    def __len__(self) -> int:
        return len(self._converters)

    def stats(self) -> dict:
        """LRU counters plus build count in one reportable dict."""
        return {**self._converters.stats(), "builds": self.builds}

    def invalidate(self, format_id: bytes) -> None:
        """Drop every cached converter involving ``format_id``.

        Only needed when a format *name* is rebound to different
        metadata — content-addressed ids mean identical re-registration
        never requires invalidation.
        """
        for key in self._converters.keys():
            if key[0] == format_id or key[1] == format_id:
                self._converters.pop(key)

    def lookup(
        self,
        wire_format: IOFormat,
        target_format: IOFormat | None = None,
        mode: str = "generated",
    ) -> Converter:
        """Return a converter, building and caching it on first miss."""
        if mode not in _MODES:
            raise DecodeError(f"unknown conversion mode {mode!r}; use one of {_MODES}")
        key = (
            wire_format.format_id,
            target_format.format_id if target_format is not None else None,
            mode,
        )
        converter = self._converters.get(key)
        if converter is not None:
            return converter
        _count_codegen("converter", "miss")
        converter = self._build(wire_format, target_format, mode)
        self._converters.put(key, converter)
        self.builds += 1
        return converter

    def _build(
        self, wire_format: IOFormat, target_format: IOFormat | None, mode: str
    ) -> Converter:
        needs_projection = (
            target_format is not None
            and target_format.format_id != wire_format.format_id
        )
        if mode == "generated":
            if needs_projection and self.use_fused is not False:
                try:
                    return make_fused_converter(wire_format, target_format)
                except Exception:
                    if self.use_fused:
                        raise
                    # fall through to the two-step composed path
                    _count_codegen("fused", "fallback")
            base = make_generated_converter(wire_format)
        else:
            base = make_interpreted_converter(wire_format)
        if not needs_projection:
            return base
        project = make_interpreted_projection(wire_format, target_format)

        def convert_and_project(payload: bytes) -> dict:
            return project(base(payload))

        return convert_and_project


def _count_codegen(kind: str, event: str) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "pbio_codegen_total", "converter/encoder cache events",
            ("kind", "event"),
        ).labels(kind, event).inc()


def decode_payload(
    wire_format: IOFormat,
    payload: bytes,
    *,
    target_format: IOFormat | None = None,
    mode: str = "generated",
    cache: ConverterCache | None = None,
) -> dict:
    """Decode one NDR payload.

    Standalone convenience for tests and tools; applications normally go
    through :meth:`IOContext.decode <repro.pbio.context.IOContext.decode>`,
    which manages the cache and format resolution.
    """
    if len(payload) < wire_format.record_length:
        raise DecodeError(
            f"payload of {len(payload)} bytes is shorter than the "
            f"{wire_format.record_length}-byte base record of "
            f"{wire_format.name!r}"
        )
    owner = cache if cache is not None else ConverterCache()
    converter = owner.lookup(wire_format, target_format, mode)
    try:
        # Converters accept any buffer (bytes/bytearray/memoryview) —
        # views from the zero-copy receive path pass through uncopied.
        return converter(payload)
    except (IndexError, ValueError) as exc:
        raise DecodeError(
            f"corrupt payload for format {wire_format.name!r}: {exc}"
        ) from exc
