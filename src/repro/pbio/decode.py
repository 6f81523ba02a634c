"""Decoding NDR payloads: converter selection and bounded caching.

Decoding is driven entirely by the *wire* format's metadata (which
arrived once, out-of-band or in-band).  Each (wire format, native
format) pair gets exactly one converter, generated on first use by
:mod:`~repro.pbio.codegen` — PBIO's "custom routines created
on-the-fly":

- when the record is wanted in the wire format's own shape, the
  **generated** converter;
- when the receiver's *native* format differs (format evolution: the
  sender added or removed fields), the **fused** decode+project
  converter, which decodes the wire record straight into the native
  shape with no intermediate wire-shaped dict.

A failure to generate either is a typed
:class:`~repro.errors.ConversionError`; there is no slower path to fall
back to.  The interpreted converter and projection these routines are
tested against live in :mod:`repro.pbio.oracle`.

The cache is *instance-based* (PROTOCOL §16): converters are compiled
only for the (wire format id, native format id) pairs traffic actually
presents, and a bounded, thread-safe LRU (:class:`~repro.pbio.lru.BoundedLRU`)
guarantees that pairs traffic no longer touches cannot hold compiled
code forever.  Content-addressed format ids make the entries survive
re-registration of identical metadata for free.

A corrupt payload makes a converter raise one of :data:`CORRUPT_PAYLOAD`;
every decode entry point turns those into
:class:`~repro.errors.DecodeError`.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.errors import ConversionError, DecodeError
from repro.obs.metrics import get_registry
from repro.pbio.codegen import make_fused_converter, make_generated_converter
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU

Converter = Callable[[bytes], dict]

#: What reading a corrupt payload raises: bad offsets and counts
#: (``IndexError``, ``struct.error``), pointers too large for an index
#: (``OverflowError``), unterminated or invalid UTF-8 strings
#: (``ValueError``, including ``UnicodeDecodeError``).
CORRUPT_PAYLOAD = (IndexError, ValueError, OverflowError, struct.error)

#: Default bound on live converters per cache.  Each entry is one
#: compiled function (a few KB); 1024 pairs comfortably covers a server
#: speaking to a heterogeneous fleet while capping a 10k-format churn.
DEFAULT_CONVERTER_CAPACITY = 1024


class ConverterCache:
    """Bounded cache of converters keyed by (wire id, target id).

    One instance lives in each :class:`~repro.pbio.context.IOContext`
    by default; sharing one cache across contexts is safe (converters
    are pure functions) and supported — pass the same instance to
    several contexts to share compiled pairs across connections.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CONVERTER_CAPACITY,
        *,
        name: str = "converter",
    ) -> None:
        self._converters: BoundedLRU = BoundedLRU(capacity, name=name)
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
        self, wire_format: IOFormat, target_format: IOFormat | None = None
    ) -> Converter:
        """Return a converter, building and caching it on first miss.

        Raises :class:`~repro.errors.ConversionError` if the converter
        cannot be generated.
        """
        key = (
            wire_format.format_id,
            target_format.format_id if target_format is not None else None,
        )
        converter = self._converters.get(key)
        if converter is not None:
            return converter
        _count_codegen("converter", "miss")
        converter = _build(wire_format, target_format)
        self._converters.put(key, converter)
        self.builds += 1
        return converter


def _build(wire_format: IOFormat, target_format: IOFormat | None) -> Converter:
    try:
        if target_format is None or target_format.format_id == wire_format.format_id:
            return make_generated_converter(wire_format)
        return make_fused_converter(wire_format, target_format)
    except ConversionError:
        raise
    except Exception as exc:
        target = wire_format if target_format is None else target_format
        raise ConversionError(
            f"cannot generate a converter {wire_format.name!r} -> "
            f"{target.name!r}: {exc}"
        ) from exc


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
    converter = owner.lookup(wire_format, target_format)
    try:
        # Converters accept any buffer (bytes/bytearray/memoryview) —
        # views from the zero-copy receive path pass through uncopied.
        return converter(payload)
    except CORRUPT_PAYLOAD as exc:
        raise DecodeError(
            f"corrupt payload for format {wire_format.name!r}: {exc}"
        ) from exc
