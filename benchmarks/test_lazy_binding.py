"""Experiment P10 — instance-based lazy binding: fused projections + LRU.

Two claims of PROTOCOL §16, measured:

- **Fused decode+project**: on evolved records (wire format != native
  format) the compiled fused converter must deliver at least **5x** the
  records/second of the interpreted decode-then-project composition
  once batches reach 64 records (one converter-cache probe amortized
  over the batch — the broker receive loop's actual shape).  The
  interpreted arm is :func:`repro.pbio.oracle.make_interpreted_decoder`
  held in a :class:`~repro.pbio.lru.BoundedLRU` of its own, so both
  arms pay the same kind of probe.
- **Bounded converter cache**: pushing 10k distinct wire formats
  through a capacity-bounded cache must hold the live entry count at
  the cap, and steady-state traffic over a small working set must hit
  the cache at >= 99%.

The helpers are imported by ``benchmarks/report.py --pr10`` to emit
``BENCH_PR10.json``; keep their signatures stable.
"""

from __future__ import annotations

import time

from repro.arch import SPARC_32, X86_64
from repro.pbio import IOContext, IOField
from repro.pbio.context import HEADER, HEADER_SIZE
from repro.pbio.decode import ConverterCache
from repro.pbio.format import IOFormat
from repro.pbio.lru import BoundedLRU
from repro.pbio.oracle import make_interpreted_decoder

#: Batch sizes swept by the decode A/B; the acceptance gate reads the
#: best batch >= 64.
BATCH_SIZES = (16, 64, 256)

#: Records decoded per arm and batch size (divisible by every size).
TOTAL_RECORDS = 8192

#: The PR10 acceptance floor: fused decode of evolved records vs the
#: interpreted projection composition, best batch >= 64.
FUSED_SPEEDUP_FLOOR = 5.0

#: Steady-state converter-cache hit-rate floor.
HIT_RATE_FLOOR = 0.99

#: Distinct wire formats pushed through the bounded cache.
CHURN_FORMATS = 10_000

#: Cache capacity used by the churn run.
CHURN_CAPACITY = 1024


def _track_fields(arch, evolved: bool):
    """A realistic telemetry record; the evolved wire adds three fields."""
    fields = [
        IOField("seq", "integer", 4, 0),
        IOField("ts", "double", 8, 8),
        IOField("flight", "string", arch.pointer_size, 16),
        IOField("alt", "integer", 4, 16 + arch.pointer_size),
        IOField("lat", "double", 8, 24 + arch.pointer_size),
        IOField("lon", "double", 8, 32 + arch.pointer_size),
    ]
    base = 40 + arch.pointer_size
    if evolved:
        fields += [
            IOField("speed", "double", 8, base),
            IOField("heading", "double", 8, base + 8),
            IOField("squawk", "integer", 4, base + 16),
        ]
    return fields


RECORD = {
    "seq": 7, "ts": 1718.25, "flight": "DL104", "alt": 31000,
    "lat": 33.64, "lon": -84.43, "speed": 450.0, "heading": 270.0,
    "squawk": 1200,
}


def _evolved_pair():
    """(wire format, native format, one encoded payload)."""
    sender = IOContext(SPARC_32)
    wire = sender.register_format("track", _track_fields(SPARC_32, True))
    receiver = IOContext(X86_64)
    target = receiver.register_format("track", _track_fields(X86_64, False))
    payload = sender.encode(wire, RECORD)[HEADER_SIZE:]
    return wire, target, payload


def _decode_batches(lookup, payload, batch_size) -> float:
    """Decode TOTAL_RECORDS in batches; returns records per second.

    Each batch pays one converter probe (``lookup()``) and
    ``batch_size`` conversions — the receive loop of a subscriber
    draining a burst of same-format events.
    """
    batches = TOTAL_RECORDS // batch_size
    started = time.perf_counter()
    for _ in range(batches):
        converter = lookup()
        for _ in range(batch_size):
            converter(payload)
    elapsed = time.perf_counter() - started
    return (batches * batch_size) / elapsed


def run_fused_decode_ab(trials: int = 3) -> dict:
    """Fused vs interpreted evolved-record decode across batch sizes."""
    wire, target, payload = _evolved_pair()
    cache = ConverterCache()
    key = (wire.format_id, target.format_id)
    oracle = BoundedLRU(1, name="oracle")
    oracle.put(key, make_interpreted_decoder(wire, target))

    def fused_lookup():
        return cache.lookup(wire, target)

    def interpreted_lookup():
        return oracle.get(key)

    # Sanity: both paths agree before anything is timed.
    assert fused_lookup()(payload) == interpreted_lookup()(payload)
    batches = {}
    for batch_size in BATCH_SIZES:
        fused = max(
            _decode_batches(fused_lookup, payload, batch_size)
            for _ in range(trials)
        )
        interpreted = max(
            _decode_batches(interpreted_lookup, payload, batch_size)
            for _ in range(trials)
        )
        batches[batch_size] = {
            "fused_rps": fused,
            "interpreted_rps": interpreted,
            "speedup": fused / interpreted,
        }
    best = max(
        entry["speedup"]
        for size, entry in batches.items()
        if size >= 64
    )
    return {
        "wire_fields": len(wire.fields),
        "native_fields": len(target.fields),
        "total_records": TOTAL_RECORDS,
        "batches": batches,
        "best_speedup": best,
    }


def run_cache_churn(
    formats: int = CHURN_FORMATS, capacity: int = CHURN_CAPACITY
) -> dict:
    """10k-distinct-format churn, then steady-state over a hot set.

    Phase 1 decodes one record per distinct format (every lookup a
    miss past the cap, evicting as it goes); phase 2 replays traffic
    over a 64-format working set, where the cache must serve >= 99%
    of lookups.
    """
    receiver = IOContext(X86_64, converter_capacity=capacity)
    distinct = []
    for index in range(formats):
        fmt = IOFormat(
            f"fmt{index}", [IOField("v", "integer", 4, 0)], X86_64, catalog={}
        )
        receiver._wire_formats[fmt.format_id] = fmt
        distinct.append(fmt)
    message = bytearray(HEADER.pack(1, 1, 0, 4, b"\x00" * 8) + b"\x2a\x00\x00\x00")

    def decode(fmt):
        message[8:16] = fmt.format_id
        return receiver.decode(bytes(message))

    started = time.perf_counter()
    for fmt in distinct:
        decode(fmt)
    churn_elapsed = time.perf_counter() - started
    after_churn = receiver.converter_cache_stats()

    hot = distinct[:64]
    rounds = 200
    steady_base = receiver.converter_cache_stats()
    started = time.perf_counter()
    for _ in range(rounds):
        for fmt in hot:
            decode(fmt)
    steady_elapsed = time.perf_counter() - started
    after_steady = receiver.converter_cache_stats()
    lookups = rounds * len(hot)
    hits = after_steady["hits"] - steady_base["hits"]
    return {
        "formats": formats,
        "capacity": capacity,
        "churn_rps": formats / churn_elapsed,
        "size_after_churn": after_churn["size"],
        "evictions": after_churn["evictions"],
        "steady_rps": lookups / steady_elapsed,
        "steady_hit_rate": hits / lookups,
        "builds": after_steady["builds"],
    }


class TestLazyBindingFloors:
    """The same floors report.py gates on, as a pytest entry point."""

    def test_fused_speedup_floor(self):
        result = run_fused_decode_ab()
        assert result["best_speedup"] >= FUSED_SPEEDUP_FLOOR

    def test_churn_holds_cap_and_steady_state_hits(self):
        result = run_cache_churn(formats=2000, capacity=256)
        assert result["size_after_churn"] <= 256
        assert result["steady_hit_rate"] >= HIT_RATE_FLOOR
