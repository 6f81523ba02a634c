"""Ablation A1 — dynamic code generation versus interpreted conversion.

The paper attributes part of PBIO's receive-side speed to "custom
routines created on-the-fly through dynamic code generation".  This
ablation decodes identical heterogeneous payloads with:

- the generated converter (one specialized unpack, offsets baked in);
- the interpreted converter (per-field metadata walk per record), the
  test oracle of :mod:`repro.pbio.oracle`;

across field counts from 4 to 128.  The gap *is* the DCG benefit, and it
widens with field count.  A second pair measures the one-time build cost
each approach pays (generation compiles source; interpretation just
closes over the plan).
"""

import time

import pytest

from repro import IOContext, SPARC_32, XML2Wire
from repro.pbio.codegen import make_generated_converter
from repro.pbio.encode import encode_record
from repro.pbio.oracle import InterpretedEncoder, make_interpreted_converter
from repro.workloads import SyntheticWorkload

FIELD_COUNTS = [4, 16, 64, 128]


def build(fields):
    workload = SyntheticWorkload(fields, mix="mixed")
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(workload.schema)
    fmt = context.lookup_format("Synthetic")
    payload = encode_record(fmt, workload.record())
    return fmt, payload


@pytest.mark.parametrize("fields", FIELD_COUNTS, ids=lambda f: f"{f}-fields")
def test_decode_generated(benchmark, fields):
    fmt, payload = build(fields)
    convert = make_generated_converter(fmt)
    benchmark(convert, payload)


@pytest.mark.parametrize("fields", FIELD_COUNTS, ids=lambda f: f"{f}-fields")
def test_decode_interpreted(benchmark, fields):
    fmt, payload = build(fields)
    convert = make_interpreted_converter(fmt)
    benchmark(convert, payload)


def test_generated_wins_and_gap_grows(benchmark):
    """Direct assertion of the ablation's two claims."""

    def ratio(fields, rounds=300):
        fmt, payload = build(fields)
        generated = make_generated_converter(fmt)
        interpreted = make_interpreted_converter(fmt)
        start = time.perf_counter()
        for _ in range(rounds):
            generated(payload)
        generated_time = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            interpreted(payload)
        return (time.perf_counter() - start) / generated_time

    small_ratio = ratio(4)
    large_ratio = ratio(128)
    assert large_ratio > 1.5, f"DCG gains only {large_ratio:.2f}x at 128 fields"
    benchmark.extra_info["interp_over_gen_4f"] = round(small_ratio, 2)
    benchmark.extra_info["interp_over_gen_128f"] = round(large_ratio, 2)
    fmt, payload = build(32)
    benchmark(make_generated_converter(fmt), payload)


@pytest.mark.parametrize("fields", FIELD_COUNTS, ids=lambda f: f"{f}-fields")
def test_encode_generated(benchmark, fields):
    """Sender-side DCG: the specialized encoder (see codegen.py)."""
    workload = SyntheticWorkload(fields, mix="mixed")
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(workload.schema)
    fmt = context.lookup_format("Synthetic")
    record = workload.record()
    benchmark(lambda: encode_record(fmt, record))


@pytest.mark.parametrize("fields", FIELD_COUNTS, ids=lambda f: f"{f}-fields")
def test_encode_interpreted(benchmark, fields):
    """Sender-side baseline: the interpreted, record-walking encoder."""
    workload = SyntheticWorkload(fields, mix="mixed")
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(workload.schema)
    fmt = context.lookup_format("Synthetic")
    record = workload.record()
    benchmark(InterpretedEncoder(fmt).encode, record)


@pytest.mark.parametrize("fields", [16, 128], ids=lambda f: f"{f}-fields")
def test_converter_build_cost_generated(benchmark, fields):
    """The one-time cost DCG pays: generate + compile Python source."""
    fmt, _ = build(fields)

    def make():
        return make_generated_converter(fmt)

    benchmark(make)


@pytest.mark.parametrize("fields", [16, 128], ids=lambda f: f"{f}-fields")
def test_converter_build_cost_interpreted(benchmark, fields):
    fmt, _ = build(fields)

    def make():
        return make_interpreted_converter(fmt)

    benchmark(make)
