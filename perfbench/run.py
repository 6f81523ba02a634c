"""Benchmark of the xml2wire/PBIO stack: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc_tcp --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/``.  Servers (echo peer,
broker, metadata server) run in spawned processes; this process is the
load generator.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Lines before it give the host fingerprint
and every metric under the name the workload uses for it, with units
and sample counts.  A results file (and, when traced, the spans) is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import gc
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

from common import (  # noqa: E402
    GENERATOR_CPUS,
    REF_SPEED,
    HostSpeed,
    Spans,
    host_fingerprint,
    peak_rss_mb,
    percentile,
)

#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Host-speed samples taken before and after each set-up.
SETUP_SAMPLES = 4

_RPC_NAMES = {"ref_ops_per_s": ("rtt_per_s", 1.0), "ref_lat_p50_us": ("rtt_p50_us", 1.0),
              "lat_p99_us": ("rtt_p99_us", 1.0)}

#: Per workload, the name (and scale) each generic end-to-end metric
#: goes by there.
ALIASES = {
    "rpc_tcp": _RPC_NAMES,
    "rpc_shm": _RPC_NAMES,
    "broker_stream": {"ref_ops_per_s": ("stream_records_per_s", 1.0),
                      "ref_lat_p50_us": ("deliver_p50_ms", 1e-3),
                      "lat_p99_us": ("deliver_p99_ms", 1e-3)},
    "bind_cold": {"ref_ops_per_s": ("bind_per_s", 1.0), "ref_lat_p50_us": ("bind_p50_ms", 1e-3),
                  "lat_p99_us": ("bind_p99_ms", 1e-3)},
}


def make_workload(name: str, seed: int, seconds: float):
    if name in ("rpc_tcp", "rpc_shm"):
        from rpc import RpcWorkload

        return RpcWorkload(name[4:], seed)
    if name == "broker_stream":
        from broker import BrokerWorkload

        return BrokerWorkload(seed)
    from bind import BindWorkload

    return BindWorkload(seed, seconds)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    """The end-to-end metrics of one measured run.

    Set-up times (given already scaled), throughput and median latency
    are scaled to the reference host speed (``common.HostSpeed``); the
    measured values go to the results file and the human-readable lines.
    """
    return {
        "setup_s": statistics.median(setup_times),
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"] if "peak_rss_mb" in result else peak_rss_mb(),
        "wire_bytes_per_record": result["wire_bytes"] / max(1, result.get("wire_records", result["records"])),
        "ref_ops_per_s": result["rate"] / result["rate_speed"],
        "ref_lat_p50_us": median_latency(result) * result["lat_speed"],
    }


def median_latency(result: dict) -> float:
    """Median latency of a run as measured, in microseconds."""
    return percentile(sorted(result["latency"]), 50) * 1e6


def tail(result: dict) -> float:
    """Pooled 99th percentile latency of a run as measured, in microseconds."""
    return percentile(sorted(result["latency"]), 99) * 1e6


def run(args) -> dict:
    os.sched_setaffinity(0, GENERATOR_CPUS)
    spec = load_spec()
    workload = make_workload(args.workload, args.seed, args.seconds)
    seconds = args.seconds if not args.trace else args.seconds / 2.0
    setup_times = []
    setup_speeds = []
    state = None
    speed = HostSpeed()
    try:
        for _ in range(SETUPS if not args.trace else 1):
            if state is not None:
                workload.discard(state)
            before = speed.share(SETUP_SAMPLES)
            started = time.perf_counter()
            state = workload.setup(traced=False)
            setup_times.append(time.perf_counter() - started)
            setup_speeds.append((before + speed.share(SETUP_SAMPLES)) / 2)
        # Set-up's objects (input pools, contexts) live for the whole run:
        # keep the collector from re-scanning them during measurement.
        gc.collect()
        gc.freeze()
        result = workload.measure(state, seconds, None, speed)
        if args.trace:
            spans = Spans()
            traced = workload.measure(workload.setup(traced=True), seconds, spans, speed)
    finally:
        speed.close()
    summary = {"host": host_fingerprint(), "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "samples": len(result["latency"]), "setup_times_s": setup_times,
               "reference_speed": REF_SPEED,
               "host_speed": {"setup": statistics.median(setup_speeds),
                              "throughput_phase": result["rate_speed"],
                              "latency_phase": result["lat_speed"]},
               "measured": {"setup_s": statistics.median(setup_times),
                            "ops_per_s": result["rate"], "lat_p50_us": median_latency(result),
                            "lat_p99_us": tail(result)}}
    summary.update(result.get("info", {}))
    if not args.trace:
        metrics = end_to_end(result, [t * v for t, v in zip(setup_times, setup_speeds)])
        final = result
    else:
        layers = dict(traced.get("layers", {}))
        table = spans.self_times()
        summary["spans"] = {name: {"count": count, "mean_us": total * 1e6, "self_us": own * 1e6}
                            for name, (count, total, own) in table.items()}
        layers.update(workload.layers_from_spans(table))
        layers.update(workload.probes())
        layers["trace.overhead_frac"] = workload.overhead(result, traced)
        layers["lat.p99_us"] = tail(result)
        layers["lat.samples"] = len(result["latency"])
        layers["host.speed_frac"] = result["rate_speed"]
        metrics = {entry["name"]: float(layers.get(entry["name"], 0.0))
                   for entry in spec["per_layer"]}
        os.makedirs(OUT, exist_ok=True)
        spans.write(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
        summary.update(traced.get("info", {}))
        final = traced
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    parts = [result] if final is result else [result, final]
    summary["metrics"] = metrics
    summary["attempted"] = sum(part["attempted"] for part in parts)
    summary["failed"] = sum(part["failed"] for part in parts)
    summary["failed_frac"] = summary["failed"] / summary["attempted"]
    summary["correct"] = summary["failed"] == 0
    if not args.trace:
        # Demoted from the end-to-end set: on a shared host the tail is
        # set by other tenants' CPU steal and did not repeat within the
        # bound.  Printed and kept in the results file as a diagnostic.
        summary["lat_p99_us"] = tail(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    report(args, summary, units)
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def report(args, summary: dict, units: dict) -> None:
    """Human-readable lines: host, validity, then every metric under the
    workload's own name with its unit (and sample count for latencies)."""
    print("# host " + json.dumps(summary["host"]))
    for key in ("valid", "invalid_reason", "open_loop_rate_msgs_per_s", "documents_exhausted"):
        if key in summary:
            print(f"# {key} {summary[key]}")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"failed_frac={summary['failed_frac']:.6f} "
          f"({summary['failed']} of {summary['attempted']})")
    speeds = summary["host_speed"]
    print(f"# host speed {speeds['setup']:.4f} (set-up), "
          f"{speeds['throughput_phase']:.4f} (throughput phase), "
          f"{speeds['latency_phase']:.4f} (latency phase) of the reference, "
          f"{summary['reference_speed']:.0f} reference loops/s")
    shown = dict(summary["metrics"])
    if "lat_p99_us" in summary:
        shown["lat_p99_us"] = summary["lat_p99_us"]
        units = {**units, "lat_p99_us": "us"}
    aliases = ALIASES[args.workload]
    for name, value in shown.items():
        alias, scale = aliases.get(name, (name, 1.0))
        unit = units[name].replace("us", "ms") if scale != 1.0 else units[name]
        label = f"{alias} [{name}]" if alias != name else name
        note = f" (n={summary['samples']})" if "lat_" in name else ""
        if name.startswith("ref_") or name == "setup_s":
            measured = summary["measured"][name.removeprefix("ref_")]
            note += f" at the reference speed; measured {measured * scale:.4f}"
        if name == "lat_p99_us":
            note += " measured; diagnostic, not in the result"
        print(f"{label:<44} {value * scale:>14.4f} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    finally:
        stop_resource_tracker()
    print(json.dumps(result))
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that shared memory starts, so
    the run leaves no process behind.  ``_stop`` is the stdlib's own
    shutdown hook for it; it does nothing when the tracker never ran."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
