"""Shared pieces of the benchmark: inputs, statistics, spans, processes."""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import struct
import sys
import time
from array import array
from multiprocessing import get_context

SPAWN = get_context("spawn")  # the load generator has threads; fork is unsafe

#: Seconds any single blocking call may take before it counts as failed.
OP_TIMEOUT = 5.0

# With two or more CPUs the load generator runs on the first and the
# servers on the rest.  Left to itself the scheduler moves two processes
# that wake each other onto one CPU for seconds at a time, which halves
# throughput for as long as it lasts.
HOST_CPUS = tuple(sorted(os.sched_getaffinity(0)))
GENERATOR_CPUS = HOST_CPUS[:1] if len(HOST_CPUS) > 1 else HOST_CPUS
SERVER_CPUS = HOST_CPUS[1:] if len(HOST_CPUS) > 1 else HOST_CPUS

# -- inputs --------------------------------------------------------------------

SENSOR_SCHEMA = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="SensorFrame">
    <xsd:element name="seq" type="xsd:unsigned-int" />
    <xsd:element name="timestamp" type="xsd:double" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="samples" type="xsd:double" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>
"""


def table1_schemas() -> dict[str, str]:
    """The paper's three Table-1 structures, keyed by top-level type name.

    All three documents call their record ``ASDOffEvent``; one context
    registers formats by name, so each gets its own name here.  Field
    lists, types and nesting are unchanged.
    """
    from repro.workloads import ASDOFF_A_SCHEMA, ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA

    return {
        "ASDOffA": ASDOFF_A_SCHEMA.replace("ASDOffEvent", "ASDOffA"),
        "ASDOffB": ASDOFF_B_SCHEMA.replace("ASDOffEvent", "ASDOffB"),
        "threeASDOffs": ASDOFF_CD_SCHEMA.replace("ASDOffEvent", "ASDOffLeg"),
    }


def register_table1(context) -> dict:
    """Register the Table-1 formats with ``context``; name -> IOFormat."""
    from repro import XML2Wire

    tool = XML2Wire(context)
    for schema in table1_schemas().values():
        tool.register_schema(schema)
    return {name: tool.lookup(name) for name in table1_schemas()}


def airline_pool(seed: int, count: int) -> list[tuple[str, dict]]:
    """A seeded mix of Table-1 records: (type name, record) pairs.

    The three types appear equally often in a seeded order, so seeds
    change the records but not the mix.
    """
    from repro.workloads import AirlineWorkload

    rng = random.Random(seed)
    gen = AirlineWorkload(seed=rng.randrange(1 << 30))
    kinds = [("ASDOffA", "ASDOffB", "threeASDOffs")[i % 3] for i in range(count)]
    rng.shuffle(kinds)
    pool = []
    for kind in kinds:
        if kind == "ASDOffA":
            pool.append((kind, gen.record_a()))
        elif kind == "ASDOffB":
            pool.append((kind, gen.record_b(rng.randrange(0, 9))))
        else:
            pool.append((kind, gen.record_cd(rng.randrange(1, 9))))
    return pool


_BIND_MIXES = ("mixed", "numeric", "strings", "integers")


def bind_schema(seed: int, index: int) -> tuple[dict, str]:
    """The ``index``-th fresh format of ``bind_cold``: (spec, document).

    Field count, type mix and type name vary with (seed, index), so no
    two operations of a run bind the same format.
    """
    from repro.workloads import make_synthetic_schema

    rng = random.Random(seed * 1_000_003 + index)
    spec = {
        "field_count": rng.randrange(4, 25),
        "mix": rng.choice(_BIND_MIXES),
        "type_name": f"Bind{rng.randrange(1 << 20):05x}N{index}",
    }
    return spec, make_synthetic_schema(
        spec["field_count"], mix=spec["mix"], type_name=spec["type_name"]
    )


# -- statistics ----------------------------------------------------------------

def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def mean(values) -> float:
    return sum(values) / len(values) if len(values) else 0.0


def per_call(work, calls: int, seconds: float) -> float:
    """Microseconds per call: repeat ``work`` (``calls`` calls each time)
    for ``seconds`` seconds."""
    rounds = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        work()
        rounds += 1
    return (time.perf_counter() - started) / (rounds * calls) * 1e6


# -- host speed ----------------------------------------------------------------
#
# On a shared host the speed of a CPU drifts by tens of percent over
# minutes as other tenants come and go: a fixed pure-Python loop ran
# 2300-5000 iterations a second over 150 s of one 2-core host, with no
# steal time to show for it.  No statistic taken inside one run removes
# a drift that lasts longer than the run.  So measured work is cut into
# slices, and after each slice a fixed reference loop runs for a moment
# on the generator's CPU and, at the same time, on the servers' CPUs.
# End-to-end times and throughput are reported both as measured and
# scaled to a host that runs the reference loop REF_SPEED times a second.

#: Seconds of measured work between two speed samples.
SLICE_S = 0.25
#: Seconds each speed sample runs the reference loop.
BURST_S = 0.01
#: Reference-loop iterations per second of the nominal host.
REF_SPEED = 30_000.0

_REF_STRUCT = struct.Struct(">IIdd")


def reference_rate(seconds: float) -> float:
    """Iterations per second of a fixed loop of the kind of work the
    program does: small dicts, struct packing, tuples."""
    perf = time.perf_counter
    pack, unpack = _REF_STRUCT.pack, _REF_STRUCT.unpack
    started = perf()
    end = started + seconds
    rounds = 0
    while perf() < end:
        table = {}
        for i in range(64):
            table[i] = unpack(pack(i, i + 1, i * 0.5, 1.0))
        [value[0] + value[1] for value in table.values()]
        rounds += 1
    return rounds / (perf() - started)


class HostSpeed:
    """Samples the reference loop on the generator's CPU and, in a
    spawned helper, on the servers' CPUs at the same moment."""

    def __init__(self) -> None:
        import servers

        self._helper = ServerProcess(servers.calibrator)

    def sample(self) -> tuple[float, float]:
        """(generator CPU rate, server CPU rate), iterations a second."""
        self._helper.send(BURST_S)
        own = reference_rate(BURST_S)
        return own, self._helper.receive(OP_TIMEOUT)

    def share(self, samples: int) -> float:
        """The host's speed now, from ``samples`` samples."""
        return speed_share([self.sample() for _ in range(samples)])

    def close(self) -> None:
        self._helper.send(None)
        self._helper.finish()


def speed_share(rates) -> float:
    """The host's speed as a share of REF_SPEED, from (generator, server)
    samples: the geometric mean of the two CPUs' mean rates."""
    own, other = zip(*rates)
    return math.sqrt(mean(own) * mean(other)) / REF_SPEED


class Sliced:
    """Measured work run in slices with host-speed samples between them.

    ``busy`` and ``cpu`` count the slices only (seconds of wall and of
    this process's CPU time); ``speed`` is the host's speed during the
    run (``speed_share``).
    """

    def __init__(self, seconds: float, speed: HostSpeed, work) -> None:
        """Call ``work(deadline)`` until ``seconds`` of it have run or it
        returns False."""
        perf, cpu = time.perf_counter, time.process_time
        self.busy = self.cpu = 0.0
        rates = []
        while self.busy < seconds:
            begin, cpu_begin = perf(), cpu()
            more = work(begin + min(SLICE_S, seconds - self.busy))
            self.busy += perf() - begin
            self.cpu += cpu() - cpu_begin
            rates.append(speed.sample())
            if more is False:
                break
        self.speed = speed_share(rates)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# -- spans ---------------------------------------------------------------------

class Spans:
    """Spans kept in memory as parallel arrays and written when a run ends.

    A span is (name, start, end, parent, op): ``parent`` is the index of
    the span that caused it (-1 for a root) and ``op`` the operation id
    that every span of one request shares.  Times are
    ``time.perf_counter`` seconds, which on Linux is CLOCK_MONOTONIC and
    therefore comparable across the processes of one host.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(ident)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.name) - 1

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, mean duration, mean self time), in seconds.

        A span's self time is its duration minus the durations of its
        direct children (children of one parent never overlap here).
        """
        covered = [0.0] * len(self.name)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        totals: dict[int, list[float]] = {}
        for index, ident in enumerate(self.name):
            duration = self.end[index] - self.start[index]
            entry = totals.setdefault(ident, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[index]
        return {
            self.names[ident]: (count, total / count, own / count)
            for ident, (count, total, own) in totals.items()
        }

    def write(self, path: str, max_spans: int = 50_000) -> None:
        """Write up to ``max_spans`` spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for index in range(min(len(self.name), max_spans)):
                out.write(json.dumps({
                    "name": self.names[self.name[index]],
                    "start": self.start[index],
                    "end": self.end[index],
                    "parent": self.parent[index],
                    "op": self.op[index],
                }) + "\n")


# -- host ----------------------------------------------------------------------

def host_fingerprint() -> dict:
    """What a result depends on besides the code: cores, CPython, numpy."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": list(HOST_CPUS),
        "generator_cpus": list(GENERATOR_CPUS),
        "server_cpus": list(SERVER_CPUS),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        # IOContext batch codecs auto-select the vectorized path
        # whenever numpy imports (use_numpy=None).
        "columnar_numpy_path": numpy_version is not None,
        "network": "loopback only",
    }


# -- server processes ----------------------------------------------------------

class ServerProcess:
    """A spawned server with a control pipe: it sends one ready message
    after binding and one report after it is told to stop (or its peer
    closes)."""

    def __init__(self, target, *args) -> None:
        self._ctl, child_ctl = SPAWN.Pipe()
        self._process = SPAWN.Process(target=target, args=(child_ctl, *args), daemon=True)
        self._process.start()
        os.sched_setaffinity(self._process.pid, SERVER_CPUS)
        child_ctl.close()
        try:
            self.ready = self.receive(60.0)
        except (TimeoutError, EOFError, OSError):
            self._reap()
            raise

    def receive(self, timeout: float):
        if not self._ctl.poll(timeout):
            raise TimeoutError("server process did not answer")
        return self._ctl.recv()

    def send(self, message) -> None:
        self._ctl.send(message)

    def finish(self, timeout: float = 30.0):
        """Collect the server's final report and reap the process."""
        try:
            report = self.receive(timeout)
        except (TimeoutError, EOFError, OSError):
            report = None
        self._reap()
        return report

    def _reap(self) -> None:
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)
        self._ctl.close()
