"""``broker_stream``: airline events and telemetry batches through a broker.

One publisher connection (SPARC_32) and one subscriber connection
(X86_64) on an ``AsyncEventBroker`` process carry a fixed seeded
interleave of per-record Table-1 events and columnar batches of bulk
``SensorFrame`` telemetry.  Events are most of the messages but a small
share of the records, so broker envelope and routing work shows in
latency and columnar codec work in throughput.

Two phases, each half the run:

- **open loop** at ``RATE`` messages/s: every record's latency is timed
  from its message's due time, so a stall also delays every message
  queued behind it; generator lateness and backlog are recorded;
- **window**: at most ``WINDOW`` messages in flight, for saturation
  throughput.  A small window keeps the generator and broker CPUs from
  being busy at once for long stretches; with 64 in flight the
  run-to-run spread of throughput on a shared 2-core host was twice
  that of 4.

Both phases run in slices (``common.Sliced``): the open loop as
segments of one slice's worth of messages, each drained before the
host's speed is sampled, the window as bursts drained the same way.
"""

from __future__ import annotations

import random
import threading
import time
from array import array
from collections import deque

import servers
from common import (
    OP_TIMEOUT,
    SENSOR_SCHEMA,
    ServerProcess,
    Sliced,
    Spans,
    airline_pool,
    mean,
    per_call,
    percentile,
    register_table1,
)

STREAM = "ois.telemetry"
POOL_MESSAGES = 256
POOL_BATCHES = 38  # 15% of the messages, ~92% of the records
BATCH_RECORDS = 64
RATE = 400.0
WINDOW = 4
WARMUP_MESSAGES = 300
#: The open loop is invalid when the generator's 99th-percentile
#: lateness reached two inter-arrival times (it fell two messages behind)
#: or the backlog grew over its segments.
LATE_LIMIT_S = 2.0 / RATE
#: Seconds between the start of an open-loop segment and its first due time.
LEAD_S = 0.01
PROBE_SECONDS = 0.3


class BrokerWorkload:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        events = iter(airline_pool(rng.randrange(1 << 30), POOL_MESSAGES))
        # A fixed number of batches at seeded positions: seeds change
        # the interleave, not the share of records that are batched.
        batched = set(rng.sample(range(POOL_MESSAGES), POOL_BATCHES))
        self.pool = []  # (format name, [records], is batch)
        seq = 0
        for position in range(POOL_MESSAGES):
            if position not in batched:
                kind, record = next(events)
                self.pool.append((kind, [record], False))
                continue
            batch = []
            for _ in range(BATCH_RECORDS):
                samples = [rng.random() for _ in range(rng.randrange(8, 129))]
                batch.append({
                    "seq": seq,
                    "timestamp": 954547200.0 + seq * 0.001,
                    "value": rng.uniform(-50.0, 50.0),
                    "samples": samples,
                    "samples_count": len(samples),
                })
                seq += 1
            self.pool.append(("SensorFrame", batch, True))

    # -- set-up ----------------------------------------------------------------

    def setup(self, traced: bool) -> dict:
        from repro import SPARC_32, X86_64, IOContext, XML2Wire
        from repro.events.remote import OP_PUBLISH, RemoteBackboneClient, pack_envelope

        server = ServerProcess(servers.broker)
        host, port = server.ready
        pub_context = IOContext(SPARC_32)
        formats = register_table1(pub_context)
        formats.update({f.name: f for f in XML2Wire(pub_context).register_schema(SENSOR_SCHEMA)})
        sub_context = IOContext(X86_64)
        subscriber = RemoteBackboneClient.connect(host, port, sub_context)
        subscriber.subscribe(STREAM)
        publisher_client = RemoteBackboneClient.connect(host, port, pub_context)
        messages = [(formats[name], records, is_batch) for name, records, is_batch in self.pool]
        wire = [
            4 + len(pack_envelope(OP_PUBLISH, STREAM, payload=(
                pub_context.encode_batch(fmt, records) if is_batch
                else pub_context.encode(fmt, records[0]))))
            for fmt, records, is_batch in messages
        ]
        state = {
            "server": server,
            "publisher": publisher_client.publisher(STREAM),
            "clients": (publisher_client, subscriber),
            "subscriber": subscriber,
            "messages": messages,
            "wire": wire,
            "wire_bytes": 0,
        }
        self._window(state, self._stats(False), 0, count=WARMUP_MESSAGES)
        return state

    def discard(self, state: dict) -> None:
        for client in state["clients"]:
            client.close()
        state["server"].send("stop")
        state["server"].finish()

    # -- phases ----------------------------------------------------------------

    def _publish(self, state, index, stats) -> None:
        """Publish pool message ``index``."""
        fmt, records, is_batch = state["messages"][index % len(state["messages"])]
        begin = time.perf_counter()
        if is_batch:
            state["publisher"].publish_batch(fmt, records)
        else:
            state["publisher"].publish(fmt, records[0])
        if stats["publish_stamps"] is not None:
            stats["publish_stamps"].extend((begin, time.perf_counter(), 1.0 if is_batch else 0.0))
        state["wire_bytes"] += state["wire"][index % len(state["wire"])]
        stats["messages"] += 1
        stats["sent"] += len(records)

    def _receive(self, state, index, stats, due) -> bool:
        """Receive and check every record of pool message ``index``.

        Returns False when the subscriber failed; records never received
        count as lost when the run ends.
        """
        from repro.errors import ReproError

        _, records, _ = state["messages"][index % len(state["messages"])]
        perf = time.perf_counter
        next_event = state["subscriber"].next_event
        for position, expected in enumerate(records):
            before = perf()
            try:
                event = next_event(OP_TIMEOUT)
            except ReproError:
                return False
            now = perf()
            if stats["next_event"] is not None:
                stats["next_event"].extend((before, now))
                if position == 0:
                    stats["first_delivery"].append(now)
            if event.values != expected:
                stats["mismatched"] += 1
            stats["records"] += 1
            if due is not None:
                stats["latency"].append(now - due)
        return True

    @staticmethod
    def _stats(traced: bool) -> dict:
        return {"messages": 0, "sent": 0, "records": 0, "mismatched": 0,
                "latency": array("d"), "late": array("d"),
                "backlog_head": array("i"), "backlog_tail": array("i"), "backlog_max": 0,
                "publish_stamps": array("d") if traced else None,
                "first_delivery": array("d") if traced else None,
                "next_event": array("d") if traced else None}

    def _open_segment(self, state, stats, first, deadline) -> tuple[int, bool]:
        """Publish messages ``first``, ... due every 1/RATE s until
        ``deadline`` from this thread while another receives them, then
        wait for the last; latency runs from each due time.

        Returns (next message index, whether the subscriber kept up).
        """
        perf = time.perf_counter
        t_start = perf() + LEAD_S
        count = max(1, int((deadline - t_start) * RATE))
        received = [0]

        def consume():
            for offset in range(count):
                if not self._receive(state, first + offset, stats, t_start + offset / RATE):
                    return
                received[0] = offset + 1

        thread = threading.Thread(target=consume, daemon=True)
        backlog = array("i")
        thread.start()
        for offset in range(count):
            due = t_start + offset / RATE
            now = perf()
            if now < due:
                time.sleep(due - now)
            stats["late"].append(perf() - due)
            backlog.append(offset - received[0])
            self._publish(state, first + offset, stats)
        thread.join(timeout=OP_TIMEOUT * 4)
        quarter = max(1, count // 4)
        stats["backlog_head"].extend(backlog[:quarter])
        stats["backlog_tail"].extend(backlog[-quarter:])
        stats["backlog_max"] = max(stats["backlog_max"], max(backlog))
        return first + count, received[0] == count

    def _window(self, state, stats, first, deadline=float("inf"), count=None) -> tuple[int, bool]:
        """Keep at most WINDOW messages in flight from one thread, from
        message ``first`` until ``count`` messages or ``deadline``, then
        drain.  Returns (next message index, whether all arrived)."""
        perf = time.perf_counter
        inflight = deque()
        index = first
        stopping = False
        while True:
            while not stopping and len(inflight) < WINDOW:
                self._publish(state, index, stats)
                inflight.append(index)
                index += 1
                stopping = index - first == count or perf() >= deadline
            if not inflight:
                return index, True
            if not self._receive(state, inflight.popleft(), stats, None):
                return index, False

    # -- measurement -----------------------------------------------------------

    def measure(self, state: dict, seconds: float, spans: Spans | None, speed) -> dict:
        context = state["subscriber"].context
        hits0, builds0 = context.converter_cache_hits, context.converter_builds
        traced = spans is not None
        state["wire_bytes"] = 0
        phases = []
        for step in (self._open_segment, self._window):
            stats = self._stats(traced)
            position = [0]

            def work(deadline, step=step, stats=stats, position=position):
                position[0], ok = step(state, stats, position[0], deadline)
                return ok

            phases.append((stats, Sliced(seconds / 2, speed, work)))
        (open_loop, open_run), (saturated, window_run) = phases
        for client in state["clients"]:
            client.close()
        state["server"].send("stop")
        report = state["server"].finish() or {}

        late_p99 = percentile(sorted(open_loop["late"]), 99)
        reasons = []
        if late_p99 > LATE_LIMIT_S:
            reasons.append(f"generator late p99 {late_p99 * 1e3:.3f} ms > {LATE_LIMIT_S * 1e3} ms")
        if mean(open_loop["backlog_tail"]) > 2 * mean(open_loop["backlog_head"]) + 4:
            reasons.append("backlog grew over the open-loop segments")
        sent = open_loop["sent"] + saturated["sent"]
        received = open_loop["records"] + saturated["records"]
        # Failed: records received with wrong values, plus records lost.
        failed = open_loop["mismatched"] + saturated["mismatched"] + sent - received
        result = {
            "attempted": sent,
            "failed": failed,
            "records": sent,
            "wire_bytes": state["wire_bytes"],
            "latency": open_loop["latency"],
            "lat_speed": open_run.speed,
            "rate": saturated["records"] / window_run.busy,
            "rate_speed": window_run.speed,
            "info": {
                "valid": not reasons,
                "invalid_reason": "; ".join(reasons) or None,
                "open_loop_rate_msgs_per_s": RATE,
                "window_messages": WINDOW,
            },
        }
        if spans is None:
            return result
        hits = context.converter_cache_hits - hits0
        builds = context.converter_builds - builds0
        transit = []
        for base, phase in ((0, open_loop), (open_loop["messages"], saturated)):
            stamps = phase["publish_stamps"]
            firsts = phase["first_delivery"]
            for index in range(min(len(firsts), len(stamps) // 3)):
                begin, end, is_batch = stamps[index * 3 : index * 3 + 3]
                name = "events.publish_batch" if is_batch else "events.publish"
                spans.add(name, begin, end, -1, base + index)
                if phase is open_loop:  # unqueued: the window phase queues by design
                    transit.append(firsts[index] - end)
            calls = phase["next_event"]
            for index in range(len(calls) // 2):
                spans.add("events.next_event", calls[index * 2], calls[index * 2 + 1], -1, -1)
        result["layers"] = {
            "pbio.converter_hit_ratio": hits / max(1, hits + builds),
            "pbio.converter_builds": builds / max(1, open_loop["messages"] + saturated["messages"]),
            "aio.broker_transit_ms": mean(transit) * 1e3,
            "events.backlog_max": open_loop["backlog_max"],
            "gen.late_p99_ms": late_p99 * 1e3,
            "gen.cpu_us_per_op": (open_run.cpu + window_run.cpu) / max(1, sent) * 1e6,
            "server.cpu_us_per_op": report.get("cpu_s", 0.0) / max(1, sent) * 1e6,
        }
        return result

    def layers_from_spans(self, table: dict) -> dict:
        def dur(name):
            return table.get(name, (0, 0.0, 0.0))[1] * 1e6

        return {
            "events.publish_us": dur("events.publish"),
            "events.publish_batch_us": dur("events.publish_batch"),
            "events.next_event_us": dur("events.next_event"),
            "trace.op_us": dur("events.next_event"),
        }

    def overhead(self, untraced: dict, traced: dict) -> float:
        """Untraced over traced window throughput, each at the reference speed."""
        return (untraced["rate"] / untraced["rate_speed"]) / (
            traced["rate"] / traced["rate_speed"]) - 1.0

    # -- probes ----------------------------------------------------------------

    def probes(self) -> dict:
        """Codec costs on the workload's own records, timed outside the run."""
        import struct

        from repro import SPARC_32, X86_64, IOContext, XML2Wire

        sender = IOContext(SPARC_32)
        formats = register_table1(sender)
        formats.update({f.name: f for f in XML2Wire(sender).register_schema(SENSOR_SCHEMA)})
        receiver = IOContext(X86_64)
        for fmt in formats.values():
            receiver.learn_format(fmt.to_wire_metadata())
        events = [(formats[name], records[0]) for name, records, batch in self.pool if not batch]
        batches = [(formats[name], records) for name, records, batch in self.pool if batch]
        event_messages = [sender.encode(fmt, record) for fmt, record in events]
        batch_messages = [sender.encode_batch(fmt, records) for fmt, records in batches]
        batch_records = sum(len(records) for _, records in batches)
        plans = [struct.Struct(f">{(len(m) - 16) // 4}I") for m in event_messages]

        def encode_events():
            for fmt, record in events:
                sender.encode(fmt, record)

        def decode_events():
            for message in event_messages:
                receiver.decode(message)

        def encode_batches():
            for fmt, records in batches:
                sender.encode_batch(fmt, records)

        def decode_batches():
            for message in batch_messages:
                receiver.decode_batch(message)

        def unpack_events():
            for plan, message in zip(plans, event_messages):
                plan.unpack_from(message, 16)

        return {
            "pbio.encode_us": per_call(encode_events, len(events), PROBE_SECONDS),
            "pbio.decode_us": per_call(decode_events, len(events), PROBE_SECONDS),
            "pbio.encode_batch_us_per_rec": per_call(encode_batches, batch_records, PROBE_SECONDS),
            "pbio.decode_batch_us_per_rec": per_call(decode_batches, batch_records, PROBE_SECONDS),
            "pbio.decode_floor_us": per_call(unpack_events, len(events), PROBE_SECONDS),
        }
