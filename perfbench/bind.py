"""``bind_cold``: every operation binds a format the process has never seen.

The sender registers a fresh seeded synthetic schema through xml2wire
and encodes 8 records.  The receiver fetches the same document over
HTTP from a threaded ``MetadataServer`` process loaded at set-up,
parses it and registers its own native version, which lacks the last
field (the rolling-upgrade case), so the first decode builds a fused
decode+project converter.  It then learns the sender's wire format and
decodes the 8 records onto its native format.  Discovery and binding do
nearly all the work; no cache can help.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import servers
from common import ServerProcess, Sliced, Spans, bind_schema, mean, peak_rss_mb

RECORDS_PER_BIND = 8
WARMUP_BINDS = 5
#: Documents the metadata server holds per measured second; a run that
#: binds faster stops early and says so.
DOCS_PER_SECOND = 400
#: peak_rss_mb is read when this many binds of the run are done.  The
#: contexts keep what they learn of every format, so memory grows with
#: the binds done; a fixed count keeps the host's speed out of it.
RSS_BINDS = 1000
#: Seconds a run may go on binding, unmeasured, to reach RSS_BINDS.
RSS_GRACE_S = 60.0


class BindWorkload:
    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.docs = max(int(DOCS_PER_SECOND * seconds), RSS_BINDS) + WARMUP_BINDS
        self.next_index = 0  # document indices are never reused in a run

    # -- set-up ----------------------------------------------------------------

    def setup(self, traced: bool) -> dict:
        """One long-lived sender/receiver context pair binds every format
        of the run, so whatever a context keeps per format shows in the
        measurement."""
        from repro import SPARC_32, X86_64, IOContext, MetadataClient, XML2Wire

        start = self.next_index
        self.next_index += self.docs
        server = ServerProcess(servers.metadata_server, self.seed, start, self.docs)
        host, port = server.ready
        sender, receiver = IOContext(SPARC_32), IOContext(X86_64)
        state = {
            "server": server,
            "base": f"http://{host}:{port}",
            "client": MetadataClient(),
            "index": start,
            "end": start + self.docs,
            "sender": sender,
            "receiver": receiver,
            "sender_tool": XML2Wire(sender),
            "receiver_tool": XML2Wire(receiver),
        }
        self._loop(state, WARMUP_BINDS, float("inf"), array("d"), None)
        return state

    def discard(self, state: dict) -> None:
        state["server"].send("stop")
        state["server"].finish()

    # -- measurement -----------------------------------------------------------

    def _inputs(self, index: int):
        from repro.workloads import SyntheticWorkload

        spec, text = bind_schema(self.seed, index)
        generator = SyntheticWorkload(spec["field_count"], mix=spec["mix"], seed=index)
        records = [generator.record() for _ in range(RECORDS_PER_BIND)]
        dropped = f"f{spec['field_count'] - 1}"
        expected = [{k: v for k, v in record.items() if k != dropped} for record in records]
        return spec["type_name"], text, records, expected

    def _loop(self, state, max_ops, deadline, latency, stamps):
        """Bind fresh formats until ``max_ops``, ``deadline`` or the
        server's documents run out, appending each bind's time to
        ``latency``; returns (ops, failed, wire bytes).

        With ``stamps`` each op appends 7 + RECORDS_PER_BIND times:
        start, after sender registration, after the encodes, after the
        fetch, after the parse, after the receiver's registration, after
        learning the wire format, then after each decode.
        """
        from repro import parse_schema
        from repro.errors import ReproError

        client = state["client"]
        perf = time.perf_counter
        ops = failed = wire = 0
        sender, receiver = state["sender"], state["receiver"]
        sender_tool, receiver_tool = state["sender_tool"], state["receiver_tool"]
        while ops < max_ops and state["index"] < state["end"]:
            index = state["index"]
            state["index"] += 1
            name, text, records, expected = self._inputs(index)
            url = f"{state['base']}/bind/{index}.xsd"
            times = [perf()]
            try:
                fmt = sender_tool.register_schema(text)[0]
                times.append(perf())
                messages = [sender.encode(fmt, record) for record in records]
                metadata = fmt.to_wire_metadata()
                times.append(perf())
                body = client.get_bytes(url)
                times.append(perf())
                document = parse_schema(body.decode("utf-8"))
                times.append(perf())
                wire_type = document.complex_types[name]
                native = dataclasses.replace(
                    document,
                    complex_types={name: dataclasses.replace(
                        wire_type, elements=wire_type.elements[:-1])},
                )
                receiver_tool.register_schema(native)
                times.append(perf())
                receiver.learn_format(metadata)
                times.append(perf())
                ok = True
                for message, want in zip(messages, expected):
                    got = receiver.decode(message, expect=name)
                    times.append(perf())
                    ok = ok and got.values == want
                wire += sum(len(message) for message in messages)
            except (ReproError, KeyError, UnicodeDecodeError):
                ok = False
            end = perf()
            ops += 1
            latency.append(end - times[0])
            if not ok:
                failed += 1
            elif stamps is not None:
                stamps.extend(times)
            if end >= deadline:
                break
        return ops, failed, wire

    def measure(self, state: dict, seconds: float, spans: Spans | None, speed) -> dict:
        client, receiver = state["client"], state["receiver"]
        hits0, builds0 = receiver.converter_cache_hits, receiver.converter_builds
        retries0 = client.retries
        stamps = array("d") if spans is not None else None
        latency = array("d")
        totals = [0, 0, 0]  # ops, failed, wire bytes
        rss = []

        def work(deadline):
            # Stop a slice at RSS_BINDS to read the memory there.
            limit = RSS_BINDS - totals[0] if not rss else float("inf")
            done = self._loop(state, limit, deadline, latency, stamps)
            for position, value in enumerate(done):
                totals[position] += value
            if totals[0] == RSS_BINDS:
                rss.append(peak_rss_mb())
            return state["index"] < state["end"]

        run = Sliced(seconds, speed, work)
        ops = totals[0]
        if not rss:  # a slow host: bind on, untimed, to the same count
            extra, failed, _ = self._loop(state, RSS_BINDS - ops,
                                          time.perf_counter() + RSS_GRACE_S, array("d"), None)
            totals[1] += failed
            rss.append(peak_rss_mb())
        else:
            extra = 0
        failed, wire = totals[1], totals[2]
        exhausted = state["index"] >= state["end"]
        state["server"].send("stop")
        report = state["server"].finish() or {}
        result = {
            "attempted": ops + extra,
            "failed": failed,
            "records": ops,
            "wire_records": ops * RECORDS_PER_BIND,
            "wire_bytes": wire,
            "latency": latency,
            "lat_speed": run.speed,
            "rate": ops / run.busy,
            "rate_speed": run.speed,
            "peak_rss_mb": rss[0],
            "info": {"documents_exhausted": exhausted, "rss_binds": ops + extra,
                     "unmeasured_binds": extra},
        }
        if spans is None:
            return result
        hits = receiver.converter_cache_hits - hits0
        builds = receiver.converter_builds - builds0
        self._spans(spans, stamps)
        result["layers"] = {
            "pbio.converter_hit_ratio": hits / max(1, hits + builds),
            "pbio.converter_builds": builds / max(1, ops),
            "metaserver.fetch_retries": client.retries - retries0,
            "gen.cpu_us_per_op": run.cpu / max(1, ops) * 1e6,
            "server.cpu_us_per_op": report.get("cpu_s", 0.0) / max(1, report.get("requests", 1)) * 1e6,
        }
        return result

    @staticmethod
    def _spans(spans: Spans, stamps) -> None:
        width = 7 + RECORDS_PER_BIND
        stages = ("core.sender_register", "pbio.encode", "metaserver.fetch",
                  "schema.parse", "core.register", "pbio.learn_format")
        for op in range(len(stamps) // width):
            t = stamps[op * width : (op + 1) * width]
            root = spans.add("bind", t[0], t[-1], -1, op)
            for position, name in enumerate(stages):
                spans.add(name, t[position], t[position + 1], root, op)
            spans.add("pbio.first_decode", t[6], t[7], root, op)
            for position in range(7, width - 1):
                spans.add("pbio.decode", t[position], t[position + 1], root, op)

    def layers_from_spans(self, table: dict) -> dict:
        def dur(name):
            return table.get(name, (0, 0.0, 0.0))[1]

        bind = dur("bind")
        children = sum(
            count * duration for name, (count, duration, _) in table.items() if name != "bind"
        )
        ops = table.get("bind", (1, 0.0, 0.0))[0]
        return {
            "core.sender_register_ms": dur("core.sender_register") * 1e3,
            "pbio.encode_us": dur("pbio.encode") / RECORDS_PER_BIND * 1e6,
            "metaserver.fetch_ms": dur("metaserver.fetch") * 1e3,
            "schema.parse_ms": dur("schema.parse") * 1e3,
            "core.register_ms": dur("core.register") * 1e3,
            "pbio.learn_format_us": dur("pbio.learn_format") * 1e6,
            "pbio.first_decode_us": dur("pbio.first_decode") * 1e6,
            "pbio.decode_us": dur("pbio.decode") * 1e6,
            "trace.op_us": bind * 1e6,
            "trace.reconcile_frac": children / ops / bind - 1.0 if bind else 0.0,
        }

    def overhead(self, untraced: dict, traced: dict) -> float:
        """Traced over untraced mean bind, each at the reference speed."""
        return (mean(traced["latency"]) * traced["lat_speed"]) / (
            mean(untraced["latency"]) * untraced["lat_speed"]) - 1.0

    def probes(self) -> dict:
        return {}
