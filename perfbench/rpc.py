"""``rpc_tcp`` and ``rpc_shm``: closed-loop request/echo round trips.

One client sends a seeded mix of the Table-1 records (A, B and C/D
with seeded ``eta_count``) and waits for each echo before sending the
next.  ``rpc_tcp`` runs SPARC_32 -> X86_64 over loopback TCP, so both
ends convert; ``rpc_shm`` runs X86_64 -> X86_64 over a ``ShmChannel``
ring pair, the only path through ``repro.mp``.

Format metadata is exchanged by ``RecordConnection`` during set-up;
the measured loop then calls the steady-state path of a connection
directly (``IOContext.encode``/``decode``, ``Channel.send``/``recv``),
the same calls in the traced and untraced runs.
"""

from __future__ import annotations

import struct
import time
from array import array

import servers
from common import (
    OP_TIMEOUT,
    ServerProcess,
    Sliced,
    Spans,
    airline_pool,
    mean,
    per_call,
    register_table1,
)

POOL_SIZE = 1024
WARMUP_OPS = 600
PROBE_SECONDS = 0.5


class RpcWorkload:
    def __init__(self, transport: str, seed: int) -> None:
        from repro import SPARC_32, X86_64

        self.transport = transport
        self.prefix = "transport" if transport == "tcp" else "mp"
        self.client_arch = SPARC_32 if transport == "tcp" else X86_64
        self.pool = airline_pool(seed, POOL_SIZE)
        #: Mean peer time per op outside the client's wait (traced run).
        self._outside_us = 0.0

    # -- set-up ----------------------------------------------------------------

    def setup(self, traced: bool) -> dict:
        from repro import IOContext, RecordConnection, listen

        if self.transport == "tcp":
            listener = listen()
            try:
                server = ServerProcess(
                    servers.rpc_echo, "tcp", listener.address, "x86_64", traced
                )
                channel = listener.accept(timeout=OP_TIMEOUT)
            finally:
                listener.close()
        else:
            from repro.mp.shm import ShmChannel

            channel, endpoint = ShmChannel.create()
            server = ServerProcess(servers.rpc_echo, "shm", endpoint.uri(), "x86_64", traced)
        context = IOContext(self.client_arch)
        formats = register_table1(context)
        connection = RecordConnection(context, channel)
        # One request per type pushes our metadata; each echo pulls the
        # peer's.
        for name in formats:
            record = next(record for kind, record in self.pool if kind == name)
            connection.send(name, record)
            connection.recv(OP_TIMEOUT)
        items = [(formats[kind], record) for kind, record in self.pool]
        state = {"server": server, "channel": channel, "context": context, "items": items}
        self._loop(state, WARMUP_OPS, float("inf"), array("d"), None)
        return state

    def discard(self, state: dict) -> None:
        state["channel"].close()
        state["server"].finish()

    # -- measurement -----------------------------------------------------------

    def _loop(self, state, max_ops, deadline, latency, stamps):
        """Run round trips until ``max_ops`` or ``deadline``, appending
        each one's time to ``latency``.

        Returns (ops, failed, request bytes).  With ``stamps`` each op
        appends five times: before encode, after encode, after send,
        after recv, after decode.
        """
        from repro.errors import ReproError

        context = state["context"]
        channel = state["channel"]
        items = state["items"]
        encode, decode = context.encode, context.decode
        send, recv = channel.send, channel.recv
        perf = time.perf_counter
        count = len(items)
        ops = failed = sent = 0
        while ops < max_ops:
            fmt, record = items[ops % count]
            message = b""
            try:
                t0 = perf()
                message = encode(fmt, record)
                t1 = perf()
                send(message)
                t2 = perf()
                reply = recv(OP_TIMEOUT)
                t3 = perf()
                echoed = decode(reply)
                t4 = perf()
                ok = echoed.values == record
            except ReproError:
                t4 = perf()
                t1 = t2 = t3 = t4
                ok = False
            ops += 1
            sent += len(message)
            latency.append(t4 - t0)
            if stamps is not None:
                stamps.extend((t0, t1, t2, t3, t4))
            if not ok:
                failed += 1
            if t4 >= deadline:
                break
        return ops, failed, sent

    def measure(self, state: dict, seconds: float, spans: Spans | None, speed) -> dict:
        context = state["context"]
        stamps = array("d") if spans is not None else None
        stats_before = state["channel"].stats() if self.transport == "shm" else None
        hits0, builds0 = context.converter_cache_hits, context.converter_builds
        latency = array("d")
        totals = [0, 0, 0]  # ops, failed, request bytes

        def work(deadline):
            done = self._loop(state, float("inf"), deadline, latency, stamps)
            for position, value in enumerate(done):
                totals[position] += value

        run = Sliced(seconds, speed, work)
        ops, failed, sent = totals
        hits = context.converter_cache_hits - hits0
        builds = context.converter_builds - builds0
        stats_after = state["channel"].stats() if self.transport == "shm" else None
        state["channel"].close()
        report = state["server"].finish() or {}
        result = {
            "attempted": ops,
            "failed": failed,
            "records": ops,
            "wire_bytes": sent,
            "latency": latency,
            "lat_speed": run.speed,
            "rate": ops / run.busy,
            "rate_speed": run.speed,
        }
        if spans is None:
            return result
        layers = {
            "pbio.converter_hit_ratio": hits / max(1, hits + builds),
            "pbio.converter_builds": builds / max(1, ops),
            "gen.cpu_us_per_op": run.cpu / ops * 1e6,
            "server.cpu_us_per_op": report.get("cpu_s", 0.0) / max(1, report.get("ops", 1)) * 1e6,
        }
        if stats_after is not None:
            layers["mp.ring_stalls"] = sum(
                stats_after[side]["stalls"] - stats_before[side]["stalls"]
                for side in ("send", "recv")
            )
        server_stamps = array("d")
        server_stamps.frombytes(report.get("stamps", b""))
        layers.update(self._spans(spans, stamps, server_stamps, failed == 0))
        result["layers"] = layers
        return result

    def _spans(self, spans: Spans, stamps, server_stamps, aligned: bool) -> dict:
        """Client spans per op, with the echo peer's spans as children of
        the client's receive wait when the two logs line up op for op
        (they do unless an op failed).

        The peer cannot receive a request before the client began
        sending it, nor send the reply after the client received it:
        stamps that break either were paired with the wrong op, and
        ``trace.misaligned_frac`` is the share of such ops.  Peer work
        that lies outside the client's wait (the two run on different
        CPUs, so the peer may start before ``send`` returns) is kept in
        ``_outside_us``.
        """
        p = self.prefix
        ops = len(stamps) // 5
        # The peer also served set-up's warm-up requests first.
        offset = WARMUP_OPS
        have_server = aligned and len(server_stamps) // 4 >= offset + ops
        misaligned = 0
        outside = 0.0
        for op in range(ops):
            t0, t1, t2, t3, t4 = stamps[op * 5 : op * 5 + 5]
            root = spans.add("rtt", t0, t4, -1, op)
            spans.add("pbio.encode", t0, t1, root, op)
            spans.add(f"{p}.send", t1, t2, root, op)
            wait = spans.add(f"{p}.recv_wait", t2, t3, root, op)
            spans.add("pbio.decode", t3, t4, root, op)
            if have_server:
                s0, s1, s2, s3 = server_stamps[(offset + op) * 4 : (offset + op) * 4 + 4]
                if s0 < t1 or s2 > t3:
                    misaligned += 1
                outside += (s3 - s0) - max(0.0, min(s3, t3) - max(s0, t2))
                server_op = spans.add("server.op", s0, s3, wait, op)
                spans.add("pbio.server_decode", s0, s1, server_op, op)
                spans.add("pbio.server_encode", s1, s2, server_op, op)
                spans.add(f"{p}.server_send", s2, s3, server_op, op)
        self._outside_us = outside / max(1, ops) * 1e6
        return {"trace.misaligned_frac": misaligned / max(1, ops) if have_server else 1.0}

    def layers_from_spans(self, table: dict) -> dict:
        """Per-layer means from span self times (microseconds)."""
        p = self.prefix

        def dur(name):
            return table.get(name, (0, 0.0, 0.0))[1] * 1e6

        def own(name):
            return table.get(name, (0, 0.0, 0.0))[2] * 1e6

        rtt = dur("rtt")
        stages = {
            "pbio.encode_us": dur("pbio.encode"),
            f"{p}.send_us": dur(f"{p}.send"),
            "pbio.server_decode_us": dur("pbio.server_decode"),
            "pbio.server_encode_us": dur("pbio.server_encode"),
            f"{p}.server_send_us": dur(f"{p}.server_send"),
            "pbio.decode_us": dur("pbio.decode"),
            # The wait not covered by the peer's own work: wire, wake-ups
            # and framing in both directions.  Peer work outside the wait
            # did not shorten it, so it is added back: the stages then sum
            # to more than the round trip by that much, and by a round
            # trip's worth when the logs are paired wrongly.
            f"{p}.unattributed_us": own(f"{p}.recv_wait") + self._outside_us,
        }
        layers = dict(stages)
        layers[f"{p}.recv_wait_us"] = dur(f"{p}.recv_wait")
        layers["trace.op_us"] = rtt
        layers["trace.reconcile_frac"] = sum(stages.values()) / rtt - 1.0 if rtt else 0.0
        return layers

    def overhead(self, untraced: dict, traced: dict) -> float:
        """Traced over untraced mean round trip, each at the reference speed."""
        return (mean(traced["latency"]) * traced["lat_speed"]) / (
            mean(untraced["latency"]) * untraced["lat_speed"]) - 1.0

    # -- probes ----------------------------------------------------------------

    def probes(self) -> dict:
        """Headroom: the same request bytes through bare primitives."""
        from repro import IOContext

        context = IOContext(self.client_arch)
        formats = register_table1(context)
        messages = [context.encode(formats[kind], record) for kind, record in self.pool]
        order = ">" if self.client_arch.byte_order == "big" else "<"
        # One struct.unpack_from over each NDR payload, as 32-bit words.
        plans = [struct.Struct(f"{order}{(len(m) - 16) // 4}I") for m in messages]

        def unpack_all():
            for plan, message in zip(plans, messages):
                plan.unpack_from(message, 16)

        echo_floor = _tcp_echo_floor if self.transport == "tcp" else _ring_echo_floor
        return {
            "pbio.decode_floor_us": per_call(unpack_all, len(messages), PROBE_SECONDS),
            f"{self.prefix}.echo_floor_us": echo_floor(messages),
        }


def _echo_rounds(send, recv, messages) -> float:
    """Microseconds per round trip over the messages, after a warm-up."""
    for message in messages[:100]:
        send(message)
        recv()

    def echo_all():
        for message in messages:
            send(message)
            recv()

    return per_call(echo_all, len(messages), PROBE_SECONDS)


def _tcp_echo_floor(messages) -> float:
    import socket

    header = struct.Struct(">I")
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(OP_TIMEOUT)
    try:
        server = ServerProcess(servers.raw_tcp_echo, *listener.getsockname()[:2])
        sock, _ = listener.accept()
    finally:
        listener.close()
    sock.settimeout(OP_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)

    def send(message):
        sock.sendall(header.pack(len(message)) + message)

    def recv():
        got = 0
        end = 4
        while got < end:
            count = sock.recv_into(view[got:end])
            if not count:
                raise ConnectionError("echo peer closed the connection")
            got += count
            if got == 4:
                end = 4 + header.unpack_from(buffer)[0]

    try:
        return _echo_rounds(send, recv, messages)
    finally:
        sock.close()
        server.finish()


def _ring_echo_floor(messages) -> float:
    from repro.mp.ring import RingBuffer

    outbound = RingBuffer.create(1 << 20)
    inbound = RingBuffer.create(1 << 20)
    server = ServerProcess(servers.raw_ring_echo, outbound.name, inbound.name)
    try:
        return _echo_rounds(
            lambda message: outbound.push((message,)),
            lambda: inbound.pop(OP_TIMEOUT),
            messages,
        )
    finally:
        outbound.close_producer()
        inbound.close_consumer()
        server.finish()
        for ring in (outbound, inbound):
            ring.detach()
            ring.unlink()
