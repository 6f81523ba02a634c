"""Server processes, each started with the spawn method.

Every target takes the child end of a control pipe first: it sends one
ready message once it can serve, and one report (CPU seconds, counts,
optional span stamps) when its peer closes or it is told to stop.
"""

from __future__ import annotations

import socket
import struct
import time
from array import array

from common import OP_TIMEOUT, bind_schema, reference_rate, register_table1


def _open_channel(transport: str, where):
    if transport == "tcp":
        from repro.transport import connect

        return connect(*where)
    from repro.mp.shm import ShmChannel

    return ShmChannel.attach(where)


def rpc_echo(ctl, transport: str, where, arch_name: str, traced: bool) -> None:
    """Echo peer: decode each request to its native shape, re-encode it
    in its own format and send it back.

    The first three requests (one per Table-1 type) go through
    :class:`RecordConnection`, which exchanges format metadata both
    ways; after that the peer calls the steady-state path directly.
    With ``traced`` it stamps recv-return, decode, encode and
    send-return of every request.
    """
    from repro import IOContext, RecordConnection, get_architecture
    from repro.errors import ChannelClosedError, ReproError, TransportError

    channel = _open_channel(transport, where)
    context = IOContext(get_architecture(arch_name))
    native = register_table1(context)
    connection = RecordConnection(context, channel)
    ctl.send("ready")
    for _ in range(len(native)):
        record = connection.recv(OP_TIMEOUT)
        connection.send(record.format_name, record.values)
    stamps = array("d")
    ops = 0
    perf = time.perf_counter
    cpu_start = time.process_time()
    while True:
        try:
            message = channel.recv()
        except (ChannelClosedError, TransportError):
            break
        t0 = perf()
        try:
            record = context.decode(message)
            t1 = perf()
            reply = context.encode(native[record.format_name], record.values)
        except (ReproError, KeyError):
            t1 = perf()
            reply = bytes(message)  # the client counts the mismatch
        t2 = perf()
        try:
            channel.send(reply)
        except (ChannelClosedError, TransportError):
            break
        if traced:
            stamps.extend((t0, t1, t2, perf()))
        ops += 1
    cpu = time.process_time() - cpu_start
    channel.close()
    ctl.send({"cpu_s": cpu, "ops": ops, "stamps": stamps.tobytes()})


def raw_tcp_echo(ctl, host: str, port: int) -> None:
    """Floor: echo length-prefixed frames with bare socket calls."""
    header = struct.Struct(">I")
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    ctl.send("ready")
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    try:
        while True:
            got = 0
            while got < 4:
                count = sock.recv_into(view[got:4])
                if not count:
                    return
                got += count
            (length,) = header.unpack_from(buffer)
            end = 4 + length
            while got < end:
                count = sock.recv_into(view[got:end])
                if not count:
                    return
                got += count
            sock.sendall(view[:end])
    finally:
        sock.close()
        ctl.send({})


def raw_ring_echo(ctl, inbound: str, outbound: str) -> None:
    """Floor: echo frames between two bare shared-memory rings."""
    from repro.errors import ChannelClosedError, TransportError
    from repro.mp.ring import RingBuffer

    source = RingBuffer.attach(inbound)
    sink = RingBuffer.attach(outbound)
    ctl.send("ready")
    try:
        while True:
            try:
                sink.push((source.pop(OP_TIMEOUT * 6),))
            except (ChannelClosedError, TransportError):
                break
    finally:
        source.close_consumer()
        sink.close_producer()
        source.detach()
        sink.detach()
        ctl.send({})


def broker(ctl) -> None:
    """An :class:`AsyncEventBroker` on an ephemeral loopback port."""
    import asyncio

    from repro.aio.broker import AsyncEventBroker

    async def serve() -> None:
        server = await AsyncEventBroker().start()
        cpu_start = time.process_time()
        ctl.send(server.address)
        await asyncio.get_running_loop().run_in_executor(None, ctl.recv)
        await server.stop()
        ctl.send({"cpu_s": time.process_time() - cpu_start})

    asyncio.run(serve())


def metadata_server(ctl, seed: int, start: int, count: int) -> None:
    """A threaded :class:`MetadataServer` loaded with ``count`` seeded
    schema documents at ``/bind/<index>.xsd`` from index ``start``."""
    from repro import MetadataServer

    server = MetadataServer().start()
    for index in range(start, start + count):
        server.publish_schema(f"/bind/{index}.xsd", bind_schema(seed, index)[1])
    cpu_start = time.process_time()
    ctl.send(server.address)
    ctl.recv()
    cpu = time.process_time() - cpu_start
    served = server.requests_served
    server.stop()
    ctl.send({"cpu_s": cpu, "requests": served})


def calibrator(ctl) -> None:
    """Run the reference loop for the seconds asked and answer with its
    rate, until asked for ``None``."""
    ctl.send("ready")
    while (seconds := ctl.recv()) is not None:
        ctl.send(reference_rate(seconds))
    ctl.send({})
