"""The networked event backbone: broker server and remote clients.

Figure 3's deployment has capture points and consumers on *different
machines*, connected through the backbone.  This module puts the broker
behind a TCP listener so that the in-process
:class:`~repro.events.EventBackbone` semantics — streams, pattern
subscriptions, metadata replay for late joiners — are available across
real sockets.

Wire protocol (per framed message, after the shared length prefix)::

    u8   op          1=SUBSCRIBE  2=PUBLISH  3=EVENT  4=ADVERTISE
    u16  name_len    stream name (PUBLISH/EVENT/ADVERTISE) or pattern
    ...  name          (SUBSCRIBE), UTF-8
    u16  extra_len   metadata URL for ADVERTISE; empty otherwise
    ...  extra
    ...  payload     the opaque application message (PUBLISH/EVENT):
                     a standard PBIO context message, metadata or data

The broker never looks inside payloads — it is subject-based routing in
the TIBCO style the paper names as a delivery substrate.  Application
format metadata flows *through* the broker as ordinary routed messages
and is replayed from the broker's per-stream cache to late subscribers,
so a remote handheld that joins mid-stream decodes without publisher
cooperation, exactly like the in-process case.
"""

from __future__ import annotations

import struct
import threading

from repro.errors import ChannelClosedError, TransportError, WireError
from repro.events.backbone import EventBackbone, _SubscriberQueue
from repro.events.endpoints import Event
from repro.obs.propagate import extract, inject
from repro.pbio.context import (
    HEADER_SIZE,
    KIND_BATCH,
    KIND_DATA,
    KIND_FORMAT,
    IOContext,
)
from repro.pbio.format import IOFormat
from repro.transport.channel import Channel
from repro.transport.tcp import ReconnectingTCPChannel, TCPListener, connect

OP_SUBSCRIBE = 1
OP_PUBLISH = 2
OP_EVENT = 3
OP_ADVERTISE = 4
OP_SUBSCRIBED = 5  # broker -> client: subscription is active
OP_PING = 6
OP_PONG = 7


def pack_envelope(op: int, name: str, extra: str = "", payload: bytes = b"") -> bytes:
    """Build one broker envelope (see docs/PROTOCOL.md §7)."""
    name_bytes = name.encode("utf-8")
    extra_bytes = extra.encode("utf-8")
    return (
        struct.pack(">BH", op, len(name_bytes))
        + name_bytes
        + struct.pack(">H", len(extra_bytes))
        + extra_bytes
        + payload
    )


def unpack_envelope(message: bytes) -> tuple[int, str, str, bytes]:
    """Split an envelope into (op, name, extra, payload)."""
    try:
        op, name_len = struct.unpack_from(">BH", message, 0)
        cursor = 3
        name = message[cursor : cursor + name_len].decode("utf-8")
        cursor += name_len
        (extra_len,) = struct.unpack_from(">H", message, cursor)
        cursor += 2
        extra = message[cursor : cursor + extra_len].decode("utf-8")
        cursor += extra_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"malformed backbone envelope: {exc}") from exc
    return op, name, extra, message[cursor:]


class BrokerServer:
    """A TCP front end over an :class:`EventBackbone`.

    One thread accepts connections; each connection gets a reader
    thread (handling SUBSCRIBE/PUBLISH/ADVERTISE) and a delivery thread
    (pumping matched events back as EVENT envelopes).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backbone: EventBackbone | None = None,
    ) -> None:
        self.backbone = backbone if backbone is not None else EventBackbone()
        self._listener = TCPListener(host, port)
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self.connections_served = 0

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.address

    def start(self) -> "BrokerServer":
        """Start the accept loop on a daemon thread (fluent)."""
        if self._accept_thread is not None:
            raise TransportError("broker already started")
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, join the accept thread."""
        self._stop.set()
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling --------------------------------------------------

    def serve_channel(self, channel: Channel) -> None:
        """Serve a subscriber/publisher over an already-connected channel.

        The broker protocol is channel-agnostic; this entry point is how
        co-located clients skip TCP entirely and attach over an
        :class:`~repro.mp.shm.ShmChannel` (PROTOCOL §15): create a pair,
        hand one end here, drive the other with
        :class:`RemoteBackboneClient`.  Spawns the same reader/delivery
        threads as an accepted connection and returns immediately.
        """
        self.connections_served += 1
        worker = threading.Thread(
            target=self._serve_connection, args=(channel,), daemon=True
        )
        worker.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                channel = self._listener.accept(timeout=0.2)
            except TransportError:
                continue
            except Exception:
                return
            self.connections_served += 1
            worker = threading.Thread(
                target=self._serve_connection, args=(channel,), daemon=True
            )
            worker.start()

    def _serve_connection(self, channel: Channel) -> None:
        queue = _SubscriberQueue()
        send_lock = threading.Lock()
        deliverer = threading.Thread(
            target=self._delivery_loop, args=(channel, queue, send_lock), daemon=True
        )
        deliverer.start()
        subscribed = False
        try:
            while not self._stop.is_set():
                try:
                    message = channel.recv(timeout=0.5)
                except ChannelClosedError:
                    break
                except TransportError as exc:
                    if getattr(exc, "mid_frame", False):
                        break  # stream desynchronized: drop the connection
                    continue  # recv timeout: poll the stop flag
                op, name, extra, payload = unpack_envelope(message)
                if op == OP_SUBSCRIBE:
                    self.backbone.attach_queue(name, queue)
                    subscribed = True
                    # Acknowledge so the client knows routing is active
                    # before it lets publishers race ahead.
                    with send_lock:
                        channel.send(pack_envelope(OP_SUBSCRIBED, name))
                elif op == OP_PUBLISH:
                    self.backbone.route(name, payload)
                elif op == OP_ADVERTISE:
                    self.backbone.set_metadata_url(name, extra)
                elif op == OP_PING:
                    # Messages on one connection are processed in order,
                    # so the pong confirms every earlier publish routed.
                    with send_lock:
                        channel.send(pack_envelope(OP_PONG, name))
                else:
                    raise WireError(f"unexpected op {op} from client")
        except (ChannelClosedError, WireError, OSError):
            pass
        finally:
            if subscribed:
                self.backbone.unsubscribe(queue)
            else:
                queue.close()
            channel.close()

    def _delivery_loop(self, channel: Channel, queue: _SubscriberQueue, lock) -> None:
        while not self._stop.is_set():
            try:
                frame = queue.get_frame(timeout=0.5)
            except TransportError as exc:
                if "cancelled" in str(exc):
                    return
                continue
            try:
                with lock:
                    # envelope() is cached on the frame shared by every
                    # subscriber of this publish: serialized once, sent N
                    # times — no per-sink re-framing.
                    channel.send(frame.envelope())
            except (ChannelClosedError, TransportError, OSError):
                return


class RemoteBackboneClient:
    """A client endpoint on a remote broker.

    Mirrors the in-process API: :meth:`publisher` returns an object with
    ``publish``/``advertise_metadata``; :meth:`subscribe` registers a
    pattern; :meth:`next_event` blocks for the next decoded event across
    all subscribed patterns (learning application formats from in-stream
    metadata, exactly like a local subscription).
    """

    def __init__(self, channel: Channel, context: IOContext) -> None:
        self.channel = channel
        self.context = context
        self._send_lock = threading.Lock()
        self._pending: list[bytes] = []  # events buffered during subscribe
        self._ready: list[Event] = []  # events expanded from a batch message
        self.patterns: list[str] = []

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        context: IOContext,
        *,
        max_reconnects: int = 0,
    ) -> "RemoteBackboneClient":
        """Connect to a broker; ``max_reconnects > 0`` enables bounded
        redial-on-failure with automatic re-subscription of this
        client's patterns (events published while disconnected are
        lost — at-most-once, like the socket itself)."""
        if max_reconnects <= 0:
            return cls(connect(host, port), context)
        client_ref: list["RemoteBackboneClient"] = []

        def resubscribe(fresh_channel) -> None:
            for pattern in client_ref[0].patterns:
                fresh_channel.send(pack_envelope(OP_SUBSCRIBE, pattern))

        channel = ReconnectingTCPChannel(
            host, port, max_reconnects=max_reconnects, on_reconnect=resubscribe
        )
        client = cls(channel, context)
        client_ref.append(client)
        return client

    # -- publishing ----------------------------------------------------------

    def publisher(self, stream: str) -> "RemotePublisher":
        """A publishing handle on ``stream`` over this connection."""
        return RemotePublisher(self, stream)

    def _send(self, message: bytes) -> None:
        with self._send_lock:
            self.channel.send(message)

    # -- subscribing ----------------------------------------------------------

    def subscribe(self, pattern: str, timeout: float = 10.0) -> None:
        """Register ``pattern``; returns once the broker confirms.

        The confirmation matters: without it, a publish on another
        connection could be routed before this subscription exists and
        the event would be silently missed.  Events arriving for earlier
        subscriptions while waiting are buffered for :meth:`next_event`.
        """
        self._send(pack_envelope(OP_SUBSCRIBE, pattern))
        while True:
            message = self.channel.recv(timeout)
            op, name, _, _ = unpack_envelope(message)
            if op == OP_SUBSCRIBED and name == pattern:
                break
            if op == OP_EVENT:
                self._pending.append(message)
                continue
            raise WireError(f"unexpected op {op} while awaiting subscribe ack")
        self.patterns.append(pattern)

    def flush(self, timeout: float = 10.0) -> None:
        """Block until the broker has processed everything sent so far."""
        self._send(pack_envelope(OP_PING, "sync"))
        while True:
            message = self.channel.recv(timeout)
            op, _, _, _ = unpack_envelope(message)
            if op == OP_PONG:
                return
            if op == OP_EVENT:
                self._pending.append(message)
                continue
            raise WireError(f"unexpected op {op} while awaiting pong")

    def next_event(
        self, timeout: float | None = None, *, expect: str | None = None
    ) -> Event:
        """Block for the next data event on any subscribed pattern.

        Columnar batch messages are expanded transparently: each record
        in the batch becomes one event, in batch order.
        """
        while True:
            if self._ready:
                return self._ready.pop(0)
            if self._pending:
                message = self._pending.pop(0)
            else:
                message = self.channel.recv(timeout)
            op, stream_name, _, payload = unpack_envelope(message)
            if op in (OP_SUBSCRIBED, OP_PONG):
                # Late acks (e.g. automatic re-subscription after a
                # reconnect) are not events; skip them.
                continue
            if op != OP_EVENT:
                raise WireError(f"unexpected op {op} from broker")
            payload, trace = extract(payload)
            kind, _, _, length, _ = IOContext.parse_header(payload)
            if kind == KIND_FORMAT:
                self.context.learn_format(payload[HEADER_SIZE : HEADER_SIZE + length])
                continue
            if kind == KIND_BATCH:
                batch = self.context.decode_batch(payload)
                self._ready.extend(
                    Event(
                        stream=stream_name,
                        format_name=batch.format_name,
                        values=values,
                        trace=trace,
                    )
                    for values in batch.records
                )
                continue
            if kind != KIND_DATA:
                continue
            decoded = self.context.decode(payload, expect=expect)
            return Event(
                stream=stream_name,
                format_name=decoded.format_name,
                values=decoded.values,
                trace=trace,
            )

    def close(self) -> None:
        """Disconnect from the broker."""
        self.channel.close()

    def __enter__(self) -> "RemoteBackboneClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemotePublisher:
    """A capture point's handle on one stream of a remote broker."""

    def __init__(self, client: RemoteBackboneClient, stream: str) -> None:
        self.client = client
        self.stream = stream
        self._announced: set[bytes] = set()
        self.published = 0

    def publish(self, fmt: IOFormat | str, record: dict) -> None:
        """Encode and publish one record (metadata pushed on first use)."""
        context = self.client.context
        if isinstance(fmt, str):
            fmt = context.lookup_format(fmt)
        if fmt.format_id not in self._announced:
            self.client._send(
                pack_envelope(
                    OP_PUBLISH, self.stream, payload=context.format_message(fmt)
                )
            )
            self._announced.add(fmt.format_id)
        self.client._send(
            pack_envelope(
                OP_PUBLISH, self.stream, payload=inject(context.encode(fmt, record))
            )
        )
        self.published += 1

    def publish_batch(self, fmt: IOFormat | str, records) -> int:
        """Publish ``records`` as ONE columnar batch message; returns
        the record count.  The broker routes the single frame to every
        matching subscriber — fan-out cost is per-batch, not per-record.
        """
        context = self.client.context
        if isinstance(fmt, str):
            fmt = context.lookup_format(fmt)
        if fmt.format_id not in self._announced:
            self.client._send(
                pack_envelope(
                    OP_PUBLISH, self.stream, payload=context.format_message(fmt)
                )
            )
            self._announced.add(fmt.format_id)
        message = context.encode_batch(fmt, records)
        self.client._send(pack_envelope(OP_PUBLISH, self.stream, payload=message))
        self.published += 1
        return len(records)

    def advertise_metadata(self, url: str) -> None:
        """Advertise the stream's schema document URL on the broker."""
        self.client._send(pack_envelope(OP_ADVERTISE, self.stream, extra=url))
