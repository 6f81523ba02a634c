"""Golden-wire conformance: encode output is byte-pinned, on every plane.

The ``.bin`` files under ``tests/golden/`` are the wire contract.  For
each vector this suite asserts:

- ``IOContext.encode`` reproduces the golden data message *exactly* —
  with wire tracing disabled and enabled (trace context is injected at
  the connection/endpoint layer, never inside ``encode``, so the NDR
  bytes must not move);
- ``IOContext.format_message`` reproduces the golden metadata message;
- a receiver that learns the golden metadata decodes the golden data
  message back to the pinned record, after transiting a real channel on
  the threaded plane and on the asyncio plane;
- a trace-flagged copy of the golden message still decodes, and
  ``extract`` recovers the golden bytes exactly.
"""

import asyncio

import pytest

from repro import aio
from repro.obs import (
    TraceContext,
    extract,
    get_tracer,
    inject,
    set_wire_tracing,
)
from repro.mp.shm import ShmChannel
from repro.pbio.context import HEADER_SIZE, IOContext
from repro.pbio.oracle import make_interpreted_converter
from repro.transport import make_pipe

from tests.golden import vectors


def golden_bytes(name):
    """The checked-in (data message, metadata message) pair."""
    return vectors.data_path(name).read_bytes(), vectors.meta_path(name).read_bytes()


def assert_matches_record(decoded, record):
    """Decoded values equal the pinned record, field for field."""
    for key, expected in record.items():
        actual = decoded[key]
        if isinstance(expected, list):
            assert list(actual) == expected, key
        else:
            assert actual == expected, key


@pytest.fixture(params=vectors.VECTOR_NAMES)
def vector(request):
    """(name, context, fmt, record, golden_data, golden_meta)."""
    name = request.param
    context, fmt, record = vectors.build(name)
    golden_data, golden_meta = golden_bytes(name)
    return name, context, fmt, record, golden_data, golden_meta


class TestByteExactEncode:
    def test_data_message_matches_golden(self, vector, fresh_registry):
        _, context, fmt, record, golden_data, _ = vector
        assert context.encode(fmt, record) == golden_data

    def test_metadata_message_matches_golden(self, vector, fresh_registry):
        _, context, fmt, _, _, golden_meta = vector
        assert context.format_message(fmt) == golden_meta

    def test_encode_identical_with_wire_tracing_enabled(
        self, vector, fresh_registry
    ):
        _, context, fmt, record, golden_data, golden_meta = vector
        set_wire_tracing(True)
        with get_tracer().start_span("golden-encode"):
            assert context.encode(fmt, record) == golden_data
            assert context.format_message(fmt) == golden_meta

    def test_encode_identical_with_registry_disabled(self, vector, fresh_registry):
        _, context, fmt, record, golden_data, _ = vector
        fresh_registry.disable()
        assert context.encode(fmt, record) == golden_data


class TestEncodeInto:
    """The in-place encoder is held to the same byte-pinned contract."""

    def test_byte_identical_to_encode(self, vector, fresh_registry):
        _, context, fmt, record, golden_data, _ = vector
        buffer = bytearray(len(golden_data) + 64)
        written = context.encode_into(fmt, record, buffer)
        assert bytes(buffer[:written]) == golden_data

    def test_byte_identical_at_nonzero_offset(self, vector, fresh_registry):
        _, context, fmt, record, golden_data, _ = vector
        buffer = bytearray(len(golden_data) + 128)
        written = context.encode_into(fmt, record, buffer, offset=32)
        assert bytes(buffer[32:32 + written]) == golden_data

    def test_byte_identical_with_wire_tracing_enabled(
        self, vector, fresh_registry
    ):
        _, context, fmt, record, golden_data, _ = vector
        set_wire_tracing(True)
        with get_tracer().start_span("golden-encode-into"):
            buffer = bytearray(len(golden_data))
            written = context.encode_into(fmt, record, buffer)
            assert bytes(buffer[:written]) == golden_data

    def test_byte_identical_with_registry_disabled(self, vector, fresh_registry):
        _, context, fmt, record, golden_data, _ = vector
        fresh_registry.disable()
        buffer = bytearray(len(golden_data))
        written = context.encode_into(fmt, record, buffer)
        assert bytes(buffer[:written]) == golden_data

    def test_undersized_buffer_rejected_with_needed_size(
        self, vector, fresh_registry
    ):
        from repro.errors import EncodeError
        from repro.pbio.context import HEADER_SIZE as HDR

        _, context, fmt, record, golden_data, _ = vector
        with pytest.raises(EncodeError) as excinfo:
            context.encode_into(fmt, record, bytearray(HDR))
        assert excinfo.value.needed == len(golden_data) - HDR

    def test_threaded_plane_transits_encode_into_view(
        self, vector, fresh_registry
    ):
        _, context, fmt, record, golden_data, golden_meta = vector
        buffer = bytearray(len(golden_data))
        written = context.encode_into(fmt, record, buffer)
        left, right = make_pipe()
        left.send(golden_meta)
        left.send(memoryview(buffer)[:written])
        receiver = IOContext()
        meta = right.recv(timeout=5)
        _, _, _, length, _ = receiver.parse_header(meta)
        receiver.learn_format(meta[HEADER_SIZE:HEADER_SIZE + length])
        data = right.recv(timeout=5)
        assert data == golden_data
        assert_matches_record(receiver.decode(data), record)

    @pytest.mark.parametrize("tracing", [False, True], ids=["plain", "traced"])
    def test_async_plane_transits_encode_into_view(
        self, vector, fresh_registry, arun, tracing
    ):
        _, context, fmt, record, golden_data, golden_meta = vector
        buffer = bytearray(len(golden_data))
        written = context.encode_into(fmt, record, buffer)
        message = memoryview(buffer)[:written]

        async def scenario():
            listener = await aio.listen()
            client_task = asyncio.ensure_future(aio.connect(*listener.address))
            server = await listener.accept(timeout=5)
            client = await client_task
            try:
                payload = (
                    inject(bytes(message), TraceContext(3, 5))
                    if tracing else message
                )
                await client.send(golden_meta)
                await client.send(payload)
                await client.flush()
                meta = await server.recv(timeout=5)
                data = await server.recv(timeout=5)
            finally:
                await client.close()
                await server.close()
                await listener.close()
            return meta, data

        meta, data = arun(scenario())
        assert meta == golden_meta
        recovered, trace = extract(data)
        assert recovered == golden_data
        assert trace == (TraceContext(3, 5) if tracing else None)
        receiver = IOContext()
        _, _, _, length, _ = receiver.parse_header(meta)
        receiver.learn_format(meta[HEADER_SIZE:HEADER_SIZE + length])
        assert_matches_record(receiver.decode(recovered), record)


class TestGoldenDecode:
    def test_receiver_decodes_golden_bytes(self, vector, fresh_registry):
        name, _, _, record, golden_data, golden_meta = vector
        receiver = IOContext()
        _, _, _, length, _ = receiver.parse_header(golden_meta)
        receiver.learn_format(golden_meta[HEADER_SIZE:HEADER_SIZE + length])
        decoded = receiver.decode(golden_data)
        assert_matches_record(decoded, record)

    def test_interpreted_converter_agrees(self, vector, fresh_registry):
        _, _, _, record, golden_data, golden_meta = vector
        receiver = IOContext()
        _, _, _, length, _ = receiver.parse_header(golden_meta)
        wire = receiver.learn_format(golden_meta[HEADER_SIZE:HEADER_SIZE + length])
        decoded = make_interpreted_converter(wire)(golden_data[HEADER_SIZE:])
        assert_matches_record(decoded, record)


class TestTracePiggyback:
    def test_inject_extract_recovers_golden_exactly(self, vector, fresh_registry):
        _, _, _, _, golden_data, _ = vector
        context_in = TraceContext(trace_id=0xDEAD, span_id=0xBEEF)
        tagged = inject(golden_data, context_in)
        assert tagged != golden_data
        assert len(tagged) == len(golden_data) + 16
        recovered, context_out = extract(tagged)
        assert recovered == golden_data
        assert context_out == context_in

    def test_trace_flagged_message_still_decodes(self, vector, fresh_registry):
        _, _, _, record, golden_data, golden_meta = vector
        tagged = inject(golden_data, TraceContext(7, 9))
        receiver = IOContext()
        _, _, _, length, _ = receiver.parse_header(golden_meta)
        receiver.learn_format(golden_meta[HEADER_SIZE:HEADER_SIZE + length])
        # The header's length field still frames the NDR body, so even a
        # receiver that skips extract() decodes the payload correctly.
        assert_matches_record(receiver.decode(tagged), record)

    def test_metadata_messages_never_carry_trace(self, vector, fresh_registry):
        _, _, _, _, _, golden_meta = vector
        set_wire_tracing(True)
        with get_tracer().start_span("meta"):
            assert inject(golden_meta) == golden_meta


class TestGoldenAcrossChannels:
    def test_threaded_plane_transits_golden_bytes(self, vector, fresh_registry):
        _, _, _, record, golden_data, golden_meta = vector
        left, right = make_pipe()
        left.send(golden_meta)
        left.send(golden_data)
        receiver = IOContext()
        meta = right.recv(timeout=5)
        assert meta == golden_meta
        _, _, _, length, _ = receiver.parse_header(meta)
        receiver.learn_format(meta[HEADER_SIZE:HEADER_SIZE + length])
        data = right.recv(timeout=5)
        assert data == golden_data
        assert_matches_record(receiver.decode(data), record)

    @pytest.mark.parametrize("tracing", [False, True], ids=["plain", "traced"])
    def test_async_plane_transits_golden_bytes(
        self, vector, fresh_registry, arun, tracing
    ):
        _, _, _, record, golden_data, golden_meta = vector

        async def scenario():
            listener = await aio.listen()
            client_task = asyncio.ensure_future(aio.connect(*listener.address))
            server = await listener.accept(timeout=5)
            client = await client_task
            try:
                payload = (
                    inject(golden_data, TraceContext(3, 5))
                    if tracing else golden_data
                )
                await client.send(golden_meta)
                await client.send(payload)
                meta = await server.recv(timeout=5)
                data = await server.recv(timeout=5)
            finally:
                await client.close()
                await server.close()
                await listener.close()
            return meta, data

        meta, data = arun(scenario())
        assert meta == golden_meta
        message, trace = extract(data)
        assert message == golden_data
        assert trace == (TraceContext(3, 5) if tracing else None)
        receiver = IOContext()
        _, _, _, length, _ = receiver.parse_header(meta)
        receiver.learn_format(meta[HEADER_SIZE:HEADER_SIZE + length])
        assert_matches_record(receiver.decode(message), record)


@pytest.fixture(
    params=[
        (name, count)
        for name in vectors.BATCH_VECTOR_NAMES
        for count in vectors.BATCH_SIZES
    ],
    ids=lambda p: f"{p[0]}-batch{p[1]}",
)
def batch_vector(request):
    """(name, context, fmt, records, golden_batch, golden_meta)."""
    name, count = request.param
    context, fmt, _ = vectors.build(name)
    records = vectors.batch_records(name, count)
    golden_batch = vectors.batch_path(name, count).read_bytes()
    golden_meta = vectors.meta_path(name).read_bytes()
    return name, context, fmt, records, golden_batch, golden_meta


@pytest.fixture
def pure_python(monkeypatch):
    """Force the columnar codec's no-numpy path."""
    monkeypatch.setattr("repro.pbio.columnar._numpy_or_none", lambda: None)


def _learned_receiver(golden_meta):
    receiver = IOContext()
    _, _, _, length, _ = receiver.parse_header(golden_meta)
    receiver.learn_format(golden_meta[HEADER_SIZE:HEADER_SIZE + length])
    return receiver


class TestColumnarBatchVectors:
    """The columnar batch frames (PROTOCOL §14) are byte-pinned too."""

    def test_batch_message_matches_golden(self, batch_vector, fresh_registry):
        _, context, fmt, records, golden_batch, _ = batch_vector
        assert context.encode_batch(fmt, records) == golden_batch

    def test_iov_parts_join_to_golden(self, batch_vector, fresh_registry):
        _, context, fmt, records, golden_batch, _ = batch_vector
        parts = context.encode_batch_iov(fmt, records)
        assert b"".join(bytes(part) for part in parts) == golden_batch

    def test_encode_identical_with_wire_tracing_enabled(
        self, batch_vector, fresh_registry
    ):
        _, context, fmt, records, golden_batch, _ = batch_vector
        set_wire_tracing(True)
        with get_tracer().start_span("golden-batch-encode"):
            assert context.encode_batch(fmt, records) == golden_batch

    def test_batch_messages_never_carry_trace(self, batch_vector, fresh_registry):
        # inject() tags data messages only (PROTOCOL §11): a batch frame
        # passes through a tracing-enabled sender byte-identical.
        _, _, _, _, golden_batch, _ = batch_vector
        set_wire_tracing(True)
        with get_tracer().start_span("batch"):
            assert inject(golden_batch) == golden_batch

    def test_receiver_decodes_golden_batch(self, batch_vector, fresh_registry):
        _, _, _, records, golden_batch, golden_meta = batch_vector
        receiver = _learned_receiver(golden_meta)
        batch = receiver.decode_batch(golden_batch)
        assert len(batch) == len(records)
        for decoded, record in zip(batch, records):
            assert_matches_record(decoded, record)

    def test_pure_python_encode_matches_golden(
        self, batch_vector, fresh_registry, pure_python
    ):
        _, context, fmt, records, golden_batch, _ = batch_vector
        assert context.encode_batch(fmt, records) == golden_batch

    def test_numpy_encode_matches_golden(self, batch_vector, fresh_registry):
        pytest.importorskip("numpy")
        _, context, fmt, records, golden_batch, _ = batch_vector
        assert context.encode_batch(fmt, records) == golden_batch

    def test_pure_python_decode_agrees(
        self, batch_vector, fresh_registry, pure_python
    ):
        _, _, _, records, golden_batch, golden_meta = batch_vector
        receiver = _learned_receiver(golden_meta)
        batch = receiver.decode_batch(golden_batch)
        for decoded, record in zip(batch, records):
            assert_matches_record(decoded, record)

    def test_threaded_plane_transits_golden_batch(
        self, batch_vector, fresh_registry
    ):
        _, _, _, records, golden_batch, golden_meta = batch_vector
        left, right = make_pipe()
        left.send(golden_meta)
        left.send(golden_batch)
        receiver = IOContext()
        meta = right.recv(timeout=5)
        _, _, _, length, _ = receiver.parse_header(meta)
        receiver.learn_format(meta[HEADER_SIZE:HEADER_SIZE + length])
        data = right.recv(timeout=5)
        assert data == golden_batch
        for decoded, record in zip(receiver.decode_batch(data), records):
            assert_matches_record(decoded, record)

    @pytest.mark.parametrize("tracing", [False, True], ids=["plain", "traced"])
    def test_async_plane_transits_golden_batch(
        self, batch_vector, fresh_registry, arun, tracing
    ):
        _, context, fmt, records, golden_batch, golden_meta = batch_vector

        async def scenario():
            listener = await aio.listen()
            client_task = asyncio.ensure_future(aio.connect(*listener.address))
            server = await listener.accept(timeout=5)
            client = await client_task
            try:
                if tracing:
                    set_wire_tracing(True)
                await client.send(golden_meta)
                # Vectored send: the frame reaches the wire via the
                # iovec path, yet must arrive byte-identical.
                await client.send_batch(context.encode_batch_iov(fmt, records))
                meta = await server.recv(timeout=5)
                data = await server.recv(timeout=5)
            finally:
                await client.close()
                await server.close()
                await listener.close()
            return meta, bytes(data)

        meta, data = arun(scenario())
        assert meta == golden_meta
        assert data == golden_batch
        receiver = _learned_receiver(meta)
        for decoded, record in zip(receiver.decode_batch(data), records):
            assert_matches_record(decoded, record)


@pytest.fixture
def shm_pair():
    """A connected shared-memory channel pair, roomy enough for any vector."""
    sender, receiver_end = ShmChannel.pair(1 << 22)
    try:
        yield sender, receiver_end
    finally:
        sender.close()
        receiver_end.close()


class TestGoldenOverSharedMemory:
    """The shm transport (PROTOCOL §15) carries the pinned bytes unchanged."""

    def test_shm_transits_golden_bytes(self, vector, fresh_registry, shm_pair):
        _, _, _, record, golden_data, golden_meta = vector
        sender, receiver_end = shm_pair
        sender.send(golden_meta)
        sender.send(golden_data)
        meta = receiver_end.recv(timeout=5)
        assert meta == golden_meta
        receiver = _learned_receiver(meta)
        # Zero-copy receive: decode straight from ring memory.
        data = receiver_end.recv_view(timeout=5)
        assert bytes(data) == golden_data
        assert_matches_record(receiver.decode(data), record)

    def test_shm_transits_golden_batch_iov(
        self, batch_vector, fresh_registry, shm_pair
    ):
        _, context, fmt, records, golden_batch, golden_meta = batch_vector
        sender, receiver_end = shm_pair
        sender.send(golden_meta)
        # Vectored send: the iovec parts land sequentially in one ring
        # frame, yet must arrive byte-identical to the pinned batch.
        sender.send_batch(context.encode_batch_iov(fmt, records))
        meta = receiver_end.recv(timeout=5)
        assert meta == golden_meta
        receiver = _learned_receiver(meta)
        data = receiver_end.recv_view(timeout=5)
        assert bytes(data) == golden_batch
        for decoded, record in zip(receiver.decode_batch(data), records):
            assert_matches_record(decoded, record)
