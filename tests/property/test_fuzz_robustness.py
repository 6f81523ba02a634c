"""Fuzz-mutation properties: corruption never escapes the error types.

For any valid message and any single-byte mutation, decoding must either
succeed (payload-data mutations legitimately change values) or raise a
typed :class:`~repro.errors.ReproError` — never an unhandled exception,
never a hang.  Same for format metadata blocks and backbone envelopes.
A seeded suite drives the three NDR decode entry points (``decode``,
``decode_payload`` and ``decode_view(...).materialize()``) through byte
flips, truncations and hostile pointer and count values.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, SPARC_32, X86_64, XML2Wire, parse_schema
from repro.errors import ReproError
from repro.events.remote import unpack_envelope
from repro.pbio.context import HEADER, HEADER_SIZE, KIND_DATA, PROTOCOL_VERSION
from repro.pbio.decode import decode_payload
from repro.pbio.encode import get_encode_plan
from repro.pbio.format import IOFormat
from repro.wire import CDRCodec, XDRCodec
from repro.workloads import (
    ASDOFF_A_SCHEMA,
    ASDOFF_B_SCHEMA,
    ASDOFF_CD_SCHEMA,
    AirlineWorkload,
    make_synthetic_schema,
)

from tests.golden import vectors
from tests.xmlparse.test_chars import BOUNDARIES

RELAXED = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _fixture():
    sender = IOContext(SPARC_32)
    XML2Wire(sender).register_schema(ASDOFF_B_SCHEMA)
    fmt = sender.lookup_format("ASDOffEvent")
    record = AirlineWorkload(seed=123).record_b()
    message = sender.encode(fmt, record)
    receiver = IOContext(X86_64)
    receiver.learn_format(fmt.to_wire_metadata())
    return fmt, record, message, receiver


FMT, RECORD, MESSAGE, RECEIVER = _fixture()
METADATA = FMT.to_wire_metadata()
XDR_WIRE = XDRCodec(FMT).encode(RECORD)
CDR_WIRE = CDRCodec(FMT).encode(RECORD)


def mutate(data: bytes, position: int, delta: int) -> bytes:
    mutated = bytearray(data)
    mutated[position % len(data)] = (mutated[position % len(data)] + delta) % 256
    return bytes(mutated)


class TestSingleByteMutations:
    @RELAXED
    @given(position=st.integers(0, len(MESSAGE) - 1), delta=st.integers(1, 255))
    def test_ndr_message_mutation_contained(self, position, delta):
        broken = mutate(MESSAGE, position, delta)
        try:
            RECEIVER.decode(broken)
        except ReproError:
            pass  # typed failure is fine

    @RELAXED
    @given(position=st.integers(0, len(METADATA) - 1), delta=st.integers(1, 255))
    def test_metadata_mutation_contained(self, position, delta):
        broken = mutate(METADATA, position, delta)
        try:
            IOFormat.from_wire_metadata(broken)
        except ReproError:
            pass

    @RELAXED
    @given(position=st.integers(0, len(XDR_WIRE) - 1), delta=st.integers(1, 255))
    def test_xdr_mutation_contained(self, position, delta):
        broken = mutate(XDR_WIRE, position, delta)
        try:
            XDRCodec(FMT).decode(broken)
        except ReproError:
            pass

    @RELAXED
    @given(position=st.integers(0, len(CDR_WIRE) - 1), delta=st.integers(1, 255))
    def test_cdr_mutation_contained(self, position, delta):
        broken = mutate(CDR_WIRE, position, delta)
        try:
            CDRCodec(FMT).decode(broken)
        except ReproError:
            pass

    @RELAXED
    @given(data=st.binary(max_size=64))
    def test_envelope_garbage_contained(self, data):
        try:
            unpack_envelope(data)
        except ReproError:
            pass

    @RELAXED
    @given(data=st.binary(max_size=64))
    def test_metadata_garbage_contained(self, data):
        try:
            IOFormat.from_wire_metadata(data)
        except ReproError:
            pass


class TestTruncationSweep:
    def test_every_prefix_of_every_artifact_contained(self):
        artifacts = [
            (MESSAGE, lambda d: RECEIVER.decode(d)),
            (METADATA, IOFormat.from_wire_metadata),
            (XDR_WIRE, XDRCodec(FMT).decode),
            (CDR_WIRE, CDRCodec(FMT).decode),
        ]
        for data, decoder in artifacts:
            for cut in range(len(data)):
                try:
                    decoder(data[:cut])
                except ReproError:
                    continue
                except Exception as exc:  # pragma: no cover - the assertion
                    pytest.fail(
                        f"untyped {type(exc).__name__} at truncation {cut}: {exc}"
                    )


#: The paper's schemas and synthetic ones shaped like a cold bind's.
SCHEMA_DOCUMENTS = [
    ASDOFF_A_SCHEMA,
    ASDOFF_B_SCHEMA,
    ASDOFF_CD_SCHEMA,
    make_synthetic_schema(4, mix="integers", type_name="Bind0a1b2N0"),
    make_synthetic_schema(13, mix="mixed", type_name="Bind3c4d5N1"),
    make_synthetic_schema(24, mix="strings", type_name="Bind6e7f8N2"),
    make_synthetic_schema(7, mix="numeric", array_field=True),
]

#: Characters worth inserting: every character-class boundary (and its
#: neighbours) plus the characters markup is made of.
INSERTABLE = [chr(code) for code in BOUNDARIES] + list("<>&;#x\"'=/?!-[]: \n")


def parse_contained(source: str) -> None:
    """parse_schema either succeeds or raises a ReproError."""
    try:
        parse_schema(source)
    except ReproError:
        pass


class TestSchemaParseMutations:
    @RELAXED
    @given(
        document=st.sampled_from(SCHEMA_DOCUMENTS),
        position=st.integers(0, 10_000),
        delta=st.integers(1, 255),
    )
    def test_byte_flip_contained(self, document, position, delta):
        # Flipped UTF-8 may not decode; surrogateescape keeps the bad
        # bytes as lone surrogates, which the parser must reject.
        broken = mutate(document.encode("utf-8"), position, delta)
        parse_contained(broken.decode("utf-8", "surrogateescape"))

    @RELAXED
    @given(
        document=st.sampled_from(SCHEMA_DOCUMENTS),
        position=st.integers(0, 10_000),
        inserted=st.lists(st.sampled_from(INSERTABLE), min_size=1, max_size=3),
    )
    def test_inserted_characters_contained(self, document, position, inserted):
        cut = position % (len(document) + 1)
        parse_contained(document[:cut] + "".join(inserted) + document[cut:])

    def test_every_prefix_contained(self):
        for document in SCHEMA_DOCUMENTS[:4]:
            for cut in range(len(document)):
                parse_contained(document[:cut])


def _decode_subjects():
    """(id, wire format, data message, receiver) per golden-vector format,
    on a 32-bit and a 64-bit sender (4- and 8-byte pointer slots)."""
    subjects = []
    for name in vectors.VECTOR_NAMES:
        registrar, record = vectors.VECTORS[name]
        for arch in (SPARC_32, X86_64):
            sender, fmt = registrar(arch)
            receiver = IOContext(X86_64)
            receiver.learn_format(fmt.to_wire_metadata())
            subjects.append(
                (f"{name}-{arch.name}", fmt, sender.encode(fmt, record), receiver)
            )
    return subjects


DECODE_SUBJECTS = _decode_subjects()


def data_message(fmt, payload) -> bytes:
    """A data message whose header agrees with ``payload``'s length."""
    header = HEADER.pack(KIND_DATA, PROTOCOL_VERSION, 0, len(payload), fmt.format_id)
    return header + payload


def assert_decodes_contained(receiver, fmt, message) -> None:
    """Each decode entry point returns a value or raises a ReproError."""
    payload = message[HEADER_SIZE:]
    entry_points = {
        "decode": lambda: receiver.decode(message),
        "decode(bytearray)": lambda: receiver.decode(bytearray(message)),
        "decode_payload": lambda: decode_payload(fmt, payload),
        "decode_view": lambda: receiver.decode_view(message).materialize(),
    }
    for name, decode in entry_points.items():
        try:
            decode()
        except ReproError:
            continue
        except Exception as exc:  # pragma: no cover - the assertion
            pytest.fail(
                f"{name} leaked {type(exc).__name__} on {message.hex()}: {exc}"
            )


#: Values written into pointer and count slots: null, the signed 32-bit
#: boundary, and values no 32- or 64-bit index can hold.
HOSTILE_VALUES = (0, 2**31, 2**32 - 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize(
    "subject", DECODE_SUBJECTS, ids=[subject[0] for subject in DECODE_SUBJECTS]
)
class TestDecodeEntryPointMutations:
    def test_seeded_byte_flips_contained(self, subject):
        _, fmt, message, receiver = subject
        rng = random.Random(subject[0])
        for _ in range(300):
            broken = bytearray(message)
            for _ in range(rng.randint(1, 3)):
                broken[rng.randrange(HEADER_SIZE, len(broken))] = rng.randrange(256)
            assert_decodes_contained(receiver, fmt, bytes(broken))

    def test_truncations_contained(self, subject):
        _, fmt, message, receiver = subject
        payload = message[HEADER_SIZE:]
        for cut in range(len(payload)):
            assert_decodes_contained(receiver, fmt, data_message(fmt, payload[:cut]))

    def test_hostile_pointers_and_counts_contained(self, subject):
        _, fmt, message, receiver = subject
        order = "little" if fmt.arch.is_little_endian else "big"
        slots = [
            (leaf.offset, leaf.code)
            for leaf in get_encode_plan(fmt).leaves
            if leaf.role in ("string_ptr", "dyn_ptr", "count")
        ]
        assert slots
        for offset, code in slots:
            size = 8 if code in "qQ" else 4
            for value in HOSTILE_VALUES:
                broken = bytearray(message)
                start = HEADER_SIZE + offset
                broken[start : start + size] = (value % 2 ** (8 * size)).to_bytes(
                    size, order
                )
                assert_decodes_contained(receiver, fmt, bytes(broken))
