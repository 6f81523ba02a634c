"""Fuzz-mutation properties: corruption never escapes the error types.

For any valid message and any single-byte mutation, decoding must either
succeed (payload-data mutations legitimately change values) or raise a
typed :class:`~repro.errors.ReproError` — never an unhandled exception,
never a hang.  Same for format metadata blocks and backbone envelopes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IOContext, SPARC_32, X86_64, XML2Wire, parse_schema
from repro.errors import ReproError
from repro.events.remote import unpack_envelope
from repro.pbio.format import IOFormat
from repro.wire import CDRCodec, XDRCodec
from repro.workloads import (
    ASDOFF_A_SCHEMA,
    ASDOFF_B_SCHEMA,
    ASDOFF_CD_SCHEMA,
    AirlineWorkload,
    make_synthetic_schema,
)

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
