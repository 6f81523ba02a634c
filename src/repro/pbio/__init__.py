"""PBIO — the binary communication mechanism (substrate S4).

A reimplementation of the Georgia Tech PBIO library (Eisenhauer & Daley,
HCW 2000) that the paper uses as its wire engine.  The defining idea is
NDR — *Natural Data Representation*: a sender transmits records in its own
native memory layout (byte order, sizes, alignment and all), preceded once
per connection by compact format metadata.  Receivers interpret or convert
incoming records using routines *generated at run time* and specialized to
the exact (wire format, native format) pair, so:

- homogeneous exchanges degenerate to trivial unpacking of native bytes
  (the "move data directly out of memory onto the medium" case), and
- heterogeneous exchanges pay exactly one conversion, on the receiving
  side ("receiver makes right"), with no canonical intermediate format.

Public surface:

- :class:`~repro.pbio.field.IOField` — one field declaration, mirroring
  the paper's ``IOField`` C arrays (name, type string, size, offset).
- :class:`~repro.pbio.format.IOFormat` — a registered format bound to an
  architecture model; knows its own wire metadata representation.
- :class:`~repro.pbio.context.IOContext` — registration, encode, decode,
  format-id resolution and converter caching.
- :class:`~repro.pbio.context.DecodedRecord` — a decoded message.
- :mod:`~repro.pbio.evolution` — restricted format evolution (field
  addition/removal tolerance by name matching), the projection plan
  the fused converters compile, the
  :class:`~repro.pbio.evolution.Compatibility` lattice and the
  :class:`~repro.pbio.evolution.FormatLineage` registry.
- :mod:`~repro.pbio.lru` — the shared bounded LRU behind the converter,
  format-server and metadata-client caches (PROTOCOL §16).
- :mod:`~repro.pbio.fmserver` — an in-process format server mapping
  format ids to metadata, PBIO's out-of-band resolution path.
- :mod:`~repro.pbio.columnar` — the columnar bulk batch codec
  (:class:`~repro.pbio.columnar.ColumnBatchView`,
  :class:`~repro.pbio.context.DecodedBatch`): N same-format records as
  per-field column blocks on one ``KIND_BATCH`` message.
"""

from repro.pbio.field import IOField
from repro.pbio.format import IOFormat, format_from_layout
from repro.pbio.columnar import (
    ColumnBatchView,
    ColumnarPlan,
    decode_batch_payload,
    encode_batch_payload,
    get_columnar_plan,
)
from repro.pbio.context import DecodedBatch, DecodedRecord, IOContext
from repro.pbio.decode import ConverterCache
from repro.pbio.evolution import (
    Compatibility,
    FormatLineage,
    compare_formats,
    formats_compatible,
)
from repro.pbio.fmserver import FormatServer
from repro.pbio.lru import BoundedLRU
from repro.pbio.view import RecordView, view_message
from repro.pbio.iofile import IOFileReader, IOFileWriter, dump_records, load_records

__all__ = [
    "BoundedLRU",
    "Compatibility",
    "ConverterCache",
    "FormatLineage",
    "compare_formats",
    "formats_compatible",
    "IOFileReader",
    "IOFileWriter",
    "dump_records",
    "load_records",
    "IOField",
    "IOFormat",
    "format_from_layout",
    "ColumnBatchView",
    "ColumnarPlan",
    "DecodedBatch",
    "DecodedRecord",
    "IOContext",
    "FormatServer",
    "RecordView",
    "decode_batch_payload",
    "encode_batch_payload",
    "get_columnar_plan",
    "view_message",
]
