"""Lazy record views: field access straight out of the wire buffer.

In C, PBIO's homogeneous receive path hands the application a pointer
*into the receive buffer* — no conversion, no copy, fields read in
place.  :class:`RecordView` is the Python analogue: a mapping over an
NDR payload that unpacks a field only when it is accessed, and unpacks
it directly from the buffer with the offsets and codes of the wire
format's encode plan.

This matters for the paper's selective-consumer workloads (a display
point that reads two fields of a forty-field record): the eager
converter pays for every field; the view pays only for what is touched.
Views work for *any* wire architecture — access still byte-swaps when
needed — but shine when the consumer touches a small subset.

Views are read-only and valid as long as the underlying buffer is.  Use
:meth:`RecordView.materialize` to get an ordinary dict (equivalent to
the eager converter's output).  A corrupt payload surfaces as a
:class:`~repro.errors.DecodeError` from the field access that reads it.
"""

from __future__ import annotations

import struct
from typing import Iterator, Mapping

from repro.arch.model import TypeKind
from repro.errors import DecodeError
from repro.pbio.codegen import _read_string
from repro.pbio.decode import CORRUPT_PAYLOAD
from repro.pbio.format import CompiledField, IOFormat


class RecordView(Mapping):
    """A lazy, read-only mapping over one NDR payload."""

    __slots__ = ("_payload", "_format", "_base", "_order", "_cache")

    def __init__(self, fmt: IOFormat, payload, *, base: int = 0) -> None:
        """``payload`` may be ``bytes``, ``bytearray``, or ``memoryview``.

        A view payload is read in place (zero-copy) and must stay valid
        — i.e. the channel buffer it aliases must not be overwritten by
        another ``recv`` — for the life of this record view
        (PROTOCOL §12).
        """
        if len(payload) < base + fmt.record_length:
            raise DecodeError(
                f"payload too short for a {fmt.name!r} view "
                f"({len(payload)} bytes, need {base + fmt.record_length})"
            )
        self._payload = payload
        self._format = fmt
        self._base = base
        self._order = "<" if fmt.arch.is_little_endian else ">"
        self._cache: dict[str, object] = {}

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, name: str):
        if name in self._cache:
            return self._cache[name]
        field = self._format.field(name)  # raises for unknown names
        try:
            value = self._read_field(field)
        except CORRUPT_PAYLOAD as exc:
            raise DecodeError(
                f"corrupt payload for format {self._format.name!r}, field "
                f"{name!r}: {exc}"
            ) from exc
        self._cache[name] = value
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._format.field_names())

    def __len__(self) -> int:
        return len(self._format.fields)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._format.field_names()

    # -- value extraction ------------------------------------------------------

    def _read_field(self, field: CompiledField):
        offset = self._base + field.offset
        if field.nested is not None:
            stride = field.nested.record_length
            views = [
                RecordView(field.nested, self._payload, base=offset + i * stride)
                for i in range(field.static_count)
            ]
            return views[0] if field.static_count == 1 else views
        if field.type.is_dynamic_array:
            pointer = self._read_pointer(offset)
            if not pointer:
                return []
            count_field = self._format.field(field.type.length_field)
            count = self._read_scalar(count_field, self._base + count_field.offset)
            code = self._scalar_code(field)
            return list(
                struct.unpack_from(f"{self._order}{count}{code}", self._payload, pointer)
            )
        if field.is_string:
            pointers = [
                self._read_pointer(offset + i * self._format.arch.pointer_size)
                for i in range(field.static_count)
            ]
            strings = [_read_string(self._payload, p) for p in pointers]
            return strings[0] if field.static_count == 1 else strings
        if field.kind == TypeKind.CHAR and field.type.is_static_array:
            # bytes() the (small, bounded) slice: memoryview has no split.
            raw = bytes(self._payload[offset : offset + field.static_count])
            return raw.split(b"\x00", 1)[0].decode("utf-8")
        if field.type.is_static_array:
            code = self._scalar_code(field)
            return list(
                struct.unpack_from(
                    f"{self._order}{field.static_count}{code}", self._payload, offset
                )
            )
        return self._read_scalar(field, offset)

    def _scalar_code(self, field: CompiledField) -> str:
        from repro.pbio.encode import scalar_code

        return scalar_code(field.kind, field.size, context=f"field {field.name}")

    def _read_scalar(self, field: CompiledField, offset: int):
        code = self._scalar_code(field)
        (value,) = struct.unpack_from(self._order + code, self._payload, offset)
        if field.kind == TypeKind.BOOLEAN:
            return bool(value)
        if field.kind == TypeKind.CHAR:
            return value.decode("latin-1")
        return value

    def _read_pointer(self, offset: int) -> int:
        arch = self._format.arch
        code = arch.struct_code(TypeKind.POINTER, arch.pointer_size)
        (value,) = struct.unpack_from(code, self._payload, offset)
        return value

    # -- conveniences ---------------------------------------------------------------

    def materialize(self) -> dict:
        """Read every field into an ordinary dict (recursively)."""
        result = {}
        for name in self:
            value = self[name]
            if isinstance(value, RecordView):
                value = value.materialize()
            elif isinstance(value, list) and value and isinstance(value[0], RecordView):
                value = [item.materialize() for item in value]
            result[name] = value
        return result

    @property
    def format(self) -> IOFormat:
        return self._format

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RecordView of {self._format.name!r}, {len(self)} fields>"


def view_message(fmt: IOFormat, message) -> RecordView:
    """View a framed data message (header + payload) without copying.

    Validates the header's format id against ``fmt``.  The message is
    wrapped in a ``memoryview`` so slicing off the header copies nothing
    regardless of the input type; the returned record view reads fields
    in place from the caller's buffer.
    """
    from repro.pbio.context import HEADER_SIZE, KIND_DATA, IOContext

    kind, _, _, length, format_id = IOContext.parse_header(message)
    if kind != KIND_DATA:
        raise DecodeError("can only view data messages")
    if format_id != fmt.format_id:
        raise DecodeError(
            f"message carries format {format_id.hex()}, not "
            f"{fmt.name!r} ({fmt.format_id.hex()})"
        )
    view = memoryview(message) if not isinstance(message, memoryview) else message
    return RecordView(fmt, view[HEADER_SIZE : HEADER_SIZE + length])
