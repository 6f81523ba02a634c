"""Interpreted reference implementations of the per-record codec.

The production codec is generated code: :mod:`repro.pbio.codegen` writes
one specialized encoder, converter and (for evolved pairs) fused
decode+project converter per format.  This module keeps the
metadata-walking implementations those routines must match, and nothing
in the library uses them at run time:

- :func:`make_interpreted_converter` — walks the encode plan's leaves
  for every record;
- :func:`make_interpreted_projection` — a flat loop over the projection
  plan of :mod:`repro.pbio.evolution`;
- :func:`make_interpreted_decoder` — the two composed, the reference
  for :meth:`IOContext.decode <repro.pbio.context.IOContext.decode>`
  with or without ``expect``;
- :class:`InterpretedEncoder` — the record-walking ``encode`` /
  ``encode_into`` over an :class:`~repro.pbio.encode.EncodePlan`.

They are the executable specification of the wire format: the parity
tests compare the generated routines against them, and the code
generation ablation (``benchmarks/test_ablation_codegen.py``) and the
lazy-binding benchmark use them as the interpreted baseline.
"""

from __future__ import annotations

import copy
import struct
from typing import Callable

from repro.arch.model import TypeKind
from repro.errors import ConversionError, EncodeError
from repro.pbio.codegen import (
    _count_leaf_positions,
    _leaf_width,
    _read_string,
)
from repro.pbio.encode import (
    EncodePlan,
    _align_up,
    _FixedLeaf,
    _VarItem,
    get_encode_plan,
    ndarray_wire_bytes,
)
from repro.pbio.evolution import _plan_steps
from repro.pbio.format import IOFormat

Converter = Callable[[bytes], dict]
Projection = Callable[[dict], dict]


# -- decoding -------------------------------------------------------------------


def make_interpreted_converter(wire_format: IOFormat) -> Converter:
    """A converter that walks the format metadata for every record.

    Semantically identical to the generated converter; exists to measure
    what dynamic code generation buys (experiment A1).  It still uses the
    precompiled plan's leaf list, but performs per-leaf unpacking,
    dictionary assembly and dispatch at run time for every record.
    """
    plan = get_encode_plan(wire_format)
    order = "<" if wire_format.arch.is_little_endian else ">"
    unpack_from = struct.unpack_from

    def convert(payload: bytes) -> dict:
        flat: dict[tuple[str, ...], object] = {}
        for leaf in plan.leaves:
            offset = leaf.offset
            if leaf.role in ("scalar", "count", "string_ptr", "dyn_ptr"):
                (value,) = unpack_from(order + leaf.code, payload, offset)
            elif leaf.role == "char":
                (raw,) = unpack_from(order + leaf.code, payload, offset)
                value = raw.decode("latin-1")
            elif leaf.role == "bool":
                (raw,) = unpack_from(order + leaf.code, payload, offset)
                value = bool(raw)
            elif leaf.role == "chararray":
                (raw,) = unpack_from(order + leaf.code, payload, offset)
                value = raw.split(b"\x00", 1)[0].decode("utf-8")
            else:  # static array
                value = list(unpack_from(order + leaf.code, payload, offset))
            flat[leaf.path] = value
        counts = _count_leaf_positions(plan)
        result: dict[tuple[str, ...], object] = {}
        for item in plan.var_items:
            pointer = flat[item.path]
            if item.kind == "string":
                flat[item.path] = _read_string(payload, pointer)
            else:
                if pointer:
                    count_leaf_position = counts[item.path]
                    count = _value_at_position(plan, flat, count_leaf_position)
                    flat[item.path] = list(
                        unpack_from(
                            f"{order}{count}{item.element_code}", payload, pointer
                        )
                    )
                else:
                    flat[item.path] = []
        return _assemble(plan, wire_format, (), flat)

    return convert


def _value_at_position(plan: EncodePlan, flat: dict, position: int):
    cursor = 0
    for leaf in plan.leaves:
        if cursor == position:
            return flat[leaf.path]
        cursor += _leaf_width(leaf)
    raise ConversionError(f"no leaf at unpack position {position}")


def _assemble(
    plan: EncodePlan, fmt: IOFormat, prefix: tuple[str, ...], flat: dict
) -> dict:
    record: dict = {}
    for field in fmt.compiled_fields:
        path = prefix + (field.name,)
        if field.nested is not None:
            if field.static_count == 1:
                record[field.name] = _assemble(plan, field.nested, path, flat)
            else:
                record[field.name] = [
                    _assemble(plan, field.nested, path + (str(i),), flat)
                    for i in range(field.static_count)
                ]
        elif field.is_string and field.static_count > 1:
            record[field.name] = [
                flat[path + (str(i),)] for i in range(field.static_count)
            ]
        else:
            record[field.name] = flat[path]
    return record


def make_interpreted_projection(
    wire_format: IOFormat, target_format: IOFormat
) -> Projection:
    """The metadata-walking projection: a flat loop over the plan steps.

    The executable specification the fused converter must match
    value-for-value (including freshness of mutable defaults — every
    projected record owns its default lists and dicts outright).
    """
    plan: list[tuple[str, str, object]] = []
    for name, action, extra in _plan_steps(wire_format, target_format):
        if action in ("nested", "nested_list"):
            extra = make_interpreted_projection(*extra)
        plan.append((name, action, extra))

    def project(record: dict) -> dict:
        result: dict = {}
        for name, action, extra in plan:
            if action == "copy":
                result[name] = record[name]
            elif action == "default":
                # Deep-copy mutable defaults so records never alias
                # each other (or the plan) through a defaulted field.
                result[name] = (
                    copy.deepcopy(extra)
                    if isinstance(extra, (list, dict))
                    else extra
                )
            elif action == "nested":
                result[name] = extra(record[name])
            else:  # nested_list
                result[name] = [extra(element) for element in record[name]]
        return result

    return project


def make_interpreted_decoder(
    wire_format: IOFormat, target_format: IOFormat | None = None
) -> Converter:
    """The interpreted converter, then the interpreted projection.

    Value-identical to the converter ``IOContext.decode`` uses for the
    same (wire, target) pair: the generated converter when no target is
    given (or the target is the wire format), the fused converter
    otherwise.
    """
    convert = make_interpreted_converter(wire_format)
    if target_format is None or target_format.format_id == wire_format.format_id:
        return convert
    project = make_interpreted_projection(wire_format, target_format)

    def decode(payload) -> dict:
        return project(convert(payload))

    return decode


# -- encoding -------------------------------------------------------------------


class InterpretedEncoder:
    """The record-walking encoder over one format's :class:`EncodePlan`.

    Byte-identical to the generated encoder on every record both
    accept; both raise :class:`~repro.errors.EncodeError` on records
    they reject.
    """

    def __init__(self, fmt: IOFormat) -> None:
        plan: EncodePlan = get_encode_plan(fmt)
        self.format = fmt
        self.arch = fmt.arch
        self.leaves = plan.leaves
        self.var_items = plan.var_items
        self.fixed_struct = plan.fixed_struct

    def encode(self, record: dict) -> bytes:
        """Encode ``record`` to an NDR payload.

        Raises :class:`~repro.errors.EncodeError` for missing fields,
        type mismatches, or count-field inconsistencies.
        """
        pointer_values, var_parts, _ = self._render_var_section(record)
        values = [
            self._leaf_value(leaf, record, pointer_values) for leaf in self.leaves
        ]
        try:
            fixed = self.fixed_struct.pack(*[v for vs in values for v in vs])
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: cannot pack record: {exc}"
            ) from exc
        return fixed + b"".join(var_parts)

    def encode_into(self, record: dict, buffer, offset: int = 0) -> int:
        """Encode ``record`` into ``buffer`` at ``offset``; returns length.

        Byte-identical output to :meth:`encode`, written in place with
        ``pack_into`` on a caller-supplied writable buffer.  If the buffer
        cannot hold the payload an :class:`~repro.errors.EncodeError` is
        raised *before anything is written*, carrying the required size
        as its ``needed`` attribute.
        """
        pointer_values, var_parts, total = self._render_var_section(record)
        if len(buffer) - offset < total:
            error = EncodeError(
                f"format {self.format.name!r}: buffer has "
                f"{len(buffer) - offset} bytes free, payload needs {total}"
            )
            error.needed = total  # type: ignore[attr-defined]
            raise error
        values = [
            self._leaf_value(leaf, record, pointer_values) for leaf in self.leaves
        ]
        try:
            self.fixed_struct.pack_into(
                buffer, offset, *[v for vs in values for v in vs]
            )
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: cannot pack record: {exc}"
            ) from exc
        position = offset + self.format.record_length
        # A memoryview assignment is a straight memcpy; bytearray slice
        # assignment would materialize a temporary copy of each part.
        target = memoryview(buffer)
        for part in var_parts:
            end = position + len(part)
            target[position:end] = part
            position = end
        return total

    # -- value extraction -------------------------------------------------------

    def _render_var_section(self, record: dict) -> tuple[dict, list, int]:
        """Pointer values, aligned variable-section parts, payload length."""
        pointer_values: dict[tuple[str, ...], int] = {}
        var_parts: list[bytes] = []
        cursor = self.format.record_length
        for item in self.var_items:
            data, is_null = self._render_var_item(item, record)
            if is_null:
                pointer_values[item.path] = 0
                continue
            aligned = _align_up(cursor, item.alignment)
            if aligned != cursor:
                var_parts.append(b"\x00" * (aligned - cursor))
                cursor = aligned
            pointer_values[item.path] = cursor
            var_parts.append(data)
            cursor += len(data)
        return pointer_values, var_parts, cursor

    def _lookup(self, record: dict, path: tuple[str, ...]):
        value = record
        for part in path:
            if isinstance(value, dict):
                if part not in value:
                    raise EncodeError(
                        f"format {self.format.name!r}: record is missing field "
                        f"{'.'.join(path)!r}"
                    )
                value = value[part]
            elif isinstance(value, (list, tuple)) and part.isdigit():
                index = int(part)
                if index >= len(value):
                    raise EncodeError(
                        f"format {self.format.name!r}: array for "
                        f"{'.'.join(path)!r} is too short"
                    )
                value = value[index]
            else:
                raise EncodeError(
                    f"format {self.format.name!r}: expected a dict/list at "
                    f"{'.'.join(path)!r}"
                )
        return value

    def _render_var_item(self, item: _VarItem, record: dict) -> tuple[bytes, bool]:
        value = self._lookup(record, item.path)
        if item.kind == "string":
            if value is None:
                return b"", True
            if not isinstance(value, str):
                raise EncodeError(
                    f"format {self.format.name!r}: field {'.'.join(item.path)!r} "
                    f"expects a string, got {type(value).__name__}"
                )
            return value.encode("utf-8") + b"\x00", False
        # Dynamic array.
        if value is None or (hasattr(value, "__len__") and len(value) == 0):
            return b"", True
        try:
            count = len(value)
        except TypeError:
            raise EncodeError(
                f"format {self.format.name!r}: field {'.'.join(item.path)!r} "
                f"expects a sequence, got {type(value).__name__}"
            ) from None
        order = "<" if self.arch.is_little_endian else ">"
        if hasattr(value, "dtype"):
            # numpy fast path: one vectorized conversion, no per-element
            # Python work (the bulk scientific-data case).
            from repro.pbio.types import DTYPE_CHARS

            char = DTYPE_CHARS.get((item.element_kind, item.element_size))
            if char is not None:
                return ndarray_wire_bytes(value, order + char), False
        converted = [self._convert_scalar(item.element_kind, v, item.path) for v in value]
        try:
            return struct.pack(f"{order}{count}{item.element_code}", *converted), False
        except struct.error as exc:
            raise EncodeError(
                f"format {self.format.name!r}: bad element in "
                f"{'.'.join(item.path)!r}: {exc}"
            ) from exc

    def _convert_scalar(self, kind: TypeKind | None, value, path: tuple[str, ...]):
        if kind == TypeKind.CHAR:
            if isinstance(value, str):
                encoded = value.encode("utf-8")[:1]
                return encoded or b"\x00"
            if isinstance(value, int):
                return bytes([value])
            if isinstance(value, bytes):
                return value[:1] or b"\x00"
            raise EncodeError(
                f"format {self.format.name!r}: char field {'.'.join(path)!r} "
                f"expects a 1-character string"
            )
        if kind == TypeKind.BOOLEAN:
            return 1 if value else 0
        if kind == TypeKind.ENUMERATION:
            return int(value)
        return value

    def _leaf_value(
        self,
        leaf: _FixedLeaf,
        record: dict,
        pointers: dict[tuple[str, ...], int],
    ) -> tuple:
        if leaf.role in ("string_ptr", "dyn_ptr"):
            return (pointers[leaf.path],)
        if leaf.role == "count":
            return (self._count_value(leaf, record),)
        value = self._lookup(record, leaf.path)
        if leaf.role == "scalar":
            return (value,)
        if leaf.role == "char":
            return (self._convert_scalar(TypeKind.CHAR, value, leaf.path),)
        if leaf.role == "bool":
            return (1 if value else 0,)
        if leaf.role == "chararray":
            if isinstance(value, str):
                return (value.encode("utf-8")[: leaf.count],)
            if isinstance(value, bytes):
                return (value[: leaf.count],)
            raise EncodeError(
                f"format {self.format.name!r}: char array "
                f"{'.'.join(leaf.path)!r} expects str or bytes"
            )
        # role == "array": a static primitive array.
        if not isinstance(value, (list, tuple)):
            raise EncodeError(
                f"format {self.format.name!r}: field {'.'.join(leaf.path)!r} "
                f"expects a sequence of {leaf.count}"
            )
        if len(value) != leaf.count:
            raise EncodeError(
                f"format {self.format.name!r}: field {'.'.join(leaf.path)!r} "
                f"expects exactly {leaf.count} elements, got {len(value)}"
            )
        return tuple(value)

    def _count_value(self, leaf: _FixedLeaf, record: dict) -> int:
        """Derive (and cross-check) a dynamic-array count field's value."""
        lengths = []
        for array_path in leaf.measures:
            value = self._lookup(record, array_path)
            lengths.append(0 if value is None else len(value))
        explicit = None
        try:
            explicit = self._lookup(record, leaf.path)
        except EncodeError:
            pass  # counts may be omitted from records; they are derived
        if lengths and len(set(lengths)) > 1:
            raise EncodeError(
                f"format {self.format.name!r}: arrays sharing count field "
                f"{'.'.join(leaf.path)!r} have differing lengths {lengths}"
            )
        derived = lengths[0] if lengths else 0
        if explicit is not None and lengths and explicit != derived:
            raise EncodeError(
                f"format {self.format.name!r}: count field "
                f"{'.'.join(leaf.path)!r} is {explicit} but the array has "
                f"{derived} elements"
            )
        if not lengths:
            return int(explicit or 0)
        return derived
