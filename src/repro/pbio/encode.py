"""NDR encoding: records to wire payloads in the sender's native layout.

The payload produced for a record is:

.. code-block:: text

    [ base record: record_length bytes, the struct exactly as it would  ]
    [ sit in the sender's memory, with pointer slots holding offsets    ]
    [ variable section: string bodies and dynamic-array bodies,         ]
    [ each aligned, in field order                                      ]

Pointer slots hold byte offsets *from the start of the payload* (offset 0
would fall inside the base record, so 0 is reserved for NULL).  This is
PBIO's trick for making native data position-independent: on the sender
the "copy" from memory is the encode, on a homogeneous receiver the
payload can be used in place.

Encoding is driven by a precompiled :class:`EncodePlan`: one
:class:`struct.Struct` whose format string covers the entire fixed region
(pad bytes standing in for compiler padding), plus an ordered list of
variable-section items.  The plan is layout only; the encoder itself is
generated from it (:mod:`repro.pbio.codegen`) on a format's first encode
and packs the whole base record in a single call — the sender-side
analogue of PBIO's "move data directly out of memory", with per-field
interpretation paid once per format, not per message.  The interpreted,
record-walking encoder lives in :mod:`repro.pbio.oracle` as the
reference the generated one is tested against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from time import perf_counter

from repro.arch.model import TypeKind
from repro.errors import EncodeError
from repro.obs import metrics as _metrics
from repro.obs.instr import SAMPLE_MASK, pbio_handles
from repro.obs.metrics import get_registry
from repro.pbio.format import IOFormat


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


#: (kind, size) -> struct code, byte-order-free.
_CODES: dict[tuple[TypeKind, int], str] = {
    (TypeKind.SIGNED_INT, 1): "b",
    (TypeKind.SIGNED_INT, 2): "h",
    (TypeKind.SIGNED_INT, 4): "i",
    (TypeKind.SIGNED_INT, 8): "q",
    (TypeKind.UNSIGNED_INT, 1): "B",
    (TypeKind.UNSIGNED_INT, 2): "H",
    (TypeKind.UNSIGNED_INT, 4): "I",
    (TypeKind.UNSIGNED_INT, 8): "Q",
    (TypeKind.FLOAT, 4): "f",
    (TypeKind.FLOAT, 8): "d",
    (TypeKind.BOOLEAN, 1): "B",
    (TypeKind.BOOLEAN, 4): "I",
    (TypeKind.ENUMERATION, 4): "I",
    (TypeKind.ENUMERATION, 8): "Q",
    (TypeKind.CHAR, 1): "c",
}


def ndarray_wire_bytes(array, dtype_str: str) -> bytes:
    """Vectorized wire bytes for a numpy array (one conversion/copy).

    ``dtype_str`` is the wire dtype (byte order included).  Imported
    lazily so numpy stays an optional acceleration.
    """
    import numpy

    return numpy.asarray(array).astype(numpy.dtype(dtype_str), copy=False).tobytes()


def scalar_code(kind: TypeKind, size: int, *, context: str) -> str:
    """The struct-module code for a scalar, without byte-order prefix."""
    try:
        return _CODES[(kind, size)]
    except KeyError:
        raise EncodeError(
            f"{context}: no wire representation for {kind.value} of {size} bytes"
        ) from None


@dataclass(frozen=True)
class _FixedLeaf:
    """One slot (or contiguous array of slots) in the base record.

    ``path`` addresses the value inside the (possibly nested) record
    dict; ``role`` selects the value extraction strategy.
    """

    path: tuple[str, ...]
    offset: int
    code: str  # struct code(s) for this leaf, no prefix
    role: str  # scalar | char | bool | array | chararray | string_ptr | dyn_ptr | count
    count: int = 1
    # for role == "count": paths of the arrays this field measures
    measures: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class _VarItem:
    """One variable-section item: a string or a dynamic array."""

    path: tuple[str, ...]
    kind: str  # "string" | "array"
    element_code: str = ""
    element_size: int = 0
    element_kind: TypeKind | None = None
    alignment: int = 4


class EncodePlan:
    """The compiled wire layout of one :class:`IOFormat`.

    ``leaves`` are the base-record slots in offset order, ``var_items``
    the variable-section items in encode order, and ``fixed_struct`` the
    one :class:`struct.Struct` covering the base record; the generated
    codecs and the columnar plan are built from them.  Plans are cached
    on the format instance by :func:`get_encode_plan`; building one walks
    the format tree once and is part of the registration cost the
    paper's Table 1 measures.
    """

    def __init__(self, fmt: IOFormat) -> None:
        self.format = fmt
        self.arch = fmt.arch
        leaves: list[_FixedLeaf] = []
        var_items: list[_VarItem] = []
        self._flatten(fmt, 0, (), leaves, var_items)
        leaves.sort(key=lambda leaf: leaf.offset)
        self.leaves = leaves
        self.var_items = var_items
        self.fixed_struct = struct.Struct(self._build_format_string(leaves))

    # -- plan construction --------------------------------------------------

    def _flatten(
        self,
        fmt: IOFormat,
        base: int,
        prefix: tuple[str, ...],
        leaves: list[_FixedLeaf],
        var_items: list[_VarItem],
    ) -> None:
        # Map length-field name -> measured array paths, per instance.
        measured: dict[str, list[tuple[str, ...]]] = {}
        for field in fmt.compiled_fields:
            if field.type.is_dynamic_array:
                measured.setdefault(field.type.length_field, []).append(
                    prefix + (field.name,)
                )
        for field in fmt.compiled_fields:
            path = prefix + (field.name,)
            offset = base + field.offset
            if field.nested is not None:
                stride = field.nested.record_length
                for index in range(field.static_count):
                    element_path = path if field.static_count == 1 else path + (str(index),)
                    self._flatten(
                        field.nested, offset + index * stride, element_path,
                        leaves, var_items,
                    )
                continue
            if field.type.is_dynamic_array:
                code = self.arch.struct_code(TypeKind.POINTER, self.arch.pointer_size)[1:]
                leaves.append(_FixedLeaf(path, offset, code, "dyn_ptr"))
                var_items.append(
                    _VarItem(
                        path=path,
                        kind="array",
                        element_code=scalar_code(
                            field.kind, field.size, context=f"field {field.name}"
                        ),
                        element_size=field.size,
                        element_kind=field.kind,
                        alignment=min(field.size, 8),
                    )
                )
                continue
            if field.is_string:
                code = self.arch.struct_code(TypeKind.POINTER, self.arch.pointer_size)[1:]
                for index in range(field.static_count):
                    element_path = path if field.static_count == 1 else path + (str(index),)
                    leaves.append(
                        _FixedLeaf(
                            element_path,
                            offset + index * self.arch.pointer_size,
                            code,
                            "string_ptr",
                        )
                    )
                    var_items.append(
                        _VarItem(path=element_path, kind="string", alignment=4)
                    )
                continue
            # Primitive scalar or static primitive array.
            role = "scalar"
            if field.kind == TypeKind.CHAR:
                role = "char"
            elif field.kind == TypeKind.BOOLEAN:
                role = "bool"
            if field.name in fmt.length_field_names:
                leaves.append(
                    _FixedLeaf(
                        path,
                        offset,
                        scalar_code(field.kind, field.size, context=f"field {field.name}"),
                        "count",
                        measures=tuple(measured.get(field.name, ())),
                    )
                )
                continue
            if field.type.is_static_array:
                if field.kind == TypeKind.CHAR:
                    leaves.append(
                        _FixedLeaf(
                            path, offset, f"{field.static_count}s", "chararray",
                            count=field.static_count,
                        )
                    )
                else:
                    code = scalar_code(
                        field.kind, field.size, context=f"field {field.name}"
                    )
                    leaves.append(
                        _FixedLeaf(
                            path, offset, code * field.static_count, "array",
                            count=field.static_count,
                        )
                    )
                continue
            leaves.append(
                _FixedLeaf(
                    path,
                    offset,
                    scalar_code(field.kind, field.size, context=f"field {field.name}"),
                    role,
                )
            )

    def _build_format_string(self, leaves: list[_FixedLeaf]) -> str:
        prefix = "<" if self.arch.is_little_endian else ">"
        parts = [prefix]
        cursor = 0
        for leaf in leaves:
            if leaf.offset < cursor:
                raise EncodeError(
                    f"format {self.format.name!r}: overlapping fields at offset "
                    f"{leaf.offset} (field path {'.'.join(leaf.path)})"
                )
            if leaf.offset > cursor:
                parts.append(f"{leaf.offset - cursor}x")
            parts.append(leaf.code)
            cursor = leaf.offset + struct.calcsize(prefix + leaf.code)
        if cursor > self.format.record_length:
            raise EncodeError(
                f"format {self.format.name!r}: fields extend past record length"
            )
        if cursor < self.format.record_length:
            parts.append(f"{self.format.record_length - cursor}x")
        return "".join(parts)


def get_encode_plan(fmt: IOFormat) -> EncodePlan:
    """Return (building if necessary) the cached plan for ``fmt``."""
    plan = getattr(fmt, "_encode_plan", None)
    if plan is None:
        plan = EncodePlan(fmt)
        fmt._encode_plan = plan  # type: ignore[attr-defined]
    return plan


def get_generated_encoder(fmt: IOFormat):
    """Return (building if necessary) the cached generated encoder.

    The encoder is the sender-side analogue of the generated converter:
    specialized Python source compiled at first use (see
    :mod:`repro.pbio.codegen`).  Every failure it raises is an
    :class:`~repro.errors.EncodeError` naming the format and field.
    """
    encoder = getattr(fmt, "_generated_encoder", None)
    return encoder if encoder is not None else _build_encoder(fmt, into=False)


def get_generated_encode_into(fmt: IOFormat):
    """Return (building if necessary) the cached generated in-place encoder.

    The ``encode_into`` counterpart of :func:`get_generated_encoder`:
    byte-identical output written in place, with a capacity
    :class:`EncodeError` carrying ``.needed`` raised before anything is
    written, so the zero-copy sender allocates only the variable-section
    parts it must render.
    """
    encoder = getattr(fmt, "_generated_encode_into", None)
    return encoder if encoder is not None else _build_encoder(fmt, into=True)


def _build_encoder(fmt: IOFormat, *, into: bool):
    """Compile, count and cache one of ``fmt``'s generated encoders."""
    from repro.pbio.codegen import make_generated_encoder, make_generated_encoder_into

    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "pbio_codegen_total", "converter/encoder cache events",
            ("kind", "event"),
        ).labels("encode_into" if into else "encoder", "miss").inc()
    if into:
        fmt._generated_encode_into = encoder = make_generated_encoder_into(fmt)
    else:
        fmt._generated_encoder = encoder = make_generated_encoder(fmt)
    return encoder


# Shared sampling tick for encode-duration observations; racy updates
# only jitter the sampling phase, never the exact operation counters.
_encode_tick = [0]


def encode_record(fmt: IOFormat, record: dict) -> bytes:
    """Encode ``record`` per ``fmt`` with its generated encoder."""
    encoder = get_generated_encoder(fmt)
    # Read the default-registry global directly: the function call that
    # get_registry() costs is measurable inside the <5 % overhead budget.
    registry = _metrics._default_registry
    if not registry.enabled:
        return encoder(record)
    # Inline fast path of pbio_handles: one getattr, no call.
    handles = getattr(fmt, "_obs_pbio", None)
    if handles is None or handles.registry is not registry:
        handles = pbio_handles(fmt, registry)
    _encode_tick[0] += 1
    if _encode_tick[0] & SAMPLE_MASK:
        payload = encoder(record)
        handles.encode_inc()
        return payload
    started = perf_counter()
    payload = encoder(record)
    handles.encode_observe(perf_counter() - started)
    handles.encode_inc()
    return payload
