"""Run-time generation of specialized conversion routines.

PBIO's performance story rests on converting incoming records with
"custom routines created on-the-fly through dynamic code generation",
specialized to the exact (wire format, native format) pair.  This module
is the Python analogue: given a wire format's metadata, it *writes Python
source* for a converter function — every offset, struct code and field
name baked in as a literal — compiles it with :func:`compile`/``exec``,
and returns the resulting function.

The generated converter makes exactly one ``struct.unpack_from`` call for
the entire fixed region of the record (pad bytes standing in for
compiler padding and skipped wire fields), then fixes up strings and
dynamic arrays from the variable section.  The same generator emits the
fused decode+project converter for evolved (wire, native) pairs and the
sender-side ``encode`` / ``encode_into`` functions.  Each is the only
implementation of its job; the interpreted versions they are tested and
benchmarked against (experiment A1) live in :mod:`repro.pbio.oracle`.

Example of generated source for the paper's Structure A on sparc_32::

    def convert(payload, unpack_from=unpack_from):
        v = unpack_from('>IIiIII4xLL', payload, 0)
        return {
            'cntrId': _str(payload, v[0]),
            'arln': _str(payload, v[1]),
            'fltNum': v[2],
            ...
        }
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.arch.model import TypeKind
from repro.errors import ConversionError, EncodeError
from repro.pbio.encode import (
    EncodePlan,
    _FixedLeaf,
    get_encode_plan,
    ndarray_wire_bytes,
)
from repro.pbio.evolution import default_value
from repro.pbio.format import IOFormat
from repro.pbio.types import DTYPE_CHARS

Converter = Callable[[bytes], dict]


def _read_string(payload, offset: int) -> str | None:
    """Shared helper injected into generated code: NUL-terminated string.

    Accepts any buffer (``bytes``, ``bytearray``, ``memoryview``).
    ``memoryview`` has no ``index``, so the terminator scan copies small
    windows (128 bytes) instead of the whole payload — strings stay
    cheap on the zero-copy receive path.
    """
    if offset == 0:
        return None
    try:
        end = payload.index(0, offset)
    except AttributeError:
        position = offset
        total = len(payload)
        while True:
            window_end = min(position + 128, total)
            found = bytes(payload[position:window_end]).find(0)
            if found >= 0:
                end = position + found
                break
            if window_end == total:
                raise ValueError("unterminated string in payload") from None
            position = window_end
    return str(payload[offset:end], "utf-8")


def generate_converter_source(wire_format: IOFormat, function_name: str = "convert") -> str:
    """Produce the Python source of a converter for ``wire_format``.

    The record comes back in the wire format's own shape: this is the
    fused converter with the wire format as its own target, so every
    field is a copy.  Exposed separately from
    :func:`make_generated_converter` so tests and documentation can
    inspect the generated code.
    """
    return generate_fused_converter_source(wire_format, wire_format, function_name)


def make_generated_converter(wire_format: IOFormat) -> Converter:
    """Compile and return a converter function for ``wire_format``."""
    return _compile_converter(
        generate_converter_source(wire_format),
        f"<pbio converter for {wire_format.name}>",
    )


# -- fused decode+project (instance-based lazy binding) ------------------------
#
# When the wire format and the receiver's native format differ, the
# fused converter decodes and projects in one pass: it walks the
# *target* format's fields, pulling matched values straight out of the
# unpacked wire tuple and inlining defaults as literals, so no
# intermediate wire-shaped dict is ever built.  Dropped wire fields cost
# nothing — their unpack positions are simply never read — and
# dynamic-array prologue statements are emitted only for arrays the
# target actually keeps.


def generate_fused_converter_source(
    wire_format: IOFormat,
    target_format: IOFormat,
    function_name: str = "convert",
) -> str:
    """Source of a converter decoding wire records into the target shape.

    Value-identical to the interpreted decode-then-project composition
    of :mod:`repro.pbio.oracle`, minus the intermediate wire-shaped
    dict.  Exposed separately so tests and ``pbdump`` can inspect the
    generated code.
    """
    plan = get_encode_plan(wire_format)
    order = "<" if wire_format.arch.is_little_endian else ">"
    positions = _leaf_positions(plan)
    counts = _count_leaf_positions(plan)

    array_names: dict[tuple[str, ...], str] = {}
    for item_number, item in enumerate(plan.var_items):
        if item.kind == "array":
            array_names[item.path] = f"a{item_number}"

    used_arrays: set[tuple[str, ...]] = set()
    body = _emit_fused(
        plan, positions, wire_format, target_format, (), array_names,
        used_arrays, indent=2,
    )

    # Dynamic arrays need their data unpacked with a run-time count; emit
    # one statement per kept array before the dict display.
    prologue: list[str] = []
    for item in plan.var_items:
        if item.kind != "array" or item.path not in used_arrays:
            continue
        ptr_pos = _pointer_position(plan, positions, item.path)
        count_pos = counts[item.path]
        prologue.append(
            f"    {array_names[item.path]} = ("
            f"list(unpack_from({order!r} + str(v[{count_pos}]) + "
            f"{item.element_code!r}, payload, v[{ptr_pos}])) "
            f"if v[{ptr_pos}] else [])"
        )

    lines = [
        f"def {function_name}(payload, unpack_from=unpack_from, _str=_str):",
        f"    v = unpack_from({plan.fixed_struct.format!r}, payload, 0)",
        *prologue,
        f"    return {body}",
        "",
    ]
    return "\n".join(lines)


def make_fused_converter(
    wire_format: IOFormat, target_format: IOFormat
) -> Converter:
    """Compile the fused decode+project converter for the pair."""
    return _compile_converter(
        generate_fused_converter_source(wire_format, target_format),
        f"<pbio fused converter {wire_format.name} -> {target_format.name}>",
    )


def _compile_converter(source: str, filename: str) -> Converter:
    namespace = {"unpack_from": struct.unpack_from, "_str": _read_string}
    try:
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - DCG itself
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise ConversionError(f"{filename} failed to compile: {exc}\n{source}") from exc
    return namespace["convert"]


# -- generation internals -----------------------------------------------------


def _leaf_width(leaf: _FixedLeaf) -> int:
    """How many values this leaf contributes to the unpacked tuple."""
    if leaf.role == "array":
        return leaf.count
    return 1


def _leaf_positions(plan: EncodePlan) -> dict[int, int]:
    """Map id(leaf) to its first position in the unpacked tuple."""
    positions: dict[int, int] = {}
    cursor = 0
    for leaf in plan.leaves:
        positions[id(leaf)] = cursor
        cursor += _leaf_width(leaf)
    return positions


def _count_leaf_positions(plan: EncodePlan) -> dict[tuple[str, ...], int]:
    """Map each dynamic array path to its count leaf's unpack position."""
    positions = _leaf_positions(plan)
    return {
        measured_path: positions[id(leaf)]
        for leaf in plan.leaves
        if leaf.role == "count"
        for measured_path in leaf.measures
    }


def _pointer_position(
    plan: EncodePlan, positions: dict[int, int], path: tuple[str, ...]
) -> int:
    for leaf in plan.leaves:
        if leaf.path == path and leaf.role in ("string_ptr", "dyn_ptr"):
            return positions[id(leaf)]
    raise ConversionError(f"no pointer leaf for path {path}")


def _wire_value_expr(
    field,
    path: tuple[str, ...],
    by_path: dict,
    positions: dict[int, int],
    array_names: dict[tuple[str, ...], str],
) -> str:
    """The expression extracting a non-nested wire field's value."""
    if field.type.is_dynamic_array:
        return array_names[path]
    if field.is_string:
        if field.static_count == 1:
            leaf = by_path[path]
            return f"_str(payload, v[{positions[id(leaf)]}])"
        parts = []
        for i in range(field.static_count):
            leaf = by_path[path + (str(i),)]
            parts.append(f"_str(payload, v[{positions[id(leaf)]}])")
        return "[" + ", ".join(parts) + "]"
    leaf = by_path[path]
    start = positions[id(leaf)]
    if leaf.role == "chararray":
        return f"v[{start}].split(b'\\x00', 1)[0].decode('utf-8')"
    if leaf.role == "array":
        return f"list(v[{start}:{start + leaf.count}])"
    if leaf.role == "char":
        return f"v[{start}].decode('latin-1')"
    if leaf.role == "bool":
        return f"bool(v[{start}])"
    return f"v[{start}]"  # scalar or count


def _emit_fused(
    plan: EncodePlan,
    positions: dict[int, int],
    wire_fmt: IOFormat,
    target_fmt: IOFormat,
    prefix: tuple[str, ...],
    array_names: dict[tuple[str, ...], str],
    used_arrays: set[tuple[str, ...]],
    indent: int,
) -> str:
    """Emit the target-shaped dict display sourced from the wire plan.

    Mirrors :func:`repro.pbio.evolution._plan_steps` decision for
    decision — the fused converter must stay value-identical to
    decode-then-project.
    """
    by_path = {leaf.path: leaf for leaf in plan.leaves}
    wire_fields = {field.name: field for field in wire_fmt.compiled_fields}
    pad = " " * (indent * 4)
    inner = " " * ((indent + 1) * 4)
    entries: list[str] = []
    for target_field in target_fmt.compiled_fields:
        path = prefix + (target_field.name,)
        wire_field = wire_fields.get(target_field.name)
        if wire_field is None:
            # Defaults are literals: list/dict displays build fresh
            # objects per record, so nothing aliases.
            value = repr(default_value(target_field))
        elif (
            target_field.nested is not None
            and wire_field.nested is not None
            and target_field.static_count == wire_field.static_count
        ):
            count = target_field.static_count
            elements = [
                _emit_fused(
                    plan, positions, wire_field.nested, target_field.nested,
                    path if count == 1 else path + (str(i),),
                    array_names, used_arrays, indent + 1,
                )
                for i in range(count)
            ]
            value = elements[0] if count == 1 else "[" + ", ".join(elements) + "]"
        elif target_field.nested is not None or wire_field.nested is not None:
            # Shape conflict: same drop-and-default rule as _plan_steps.
            value = repr(default_value(target_field))
        else:
            if wire_field.type.is_dynamic_array:
                used_arrays.add(path)
            value = _wire_value_expr(
                wire_field, path, by_path, positions, array_names
            )
        entries.append(f"{inner}{target_field.name!r}: {value},")
    return "{\n" + "\n".join(entries) + f"\n{pad}}}"


# -- generated encoder (sender-side DCG) ---------------------------------------
#
# PBIO's sender side is a memory copy; the closest Python analogue is a
# generated function that evaluates every field expression inline and
# packs the whole fixed region in one call.  The function raises only
# EncodeError.  Count and static-length consistency are explicit checks;
# any other failure is caught once around the body and turned into an
# EncodeError naming the field.  Error handling adds no statement per
# field (compiling the encoder is part of every cold bind): the field is
# found afterwards, from the line the exception left the function at or,
# when the one fixed-region pack failed, by packing its values leaf by
# leaf.


def _char_byte(value) -> bytes:
    """Helper injected into generated encoders: one char to one byte."""
    if isinstance(value, str):
        return value.encode("utf-8")[:1] or b"\x00"
    if isinstance(value, int):
        return bytes([value])
    if isinstance(value, bytes):
        return value[:1] or b"\x00"
    raise ConversionError(f"cannot encode {value!r} as a char")


def _char_bytes(values) -> bytes:
    """Helper injected into generated encoders: a dynamic char array."""
    return b"".join([_char_byte(value) for value in values])


def _char_buffer(value, count: int) -> bytes:
    """Helper injected into generated encoders: fixed char buffers."""
    if isinstance(value, str):
        return value.encode("utf-8")[:count]
    if isinstance(value, bytes):
        return value[:count]
    raise ConversionError(f"cannot encode {value!r} as a char buffer")


class _EncodeFault:
    """Helper injected into generated encoders: the EncodeError for a failure.

    Holds only what names the encoder; the line-to-field map and the
    leaf list are rebuilt on the (cold) failure path, so an encoder
    cached on every bound format retains nothing for its errors.
    """

    def __init__(self, fmt: IOFormat, function_name: str, into: bool) -> None:
        self.fmt = fmt
        self.function_name = function_name
        self.into = into

    def __call__(self, exc: Exception, values: tuple | None) -> EncodeError:
        """The error for ``exc``.

        ``values`` is the tuple of fixed-region pack arguments if they were
        all evaluated (so the pack itself failed), else ``None``.
        """
        if values is not None:
            field, expects = self._leaf_failing(values), None
        else:
            _, line_fields = _encoder_lines(self.fmt, self.function_name, self.into)
            field, expects = line_fields.get(exc.__traceback__.tb_lineno, ("", None))
        if not field:
            detail = f"cannot encode record: {exc}"
        elif isinstance(exc, LookupError):
            detail = f"record is missing field {field!r}"
        elif expects and isinstance(exc, (AttributeError, TypeError)):
            detail = f"field {field!r} expects {expects} ({exc})"
        else:
            detail = f"field {field!r}: {exc}"
        return EncodeError(f"format {self.fmt.name!r}: {detail}")

    def _leaf_failing(self, values: tuple) -> str:
        plan = get_encode_plan(self.fmt)
        order = plan.fixed_struct.format[0]
        start = 0
        for leaf in plan.leaves:
            width = _leaf_width(leaf)
            try:
                struct.pack(order + leaf.code, *values[start : start + width])
            except (struct.error, OverflowError):
                return ".".join(leaf.path)
            start += width
        return ""


def _path_expr(path: tuple[str, ...]) -> str:
    parts = []
    for part in path:
        if part.isdigit():
            parts.append(f"[{part}]")
        else:
            parts.append(f"[{part!r}]")
    return "record" + "".join(parts)


def _container_get_expr(prefix: tuple[str, ...], name: str) -> str:
    container = _path_expr(prefix) if prefix else "record"
    return f"{container}.get({name!r})"


def _array_bytes_expr(item, order: str) -> str:
    """Expression packing the dynamic array ``a`` (``k`` elements)."""
    if item.element_kind == TypeKind.CHAR:
        return "_chars(a)"
    # Booleans and enumerations convert per element, as scalars do.
    elements = "*a"
    if item.element_kind == TypeKind.BOOLEAN:
        elements = "*[1 if x else 0 for x in a]"
    elif item.element_kind == TypeKind.ENUMERATION:
        elements = "*map(int, a)"
    packed = f"pack_arr({order!r} + str(k) + {item.element_code!r}, {elements})"
    dtype_char = DTYPE_CHARS.get((item.element_kind, item.element_size))
    if dtype_char is None:
        return packed
    return f"_nd(a, {(order + dtype_char)!r}) if hasattr(a, 'dtype') else {packed}"


def generate_encoder_source(
    fmt: IOFormat, function_name: str = "encode", *, into: bool = False
) -> str:
    """Produce Python source for a specialized encoder for ``fmt``.

    With ``into=True`` the generated function has the signature
    ``(record, buffer, offset)`` and writes the payload in place with
    ``pack_into`` — the sender-side zero-copy path — instead of
    returning freshly concatenated ``bytes``.
    """
    return _encoder_lines(fmt, function_name, into)[0]


def _encoder_lines(
    fmt: IOFormat, function_name: str, into: bool
) -> tuple[str, dict[int, tuple[str, str | None]]]:
    """The encoder's source, and the field each of its lines encodes."""
    plan = get_encode_plan(fmt)
    order = "<" if fmt.arch.is_little_endian else ">"
    helpers = "pack_arr=pack_arr, _chr=_chr, _chars=_chars, _buf=_buf, _nd=_nd, len=len"
    if into:
        signature = (
            f"def {function_name}(record, buffer, offset, pack_into=pack_into, "
            f"{helpers}):"
        )
    else:
        signature = f"def {function_name}(record, pack=pack, {helpers}):"
    lines = [signature, "    values = None", "    try:"]
    line_fields: dict[int, tuple[str, str | None]] = {}

    def emit(path: tuple[str, ...], block: list[str], expects: str | None = None):
        field = (".".join(path), expects)
        for text in block:
            lines.append("        " + text)
            line_fields[len(lines)] = field

    emit((), ["var = []", f"cursor = {fmt.record_length}"])
    # Variable section, in plan order (byte-exact wire layout).
    pointer_names: dict[tuple[str, ...], str] = {}
    for index, item in enumerate(plan.var_items):
        name = f"p{index}"
        pointer_names[item.path] = name
        value = _path_expr(item.path)
        if item.kind == "string":
            emit(item.path, [f"s = {value}", "if s is None:", f"    {name} = 0", "else:"])
            emit(item.path, ["    d = s.encode('utf-8') + b'\\x00'"], "a string")
            emit(item.path, ["    pad = (-cursor) & 3"])
        else:
            emit(item.path, [f"a = {value}"])
            emit(item.path, ["k = 0 if a is None else len(a)"], "a sequence")
            emit(item.path, [
                "if k == 0:",
                f"    {name} = 0",
                "else:",
                f"    d = {_array_bytes_expr(item, order)}",
                f"    pad = (-cursor) & {item.alignment - 1}",
            ])
        emit(item.path, [
            "    if pad:",
            "        var.append(b'\\x00' * pad); cursor += pad",
            f"    {name} = cursor; var.append(d); cursor += len(d)",
        ])
    # Count values (+ consistency checks).
    count_names: dict[tuple[str, ...], str] = {}
    for index, leaf in enumerate(plan.leaves):
        if leaf.role != "count":
            continue
        name = f"n{index}"
        count_names[leaf.path] = name
        dotted = ".".join(leaf.path)
        block = [
            f"_a = {_path_expr(leaf.measures[0])}",
            f"{name} = 0 if _a is None else len(_a)",
        ]
        for other in leaf.measures[1:]:
            block += [
                f"_b = {_path_expr(other)}",
                f"if (0 if _b is None else len(_b)) != {name}:",
                f"    raise EncodeError(\"format {fmt.name!r}: arrays "
                f"sharing count field '{dotted}' have differing lengths\")",
            ]
        block += [
            f"_e = {_container_get_expr(leaf.path[:-1], leaf.path[-1])}",
            f"if _e is not None and _e != {name}:",
            f"    raise EncodeError(\"format {fmt.name!r}: count field "
            f"'{dotted}' is %r but the array has %d elements\" % (_e, {name}))",
        ]
        emit(leaf.path, block)
    # The fixed region: static array length checks, then one pack.
    args: list[tuple[tuple[str, ...], str]] = []
    for index, leaf in enumerate(plan.leaves):
        value = _path_expr(leaf.path)
        if leaf.role in ("string_ptr", "dyn_ptr"):
            arg = pointer_names[leaf.path]
        elif leaf.role == "count":
            arg = count_names[leaf.path]
        elif leaf.role == "char":
            arg = f"_chr({value})"
        elif leaf.role == "bool":
            arg = f"(1 if {value} else 0)"
        elif leaf.role == "chararray":
            arg = f"_buf({value}, {leaf.count})"
        elif leaf.role == "array":
            arg = f"*arr{index}"
            emit(leaf.path, [f"arr{index} = {value}"])
            emit(leaf.path, [f"if len(arr{index}) != {leaf.count}:"], "a sequence")
            emit(leaf.path, [
                f"    raise EncodeError(\"format {fmt.name!r}: field "
                f"'{'.'.join(leaf.path)}' expects exactly {leaf.count} elements, "
                f"got %d\" % len(arr{index}))",
            ])
        else:
            arg = value
        args.append((leaf.path, arg))
    if into:
        emit((), [
            "if len(buffer) - offset < cursor:",
            f"    _e = EncodeError(\"format {fmt.name!r}: buffer has "
            f"%d bytes free, payload needs %d\""
            f" % (len(buffer) - offset, cursor))",
            "    _e.needed = cursor",
            "    raise _e",
        ])
    # The pack arguments are one tuple, one element per line: a failing
    # lookup is found by its line; a value the pack rejects, by ``_fault``
    # packing the tuple leaf by leaf.
    emit((), ["values = ("])
    for path, arg in args:
        emit(path, [f"    {arg},"])
    emit((), [")"])
    if into:
        emit((), [
            "pack_into(buffer, offset, *values)",
            f"pos = offset + {fmt.record_length}",
            # Write var parts through a memoryview: bytearray slice
            # assignment materializes a temporary copy of the source,
            # a view assignment is a straight memcpy.
            "mv = memoryview(buffer)",
            "for d in var:",
            "    _n = len(d)",
            "    mv[pos:pos + _n] = d",
            "    pos += _n",
            "return cursor",
        ])
    else:
        emit((), ["return pack(*values) + b''.join(var)"])
    lines += [
        "    except EncodeError:",
        "        raise",
        "    except Exception as exc:",
        "        raise _fault(exc, values) from exc",
    ]
    return "\n".join(lines) + "\n", line_fields


def _compile_encoder(fmt: IOFormat, function_name: str, into: bool):
    plan = get_encode_plan(fmt)
    source = generate_encoder_source(fmt, function_name, into=into)
    namespace = {
        "pack": plan.fixed_struct.pack,
        "pack_into": plan.fixed_struct.pack_into,
        "pack_arr": struct.pack,
        "_chr": _char_byte,
        "_chars": _char_bytes,
        "_buf": _char_buffer,
        "_nd": ndarray_wire_bytes,
        "_fault": _EncodeFault(fmt, function_name, into),
        "EncodeError": EncodeError,
    }
    try:
        code = compile(source, f"<pbio {function_name} for {fmt.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - this is the DCG mechanism itself
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise ConversionError(
            f"generated {function_name} for {fmt.name!r} failed to compile: "
            f"{exc}\n{source}"
        ) from exc
    return namespace[function_name]


def make_generated_encoder(fmt: IOFormat):
    """Compile the specialized encoder: ``encode(record) -> bytes``."""
    return _compile_encoder(fmt, "encode", into=False)


def make_generated_encoder_into(fmt: IOFormat):
    """Compile the in-place encoder: ``encode_into(record, buffer, offset)``.

    Byte-identical output to :func:`make_generated_encoder`'s, written
    with ``pack_into`` at ``offset``; returns the payload length.  A
    buffer too small for the payload raises
    :class:`~repro.errors.EncodeError` with the required size as
    ``.needed``, before anything is written.
    """
    return _compile_encoder(fmt, "encode_into", into=True)
