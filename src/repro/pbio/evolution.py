"""Format evolution: lazy instance-based binding and format lineage.

PBIO "does support a form of restricted evolution in message formats in
which elements may be added to message formats without causing receivers
of previous versions of the message to fail" (paper §6).  The mechanism
is name matching: a decoded wire record is *projected* onto the
receiver's native format —

- fields present in both keep the wire value (recursively for nested
  formats matched by name);
- fields only in the wire format are dropped;
- fields only in the native format get a type-appropriate default
  (``0`` for numbers, ``None`` for strings, ``[]`` for dynamic arrays,
  zeroed elements for static arrays, recursively defaulted dicts for
  nested formats).

This module holds three pieces of that binding (PROTOCOL §16):

- **the projection plan** — :func:`_plan_steps` decides, per target
  field, copy / default / nested projection.  Receivers never interpret
  it per record: the fused converter of :mod:`repro.pbio.codegen` bakes
  it into generated decode code, :func:`describe_projection` renders it
  for ``pbdump --lineage``, and the interpreted projection in
  :mod:`repro.pbio.oracle` is the reference the fused converter is
  tested against;
- **a typed compatibility lattice** — :func:`compare_formats` classifies
  a (wire, native) pair as :class:`Compatibility` ``IDENTITY`` (wire
  bytes are native bytes), ``EQUIVALENT`` (decode needed, projection
  not), or ``PROJECTION`` (field sets, order or types differ); under
  PBIO's rules every pair is *compatible* — projection cannot fail —
  so the lattice answers "how much work", not "whether";
- **a format-lineage registry** — :class:`FormatLineage` links format
  versions into ancestry chains (auto-linked by name in registration
  order, or explicitly via ``parent=``), so the metadata plane can
  answer ``GET /lineage/<id>`` and compatibility queries and receivers
  can pick a converter without downloading every ancestor schema.

This is a *binding*-level feature, not a discovery feature — the paper
§3.3 is explicit on that point: both format versions have already been
discovered by the time a mismatch can be observed.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from enum import Enum

from repro.arch.model import TypeKind
from repro.errors import DecodeError
from repro.pbio.format import CompiledField, IOFormat


def default_value(field: CompiledField):
    """The default a receiver sees for a field the sender never set."""
    if field.nested is not None:
        nested_default = default_record(field.nested)
        if field.static_count > 1:
            return [default_record(field.nested) for _ in range(field.static_count)]
        return nested_default
    if field.type.is_dynamic_array:
        return []
    if field.is_string:
        if field.static_count > 1:
            return [None] * field.static_count
        return None
    if field.kind == TypeKind.CHAR:
        if field.type.is_static_array:
            return ""
        return "\x00"
    if field.kind == TypeKind.BOOLEAN:
        return False
    scalar_default = 0 if field.kind != TypeKind.FLOAT else 0.0
    if field.type.is_static_array:
        return [scalar_default] * field.static_count
    return scalar_default


def default_record(fmt: IOFormat) -> dict:
    """A fully defaulted record for ``fmt``."""
    return {field.name: default_value(field) for field in fmt.compiled_fields}


# -- projection plans ----------------------------------------------------------


def _plan_steps(
    wire_format: IOFormat, target_format: IOFormat
) -> list[tuple[str, str, object]]:
    """The projection plan: one (name, action, extra) step per target field.

    Actions: ``copy`` (wire value kept), ``default`` (extra is the
    default value), ``nested`` / ``nested_list`` (extra is the
    (wire, target) nested format pair).
    """
    steps: list[tuple[str, str, object]] = []
    wire_fields = {field.name: field for field in wire_format.compiled_fields}
    for target_field in target_format.compiled_fields:
        wire_field = wire_fields.get(target_field.name)
        if wire_field is None:
            steps.append((target_field.name, "default", default_value(target_field)))
        elif (
            target_field.nested is not None
            and wire_field.nested is not None
            and target_field.static_count == wire_field.static_count
        ):
            pair = (wire_field.nested, target_field.nested)
            if target_field.static_count > 1:
                steps.append((target_field.name, "nested_list", pair))
            else:
                steps.append((target_field.name, "nested", pair))
        elif target_field.nested is not None or wire_field.nested is not None:
            # Nested on one side only: the shapes are incompatible, treat
            # as unknown and default (matching PBIO's drop semantics).
            steps.append((target_field.name, "default", default_value(target_field)))
        else:
            steps.append((target_field.name, "copy", None))
    return steps


def describe_projection(wire_format: IOFormat, target_format: IOFormat) -> list[str]:
    """Human-readable projection plan lines (``pbdump --lineage``).

    One line per target field (``copy`` / ``default`` / ``project``)
    plus one ``drop`` line per wire field the target does not declare —
    the full story of what a receiver does to an evolved record.
    """
    lines: list[str] = []
    for name, action, extra in _plan_steps(wire_format, target_format):
        if action == "copy":
            wire_field = next(
                f for f in wire_format.compiled_fields if f.name == name
            )
            lines.append(f"copy     {name} ({wire_field.type.render()})")
        elif action == "default":
            lines.append(f"default  {name} = {extra!r}")
        else:
            nested_wire, nested_target = extra
            suffix = "[]" if action == "nested_list" else ""
            lines.append(
                f"project  {name}{suffix} ({nested_wire.name} -> "
                f"{nested_target.name})"
            )
            for sub in describe_projection(nested_wire, nested_target):
                lines.append(f"  {sub}")
    target_names = set(target_format.field_names())
    for wire_field in wire_format.compiled_fields:
        if wire_field.name not in target_names:
            lines.append(f"drop     {wire_field.name} ({wire_field.type.render()})")
    return lines


# -- compatibility lattice -----------------------------------------------------


class Compatibility(str, Enum):
    """How much binding work a (wire, native) format pair needs.

    Under PBIO's evolution rules every pair is *compatible* (projection
    cannot fail), so the lattice grades effort, not possibility:

    - ``IDENTITY`` — same fields, order, types, offsets, sizes, record
      length and byte order: the wire bytes *are* native bytes, the
      homogeneous fast path applies.
    - ``EQUIVALENT`` — same fields, order and types but a different
      layout (heterogeneous peers): a decode is needed, a projection is
      not — the decoded record is already target-shaped.
    - ``PROJECTION`` — field sets, order or types differ (evolution):
      the receiver needs a projection (compiled lazily, per observed
      pair).
    """

    IDENTITY = "identity"
    EQUIVALENT = "equivalent"
    PROJECTION = "projection"

    @property
    def compatible(self) -> bool:
        """Always True: PBIO projection handles every declared pair."""
        return True

    @property
    def projection_needed(self) -> bool:
        """True when decode alone does not produce the native shape."""
        return self is Compatibility.PROJECTION


def compare_formats(
    wire_format: IOFormat, target_format: IOFormat
) -> Compatibility:
    """Classify the (wire, target) pair on the :class:`Compatibility` lattice.

    Order-insensitive in what it *tolerates* (any name-matched pair is
    compatible) but alias-aware in what it calls ``IDENTITY``: reordered
    or retyped fields sharing names with the target are precisely the
    case where the old set-equality predicate lied, and they classify as
    ``PROJECTION`` here.  Nested formats are compared recursively; the
    weakest nested relation bounds the whole.
    """
    wire_fields = wire_format.compiled_fields
    target_fields = target_format.compiled_fields
    if wire_format.format_id == target_format.format_id and not any(
        field.nested is not None for field in wire_fields
    ):
        # The id hashes only the format's own block, so id equality is
        # conclusive only for formats without nested dependencies; with
        # nesting, the structural walk below decides.
        return Compatibility.IDENTITY
    if len(wire_fields) != len(target_fields):
        return Compatibility.PROJECTION
    relation = Compatibility.IDENTITY
    for wire_field, target_field in zip(wire_fields, target_fields):
        if wire_field.name != target_field.name:
            return Compatibility.PROJECTION
        if (wire_field.nested is None) != (target_field.nested is None):
            return Compatibility.PROJECTION
        if wire_field.nested is not None:
            # Nested bases are format *names*; the structures decide.
            if (
                wire_field.type.count != target_field.type.count
                or wire_field.type.length_field != target_field.type.length_field
            ):
                return Compatibility.PROJECTION
            nested = compare_formats(wire_field.nested, target_field.nested)
            if nested is Compatibility.PROJECTION:
                return Compatibility.PROJECTION
            if nested is Compatibility.EQUIVALENT:
                relation = Compatibility.EQUIVALENT
        elif wire_field.type.render() != target_field.type.render():
            return Compatibility.PROJECTION
        if (
            wire_field.size != target_field.size
            or wire_field.offset != target_field.offset
        ):
            relation = Compatibility.EQUIVALENT
    if (
        wire_format.record_length != target_format.record_length
        or wire_format.arch.byte_order != target_format.arch.byte_order
    ):
        relation = Compatibility.EQUIVALENT
    return relation


def formats_compatible(wire_format: IOFormat, target_format: IOFormat) -> bool:
    """True if decode alone yields the target shape (no projection needed).

    Always-true *compatibility* is not what this reports — under PBIO's
    evolution rules projection cannot fail — so, as before, it reports
    whether the projection would be the identity, useful for logging
    format drift.  Unlike the old set-equality check it is alias-aware:
    reordered or retyped fields count as drift (``PROJECTION``), while a
    pure layout change (same fields on another architecture) does not.
    """
    return compare_formats(wire_format, target_format) is not Compatibility.PROJECTION


# -- format lineage ------------------------------------------------------------


@dataclass(frozen=True)
class LineageEntry:
    """One registered format version: the format, its parent, its depth."""

    format: IOFormat
    parent: bytes | None
    version: int


class FormatLineage:
    """A versioned registry of format ancestry (thread-safe).

    Formats register with an optional explicit ``parent``; without one,
    a new format auto-links to the current latest version of the same
    *name*, so registration order defines the version chain — exactly
    the order a rolling upgrade produces.  Registration is idempotent
    (content-addressed ids), and ancestry answers are chains of ids, so
    clients resolve "how do I convert?" without fetching every ancestor
    schema (the large-schema-sets lesson).

    :meth:`describe` / :meth:`compatibility` produce the JSON documents
    the metadata plane serves under ``/lineage/`` (PROTOCOL §16), and
    :meth:`documents` renders every ancestry answer as static catalog
    documents — publish those through a
    :class:`~repro.cluster.client.ClusterClient` and the lineage
    replicates like any other catalog state.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[bytes, LineageEntry] = {}
        self._latest: dict[str, bytes] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self, fmt: IOFormat, parent: "IOFormat | bytes | None" = None
    ) -> int:
        """Register ``fmt``; returns its version number (1 = a root).

        ``parent`` may be an :class:`IOFormat`, a raw format id, or
        ``None`` (auto-link to the latest registered version of the same
        name).  Re-registering an id is a no-op returning the existing
        version.
        """
        parent_id = parent.format_id if isinstance(parent, IOFormat) else parent
        with self._lock:
            existing = self._entries.get(fmt.format_id)
            if existing is not None:
                return existing.version
            if parent_id is None:
                parent_id = self._latest.get(fmt.name)
            if parent_id == fmt.format_id:
                parent_id = None  # a format cannot be its own ancestor
            parent_entry = (
                self._entries.get(parent_id) if parent_id is not None else None
            )
            version = parent_entry.version + 1 if parent_entry is not None else 1
            self._entries[fmt.format_id] = LineageEntry(
                format=fmt,
                parent=parent_id if parent_entry is not None else None,
                version=version,
            )
            self._latest[fmt.name] = fmt.format_id
            return version

    # -- queries ---------------------------------------------------------------

    def format(self, format_id: bytes) -> IOFormat:
        """The format registered under ``format_id``."""
        with self._lock:
            entry = self._entries.get(format_id)
        if entry is None:
            raise DecodeError(f"lineage has no format {format_id.hex()}")
        return entry.format

    def latest(self, name: str) -> IOFormat | None:
        """The newest registered version of the named lineage, if any."""
        with self._lock:
            format_id = self._latest.get(name)
            entry = self._entries.get(format_id) if format_id else None
        return entry.format if entry is not None else None

    def ancestry(self, format_id: bytes) -> list[bytes]:
        """The ancestry chain, newest first, starting at ``format_id``."""
        chain: list[bytes] = []
        with self._lock:
            cursor: bytes | None = format_id
            while cursor is not None and cursor not in chain:
                entry = self._entries.get(cursor)
                if entry is None:
                    break
                chain.append(cursor)
                cursor = entry.parent
        if not chain:
            raise DecodeError(f"lineage has no format {format_id.hex()}")
        return chain

    def known_ids(self) -> list[bytes]:
        """Every registered format id."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- wire documents (PROTOCOL §16) -----------------------------------------

    def describe(self, format_id: bytes) -> dict:
        """The JSON-able ancestry document for ``GET /lineage/<id>``."""
        chain = self.ancestry(format_id)
        with self._lock:
            entries = [self._entries[fid] for fid in chain]
        head = entries[0]
        return {
            "format": format_id.hex(),
            "name": head.format.name,
            "arch": head.format.arch.name,
            "version": head.version,
            "record_length": head.format.record_length,
            "fields": head.format.field_names(),
            "parent": head.parent.hex() if head.parent else None,
            "ancestors": [
                {
                    "format": fid.hex(),
                    "name": entry.format.name,
                    "version": entry.version,
                }
                for fid, entry in zip(chain[1:], entries[1:])
            ],
        }

    def compatibility(self, wire_id: bytes, native_id: bytes) -> dict:
        """The JSON-able answer for ``GET /lineage/<wire>/compat/<native>``.

        The BSML-style binding check: ``relation`` is the
        :class:`Compatibility` value, with ``compatible`` / ``identity``
        / ``projection_needed`` spelled out so clients need no enum.
        """
        relation = compare_formats(self.format(wire_id), self.format(native_id))
        return {
            "wire": wire_id.hex(),
            "native": native_id.hex(),
            "relation": relation.value,
            "compatible": relation.compatible,
            "identity": relation is Compatibility.IDENTITY,
            "projection_needed": relation.projection_needed,
        }

    def documents(self) -> dict[str, str]:
        """Every ancestry answer as ``{path: json}`` static documents.

        Publishing these through the sharded metadata plane replicates
        lineage exactly like schema documents — replicas then answer
        ``GET /lineage/<id>`` from the replicated static document, no
        local registry required.
        """
        with self._lock:
            ids = list(self._entries)
        return {
            f"/lineage/{fid.hex()}": json.dumps(
                self.describe(fid), sort_keys=True
            )
            for fid in ids
        }
