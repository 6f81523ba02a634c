"""Differential tests: the generated encoders against the oracle.

For every record the round-trip and evolution strategies draw, and for
mutations of it (a dropped field, a wrong type, an out-of-range integer,
a static array of the wrong length, a count that disagrees with its
array), the generated ``encode`` and ``encode_into`` either produce the
bytes of the interpreted encoder in :mod:`repro.pbio.oracle` or raise
:class:`~repro.errors.EncodeError` exactly when it does.  The one known
superset — any sized sequence, such as a numpy array, passes for a
static array where the oracle wants a list or tuple — is asserted
explicitly.

The oracle is a test fixture, not a runtime path: no module of the
library may import it.
"""

import ast
import copy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import IOContext, XML2Wire
from repro.arch import ALPHA, SPARC_32, SPARC_64, X86_32, X86_64
from repro.arch.model import TypeKind
from repro.errors import EncodeError
from repro.pbio import IOField
from repro.pbio.codegen import make_generated_encoder, make_generated_encoder_into
from repro.pbio.oracle import InterpretedEncoder

from tests.property.strategies import evolution_case, schema_and_record

ARCHES = [X86_32, X86_64, SPARC_32, SPARC_64, ALPHA]

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Any format the strategies draw: flat, nested, and evolved wire sides.
CASES = st.one_of(
    schema_and_record(),
    schema_and_record(nested=True),
    evolution_case().map(lambda case: (case[0], case[2], case[3])),
)

#: Replacement values of the wrong type for any field.
WRONG_TYPES = (None, 7, 2.5, "x", b"x", [1], {"k": 1})

MUTATIONS = ("none", "drop", "wrong_type", "out_of_range", "static_length", "count")


def register(schema, format_name, arch):
    tool = XML2Wire(IOContext(arch))
    tool.register_schema(schema)
    return tool.context.lookup_format(format_name)


@st.composite
def mutated(draw, fmt, record):
    """``record``, or a copy with one field broken in one way."""
    record = copy.deepcopy(record)
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "none":
        return record
    name = draw(st.sampled_from(sorted(record)))
    field = fmt.field(name)
    value = record[name]
    if kind == "drop":
        del record[name]
    elif kind == "wrong_type":
        record[name] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "out_of_range":
        integral = field.kind in (TypeKind.SIGNED_INT, TypeKind.UNSIGNED_INT)
        if integral and isinstance(value, int):
            record[name] = 2**64
    elif kind == "static_length":
        if field.type.is_static_array and isinstance(value, list):
            record[name] = value[:-1] if draw(st.booleans()) else value + value[:1]
    else:  # count
        counts = sorted(set(record) & set(fmt.length_field_names))
        if counts:
            count = draw(st.sampled_from(counts))
            record[count] += 1
    return record


def outcome(encode, record):
    """The payload ``encode`` produces, or ``EncodeError`` if it refuses."""
    try:
        return encode(record)
    except EncodeError:
        return EncodeError


def into_bytes(fmt):
    """``encode_into`` at a non-zero offset, returned as bytes."""
    encode_into = make_generated_encoder_into(fmt)

    def encode(record):
        buffer = bytearray(4096)
        length = encode_into(record, buffer, 3)
        return bytes(buffer[3 : 3 + length])

    return encode


class TestGeneratedMatchesOracle:
    @RELAXED
    @given(case=CASES, arch=st.sampled_from(ARCHES), data=st.data())
    def test_bytes_or_encode_error_agree(self, case, arch, data):
        schema, format_name, record = case
        fmt = register(schema, format_name, arch)
        record = data.draw(mutated(fmt, record))
        expected = outcome(InterpretedEncoder(fmt).encode, record)
        assert outcome(make_generated_encoder(fmt), record) == expected
        assert outcome(into_bytes(fmt), record) == expected

    def test_static_array_accepts_any_sized_sequence(self, x86_context):
        """The known superset: the oracle wants a list or tuple."""
        numpy = pytest.importorskip("numpy")
        fmt = x86_context.register_format("t", [IOField("v", "integer[3]", 4, 0)])
        array = numpy.array([1, 2, 3], dtype="int32")
        oracle = InterpretedEncoder(fmt)
        with pytest.raises(EncodeError, match="expects a sequence"):
            oracle.encode({"v": array})
        expected = oracle.encode({"v": [1, 2, 3]})
        assert make_generated_encoder(fmt)({"v": array}) == expected
        assert into_bytes(fmt)({"v": array}) == expected


SOURCE_ROOT = Path(repro.__file__).parent


def imported_modules(source: str, package: str) -> set[str]:
    """Every module name ``source`` (a module of ``package``) imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestOracleBoundary:
    def test_no_library_module_imports_the_oracle(self):
        importers = []
        for path in sorted(SOURCE_ROOT.rglob("*.py")):
            if path.name == "oracle.py":
                continue
            package = ".".join(path.relative_to(SOURCE_ROOT.parent).parts[:-1])
            source = path.read_text(encoding="utf-8")
            if "repro.pbio.oracle" in imported_modules(source, package):
                importers.append(str(path.relative_to(SOURCE_ROOT)))
        assert importers == []

    @pytest.mark.parametrize(
        "line",
        [
            "import repro.pbio.oracle",
            "from repro.pbio.oracle import InterpretedEncoder",
            "from repro.pbio import oracle",
            "from . import oracle",
            "from .oracle import make_interpreted_converter",
        ],
    )
    def test_boundary_check_sees_every_spelling(self, line):
        assert "repro.pbio.oracle" in imported_modules(line, "repro.pbio")


#: Parameters that once selected a slower codec path at run time.
CODEC_SWITCHES = {"mode", "use_fused", "use_codegen", "use_numpy"}

#: ``WorkerPool(mode=...)`` picks how listeners are shared between worker
#: processes, not a codec; it is the one ``mode`` parameter that stays.
UNRELATED_MODES = {("mp/pool.py", "__init__"), ("mp/pool.py", "_worker_main")}


class TestNoCodecSwitches:
    def test_no_function_takes_a_codec_switch(self):
        found = []
        for path in sorted(SOURCE_ROOT.rglob("*.py")):
            module = path.relative_to(SOURCE_ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (module, node.name) in UNRELATED_MODES:
                    continue
                arguments = node.args.args + node.args.kwonlyargs
                found += [
                    f"{module}:{node.name}({argument.arg})"
                    for argument in arguments
                    if argument.arg in CODEC_SWITCHES
                ]
        assert found == []
