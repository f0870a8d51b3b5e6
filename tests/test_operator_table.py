"""Every operator record, on every path, against ``cc -O2`` on its C spelling.

:mod:`repro.operators` holds one record per ``arith``/``math`` operation.
For each record this file compiles one C program with the system ``cc``
(found as ``benchmarks/e2e/reference.py`` finds it) that applies the
record's C spelling to every operand tuple — :data:`VALUES` of
``test_codegen_scalar_regions.py`` for floating records, its integers plus
``INT64_MIN`` (and so zero divisors) for integral ones — and holds each path
an operation takes through the compiler to what that program prints:

* ``fold`` — ``canonicalize`` on constant operands (it keeps the op where C's
  value is undefined, ``inf`` or ``nan``);
* ``interpreted``, ``native`` — the tasklet text of a one-statement kernel
  under ``dcir``, spelled by ``sdfg_python.PYTHON`` and ``sdfg_c.C_TASKLET``;
* ``mlir_python`` — the same kernel under ``gcc``;
* ``numpy`` and ``lists`` — the tasklet text spelled over arrays
  (``sdfg_python.NUMPY``) and in a scalar region (``sdfg_python.LISTS``,
  for the records a region admits);
* ``evaluate`` and ``c_symbolic`` — the record's symbolic lift, evaluated in
  Python and printed as C into the reference program.

Where C leaves a value undefined, the record refuses the operands: its
reference raises :class:`~repro.operators.Undefined` and no path runs them.
Without a C compiler the reference cannot be built, and the tests fail.
"""

import ast
import functools
import itertools
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import compile_c, get_pipeline
from repro.codegen.sdfg_c import _HELPERS, c_symbolic
from repro.codegen.sdfg_python import LISTS, NUMPY, SCALAR
from repro.dialects import FuncOp, ModuleOp, ReturnOp
from repro.dialects.arith import ConstantOp
from repro.ir import Builder, FunctionType
from repro.ir.core import OPERATION_REGISTRY, defining_op
from repro.ir.types import F64, I1, IntegerType
from repro.operators import INT64_MAX, INT64_MIN, RECORDS, Undefined
from repro.passes import Canonicalize
from repro.sdfg.tasklet_code import Unspelled, as_operand, spell
from repro.symbolic import Symbol

from test_codegen_scalar_regions import INTEGERS, VALUES

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks", "e2e"))
from reference import CFLAGS, build_reference, run_reference, system_cc  # noqa: E402

#: Integer operands: the scalar-region tests' integers and the most negative one.
INTEGER_OPERANDS = INTEGERS + (INT64_MIN,)

#: Paths on which ``divsi`` and ``remsi`` floor where C truncates: ROADMAP,
#: *Each operator means what C says* (a).  They flip when its fix lands.
FLOORING = {"interpreted", "native", "numpy", "lists", "evaluate", "c_symbolic"}


def _key(record) -> str:
    return f"{record.name}.{record.predicate}" if record.predicate else record.name


def _operands(record):
    values = INTEGER_OPERANDS if record.integral else VALUES
    return list(itertools.product(values, repeat=record.arity))


def _defined(record):
    """The operand tuples C gives a value for, with that value by the reference."""
    cases = []
    for operands in _operands(record):
        try:
            cases.append((operands, record.reference(*operands)))
        except Undefined:
            pass
    return cases


def _undefined_in_c(record, a, b=None) -> bool:
    """C11's undefined cases, stated apart from the records: signed overflow,
    division by zero, ``INT64_MIN / -1`` and its remainder, shifts of a negative
    value or by a negative or too large count."""
    name = record.name.split(".")[1]
    if name in ("addi", "subi", "muli"):
        exact = {"addi": a + b, "subi": a - b, "muli": a * b}[name]
        return not INT64_MIN <= exact <= INT64_MAX
    if name in ("divsi", "remsi"):
        return b == 0 or (a, b) == (INT64_MIN, -1)
    if name == "shli":
        return a < 0 or not 0 <= b < 64 or a << b > INT64_MAX
    if name == "shrsi":
        return not 0 <= b < 64
    return False


# -- the reference: cc -O2 on each record's C spelling ----------------------------------------


def _c_literal(value, integral: bool) -> str:
    if integral:
        return "(-9223372036854775807LL - 1)" if value == INT64_MIN else f"{value}LL"
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "(-INFINITY)"
    return value.hex()


def _c_spelling(record, names) -> str:
    """The record's C spelling over the C expressions ``names``."""
    if record.is_call:
        return f"{record.c[0]}({', '.join(names)})"
    if record.arity == 1:
        return f"{record.c[0]}({names[0]})"
    return f"({names[0]}) {record.c[0]} ({names[1]})"


_PRINT = {"float64": "show_f64((double)({}))", "int64": "show_i64((int64_t)({}))",
          "bool": "show_i64((int64_t)({}))"}


def _symbolic_text(record) -> str:
    return c_symbolic(record.symbolic(*(Symbol(name) for name in "ab"[:record.arity])))


@functools.lru_cache(maxsize=None)
def _reference():
    """``{(key, path, repr(operands)): value}`` printed by one program built with the
    system ``cc -O2``: ``path`` is ``"c"`` for the record's C spelling and
    ``"c_symbolic"`` for its symbolic lift printed by ``c_symbolic``."""
    cases, lines = [], []
    for record in RECORDS:
        ctype = "int64_t" if record.integral else "double"
        names = "ab"[:record.arity]
        texts = [("c", _c_spelling(record, names))]
        if record.symbolic is not None:
            texts.append(("c_symbolic", _symbolic_text(record)))
        for operands, _ in _defined(record):
            declarations = ", ".join(f"v{name} = {_c_literal(value, record.integral)}"
                                     for name, value in zip(names, operands))
            reads = ", ".join(f"{name} = v{name}" for name in names)
            lines.append(f"  {{ volatile {ctype} {declarations}; {ctype} {reads};")
            for path, text in texts:
                lines.append("    " + _PRINT[record.dtype].format(text) + ";")
                cases.append((_key(record), path, repr(operands), record.dtype))
            lines.append("  }")
    body = "\n".join(lines)
    helpers = "\n".join(text for name, text in _HELPERS.items() if f"{name}(" in body)
    source = f"""#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
{helpers}
static void show_f64(double value) {{
  uint64_t bits;
  memcpy(&bits, &value, sizeof bits);
  printf("%016llx\\n", (unsigned long long)bits);
}}
static void show_i64(int64_t value) {{ printf("%lld\\n", (long long)value); }}
int main(void) {{
{body}
  return 0;
}}
"""
    with tempfile.TemporaryDirectory() as directory:
        c_path, binary = os.path.join(directory, "operators.c"), os.path.join(directory, "operators")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        subprocess.run([system_cc(), *CFLAGS, "-o", binary, c_path, "-lm"], check=True,
                       capture_output=True, text=True, timeout=120)
        printed = subprocess.run([binary], check=True, capture_output=True, text=True,
                                 timeout=60).stdout.split()
    assert len(printed) == len(cases)
    return {
        (key, path, operands): struct.unpack("<d", bytes.fromhex(text)[::-1])[0]
        if dtype == "float64" else int(text)
        for (key, path, operands, dtype), text in zip(cases, printed)
    }


def _expected(record, operands, path="c"):
    return _reference()[_key(record), path, repr(operands)]


def _same(actual, expected) -> bool:
    if isinstance(expected, float):
        actual = float(actual)
        return math.isnan(actual) if math.isnan(expected) else \
            struct.pack("<d", actual) == struct.pack("<d", expected)
    return int(actual) == expected and not isinstance(actual, float)


def _check(record, compute, path="c"):
    """``compute(operands)`` is C's value for every defined operand tuple.
    A wrong value fails first; then the first operand tuple that raised
    raises again."""
    wrong, raised = [], []
    for operands, _ in _defined(record):
        expected = _expected(record, operands, path)
        try:
            with np.errstate(all="ignore"):
                actual = compute(operands)
        except (ArithmeticError, ValueError) as error:
            raised.append(error)
            continue
        if not _same(actual, expected):
            wrong.append((operands, actual, expected))
    assert not wrong, f"{_key(record)}: {len(wrong)} wrong, first {wrong[:3]}"
    if raised:
        raise raised[0]


# -- the paths ---------------------------------------------------------------------------------


def _ir_type(record):
    return IntegerType(64) if record.integral else F64


def _fold(record, operands):
    """What ``canonicalize`` makes of the op on ``operands``, ``None`` standing
    for an unknown argument: ``("constant", value)``, ``("argument", None)``
    or ``("kept", None)``."""
    module, ir_type = ModuleOp.build(), _ir_type(record)
    result_type = I1 if record.dtype == "bool" else ir_type
    func = Builder.at_end(module.body).create(FuncOp, "f", FunctionType([ir_type], [result_type]))
    body = Builder.at_end(func.body)
    values = [func.body.arguments[0] if value is None
              else body.create(ConstantOp, value, ir_type).result for value in operands]
    predicate = (record.predicate,) if record.predicate else ()
    op = body.create(OPERATION_REGISTRY[record.name], *predicate, *values)
    body.create(ReturnOp, [op.results[0]])
    Canonicalize().run_on_module(module)
    returned = defining_op(func.body.operations[-1].operand(0))
    if returned is None:
        return "argument", None
    if isinstance(returned, ConstantOp):
        return "constant", returned.value
    assert returned.name == record.name
    return "kept", None


def _check_identities(record):
    """A binary op with one constant operand folds only to what C computes
    for every value of the other one: integral records' identities, no float's."""
    values = INTEGER_OPERANDS if record.integral else VALUES
    for position, constant in itertools.product(range(2), values):
        operands = [None, None]
        operands[position] = constant
        kind, value = _fold(record, operands)
        if kind == "kept":
            continue
        for other in values:
            operands[1 - position] = other
            try:
                record.reference(*operands)
            except Undefined:
                continue
            folded = other if kind == "argument" else value
            assert _same(folded, _expected(record, tuple(operands))), (operands, kind, value)


@functools.lru_cache(maxsize=None)
def _kernel(record) -> str:
    """A C kernel returning the record's C spelling of ``x[0]`` (and ``x[1]``)."""
    element = "long" if record.integral else "double"
    result = {"float64": "double", "int64": "long", "bool": "int"}[record.dtype]
    expression = _c_spelling(record, [f"x[{index}]" for index in range(record.arity)])
    return f"{result} kernel({element} x[2]) {{\n  return {expression};\n}}\n"


def _run(record, pipeline: str, backend: str):
    compiled = compile_c(_kernel(record), get_pipeline(pipeline).with_codegen(backend=backend))
    assert compiled.backend == backend, compiled.backend_diagnostic
    dtype = np.int64 if record.integral else np.float64

    def compute(operands):
        padded = list(operands) + [operands[0]] * (2 - len(operands))
        return compiled.run(x=np.array(padded, dtype=dtype))["__return"]
    return compute


def _tasklet_text(record) -> str:
    """The record's tasklet text over ``a`` (and ``b``)."""
    names = list("ab"[:record.arity])
    if record.is_call:
        return f"{record.python}({', '.join(names)})"
    return f"{record.python}a" if record.arity == 1 else f"a {record.python} b"


def _spelled(record, table):
    node = ast.parse(_tasklet_text(record), mode="eval").body
    return as_operand(spell(node, table, lambda name: (name, None), as_operand)[0], node)


def _admitted(record) -> bool:
    """Whether a scalar region admits the record on its operand type."""
    dtype = "int64" if record.integral else "float64"
    try:
        spell(ast.parse(_tasklet_text(record), mode="eval").body, SCALAR,
              lambda name: (name, dtype))
    except Unspelled:
        return False
    return True


def _evaluate(record):
    expression = record.symbolic(*(Symbol(name) for name in "ab"[:record.arity]))
    return lambda operands: expression.evaluate(dict(zip("ab", operands)))


def _folded(record):
    """The folded constant; an op ``canonicalize`` keeps (``inf``, ``nan``) runs as C does."""
    def compute(operands):
        kind, value = _fold(record, operands)
        return value if kind == "constant" else _expected(record, operands)
    return compute


def _numpy(record):
    """The NumPy spelling, on arrays of every defined operand tuple at once."""
    cases = _defined(record)
    dtype = np.int64 if record.integral else np.float64
    columns = {name: np.array([operands[index] for operands, _ in cases], dtype=dtype)
               for index, name in enumerate("ab"[:record.arity])}
    with np.errstate(all="ignore"):
        vector = eval(_spelled(record, NUMPY), {"np": np}, columns)
    position = {repr(operands): index for index, (operands, _) in enumerate(cases)}
    return lambda operands: vector[position[repr(operands)]].item()


PATHS = {
    "fold": _folded,
    "interpreted": lambda record: _run(record, "dcir", "python"),
    "native": lambda record: _run(record, "dcir", "native"),
    "mlir_python": lambda record: _run(record, "gcc", "python"),
    "numpy": _numpy,
    "lists": lambda record: lambda operands: eval(
        _spelled(record, LISTS), {"math": math, "np": np}, dict(zip("ab", operands))),
    "evaluate": _evaluate,
    "c_symbolic": lambda record: lambda operands: _expected(record, operands, "c_symbolic"),
}


def _cases():
    for record in RECORDS:
        for path in PATHS:
            if path in ("evaluate", "c_symbolic") and record.symbolic is None:
                continue
            if path == "lists" and not _admitted(record):
                continue
            marks = []
            if record.name in ("arith.divsi", "arith.remsi") and path in FLOORING:
                marks = [pytest.mark.xfail(strict=True, reason="ROADMAP (a): floors where C truncates")]
            yield pytest.param(record, path, id=f"{_key(record)}-{path}", marks=marks)


@pytest.mark.parametrize("record", RECORDS, ids=_key)
def test_the_reference_is_what_cc_computes(record):
    _check(record, lambda operands: record.reference(*operands))


@pytest.mark.parametrize("record", RECORDS, ids=_key)
def test_refused_operands_are_what_c_leaves_undefined(record):
    """A refused case raises a typed error, and ``canonicalize`` keeps its op."""
    for operands in _operands(record):
        undefined = _undefined_in_c(record, *operands)
        try:
            record.reference(*operands)
        except Undefined:
            assert undefined, operands
            assert _fold(record, operands) == ("kept", None), operands
        else:
            assert not undefined, operands


@pytest.mark.parametrize("record, path", _cases())
def test_every_path_computes_what_cc_computes(record, path):
    if path == "fold":
        for operands, value in _defined(record):
            assert (_fold(record, operands)[0] == "constant") == math.isfinite(value), operands
        if record.arity == 2:
            _check_identities(record)
    _check(record, PATHS[path](record))


def test_a_region_admits_what_gives_the_bits_of_float64():
    """The records a scalar region runs on lists: every integral one, on
    floats what ``SAME_BITS`` admits."""
    admitted = {_key(record) for record in RECORDS if _admitted(record)}
    assert admitted == {_key(record) for record in RECORDS if record.integral} | {
        "arith.addf", "arith.subf", "arith.mulf", "arith.divf", "arith.negf", "math.sqrt",
        "math.absf",
        *(f"arith.cmpf.{predicate}" for predicate in ("oeq", "une", "olt", "ole", "ogt", "oge")),
    }


def test_no_record_is_unreachable():
    """Every record is created by a frontend: its C spelling lowers to its operation."""
    from repro.frontend import compile_c_to_mlir

    for record in RECORDS:
        element = "long" if record.integral else "double"
        expression = _c_spelling(record, ["x[0]", "x[1]"][:record.arity])
        module = compile_c_to_mlir(f"double f({element} x[2]) {{ return {expression}; }}")
        created = {(op.name, op.attributes.get("predicate")) for op in module.walk()}
        assert (record.name, record.predicate) in created, _key(record)


#: One-statement kernels where two tables used to disagree: a float identity
#: fold, ``floor`` typed as an integer, ``pow`` outside ``math.pow``'s domain
#: and range, a folded constant that no literal spells, ``fabs`` spelled so
#: that it keeps an ``np.float64`` (C divides by its zero), ``%`` on an
#: ``int64`` no ``double`` holds (2**53 + 1), literals divided by a
#: literal zero (two Python ``float``\ s, where C gives ``±inf`` and ``nan``),
#: and a division by a computed zero (``sqrt(-0.0)``, a Python ``float``).
PROBES = {
    "fabs-of-zero": "1.0 / fabs(x[2])",
    "mulf-by-zero": "1.0 / (x[3] * 0.0)",
    "floor-of-inf": "floor(x[3] * 1e300 * 1e10)",
    "pow-domain": "pow(x[3], 0.5)",
    "pow-range": "pow(10.0, 400.0)",
    "inf-constant": "1e300 * 1e10",
    "nan-constant": "1e300 * 1e10 - 1e300 * 1e10",
    "remsi-past-2**53": "(double)(((long)x[3] + 9007199254740995L) % 2)",
    "one-by-zero": "1.0 / 0.0",
    "minus-one-by-zero": "-1.0 / 0.0",
    "zero-by-zero": "0.0 / 0.0",
    "one-by-sqrt-of-zero": "1.0 / sqrt(x[2])",
}

#: Probes that raise ``ZeroDivisionError`` where their text runs as Python:
#: every interpreted case, and ``native`` under the pipelines that build no
#: SDFG (they have no C, and fall back to the interpreted text).
DIVIDES_A_PYTHON_ZERO = {"one-by-sqrt-of-zero"}


#: ``x`` of every probe.
PROBE_X = (0.0, 0.0, -0.0, -2.0)


def _probe(name: str) -> str:
    return f"double kernel(double x[4]) {{\n  return {PROBES[name]};\n}}\n"


@functools.lru_cache(maxsize=None)
def _probe_reference(name: str, directory: str) -> float:
    """``cc -O2`` on the probe, called on :data:`PROBE_X` by a ``double probe()``."""
    call = f"double probe() {{\n  double x[4] = {{{', '.join(map(repr, PROBE_X))}}};\n" \
        "  return kernel(x);\n}\n"
    return run_reference(build_reference(name, _probe(name) + call, Path(directory)))[1]


def _probe_cases():
    for name in sorted(PROBES):
        for pipeline in ("gcc", "clang", "mlir", "dace", "dcir"):
            for backend in ("python", "native"):
                marks = []
                if name in DIVIDES_A_PYTHON_ZERO and (
                        backend == "python" or pipeline not in ("dace", "dcir")):
                    marks = [pytest.mark.xfail(
                        strict=True, raises=ZeroDivisionError,
                        reason="ROADMAP (f): a computed Python float zero raises as a divisor")]
                yield pytest.param(name, pipeline, backend, marks=marks,
                                   id=f"{name}-{pipeline}-{backend}")


@pytest.mark.parametrize("name, pipeline, backend", _probe_cases())
def test_the_probes_return_what_cc_returns(name, pipeline, backend, tmp_path_factory):
    expected = _probe_reference(name, str(tmp_path_factory.getbasetemp() / "probes"))
    compiled = compile_c(_probe(name), get_pipeline(pipeline).with_codegen(backend=backend))
    with np.errstate(all="ignore"):
        value = compiled.run(x=np.array(PROBE_X))["__return"]
    assert _same(value, expected), (value, expected)
