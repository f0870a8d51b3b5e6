"""Scalar regions: loop nests the interpreted backend runs on lists.

A scalar region (``codegen/sdfg_python.py``) is an outermost loop with no
whole-array copy or state machine in it that touches transient
``float64`` containers only, arrays only at a point, and whose maps, if it
has any, are short.  Its arrays are Python lists while it runs, so every
element it reads is a Python ``float`` where it was an ``np.float64``.
That is sound only for what gives the same bits on both in the region's
spelling (:data:`~repro.codegen.sdfg_python.LISTS`), the constructs of
:data:`~repro.codegen.sdfg_python.SAME_BITS`; these tests check that table
value by value, pin which nests of the 32 benchmark programs run on lists,
check the ``for`` form of a counted loop against the ``while`` form's exit
value and the rows hoisted out of a loop against a loop that makes no trip.
"""

import ast
import functools
import math
import operator
import struct

import numpy as np
import pytest

from repro import compile_and_run, generate_program, get_pipeline
from repro.codegen import have_compiler
from repro.codegen.sdfg_python import LISTS, SAME_BITS, SCALAR, SHORT_MAPS, generate_code
from repro.sdfg import SDFG, InterstateEdge, Memlet
from repro.sdfg.tasklet_code import Unspelled, as_operand, spell
from repro.symbolic import Range, Symbol

from test_codegen_array_maps import _benchmark_programs

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: Signed zeros, units, infinities, NaN, the smallest subnormal, the largest double.
VALUES = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308)
#: Integers an integer operand takes, zero first.
INTEGERS = (0, 1, -1, 7, -9)

#: Each admitted construct on floats ``a``, ``b`` (and the test ``c``).
_UNARY = {ast.USub: "-a", ast.UAdd: "+a", "abs": "abs(a)", "float": "float(a)",
          "math.sqrt": "math.sqrt(a)"}
_BINARY = {
    ast.Add: "a + b", ast.Sub: "a - b", ast.Mult: "a * b", ast.Div: "a / b",
    ast.Eq: "a == b", ast.NotEq: "a != b", ast.Lt: "a < b", ast.LtE: "a <= b",
    ast.Gt: "a > b", ast.GtE: "a >= b", "min": "min(a, b)", "max": "max(a, b)",
}
_SELECT = {ast.IfExp: "a if c else b"}
#: A literal of each type, as the other operand of the arithmetic operators
#: (the left one of a division only where it is not zero).
_LITERALS = {bool: True, int: 3, float: 0.5}


def _bits(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return struct.pack("<d", value)


def _listed(text):
    """``text`` as a scalar region spells it (:data:`LISTS`)."""
    node = ast.parse(text, mode="eval").body
    return as_operand(spell(node, LISTS, lambda name: (name, None), as_operand)[0], node)


def _same(text, **operands):
    """``text`` in a region's spelling on ``float``\\ s gives the bits that
    ``text`` as written gives on ``np.float64``\\ s, a ``math`` call NumPy's
    (integers stay ``int``)."""
    numpy = {name: np.float64(value) if isinstance(value, float) else value
             for name, value in operands.items()}
    with np.errstate(all="ignore"):
        expected = eval(text, {"math": np}, numpy)
        actual = eval(_listed(text), {"math": math, "np": np}, operands)
    if isinstance(expected, np.floating) and math.isnan(expected):
        assert math.isnan(actual), (text, operands)
    else:
        assert _bits(actual) == _bits(expected), (text, operands)


def test_every_admitted_construct_is_checked():
    assert set(_UNARY) | set(_BINARY) | set(_SELECT) == SAME_BITS


@pytest.mark.parametrize("key", list(_UNARY), ids=str)
def test_unary_gives_the_bits_of_float64(key):
    for value in VALUES:
        _same(_UNARY[key], a=value)


@pytest.mark.parametrize("key", list(_BINARY), ids=str)
def test_binary_gives_the_bits_of_float64(key):
    for left in VALUES:
        for right in VALUES:
            _same(_BINARY[key], a=left, b=right)


def test_selection_gives_the_bits_of_float64():
    for test in VALUES:
        for value in VALUES:
            _same(_SELECT[ast.IfExp], c=test, a=value, b=-value)


@pytest.mark.parametrize("key", list(_LITERALS), ids=str)
def test_literal_operands_give_the_bits_of_float64(key):
    literal = repr(_LITERALS[key])
    for value in VALUES:
        for operator_ in "+-*":
            _same(f"a {operator_} {literal}", a=value)
            _same(f"{literal} {operator_} a", a=value)
        _same(f"a / {literal}", a=value)


@pytest.mark.parametrize("text", ["a / i", "i % 7 / a"])
def test_division_with_an_integer_gives_the_bits_of_float64(text):
    for value in VALUES:
        for i in INTEGERS:
            _same(text, a=value, i=i)


def test_a_guard_binds_a_divisor_that_is_no_name_once():
    """``a / (b + 1.0)`` reads ``b + 1.0`` once, into a temporary that the
    guard of the ``sqrt`` in its dividend does not reuse."""
    text = _listed("math.sqrt(a + 0.0) / (b + 1.0)")
    assert text.count("(_g2 := (b + 1.0))") == 1 and "(_g1 := a + 0.0)" in text
    for left in VALUES:
        for right in VALUES:
            _same("math.sqrt(a + 0.0) / (b + 1.0)", a=left, b=right)


def _admits(text, floats="ab"):
    """Whether a region admits ``text`` with the names in ``floats`` floats
    and every other name an integer."""
    try:
        spell(ast.parse(text, mode="eval").body, SCALAR,
              lambda name: (name, "float64" if name in floats else "int64"))
    except Unspelled:
        return False
    return True


def test_what_a_float_does_otherwise_is_refused():
    with pytest.raises(ZeroDivisionError):
        operator.truediv(1.0, 0.0)  # where np.float64 gives inf: LISTS guards it
    with pytest.raises(ValueError):
        math.sqrt(-1.0)  # where np.float64 gives nan: LISTS guards it
    for text in ("a + b * 2.0", "(a if a < b else b) / 9.0", "abs(-a) - float(i % 7)",
                 "min(a, b) / 3", "i // 2 + i ** 2 - i % 5", "a / b", "a / i", "i % 7 / a",
                 "math.sqrt(a)"):
        assert _admits(text), text
    for text in ("a / 0.0", "a % b", "a // 2.0", "a ** 2", "math.exp(a)", "int(a)", "a and b",
                 "not a", "a < b < 1.0"):
        assert not _admits(text), text


#: A kernel that calls a ``math`` function on ``x[3]`` outside any map.
MATH = """
double kernel(double x[4]) {
  return %s;
}
"""


@pytest.mark.parametrize("call", ["sqrt(x[3])", "log(x[3])", "exp(x[3])", "log(x[3] + 2.0)",
                                  "exp(x[3] + 1002.0)", "log2(x[3])", "sin(x[3])", "cos(x[3])"])
def test_scalar_math_gives_what_float64_gives(call):
    """Outside a map a ``math`` call is a scalar one, guarded: where NumPy
    gives ``nan`` or ``±inf``, ``math`` would raise."""
    program = generate_program(MATH % call, "dcir").to_result()
    native = get_pipeline("dcir").with_codegen(backend="native") if have_compiler() else None
    for value in VALUES + (-2.0,):
        x = np.array([0.0, 0.0, 0.0, value])
        with np.errstate(all="ignore"):
            expected = eval(call, {**vars(np), "x": x})
            results = [program.run(x=x.copy())["__return"]]
        if native is not None:
            results.append(compile_and_run(MATH % call, native, x=x.copy()).return_value)
        for result in results:
            if math.isnan(expected):
                assert math.isnan(result), (call, value)
            else:
                assert _bits(result) == _bits(expected), (call, value, result)


def _regions(program):
    return _regions_of(program.report.counters)


#: A kernel whose scalar loop divides by an element that is zero.
DIVIDES_BY_ZERO = """
double kernel() {
  double z[4];
  double x[8];
  for (int i = 0; i < 4; i++)
    z[i] = 0.0;
  x[0] = 1.0;
  for (int i = 1; i < 8; i++)
    x[i] = x[i - 1] / z[i % 4];
  return x[7];
}
"""


def test_division_by_an_element_is_guarded_on_lists():
    program = generate_program(DIVIDES_BY_ZERO, "dcir")
    assert _regions(program) == 1 and "for i_0 in range(1, 8):" in program.code
    with np.errstate(divide="ignore"):
        assert program.to_result().run()["__return"] == math.inf


@requires_cc
def test_division_by_an_element_gives_native_inf():
    native = get_pipeline("dcir").with_codegen(backend="native")
    assert compile_and_run(DIVIDES_BY_ZERO, native).return_value == math.inf


@functools.lru_cache(maxsize=None)
def _counters():
    """The counters of each of the 32 programs under ``dcir`` at ``medium``."""
    counted = {name: generate_program(source, "dcir").report.counters
               for name, source in _benchmark_programs("medium")}
    assert len(counted) == 32
    return counted


#: ``scalar_regions`` of the programs that have any, of the 32 under ``dcir`` at ``medium``.
PINNED_REGIONS = {"cholesky": 1, "floyd-warshall": 2, "lu": 1, "seidel-2d": 1, "softmax": 1}


def test_regions_are_pinned():
    counted = {name: _regions_of(counters) for name, counters in _counters().items()}
    assert {name: count for name, count in counted.items() if count} == PINNED_REGIONS


def _regions_of(counters):
    return counters.get("codegen.python.scalar_regions", 0)


#: Every loop nest of the 32 programs at ``medium`` that holds maps and is a
#: region but for them, by program: the innermost maps it runs on lists
#: (``region_maps``, its maps are short) or ``0`` (kept NumPy: they are not).
CHOICES = {
    "cholesky": 2, "lu": 2,
    "durbin": 0, "heat-3d": 0, "heat1d": 0, "jacobi-1d": 0, "jacobi-2d": 0, "jacobi2d": 0,
    "trisolv": 0,
}


def test_which_nests_of_maps_run_on_lists_is_pinned():
    """The choices of :data:`~repro.codegen.sdfg_python.SHORT_MAPS`, not timings."""
    assert SHORT_MAPS == 32
    chosen = {}
    for name, counters in _counters().items():
        lists = counters.get("codegen.python.region_maps", 0)
        kept = counters.get("codegen.python.region_refused.long_maps", 0)
        assert kept <= 1 and not (lists and kept), name
        if lists or kept:
            chosen[name] = lists
    assert chosen == CHOICES


#: ``__allocations`` of each program under ``dcir``, as before it had regions.
ALLOCATIONS = {"cholesky": 2, "floyd-warshall": 2, "lu": 2, "seidel-2d": 2, "softmax": 6}


@requires_cc
@pytest.mark.parametrize("preset", ["small", "medium"])
def test_interpreted_returns_are_native_bit_for_bit(preset):
    native = get_pipeline("dcir").with_codegen(backend="native")
    checked = 0
    for name, source in _benchmark_programs(preset):
        if name not in PINNED_REGIONS:
            continue
        program = generate_program(source, "dcir")
        assert _regions(program) == PINNED_REGIONS[name]
        interpreted = program.to_result().run()
        expected = compile_and_run(source, native).outputs
        assert float(interpreted["__return"]).hex() == float(expected["__return"]).hex(), name
        assert interpreted["__allocations"] == expected["__allocations"] == ALLOCATIONS[name]
        checked += 1
    assert checked == (4 if preset == "small" else 5)  # softmax has no ``small`` size


def _loop(step=1, bound_moves=False, code="_out = _in * 0.5"):
    """``T = A``, ``for (i = 0; i < N; i += step) T[i + 1] = T[i] * 0.5``, then
    ``out = i`` and ``A = T``.  With ``bound_moves`` the bound is ``M = N``,
    and the body lowers it by one.  ``code`` is the body's tasklet."""
    sdfg = SDFG("counted")
    sdfg.add_symbol("N")
    sdfg.add_symbol("i")
    sdfg.add_array("T", [16], "float64", transient=True)
    sdfg.add_array("A", [16], "float64")
    sdfg.add_scalar("out", "float64", transient=False)
    init = sdfg.add_state("init", is_start_state=True)
    guard, body, after = (sdfg.add_state(label) for label in ("guard", "body", "after"))
    init.add_edge(init.add_access("A"), None, init.add_access("T"), None,
                  Memlet.simple("A", "0:16"))
    bound = "M" if bound_moves else "N"
    entry = {"i": 0, "M": "N"} if bound_moves else {"i": 0}
    sdfg.add_edge(init, guard, InterstateEdge(assignments=entry))
    sdfg.add_edge(guard, body, InterstateEdge(condition=f"i < {bound}"))
    sdfg.add_edge(guard, after, InterstateEdge(condition=f"not (i < {bound})"))
    tasklet = body.add_tasklet("halve", ["_in"], ["_out"], code)
    body.add_edge(body.add_access("T"), None, tasklet, "_in", Memlet.simple("T", "i"))
    body.add_edge(tasklet, "_out", body.add_access("T"), None, Memlet.simple("T", "i + 1"))
    latch = {"i": f"i + {step}"}
    if bound_moves:
        lower = sdfg.add_state("lower")
        sdfg.add_edge(body, lower, InterstateEdge(assignments={"M": "M - 1"}))
        sdfg.add_edge(lower, guard, InterstateEdge(assignments=latch))
    else:
        sdfg.add_edge(body, guard, InterstateEdge(assignments=latch))
    tasklet = after.add_tasklet("induction", [], ["_out"], "_out = float(i)")
    after.add_edge(tasklet, "_out", after.add_access("out"), None, Memlet.simple("out", "0"))
    after.add_edge(after.add_access("T"), None, after.add_access("A"), None,
                   Memlet.simple("T", "0:16"))
    return sdfg


def _run(code, A=None, **symbols):
    namespace = {}
    exec(compile(code, "<counted>", "exec"), namespace)
    return namespace["run"](A=np.arange(16.0) if A is None else A, **symbols)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_induction_after_the_loop_holds_the_while_exit_value(step):
    code = generate_code(_loop(step))
    assert f"for i in range(0, N{f', {step}' if step > 1 else ''}):" in code
    assert "T_l = T.tolist()" in code and "T[...] = T_l" in code
    for n in (0, 1, 5, 6, 14):
        outputs = _run(code, N=n)
        last = 0 if n <= 0 else -(-n // step) * step  # first value not below N
        assert outputs["out"] == float(last), (step, n)
        expected = np.arange(16.0)
        for i in range(0, n, step):
            expected[i + 1] = expected[i] * 0.5
        assert outputs["A"].tolist() == expected.tolist()


def test_a_bound_assigned_in_the_body_stays_a_while():
    code = generate_code(_loop(bound_moves=True))
    assert "while i < M:" in code and "for " not in code
    assert "T_l[i + 1] = (T_l[i] * 0.5)" in code  # still a region: lists, in the while form
    outputs = _run(code, N=6)  # runs while i < 6 - i: i = 0, 1, 2
    assert outputs["out"] == 3.0
    assert outputs["A"].tolist() == [0.0, 0.0, 0.0, 0.0] + list(np.arange(4.0, 16.0))


def test_a_live_scalar_it_wrote_is_numpy_after_it():
    """Code after a region sees NumPy values: ``1.0 / s`` is ``inf``, not a
    ``ZeroDivisionError``, for an ``s`` the region left at zero."""
    sdfg = _loop()
    sdfg.add_scalar("s", "float64")
    sdfg.add_scalar("inverse", "float64", transient=False)
    states = {state.label: state for state in sdfg.states()}
    body, after = states["body"], states["after"]
    tasklet = body.add_tasklet("zero", ["_in"], ["_out"], "_out = _in * 0.0")
    body.add_edge(body.add_access("T"), None, tasklet, "_in", Memlet.simple("T", "i"))
    body.add_edge(tasklet, "_out", body.add_access("s"), None, Memlet.simple("s", "0"))
    tasklet = after.add_tasklet("invert", ["_in"], ["_out"], "_out = 1.0 / _in")
    after.add_edge(after.add_access("s"), None, tasklet, "_in", Memlet.simple("s", "0"))
    after.add_edge(tasklet, "_out", after.add_access("inverse"), None,
                   Memlet.simple("inverse", "0"))
    code = generate_code(sdfg)
    assert "for i in range(0, N):" in code and "s = np.float64(s)" in code
    with np.errstate(divide="ignore"):
        assert _run(code, N=4)["inverse"] == math.inf


@pytest.mark.parametrize("code", ["_out = 0", "_out = _in < 0.5", "_out = -(_in < 0.5)"])
def test_a_value_that_is_no_float_stays_on_numpy(code):
    """A list would keep an ``int`` or a ``bool`` where the array stores a
    ``float64`` (``-(x < y)`` is ``0``, not ``-0.0``, on the next read)."""
    code = generate_code(_loop(code=code))
    assert "while i < N:" in code and "tolist" not in code


def _rows(rows):
    """``T = A``; ``for i in range(0, rows)``: a map over ``j`` in ``[i, 4)``
    halves ``T[i, j]``; then ``A = T``.  ``T`` has 4 rows: from ``i = 4`` on
    the map makes no trip, and its row ``T[i]`` is none."""
    sdfg = SDFG("rows")
    sdfg.add_symbol("i")
    sdfg.add_array("T", [4, 4], "float64", transient=True)
    sdfg.add_array("A", [4, 4], "float64")
    init = sdfg.add_state("init", is_start_state=True)
    guard, body, after = (sdfg.add_state(label) for label in ("guard", "body", "after"))
    init.add_edge(init.add_access("A"), None, init.add_access("T"), None,
                  Memlet.simple("A", "0:4, 0:4"))
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(guard, body, InterstateEdge(condition=f"i < {rows}"))
    sdfg.add_edge(guard, after, InterstateEdge(condition=f"not (i < {rows})"))
    body.add_mapped_tasklet("halve", {"j": Range(Symbol("i"), 4)},
                            {"_in": Memlet.simple("T", "i, j")}, "_out = _in * 0.5",
                            {"_out": Memlet.simple("T", "i, j")})
    sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1"}))
    after.add_edge(after.add_access("T"), None, after.add_access("A"), None,
                   Memlet.simple("T", "0:4, 0:4"))
    return sdfg


@pytest.mark.parametrize("rows", [3, 4, 8])
def test_a_row_is_hoisted_only_where_it_is_one(rows, monkeypatch):
    """``T_l[i]`` is bound ahead of the map's loop while ``i`` is provably a
    row of ``T``; past the last row, where the map makes no trip, it stays
    in the loop, so nothing raises and the lists return what NumPy does."""
    code = generate_code(_rows(rows))
    assert "T_l = T.tolist()" in code and "for j in range(i, 4):" in code
    assert ("T_l0 = T_l[i]" in code) == (rows <= 4)
    monkeypatch.setattr("repro.codegen.sdfg_python.SHORT_MAPS", 0)
    numpy = generate_code(_rows(rows))
    assert "tolist" not in numpy and "T[i, i:4] = T[i, i:4] * 0.5" in numpy
    outputs = [_run(text, A=np.arange(16.0).reshape(4, 4))["A"] for text in (code, numpy)]
    assert outputs[0].tolist() == outputs[1].tolist()
