"""Scalar regions: map-free loop nests the interpreted backend runs on lists.

A scalar region (``codegen/sdfg_python.py``) is an outermost loop with no
map, whole-array copy or state machine in it that touches transient
``float64`` containers only, arrays only at a point.  Its arrays are Python
lists while it runs, so every element it reads is a Python ``float`` where
it was an ``np.float64``.  That is sound only for what gives the same bits
on both, :data:`~repro.codegen.sdfg_python.SAME_BITS`; these tests check
that table value by value, pin which of the 32 benchmark programs have
regions, and check the ``for`` form of a counted loop against the
``while`` form's exit value.
"""

import ast
import math
import operator
import struct

import numpy as np
import pytest

from repro import compile_and_run, generate_program, get_pipeline
from repro.codegen import have_compiler
from repro.codegen.sdfg_python import SAME_BITS, SCALAR, generate_code
from repro.sdfg import SDFG, InterstateEdge, Memlet
from repro.sdfg.tasklet_code import Unspelled, spell

from test_codegen_array_maps import _benchmark_programs

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: Signed zeros, units, infinities, NaN, the smallest subnormal, the largest double.
VALUES = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308)

_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos, "abs": abs, "float": float}
_BINARY = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Eq: operator.eq, ast.NotEq: operator.ne,
    ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    "min": min, "max": max,
}
_SELECT = {ast.IfExp: lambda test, body, orelse: body if test else orelse}
#: A literal of each type, as the other operand of the arithmetic operators
#: (the left one of a division only where it is not zero).
_LITERALS = {bool: True, int: 3, float: 0.5}


def _bits(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return struct.pack("<d", value)


def _same(function, *operands):
    with np.errstate(all="ignore"):
        expected = function(*map(np.float64, operands))
    assert _bits(function(*operands)) == _bits(expected), (function, operands)


def test_every_admitted_construct_is_checked():
    assert set(_UNARY) | set(_BINARY) | set(_SELECT) == SAME_BITS


@pytest.mark.parametrize("key", list(_UNARY), ids=str)
def test_unary_gives_the_bits_of_float64(key):
    for value in VALUES:
        _same(_UNARY[key], value)


@pytest.mark.parametrize("key", list(_BINARY), ids=str)
def test_binary_gives_the_bits_of_float64(key):
    for left in VALUES:
        for right in VALUES:
            if key is ast.Div and right == 0:
                continue  # admitted only by a nonzero literal, below
            _same(_BINARY[key], left, right)


def test_selection_gives_the_bits_of_float64():
    for test in VALUES:
        for value in VALUES:
            _same(_SELECT[ast.IfExp], test, value, -value)


@pytest.mark.parametrize("key", list(_LITERALS), ids=str)
def test_literal_operands_give_the_bits_of_float64(key):
    literal = _LITERALS[key]
    for value in VALUES:
        for function in (operator.add, operator.sub, operator.mul):
            _same(lambda x: function(x, literal), value)
            _same(lambda x: function(literal, x), value)
        _same(lambda x: x / literal, value)


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
        operator.truediv(1.0, 0.0)  # where np.float64 gives inf
    for text in ("a + b * 2.0", "(a if a < b else b) / 9.0", "abs(-a) - float(i % 7)",
                 "min(a, b) / 3", "i // 2 + i ** 2 - i % 5"):
        assert _admits(text), text
    for text in ("a / b", "a / 0.0", "a / i", "a % b", "a // 2.0", "a ** 2", "math.sqrt(a)",
                 "math.exp(a)", "int(a)", "a and b", "not a", "a < b < 1.0", "i % 7 / a"):
        assert not _admits(text), text


def _regions(program):
    return program.report.counters.get("codegen.python.scalar_regions", 0)


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


def test_division_by_an_element_stays_on_numpy():
    program = generate_program(DIVIDES_BY_ZERO, "dcir")
    assert _regions(program) == 0 and "while i" in program.code
    with np.errstate(divide="ignore"):
        assert program.to_result().run()["__return"] == math.inf


@requires_cc
def test_division_by_an_element_gives_native_inf():
    native = get_pipeline("dcir").with_codegen(backend="native")
    assert compile_and_run(DIVIDES_BY_ZERO, native).return_value == math.inf


#: ``scalar_regions`` of the programs that have any, of the 32 under ``dcir`` at ``medium``.
PINNED_REGIONS = {"floyd-warshall": 2, "seidel-2d": 1, "softmax": 1}


def test_regions_are_pinned():
    counted = {name: _regions(generate_program(source, "dcir"))
               for name, source in _benchmark_programs("medium")}
    assert len(counted) == 32
    assert {name: count for name, count in counted.items() if count} == PINNED_REGIONS


#: ``__allocations`` of each program under ``dcir``, as before it had regions.
ALLOCATIONS = {"floyd-warshall": 2, "seidel-2d": 2, "softmax": 6}


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
    assert checked == (2 if preset == "small" else 3)  # softmax has no ``small`` size


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


def _run(code, **symbols):
    namespace = {}
    exec(compile(code, "<counted>", "exec"), namespace)
    return namespace["run"](A=np.arange(16.0), **symbols)


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
