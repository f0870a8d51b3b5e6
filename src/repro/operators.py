"""One record per ``arith``/``math`` operation: what it means and how each layer writes it.

DCIR's bridge (§4) keeps one meaning for each operation through folding,
symbolic lifting, the tasklet text and both code generators.  That meaning
is written once, here, as an :class:`Operator`:

* ``name`` (and ``predicate``, for a comparison) — the MLIR operation;
  ``c`` — the C operator or the C functions that lower to it, the first
  one its C spelling;
* ``arity``, ``integral`` (on integer operands), ``commutative``, and on
  integral records only ``identities``: the operand that leaves the other
  one unchanged and the one that absorbs it;
* ``reference`` — the value C computes, as a Python function of Python
  operands; it raises :class:`Undefined` where C leaves the value undefined
  (the record refuses those operands), and ``dtype`` is the result's type;
* ``python`` — the Python operator or function name of the tasklet text,
  which is the :func:`~repro.sdfg.tasklet_code.construct` key every
  spelling table of tasklet code looks it up by; ``numpy`` — the NumPy
  function a call is spelled with over arrays (an operator is spelled as
  itself); ``sources`` — the ``math.``/``np.`` functions a Python program
  calls it by (the Python frontend's names, which are Python's and
  NumPy's, not the emitters');
* ``guard`` — the domain, over ``{0}``, ``{1}``, on which the Python call
  gives C's value; elsewhere it raises where C gives ``nan`` or ``±inf``,
  and NumPy's value stands in (``None``: everywhere);
* ``symbolic`` — the :mod:`repro.symbolic` constructor the bridge lifts it
  to, or ``None``.

Every consumer reads a view of :data:`RECORDS`: :data:`OPERATIONS` (by MLIR
operation, for folding and the converters), :data:`C_OPERATORS` and
:data:`C_FUNCTIONS` (for the C frontend), :data:`SOURCES` (for the Python
frontend), :data:`CALLS` (the tasklet constructs that are calls, for the
spelling tables).  A view that lacks an operation does not support it.
``tests/test_operator_table.py`` holds every record, on every path, to
``cc -O2`` on its C spelling.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from string import Formatter
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .symbolic import Compare, FloorDiv, Mod

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class Undefined(ArithmeticError):
    """C leaves the value of an operation on these operands undefined."""


class Operator(NamedTuple):
    """One ``arith``/``math`` operation (see the module docstring)."""

    name: str
    predicate: Optional[str]
    c: Tuple[str, ...]
    arity: int
    integral: bool
    commutative: bool
    identities: Tuple[Optional[int], Optional[int]]
    reference: Callable
    dtype: str
    python: str
    numpy: Optional[str]
    sources: Tuple[str, ...]
    guard: Optional[str]
    symbolic: Optional[Callable]

    @property
    def is_call(self) -> bool:
        """Whether the tasklet text calls a function (else applies an operator)."""
        return self.python[0].isalpha()


# -- what C computes ------------------------------------------------------------------------


def _int64(value: int) -> int:
    """``value`` if an ``int64_t`` holds it; signed overflow is undefined in C."""
    if not INT64_MIN <= value <= INT64_MAX:
        raise Undefined(f"{value} overflows int64")
    return value


def _checked(function: Callable[[int, int], int]) -> Callable[[int, int], int]:
    return lambda a, b: _int64(function(a, b))


def _divisible(a: int, b: int) -> None:
    if b == 0 or (a == INT64_MIN and b == -1):
        raise Undefined(f"{a} / {b}")


def _truncating_div(a: int, b: int) -> int:
    _divisible(a, b)
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _truncating_rem(a: int, b: int) -> int:
    return a - _truncating_div(a, b) * b


def _shift_left(a: int, b: int) -> int:
    if a < 0 or not 0 <= b < 64:
        raise Undefined(f"{a} << {b}")
    return _int64(a << b)


def _shift_right(a: int, b: int) -> int:
    if not 0 <= b < 64:
        raise Undefined(f"{a} >> {b}")
    return a >> b  # arithmetic on a negative operand, as every C compiler here does


def _numpy(function: Callable) -> Callable[..., float]:
    """``function`` on ``np.float64`` operands, IEEE's value where Python raises."""
    def reference(*operands: float) -> float:
        with np.errstate(all="ignore"):
            return float(function(*map(np.float64, operands)))
    return reference


def _libm(name: str, numpy: str) -> Callable[..., float]:
    """The ``math`` call (C's ``libm``) where it gives a value, NumPy's where it raises."""
    call, fallback = getattr(math, name), _numpy(getattr(np, numpy))

    def reference(*operands: float) -> float:
        try:
            return call(*operands)
        except (ValueError, OverflowError):
            return fallback(*operands)
    return reference


# -- the records ----------------------------------------------------------------------------


def _integer(name, c, python, reference, commutative=False, identities=(None, None),
             symbolic=None) -> Operator:
    return Operator(f"arith.{name}", None, (c,), 2, True, commutative, identities, reference,
                    "int64", python, None, (), None, symbolic)


def _float(name, c, python, reference, commutative=False) -> Operator:
    return Operator(f"arith.{name}", None, (c,), 2, False, commutative, (None, None),
                    reference, "float64", python, None, (), None, None)


def _compare(name, predicate, c, integral) -> Operator:
    return Operator(name, predicate, (c,), 2, integral, c in ("==", "!="), (None, None),
                    _COMPARISONS[c], "bool", c, None, (), None,
                    partial(Compare.make, c) if integral else None)


def _math(name, c, python, numpy, sources, arity=1, guard=None) -> Operator:
    if python.startswith("math."):
        reference = _libm(python[len("math."):], numpy[len("np."):])
    else:
        reference = _numpy(abs if numpy == "abs" else getattr(np, numpy[len("np."):]))
    return Operator(f"math.{name}", None, c, arity, False, False, (None, None), reference,
                    "float64", python, numpy, sources, guard, None)


_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
                ">": operator.gt, ">=": operator.ge}

#: Every operation a frontend creates.
RECORDS: Tuple[Operator, ...] = (
    _integer("addi", "+", "+", _checked(operator.add), True, (0, None), operator.add),
    _integer("subi", "-", "-", _checked(operator.sub), False, (0, None), operator.sub),
    _integer("muli", "*", "*", _checked(operator.mul), True, (1, 0), operator.mul),
    # Python's ``//`` and ``%`` and the symbolic pair floor where C truncates:
    # see ROADMAP, *Each operator means what C says* (a).
    _integer("divsi", "/", "//", _truncating_div, False, (1, None), FloorDiv.make),
    _integer("remsi", "%", "%", _truncating_rem, symbolic=Mod.make),
    _integer("andi", "&", "&", operator.and_, True, (None, 0)),
    _integer("ori", "|", "|", operator.or_, True, (0, None)),
    _integer("xori", "^", "^", operator.xor, True, (0, None)),
    _integer("shli", "<<", "<<", _shift_left),
    _integer("shrsi", ">>", ">>", _shift_right),
    _float("addf", "+", "+", operator.add, True),
    _float("subf", "-", "-", operator.sub),
    _float("mulf", "*", "*", operator.mul, True),
    _float("divf", "/", "/", _numpy(np.divide)),
    Operator("arith.negf", None, ("-",), 1, False, False, (None, None), operator.neg,
             "float64", "-", None, (), None, None),
    *(_compare("arith.cmpi", predicate, c, True) for predicate, c in (
        ("eq", "=="), ("ne", "!="), ("slt", "<"), ("sle", "<="), ("sgt", ">"), ("sge", ">="))),
    # C's ``!=`` is true when an operand is NaN: unordered not-equal.
    *(_compare("arith.cmpf", predicate, c, False) for predicate, c in (
        ("oeq", "=="), ("une", "!="), ("olt", "<"), ("ole", "<="), ("ogt", ">"), ("oge", ">="))),
    _math("exp", ("exp",), "math.exp", "np.exp", ("math.exp", "np.exp"), guard="{0} <= 709.0"),
    _math("log", ("log",), "math.log", "np.log", ("math.log", "np.log"), guard="{0} > 0.0"),
    _math("log2", ("log2",), "math.log2", "np.log2", ("math.log2", "np.log2"),
          guard="{0} > 0.0"),
    _math("sqrt", ("sqrt", "sqrtf"), "math.sqrt", "np.sqrt", ("math.sqrt", "np.sqrt"),
          guard="{0} >= 0.0"),
    # The builtin ``abs`` keeps an ``np.float64`` one (``math.fabs`` makes a
    # ``float``, and ``1.0 / float`` raises at zero where C gives ``inf``).
    _math("absf", ("fabs", "abs"), "abs", "abs",
          ("math.fabs", "np.abs", "np.absolute", "np.fabs")),
    _math("sin", ("sin",), "math.sin", "np.sin", ("math.sin", "np.sin"),
          guard="abs({0}) < math.inf"),
    _math("cos", ("cos",), "math.cos", "np.cos", ("math.cos", "np.cos"),
          guard="abs({0}) < math.inf"),
    _math("tanh", ("tanh",), "math.tanh", "np.tanh", ("math.tanh", "np.tanh")),
    # ``math.floor`` returns an ``int``; C's ``floor`` a ``double``.
    _math("floor", ("floor",), "np.floor", "np.floor", ("math.floor", "np.floor")),
    _math("ceil", ("ceil",), "np.ceil", "np.ceil", ("math.ceil", "np.ceil")),
    # ``b * log(a)`` below 709 in magnitude and ``a`` positive: no overflow, no domain error.
    _math("powf", ("pow",), "math.pow", "np.float_power", ("math.pow",), 2,
          "abs({1} * math.log(abs({0}) or 1.0)) < 709.0 and {0} > 0.0"),
    _math("atan2", ("atan2",), "math.atan2", "np.arctan2", ("math.atan2",), 2),
)

#: ``(MLIR operation, predicate)`` → record; the predicate is ``None`` but on comparisons.
OPERATIONS: Dict[Tuple[str, Optional[str]], Operator] = {
    (record.name, record.predicate): record for record in RECORDS
}

#: ``(C operator, on integers)`` → the record of a binary operator.
C_OPERATORS: Dict[Tuple[str, bool], Operator] = {
    (record.c[0], record.integral): record
    for record in RECORDS if record.arity == 2 and not record.is_call
}

#: C function name → the record it lowers to.
C_FUNCTIONS: Dict[str, Operator] = {
    name: record for record in RECORDS if record.is_call for name in record.c
}

#: Tasklet call construct (``"math.sqrt"``) → its record.
CALLS: Dict[str, Operator] = {record.python: record for record in RECORDS if record.is_call}

#: ``math.``/``np.`` function a Python program calls → the record it lowers to.
SOURCES: Dict[str, Operator] = {name: record for record in RECORDS for name in record.sources}

#: MLIR operation names the bridge may lift to a symbolic expression.
SYMBOLIC = frozenset(record.name for record in RECORDS if record.symbolic is not None)


def record_of(op) -> Optional[Operator]:
    """The record of an IR operation, or ``None`` for one without."""
    return OPERATIONS.get((op.name, op.attributes.get("predicate")))


def python_text(record: Operator, operands: Sequence[str]) -> str:
    """``record`` applied to operand texts in tasklet Python, without enclosing
    parentheses (an operand that is no name must carry its own)."""
    if record.is_call:
        return f"{record.python}({', '.join(operands)})"
    if record.arity == 1:
        return f"{record.python}{operands[0]}"
    return f"{operands[0]} {record.python} {operands[1]}"


def python_call(record: Operator, values: Sequence[str],
                bindings: Optional[Sequence[str]] = None) -> str:
    """The Python call of ``record`` on ``values`` under its guard, NumPy's value
    outside it: ``(math.sqrt(x) if x >= 0.0 else float(np.sqrt(x)))``.

    ``bindings`` stands for each value at its first use in the guard (an
    assignment expression that binds a temporary named by the value), so an
    operand that is no name is evaluated once.
    """
    bindings = list(bindings or values)
    pieces = []
    for literal, field, _, _ in Formatter().parse(record.guard):
        pieces.append(literal)
        if field is not None:
            index = int(field)
            pieces.append(bindings[index])
            bindings[index] = values[index]
    arguments = ", ".join(values)
    return (f"({record.python}({arguments}) if {''.join(pieces)} "
            f"else float({record.numpy}({arguments})))")
