"""Symbolic math engine used by both the MLIR-like IR and the SDFG IR.

Public entry points:

* :func:`sympify` / :func:`parse_expr` — build expressions from Python
  values or strings,
* :class:`Symbol`, :class:`Integer`, :class:`Float` and the operator nodes,
* :class:`Range` / :class:`Subset` — the memlet subset algebra,
* :func:`definitely_nonzero` — sign reasoning for size verification.

A node class *declares* its shape in :mod:`.expr` (key tag, operand
slots, numeric fold) and the walks over it are written once on
:class:`Expr`; it is spelled by one table per language —
:mod:`.printer`'s ``PYTHON`` behind ``str(expr)``, the ``C`` table in
:mod:`repro.codegen.sdfg_c` — and needs a row in each.

Interning and immutability guarantees
-------------------------------------

The engine is the compiler's hottest data structure, and its speed rests
on two guarantees every consumer may rely on — and must uphold:

1. **Leaf nodes are hash-consed.**  Constructing an equal
   :class:`Integer`, :class:`Symbol` or :class:`BoolConst` twice returns
   the *same object* (``Integer(2) is Integer(2)``,
   ``Symbol("N") is Symbol("N")``, ``BoolConst(True) is TRUE``), so the
   dominant equality checks are pointer comparisons.  Interning tables
   are bounded; beyond the bound construction falls back to fresh
   objects with unchanged semantics.

2. **All nodes are immutable.**  Never mutate an expression, range or
   subset after construction (``__slots__`` prevents adding attributes;
   rebinding existing fields is undefined behavior).  Every node caches
   its structural key, hash, free-symbol set and text on first use, repeated
   string parses return the shared parse-cache entry, and
   ``Add.make``/``Mul.make`` memoize on operand tuples — mutation would
   silently corrupt all of these.  Build modified expressions through
   the constructors or :meth:`~repro.symbolic.expr.Expr.subs` (which
   returns ``self`` when no free symbol is touched).

``copy.copy``/``copy.deepcopy`` of any expression return the expression
itself, and interned leaves survive pickling as their interned
representatives.
"""

from .expr import (
    Add,
    And,
    BoolConst,
    BoolExpr,
    Compare,
    Div,
    Expr,
    FALSE,
    Float,
    FloorDiv,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Pow,
    Symbol,
    SymbolicError,
    TRUE,
    symbols,
    sympify,
)
from .parser import parse_expr
from .ranges import Range, Subset
from .solve import definitely_nonzero, sign_assuming_positive

__all__ = [
    "Add",
    "And",
    "BoolConst",
    "BoolExpr",
    "Compare",
    "Div",
    "Expr",
    "FALSE",
    "Float",
    "FloorDiv",
    "Integer",
    "Max",
    "Min",
    "Mod",
    "Mul",
    "Not",
    "Or",
    "Pow",
    "Range",
    "Subset",
    "Symbol",
    "SymbolicError",
    "TRUE",
    "definitely_nonzero",
    "sign_assuming_positive",
    "parse_expr",
    "symbols",
    "sympify",
]
