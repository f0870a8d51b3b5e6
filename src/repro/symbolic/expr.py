"""Symbolic expression trees.

This module is the reproduction's stand-in for the symbolic math engine
DaCe borrows from sympy.  It implements just enough symbolic algebra for
parametric dataflow analysis: integer/float constants, named symbols,
arithmetic (+, -, *, /, floor-division, modulo, power, min, max), and
boolean expressions (comparisons, and/or/not).

Expressions are immutable.  Construction performs light canonicalization
(constant folding, flattening of nested sums/products, dropping neutral
elements) so that structurally equal expressions compare equal in the
common cases data-centric passes rely on (e.g. ``N + 0`` equals ``N``).

One node shape: the four leaves define their own key and value; each of
the twelve compound classes only *declares* what distinguishes it — key
tag, operand slots, whether it is n-ary, numeric fold — beside its
``make`` canonicalizer, and the constructor, :meth:`~Expr.children`, the
key, ``subs`` and :meth:`~Expr.evaluate` are written once on
:class:`Expr` over those declarations.  No class spells itself:
``str(expr)`` is :func:`repro.symbolic.printer.render` with the
``PYTHON`` table, and the native backend has a table of its own.

Performance model (the compiler's hot core):

* **Hash consing** — :class:`Integer`, :class:`Symbol` and
  :class:`BoolConst` are interned: constructing the same leaf twice
  returns the same object (``Integer(2) is Integer(2)``), so the most
  common equality checks are pointer comparisons.
* **Per-node caches** — every node caches its structural :meth:`key`,
  its hash, its :meth:`free_symbols` set and its printed text in slots
  the first time they are computed.  Equality collapses onto the cached-key comparison in
  this base class; there is no per-class ``__eq__``/``__ne__``.
* **Memoized canonicalizers** — :meth:`Add.make` / :meth:`Mul.make`
  results are memoized on their operand tuples (bounded tables).
* **Substitution fast paths** — ``subs`` returns ``self`` (no fresh
  allocation) whenever the mapping touches none of the node's free
  symbols.

All caches rely on the immutability contract: never mutate a node after
construction (all node classes use ``__slots__`` to enforce this).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Union

from ..perf import PERF

Number = Union[int, float, Fraction]
ExprLike = Union["Expr", int, float, str]

#: Bound on the interning tables (leaf nodes) and canonicalizer memo
#: tables.  Beyond the bound new entries are simply not recorded (leaves)
#: or the table is cleared (memos) — correctness never depends on a cache.
_INTERN_LIMIT = 65536
_MEMO_LIMIT = 16384


class SymbolicError(Exception):
    """Raised for malformed symbolic expressions or impossible operations."""


def sympify(value: ExprLike) -> "Expr":
    """Coerce a Python value into an :class:`Expr`.

    Strings are parsed with :mod:`repro.symbolic.parser`, numbers become
    constants, and expressions pass through unchanged.  Exact non-integer
    rationals (:class:`fractions.Fraction`) are preserved exactly as a
    :class:`Div` of two integers rather than degraded to a float.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int):
        return Integer(value)
    if isinstance(value, float):
        if value.is_integer():
            return Integer(int(value))
        return Float(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return Integer(value.numerator)
        # Construct the Div node directly: Div.make would fold two integer
        # constants into an (inexact) float.
        return Div(Integer(value.numerator), Integer(value.denominator))
    if isinstance(value, str):
        return parse_expr(value)
    raise SymbolicError(f"Cannot convert {value!r} to a symbolic expression")


class Expr:
    """Base class of all symbolic expressions.

    Nodes are immutable; the four slots below lazily cache the
    structural key, its hash, the free-symbol set and ``str(self)``.
    """

    __slots__ = ("_key", "_hash", "_free", "_text")

    # -- what a compound class declares; the walks below read nothing else ----
    #: First element of :meth:`key`.
    _tag: str = ""
    #: The slots that hold one operand each, in :meth:`children` order.
    _operands: tuple = ()
    #: Instead: any number of operands in the one slot ``args``, in an order
    #: that carries no meaning — so :meth:`key` sorts their keys.
    _nary = False
    #: :meth:`evaluate`: the operands' values (one iterable of them when
    #: n-ary, evaluated as it is consumed) to the node's value.
    _fold = None

    def __init__(self, *operands):
        """Store the operands in their declared slots (``Add(terms)``, ``Div(num, den)``)."""
        if self._nary:
            self.args = tuple(*operands)
        else:
            for name, operand in zip(self._operands, operands):
                setattr(self, name, operand)

    # -- construction helpers ------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add.make(self, sympify(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add.make(sympify(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add.make(self, Mul.make(_NEG_ONE, sympify(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add.make(sympify(other), Mul.make(_NEG_ONE, self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul.make(self, sympify(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul.make(sympify(other), self)

    def __neg__(self) -> "Expr":
        return Mul.make(_NEG_ONE, self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Div.make(self, sympify(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Div.make(sympify(other), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(self, sympify(other))

    def __rfloordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(sympify(other), self)

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod.make(self, sympify(other))

    def __rmod__(self, other: ExprLike) -> "Expr":
        return Mod.make(sympify(other), self)

    def __pow__(self, other: ExprLike) -> "Expr":
        return Pow.make(self, sympify(other))

    # -- a comparison produces a boolean expression --------------------------
    def lt(self, other: ExprLike) -> "BoolExpr":
        return Compare.make("<", self, sympify(other))

    # -- structural equality / hashing ---------------------------------------
    def key(self) -> tuple:
        """Structural key used for equality and hashing (computed once)."""
        try:
            return self._key
        except AttributeError:
            key = self._key = self._compute_key()
            return key

    def _compute_key(self) -> tuple:
        keys = [child.key() for child in self.children()]
        if self._nary:
            return (self._tag, tuple(sorted(keys)))
        return (self._tag, *keys)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, (int, float)):
            other = sympify(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.key() == other.key()

    # __ne__ intentionally not defined: Python derives it from __eq__.

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = self._hash = hash(self.key())
            return result

    def __reduce__(self):
        # Pickle through the constructor: a leaf comes back as its interned
        # self, and no cached key or hash travels to another process.
        return type(self), tuple(getattr(self, slot) for slot in type(self).__slots__)

    # Immutable trees: copies are the object itself.  This also keeps
    # structures embedding expressions (interstate edges, memlets) cheap
    # to deep-copy.
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    # -- analysis -------------------------------------------------------------
    def free_symbols(self) -> frozenset:
        """Set of :class:`Symbol` objects appearing in the expression.

        The returned frozenset is cached on the node and shared between
        callers; do not attempt to mutate it.
        """
        try:
            return self._free
        except AttributeError:
            free = self._free = self._compute_free()
            return free

    def _compute_free(self) -> frozenset:
        result: set = set()
        for child in self.children():
            result |= child.free_symbols()
        return frozenset(result)

    def children(self) -> Sequence["Expr"]:
        if self._nary:
            return self.args
        return tuple([getattr(self, name) for name in self._operands])

    def subs(self, mapping: Mapping[Union[str, "Symbol"], ExprLike]) -> "Expr":
        """Substitute symbols (by name or object) and re-simplify."""
        normalized: Dict[str, Expr] = {}
        for key, value in mapping.items():
            name = key.name if isinstance(key, Symbol) else str(key)
            normalized[name] = sympify(value)
        if not normalized:
            return self
        return self._subs(normalized)

    def _subs(self, mapping: Dict[str, "Expr"]) -> "Expr":
        # Fast path: nothing to substitute in this subtree.
        for symbol in self.free_symbols():
            if symbol.name in mapping:
                return self._subs_impl(mapping)
        return self

    def _subs_impl(self, mapping: Dict[str, "Expr"]) -> "Expr":
        return type(self).make(*[child._subs(mapping) for child in self.children()])

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        """Evaluate the expression numerically.

        Raises :class:`SymbolicError` if a free symbol is missing from
        ``env``.
        """
        values = (child.evaluate(env) for child in self.children())
        return self._fold(values) if self._nary else self._fold(*values)

    def is_constant(self) -> bool:
        return not self.free_symbols()

    def as_int(self) -> int:
        """Return the expression as a Python int if it is an integer constant."""
        if isinstance(self, Integer):
            return self.value
        if self.is_constant():
            value = self.evaluate({})
            if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
                return int(value)
        raise SymbolicError(f"{self} is not an integer constant")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self})"

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = self._text = render(self, PYTHON)
            return text

    def __bool__(self) -> bool:
        # Guard against `if expr:` silently misbehaving for symbolic values.
        if isinstance(self, Integer):
            return self.value != 0
        if isinstance(self, BoolConst):
            return self.value
        raise SymbolicError(
            f"Truth value of symbolic expression {self} is ambiguous; "
            "use .evaluate() or comparison helpers"
        )


class Integer(Expr):
    """Integer constant (hash-consed: equal values share one object)."""

    __slots__ = ("value",)
    __init__ = object.__init__  # ``__new__`` builds, or finds, the instance

    _interned: Dict[int, "Integer"] = {}

    def __new__(cls, value: int):
        if not isinstance(value, int):
            raise SymbolicError(f"Integer requires an int, got {value!r}")
        value = int(value)  # normalize bool -> int
        if cls is Integer:  # subclasses get (and intern) their own instances
            self = Integer._interned.get(value)
            if self is not None:
                PERF.increment("symbolic.intern.hits")
                return self
        PERF.increment("symbolic.intern.misses")
        self = object.__new__(cls)
        self.value = value
        if cls is Integer and len(Integer._interned) < _INTERN_LIMIT:
            Integer._interned[value] = self
        return self

    def _compute_key(self) -> tuple:
        return ("int", self.value)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return self.value


class Float(Expr):
    """Floating-point constant."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def _compute_key(self) -> tuple:
        return ("float", self.value)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return self.value


class Symbol(Expr):
    """A named symbolic value (e.g. an array dimension ``N``), hash-consed."""

    __slots__ = ("name",)
    __init__ = object.__init__  # ``__new__`` builds, or finds, the instance

    _interned: Dict[str, "Symbol"] = {}

    def __new__(cls, name: str):
        if not name or not isinstance(name, str):
            raise SymbolicError(f"Symbol requires a non-empty name, got {name!r}")
        if cls is Symbol:  # subclasses get (and intern) their own instances
            self = Symbol._interned.get(name)
            if self is not None:
                PERF.increment("symbolic.intern.hits")
                return self
        PERF.increment("symbolic.intern.misses")
        self = object.__new__(cls)
        self.name = name
        if cls is Symbol and len(Symbol._interned) < _INTERN_LIMIT:
            Symbol._interned[name] = self
        return self

    def _compute_key(self) -> tuple:
        return ("sym", self.name)

    def _compute_free(self) -> frozenset:
        return frozenset((self,))

    def _subs_impl(self, mapping: Dict[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        env = env or {}
        if self.name not in env:
            raise SymbolicError(f"Symbol {self.name!r} has no value in environment")
        return env[self.name]


def symbols(names: str) -> tuple:
    """Create multiple symbols from a whitespace/comma separated string."""
    parts = [part for part in names.replace(",", " ").split() if part]
    return tuple(Symbol(part) for part in parts)


def _const_value(expr: Expr):
    if isinstance(expr, Integer):
        return expr.value
    if isinstance(expr, Float):
        return expr.value
    return None


#: Memo tables of the n-ary canonicalizers, keyed by operand tuple.  Safe
#: because expressions are immutable and the builders are pure functions
#: of their operands' structure.
_ADD_MEMO: Dict[tuple, "Expr"] = {}
_MUL_MEMO: Dict[tuple, "Expr"] = {}


def _memoized_make(memo: Dict[tuple, "Expr"], builder, operands: tuple) -> "Expr":
    """Memoize a pure n-ary canonicalizer on its (Expr-only) operand tuple."""
    cached = memo.get(operands)
    if cached is not None:
        PERF.increment("symbolic.make.hits")
        return cached
    PERF.increment("symbolic.make.misses")
    result = builder(operands)
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[operands] = result
    return result


class Add(Expr):
    """Sum of terms (n-ary, flattened, constants folded)."""

    __slots__ = ("args",)
    _tag = "add"
    _nary = True
    _fold = sum

    @staticmethod
    def make(*operands: Expr) -> Expr:
        return _memoized_make(_ADD_MEMO, Add._make, operands)

    @staticmethod
    def _make(operands: Sequence[Expr]) -> Expr:
        terms: list[Expr] = []
        constant: Number = 0
        is_float = False

        def push(term: Expr) -> None:
            nonlocal constant, is_float
            if isinstance(term, Add):
                for sub in term.args:
                    push(sub)
                return
            value = _const_value(term)
            if value is not None:
                constant = constant + value
                is_float = is_float or isinstance(term, Float)
                return
            terms.append(term)

        for operand in operands:
            push(sympify(operand))

        # Collect like terms: coefficient * base
        collected: Dict[tuple, list] = {}
        order: list[tuple] = []
        for term in terms:
            coeff, base = _split_coefficient(term)
            key = base.key()
            if key not in collected:
                collected[key] = [0, base]
                order.append(key)
            collected[key][0] += coeff
        new_terms = []
        for key in order:
            coeff, base = collected[key]
            if coeff == 0:
                continue
            if coeff == 1:
                new_terms.append(base)
            else:
                new_terms.append(Mul.make(_number_to_expr(coeff), base))

        if constant != 0 or not new_terms:
            const_expr = _number_to_expr(constant, prefer_float=is_float)
            if constant != 0 or not new_terms:
                new_terms = new_terms + [const_expr] if new_terms else [const_expr]
        if len(new_terms) == 1:
            return new_terms[0]
        return Add(new_terms)


class Mul(Expr):
    """Product of factors (n-ary, flattened, constants folded)."""

    __slots__ = ("args",)
    _tag = "mul"
    _nary = True
    _fold = math.prod

    @staticmethod
    def make(*operands: Expr) -> Expr:
        return _memoized_make(_MUL_MEMO, Mul._make, operands)

    @staticmethod
    def _make(operands: Sequence[Expr]) -> Expr:
        factors: list[Expr] = []
        constant: Number = 1
        is_float = False

        def push(factor: Expr) -> None:
            nonlocal constant, is_float
            if isinstance(factor, Mul):
                for sub in factor.args:
                    push(sub)
                return
            value = _const_value(factor)
            if value is not None:
                constant = constant * value
                is_float = is_float or isinstance(factor, Float)
                return
            factors.append(factor)

        for operand in operands:
            push(sympify(operand))

        if constant == 0:
            return _number_to_expr(0, prefer_float=is_float)
        # Distribute a constant coefficient over a sum so that differences of
        # affine index expressions cancel (e.g. i - (i - 1) simplifies to 1).
        if len(factors) == 1 and isinstance(factors[0], Add) and constant != 1:
            coefficient = _number_to_expr(constant, prefer_float=is_float)
            return Add.make(*[Mul.make(coefficient, term) for term in factors[0].args])
        result_factors: list[Expr] = []
        if constant != 1 or not factors:
            result_factors.append(_number_to_expr(constant, prefer_float=is_float))
        result_factors.extend(factors)
        if len(result_factors) == 1:
            return result_factors[0]
        return Mul(result_factors)


class Div(Expr):
    """True division (kept exact when both sides are integer constants that divide)."""

    __slots__ = ("num", "den")
    _tag = "div"
    _operands = ("num", "den")
    _fold = operator.truediv

    @staticmethod
    def make(num: Expr, den: Expr) -> Expr:
        num = sympify(num)
        den = sympify(den)
        dval = _const_value(den)
        if dval == 0:
            raise SymbolicError("Division by zero in symbolic expression")
        nval = _const_value(num)
        if nval is not None and dval is not None:
            if isinstance(nval, int) and isinstance(dval, int) and nval % dval == 0:
                return Integer(nval // dval)
            return Float(nval / dval)
        if dval == 1:
            return num
        return Div(num, den)


class FloorDiv(Expr):
    """Floor division, used for tiling and strided subsets."""

    __slots__ = ("num", "den")
    _tag = "floordiv"
    _operands = ("num", "den")
    _fold = staticmethod(lambda num, den: int(math.floor(num / den)))

    @staticmethod
    def make(num: Expr, den: Expr) -> Expr:
        num = sympify(num)
        den = sympify(den)
        dval = _const_value(den)
        if dval == 0:
            raise SymbolicError("Floor division by zero in symbolic expression")
        nval = _const_value(num)
        if nval is not None and dval is not None:
            return Integer(int(math.floor(nval / dval)))
        if dval == 1:
            return num
        return FloorDiv(num, den)


class Mod(Expr):
    """Modulo operation."""

    __slots__ = ("num", "den")
    _tag = "mod"
    _operands = ("num", "den")
    _fold = operator.mod

    @staticmethod
    def make(num: Expr, den: Expr) -> Expr:
        num = sympify(num)
        den = sympify(den)
        dval = _const_value(den)
        if dval == 0:
            raise SymbolicError("Modulo by zero in symbolic expression")
        nval = _const_value(num)
        if nval is not None and dval is not None:
            return _number_to_expr(nval % dval)
        if dval == 1:
            return Integer(0)
        return Mod(num, den)


class Pow(Expr):
    """Power operation (rarely needed; kept for math-dialect lowering)."""

    __slots__ = ("base", "exp")
    _tag = "pow"
    _operands = ("base", "exp")
    _fold = operator.pow

    @staticmethod
    def make(base: Expr, exp: Expr) -> Expr:
        base = sympify(base)
        exp = sympify(exp)
        bval = _const_value(base)
        eval_ = _const_value(exp)
        if bval is not None and eval_ is not None:
            return _number_to_expr(bval**eval_)
        if eval_ == 1:
            return base
        if eval_ == 0:
            return Integer(1)
        return Pow(base, exp)


class Min(Expr):
    """n-ary minimum."""

    __slots__ = ("args",)
    _tag = "min"
    _nary = True
    _fold = min

    @staticmethod
    def make(*operands: ExprLike) -> Expr:
        return _make_minmax(Min, operands)


class Max(Expr):
    """n-ary maximum."""

    __slots__ = ("args",)
    _tag = "max"
    _nary = True
    _fold = max

    @staticmethod
    def make(*operands: ExprLike) -> Expr:
        return _make_minmax(Max, operands)


def _linear_bounds_assuming_positive(expr: Expr):
    """(lower, upper) bounds of ``expr`` assuming every symbol is an integer >= 1.

    Returns ``None`` for a bound that cannot be established.  Only linear
    combinations of symbols are analyzed.
    """
    terms = expr.args if isinstance(expr, Add) else (expr,)
    lower: Number | None = 0
    upper: Number | None = 0
    for term in terms:
        value = _const_value(term)
        if value is not None:
            lower = None if lower is None else lower + value
            upper = None if upper is None else upper + value
            continue
        coefficient, base = _split_coefficient(term)
        if not isinstance(base, Symbol):
            return None, None
        if coefficient > 0:
            lower = None if lower is None else lower + coefficient  # symbol >= 1
            upper = None  # unbounded above
        elif coefficient < 0:
            lower = None  # unbounded below
            upper = None if upper is None else upper + coefficient
    return lower, upper


def _provably_ge(a: Expr, b: Expr) -> bool:
    """Whether ``a >= b`` holds for all positive integer symbol values."""
    lower, _ = _linear_bounds_assuming_positive(Add.make(a, Mul.make(_NEG_ONE, b)))
    return lower is not None and lower >= 0


def _make_minmax(cls, operands: Iterable[ExprLike]) -> Expr:
    flat: list[Expr] = []
    constants: list[Number] = []
    for operand in operands:
        expr = sympify(operand)
        if isinstance(expr, cls):
            flat.extend(expr.args)
        else:
            flat.append(expr)
    unique: Dict[tuple, Expr] = {}
    symbolic: list[Expr] = []
    for expr in flat:
        value = _const_value(expr)
        if value is not None:
            constants.append(value)
            continue
        if expr.key() not in unique:
            unique[expr.key()] = expr
            symbolic.append(expr)
    args: list[Expr] = list(symbolic)
    if constants:
        args.append(_number_to_expr(cls._fold(constants)))
    if not args:
        raise SymbolicError("Min/Max requires at least one operand")
    # Prune arguments dominated under the positive-symbol assumption
    # (array sizes / trip counts are >= 1), e.g. Min(N - 1, 0) -> 0.
    if len(args) > 1:
        kept: list[Expr] = []
        for candidate in args:
            dominated = False
            for other in args:
                if other is candidate:
                    continue
                if cls is Min and _provably_ge(candidate, other):
                    dominated = True
                    break
                if cls is Max and _provably_ge(other, candidate):
                    dominated = True
                    break
            if not dominated:
                kept.append(candidate)
        if kept:
            args = kept
    if len(args) == 1:
        return args[0]
    return cls(args)


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------


class BoolExpr(Expr):
    """Base class for boolean-valued symbolic expressions."""

    __slots__ = ()


class BoolConst(BoolExpr):
    """Boolean constant ``true`` / ``false`` (two interned instances)."""

    __slots__ = ("value",)
    __init__ = object.__init__  # ``__new__`` builds, or finds, the instance

    _interned: Dict[bool, "BoolConst"] = {}

    def __new__(cls, value: bool):
        value = bool(value)
        if cls is BoolConst:
            self = BoolConst._interned.get(value)
            if self is not None:
                PERF.increment("symbolic.intern.hits")
                return self
        PERF.increment("symbolic.intern.misses")
        self = object.__new__(cls)
        self.value = value
        if cls is BoolConst:
            BoolConst._interned[value] = self
        return self

    def _compute_key(self) -> tuple:
        return ("bool", self.value)

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return self.value


TRUE = BoolConst(True)
FALSE = BoolConst(False)

_COMPARE_FOLD = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Compare(BoolExpr):
    """Binary comparison between two arithmetic expressions."""

    __slots__ = ("op", "lhs", "rhs")
    _operands = ("lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in _COMPARE_FOLD:
            raise SymbolicError(f"Unknown comparison operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @staticmethod
    def make(op: str, lhs: ExprLike, rhs: ExprLike) -> BoolExpr:
        lhs = sympify(lhs)
        rhs = sympify(rhs)
        lval = _const_value(lhs)
        rval = _const_value(rhs)
        if lval is not None and rval is not None:
            return BoolConst(_COMPARE_FOLD[op](lval, rval))
        # Structural: x == x, x <= x, x >= x are trivially true; x < x false.
        if lhs.key() == rhs.key():
            if op in ("==", "<=", ">="):
                return TRUE
            if op in ("!=", "<", ">"):
                return FALSE
        # Normalize to a comparison against zero difference where possible.
        diff = Add.make(lhs, Mul.make(_NEG_ONE, rhs))
        dval = _const_value(diff)
        if dval is not None:
            return BoolConst(_COMPARE_FOLD[op](dval, 0))
        return Compare(op, lhs, rhs)

    # ``op`` is not an operand: the three walks that must carry it.
    def _compute_key(self) -> tuple:
        return ("cmp", self.op, self.lhs.key(), self.rhs.key())

    def _subs_impl(self, mapping: Dict[str, Expr]) -> Expr:
        return Compare.make(self.op, self.lhs._subs(mapping), self.rhs._subs(mapping))

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        return _COMPARE_FOLD[self.op](self.lhs.evaluate(env), self.rhs.evaluate(env))


def _make_andor(cls, absorbing: bool, operands: Iterable[ExprLike]) -> BoolExpr:
    """``And`` (absorbed by ``False``) or ``Or`` (by ``True``) of ``operands``, flattened."""
    flat: list[BoolExpr] = []
    for operand in operands:
        expr = sympify(operand)
        if isinstance(expr, cls):
            flat.extend(expr.args)
        elif isinstance(expr, BoolConst):
            if expr.value is absorbing:
                return expr
        else:
            flat.append(expr)
    if not flat:
        return FALSE if absorbing else TRUE
    if len(flat) == 1:
        return flat[0]
    return cls(flat)


class And(BoolExpr):
    """Logical conjunction."""

    __slots__ = ("args",)
    _tag = "and"
    _nary = True
    _fold = all  # stops at the first false operand

    @staticmethod
    def make(*operands: ExprLike) -> BoolExpr:
        return _make_andor(And, False, operands)


class Or(BoolExpr):
    """Logical disjunction."""

    __slots__ = ("args",)
    _tag = "or"
    _nary = True
    _fold = any  # stops at the first true operand

    @staticmethod
    def make(*operands: ExprLike) -> BoolExpr:
        return _make_andor(Or, True, operands)


class Not(BoolExpr):
    """Logical negation."""

    __slots__ = ("arg",)
    _tag = "not"
    _operands = ("arg",)
    _fold = operator.not_

    @staticmethod
    def make(operand: ExprLike) -> BoolExpr:
        expr = sympify(operand)
        if isinstance(expr, BoolConst):
            return BoolConst(not expr.value)
        if isinstance(expr, Not):
            return expr.arg
        if isinstance(expr, Compare):
            negated = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
            return Compare.make(negated[expr.op], expr.lhs, expr.rhs)
        return Not(expr)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _number_to_expr(value: Number, prefer_float: bool = False) -> Expr:
    if isinstance(value, bool):
        return BoolConst(value)
    if isinstance(value, int) and not prefer_float:
        return Integer(value)
    if isinstance(value, float) and value.is_integer() and not prefer_float:
        return Integer(int(value))
    return Float(float(value))


def _split_coefficient(term: Expr) -> tuple:
    """Split ``term`` into (numeric coefficient, symbolic remainder)."""
    if isinstance(term, Mul):
        coeff: Number = 1
        rest: list[Expr] = []
        for factor in term.args:
            value = _const_value(factor)
            if value is not None:
                coeff *= value
            else:
                rest.append(factor)
        if not rest:
            return coeff, Integer(1)
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Mul(rest)
    return 1, term


#: Shared -1 constant used by negation/subtraction (hot construction path).
_NEG_ONE = Integer(-1)

# Last: the parser builds, and the printer's table is keyed by, the classes above.
from .parser import parse_expr  # noqa: E402
from .printer import PYTHON, render  # noqa: E402
