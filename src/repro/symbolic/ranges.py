"""Integer ranges and rectangular subsets for memlet analysis.

SDFG memlets (§2.2 of the paper) describe the *subset* of a data container
that moves along a dataflow edge, e.g. ``A[0:N, i]``.  The data-centric
passes rely on a small algebra over these subsets: number of elements,
coverage, intersection tests, bounding-box unions and offsetting.

Ranges are half-open (``start`` inclusive, ``end`` exclusive) with a
positive step; bounds may be symbolic expressions.  Queries that cannot be
decided symbolically return ``None`` ("unknown") rather than guessing.

Like expressions, ranges and subsets are immutable after construction;
they cache their structural key, hash, free-symbol set and element count
in slots, and ``subs`` returns ``self`` when the mapping touches none of
their free symbols.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .expr import Expr, Integer, Max, Min, Symbol, SymbolicError, sympify

RangeLike = Union["Range", tuple, int, Expr, str]

_ONE = Integer(1)


@lru_cache(maxsize=4096)  # the same few indices, asked about once per access
def affine_in(index: Expr, param: str, otherwise=None) -> Optional[Tuple[int, Expr]]:
    """``(a, b)`` such that ``index`` is ``a * param + b`` with a literal ``a``
    and ``b`` free of ``param``; ``otherwise`` for any other dependence."""
    offset = index.subs({param: 0})
    slope = index.subs({param: 1}) - offset
    if isinstance(slope, Integer) and slope * Symbol(param) + offset == index:
        return slope.value, offset
    return otherwise


def _innermost_first(bounds: Mapping[str, "Range"]) -> Optional[List[str]]:
    """The names of ``bounds``, each before every name its range mentions;
    ``None`` when ranges mention each other in a cycle."""
    order: List[str] = []
    done: Dict[str, bool] = {}  # False while a name's range is being visited

    def visit(name: str) -> bool:
        if name in done:
            return done[name]
        done[name] = False
        if not all(visit(symbol.name) for symbol in bounds[name].free_symbols()
                   if symbol.name in bounds):
            return False
        done[name] = True
        order.append(name)
        return True

    if not all(visit(name) for name in bounds):
        return None
    return order[::-1]


def upper_bound(expr: Expr, bounds: Mapping[str, "Range"]) -> Optional[int]:
    """The largest value ``expr`` takes while each symbol ``bounds`` names lies
    in its range, or ``None`` when that is not a literal.

    Each symbol is replaced by the end of its range that maximises what is
    left — its last element where ``expr`` grows with it, its first where
    it shrinks — innermost first, so a symbol whose range names another is
    gone before that one is: ``i + 1 - k`` over ``k`` in ``[i + 1, N)`` is
    at most ``0`` whatever ``i`` and ``N`` are.  Where that end is a
    ``Min`` (a growing ``expr``) or a ``Max`` (a shrinking one), any of its
    arguments bounds it, and the least bound found is the answer: a tile
    ``[p, min(p + 8, N))`` ends before ``p + 8``.  Each replaced symbol must
    appear affinely (:func:`affine_in`).  An empty range gives a bound no
    value reaches, which is sound: nothing runs with a value from it.
    """
    order = _innermost_first(bounds)
    return None if order is None else _upper_bound(expr, bounds, tuple(order))


def _upper_bound(expr: Expr, bounds: Mapping[str, "Range"],
                 order: Tuple[str, ...]) -> Optional[int]:
    for position, name in enumerate(order):
        if Symbol(name) not in expr.free_symbols():
            continue
        form = affine_in(expr, name)
        if form is None:
            return None
        slope, rest = form
        rng = bounds[name]
        if slope > 0:
            ends = [end - _ONE for end in
                    (rng.end.args if isinstance(rng.end, Min) else (rng.end,))]
        else:
            ends = rng.start.args if isinstance(rng.start, Max) else (rng.start,)
        found = [bound for end in ends
                 if (bound := _upper_bound(rest + slope * end, bounds, order[position + 1:]))
                 is not None]
        return min(found, default=None)
    return expr.value if isinstance(expr, Integer) else None


def _mapping_names(mapping: Mapping) -> set:
    """Substituted symbol names; keys may be strings or Symbol objects
    (the same forms :meth:`Expr.subs` accepts)."""
    return {key.name if isinstance(key, Symbol) else str(key) for key in mapping}


class Range:
    """A one-dimensional strided index range ``[start, end) : step``."""

    __slots__ = ("start", "end", "step", "_key", "_hash", "_free", "_num")

    def __init__(self, start, end, step=1):
        self.start = sympify(start)
        self.end = sympify(end)
        self.step = sympify(step)
        if isinstance(self.step, Integer) and self.step.value <= 0:
            raise SymbolicError(f"Range step must be positive, got {self.step}")

    # -- construction ---------------------------------------------------------
    @staticmethod
    def from_index(index) -> "Range":
        """Single-element range for a point access ``A[i]``."""
        index = sympify(index)
        return Range(index, index + 1, 1)

    @staticmethod
    def make(value: RangeLike) -> "Range":
        if isinstance(value, Range):
            return value
        if isinstance(value, tuple):
            if len(value) == 2:
                return Range(value[0], value[1])
            if len(value) == 3:
                return Range(value[0], value[1], value[2])
            raise SymbolicError(f"Cannot build a Range from tuple of length {len(value)}")
        return Range.from_index(value)

    # -- queries --------------------------------------------------------------
    def num_elements(self) -> Expr:
        """Number of iterations/elements covered (symbolic, computed once)."""
        try:
            return self._num
        except AttributeError:
            pass
        span = self.end - self.start
        if self.step == _ONE:
            result = span
        else:
            result = (span + self.step - _ONE) // self.step
        self._num = result
        return result

    def is_point(self) -> bool:
        return self.num_elements() == _ONE

    def is_empty(self) -> Optional[bool]:
        diff = self.end - self.start
        if diff.is_constant():
            return diff.as_int() <= 0
        return None

    def covers(self, other: "Range") -> Optional[bool]:
        """Whether this range covers ``other`` entirely (None if unknown)."""
        lower = self.start - other.start
        upper = other.end - self.end
        if lower.is_constant() and upper.is_constant():
            return lower.as_int() <= 0 and upper.as_int() <= 0
        # Structural: identical bounds always cover.
        if self.start == other.start and self.end == other.end:
            return True
        return None

    def intersects(self, other: "Range") -> Optional[bool]:
        """Whether the two ranges overlap (None if unknown)."""
        left = other.end - self.start
        right = self.end - other.start
        if left.is_constant() and right.is_constant():
            return left.as_int() > 0 and right.as_int() > 0
        if self.start == other.start and self.end == other.end:
            empty = self.is_empty()
            if empty is None:
                return True
            return not empty
        return None

    def disjoint(self, other: "Range", bounds: Mapping[str, "Range"]) -> bool:
        """Whether no index lies in both ranges, whatever values the symbols
        ``bounds`` names take in their ranges (:func:`upper_bound`): one
        range ends where the other starts or before.  ``False`` when that
        cannot be shown."""
        for low, high in ((self, other), (other, self)):
            top = upper_bound(low.end - high.start, bounds)
            if top is not None and top <= 0:
                return True
        return False

    def union(self, other: "Range") -> "Range":
        """Bounding-box union (may over-approximate; step normalizes to 1)."""
        if (self is other or self == other) and self.step == _ONE:
            return self
        return Range(Min.make(self.start, other.start), Max.make(self.end, other.end), 1)

    def offset(self, amount, negative: bool = False) -> "Range":
        amount = sympify(amount)
        if negative:
            amount = -amount
        return Range(self.start + amount, self.end + amount, self.step)

    def subs(self, mapping: Mapping[str, Expr]) -> "Range":
        if not mapping:
            return self
        names = _mapping_names(mapping)
        if not any(sym.name in names for sym in self.free_symbols()):
            return self
        return Range(self.start.subs(mapping), self.end.subs(mapping), self.step.subs(mapping))

    def free_symbols(self) -> frozenset:
        try:
            return self._free
        except AttributeError:
            free = self._free = (
                self.start.free_symbols() | self.end.free_symbols() | self.step.free_symbols()
            )
            return free

    def evaluate(self, env: Mapping[str, int] | None = None) -> range:
        """Concrete Python range (requires all symbols bound)."""
        return range(
            int(self.start.evaluate(env)),
            int(self.end.evaluate(env)),
            int(self.step.evaluate(env)),
        )

    # -- comparison / printing -------------------------------------------------
    def key(self) -> tuple:
        """Structural key used for equality and hashing (computed once)."""
        try:
            return self._key
        except AttributeError:
            key = self._key = (self.start.key(), self.end.key(), self.step.key())
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Range):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = self._hash = hash(self.key())
            return result

    def __str__(self) -> str:
        if self.is_point():
            return str(self.start)
        if self.step == _ONE:
            return f"{self.start}:{self.end}"
        return f"{self.start}:{self.end}:{self.step}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Range({self.start}, {self.end}, {self.step})"


class Subset:
    """A rectangular, multi-dimensional subset: one :class:`Range` per dimension."""

    __slots__ = ("ranges", "_key", "_hash", "_free", "_num")

    def __init__(self, ranges: Iterable[RangeLike]):
        self.ranges: List[Range] = [Range.make(r) for r in ranges]

    # -- construction ---------------------------------------------------------
    @staticmethod
    def from_indices(indices: Sequence) -> "Subset":
        """Point subset ``A[i, j, ...]``."""
        return Subset([Range.from_index(index) for index in indices])

    @staticmethod
    def full(shape: Sequence) -> "Subset":
        """The whole container ``A[0:d0, 0:d1, ...]``."""
        return Subset([Range(0, dim) for dim in shape])

    @staticmethod
    def parse(text: str) -> "Subset":
        """Parse a textual subset like ``"0:N, i, 2*j+1"``."""
        ranges: List[Range] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) == 1:
                ranges.append(Range.from_index(pieces[0]))
            elif len(pieces) == 2:
                ranges.append(Range(pieces[0], pieces[1]))
            elif len(pieces) == 3:
                ranges.append(Range(pieces[0], pieces[1], pieces[2]))
            else:
                raise SymbolicError(f"Malformed range {part!r}")
        if not ranges:
            raise SymbolicError(f"Empty subset string {text!r}")
        return Subset(ranges)

    # -- queries --------------------------------------------------------------
    @property
    def dims(self) -> int:
        return len(self.ranges)

    def num_elements(self) -> Expr:
        try:
            return self._num
        except AttributeError:
            pass
        total: Expr = _ONE
        for rng in self.ranges:
            total = total * rng.num_elements()
        self._num = total
        return total

    def is_point(self) -> bool:
        return all(rng.is_point() for rng in self.ranges)

    def indices(self) -> List[Expr]:
        """Point indices (only valid when :meth:`is_point` is true)."""
        if not self.is_point():
            raise SymbolicError(f"Subset {self} is not a single point")
        return [rng.start for rng in self.ranges]

    def covers(self, other: "Subset") -> Optional[bool]:
        if self.dims != other.dims:
            return None
        result: Optional[bool] = True
        for mine, theirs in zip(self.ranges, other.ranges):
            covered = mine.covers(theirs)
            if covered is False:
                return False
            if covered is None:
                result = None
        return result

    def intersects(self, other: "Subset") -> Optional[bool]:
        if self.dims != other.dims:
            return None
        result: Optional[bool] = True
        for mine, theirs in zip(self.ranges, other.ranges):
            overlap = mine.intersects(theirs)
            if overlap is False:
                return False
            if overlap is None:
                result = None
        return result

    def disjoint(self, other: "Subset", bounds: Mapping[str, Range]) -> bool:
        """Whether the subsets share no element: some dimension's ranges are
        :meth:`Range.disjoint` over ``bounds``."""
        return self.dims == other.dims and any(
            mine.disjoint(theirs, bounds) for mine, theirs in zip(self.ranges, other.ranges)
        )

    def union(self, other: "Subset") -> "Subset":
        if self.dims != other.dims:
            raise SymbolicError(
                f"Cannot union subsets of different dimensionality ({self.dims} vs {other.dims})"
            )
        if (self is other or self == other) and all(rng.step == _ONE for rng in self.ranges):
            return self
        return Subset([mine.union(theirs) for mine, theirs in zip(self.ranges, other.ranges)])

    def offset(self, amounts: Sequence, negative: bool = False) -> "Subset":
        if len(amounts) != self.dims:
            raise SymbolicError("Offset vector length must match subset dimensionality")
        return Subset(
            [rng.offset(amount, negative) for rng, amount in zip(self.ranges, amounts)]
        )

    def subs(self, mapping: Mapping[str, Expr]) -> "Subset":
        if not mapping:
            return self
        names = _mapping_names(mapping)
        if not any(sym.name in names for sym in self.free_symbols()):
            return self
        return Subset([rng.subs(mapping) for rng in self.ranges])

    def free_symbols(self) -> frozenset:
        try:
            return self._free
        except AttributeError:
            pass
        result: frozenset = frozenset()
        for rng in self.ranges:
            result |= rng.free_symbols()
        self._free = result
        return result

    def bounding_box_over(self, param: str, param_range: Range) -> "Subset":
        """Union of this subset over all values of ``param`` in ``param_range``.

        This is the core of memlet propagation through map scopes: the
        per-iteration subset (a function of the map parameter) becomes a
        parametric bounding box over the whole iteration range.
        """
        last = param_range.end - _ONE
        at_first = self.subs({param: param_range.start})
        at_last = self.subs({param: last})
        return at_first.union(at_last)

    def evaluate(self, env: Mapping[str, int] | None = None) -> tuple:
        """Concrete tuple of Python ranges."""
        return tuple(rng.evaluate(env) for rng in self.ranges)

    # -- comparison / printing -------------------------------------------------
    def key(self) -> tuple:
        """Structural key used for equality and hashing (computed once)."""
        try:
            return self._key
        except AttributeError:
            key = self._key = tuple(rng.key() for rng in self.ranges)
            return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Subset):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            result = self._hash = hash(self.key())
            return result

    def __str__(self) -> str:
        return ", ".join(str(rng) for rng in self.ranges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Subset([{self}])"
