"""Closed-form sums of polynomials over ranges: iteration counts of loop nests.

A loop nest whose bounds are affine in the loops around it (a triangular
``for j in range(0, i)``) runs a polynomial number of iterations.
:func:`summed` adds a polynomial up over one range in closed form
(Faulhaber's formulas), so the count of a whole nest is one call per loop,
whatever its trip counts: nothing is enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from typing import Dict, Optional, Tuple

from .expr import Add, Expr, Integer, Mul, Symbol
from .ranges import Range

#: A polynomial over symbol names: each monomial, a sorted tuple of ``(name,
#: power)`` pairs (``()`` for the constant term), to its nonzero coefficient.
Polynomial = Dict[Tuple[Tuple[str, int], ...], Fraction]

ONE: Polynomial = {(): Fraction(1)}

#: The summation variable of :func:`summed`: no symbol has an empty name.
_COUNTER = ""


def polynomial(expression: Expr) -> Optional[Polynomial]:
    """``expression`` as a :data:`Polynomial`; ``None`` unless it is built of
    integers and symbols by ``+`` and ``*`` alone."""
    if isinstance(expression, Integer):
        return {(): Fraction(expression.value)} if expression.value else {}
    if isinstance(expression, Symbol):
        return {((expression.name, 1),): Fraction(1)}
    if isinstance(expression, (Add, Mul)):
        terms = [polynomial(term) for term in expression.args]
        if None in terms:
            return None
        return reduce(plus if isinstance(expression, Add) else times, terms)
    return None


def plus(left: Polynomial, right: Polynomial) -> Polynomial:
    total = dict(left)
    for monomial, coefficient in right.items():
        total[monomial] = total.get(monomial, 0) + coefficient
    return {monomial: coefficient for monomial, coefficient in total.items() if coefficient}


def times(left: Polynomial, right: Polynomial) -> Polynomial:
    product: Polynomial = {}
    for first, a in left.items():
        for second, b in right.items():
            powers = dict(first)
            for name, power in second:
                powers[name] = powers.get(name, 0) + power
            monomial = tuple(sorted(powers.items()))
            product[monomial] = product.get(monomial, 0) + a * b
    return {monomial: coefficient for monomial, coefficient in product.items() if coefficient}


def _power(base: Polynomial, exponent: int) -> Polynomial:
    return reduce(times, [base] * exponent, ONE)


def _substituted(poly: Polynomial, name: str, value: Polynomial) -> Polynomial:
    """``poly`` with ``value`` for the symbol ``name``."""
    result: Polynomial = {}
    for monomial, coefficient in poly.items():
        powers = dict(monomial)
        exponent = powers.pop(name, 0)
        rest = {tuple(sorted(powers.items())): coefficient}
        result = plus(result, times(rest, _power(value, exponent)))
    return result


@lru_cache(maxsize=16)
def _power_sum(power: int) -> Tuple[Fraction, ...]:
    """Coefficients, constant first, of ``S(n) = Σ t**power`` over ``0 <= t < n``:
    from ``n**(p + 1) = Σ_{k <= p} C(p + 1, k) S_k(n)``."""
    coefficients = [Fraction(0)] * (power + 2)
    coefficients[power + 1] = Fraction(1)
    for lower in range(power):
        for degree, coefficient in enumerate(_power_sum(lower)):
            coefficients[degree] -= comb(power + 1, lower) * coefficient
    return tuple(coefficient / (power + 1) for coefficient in coefficients)


def summed(poly: Polynomial, name: str, rng: Range) -> Optional[Polynomial]:
    """``Σ poly`` over ``name`` in ``rng``, as a polynomial in the other
    symbols; ``None`` unless the bounds are polynomials and the step a
    positive literal.  A range that does not divide by its step counts
    ``(end - start) / step`` iterations, one that may be empty counts
    ``end - start``, negative or not: a count, not a proof."""
    start, end = polynomial(rng.start), polynomial(rng.end)
    if start is None or end is None or not isinstance(rng.step, Integer) or rng.step.value <= 0:
        return None
    step = Fraction(rng.step.value)
    # name = start + step * t for t in [0, trips), trips = (end - start) / step
    counter = {((_COUNTER, 1),): step}
    poly = _substituted(poly, name, plus(start, counter))
    trips = {monomial: coefficient / step
             for monomial, coefficient in plus(end, times(start, {(): Fraction(-1)})).items()}
    total: Polynomial = {}
    for monomial, coefficient in poly.items():
        powers = dict(monomial)
        exponent = powers.pop(_COUNTER, 0)
        rest = {tuple(sorted(powers.items())): coefficient}
        series = reduce(plus, (times({(): a}, _power(trips, degree))
                               for degree, a in enumerate(_power_sum(exponent)) if a), {})
        total = plus(total, times(rest, series))
    return total
