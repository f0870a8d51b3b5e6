"""Sign reasoning under the positive-size assumption.

The ``sdfg`` dialect's compile-time size verification (§3.1, Fig. 3b)
asks one question of two symbolic sizes: is their difference provably
nonzero when every free symbol is positive?
"""

from __future__ import annotations

from typing import Optional, Tuple

from .expr import Add, Expr, Integer, Mul, Symbol, sympify


def sign_assuming_positive(expr: Expr) -> Optional[int]:
    """Best-effort sign of ``expr`` assuming every free symbol is positive.

    Array dimensions and loop trip counts are positive quantities, which is
    the assumption DaCe's size verification makes (Fig. 3 of the paper:
    ``2*N`` vs ``N`` is flagged as a mismatch because their difference is
    positive for any positive ``N``).  Returns ``1``, ``-1``, ``0`` or
    ``None`` when the sign cannot be determined.
    """
    expr = sympify(expr)
    if expr.is_constant():
        value = expr.evaluate({})
        if value > 0:
            return 1
        if value < 0:
            return -1
        return 0
    terms = expr.args if isinstance(expr, Add) else (expr,)
    signs = set()
    for term in terms:
        coefficient, base = _term_coefficient(term)
        if coefficient is None:
            return None
        if coefficient > 0:
            signs.add(1)
        elif coefficient < 0:
            signs.add(-1)
    if signs == {1}:
        return 1
    if signs == {-1}:
        return -1
    return None


def definitely_nonzero(expr: Expr) -> bool:
    """Whether ``expr`` is provably nonzero assuming positive symbols."""
    sign = sign_assuming_positive(expr)
    return sign is not None and sign != 0


def _term_coefficient(term: Expr) -> Tuple[Optional[float], Expr]:
    """Numeric coefficient of a product term, or (None, term) if non-linear."""
    if isinstance(term, Integer):
        return term.value, Integer(1)
    if term.is_constant():
        return term.evaluate({}), Integer(1)
    if isinstance(term, Symbol):
        return 1, term
    if isinstance(term, Mul):
        coefficient = 1.0
        for factor in term.args:
            if factor.is_constant():
                coefficient *= factor.evaluate({})
            elif not isinstance(factor, Symbol):
                return None, term
        return coefficient, term
    return None, term
