"""One printer per language: :func:`render` and the ``PYTHON`` table.

A table maps every concrete node class to a function of the node and its
already-rendered operands; :func:`render` walks the tree bottom-up and
looks each node up.  The native backend keeps its table for C next to its
tasklet translator (:data:`repro.codegen.sdfg_c.C`); a class missing from
a table is an error, never a silent ``repr``.

``PYTHON`` is what ``str(expr)`` prints, and that text is three things at
once: the wire format of symbolic sizes and conditions in the ``sdfg``
dialect (:func:`~repro.symbolic.parser.parse_expr` reads it back), the
source the interpreted backend executes, and what diagnostics show.  So it
must mean what the tree means under Python's own grouping: an operand is
parenthesised when it binds looser than its operator, or as tightly on
the side the operator does not associate to (``N // (2 * M)``,
``(a ** b) ** c``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .expr import (
    Add,
    And,
    BoolConst,
    Compare,
    Div,
    Expr,
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
)

Table = Dict[type, Callable[[Expr, List[str]], str]]


def render(expr: Expr, table: Table, error: type = SymbolicError) -> str:
    """Spell ``expr`` in the language of ``table``; raises ``error`` for a class it lacks."""
    spell = table.get(type(expr))
    if spell is None:
        raise error(f"No spelling for a {type(expr).__name__} node in this language")
    return spell(expr, [render(child, table, error) for child in expr.children()])


#: How tightly Python's operators bind, loosest first.  Classes not listed
#: print as atoms (names, literals, calls) and never need parentheses.
_BINDS = {Or: 0, And: 0, Not: 0, Compare: 1, Add: 2, Mul: 3, Div: 3, FloorDiv: 3, Mod: 3, Pow: 4}


def _grouped(node: Expr, operands: List[str], tie_free: Optional[int] = 0) -> List[str]:
    """``operands`` with parentheses wherever Python would otherwise regroup them.

    That is around an operand that binds looser than ``node``, or as
    tightly — except at position ``tie_free``, the side the operator
    associates to (``None``: comparisons do not associate at all).
    """
    own = _BINDS[type(node)]
    grouped = []
    for position, (child, text) in enumerate(zip(node.children(), operands)):
        binds = _BINDS.get(type(child))
        if binds is not None and (binds < own or (binds == own and position != tie_free)):
            text = f"({text})"
        grouped.append(text)
    return grouped


def _sum(node: Add, operands: List[str]) -> str:
    text, *rest = _grouped(node, operands)
    for term, operand in zip(node.args[1:], rest):
        # A term led by a negative literal is written as a subtraction
        # (``N - 2 * M``).  Only then: ``N + -3 // M`` floors ``-3 / M``.
        lead = term.args[0] if isinstance(term, Mul) else term
        if isinstance(lead, (Integer, Float)) and operand.startswith("-"):
            text += f" - {operand[1:]}"
        else:
            text += f" + {operand}"
    return text


def _power(node: Pow, operands: List[str]) -> str:
    base, exponent = _grouped(node, operands, tie_free=1)
    # Unary minus binds looser than ``**`` on its left: ``-1 ** N`` is ``-(1 ** N)``.
    return f"({base}) ** {exponent}" if base.startswith("-") else f"{base} ** {exponent}"


PYTHON: Table = {
    Integer: lambda node, _: str(node.value),
    Float: lambda node, _: repr(node.value),
    Symbol: lambda node, _: node.name,
    BoolConst: lambda node, _: str(node.value),
    Add: _sum,
    Mul: lambda node, operands: " * ".join(_grouped(node, operands)),
    Div: lambda node, operands: " / ".join(_grouped(node, operands)),
    FloorDiv: lambda node, operands: " // ".join(_grouped(node, operands)),
    Mod: lambda node, operands: " % ".join(_grouped(node, operands)),
    Pow: _power,
    Min: lambda node, operands: f"min({', '.join(operands)})",
    Max: lambda node, operands: f"max({', '.join(operands)})",
    Compare: lambda node, operands: f" {node.op} ".join(_grouped(node, operands, tie_free=None)),
    And: lambda node, operands: " and ".join(f"({operand})" for operand in operands),
    Or: lambda node, operands: " or ".join(f"({operand})" for operand in operands),
    Not: lambda node, operands: f"not ({operands[0]})",
}
