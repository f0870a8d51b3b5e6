"""Structural reading of tasklet code.

The bridge raises every MLIR operation to a tasklet whose body is one
``_out = <expression>`` line (§5.2).  Everything that looks *inside* such
a body — tasklet fusion, update detection, the direct form of the code
generators, the vectorizability check — goes through
:func:`single_assignment`, which parses the line once and exposes the
expression as an :mod:`ast` tree plus the source offsets of its names.
Rewrites splice text at those offsets, so they are exact where a regular
expression over identifiers would also hit attribute names or substrings.
"""

from __future__ import annotations

import ast
from collections import ChainMap
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: Expression nodes that bind tighter than any operator: their text can
#: replace a name without parentheses.
_ATOMS = (ast.Name, ast.Constant, ast.Call, ast.Subscript, ast.Attribute)


class Assignment:
    """A tasklet body that is exactly one ``target = <expression>`` line.

    ``value`` is the expression's tree (shared through the parse cache:
    read it, never mutate it), ``text`` its source without enclosing
    parentheses, and ``names`` every identifier it loads, left to right,
    with the offsets into ``text`` that :meth:`substitute` splices at.
    """

    __slots__ = ("target", "value", "text", "names")

    def __init__(self, target: str, value: ast.expr, text: str,
                 names: Tuple[Tuple[str, int, int], ...]):
        self.target = target
        self.value = value
        self.text = text
        self.names = names

    def uses(self, name: str) -> int:
        """How many times the expression loads ``name``."""
        return sum(1 for used, _, _ in self.names if used == name)

    def substitute(self, replacements: Mapping[str, str]) -> str:
        """The expression text with each mapped name replaced, all at once.

        Replacement is simultaneous (``{a: b, b: a}`` swaps) and verbatim:
        see :meth:`operand` for the parenthesised form.
        """
        pieces = []
        position = 0
        for name, start, end in self.names:
            if name in replacements:
                pieces.append(self.text[position:start])
                pieces.append(replacements[name])
                position = end
        pieces.append(self.text[position:])
        return "".join(pieces)

    def operand_text(self, node: ast.expr) -> str:
        """Source text of one sub-expression of :attr:`value`, as an operand."""
        offset = self.value.col_offset
        return _as_operand(self.text[node.col_offset - offset:node.end_col_offset - offset], node)

    def operand(self, replacements: Mapping[str, str]) -> str:
        """:meth:`substitute`, ready to stand inside a larger expression."""
        return _as_operand(self.substitute(replacements), self.value)


def _as_operand(text: str, node: ast.expr) -> str:
    """``text`` (the source of ``node``), parenthesised unless ``node`` binds
    tighter than any operator."""
    return text if isinstance(node, _ATOMS) else f"({text})"


@lru_cache(maxsize=8192)
def single_assignment(code: str) -> Optional[Assignment]:
    """Read ``code`` as one ``name = <expression>`` line, or ``None``.

    ``None`` covers everything else a tasklet body can be: several
    statements, ``pass``, an augmented or tuple assignment, MLIR text, code
    that does not parse.  Results are cached by the code string — tasklet
    bodies repeat heavily across a compile and across compiles.
    """
    line = code.strip()
    if "\n" in line or not line.isascii():  # offsets below are per-line byte columns
        return None
    try:
        body = ast.parse(line).body
    except SyntaxError:
        return None
    if len(body) != 1 or not isinstance(body[0], ast.Assign):
        return None
    statement = body[0]
    if len(statement.targets) != 1 or not isinstance(statement.targets[0], ast.Name):
        return None
    value = statement.value
    offset = value.col_offset
    names = sorted(
        (node.col_offset - offset, node.end_col_offset - offset, node.id)
        for node in ast.walk(value)
        if isinstance(node, ast.Name)
    )
    return Assignment(
        target=statement.targets[0].id,
        value=value,
        text=line[offset:value.end_col_offset],
        names=tuple((name, start, end) for start, end, name in names),
    )


#: ``math`` functions the backends evaluate in double precision.
_FLOAT_MATH = frozenset(
    {"sqrt", "exp", "log", "log2", "sin", "cos", "tanh", "fabs", "atan2", "pow"}
)

_FLOATS = ("float64", "float32")


def _promote(*dtypes: Optional[str]) -> Optional[str]:
    if None in dtypes:
        return None
    return next((dtype for dtype in _FLOATS if dtype in dtypes), "int64")


def typed_operands(node: ast.expr) -> Sequence[ast.expr]:
    """The sub-expressions whose types decide the type of ``node``."""
    if isinstance(node, ast.BinOp):
        return node.left, node.right
    if isinstance(node, ast.UnaryOp):
        return (node.operand,)
    if isinstance(node, ast.IfExp):
        return node.body, node.orelse
    if isinstance(node, ast.Call):
        return node.args
    return ()


def node_dtype(node: ast.expr, operands: Sequence[Optional[str]],
               names: Mapping[str, str]) -> Optional[str]:
    """Element type of ``node`` given those of its :func:`typed_operands`.

    The one typing table of tasklet expressions: the native backend
    declares its temporaries and picks its integer or floating helpers by
    it, and tasklet fusion decides by it whether a store converts.
    ``names`` types the identifiers (connectors, symbols, constants);
    ``None`` is "unknown".  Arithmetic promotes to ``float64`` / ``float32``
    / ``int64``; true division, ``**``, ``math`` functions and any ``%`` or
    ``//`` with a floating operand are evaluated in ``float64``; tests are
    ``bool``.
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return "bool"
        if isinstance(node.value, int):
            return "int64"
        return "float64" if isinstance(node.value, float) else None
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return "bool"
    if isinstance(node, ast.UnaryOp):
        return "bool" if isinstance(node.op, ast.Not) else _promote(*operands)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Div, ast.Pow)):
            return "float64"
        promoted = _promote(*operands)
        if isinstance(node.op, (ast.Mod, ast.FloorDiv)) and promoted in _FLOATS:
            return "float64"
        return promoted
    if isinstance(node, ast.IfExp):
        return _promote(*operands)
    if isinstance(node, ast.Call) and operands:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _FLOAT_MATH:
                return "float64"
            return "int64" if func.attr in ("floor", "ceil") else None
        if isinstance(func, ast.Name):
            if func.id in ("float", "int", "bool"):
                return {"float": "float64", "int": "int64", "bool": "bool"}[func.id]
            if func.id in ("abs", "min", "max"):
                promoted = _promote("int64", *operands)
                return "float64" if promoted == "float32" else promoted
    return None


def result_dtype(node: ast.expr, names: Mapping[str, str]) -> Optional[str]:
    """Element type an expression evaluates to, or ``None`` when unknown."""
    return node_dtype(
        node, [result_dtype(operand, names) for operand in typed_operands(node)], names
    )


def name_dtypes(symbols: Mapping[str, str], constants: Mapping[str, object]) -> Dict[str, str]:
    """Types of the identifiers tasklet code may load besides its connectors:
    an SDFG's symbols and its constants."""
    names = dict(symbols)
    for name, value in constants.items():
        names[name] = "float64" if isinstance(value, float) else "int64"
    return names


def assignment_dtype(assignment: Assignment, reads, arrays: Mapping[str, object],
                     names: Mapping[str, str]) -> Optional[str]:
    """Element type ``assignment`` evaluates to in a tasklet whose in-edges are ``reads``.

    A connector has the element type of the container its memlet names;
    ``names`` (:func:`name_dtypes`) types everything else.  A connector fed
    by a value edge or an empty read is untyped, and then so is the result.
    """
    connectors: Dict[str, str] = {}
    for edge in reads:
        if edge.dst_conn is None:
            continue
        descriptor = None if edge.data.is_empty else arrays.get(edge.data.data)
        if descriptor is None:
            return None
        connectors[edge.dst_conn] = descriptor.dtype
    return result_dtype(assignment.value, ChainMap(connectors, names))
