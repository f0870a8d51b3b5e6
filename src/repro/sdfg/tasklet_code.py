"""Structural reading of tasklet code.

The bridge raises every MLIR operation to a tasklet whose body is a flat
sequence of ``name = <expression>`` lines (§5.2).  :func:`statements` parses
a body once into its statements — :mod:`ast` trees plus the source offsets
of every name — for all readers: ``Tasklet.free_symbols`` (so the symbols a
state and an SDFG use), map fusion's rename, the ``vectorize`` flag's
check, the native bound form, and through :func:`single_assignment` tasklet
fusion, update detection, both direct forms and the array form.  Rewrites
splice text at those offsets, so they are exact where a regular expression
over identifiers would also hit attribute names or substrings.  Expressions
are typed by one table (:func:`node_dtype`) and spelled by one walker
(:func:`spell`) over one table per language.
"""

from __future__ import annotations

import ast
from collections import ChainMap
from functools import lru_cache
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..operators import CALLS

#: Expression nodes that bind tighter than any operator: their text can
#: replace a name without parentheses.
_ATOMS = (ast.Name, ast.Constant, ast.Call, ast.Subscript, ast.Attribute)


class Assignment(NamedTuple):
    """One ``target = <expression>`` statement of a tasklet body.

    ``target`` is the assigned name (``None`` for a store through a
    subscript), ``value`` the expression's tree (shared through the parse
    cache: read it, never mutate it), ``text`` its source without enclosing
    parentheses, at offset ``start`` of the body.  ``names`` (loaded by the
    expression) and ``target_names`` are identifiers with the body offsets
    that :meth:`substitute` and :func:`renamed` splice at, left to right.
    """

    target: Optional[str]
    value: ast.expr
    text: str
    names: Tuple[Tuple[str, int, int], ...]
    start: int
    target_names: Tuple[Tuple[str, int, int], ...]

    def uses(self, name: str) -> int:
        """How many times the expression loads ``name``."""
        return sum(1 for used, _, _ in self.names if used == name)

    def substitute(self, replacements: Mapping[str, str]) -> str:
        """The expression text with each mapped name replaced, all at once.

        Replacement is simultaneous (``{a: b, b: a}`` swaps) and verbatim:
        see :meth:`operand` for the parenthesised form.
        """
        return _splice(self.text, self.names, replacements, self.start)

    def operand_text(self, node: ast.expr) -> str:
        """Source text of one sub-expression of :attr:`value`, as an operand."""
        offset = self.value.col_offset
        return as_operand(self.text[node.col_offset - offset:node.end_col_offset - offset], node)

    def operand(self, replacements: Mapping[str, str]) -> str:
        """:meth:`substitute`, ready to stand inside a larger expression."""
        return as_operand(self.substitute(replacements), self.value)


def as_operand(text: str, node: ast.expr) -> str:
    """``text`` (the source of ``node``), parenthesised unless ``node`` binds
    tighter than any operator."""
    return text if isinstance(node, _ATOMS) else f"({text})"


def _splice(text: str, names, replacements: Mapping[str, str], base: int = 0) -> str:
    pieces, position = [], 0
    for name, start, end in names:
        if name in replacements:
            pieces += (text[position:start - base], replacements[name])
            position = end - base
    return "".join(pieces) + text[position:]


def _loaded(node: ast.AST, offset: int) -> Tuple[Tuple[str, int, int], ...]:
    """The identifiers ``node`` loads as values — not a call's function or an
    attribute's module — left to right, at ``offset`` plus their column."""
    skipped = {id(child.func if isinstance(child, ast.Call) else child.value)
               for child in ast.walk(node) if isinstance(child, (ast.Call, ast.Attribute))}
    return tuple(sorted(
        ((child.id, offset + child.col_offset, offset + child.end_col_offset)
         for child in ast.walk(node) if isinstance(child, ast.Name) and id(child) not in skipped),
        key=lambda name: name[1],
    ))


@lru_cache(maxsize=8192)
def statements(code: str) -> Optional[Tuple[Assignment, ...]]:
    """Read a tasklet body as its ``target = <expression>`` lines, or ``None``
    for anything else: MLIR text, any other statement (``pass``, augmented,
    chained or tuple assignments), one that is not one line.  Cached by the
    code string — bodies repeat heavily across a compile and across compiles.
    """
    read, offset = [], 0
    for line in code.strip().split("\n"):
        if not line.isascii():  # offsets below are byte columns
            return None
        try:
            (statement,) = ast.parse(line).body
        except (SyntaxError, ValueError):  # not Python, or not one statement
            return None
        if not isinstance(statement, ast.Assign) or len(statement.targets) != 1 \
                or not isinstance(statement.targets[0], (ast.Name, ast.Subscript)):
            return None
        (target,), value = statement.targets, statement.value
        read.append(Assignment(
            getattr(target, "id", None), value, line[value.col_offset:value.end_col_offset],
            _loaded(value, offset), offset + value.col_offset, _loaded(target, offset),
        ))
        offset += len(line) + 1
    return tuple(read)


def single_assignment(code: str) -> Optional[Assignment]:
    """Read ``code`` as one ``name = <expression>`` line, or ``None``."""
    body = statements(code)
    return body[0] if body is not None and len(body) == 1 and body[0].target else None


def renamed(code: str, replacements: Mapping[str, str]) -> Optional[str]:
    """``code`` with each mapped identifier replaced wherever a statement loads
    or assigns it, all at once; ``None`` when :func:`statements` reads none."""
    body = statements(code)
    return None if body is None else _splice(code.strip(), [
        name for statement in body for name in statement.target_names + statement.names
    ], replacements)


_FLOATS = ("float64", "float32")


def _promote(*dtypes: Optional[str]) -> Optional[str]:
    if None in dtypes:
        return None
    return next((dtype for dtype in _FLOATS if dtype in dtypes), "int64")


def operands(node: ast.expr) -> Sequence[ast.expr]:
    """The sub-expressions of ``node``: an operator's operands, a conditional's
    two values and then its test, a call's arguments."""
    if isinstance(node, ast.BinOp):
        return node.left, node.right
    if isinstance(node, ast.UnaryOp):
        return (node.operand,)
    if isinstance(node, ast.IfExp):
        return node.body, node.orelse, node.test
    if isinstance(node, ast.Compare):
        return (node.left, *node.comparators)
    if isinstance(node, ast.BoolOp):
        return node.values
    if isinstance(node, ast.Call):
        return node.args
    return ()


def node_dtype(node: ast.expr, operands: Sequence[Optional[str]],
               names: Mapping[str, str]) -> Optional[str]:
    """Element type of ``node`` given those of its :func:`operands`.

    The one typing table of tasklet expressions: the native backend
    declares its temporaries and picks its integer or floating helpers by
    it, and tasklet fusion decides by it whether a store converts.
    ``names`` types the identifiers (connectors, symbols, constants);
    ``None`` is "unknown".  Arithmetic promotes to ``float64`` / ``float32``
    / ``int64``; true division, ``**`` and any ``%`` or ``//`` with a
    floating operand are evaluated in ``float64``, a call of an operation's
    record (:data:`~repro.operators.CALLS`) has its record's type; tests are
    ``bool``.
    """
    if isinstance(node, ast.Constant):
        return {bool: "bool", int: "int64", float: "float64"}.get(type(node.value))
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
        return _promote(*operands[:2])
    if isinstance(node, ast.Call) and operands:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            record = CALLS.get(f"{func.value.id}.{func.attr}")
            return None if record is None else record.dtype
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
        node, [result_dtype(operand, names) for operand in operands(node)], names
    )


#: The Python operator of each binary and comparison operator class.
OPERATORS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
    ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
    ast.RShift: ">>", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=",
}


class Refused(str):
    """In a spelling table: the name under which a language refuses a construct."""


class Unspelled(LookupError):
    """Raised by :func:`spell`; ``args`` are the :class:`Refused` name
    (``"expression"`` where the table has no row) and the construct's name."""


def construct(node: ast.expr):
    """The spelling-table key of ``node``: its operator's class, its call's
    function name, its constant's Python type, or its own class.  A chained
    comparison and a call with keywords have keys no table holds."""
    if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.BoolOp)):
        return type(node.op)
    if isinstance(node, ast.Compare):
        return type(node.ops[0]) if len(node.ops) == 1 else ast.Compare
    if isinstance(node, ast.Call):
        return ast.keyword if node.keywords else ast.unparse(node.func)
    return type(node.value) if isinstance(node, ast.Constant) else type(node)


def spell(node: ast.expr, table: Mapping, name: Callable[[str], Tuple[str, Optional[str]]],
          operand: Optional[Callable[[str, ast.expr], str]] = None) -> Tuple[str, Optional[str]]:
    """``(text, dtype)`` of ``node`` in the language of ``table``.

    ``name`` gives the ``(text, dtype)`` of an identifier; any other node is
    looked up by :func:`construct`.  A template row formats the spelled
    :func:`operands` (one ``{}`` each); a callable row gets the node, them
    and whether one is floating, and may decline with ``None``.  A
    :class:`Refused`, missing, declining or wrong-arity row raises
    :class:`Unspelled`.  ``operand`` turns a spelled operand of anything but
    a call into its operand text.  Types are :func:`node_dtype`'s.
    """
    if isinstance(node, ast.Name):
        return name(node.id)
    key, children = construct(node), operands(node)
    row, text = table.get(key), None
    if not isinstance(row, Refused) and (callable(row) or row and row.count("{}") == len(children)):
        spelled = [spell(child, table, name, operand) for child in children]
        texts = [operand(text, child) if operand and not isinstance(node, ast.Call) else text
                 for (text, _), child in zip(spelled, children)]
        dtypes = [dtype for _, dtype in spelled]
        text = row(node, texts, any(dtype in _FLOATS for dtype in dtypes)) if callable(row) \
            else row.format(*texts)
    if text is None:
        raise Unspelled(row if isinstance(row, Refused) else Refused("expression"),
                        getattr(key, "__name__", key))
    return text, node_dtype(node, dtypes, {})


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
