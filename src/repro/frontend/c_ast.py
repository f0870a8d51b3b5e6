"""Abstract syntax tree for the C subset.

The node set covers the Polybench kernels and the paper's case-study
snippets: functions, scalar and array declarations (including ``malloc``),
``for``/``while``/``if`` statements, assignments (plain and compound),
array subscripts, calls to math functions, and the usual expression forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CType:
    """A C type: a base type plus pointer depth (``double*`` → depth 1)."""

    base: str  # 'int', 'long', 'float', 'double', 'void', 'char'
    pointer_depth: int = 0

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    @property
    def is_integer(self) -> bool:
        return self.base in ("int", "long", "char")

    def __str__(self) -> str:
        return self.base + "*" * self.pointer_depth


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""


@dataclass
class IntLiteral(Expression):
    value: int


@dataclass
class FloatLiteral(Expression):
    value: float


@dataclass
class Identifier(Expression):
    name: str


@dataclass
class BinaryOp(Expression):
    op: str  # '+', '-', '*', '/', '%', '<', '<=', '>', '>=', '==', '!=', '&&', '||'
    lhs: Expression
    rhs: Expression


@dataclass
class UnaryOp(Expression):
    op: str  # '-', '!', '+'
    operand: Expression


@dataclass
class Assignment(Expression):
    """``target op= value`` where op is '' for plain assignment."""

    op: str  # '', '+', '-', '*', '/'
    target: Expression  # Identifier or Subscript
    value: Expression


@dataclass
class IncDec(Expression):
    """``x++`` / ``x--`` / ``++x`` / ``--x`` (used as a statement)."""

    op: str  # '++' or '--'
    target: Expression
    prefix: bool = False


@dataclass
class Subscript(Expression):
    """Array access ``base[index]`` (nested for multi-dimensional access)."""

    base: Expression
    index: Expression


@dataclass
class Call(Expression):
    name: str
    arguments: List[Expression] = field(default_factory=list)


@dataclass
class Cast(Expression):
    ctype: CType
    operand: Expression


@dataclass
class Ternary(Expression):
    condition: Expression
    then_value: Expression
    else_value: Expression


@dataclass
class SizeOf(Expression):
    ctype: CType


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for statement nodes."""


@dataclass
class Compound(Statement):
    statements: List[Statement] = field(default_factory=list)


@dataclass
class VarDecl(Statement):
    """``double A[10][20];`` / ``int i = 0;`` / ``int *A = malloc(...);``"""

    name: str
    ctype: CType
    array_dims: List[Expression] = field(default_factory=list)
    init: Optional[Expression] = None


@dataclass
class ExpressionStatement(Statement):
    expression: Expression


@dataclass
class For(Statement):
    init: Optional[Statement]  # VarDecl or ExpressionStatement
    condition: Optional[Expression]
    post: Optional[Expression]
    body: Statement


@dataclass
class While(Statement):
    condition: Expression
    body: Statement


@dataclass
class If(Statement):
    condition: Expression
    then_body: Statement
    else_body: Optional[Statement] = None


@dataclass
class Return(Statement):
    value: Optional[Expression] = None


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class ParamDecl:
    """A function parameter; array parameters carry their dimensions."""

    name: str
    ctype: CType
    array_dims: List[Expression] = field(default_factory=list)


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    parameters: List[ParamDecl]
    body: Compound


@dataclass
class TranslationUnit:
    functions: List[FunctionDef] = field(default_factory=list)
    defines: dict = field(default_factory=dict)

    def function(self, name: str) -> FunctionDef:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"No function named {name!r}")
