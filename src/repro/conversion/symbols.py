"""Symbolic evaluation of MLIR SSA values during conversion (§3.1, §5.1).

The converter tracks, for every SSA value it can, an equivalent symbolic
expression over SDFG symbols: constants, loop induction variables (which
become symbols when structured control flow is lowered to the state
machine), and integer arithmetic over those.  Memlet subsets, loop bounds
and state-transition conditions are then parametric — which is exactly the
visibility data-centric optimizations require (§1).

Values that cannot be represented symbolically (loads from memory,
floating-point math) are routed through scalar data containers instead
and stay there: this evaluator is the only place §6.1's symbol inference
happens, so a data-dependent loop bound (``n = idx[0]``) remains a scalar
read on the interstate edge.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.core import Value, defining_op
from ..ir.types import IndexType, IntegerType
from ..operators import record_of
from ..symbolic import Expr, Float, Integer, Not

#: Casts between integer types: a value's expression is its operand's.
IDENTITY_CASTS = frozenset({"arith.index_cast", "arith.extsi", "arith.trunci"})


class SymbolicEvaluator:
    """Maps SSA values to symbolic expressions where possible."""

    def __init__(self):
        self._table: Dict[Value, Expr] = {}

    def bind(self, value: Value, expression: Expr) -> None:
        self._table[value] = expression

    def get(self, value: Value) -> Optional[Expr]:
        """The symbolic expression of ``value``, deriving it on demand."""
        if value in self._table:
            return self._table[value]
        expression = self._derive(value)
        if expression is not None:
            self._table[value] = expression
        return expression

    def all_symbolic(self, values) -> bool:
        return all(self.get(value) is not None for value in values)

    # -- derivation -------------------------------------------------------------
    def _derive(self, value: Value) -> Optional[Expr]:
        op = defining_op(value)
        if op is None:
            return None
        name = op.name
        if name == "arith.constant":
            constant = op.attributes["value"]
            if isinstance(value.type, (IntegerType, IndexType)):
                return Integer(int(constant))
            return Float(float(constant))
        if name in IDENTITY_CASTS:
            return self.get(op.operand(0))
        record = record_of(op)
        if record is not None and record.symbolic is not None:
            lhs = self.get(op.operand(0))
            rhs = self.get(op.operand(1))
            if lhs is None or rhs is None:
                return None
            if name in ("arith.divsi", "arith.remsi") and not (
                    rhs.is_constant() and rhs.evaluate({}) != 0) and not rhs.free_symbols():
                return None  # no symbolic division by a constant zero
            return record.symbolic(lhs, rhs)
        if name == "arith.xori":
            # i1 negation idiom: xor with constant 1.
            rhs_expr = self.get(op.operand(1))
            lhs_expr = self.get(op.operand(0))
            if rhs_expr == Integer(1) and lhs_expr is not None:
                return Not.make(lhs_expr)
            return None
        if name in ("arith.andi", "arith.ori"):
            lhs = self.get(op.operand(0))
            rhs = self.get(op.operand(1))
            if lhs is None or rhs is None:
                return None
            from ..symbolic import And, Or

            if isinstance(value.type, IntegerType) and value.type.width == 1:
                return And.make(lhs, rhs) if name == "arith.andi" else Or.make(lhs, rhs)
            return None
        return None
