"""``arith`` dialect: constants, integer/float arithmetic, comparisons, casts.

The operation set mirrors the subset Polygeist emits for C programs.  All
binary operations share one implementation class parameterized by the op
name.  What each one means, and how every layer writes it, is its record in
:mod:`repro.operators`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..ir.core import Operation, Value, register_operation
from ..ir.types import F64, I1, IndexType, IntegerType, Type
from ..ir.verifier import VerificationError
from ..operators import OPERATIONS


@register_operation
class ConstantOp(Operation):
    """``arith.constant`` — integer, float or index literal."""

    OP_NAME = "arith.constant"

    @staticmethod
    def build(value: Union[int, float], type: Optional[Type] = None) -> "ConstantOp":
        if type is None:
            type = F64 if isinstance(value, float) else IntegerType(32)
        if isinstance(type, (IntegerType, IndexType)):
            value = int(value)
        else:
            value = float(value)
        op = ConstantOp(ConstantOp.OP_NAME, result_types=[type])
        op.attributes["value"] = value
        return op

    @property
    def value(self) -> Union[int, float]:
        return self.attributes["value"]

    def print_custom(self, printer, depth: int):
        name = printer._value(self.result)
        printer._emit(depth, f"{name} = arith.constant {self.value} : {self.result.type}")
        return True


class BinaryOp(Operation):
    """Shared implementation of two-operand, one-result arithmetic ops."""

    @classmethod
    def build(cls, lhs: Value, rhs: Value, result_type: Optional[Type] = None) -> "BinaryOp":
        result_type = result_type or lhs.type
        return cls(cls.OP_NAME, operands=[lhs, rhs], result_types=[result_type])

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def verify_op(self) -> None:
        if len(self.operands) != 2:
            raise VerificationError(f"{self.name} requires exactly two operands", self)
        if len(self.results) != 1:
            raise VerificationError(f"{self.name} requires exactly one result", self)


def _binary(name: str) -> type:
    return register_operation(type(name.replace(".", "_"), (BinaryOp,), {"OP_NAME": name}))


# Integer arithmetic
AddIOp = _binary("arith.addi")
SubIOp = _binary("arith.subi")
MulIOp = _binary("arith.muli")
DivSIOp = _binary("arith.divsi")
RemSIOp = _binary("arith.remsi")
AndIOp = _binary("arith.andi")
OrIOp = _binary("arith.ori")
XOrIOp = _binary("arith.xori")
ShLIOp = _binary("arith.shli")
ShRSIOp = _binary("arith.shrsi")

# Floating-point arithmetic
AddFOp = _binary("arith.addf")
SubFOp = _binary("arith.subf")
MulFOp = _binary("arith.mulf")
DivFOp = _binary("arith.divf")


@register_operation
class NegFOp(Operation):
    """``arith.negf`` — floating point negation."""

    OP_NAME = "arith.negf"

    @staticmethod
    def build(value: Value) -> "NegFOp":
        return NegFOp(NegFOp.OP_NAME, operands=[value], result_types=[value.type])


class CompareOp(Operation):
    """Shared implementation of comparisons producing an ``i1``: one
    predicate per record of :mod:`repro.operators`."""

    @classmethod
    def build(cls, predicate: str, lhs: Value, rhs: Value) -> "CompareOp":
        if (cls.OP_NAME, predicate) not in OPERATIONS:
            raise VerificationError(f"Unknown {cls.OP_NAME} predicate {predicate!r}")
        op = cls(cls.OP_NAME, operands=[lhs, rhs], result_types=[I1])
        op.attributes["predicate"] = predicate
        return op

    @property
    def predicate(self) -> str:
        return self.attributes["predicate"]


@register_operation
class CmpIOp(CompareOp):
    """``arith.cmpi`` — integer comparison."""

    OP_NAME = "arith.cmpi"


@register_operation
class CmpFOp(CompareOp):
    """``arith.cmpf`` — floating-point comparison."""

    OP_NAME = "arith.cmpf"


@register_operation
class SelectOp(Operation):
    """``arith.select`` — ternary selection based on an ``i1`` condition."""

    OP_NAME = "arith.select"

    @staticmethod
    def build(condition: Value, true_value: Value, false_value: Value) -> "SelectOp":
        return SelectOp(
            SelectOp.OP_NAME,
            operands=[condition, true_value, false_value],
            result_types=[true_value.type],
        )


class CastOp(Operation):
    """Shared implementation of one-operand type casts."""

    @classmethod
    def build(cls, value: Value, result_type: Type) -> "CastOp":
        return cls(cls.OP_NAME, operands=[value], result_types=[result_type])


def _cast(name: str) -> type:
    cls = type(name.replace(".", "_"), (CastOp,), {"OP_NAME": name})
    return register_operation(cls)


IndexCastOp = _cast("arith.index_cast")
SIToFPOp = _cast("arith.sitofp")
FPToSIOp = _cast("arith.fptosi")
ExtFOp = _cast("arith.extf")
TruncFOp = _cast("arith.truncf")
ExtSIOp = _cast("arith.extsi")
TruncIOp = _cast("arith.trunci")

#: Every cast, by op name.
CAST_OPS = frozenset(cls.OP_NAME for cls in (
    IndexCastOp, SIToFPOp, FPToSIOp, ExtFOp, TruncFOp, ExtSIOp, TruncIOp))
