"""``math`` dialect: transcendental functions emitted for C math calls.

Each op takes one (or two for ``math.powf``/``math.atan2``) floating-point
operands and produces a result of the same type.  What each one means, and
how every layer writes it, is its record in :mod:`repro.operators`.
"""

from __future__ import annotations

from ..ir.core import Operation, Value, register_operation
from ..ir.verifier import VerificationError


class UnaryMathOp(Operation):
    """Shared implementation of single-operand math ops."""

    @classmethod
    def build(cls, value: Value) -> "UnaryMathOp":
        return cls(cls.OP_NAME, operands=[value], result_types=[value.type])

    def verify_op(self) -> None:
        if len(self.operands) != 1:
            raise VerificationError(f"{self.name} requires exactly one operand", self)


class BinaryMathOp(Operation):
    """Shared implementation of two-operand math ops (pow, atan2)."""

    @classmethod
    def build(cls, lhs: Value, rhs: Value) -> "BinaryMathOp":
        return cls(cls.OP_NAME, operands=[lhs, rhs], result_types=[lhs.type])

    def verify_op(self) -> None:
        if len(self.operands) != 2:
            raise VerificationError(f"{self.name} requires exactly two operands", self)


def _unary(name: str) -> type:
    return register_operation(type(name.replace(".", "_"), (UnaryMathOp,), {"OP_NAME": name}))


def _binary(name: str) -> type:
    return register_operation(type(name.replace(".", "_"), (BinaryMathOp,), {"OP_NAME": name}))


ExpOp = _unary("math.exp")
LogOp = _unary("math.log")
Log2Op = _unary("math.log2")
SqrtOp = _unary("math.sqrt")
AbsFOp = _unary("math.absf")
SinOp = _unary("math.sin")
CosOp = _unary("math.cos")
TanhOp = _unary("math.tanh")
FloorOp = _unary("math.floor")
CeilOp = _unary("math.ceil")
PowFOp = _binary("math.powf")
Atan2Op = _binary("math.atan2")

