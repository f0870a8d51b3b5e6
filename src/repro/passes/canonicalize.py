"""Canonicalization: constant folding and algebraic simplification.

Folds ``arith`` and ``math`` operations whose operands are constants by
what C computes (:mod:`repro.operators`) — except where C leaves the value
undefined, or it is ``inf`` or ``nan``, which no literal spells in every
language — applies the neutral and absorbing elements of integer operations
(``x + 0``, ``x * 1``, ``x * 0``; on floats none holds for every ``x``),
folds selects and casts of constants, and simplifies ``scf.if`` with a
constant condition by splicing the taken branch into the parent block.  This is the control-centric workhorse that both the GCC- and
MLIR-style baseline pipelines and DCIR share (§4 of the paper).
"""

from __future__ import annotations

import math
from typing import Optional, Union

from ..dialects import arith
from ..dialects.arith import ConstantOp
from ..ir.core import Builder, Operation, Value, defining_op
from ..ir.types import FloatType, IndexType, IntegerType
from ..operators import Operator, Undefined, record_of
from .pass_manager import Pass


def constant_value(value: Value) -> Optional[Union[int, float]]:
    """The Python constant behind an SSA value, if its defining op is a constant."""
    op = defining_op(value)
    if isinstance(op, ConstantOp):
        return op.value
    return None


def _make_constant(builder: Builder, value, type) -> Value:
    if isinstance(type, (IntegerType, IndexType)):
        value = int(value)
    else:
        value = float(value)
    return builder.create(ConstantOp, value, type).result


class Canonicalize(Pass):
    """Constant folding + algebraic identities + trivial scf.if folding."""

    NAME = "canonicalize"

    def run_on_module(self, module: Operation) -> bool:
        changed = False
        # Iterate locally to a fixed point: folding one op may enable more.
        for _ in range(64):
            if not self._run_once(module):
                break
            changed = True
        return changed

    # -- one sweep -------------------------------------------------------------
    def _run_once(self, module: Operation) -> bool:
        changed = False
        for op in list(module.walk(post_order=True)):
            if op.parent_block is None:
                continue  # already erased by a previous rewrite
            if self._fold_op(op):
                changed = True
        return changed

    def _fold_op(self, op: Operation) -> bool:
        record = record_of(op)
        if record is not None:
            return self._fold_record(op, record)
        name = op.name
        if name == arith.SelectOp.OP_NAME:
            return self._fold_select(op)
        if name in arith.CAST_OPS:
            return self._fold_cast(op)
        if name == "scf.if":
            return self._fold_if(op)
        return False

    # -- folds ------------------------------------------------------------------
    def _replace_with_constant(self, op: Operation, value) -> None:
        builder = Builder.before(op)
        constant = _make_constant(builder, value, op.result.type)
        op.result.replace_all_uses_with(constant)
        op.erase()

    def _fold_record(self, op: Operation, record: Operator) -> bool:
        values = [constant_value(operand) for operand in op.operands]
        if None not in values:
            try:
                result = record.reference(*values)
            except Undefined:
                return False  # keep what C leaves undefined
            if not math.isfinite(result):
                return False  # keep the op: ``inf`` and ``nan`` have no literal
            self._replace_with_constant(op, result)
            return True
        neutral, absorbing = record.identities
        sides = ((values[-1], 0), (values[0], 1)) if record.commutative else ((values[-1], 0),)
        for constant, other in sides:
            if constant is None:
                continue
            if constant == neutral:
                return self._replace_with_value(op, op.operand(other))
            if constant == absorbing:
                self._replace_with_constant(op, absorbing)
                return True
        return False

    def _replace_with_value(self, op: Operation, value: Value) -> bool:
        op.result.replace_all_uses_with(value)
        op.erase()
        return True

    def _fold_select(self, op: Operation) -> bool:
        condition = constant_value(op.operand(0))
        if condition is None:
            return False
        chosen = op.operand(1) if condition else op.operand(2)
        return self._replace_with_value(op, chosen)

    def _fold_cast(self, op: Operation) -> bool:
        value = constant_value(op.operand(0))
        if value is None:
            return False
        result_type = op.result.type
        if isinstance(result_type, (IntegerType, IndexType)):
            self._replace_with_constant(op, int(value))
        elif isinstance(result_type, FloatType):
            self._replace_with_constant(op, float(value))
        else:
            return False
        return True

    def _fold_if(self, op: Operation) -> bool:
        condition = constant_value(op.operand(0))
        if condition is None:
            return False
        from ..dialects.scf import IfOp

        assert isinstance(op, IfOp)
        taken = op.then_block if condition else op.else_block
        parent = op.parent_block
        if parent is None:
            return False
        if taken is None:
            # No else region: the whole op disappears (it cannot have results).
            if op.has_used_results():
                return False
            op.erase()
            return True
        # Splice the taken block's ops (except the terminator) before the if.
        yield_op = taken.terminator
        moved = [inner for inner in list(taken.operations) if inner is not yield_op]
        for inner in moved:
            taken.remove(inner)
            parent.insert_before(op, inner)
        if yield_op is not None:
            for result, operand in zip(op.results, yield_op.operands):
                result.replace_all_uses_with(operand)
        op.erase()
        return True
