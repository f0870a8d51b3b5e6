"""``scf`` dialect: structured control flow (for, if, while).

Matches the dialect Polygeist emits for C control flow.  ``scf.for`` has a
positive step (the paper points out this limitation in §7.2, footnote 4 —
loops iterating by decrement lose their direction on the way through
Polygeist); the C frontend therefore normalizes downward-counting loops,
reproducing that semantic loss.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..ir.core import Block, Operation, Value, register_operation
from ..ir.types import Type
from ..ir.verifier import VerificationError


@register_operation
class YieldOp(Operation):
    """``scf.yield`` — terminator of scf region bodies."""

    OP_NAME = "scf.yield"
    IS_TERMINATOR = True

    @staticmethod
    def build(values: Sequence[Value] = ()) -> "YieldOp":
        return YieldOp(YieldOp.OP_NAME, operands=list(values))


@register_operation
class ConditionOp(Operation):
    """``scf.condition`` — terminator of the "before" region of scf.while."""

    OP_NAME = "scf.condition"
    IS_TERMINATOR = True

    @staticmethod
    def build(condition: Value, forwarded: Sequence[Value] = ()) -> "ConditionOp":
        return ConditionOp(ConditionOp.OP_NAME, operands=[condition, *forwarded])

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def forwarded(self) -> Sequence[Value]:
        return self.operands[1:]


@register_operation
class ForOp(Operation):
    """``scf.for`` — counted loop with optional loop-carried values.

    Operands: ``[lower_bound, upper_bound, step, *initial_iter_args]``.
    The body block receives ``[induction_variable, *iter_args]`` and must
    terminate with ``scf.yield`` of the next iteration's values.
    """

    OP_NAME = "scf.for"
    REQUIRES_TERMINATOR = True

    @staticmethod
    def build(
        lower_bound: Value,
        upper_bound: Value,
        step: Value,
        iter_args: Sequence[Value] = (),
        induction_name: Optional[str] = None,
    ) -> "ForOp":
        op = ForOp(
            ForOp.OP_NAME,
            operands=[lower_bound, upper_bound, step, *iter_args],
            result_types=[value.type for value in iter_args],
            regions=1,
        )
        block = op.regions[0].add_block([lower_bound.type] + [value.type for value in iter_args])
        block.arguments[0].name_hint = induction_name or "i"
        return op

    # -- accessors --------------------------------------------------------------
    @property
    def lower_bound(self) -> Value:
        return self.operand(0)

    @property
    def upper_bound(self) -> Value:
        return self.operand(1)

    @property
    def step(self) -> Value:
        return self.operand(2)

    @property
    def iter_args_init(self) -> Sequence[Value]:
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    @property
    def induction_variable(self) -> Value:
        return self.body.arguments[0]

    @property
    def iter_args(self) -> Sequence[Value]:
        return self.body.arguments[1:]

    def yield_op(self) -> Operation:
        terminator = self.body.terminator
        if terminator is None:
            raise VerificationError("scf.for body lacks a terminator", self)
        return terminator

    def verify_op(self) -> None:
        if len(self.operands) < 3:
            raise VerificationError("scf.for requires lower bound, upper bound and step", self)
        iter_count = len(self.operands) - 3
        if len(self.results) != iter_count:
            raise VerificationError(
                "scf.for result count must match the number of iteration arguments", self
            )
        if len(self.body.arguments) != iter_count + 1:
            raise VerificationError(
                "scf.for body must take the induction variable plus the iteration arguments",
                self,
            )

    def print_custom(self, printer, depth: int):
        results = ""
        if self.results:
            results = ", ".join(printer._value(result) for result in self.results) + " = "
        induction = printer._value(self.induction_variable)
        lower = printer._value(self.lower_bound)
        upper = printer._value(self.upper_bound)
        step = printer._value(self.step)
        iter_text = ""
        if self.iter_args_init:
            pairs = ", ".join(
                f"{printer._value(arg)} = {printer._value(init)}"
                for arg, init in zip(self.iter_args, self.iter_args_init)
            )
            iter_text = f" iter_args({pairs})"
        printer._emit(
            depth, f"{results}scf.for {induction} = {lower} to {upper} step {step}{iter_text} {{"
        )
        for op in self.body.operations:
            printer._print_op(op, depth + 1)
        printer._emit(depth, "}")
        return True


@register_operation
class IfOp(Operation):
    """``scf.if`` — two-armed conditional; both regions yield the results."""

    OP_NAME = "scf.if"
    REQUIRES_TERMINATOR = True

    @staticmethod
    def build(
        condition: Value, result_types: Sequence[Type] = (), with_else: bool = True
    ) -> "IfOp":
        op = IfOp(
            IfOp.OP_NAME,
            operands=[condition],
            result_types=list(result_types),
            regions=2 if with_else else 1,
        )
        for region in op.regions:
            region.add_block()
        return op

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def then_block(self) -> Block:
        return self.regions[0].entry_block

    @property
    def else_block(self) -> Optional[Block]:
        if len(self.regions) > 1 and self.regions[1].blocks:
            return self.regions[1].entry_block
        return None

    def verify_op(self) -> None:
        if len(self.operands) != 1:
            raise VerificationError("scf.if takes exactly one condition operand", self)
        if self.results and self.else_block is None:
            raise VerificationError("scf.if with results requires an else region", self)

    def print_custom(self, printer, depth: int):
        results = ""
        if self.results:
            results = ", ".join(printer._value(result) for result in self.results) + " = "
        printer._emit(depth, f"{results}scf.if {printer._value(self.condition)} {{")
        for op in self.then_block.operations:
            printer._print_op(op, depth + 1)
        else_block = self.else_block
        if else_block is not None and else_block.operations:
            printer._emit(depth, "} else {")
            for op in else_block.operations:
                printer._print_op(op, depth + 1)
        printer._emit(depth, "}")
        return True


@register_operation
class WhileOp(Operation):
    """``scf.while`` — general loop with a condition ("before") region and a
    body ("after") region."""

    OP_NAME = "scf.while"
    REQUIRES_TERMINATOR = True

    @staticmethod
    def build(initial_values: Sequence[Value] = ()) -> "WhileOp":
        types: List[Type] = [value.type for value in initial_values]
        op = WhileOp(
            WhileOp.OP_NAME,
            operands=list(initial_values),
            result_types=types,
            regions=2,
        )
        op.regions[0].add_block(types)
        op.regions[1].add_block(types)
        return op

    @property
    def before_block(self) -> Block:
        return self.regions[0].entry_block

    @property
    def after_block(self) -> Block:
        return self.regions[1].entry_block

    def verify_op(self) -> None:
        before_terminator = self.before_block.terminator
        if before_terminator is None or before_terminator.name != ConditionOp.OP_NAME:
            raise VerificationError(
                "scf.while 'before' region must terminate with scf.condition", self
            )
