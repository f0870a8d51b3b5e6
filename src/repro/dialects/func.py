"""``func`` dialect: functions, returns and calls."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.core import Block, Operation, Value, register_operation
from ..ir.types import FunctionType, Type
from ..ir.verifier import VerificationError


@register_operation
class FuncOp(Operation):
    """A function definition ``func.func @name(args) -> results``."""

    OP_NAME = "func.func"
    IS_ISOLATED_FROM_ABOVE = True
    REQUIRES_TERMINATOR = True

    @staticmethod
    def build(
        name: str,
        function_type: FunctionType,
        arg_names: Optional[Sequence[str]] = None,
    ) -> "FuncOp":
        op = FuncOp(FuncOp.OP_NAME, regions=1)
        op.attributes["sym_name"] = name
        op.attributes["function_type"] = function_type
        block = op.regions[0].add_block(function_type.inputs)
        if arg_names:
            for argument, hint in zip(block.arguments, arg_names):
                argument.name_hint = hint
        else:
            for index, argument in enumerate(block.arguments):
                argument.name_hint = f"arg{index}"
        return op

    # -- accessors --------------------------------------------------------------
    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"]

    @property
    def function_type(self) -> FunctionType:
        return self.attributes["function_type"]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def verify_op(self) -> None:
        if not self.regions[0].blocks:
            raise VerificationError("func.func must have a body", self)
        body = self.body
        if len(body.arguments) != len(self.function_type.inputs):
            raise VerificationError(
                "func.func entry block arguments do not match the function type", self
            )
        terminator = body.terminator
        if terminator is not None and terminator.name == ReturnOp.OP_NAME:
            if len(terminator.operands) != len(self.function_type.results):
                raise VerificationError(
                    "func.return operand count does not match the function result count", self
                )

    def print_custom(self, printer, depth: int):
        args = ", ".join(
            f"{printer._value(arg)}: {arg.type}" for arg in self.body.arguments
        )
        results = self.function_type.results
        result_text = ""
        if len(results) == 1:
            result_text = f" -> {results[0]}"
        elif len(results) > 1:
            result_text = " -> (" + ", ".join(str(t) for t in results) + ")"
        printer._emit(depth, f"func.func @{self.sym_name}({args}){result_text} {{")
        for op in self.body.operations:
            printer._print_op(op, depth + 1)
        printer._emit(depth, "}")
        return True


@register_operation
class ReturnOp(Operation):
    """Function terminator ``func.return``."""

    OP_NAME = "func.return"
    IS_TERMINATOR = True

    @staticmethod
    def build(values: Sequence[Value] = ()) -> "ReturnOp":
        return ReturnOp(ReturnOp.OP_NAME, operands=list(values))


@register_operation
class CallOp(Operation):
    """Direct call ``func.call @callee(args)``."""

    OP_NAME = "func.call"
    HAS_SIDE_EFFECTS = True  # conservative: the callee may write memory

    @staticmethod
    def build(callee: str, arguments: Sequence[Value], result_types: Sequence[Type]) -> "CallOp":
        op = CallOp(CallOp.OP_NAME, operands=list(arguments), result_types=list(result_types))
        op.attributes["callee"] = callee
        return op

    @property
    def callee(self) -> str:
        return self.attributes["callee"]
