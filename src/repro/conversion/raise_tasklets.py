"""Raising MLIR tasklet bodies to Python tasklets (§5.2).

MLIR tasklets would otherwise be compiled as separate translation units
and only optimized via LTO; raising them to Python (DaCe-native) tasklets
inlines them during compilation and enables data-centric analyses.  The
raiser converts each operation in a tasklet body into an equivalent Python
expression, an operation's record (:mod:`repro.operators`) spelling it:
``arith.addi %a, %b`` → ``a + b``, ``math.exp`` → ``math.exp``,
``sdfg.sym_value`` → the symbolic expression, and ``sdfg.return`` →
assignments to the output connectors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dialects.sdfg_dialect import TaskletOp
from ..ir.core import Operation, Value
from ..operators import python_text, record_of


class RaiseError(Exception):
    """Raised when a tasklet body cannot be raised to Python."""


def _render_operand(value: Value, expressions: Dict[Value, str]) -> str:
    if value in expressions:
        return expressions[value]
    raise RaiseError("Tasklet body references a value with no rendered expression")


def raise_tasklet(tasklet: TaskletOp) -> Tuple[str, List[str], List[str], str]:
    """Raise a tasklet op to Python code.

    Returns ``(code, input_names, output_names, language)``.  Code-form
    tasklets pass through unchanged; MLIR-body tasklets are converted
    operation by operation.
    """
    if tasklet.code is not None:
        input_names = list(tasklet.get_attr("input_names", []))
        outputs = [f"_out{i}" if len(tasklet.results) > 1 else "_out"
                   for i in range(len(tasklet.results))]
        return tasklet.code, input_names, outputs, tasklet.get_attr("language", "python")

    expressions: Dict[Value, str] = {}
    input_names: List[str] = []
    for index, argument in enumerate(tasklet.body.arguments):
        name = argument.name_hint or f"_in{index}"
        expressions[argument] = name
        input_names.append(name)

    statements: List[str] = []
    output_names: List[str] = []
    for op in tasklet.body.operations:
        name = op.name
        if name == "sdfg.return":
            for position, operand in enumerate(op.operands):
                out_name = "_out" if len(op.operands) == 1 else f"_out{position}"
                statements.append(f"{out_name} = {_render_operand(operand, expressions)}")
                output_names.append(out_name)
            continue
        rendered = _render_op(op, expressions)
        if rendered is None:
            # Unknown operation inside the body: fall back to MLIR language.
            from ..ir.printer import print_operation

            return print_operation(tasklet), input_names, ["_out"], "mlir"
        expressions[op.results[0]] = rendered

    code = "\n".join(statements) if statements else "pass"
    return code, input_names, output_names, "python"


def _render_op(op: Operation, expressions: Dict[Value, str]) -> Optional[str]:
    name = op.name
    if name == "arith.constant":
        return repr(op.attributes["value"])
    if name == "sdfg.sym_value":
        return "(" + op.attributes["expr"] + ")"
    record = record_of(op)
    if record is not None:
        text = python_text(record, [_render_operand(operand, expressions)
                                    for operand in op.operands])
        return text if record.is_call else f"({text})"
    if name == "arith.select":
        condition = _render_operand(op.operand(0), expressions)
        true_value = _render_operand(op.operand(1), expressions)
        false_value = _render_operand(op.operand(2), expressions)
        return f"({true_value} if {condition} else {false_value})"
    if name in ("arith.sitofp", "arith.extf", "arith.truncf"):
        return f"float({_render_operand(op.operand(0), expressions)})"
    if name in ("arith.fptosi", "arith.index_cast", "arith.extsi", "arith.trunci"):
        return f"int({_render_operand(op.operand(0), expressions)})"
    return None
