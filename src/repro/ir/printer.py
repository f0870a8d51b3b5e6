"""Textual printer for the MLIR-like IR.

Produces an MLIR-flavoured textual form, primarily for tests, examples and
debugging.  Operations print in a near-generic form::

    %2 = arith.addi %0, %1 : i32
    scf.for %i = %c0 to %c100 step %c1 {
      ...
    }

The printer assigns SSA names (``%0``, ``%1``, …) per top-level isolated
scope, honouring value name hints when present (``%arg0``, ``%alpha``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .core import Block, Operation, Region, Value
from .types import Type


class _NameScope:
    """Assigns unique textual names to SSA values."""

    def __init__(self):
        self.names: Dict[Value, str] = {}
        self.used: set = set()
        self.counter = 0

    def name(self, value: Value) -> str:
        if value in self.names:
            return self.names[value]
        hint = value.name_hint
        if hint:
            candidate = f"%{hint}"
            suffix = 0
            while candidate in self.used:
                suffix += 1
                candidate = f"%{hint}_{suffix}"
        else:
            candidate = f"%{self.counter}"
            while candidate in self.used:
                self.counter += 1
                candidate = f"%{self.counter}"
            self.counter += 1
        self.names[value] = candidate
        self.used.add(candidate)
        return candidate


def _format_attribute(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, Type):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_attribute(item) for item in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{key} = {_format_attribute(item)}" for key, item in value.items())
        return "{" + inner + "}"
    return str(value)


def _format_attributes(op: Operation, skip: tuple = ()) -> str:
    visible = {key: value for key, value in op.attributes.items() if key not in skip}
    if not visible:
        return ""
    inner = ", ".join(f"{key} = {_format_attribute(value)}" for key, value in visible.items())
    return " {" + inner + "}"


class IRPrinter:
    """Stateful printer; one instance per top-level print call."""

    def __init__(self, indent: str = "  "):
        self.indent_unit = indent
        self.lines: List[str] = []
        self.scope = _NameScope()

    # -- public API ------------------------------------------------------------
    def print(self, op: Operation) -> str:
        self._print_op(op, depth=0)
        return "\n".join(self.lines)

    # -- helpers ----------------------------------------------------------------
    def _emit(self, depth: int, text: str) -> None:
        self.lines.append(self.indent_unit * depth + text)

    def _value(self, value: Value) -> str:
        return self.scope.name(value)

    def _results_prefix(self, op: Operation) -> str:
        if not op.results:
            return ""
        names = ", ".join(self._value(result) for result in op.results)
        return f"{names} = "

    def _operand_list(self, op: Operation) -> str:
        return ", ".join(self._value(operand) for operand in op.operands)

    def _print_region(self, region: Region, depth: int) -> None:
        for block_index, block in enumerate(region.blocks):
            if block_index > 0 or block.arguments:
                args = ", ".join(
                    f"{self._value(arg)}: {arg.type}" for arg in block.arguments
                )
                label = f"^bb{block_index}" + (f"({args})" if args else "")
                self._emit(depth, label + ":")
            for op in block.operations:
                self._print_op(op, depth + 1 if (block_index > 0 or block.arguments) else depth + 1)

    # -- op printing -------------------------------------------------------------
    def _print_op(self, op: Operation, depth: int) -> None:
        custom = getattr(op, "print_custom", None)
        if custom is not None:
            text = custom(self, depth)
            if text is not None:
                return
        self._print_generic(op, depth)

    def _print_generic(self, op: Operation, depth: int) -> None:
        head = self._results_prefix(op) + op.name
        operands = self._operand_list(op)
        if operands:
            head += f" {operands}"
        head += _format_attributes(op)
        if op.results:
            types = ", ".join(str(result.type) for result in op.results)
            head += f" : {types}"
        elif op.operands:
            types = ", ".join(str(operand.type) for operand in op.operands)
            head += f" : {types}"
        if op.regions and any(region.blocks for region in op.regions):
            head += " {"
            self._emit(depth, head)
            for index, region in enumerate(op.regions):
                if index > 0:
                    self._emit(depth, "} {")
                self._print_region(region, depth)
            self._emit(depth, "}")
        else:
            self._emit(depth, head)


def print_operation(op: Operation) -> str:
    """Print a single operation (and its nested regions) to text."""
    return IRPrinter().print(op)


def print_module(module: Operation) -> str:
    """Print a module operation to text (alias of :func:`print_operation`)."""
    return print_operation(module)
