"""MLIR → executable Python code generation (baseline pipelines).

The control-centric pipelines (``gcc``, ``clang``, ``mlir``) never convert
to the SDFG IR; they execute the MLIR functions directly through this code
generator.  Two switches model the difference between a native compiler on
the original C and the Polygeist→MLIR→LLVM path the paper compares against
(§7.2, observation 3):

* ``native_scalars`` — promote one-element memrefs (Polygeist's
  representation of C scalars) to plain Python variables, as a register
  allocator would; the ``mlir`` pipeline keeps them as memory.
* ``preallocate`` — hoist all allocations to function entry, as a compiler
  with whole-function scope does; the ``mlir`` pipeline allocates where the
  ``memref.alloc`` op appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dialects.func import FuncOp
from ..dialects.scf import ForOp, IfOp, WhileOp
from ..ir.core import Operation, Value, defining_op
from ..ir.types import DYNAMIC, FloatType, IndexType, IntegerType, MemRefType
from ..operators import Operator, python_call, python_text, record_of
from .loader import load_entry
from .writer import SourceWriter


class MLIRCodegenError(Exception):
    """Raised when an operation cannot be executed by the Python backend."""


_NUMPY_DTYPES = {
    "f64": "np.float64",
    "f32": "np.float32",
    "i64": "np.int64",
    "i32": "np.int32",
    "i1": "np.bool_",
    "index": "np.int64",
}


def _numpy_dtype(type_obj) -> str:
    return _NUMPY_DTYPES.get(str(type_obj), "np.float64")


def _literal_zero(value: Value) -> bool:
    """Whether ``value`` is an ``arith.constant`` zero (of either sign)."""
    op = defining_op(value)
    return op is not None and op.name == "arith.constant" and op.attributes["value"] == 0


class MLIRPythonGenerator:
    """Generates Python code for one MLIR function."""

    def __init__(self, func_op: FuncOp, native_scalars: bool = True, preallocate: bool = True):
        self.func_op = func_op
        self.native_scalars = native_scalars
        self.preallocate = preallocate
        self.writer = SourceWriter(braces=False, indent=1)  # the body of ``def run``
        self.names: Dict[Value, str] = {}
        self.scalar_cells: Dict[Value, str] = {}
        self._counter = 0
        self._prealloc_lines: List[str] = []

    # -- helpers --------------------------------------------------------------------
    def _name(self, value: Value) -> str:
        if value not in self.names:
            self.names[value] = f"v{self._counter}"
            self._counter += 1
        return self.names[value]

    def _is_scalar_cell(self, value: Value) -> bool:
        return self.native_scalars and isinstance(value.type, MemRefType) and \
            value.type.num_elements() == 1

    # -- entry ----------------------------------------------------------------------
    def generate(self) -> str:
        header = ["import math", "import numpy as np", "", "def run(**_args):"]
        writer = self.writer
        writer.emit("_alloc_count = 0")
        for argument in self.func_op.body.arguments:
            name = self._name(argument)
            arg_key = argument.name_hint or f"arg{argument.arg_index}"
            writer.emit(f"{name} = _args[{arg_key!r}]")
        self._emit_block(self.func_op.body)
        body_lines = writer.lines
        if self.preallocate and self._prealloc_lines:
            # Hoist allocations right after the argument bindings.
            arg_count = 1 + len(self.func_op.body.arguments)
            body_lines = body_lines[:arg_count] + self._prealloc_lines + body_lines[arg_count:]
        return "\n".join(header + body_lines) + "\n"

    # -- statements --------------------------------------------------------------------
    def _emit_block(self, block) -> None:
        for op in block.operations:
            self._emit_op(op)

    def _emit_op(self, op: Operation) -> None:
        writer = self.writer
        name = op.name
        if name == "arith.constant":
            writer.emit(f"{self._name(op.result)} = {op.attributes['value']!r}")
        elif (record := record_of(op)) is not None:
            writer.emit(f"{self._name(op.result)} = {self._record_text(op, record)}")
        elif name == "arith.select":
            writer.emit(
                f"{self._name(op.result)} = {self._name(op.operand(1))} if "
                f"{self._name(op.operand(0))} else {self._name(op.operand(2))}"
            )
        elif name in ("arith.index_cast", "arith.extsi", "arith.trunci", "arith.fptosi"):
            writer.emit(f"{self._name(op.result)} = int({self._name(op.operand(0))})")
        elif name in ("arith.sitofp", "arith.extf", "arith.truncf"):
            writer.emit(f"{self._name(op.result)} = float({self._name(op.operand(0))})")
        elif name in ("memref.alloc", "memref.alloca"):
            self._emit_alloc(op)
        elif name == "memref.load":
            self._emit_load(op)
        elif name == "memref.store":
            self._emit_store(op)
        elif name == "memref.copy":
            writer.emit(f"np.copyto({self._name(op.operand(1))}, {self._name(op.operand(0))})")
        elif name == "memref.dealloc":
            writer.emit("pass  # dealloc")
        elif name == "memref.dim":
            writer.emit(
                f"{self._name(op.result)} = {self._name(op.operand(0))}.shape"
                f"[{self._name(op.operand(1))}]"
            )
        elif name == "scf.for":
            self._emit_for(op)
        elif name == "scf.if":
            self._emit_if(op)
        elif name == "scf.while":
            self._emit_while(op)
        elif name in ("scf.yield", "scf.condition"):
            return
        elif name == "func.return":
            if op.operands:
                writer.emit(
                    f"return {{'__return': {self._name(op.operand(0))}, "
                    f"'__allocations': _alloc_count}}"
                )
            else:
                writer.emit("return {'__allocations': _alloc_count}")
        elif name == "func.call":
            raise MLIRCodegenError(
                f"Unexpected un-inlined call to {op.get_attr('callee')!r}"
            )
        else:
            raise MLIRCodegenError(f"Cannot generate Python for operation {name!r}")

    def _record_text(self, op: Operation, record: Operator) -> str:
        """The value of an ``arith``/``math`` operation: its record's Python
        text, C's truncating ``/`` and ``%`` on integers, a call under its
        record's guard, and a division by a literal zero through NumPy (a
        ``float`` divided by zero raises where C gives ``±inf`` or ``nan``)."""
        operands = [self._name(operand) for operand in op.operands]
        if record.name == "arith.divsi":
            lhs, rhs = operands
            return f"{lhs} // {rhs} + ({lhs} % {rhs} != 0 and ({lhs} < 0) != ({rhs} < 0))"
        if record.name == "arith.remsi":
            lhs, rhs = operands
            # Python's ``%`` takes the divisor's sign, C's the dividend's.
            return f"(_r - {rhs} if (_r := {lhs} % {rhs}) and {lhs} ^ {rhs} < 0 else _r)"
        if record.name == "arith.divf" and _literal_zero(op.operand(1)):
            return f"np.divide({operands[0]}, {operands[1]})"
        if record.guard is not None:
            return python_call(record, operands)
        return python_text(record, operands)

    # -- memory -------------------------------------------------------------------------
    def _emit_alloc(self, op: Operation) -> None:
        memref_type: MemRefType = op.result.type
        if self._is_scalar_cell(op.result):
            default = "0.0" if isinstance(memref_type.element_type, FloatType) else "0"
            self.scalar_cells[op.result] = self._name(op.result)
            self.writer.emit(f"{self._name(op.result)} = {default}")
            return
        dynamic = [self._name(operand) for operand in op.operands]
        shape_parts: List[str] = []
        for dim in memref_type.shape:
            if dim == DYNAMIC:
                shape_parts.append(f"int({dynamic.pop(0)})")
            else:
                shape_parts.append(str(dim))
        line = (
            f"{self._name(op.result)} = np.empty(({', '.join(shape_parts)},), "
            f"dtype={_numpy_dtype(memref_type.element_type)})"
        )
        # Hoisting to function entry is only possible when the shape does not
        # depend on values computed later (static shapes); it only matters
        # for allocations sitting inside loops (indent > 1).
        hoistable = (
            self.preallocate
            and not memref_type.has_dynamic_dims
            and self.writer.indent > 1
        )
        if hoistable:
            indent = "    "
            self._prealloc_lines.append(indent + line)
            self._prealloc_lines.append(indent + "_alloc_count += 1")
        else:
            self.writer.emit(line)
            self.writer.emit("_alloc_count += 1")

    def _emit_load(self, op: Operation) -> None:
        memref = op.operand(0)
        if memref in self.scalar_cells:
            self.writer.emit(f"{self._name(op.result)} = {self.scalar_cells[memref]}")
            return
        indices = ", ".join(self._name(index) for index in op.operands[1:])
        self.writer.emit(f"{self._name(op.result)} = {self._name(memref)}[{indices}]")

    def _emit_store(self, op: Operation) -> None:
        memref = op.operand(1)
        if memref in self.scalar_cells:
            self.writer.emit(f"{self.scalar_cells[memref]} = {self._name(op.operand(0))}")
            return
        indices = ", ".join(self._name(index) for index in op.operands[2:])
        self.writer.emit(f"{self._name(memref)}[{indices}] = {self._name(op.operand(0))}")

    # -- control flow ----------------------------------------------------------------------
    def _emit_for(self, op: ForOp) -> None:
        if op.iter_args_init:
            raise MLIRCodegenError("scf.for with iteration arguments is not supported")
        induction = self._name(op.induction_variable)
        with self.writer.block(
            f"for {induction} in range(int({self._name(op.lower_bound)}), "
            f"int({self._name(op.upper_bound)}), int({self._name(op.step)}))"
        ):
            self._emit_block(op.body)

    def _emit_if(self, op: IfOp) -> None:
        if op.results:
            raise MLIRCodegenError("scf.if with results is not supported")
        with self.writer.block(f"if {self._name(op.condition)}"):
            self._emit_block(op.then_block)
        else_block = op.else_block
        if else_block is not None and len(else_block.operations) > 1:
            with self.writer.block("else"):
                self._emit_block(else_block)

    def _emit_while(self, op: WhileOp) -> None:
        if op.operands:
            raise MLIRCodegenError("scf.while with loop-carried values is not supported")
        with self.writer.block("while True"):
            self._emit_block(op.before_block)
            condition_op = op.before_block.terminator
            with self.writer.block(f"if not {self._name(condition_op.operand(0))}"):
                self.writer.emit("break")
            self._emit_block(op.after_block)


@dataclass
class CompiledMLIR:
    """An executable program generated from an MLIR function."""

    code: str
    _function: object = field(repr=False, default=None)

    def __call__(self, **kwargs):
        return self._function(**kwargs)

    def run(self, **kwargs):
        return self._function(**kwargs)

    @classmethod
    def from_code(cls, code: str, name: str = "cached") -> "CompiledMLIR":
        """Rehydrate an executable from previously generated code."""
        return cls(code=code, _function=load_entry(code, filename=f"<mlir:{name}>"))


def generate_mlir_code(
    module, function: Optional[str] = None, native_scalars: bool = True, preallocate: bool = True
) -> str:
    """Generate Python source for a function of an MLIR module."""
    func_ops = [op for op in module.body.operations if isinstance(op, FuncOp)]
    if function is not None:
        func_ops = [op for op in func_ops if op.sym_name == function]
    if not func_ops:
        raise MLIRCodegenError("Module contains no function to generate code for")
    generator = MLIRPythonGenerator(
        func_ops[0], native_scalars=native_scalars, preallocate=preallocate
    )
    return generator.generate()


def compile_mlir(
    module, function: Optional[str] = None, native_scalars: bool = True, preallocate: bool = True
) -> CompiledMLIR:
    """Generate and load an executable program for an MLIR function."""
    code = generate_mlir_code(
        module, function=function, native_scalars=native_scalars, preallocate=preallocate
    )
    return CompiledMLIR.from_code(code)
