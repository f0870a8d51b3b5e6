"""Converter: MLIR core dialects → ``sdfg`` dialect (§5.1 of the paper).

The converter takes a function in the ``scf``/``arith``/``math``/``memref``
dialects and produces an ``sdfg.sdfg`` operation:

* memory allocation and load/store operations become
  ``sdfg.{alloc, load, store}``,
* arithmetic/mathematical computations (and unknown operations) become
  individual ``sdfg.tasklet`` operations, each placed in its own
  ``sdfg.state`` to retain program-order semantics (fused later by the
  data-centric passes, §6),
* ``scf`` constructs are lowered to state-machine subgraphs
  (``sdfg.state`` + ``sdfg.edge`` with symbolic conditions/assignments),
* every question mark in a ``memref`` size is replaced with a unique
  symbol, preserving the original MLIR semantics, and symbol values are
  propagated forward through references (§5.1, symbol "s_0" in Fig. 5).

SSA values that are not symbolically representable are routed through
scalar data containers — "every SSA value becomes a scalar data
container" (§6.1).  Nothing lifts them later: symbol inference happens
here, in :class:`~repro.conversion.symbols.SymbolicEvaluator`, and a
data-dependent bound stays a scalar read on its interstate edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dialects import arith
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..dialects.sdfg_dialect import (
    EdgeOp,
    SdfgAllocOp,
    SdfgArrayType,
    SdfgCopyOp,
    SdfgLoadOp,
    SdfgReturnOp,
    SdfgStoreOp,
    SDFGOp,
    StateOp,
    SymbolStore,
    SymValueOp,
    TaskletOp,
)
from ..dialects.scf import ForOp, IfOp, WhileOp
from ..ir.core import Block, Builder, Operation, Value
from ..ir.printer import print_operation
from ..ir.types import DYNAMIC, FloatType, IndexType, IntegerType, MemRefType, Type
from ..operators import OPERATIONS, SYMBOLIC
from ..symbolic import Expr, Integer, Symbol
from .symbols import IDENTITY_CASTS, SymbolicEvaluator


class ConversionError(Exception):
    """Raised when MLIR code cannot be converted to the sdfg dialect."""


#: Ops handled symbolically when their operands are symbolic.
_SYMBOLIC_CANDIDATES = {"arith.constant", *IDENTITY_CASTS, *SYMBOLIC}

#: Ops that always become tasklets.
_COMPUTE_OPS = {*(name for name, _ in OPERATIONS), *arith.CAST_OPS, arith.SelectOp.OP_NAME}


class SDFGDialectConverter:
    """Converts one ``func.func`` into one ``sdfg.sdfg`` operation."""

    def __init__(self, module: ModuleOp, func_op: FuncOp):
        self.module = module
        self.func_op = func_op
        self.symbol_store = SymbolStore()
        self.symbolic = SymbolicEvaluator()
        # SSA value (memref or scalar result) → container name.
        self.container_of_value: Dict[Value, str] = {}
        # Container name → SSA value usable as an operand (alloc result / block arg).
        self.container_value: Dict[str, Value] = {}
        self.container_type: Dict[str, SdfgArrayType] = {}
        self.sdfg_op: Optional[SDFGOp] = None
        self.alloc_builder: Optional[Builder] = None
        self.state_builder: Optional[Builder] = None
        self.tail: Optional[str] = None
        self._state_counter = 0
        self._container_counter = 0
        self._symbol_names: List[str] = []

    # ------------------------------------------------------------------ entry
    def convert(self) -> SDFGOp:
        arg_types: List[Type] = []
        arg_names: List[str] = []
        symbolic_args: List[Tuple[Value, str]] = []
        array_args: List[Tuple[Value, SdfgArrayType, str]] = []

        for argument in self.func_op.body.arguments:
            name = argument.name_hint or f"arg{argument.arg_index}"
            if isinstance(argument.type, MemRefType):
                shape: List[Union[int, Expr]] = []
                for dim in argument.type.shape:
                    if dim == DYNAMIC:
                        symbol = self.symbol_store.fresh("s")
                        self._symbol_names.append(symbol.name)
                        shape.append(symbol)
                    else:
                        shape.append(dim)
                array_type = SdfgArrayType(shape, argument.type.element_type)
                array_args.append((argument, array_type, name))
                arg_types.append(array_type)
                arg_names.append(name)
            elif isinstance(argument.type, (IntegerType, IndexType)):
                # Integer scalar parameters become SDFG symbols.
                self.symbol_store.define(name)
                self._symbol_names.append(name)
                symbolic_args.append((argument, name))
            else:
                # Floating-point scalar parameters become external scalars.
                array_type = SdfgArrayType([], argument.type)
                array_args.append((argument, array_type, name))
                arg_types.append(array_type)
                arg_names.append(name)

        sdfg_op = SDFGOp.build(
            self.func_op.sym_name, arg_types, arg_names, symbols=list(self._symbol_names)
        )
        self.sdfg_op = sdfg_op
        body = sdfg_op.body
        self.alloc_builder = Builder.at_start(body)
        self.state_builder = Builder.at_end(body)

        # Bind arguments.
        for (argument, array_type, name), block_arg in zip(
            array_args, [a for a in body.arguments]
        ):
            self.container_of_value[argument] = name
            self.container_value[name] = block_arg
            self.container_type[name] = array_type
        for argument, name in symbolic_args:
            self.symbolic.bind(argument, Symbol(name))

        # Return container.
        results = self.func_op.function_type.results
        if results:
            self._add_container("__return", SdfgArrayType([], results[0]), transient=False)
            sdfg_op.attributes["result_args"] = ["__return"]

        # Initial state.
        init = self._new_state("init")
        self.tail = init.sym_name

        self._convert_block(self.func_op.body)

        sdfg_op.attributes["symbols"] = list(self._symbol_names)
        return sdfg_op

    # ------------------------------------------------------------- state utils
    def _new_state(self, label: str) -> StateOp:
        name = f"{label}_{self._state_counter}"
        self._state_counter += 1
        state = StateOp.build(name)
        self.state_builder.insert(state)
        return state

    def _link(
        self,
        src: str,
        dst: str,
        condition: str = "1",
        assignments: Optional[Dict[str, str]] = None,
    ) -> None:
        edge = EdgeOp.build(src, dst, condition, assignments)
        self.state_builder.insert(edge)

    def _append_state(self, label: str) -> StateOp:
        state = self._new_state(label)
        self._link(self.tail, state.sym_name)
        self.tail = state.sym_name
        return state

    # -------------------------------------------------------------- containers
    def _add_container(
        self, name: str, array_type: SdfgArrayType, transient: bool = True
    ) -> str:
        alloc = SdfgAllocOp.build(array_type, name, transient=transient)
        self.alloc_builder.insert(alloc)
        self.container_value[name] = alloc.result
        self.container_type[name] = array_type
        return name

    def _fresh_container(
        self, prefix: str, element_type: Type, shape: Sequence = ()
    ) -> str:
        name = f"{prefix}_{self._container_counter}"
        self._container_counter += 1
        while name in self.container_value:
            name = f"{prefix}_{self._container_counter}"
            self._container_counter += 1
        return self._add_container(name, SdfgArrayType(list(shape), element_type))

    # --------------------------------------------------------------- operands
    def _edge_expr(self, value: Value) -> str:
        """Expression usable on an interstate edge: a symbolic expression or
        the name of the scalar container holding the value."""
        expression = self.symbolic.get(value)
        if expression is not None:
            return str(expression)
        container = self.container_of_value.get(value)
        if container is not None:
            return container
        raise ConversionError(
            f"Value produced by {value.owner.name if hasattr(value.owner, 'name') else value} "
            "has no symbolic or container representation"
        )

    def _scalar_source(self, builder: Builder, value: Value) -> Value:
        """SSA value holding ``value`` inside the current state: either a
        fresh ``sdfg.load`` of its scalar container, or a literal tasklet for
        symbolic expressions."""
        container = self.container_of_value.get(value)
        if container is not None:
            load = builder.create(SdfgLoadOp, self.container_value[container], [])
            return load.result
        expression = self.symbolic.get(value)
        if expression is not None:
            tasklet = builder.create(
                TaskletOp.build_with_code,
                "sym_literal",
                [],
                [],
                [value.type],
                f"_out = {expression}",
            )
            return tasklet.results[0]
        raise ConversionError("Operand is neither symbolic nor stored in a container")

    # ----------------------------------------------------------------- dispatch
    def _convert_block(self, block: Block) -> None:
        for op in list(block.operations):
            name = op.name
            if name in ("scf.yield", "scf.condition"):
                continue
            if name == "func.return":
                self._convert_return(op)
                continue
            if name in _SYMBOLIC_CANDIDATES and self.symbolic.get(
                op.results[0] if op.results else None
            ) is not None:
                continue  # fully symbolic: nothing to materialize
            if name in ("memref.alloc", "memref.alloca"):
                self._convert_alloc(op)
            elif name == "memref.load":
                self._convert_load(op)
            elif name == "memref.store":
                self._convert_store(op)
            elif name == "memref.copy":
                self._convert_copy(op)
            elif name == "memref.dealloc":
                continue  # container lifetime is managed by the SDFG
            elif name == "memref.dim":
                self._convert_dim(op)
            elif name == "scf.for":
                self._convert_for(op)
            elif name == "scf.if":
                self._convert_if(op)
            elif name == "scf.while":
                self._convert_while(op)
            elif name in _COMPUTE_OPS:
                self._convert_compute(op)
            elif name == "func.call":
                raise ConversionError(
                    f"Unexpected call to {op.get_attr('callee')!r}: calls must be inlined "
                    "before conversion (§4)"
                )
            else:
                self._convert_opaque(op)

    # ------------------------------------------------------------ computations
    def _convert_compute(self, op: Operation) -> None:
        if not op.results:
            raise ConversionError(f"Cannot convert result-less op {op.name}")
        state = self._append_state(op.name.split(".")[-1])
        builder = Builder.at_end(state.body)

        tasklet_operands: List[Value] = []
        input_names: List[str] = []
        operand_specs: List[Tuple[str, object]] = []
        for operand in op.operands:
            expression = self.symbolic.get(operand)
            if expression is not None:
                operand_specs.append(("sym", (expression, operand.type)))
            else:
                container = self.container_of_value.get(operand)
                if container is None:
                    raise ConversionError(
                        f"Operand of {op.name} has no representation; conversion order broken"
                    )
                load = builder.create(SdfgLoadOp, self.container_value[container], [])
                operand_specs.append(("arg", len(tasklet_operands)))
                tasklet_operands.append(load.result)
                input_names.append(f"_in{len(input_names)}")

        tasklet = TaskletOp.build(
            op.name.replace(".", "_"),
            tasklet_operands,
            input_names,
            [op.results[0].type],
        )
        builder.insert(tasklet)
        inner_builder = Builder.at_end(tasklet.body)
        inner_operands: List[Value] = []
        for kind, payload in operand_specs:
            if kind == "arg":
                inner_operands.append(tasklet.body.arguments[payload])
            else:
                expression, operand_type = payload
                sym_value = inner_builder.create(SymValueOp, str(expression), operand_type)
                inner_operands.append(sym_value.result)
        value_map = {
            original: new for original, new in zip(op.operands, inner_operands)
        }
        cloned = op.clone(value_map)
        inner_builder.insert(cloned)
        inner_builder.create(SdfgReturnOp, [cloned.results[0]])

        result = op.results[0]
        out_container = self._fresh_container(
            "_" + op.name.split(".")[-1], result.type
        )
        builder.create(
            SdfgStoreOp, tasklet.results[0], self.container_value[out_container], []
        )
        self.container_of_value[result] = out_container

    def _convert_opaque(self, op: Operation) -> None:
        """Keep unsupported MLIR operations as opaque MLIR tasklets (§5.2)."""
        state = self._append_state("mlir_tasklet")
        builder = Builder.at_end(state.body)
        operands: List[Value] = []
        names: List[str] = []
        for index, operand in enumerate(op.operands):
            container = self.container_of_value.get(operand)
            if container is None:
                continue
            load = builder.create(SdfgLoadOp, self.container_value[container], [])
            operands.append(load.result)
            names.append(f"_in{index}")
        tasklet = builder.create(
            TaskletOp.build_with_code,
            "mlir_" + op.name.replace(".", "_"),
            operands,
            names,
            [result.type for result in op.results],
            print_operation(op),
            language="mlir",
        )
        for result, tasklet_result in zip(op.results, tasklet.results):
            container = self._fresh_container("_mlir", result.type)
            builder.create(SdfgStoreOp, tasklet_result, self.container_value[container], [])
            self.container_of_value[result] = container

    # --------------------------------------------------------------- memory ops
    def _convert_alloc(self, op: Operation) -> None:
        memref_type: MemRefType = op.results[0].type
        shape: List[Union[int, Expr]] = []
        dynamic_operands = list(op.operands)
        for dim in memref_type.shape:
            if dim == DYNAMIC:
                size_value = dynamic_operands.pop(0)
                expression = self.symbolic.get(size_value)
                if expression is None:
                    symbol = self.symbol_store.fresh("s")
                    self._symbol_names.append(symbol.name)
                    expression = symbol
                shape.append(expression)
            else:
                shape.append(dim)
        hint = op.results[0].name_hint
        base = hint if hint else "_arr"
        name = f"{base}_{self._container_counter}"
        self._container_counter += 1
        while name in self.container_value:
            name = f"{base}_{self._container_counter}"
            self._container_counter += 1
        array_type = SdfgArrayType(shape, memref_type.element_type)
        self._add_container(name, array_type, transient=True)
        # Stack allocations (allocas) keep that preference as a hint.
        self.container_value[name].owner.attributes["on_stack"] = op.name == "memref.alloca"
        self.container_of_value[op.results[0]] = name

    def _index_info(self, indices: Sequence[Value]) -> Tuple[bool, List[str], List[Value]]:
        """(all_symbolic, symbolic index strings, dynamic SSA index values)."""
        symbolic_indices: List[str] = []
        dynamic_values: List[Value] = []
        all_symbolic = True
        for index in indices:
            expression = self.symbolic.get(index)
            if expression is not None:
                symbolic_indices.append(str(expression))
            else:
                all_symbolic = False
                dynamic_values.append(index)
                symbolic_indices.append("?")
        return all_symbolic, symbolic_indices, dynamic_values

    def _convert_load(self, op: Operation) -> None:
        array = self.container_of_value.get(op.operand(0))
        if array is None:
            raise ConversionError("Load from an unknown memref")
        result = op.results[0]
        state = self._append_state("load")
        builder = Builder.at_end(state.body)
        out_container = self._fresh_container("_load", result.type)
        all_symbolic, symbolic_indices, _ = self._index_info(op.operands[1:])
        if all_symbolic:
            load = builder.create(
                SdfgLoadOp, self.container_value[array], [], symbolic_indices=symbolic_indices
            )
            builder.create(SdfgStoreOp, load.result, self.container_value[out_container], [])
        else:
            # Data-dependent (indirect) access: index inside a tasklet.
            operands = [self.container_value[array]]
            names = ["_array"]
            index_terms: List[str] = []
            for position, index in enumerate(op.operands[1:]):
                expression = self.symbolic.get(index)
                if expression is not None:
                    index_terms.append(f"int({expression})")
                else:
                    operands.append(self._scalar_source(builder, index))
                    names.append(f"_i{position}")
                    index_terms.append(f"int(_i{position})")
            code = f"_out = _array[{', '.join(index_terms)}]"
            tasklet = builder.create(
                TaskletOp.build_with_code, "indirect_load", operands, names, [result.type], code
            )
            builder.create(
                SdfgStoreOp, tasklet.results[0], self.container_value[out_container], []
            )
        self.container_of_value[result] = out_container

    def _convert_store(self, op: Operation) -> None:
        array = self.container_of_value.get(op.operand(1))
        if array is None:
            raise ConversionError("Store to an unknown memref")
        state = self._append_state("store")
        builder = Builder.at_end(state.body)
        value = self._scalar_source(builder, op.operand(0))
        all_symbolic, symbolic_indices, _ = self._index_info(op.operands[2:])
        if all_symbolic:
            builder.create(
                SdfgStoreOp,
                value,
                self.container_value[array],
                [],
                symbolic_indices=symbolic_indices,
            )
        else:
            operands = [value, self.container_value[array]]
            names = ["_val", "_array"]
            index_terms: List[str] = []
            for position, index in enumerate(op.operands[2:]):
                expression = self.symbolic.get(index)
                if expression is not None:
                    index_terms.append(f"int({expression})")
                else:
                    operands.append(self._scalar_source(builder, index))
                    names.append(f"_i{position}")
                    index_terms.append(f"int(_i{position})")
            code = f"_array[{', '.join(index_terms)}] = _val"
            builder.create(
                TaskletOp.build_with_code,
                "indirect_store",
                operands,
                names,
                [],
                code,
                output_containers=[array],
            )

    def _convert_copy(self, op: Operation) -> None:
        source = self.container_of_value.get(op.operand(0))
        destination = self.container_of_value.get(op.operand(1))
        if source is None or destination is None:
            raise ConversionError("memref.copy of unknown containers")
        state = self._append_state("copy")
        builder = Builder.at_end(state.body)
        builder.create(
            SdfgCopyOp, self.container_value[source], self.container_value[destination]
        )

    def _convert_dim(self, op: Operation) -> None:
        container = self.container_of_value.get(op.operand(0))
        if container is None:
            raise ConversionError("memref.dim of an unknown memref")
        dim_expr = self.symbolic.get(op.operand(1))
        if dim_expr is None or not dim_expr.is_constant():
            raise ConversionError("memref.dim requires a constant dimension index")
        shape = self.container_type[container].shape
        self.symbolic.bind(op.results[0], shape[dim_expr.as_int()])

    # ----------------------------------------------------------------- control flow
    def _unique_symbol(self, hint: str) -> str:
        name = hint or "i"
        if name in self.symbol_store or name in self.container_value:
            suffix = 0
            while f"{name}_{suffix}" in self.symbol_store:
                suffix += 1
            name = f"{name}_{suffix}"
        self.symbol_store.define(name)
        self._symbol_names.append(name)
        return name

    def _convert_for(self, op: ForOp) -> None:
        if op.iter_args_init:
            raise ConversionError("scf.for with iteration arguments is not supported")
        lower = self._edge_expr(op.lower_bound)
        upper = self._edge_expr(op.upper_bound)
        step = self._edge_expr(op.step)
        induction = self._unique_symbol(op.induction_variable.name_hint or "i")
        self.symbolic.bind(op.induction_variable, Symbol(induction))

        guard = self._new_state(f"guard_{induction}")
        self._link(self.tail, guard.sym_name, "1", {induction: lower})
        body_entry = self._new_state(f"body_{induction}")
        condition = f"{induction} < ({upper})"
        self._link(guard.sym_name, body_entry.sym_name, condition)
        self.tail = body_entry.sym_name
        self._convert_block(op.body)
        self._link(
            self.tail, guard.sym_name, "1", {induction: f"{induction} + ({step})"}
        )
        exit_state = self._new_state(f"endfor_{induction}")
        self._link(guard.sym_name, exit_state.sym_name, f"not ({condition})")
        self.tail = exit_state.sym_name

    def _convert_if(self, op: IfOp) -> None:
        if op.results:
            raise ConversionError("scf.if with results is not supported")
        condition_value = op.condition
        expression = self.symbolic.get(condition_value)
        if expression is not None:
            condition = str(expression)
        else:
            container = self.container_of_value.get(condition_value)
            if container is None:
                raise ConversionError("Branch condition has no representation")
            condition = container
        branch_tail = self.tail

        then_entry = self._new_state("then")
        self._link(branch_tail, then_entry.sym_name, condition)
        self.tail = then_entry.sym_name
        self._convert_block(op.then_block)
        then_exit = self.tail

        merge = self._new_state("ifmerge")
        else_block = op.else_block
        if else_block is not None and len(else_block.operations) > 1:
            else_entry = self._new_state("else")
            self._link(branch_tail, else_entry.sym_name, f"not ({condition})")
            self.tail = else_entry.sym_name
            self._convert_block(else_block)
            self._link(self.tail, merge.sym_name, "1")
        else:
            self._link(branch_tail, merge.sym_name, f"not ({condition})")
        self._link(then_exit, merge.sym_name, "1")
        self.tail = merge.sym_name

    def _convert_while(self, op: WhileOp) -> None:
        if op.operands:
            raise ConversionError("scf.while with loop-carried values is not supported")
        condition_entry = self._new_state("while_cond")
        self._link(self.tail, condition_entry.sym_name, "1")
        self.tail = condition_entry.sym_name
        self._convert_block(op.before_block)
        condition_tail = self.tail
        condition_op = op.before_block.terminator
        condition_expr = self._edge_expr(condition_op.operand(0))

        body_entry = self._new_state("while_body")
        self._link(condition_tail, body_entry.sym_name, condition_expr)
        exit_state = self._new_state("endwhile")
        self._link(condition_tail, exit_state.sym_name, f"not ({condition_expr})")

        self.tail = body_entry.sym_name
        self._convert_block(op.after_block)
        self._link(self.tail, condition_entry.sym_name, "1")
        self.tail = exit_state.sym_name

    def _convert_return(self, op: Operation) -> None:
        if not op.operands:
            return
        state = self._append_state("return")
        builder = Builder.at_end(state.body)
        value = self._scalar_source(builder, op.operand(0))
        builder.create(SdfgStoreOp, value, self.container_value["__return"], [])


def convert_to_sdfg_dialect(module: ModuleOp, function: Optional[str] = None) -> ModuleOp:
    """Convert the functions of ``module`` into ``sdfg.sdfg`` operations.

    Returns a new module containing one ``sdfg.sdfg`` op per converted
    function (other functions are expected to have been inlined away).
    """
    result = ModuleOp.build()
    builder = Builder.at_end(result.body)
    for op in list(module.body.operations):
        if not isinstance(op, FuncOp):
            continue
        if function is not None and op.sym_name != function:
            continue
        converter = SDFGDialectConverter(module, op)
        sdfg_op = converter.convert()
        builder.insert(sdfg_op)
    return result
