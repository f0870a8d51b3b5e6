"""Translator: ``sdfg`` dialect → SDFG IR (§5.2 of the paper).

Translation happens in two passes, exactly as described in the paper:
the first pass collects symbol, container and state metadata; the second
pass creates the graph — states with access nodes, tasklets and memlets,
and interstate edges with symbolic conditions and assignments.  Tasklet
bodies are raised from MLIR to Python on the way (``raise_tasklets``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dialects.builtin import ModuleOp
from ..dialects.sdfg_dialect import (
    EdgeOp,
    SdfgAllocOp,
    SdfgArrayType,
    SdfgCopyOp,
    SdfgLoadOp,
    SdfgStoreOp,
    SDFGOp,
    StateOp,
    TaskletOp,
)
from ..ir.core import Operation, Value
from ..sdfg import SDFG, AccessNode, InterstateEdge, Memlet, SDFGState, Tasklet
from ..sdfg.data import mlir_type_to_dtype
from ..symbolic import Integer, Subset, parse_expr
from .raise_tasklets import raise_tasklet


class TranslationError(Exception):
    """Raised when a dialect construct cannot be translated to the SDFG IR."""


class SDFGTranslator:
    """Translates one ``sdfg.sdfg`` operation into an :class:`SDFG`."""

    def __init__(self, sdfg_op: SDFGOp):
        self.sdfg_op = sdfg_op
        self.sdfg = SDFG(sdfg_op.sym_name)
        #: SSA value (block argument or alloc result) → container name.
        self.container_names: Dict[Value, str] = {}
        self.states: Dict[str, SDFGState] = {}

    # -- pass 1: metadata -------------------------------------------------------
    def collect_metadata(self) -> None:
        for name in self.sdfg_op.symbols:
            self.sdfg.add_symbol(name)

        for argument in self.sdfg_op.body.arguments:
            name = argument.name_hint or f"arg{argument.arg_index}"
            array_type = argument.type
            if not isinstance(array_type, SdfgArrayType):
                raise TranslationError(f"SDFG argument {name!r} has non-array type {array_type}")
            self._add_container(name, array_type, transient=False)
            self.container_names[argument] = name

        for op in self.sdfg_op.body.operations:
            if isinstance(op, SdfgAllocOp):
                name = op.container_name
                transient = op.get_attr("transient", True)
                if name in self.sdfg_op.get_attr("result_args", []):
                    transient = False
                self._add_container(
                    name,
                    op.array_type,
                    transient=transient,
                    on_stack=op.get_attr("on_stack", False),
                )
                self.container_names[op.result] = name

        self.sdfg.return_values = list(self.sdfg_op.get_attr("result_args", []))

        first = True
        for op in self.sdfg_op.body.operations:
            if isinstance(op, StateOp):
                state = self.sdfg.add_state(op.sym_name, is_start_state=first)
                first = False
                self.states[op.sym_name] = state

    def _add_container(
        self, name: str, array_type: SdfgArrayType, transient: bool, on_stack: bool = False
    ) -> None:
        dtype = mlir_type_to_dtype(array_type.element_type)
        if array_type.rank == 0:
            self.sdfg.add_scalar(name, dtype, transient=transient)
        else:
            storage = "stack" if on_stack else "heap"
            self.sdfg.add_array(
                name, list(array_type.shape), dtype, transient=transient, storage=storage
            )

    # -- pass 2: graph ------------------------------------------------------------
    def build_graph(self) -> None:
        for op in self.sdfg_op.body.operations:
            if isinstance(op, StateOp):
                self._translate_state(op)
            elif isinstance(op, EdgeOp):
                self._translate_edge(op)

    def _translate_edge(self, op: EdgeOp) -> None:
        src = self.states.get(op.src)
        dst = self.states.get(op.dst)
        if src is None or dst is None:
            raise TranslationError(f"Edge references unknown state {op.src!r} or {op.dst!r}")
        condition = parse_expr(op.condition) if op.condition not in ("", "1") else None
        assignments = {name: parse_expr(value) for name, value in op.assignments.items()}
        self.sdfg.add_edge(src, dst, InterstateEdge(condition, assignments))

    def _translate_state(self, state_op: StateOp) -> None:
        state = self.states[state_op.sym_name]
        # Latest access node per container (SSA-like within the state).
        current_node: Dict[str, AccessNode] = {}
        # Provenance of SSA values defined inside the state.
        provenance: Dict[Value, Tuple] = {}

        def read_node(data: str) -> AccessNode:
            node = current_node.get(data)
            if node is None:
                node = state.add_access(data)
                current_node[data] = node
            return node

        def write_node(data: str) -> AccessNode:
            node = state.add_access(data)
            current_node[data] = node
            return node

        def scalar_memlet(data: str, subset: Optional[Subset], wcr: Optional[str] = None) -> Memlet:
            memlet = Memlet(data=data, subset=subset, wcr=wcr)
            if subset is None:
                memlet.volume = Integer(1)
            return memlet

        for op in state_op.body.operations:
            if isinstance(op, SdfgLoadOp):
                data = self._container_of(op.operand(0))
                subset = self._subset_of(op)
                provenance[op.result] = ("read", data, subset)
            elif isinstance(op, TaskletOp):
                self._translate_tasklet(
                    state, op, provenance, read_node, write_node, scalar_memlet
                )
            elif isinstance(op, SdfgStoreOp):
                self._translate_store(
                    state, op, provenance, read_node, write_node, scalar_memlet
                )
            elif isinstance(op, SdfgCopyOp):
                source = self._container_of(op.operand(0))
                destination = self._container_of(op.operand(1))
                shape = self.sdfg.arrays[destination].shape
                memlet = Memlet(data=destination, subset=Subset.full(shape) if shape else None)
                state.add_edge(read_node(source), None, write_node(destination), None, memlet)
            else:
                raise TranslationError(f"Unsupported op {op.name!r} inside sdfg.state")

    def _translate_tasklet(
        self, state, op: TaskletOp, provenance, read_node, write_node, scalar_memlet
    ) -> None:
        code, input_names, output_names, language = raise_tasklet(op)
        if not output_names and op.results:
            output_names = ["_out"] if len(op.results) == 1 else [
                f"_out{i}" for i in range(len(op.results))
            ]
        tasklet = state.add_tasklet(op.sym_name, [], [], code, language=language)

        for operand, in_name in zip(op.operands, input_names):
            self._connect_input(
                state, tasklet, operand, in_name, provenance, read_node, scalar_memlet
            )
        # Extra operands without names (defensive): connect positionally.
        for index, operand in enumerate(op.operands[len(input_names):], len(input_names)):
            self._connect_input(
                state, tasklet, operand, f"_in{index}", provenance, read_node, scalar_memlet
            )

        for result, out_name in zip(op.results, output_names):
            provenance[result] = ("tasklet", tasklet, out_name)

        # Tasklets that mutate whole containers in place (indirect stores).
        for container in op.get_attr("output_containers", []) or []:
            memlet = Memlet(
                data=container,
                subset=Subset.full(self.sdfg.arrays[container].shape)
                if self.sdfg.arrays[container].shape
                else None,
                dynamic=True,
            )
            state.add_edge(tasklet, None, write_node(container), None, memlet)

    def _connect_input(
        self, state, tasklet: Tasklet, operand: Value, in_name: str, provenance, read_node,
        scalar_memlet,
    ) -> None:
        info = provenance.get(operand)
        if info is not None and info[0] == "read":
            _, data, subset = info
            state.add_edge(read_node(data), None, tasklet, in_name, scalar_memlet(data, subset))
            return
        if info is not None and info[0] == "tasklet":
            _, source_node, out_conn = info
            state.add_edge(source_node, out_conn, tasklet, in_name, Memlet.empty())
            tasklet.add_in_connector(in_name)
            source_node.add_out_connector(out_conn)
            return
        container = self._container_of(operand, allow_missing=True)
        if container is not None:
            descriptor = self.sdfg.arrays[container]
            memlet = Memlet(
                data=container,
                subset=Subset.full(descriptor.shape) if descriptor.shape else None,
                dynamic=True,
            )
            state.add_edge(read_node(container), None, tasklet, in_name, memlet)
            return
        raise TranslationError(
            f"Tasklet {tasklet.label!r} operand has no provenance (connector {in_name!r})"
        )

    def _translate_store(
        self, state, op: SdfgStoreOp, provenance, read_node, write_node, scalar_memlet
    ) -> None:
        data = self._container_of(op.operand(1))
        subset = self._subset_of(op, operand_offset=2)
        wcr = op.wcr
        value = op.operand(0)
        info = provenance.get(value)
        memlet = scalar_memlet(data, subset, wcr)
        if info is not None and info[0] == "tasklet":
            _, source_node, out_conn = info
            state.add_edge(source_node, out_conn, write_node(data), None, memlet)
            return
        if info is not None and info[0] == "read":
            _, src_data, src_subset = info
            # Copy through a pass-through tasklet so both subsets are explicit.
            tasklet = state.add_tasklet("copy", ["_in"], ["_out"], "_out = _in")
            state.add_edge(
                read_node(src_data), None, tasklet, "_in", scalar_memlet(src_data, src_subset)
            )
            state.add_edge(tasklet, "_out", write_node(data), None, memlet)
            return
        container = self._container_of(value, allow_missing=True)
        if container is not None:
            state.add_edge(read_node(container), None, write_node(data), None, memlet)
            return
        raise TranslationError("sdfg.store of a value with no provenance")

    # -- helpers -----------------------------------------------------------------
    def _container_of(self, value: Value, allow_missing: bool = False) -> Optional[str]:
        name = self.container_names.get(value)
        if name is None and not allow_missing:
            raise TranslationError("Reference to an unknown container value")
        return name

    def _subset_of(self, op: Operation, operand_offset: int = 1) -> Optional[Subset]:
        symbolic_indices = op.get_attr("symbolic_indices")
        if symbolic_indices:
            return Subset.from_indices([parse_expr(index) for index in symbolic_indices])
        return None

    # -- entry point ----------------------------------------------------------------
    def translate(self) -> SDFG:
        self.collect_metadata()
        self.build_graph()
        return self.sdfg


def translate_module(module: ModuleOp, function: Optional[str] = None) -> SDFG:
    """Translate the (single) ``sdfg.sdfg`` op of a module into an SDFG."""
    candidates = [
        op
        for op in module.body.operations
        if isinstance(op, SDFGOp) and (function is None or op.sym_name == function)
    ]
    if not candidates:
        raise TranslationError("Module contains no sdfg.sdfg operation to translate")
    if len(candidates) > 1 and function is None:
        raise TranslationError(
            "Module contains multiple sdfg.sdfg operations; specify which to translate"
        )
    return SDFGTranslator(candidates[0]).translate()
