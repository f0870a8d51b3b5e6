"""The ``sdfg`` MLIR dialect — the core bridge of the paper (§3, Table 1).

The dialect exists as a convertible target from the standard dialects and
as a representation directly translatable to the SDFG IR.  Its distinctive
features, reproduced here:

* **Symbolic sizes** (§3.1): the ``!sdfg.array<sym("2*N") x i32>`` type
  carries symbolic expressions in its shape, enabling parametric dataflow
  analysis and compile-time size verification (Fig. 3).
* **Table 1 operations**: ``sdfg.sdfg``, ``sdfg.state``, ``sdfg.edge``,
  ``sdfg.tasklet``, ``sdfg.load``, ``sdfg.store`` (with optional
  write-conflict resolution), ``sdfg.alloc``.  ``sdfg.map`` and
  ``sdfg.consume`` are not modelled: no conversion produces them (maps
  are raised on the SDFG side by ``loop-to-map``).
* **Symbol store**: symbols are defined per ``sdfg.sdfg`` scope by name and
  are read-only throughout their lifetime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.core import Block, Operation, Value, register_operation
from ..ir.types import Type
from ..ir.verifier import VerificationError
from ..symbolic import Expr, Integer, Symbol, definitely_nonzero, sympify


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class SdfgArrayType(Type):
    """``!sdfg.array<sym("N") x 4 x f64>`` — array with symbolic shape."""

    __slots__ = ("shape", "element_type")

    def __init__(self, shape: Sequence[Union[int, str, Expr]], element_type: Type):
        self.shape: Tuple[Expr, ...] = tuple(sympify(dim) for dim in shape)
        self.element_type = element_type

    def key(self) -> tuple:
        return ("sdfg.array", tuple(dim.key() for dim in self.shape), self.element_type.key())

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_scalar(self) -> bool:
        return len(self.shape) == 0 or all(dim == Integer(1) for dim in self.shape)

    def num_elements(self) -> Expr:
        total: Expr = Integer(1)
        for dim in self.shape:
            total = total * dim
        return total

    def free_symbols(self) -> frozenset:
        result: frozenset = frozenset()
        for dim in self.shape:
            result |= dim.free_symbols()
        return result

    def __str__(self) -> str:
        parts = []
        for dim in self.shape:
            if isinstance(dim, Integer):
                parts.append(str(dim.value))
            else:
                parts.append(f'sym("{dim}")')
        if parts:
            return f"!sdfg.array<{' x '.join(parts)} x {self.element_type}>"
        return f"!sdfg.array<{self.element_type}>"


# ---------------------------------------------------------------------------
# Symbol store (§3.1)
# ---------------------------------------------------------------------------


class SymbolStore:
    """Tracks the symbols defined in an ``sdfg.sdfg`` scope.

    MLIR disallows referencing function parameters inside parameter types,
    so the dialect maintains symbols globally per scope by name; they are
    read-only throughout their lifetime.
    """

    def __init__(self):
        self._symbols: Dict[str, str] = {}
        self._counter = 0

    def define(self, name: str, dtype: str = "int64") -> Symbol:
        self._symbols.setdefault(name, dtype)
        return Symbol(name)

    def fresh(self, prefix: str = "s") -> Symbol:
        """Create a new unique symbol (used for every ``?`` dimension)."""
        while True:
            name = f"{prefix}_{self._counter}"
            self._counter += 1
            if name not in self._symbols:
                return self.define(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self):
        return iter(self._symbols)

    def items(self):
        return self._symbols.items()

    def names(self) -> List[str]:
        return list(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)


# ---------------------------------------------------------------------------
# Operations (Table 1)
# ---------------------------------------------------------------------------


@register_operation
class SDFGOp(Operation):
    """``sdfg.sdfg`` — top-level stateful dataflow multigraph container.

    Block arguments are the externally visible data containers; the
    ``symbols`` attribute lists the symbols defined for this scope, and
    ``result_args`` names which arguments act as outputs.
    """

    OP_NAME = "sdfg.sdfg"
    IS_ISOLATED_FROM_ABOVE = True

    @staticmethod
    def build(
        name: str,
        arg_types: Sequence[Type],
        arg_names: Sequence[str],
        symbols: Optional[Sequence[str]] = None,
        result_args: Optional[Sequence[str]] = None,
    ) -> "SDFGOp":
        op = SDFGOp(SDFGOp.OP_NAME, regions=1)
        op.attributes["sym_name"] = name
        op.attributes["symbols"] = list(symbols or [])
        op.attributes["result_args"] = list(result_args or [])
        block = op.regions[0].add_block(arg_types)
        for argument, hint in zip(block.arguments, arg_names):
            argument.name_hint = hint
        return op

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"]

    @property
    def symbols(self) -> List[str]:
        return self.attributes["symbols"]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def states(self) -> List["StateOp"]:
        return [op for op in self.body.operations if isinstance(op, StateOp)]

    def edges(self) -> List["EdgeOp"]:
        return [op for op in self.body.operations if isinstance(op, EdgeOp)]

    def verify_op(self) -> None:
        state_names = [state.sym_name for state in self.states()]
        if len(state_names) != len(set(state_names)):
            raise VerificationError("sdfg.sdfg contains duplicate state names", self)
        known = set(state_names)
        for edge in self.edges():
            if edge.src not in known or edge.dst not in known:
                raise VerificationError(
                    f"sdfg.edge references unknown state ({edge.src} -> {edge.dst})", self
                )


@register_operation
class StateOp(Operation):
    """``sdfg.state @name { ... }`` — groups operations; the state machine
    ensures a correct order of execution and prevents data races."""

    OP_NAME = "sdfg.state"

    @staticmethod
    def build(name: str) -> "StateOp":
        op = StateOp(StateOp.OP_NAME, regions=1)
        op.attributes["sym_name"] = name
        op.regions[0].add_block()
        return op

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"]

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block


@register_operation
class EdgeOp(Operation):
    """``sdfg.edge @src -> @dst`` — state transition with a symbolic
    condition and symbol assignments."""

    OP_NAME = "sdfg.edge"

    @staticmethod
    def build(
        src: str,
        dst: str,
        condition: str = "1",
        assignments: Optional[Dict[str, str]] = None,
    ) -> "EdgeOp":
        op = EdgeOp(EdgeOp.OP_NAME)
        op.attributes["src"] = src
        op.attributes["dst"] = dst
        op.attributes["condition"] = condition
        op.attributes["assignments"] = dict(assignments or {})
        return op

    @property
    def src(self) -> str:
        return self.attributes["src"]

    @property
    def dst(self) -> str:
        return self.attributes["dst"]

    @property
    def condition(self) -> str:
        return self.attributes["condition"]

    @property
    def assignments(self) -> Dict[str, str]:
        return self.attributes["assignments"]


@register_operation
class TaskletOp(Operation):
    """``sdfg.tasklet`` — encapsulated unit of computation with no external
    dataflow except for parameters and return values."""

    OP_NAME = "sdfg.tasklet"
    IS_ISOLATED_FROM_ABOVE = True
    REQUIRES_TERMINATOR = True

    @staticmethod
    def build(
        name: str,
        inputs: Sequence[Value],
        input_names: Sequence[str],
        result_types: Sequence[Type],
    ) -> "TaskletOp":
        op = TaskletOp(
            TaskletOp.OP_NAME,
            operands=list(inputs),
            result_types=list(result_types),
            regions=1,
        )
        op.attributes["sym_name"] = name
        block = op.regions[0].add_block([value.type for value in inputs])
        for argument, hint in zip(block.arguments, input_names):
            argument.name_hint = hint
        return op

    @staticmethod
    def build_with_code(
        name: str,
        inputs: Sequence[Value],
        input_names: Sequence[str],
        result_types: Sequence[Type],
        code: str,
        output_containers: Optional[Sequence[str]] = None,
        language: str = "python",
    ) -> "TaskletOp":
        """Build a tasklet whose behaviour is given directly as (Python) code
        over its connector names instead of an MLIR body region — the
        "raised" form of §5.2."""
        op = TaskletOp(
            TaskletOp.OP_NAME,
            operands=list(inputs),
            result_types=list(result_types),
            regions=1,
        )
        op.attributes["sym_name"] = name
        op.attributes["code"] = code
        op.attributes["input_names"] = list(input_names)
        op.attributes["language"] = language
        if output_containers:
            op.attributes["output_containers"] = list(output_containers)
        return op

    @property
    def sym_name(self) -> str:
        return self.attributes["sym_name"]

    @property
    def code(self) -> Optional[str]:
        return self.attributes.get("code")

    @property
    def body(self) -> Block:
        return self.regions[0].entry_block

    def verify_op(self) -> None:
        if "code" in self.attributes:
            return  # code-form tasklets have no body region to check
        if len(self.body.arguments) != len(self.operands):
            raise VerificationError(
                "sdfg.tasklet body arguments must match its operands", self
            )


@register_operation
class SdfgReturnOp(Operation):
    """``sdfg.return`` — terminator of tasklet and map bodies."""

    OP_NAME = "sdfg.return"
    IS_TERMINATOR = True

    @staticmethod
    def build(values: Sequence[Value] = ()) -> "SdfgReturnOp":
        return SdfgReturnOp(SdfgReturnOp.OP_NAME, operands=list(values))


@register_operation
class SdfgLoadOp(Operation):
    """``sdfg.load %A[indices]`` — loads a value from an array.

    Indices are either SSA values (operands after the array) or symbolic
    expressions stored in the ``symbolic_indices`` attribute.
    """

    OP_NAME = "sdfg.load"
    READS_MEMORY = True

    @staticmethod
    def build(
        array: Value,
        indices: Sequence[Value] = (),
        symbolic_indices: Optional[Sequence[str]] = None,
    ) -> "SdfgLoadOp":
        if not isinstance(array.type, SdfgArrayType):
            raise VerificationError(f"sdfg.load requires an sdfg.array, got {array.type}")
        op = SdfgLoadOp(
            SdfgLoadOp.OP_NAME,
            operands=[array, *indices],
            result_types=[array.type.element_type],
        )
        if symbolic_indices is not None:
            op.attributes["symbolic_indices"] = [str(index) for index in symbolic_indices]
        return op

    @property
    def array(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[1:]

    @property
    def symbolic_indices(self) -> Optional[List[str]]:
        return self.attributes.get("symbolic_indices")


@register_operation
class SdfgStoreOp(Operation):
    """``sdfg.store %v, %A[indices]`` — stores (or updates via ``wcr``)."""

    OP_NAME = "sdfg.store"
    HAS_SIDE_EFFECTS = True

    @staticmethod
    def build(
        value: Value,
        array: Value,
        indices: Sequence[Value] = (),
        symbolic_indices: Optional[Sequence[str]] = None,
        wcr: Optional[str] = None,
    ) -> "SdfgStoreOp":
        if not isinstance(array.type, SdfgArrayType):
            raise VerificationError(f"sdfg.store requires an sdfg.array, got {array.type}")
        op = SdfgStoreOp(SdfgStoreOp.OP_NAME, operands=[value, array, *indices])
        if symbolic_indices is not None:
            op.attributes["symbolic_indices"] = [str(index) for index in symbolic_indices]
        if wcr is not None:
            op.attributes["wcr"] = wcr
        return op

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def array(self) -> Value:
        return self.operand(1)

    @property
    def indices(self) -> Sequence[Value]:
        return self.operands[2:]

    @property
    def symbolic_indices(self) -> Optional[List[str]]:
        return self.attributes.get("symbolic_indices")

    @property
    def wcr(self) -> Optional[str]:
        return self.attributes.get("wcr")


@register_operation
class SdfgAllocOp(Operation):
    """``sdfg.alloc() : !sdfg.array<...>`` — declares a data container.

    Allocation in the generated code is implicit (DaCe manages container
    lifetime); the op only declares the container, its symbolic size, and
    whether it is *transient* (managed by the SDFG) or externally visible.
    """

    OP_NAME = "sdfg.alloc"
    IS_ALLOCATION = True

    @staticmethod
    def build(
        array_type: SdfgArrayType, name: str, transient: bool = True, on_stack: bool = False
    ) -> "SdfgAllocOp":
        op = SdfgAllocOp(SdfgAllocOp.OP_NAME, result_types=[array_type])
        op.attributes["container_name"] = name
        op.attributes["transient"] = transient
        op.attributes["on_stack"] = on_stack
        return op

    @property
    def container_name(self) -> str:
        return self.attributes["container_name"]

    @property
    def transient(self) -> bool:
        return self.attributes["transient"]

    @property
    def array_type(self) -> SdfgArrayType:
        return self.result.type


@register_operation
class SdfgCopyOp(Operation):
    """``sdfg.copy %src, %dst`` — whole-container copy with parametric size
    verification (Fig. 3b): mismatching symbolic sizes are a compile-time
    error."""

    OP_NAME = "sdfg.copy"
    HAS_SIDE_EFFECTS = True
    READS_MEMORY = True

    @staticmethod
    def build(source: Value, destination: Value) -> "SdfgCopyOp":
        op = SdfgCopyOp(SdfgCopyOp.OP_NAME, operands=[source, destination])
        op.verify_op()
        return op

    @property
    def source(self) -> Value:
        return self.operand(0)

    @property
    def destination(self) -> Value:
        return self.operand(1)

    def verify_op(self) -> None:
        src_type = self.source.type
        dst_type = self.destination.type
        if not isinstance(src_type, SdfgArrayType) or not isinstance(dst_type, SdfgArrayType):
            raise VerificationError("sdfg.copy operands must be sdfg.array values", self)
        if src_type.rank != dst_type.rank:
            raise VerificationError(
                f"sdfg.copy rank mismatch: {src_type} vs {dst_type}", self
            )
        for src_dim, dst_dim in zip(src_type.shape, dst_type.shape):
            # Sizes are positive quantities: a difference provably nonzero
            # under that assumption (e.g. 2*N vs N) is a compile-time error,
            # exactly the check Fig. 3b demonstrates.
            if definitely_nonzero(src_dim - dst_dim):
                raise VerificationError(
                    f"sdfg.copy size mismatch: dimension {src_dim} != {dst_dim}", self
                )


@register_operation
class SymValueOp(Operation):
    """``sdfg.sym_value`` — reads the value of a symbolic expression.

    Symbols are read-only throughout their lifetime and therefore "readily
    accessible" inside tasklets (§3.2); this op is how an IsolatedFromAbove
    tasklet body references them without breaking SSA visibility rules.
    """

    OP_NAME = "sdfg.sym_value"

    @staticmethod
    def build(expression: str, result_type: Type) -> "SymValueOp":
        op = SymValueOp(SymValueOp.OP_NAME, result_types=[result_type])
        op.attributes["expr"] = str(expression)
        return op

    @property
    def expression(self) -> str:
        return self.attributes["expr"]
