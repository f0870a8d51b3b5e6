"""Core IR data structures: values, operations, blocks and regions.

This is the reproduction's equivalent of MLIR's core IR: SSA values with
use lists, operations carrying operands/results/attributes/regions, basic
blocks with arguments, and regions.  Operations are instances of
:class:`Operation` subclasses registered by their dialect-qualified name
(e.g. ``"arith.addi"``); a generic :class:`Operation` can represent any
unregistered op, mirroring MLIR's generic op form.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .types import Type


class IRError(Exception):
    """Raised for structurally invalid IR manipulations."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Use:
    """A single use of a value: (operation, operand index)."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Use({self.operation.name}, {self.index})"


class Value:
    """An SSA value: either an operation result or a block argument."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: Type, name_hint: Optional[str] = None):
        self.type = type
        self.uses: List[Use] = []
        self.name_hint = name_hint

    # Use-list management (maintained by Operation.set_operand) --------------
    def add_use(self, operation: "Operation", index: int) -> None:
        self.uses.append(Use(operation, index))

    def remove_use(self, operation: "Operation", index: int) -> None:
        for position, use in enumerate(self.uses):
            if use.operation is operation and use.index == index:
                del self.uses[position]
                return

    def has_uses(self) -> bool:
        return bool(self.uses)

    def users(self) -> List["Operation"]:
        """Distinct operations using this value, in use order."""
        seen: List[Operation] = []
        for use in self.uses:
            if use.operation not in seen:
                seen.append(use.operation)
        return seen

    def replace_all_uses_with(self, replacement: "Value") -> None:
        if replacement is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, replacement)

    @property
    def owner(self):
        """The operation or block that defines this value."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name_hint or ''}: {self.type}>"


class OpResult(Value):
    """Result value produced by an operation."""

    __slots__ = ("operation", "result_index")

    def __init__(self, operation: "Operation", index: int, type: Type):
        super().__init__(type)
        self.operation = operation
        self.result_index = index

    @property
    def owner(self) -> "Operation":
        return self.operation


class BlockArgument(Value):
    """Argument of a basic block (function/loop arguments)."""

    __slots__ = ("block", "arg_index")

    def __init__(self, block: "Block", index: int, type: Type):
        super().__init__(type)
        self.block = block
        self.arg_index = index

    @property
    def owner(self) -> "Block":
        return self.block


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

OPERATION_REGISTRY: Dict[str, type] = {}


def register_operation(cls: type) -> type:
    """Class decorator registering an :class:`Operation` subclass by name."""
    name = getattr(cls, "OP_NAME", None)
    if not name:
        raise IRError(f"Operation class {cls.__name__} lacks an OP_NAME")
    OPERATION_REGISTRY[name] = cls
    return cls


class Operation:
    """A single IR operation.

    Subclasses set ``OP_NAME`` and may set the trait flags below.  Anything
    not represented by a subclass can still be built as a generic
    ``Operation(name, ...)``.
    """

    OP_NAME: str = "builtin.unregistered"

    #: The op writes memory or has other observable effects (calls, stores).
    HAS_SIDE_EFFECTS: bool = False
    #: The op reads memory (loads); relevant for LICM and CSE.
    READS_MEMORY: bool = False
    #: The op allocates or frees memory.
    IS_ALLOCATION: bool = False
    #: The op terminates its block (return, yield, branch).
    IS_TERMINATOR: bool = False
    #: Regions of the op cannot reference SSA values defined outside it.
    IS_ISOLATED_FROM_ABOVE: bool = False

    def __init__(
        self,
        name: Optional[str] = None,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Any]] = None,
        regions: int = 0,
    ):
        self.name = name or self.OP_NAME
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.parent_block: Optional[Block] = None
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(self, index, type) for index, type in enumerate(result_types)
        ]
        self.regions: List[Region] = [Region(self) for _ in range(regions)]
        for value in operands:
            self.append_operand(value)

    # -- operand management ---------------------------------------------------
    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise IRError(f"Operand of {self.name} must be a Value, got {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old.remove_use(self, index)
        self._operands[index] = value
        value.add_use(self, index)

    def drop_all_operand_uses(self) -> None:
        for index, operand in enumerate(self._operands):
            operand.remove_use(self, index)
        self._operands = []

    def operand(self, index: int) -> Value:
        return self._operands[index]

    # -- results ---------------------------------------------------------------
    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(f"Operation {self.name} has {len(self.results)} results, expected 1")
        return self.results[0]

    def has_used_results(self) -> bool:
        return any(result.has_uses() for result in self.results)

    # -- structure -------------------------------------------------------------
    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent_block is not None and self.parent_block.parent_region is not None:
            return self.parent_block.parent_region.parent_op
        return None

    def region(self, index: int = 0) -> "Region":
        return self.regions[index]

    def walk(self, post_order: bool = False) -> Iterator["Operation"]:
        """Iterate over this op and all nested ops.

        The traversal reads the live operation lists without defensive
        copies; callers that erase or move operations during the walk must
        snapshot it first (``for op in list(module.walk()): ...``), as the
        mutating passes do.
        """
        if post_order:
            for op in self._nested_ops():
                yield from op.walk(post_order=True)
            yield self
            return
        # Pre-order with an explicit stack of child iterators: one generator
        # frame per op yielded instead of one per nesting level above it.
        yield self
        stack = [self._nested_ops()]
        while stack:
            for op in stack[-1]:
                yield op
                if op.regions:
                    stack.append(op._nested_ops())
                    break
            else:
                stack.pop()

    def _nested_ops(self) -> Iterator["Operation"]:
        """Directly nested ops, read lazily from the live lists."""
        return chain.from_iterable(
            block.operations for region in self.regions for block in region.blocks
        )

    # -- mutation ---------------------------------------------------------------
    def erase(self) -> None:
        """Remove the op from its block.  Results must be unused."""
        for result in self.results:
            if result.has_uses():
                raise IRError(
                    f"Cannot erase {self.name}: result still has "
                    f"{len(result.uses)} use(s)"
                )
        # Recursively drop nested ops so their operand uses disappear too
        # (dropping uses does not alter the block/region lists).
        for region in self.regions:
            for block in region.blocks:
                for op in block.operations:
                    op.drop_all_operand_uses()
                    for result in op.results:
                        result.uses.clear()
        self.drop_all_operand_uses()
        if self.parent_block is not None:
            self.parent_block.remove(self)

    def move_before(self, other: "Operation") -> None:
        if other.parent_block is None:
            raise IRError("Cannot move before an op that is not in a block")
        if self.parent_block is not None:
            self.parent_block.remove(self)
        block = other.parent_block
        block.insert_before(other, self)

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy the operation (and nested regions), remapping operands."""
        value_map = value_map if value_map is not None else {}
        cls = type(self)
        new_op = cls.__new__(cls)
        Operation.__init__(
            new_op,
            name=self.name,
            operands=[value_map.get(operand, operand) for operand in self._operands],
            result_types=[result.type for result in self.results],
            attributes=_clone_attributes(self.attributes),
            regions=0,
        )
        for old_result, new_result in zip(self.results, new_op.results):
            value_map[old_result] = new_result
        for region in self.regions:
            new_region = Region(new_op)
            new_op.regions.append(new_region)
            for block in region.blocks:
                new_block = Block([arg.type for arg in block.arguments])
                new_region.append_block(new_block)
                for old_arg, new_arg in zip(block.arguments, new_block.arguments):
                    value_map[old_arg] = new_arg
            for block, new_block in zip(region.blocks, new_region.blocks):
                for op in block.operations:
                    new_block.append(op.clone(value_map))
        return new_op

    # -- effect queries ----------------------------------------------------------
    def has_side_effects(self) -> bool:
        """Whether the op (including nested ops) has observable side effects."""
        if self.HAS_SIDE_EFFECTS or self.IS_ALLOCATION:
            return True
        for region in self.regions:
            for block in region.blocks:
                for op in block.operations:
                    if op.IS_TERMINATOR:
                        continue
                    if op.has_side_effects():
                        return True
        return False

    def is_pure(self) -> bool:
        return not self.has_side_effects() and not self.READS_MEMORY and not self.IS_TERMINATOR

    # -- misc ---------------------------------------------------------------------
    def get_attr(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import print_operation

        try:
            return print_operation(self)
        except Exception:
            return f"<{self.name}>"


def _clone_attributes(attributes: Dict[str, Any]) -> Dict[str, Any]:
    cloned: Dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, list):
            cloned[key] = list(value)
        elif isinstance(value, dict):
            cloned[key] = dict(value)
        else:
            cloned[key] = value
    return cloned


# ---------------------------------------------------------------------------
# Blocks and regions
# ---------------------------------------------------------------------------


class Block:
    """A straight-line sequence of operations with block arguments."""

    def __init__(self, arg_types: Sequence[Type] = ()):
        self.arguments: List[BlockArgument] = []
        self.operations: List[Operation] = []
        self.parent_region: Optional[Region] = None
        for type in arg_types:
            self.add_argument(type)

    # -- arguments -----------------------------------------------------------
    def add_argument(self, type: Type, name_hint: Optional[str] = None) -> BlockArgument:
        argument = BlockArgument(self, len(self.arguments), type)
        argument.name_hint = name_hint
        self.arguments.append(argument)
        return argument

    # -- operation list -------------------------------------------------------
    def append(self, op: Operation) -> Operation:
        op.parent_block = self
        self.operations.append(op)
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        op.parent_block = self
        self.operations.insert(index, op)
        return op

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        index = self.operations.index(anchor)
        return self.insert(index, op)

    def remove(self, op: Operation) -> None:
        self.operations.remove(op)
        op.parent_block = None

    def index_of(self, op: Operation) -> int:
        return self.operations.index(op)

    @property
    def terminator(self) -> Optional[Operation]:
        if self.operations and self.operations[-1].IS_TERMINATOR:
            return self.operations[-1]
        return None

    @property
    def parent_op(self) -> Optional[Operation]:
        if self.parent_region is not None:
            return self.parent_region.parent_op
        return None

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block with {len(self.operations)} ops>"


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, parent_op: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent_op = parent_op

    def append_block(self, block: Block) -> Block:
        block.parent_region = self
        self.blocks.append(block)
        return block

    def add_block(self, arg_types: Sequence[Type] = ()) -> Block:
        return self.append_block(Block(arg_types))

    @property
    def entry_block(self) -> Block:
        if not self.blocks:
            raise IRError("Region has no blocks")
        return self.blocks[0]

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class Builder:
    """Creates operations at an insertion point, in MLIR-builder style."""

    def __init__(self, block: Optional[Block] = None, index: Optional[int] = None):
        self.block = block
        self.index = index  # None means "append at end"

    # -- positioning -----------------------------------------------------------
    @staticmethod
    def at_end(block: Block) -> "Builder":
        return Builder(block, None)

    @staticmethod
    def at_start(block: Block) -> "Builder":
        return Builder(block, 0)

    @staticmethod
    def before(op: Operation) -> "Builder":
        if op.parent_block is None:
            raise IRError("Operation is not inside a block")
        return Builder(op.parent_block, op.parent_block.index_of(op))

    @staticmethod
    def after(op: Operation) -> "Builder":
        if op.parent_block is None:
            raise IRError("Operation is not inside a block")
        return Builder(op.parent_block, op.parent_block.index_of(op) + 1)

    # -- insertion ---------------------------------------------------------------
    def insert(self, op: Operation) -> Operation:
        if self.block is None:
            raise IRError("Builder has no insertion block")
        if self.index is None:
            self.block.append(op)
        else:
            self.block.insert(self.index, op)
            self.index += 1
        return op

    def create(self, op_class_or_name, *args, **kwargs) -> Operation:
        """Build an operation via its ``build`` classmethod (or generically)."""
        if isinstance(op_class_or_name, str):
            op = Operation(op_class_or_name, *args, **kwargs)
            return self.insert(op)
        build = getattr(op_class_or_name, "build", None)
        if build is None:
            op = op_class_or_name(*args, **kwargs)
        else:
            op = build(*args, **kwargs)
        return self.insert(op)


# ---------------------------------------------------------------------------
# Utility traversals
# ---------------------------------------------------------------------------


def defining_op(value: Value) -> Optional[Operation]:
    """The operation defining ``value``, or None for block arguments."""
    if isinstance(value, OpResult):
        return value.operation
    return None
