"""IR structural verifier.

Checks the invariants that the pass infrastructure and the conversion to
the ``sdfg`` dialect rely on:

* every operand is defined before use (dominance within a block, or
  defined in an enclosing non-isolated scope),
* blocks of ops that require terminators end in one,
* isolated-from-above regions (functions, tasklets) do not reference
  values defined outside,
* per-op ``verify_op`` hooks (operand counts, type agreement) pass.
"""

from __future__ import annotations

from typing import List, Optional, Set

from .core import Block, BlockArgument, IRError, Operation, OpResult, Region, Value


class VerificationError(IRError):
    """Raised when the IR violates a structural invariant."""

    def __init__(self, message: str, op: Optional[Operation] = None):
        self.op = op
        if op is not None:
            message = f"{message} (in op '{op.name}')"
        super().__init__(message)


def verify(root: Operation) -> None:
    """Verify ``root`` and everything nested inside it."""
    _verify_op(root, visible=set())


def _verify_op(op: Operation, visible: Set[Value]) -> None:
    # Operand visibility --------------------------------------------------------
    for index, operand in enumerate(op.operands):
        if operand not in visible:
            raise VerificationError(
                f"Operand #{index} of '{op.name}' is not defined in an enclosing scope "
                "(use before def, or crossing an IsolatedFromAbove boundary)",
                op,
            )
    # Per-op hook ----------------------------------------------------------------
    hook = getattr(op, "verify_op", None)
    if hook is not None:
        hook()
    # Regions --------------------------------------------------------------------
    for region in op.regions:
        region_visible: Set[Value] = set() if op.IS_ISOLATED_FROM_ABOVE else set(visible)
        for block in region.blocks:
            block_visible = set(region_visible)
            block_visible.update(block.arguments)
            for nested in block.operations:
                _verify_op(nested, block_visible)
                block_visible.update(nested.results)
            _verify_terminator(op, block)


def _verify_terminator(parent: Operation, block: Block) -> None:
    requires_terminator = getattr(parent, "REQUIRES_TERMINATOR", False)
    if not requires_terminator:
        return
    if not block.operations:
        raise VerificationError(
            f"Block in '{parent.name}' is empty but the op requires a terminator", parent
        )
    last = block.operations[-1]
    if not last.IS_TERMINATOR:
        raise VerificationError(
            f"Block in '{parent.name}' does not end with a terminator (ends with '{last.name}')",
            parent,
        )
    for other in block.operations[:-1]:
        if other.IS_TERMINATOR:
            raise VerificationError(
                f"Terminator '{other.name}' appears in the middle of a block", parent
            )
