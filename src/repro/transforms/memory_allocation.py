"""Memory scheduling optimizations (§6.3): (pre-)allocation heuristics.

Two pattern-based heuristics deal with allocation placement in arbitrary
MLIR codes:

* :class:`StackPromotion` — decide whether a container can live on the
  stack (or in registers) rather than the heap, based on a static size
  threshold.  On the paper's ``gesummv`` this is the optimization that
  moves one of the five arrays to the stack.  The threshold is the
  transformation's tunable parameter (``max_elements``).
* :class:`MemoryPreAllocation` — move allocation to the outermost scope it
  can (no data races in the sequential model), removing allocation calls
  from the critical path; containers become ``persistent`` and are
  allocated once, up front, by the code generator.  This is what removes
  the per-iteration allocations Torch-MLIR leaves in the Mish benchmark.

Each match is one promotable container; both transforms sweep their match
list once per run (container promotions are independent sites).

What the two decide is a container's ``storage`` and ``lifetime``, and
through them the ``__allocations`` count both backends report (a
persistent container is charged once up front, any other each time its
first-use state runs).  On the native backend that count is all they
decide: every transient array, whatever its size, storage or lifetime,
is a slice of the calling thread's workspace
(:mod:`repro.codegen.sdfg_c`), mapped before the first call and kept —
so no native call allocates, with or without these passes, and neither
pass can move a native timing.  Both therefore remain candidates in
ROADMAP's per-pass attribution item.
"""

from __future__ import annotations

from typing import List

from ..sdfg import SDFG, STORAGE_STACK
from ..sdfg.data import Array, LIFETIME_PERSISTENT
from .rewrite import Match, Transformation

#: Containers of at most this many elements are promoted to the stack.
DEFAULT_STACK_THRESHOLD = 64 * 1024


class StackPromotion(Transformation):
    """Promote small, statically-sized transients to stack storage."""

    NAME = "stack-promotion"
    DRAIN = "sweep"
    PARAMS = {"max_elements": (1024, 16 * 1024, DEFAULT_STACK_THRESHOLD, 256 * 1024)}

    def __init__(self, max_elements: int = DEFAULT_STACK_THRESHOLD, **kwargs):
        super().__init__(**kwargs)
        self.max_elements = max_elements

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for name, descriptor in sdfg.arrays.items():
            if not self._eligible(descriptor):
                continue
            matches.append(Match(
                transformation=self.name,
                kind="container",
                where="<sdfg>",
                subject=f"{name} ({descriptor.total_size()} elements)",
                payload={"name": name},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        name = match.payload["name"]
        descriptor = sdfg.arrays.get(name)
        if descriptor is None or not self._eligible(descriptor):
            return False
        descriptor.storage = STORAGE_STACK
        descriptor.lifetime = LIFETIME_PERSISTENT
        return True

    def _eligible(self, descriptor) -> bool:
        if not isinstance(descriptor, Array) or not descriptor.transient:
            return False
        if descriptor.storage == STORAGE_STACK:
            return False
        size = descriptor.total_size()
        if not size.is_constant():
            return False
        return size.as_int() <= self.max_elements


class MemoryPreAllocation(Transformation):
    """Hoist transient allocations to the outermost scope (pre-allocation)."""

    NAME = "memory-preallocation"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        assigned = self._assigned_symbols(sdfg)
        for name, descriptor in sdfg.arrays.items():
            if not self._eligible(descriptor, assigned):
                continue
            matches.append(Match(
                transformation=self.name,
                kind="container",
                where="<sdfg>",
                subject=name,
                payload={"name": name},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        name = match.payload["name"]
        descriptor = sdfg.arrays.get(name)
        if descriptor is None or not self._eligible(descriptor, self._assigned_symbols(sdfg)):
            return False
        descriptor.lifetime = LIFETIME_PERSISTENT
        return True

    @staticmethod
    def _assigned_symbols(sdfg: SDFG) -> set:
        assigned = set()
        for edge in sdfg.edges():
            assigned |= set(edge.data.assignments)
        return assigned

    @staticmethod
    def _eligible(descriptor, assigned_symbols: set) -> bool:
        if not isinstance(descriptor, Array) or not descriptor.transient:
            return False
        if descriptor.lifetime == LIFETIME_PERSISTENT:
            return False
        # In the sequential execution model reusing one allocation across
        # loop iterations is always race-free, so hoisting is always legal
        # as long as the size does not depend on symbols assigned inside
        # the program (loop indices).
        shape_symbols = {symbol.name for symbol in descriptor.free_symbols()}
        return not (shape_symbols & assigned_symbols)
