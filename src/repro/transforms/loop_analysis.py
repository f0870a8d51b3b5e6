"""Detection of structured loops in the SDFG state machine.

The converter lowers ``scf.for`` to a guard state with a conditional body
edge, a conditional exit edge, and a latch edge carrying the increment
assignment.  Several consumers need to re-discover that structure: the
structured code generator (raising control flow back from the state
machine, as §5.1 notes is possible via dominator analysis), the
redundant-iteration and loop-to-map transformations, and the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Set

from ..symbolic import Compare, Expr, Integer, Range, Symbol
from ..sdfg import SDFG, SDFGState, StateEdge


@dataclass
class LoopInfo:
    """A natural loop in the state machine with a recognized guard."""

    guard: SDFGState
    body_states: Set[SDFGState]
    entry_edges: List[StateEdge]
    body_edge: StateEdge
    exit_edge: StateEdge
    latch_edges: List[StateEdge]
    induction_symbol: Optional[str] = None
    init_expr: Optional[Expr] = None
    step_expr: Optional[Expr] = None
    bound_expr: Optional[Expr] = None  # loop runs while  induction < bound

    @property
    def condition(self) -> Expr:
        return self.body_edge.data.condition

    def trip_count(self) -> Optional[Expr]:
        if self.init_expr is None or self.bound_expr is None or self.step_expr is None:
            return None
        if self.step_expr != Integer(1):
            return (self.bound_expr - self.init_expr + self.step_expr - 1) // self.step_expr
        return self.bound_expr - self.init_expr


def _back_edges(sdfg: SDFG) -> List[StateEdge]:
    """Edges whose destination dominates their source (loop latches)."""
    if sdfg.start_state is None:
        return []
    dominators = sdfg.immediate_dominators(sdfg.start_state)

    def dominates(a: SDFGState, b: SDFGState) -> bool:
        current = b
        while True:
            if current is a:
                return True
            parent = dominators.get(current)
            if parent is None or parent is current:
                return False
            current = parent

    result = []
    for edge in sdfg.edges():
        if edge.dst in dominators and dominates(edge.dst, edge.src):
            result.append(edge)
    return result


def _natural_loop(sdfg: SDFG, back_edge: StateEdge) -> Set[SDFGState]:
    """States of the natural loop defined by a back edge (including guard)."""
    guard = back_edge.dst
    body: Set[SDFGState] = {guard, back_edge.src}
    stack = [back_edge.src]
    while stack:
        state = stack.pop()
        if state is guard:
            continue
        for edge in sdfg.in_edges(state):
            if edge.src not in body:
                body.add(edge.src)
                stack.append(edge.src)
    return body


def find_loops(sdfg: SDFG) -> List[LoopInfo]:
    """Find structured loops: guards with one body edge and one exit edge."""
    loops: Dict[SDFGState, LoopInfo] = {}
    for back_edge in _back_edges(sdfg):
        guard = back_edge.dst
        body = _natural_loop(sdfg, back_edge)
        out_edges = sdfg.out_edges(guard)
        if len(out_edges) != 2:
            continue
        inside = [edge for edge in out_edges if edge.dst in body]
        outside = [edge for edge in out_edges if edge.dst not in body]
        if len(inside) != 1 or len(outside) != 1:
            continue
        entry_edges = [
            edge for edge in sdfg.in_edges(guard) if edge.src not in body or edge.src is guard
        ]
        entry_edges = [edge for edge in entry_edges if edge is not back_edge]
        if guard in loops:
            # Merge latches of nested back edges onto the same guard.
            loops[guard].latch_edges.append(back_edge)
            loops[guard].body_states |= body
            continue
        info = LoopInfo(
            guard=guard,
            body_states=body - {guard},
            entry_edges=entry_edges,
            body_edge=inside[0],
            exit_edge=outside[0],
            latch_edges=[back_edge],
        )
        _recognize_counted_loop(info)
        loops[guard] = info
    return list(loops.values())


def _recognize_counted_loop(info: LoopInfo) -> None:
    """Fill induction symbol / bounds when the loop is a counted loop."""
    condition = info.body_edge.data.condition
    if not isinstance(condition, Compare) or condition.op not in ("<", "<="):
        return
    if not isinstance(condition.lhs, Symbol):
        return
    induction = condition.lhs.name
    bound = condition.rhs if condition.op == "<" else condition.rhs + Integer(1)

    init_expr: Optional[Expr] = None
    for edge in info.entry_edges:
        if induction in edge.data.assignments:
            init_expr = edge.data.assignments[induction]
    step_expr: Optional[Expr] = None
    for edge in info.latch_edges:
        if induction in edge.data.assignments:
            increment = edge.data.assignments[induction]
            step_expr = increment - Symbol(induction)
    if init_expr is None or step_expr is None:
        return
    if step_expr.free_symbols():
        return
    info.induction_symbol = induction
    info.init_expr = init_expr
    info.step_expr = step_expr
    info.bound_expr = bound


def induction_ranges(sdfg: SDFG, loops: List[LoopInfo]) -> Dict[SDFGState, Dict[str, Range]]:
    """Per state, the range ``[init, bound)`` each counted loop around it holds
    its induction variable in.

    That range is a fact of the loop's body when the loop moves the
    variable only up: every entry sets it to ``init``, the latch adds a
    positive literal to it, no other edge inside the loop assigns it or
    a symbol ``init`` or ``bound`` names, and neither names a data
    container (which the body's dataflow may write).  A loop that breaks
    any of these tells nothing.
    """
    ranges: Dict[SDFGState, Dict[str, Range]] = {}
    for loop in loops:
        induction = loop.induction_symbol
        if induction is None or loop.bound_expr is None or loop.init_expr is None:
            continue
        frozen = {
            symbol.name for symbol in loop.init_expr.free_symbols() | loop.bound_expr.free_symbols()
        }

        def moves(edge: StateEdge) -> bool:
            """Whether ``edge``, inside the loop, assigns a symbol of the
            bounds, or the induction variable other than as the latch's step up."""
            assigned = edge.data.assignments
            if frozen & assigned.keys():
                return True
            if induction not in assigned:
                return False
            step = assigned[induction] - Symbol(induction)
            return not (edge in loop.latch_edges and isinstance(step, Integer) and step.value > 0)

        inside = loop.body_states | {loop.guard}
        if (frozen | {induction}) & sdfg.arrays.keys() or any(
            edge.data.assignments.get(induction) != loop.init_expr
            or frozen & edge.data.assignments.keys()
            for edge in loop.entry_edges
        ) or any(
            moves(edge) for state in inside for edge in sdfg.out_edges(state) if edge.dst in inside
        ):
            continue
        rng = Range(loop.init_expr, loop.bound_expr)
        for state in loop.body_states:
            ranges.setdefault(state, {})[induction] = rng
    return ranges


def lazy_induction_ranges(
    sdfg: SDFG, loops: Optional[List[LoopInfo]] = None,
) -> Callable[[], Dict[SDFGState, Dict[str, Range]]]:
    """:func:`induction_ranges` of ``sdfg`` over ``loops`` — by default the
    loops :func:`find_loops` finds — computed on the first call."""
    return lru_cache(maxsize=None)(
        lambda: induction_ranges(sdfg, find_loops(sdfg) if loops is None else loops)
    )
