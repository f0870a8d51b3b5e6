"""Structured control-flow raising from the SDFG state machine.

The SDFG state machine is a general CFG; for code generation we raise it
back into structured regions (sequences, counted/while loops, branches)
using dominator analysis — the same capability §5.1 notes for the reverse
(SDFG → MLIR) direction.  State machines that do not fit the structured
patterns fall back to a generic dispatch region, so any SDFG can be
generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..symbolic import Expr, Not
from ..sdfg import SDFG, SDFGState
from ..transforms.loop_analysis import LoopInfo, find_loops


class ControlFlowNode:
    """Base class of structured control-flow tree nodes."""


@dataclass
class StateNode(ControlFlowNode):
    """Execute one state, then apply the assignments of its taken edge."""

    state: SDFGState
    assignments: Dict[str, Expr] = field(default_factory=dict)


@dataclass
class SequenceNode(ControlFlowNode):
    children: List[ControlFlowNode] = field(default_factory=list)


@dataclass
class LoopNode(ControlFlowNode):
    """``while condition:`` loop around a guard state; ``info`` is what
    :func:`~repro.transforms.loop_analysis.find_loops` found about it."""

    guard: SDFGState
    condition: Expr
    body: SequenceNode
    info: LoopInfo
    exit_assignments: Dict[str, Expr] = field(default_factory=dict)


@dataclass
class BranchNode(ControlFlowNode):
    """Two-way branch with a merge point."""

    condition: Expr
    then_body: SequenceNode
    else_body: SequenceNode
    then_assignments: Dict[str, Expr] = field(default_factory=dict)
    else_assignments: Dict[str, Expr] = field(default_factory=dict)


@dataclass
class DispatchNode(ControlFlowNode):
    """Fallback: interpret the remaining state machine generically."""

    entry: SDFGState
    states: List[SDFGState] = field(default_factory=list)


class ControlFlowBuilder:
    """Builds the structured control-flow tree of an SDFG."""

    def __init__(self, sdfg: SDFG):
        self.sdfg = sdfg
        self.loops: Dict[SDFGState, LoopInfo] = {
            loop.guard: loop for loop in find_loops(sdfg)
        }
        self._postdominators = self._compute_postdominators()
        # States participating in cycles that are not recognized structured
        # loops must be emitted by the generic dispatcher.
        self._cyclic_states: Set[SDFGState] = sdfg.on_cycles()
        loop_covered = set(self.loops)
        for loop in self.loops.values():
            loop_covered |= loop.body_states
        self._unstructured_cycles = self._cyclic_states - loop_covered

    def _compute_postdominators(self) -> Dict[SDFGState, Optional[SDFGState]]:
        # Dominators of the reversed edges, from a virtual sink that every
        # state without successors leaves to; the sink itself reads as None.
        sdfg, sink = self.sdfg, object()
        exits = [state for state in sdfg.states() if sdfg.out_degree(state) == 0]
        dominators = sdfg.immediate_dominators(
            sink,
            successors=lambda state: exits if state is sink else sdfg.predecessors(state),
            predecessors=lambda state: [sink] if state in exits else sdfg.successors(state),
        )
        return {
            state: None if parent is sink else parent
            for state, parent in dominators.items()
            if state is not sink
        }

    # -- public API ---------------------------------------------------------------
    def build(self) -> SequenceNode:
        if self.sdfg.start_state is None:
            return SequenceNode([])
        return self._build_region(self.sdfg.start_state, None)

    # -- region construction ---------------------------------------------------------
    def _build_region(self, entry: SDFGState, stop: Optional[SDFGState]) -> SequenceNode:
        sequence = SequenceNode([])
        current: Optional[SDFGState] = entry
        visited: Set[SDFGState] = set()
        while current is not None and current is not stop:
            if current in visited or current in self._unstructured_cycles:
                # Unexpected cycle not recognized as a loop: fall back.
                sequence.children.append(self._dispatch_from(current))
                return sequence
            visited.add(current)

            loop = self.loops.get(current)
            if loop is not None and loop.exit_edge is not None:
                body = self._build_region(loop.body_edge.dst, current)
                sequence.children.append(
                    LoopNode(
                        guard=current,
                        condition=loop.body_edge.data.condition,
                        body=body,
                        exit_assignments=dict(loop.exit_edge.data.assignments),
                        info=loop,
                    )
                )
                current = loop.exit_edge.dst
                continue

            out_edges = self.sdfg.out_edges(current)
            if len(out_edges) == 0:
                sequence.children.append(StateNode(current))
                current = None
            elif len(out_edges) == 1:
                edge = out_edges[0]
                if not edge.data.is_unconditional:
                    # Conditionally-executed tail without an else branch.
                    sequence.children.append(StateNode(current))
                    merge = self._postdominators.get(current)
                    then_body = self._build_region(edge.dst, merge)
                    sequence.children.append(
                        BranchNode(
                            condition=edge.data.condition,
                            then_body=then_body,
                            else_body=SequenceNode([]),
                            then_assignments=dict(edge.data.assignments),
                        )
                    )
                    current = merge
                else:
                    sequence.children.append(
                        StateNode(current, dict(edge.data.assignments))
                    )
                    current = edge.dst
            elif len(out_edges) == 2:
                merge = self._postdominators.get(current)
                if merge is None and stop is None:
                    sequence.children.append(self._dispatch_from(current))
                    return sequence
                first, second = out_edges
                # Prefer the positively-conditioned edge as the "then" branch.
                if isinstance(first.data.condition, Not):
                    first, second = second, first
                sequence.children.append(StateNode(current))
                then_body = self._build_region(first.dst, merge if merge is not None else stop)
                else_body = self._build_region(second.dst, merge if merge is not None else stop)
                sequence.children.append(
                    BranchNode(
                        condition=first.data.condition,
                        then_body=then_body,
                        else_body=else_body,
                        then_assignments=dict(first.data.assignments),
                        else_assignments=dict(second.data.assignments),
                    )
                )
                current = merge
            else:
                sequence.children.append(self._dispatch_from(current))
                return sequence
        return sequence

    def _dispatch_from(self, entry: SDFGState) -> DispatchNode:
        # ``descendants`` is a set of id-hashed states: list them in SDFG
        # state order, so every process emits the same dispatcher.
        descendants = self.sdfg.descendants(entry)
        reachable = [entry] + [s for s in self.sdfg.states() if s in descendants]
        return DispatchNode(entry=entry, states=reachable)


def build_control_flow(sdfg: SDFG) -> SequenceNode:
    """Build the structured control-flow tree of ``sdfg``."""
    return ControlFlowBuilder(sdfg).build()


def states_in_tree(node: ControlFlowNode) -> List[SDFGState]:
    """All states referenced by a control-flow tree (for coverage checks)."""
    result: List[SDFGState] = []
    if isinstance(node, StateNode):
        result.append(node.state)
    elif isinstance(node, SequenceNode):
        for child in node.children:
            result.extend(states_in_tree(child))
    elif isinstance(node, LoopNode):
        result.append(node.guard)
        result.extend(states_in_tree(node.body))
    elif isinstance(node, BranchNode):
        result.extend(states_in_tree(node.then_body))
        result.extend(states_in_tree(node.else_body))
    elif isinstance(node, DispatchNode):
        result.extend(node.states)
    return result
