"""Data-movement cost model.

The paper explains performance differences through data movement (bytes
moved, allocations on the critical path, cache behaviour measured with
PAPI).  Native counters are not available here, so this module computes a
static movement report from the IR itself: per-state memlet volumes are
multiplied by the (symbolically evaluated) execution count of the state
derived from the structured control-flow tree, and allocations are counted
with the same multiplier.  The reports play the role of the paper's
performance-counter analysis when explaining *why* one pipeline is faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..symbolic import Expr, Integer, SymbolicError
from ..sdfg import SDFG, AccessNode, SDFGState
from ..sdfg.data import Array, LIFETIME_PERSISTENT, Scalar
from ..sdfg.nodes import MapEntry, SCHEDULE_PARALLEL
from ..sdfg.parallelism import default_workers
from .control_flow import (
    BranchNode,
    ControlFlowNode,
    LoopNode,
    SequenceNode,
    StateNode,
    build_control_flow,
    states_in_tree,
)


@dataclass
class MovementReport:
    """Aggregate data-movement statistics for one program.

    ``iterations`` models dynamic loop overhead: the total number of
    innermost-body executions of state-machine loops *and* map scopes.
    """

    elements_moved: float = 0.0
    bytes_moved: float = 0.0
    allocations: float = 0.0
    allocated_bytes: float = 0.0
    iterations: float = 0.0
    per_container: Dict[str, float] = field(default_factory=dict)

    def add(self, container: str, elements: float, element_bytes: int) -> None:
        self.elements_moved += elements
        self.bytes_moved += elements * element_bytes
        self.per_container[container] = self.per_container.get(container, 0.0) + elements

    def __str__(self) -> str:
        return (
            f"MovementReport(elements={self.elements_moved:.0f}, "
            f"bytes={self.bytes_moved:.0f}, allocations={self.allocations:.0f}, "
            f"iterations={self.iterations:.0f})"
        )


#: Bytes-equivalent cost charged per dynamic allocation by
#: :func:`movement_score` — allocations sit on the critical path (the paper's
#: §7 explanation for the `gcc`/`clang` gap), so a heap allocation is charged
#: like moving one cache line's worth of data.
ALLOCATION_COST_BYTES = 256.0

#: Bytes-equivalent cost charged per dynamic loop/map iteration by
#: :func:`movement_score` — loop bookkeeping (index arithmetic, branch)
#: costs roughly as much as moving a couple of bytes.  This is what makes
#: vector emission (one vector operation instead of N scalar iterations)
#: visible to the static evaluator.
ITERATION_COST_BYTES = 2.0

#: Iterations-equivalent fork/join overhead charged per dynamic execution
#: of a parallel-scheduled map scope.  Spawning and joining workers costs
#: real time regardless of the range, so a parallel schedule only wins in
#: the static model when the per-worker share of the body executions
#: shrinks by more than this constant — which is what keeps the tuner from
#: parallelizing tiny maps.
PARALLEL_FORK_JOIN_ITERATIONS = 512.0


def movement_score(
    report: "MovementReport",
    allocation_cost_bytes: float = ALLOCATION_COST_BYTES,
    iteration_cost_bytes: float = ITERATION_COST_BYTES,
) -> float:
    """Scalar cost of a movement report — lower is better.

    The score is the modeled byte traffic plus allocation and
    loop-overhead penalties: ``bytes_moved + allocation_cost_bytes *
    allocations + iteration_cost_bytes * iterations``.  It is a pure
    function of the report, hence deterministic, and *monotone* in data
    movement: adding any movement (e.g. a redundant copy state), any
    allocation or any loop iteration strictly increases it.  The
    auto-tuner's static evaluator ranks candidate pipelines by this
    number in place of measured runtime.
    """
    return float(
        report.bytes_moved
        + allocation_cost_bytes * report.allocations
        + iteration_cost_bytes * report.iterations
    )


def sdfg_score(sdfg: SDFG, symbols: Optional[Mapping[str, float]] = None) -> float:
    """Static cost of an SDFG: :func:`movement_score` of its movement report."""
    return movement_score(sdfg_movement_report(sdfg, symbols))


def _evaluate(expression: Expr, symbols: Mapping[str, float], default: float = 1.0) -> float:
    try:
        return float(expression.evaluate(dict(symbols)))
    except (SymbolicError, TypeError, ValueError):
        return default


def sdfg_movement_report(sdfg: SDFG, symbols: Optional[Mapping[str, float]] = None) -> MovementReport:
    """Static data-movement report of an SDFG under given symbol values."""
    symbols = dict(symbols or {})
    symbols.update(sdfg.constants)
    report = MovementReport()
    tree = build_control_flow(sdfg)
    _walk(sdfg, tree, 1.0, symbols, report)
    return report


def _walk(sdfg: SDFG, node: ControlFlowNode, multiplier: float, symbols, report) -> None:
    if isinstance(node, SequenceNode):
        for child in node.children:
            _walk(sdfg, child, multiplier, symbols, report)
    elif isinstance(node, StateNode):
        _count_state(sdfg, node.state, multiplier, symbols, report)
    elif isinstance(node, LoopNode):
        trips = _loop_trip_count(node, symbols)
        report.iterations += multiplier * trips
        for state in (*states_in_tree(node.head), node.guard):
            _count_state(sdfg, state, multiplier * (trips + 1), symbols, report)
        _walk(sdfg, node.body, multiplier * trips, symbols, report)
    elif isinstance(node, BranchNode):
        # Both branches weighted by half (no branch-probability information).
        _walk(sdfg, node.then_body, multiplier * 0.5, symbols, report)
        _walk(sdfg, node.else_body, multiplier * 0.5, symbols, report)


def _scope_context(scope, innermost, symbols) -> "Tuple[Dict[str, float], float]":
    """Bindings and iteration scale of an enclosing map-scope chain.

    Walks the scope chain outermost-first, multiplying each map's range
    product into the scale and binding its parameters to their range
    *starts* — so scope-dependent inner bounds (the ``[t, min(t + T, N))``
    ranges tiling creates) evaluate to their typical (first-tile) extent
    instead of silently defaulting to 1.
    """
    chain = []
    current = innermost
    while current is not None:
        chain.append(current)
        current = scope.get(current)
    bindings: Dict[str, float] = dict(symbols)
    scale = 1.0
    for entry in reversed(chain):
        for param, rng in zip(entry.map.params, entry.map.ranges):
            scale *= max(1.0, _evaluate(rng.num_elements(), bindings, default=1.0))
            bindings[param] = _evaluate(rng.start, bindings, default=0.0)
    return bindings, scale


def _map_body_executions(map_obj, symbols) -> float:
    """Dynamic body executions of one map scope per enclosing execution.

    The range product of its parameters.  A parallel-scheduled map charges
    the per-worker share of its body executions (its critical path) plus a
    fork/join constant — byte traffic is unchanged, since parallelism moves
    the same data.
    """
    product = 1.0
    for rng in map_obj.ranges:
        product *= max(1.0, _evaluate(rng.num_elements(), symbols, default=1.0))
    if map_obj.schedule == SCHEDULE_PARALLEL:
        workers = float(map_obj.n_threads or default_workers())
        return max(1.0, product / max(1.0, workers)) + PARALLEL_FORK_JOIN_ITERATIONS
    return product


def _loop_trip_count(node: LoopNode, symbols) -> float:
    trip = node.info.trip_count()
    return 1.0 if trip is None else max(0.0, _evaluate(trip, symbols, default=1.0))


def _count_state(sdfg: SDFG, state: SDFGState, multiplier: float, symbols, report: MovementReport) -> None:
    # Allocation cost: non-persistent transient arrays allocate on every
    # execution of the state that first touches them.
    for name in state.read_set() | state.write_set():
        descriptor = sdfg.arrays.get(name)
        if (
            isinstance(descriptor, Array)
            and descriptor.transient
            and descriptor.lifetime != LIFETIME_PERSISTENT
        ):
            report.allocations += multiplier
            report.allocated_bytes += multiplier * _evaluate(descriptor.size_in_bytes(), symbols)

    scope = state.scope_dict()

    # Loop overhead of map scopes: each map contributes its dynamic body
    # executions (own range product — or 1 per execution when annotated
    # for vector emission — times every enclosing scope's contribution).
    for entry in state.map_entries():
        bindings, scale = _scope_context(scope, scope.get(entry), symbols)
        report.iterations += multiplier * scale * _map_body_executions(entry.map, bindings)

    for edge in state.edges():
        memlet = edge.data
        if memlet.is_empty or memlet.data is None:
            continue
        descriptor = sdfg.arrays.get(memlet.data)
        if descriptor is None:
            continue
        # Only count movement at container boundaries (edges touching access
        # nodes), once per edge, scaled by enclosing map ranges.
        if not isinstance(edge.src, AccessNode) and not isinstance(edge.dst, AccessNode):
            continue
        # Scale by the scopes enclosing the *access-node* endpoint: a
        # boundary memlet's propagated volume already aggregates the
        # per-iteration traffic of the scope it crosses, so scaling it by
        # the code-side endpoint's scope would double-count (and make
        # strip-mining look like it reduced traffic).
        anchor = edge.src if isinstance(edge.src, AccessNode) else edge.dst
        bindings, scope_scale = _scope_context(scope, scope.get(anchor), symbols)
        elements = _evaluate(memlet.volume, bindings, default=1.0)
        report.add(memlet.data, elements * multiplier * scope_scale, descriptor.element_bytes())

    # Persistent allocations are counted once, attributed to the start state.
    if state is sdfg.start_state:
        for name, descriptor in sdfg.arrays.items():
            if (
                isinstance(descriptor, Array)
                and descriptor.transient
                and descriptor.lifetime == LIFETIME_PERSISTENT
            ):
                report.allocations += 1
                report.allocated_bytes += _evaluate(descriptor.size_in_bytes(), symbols)
