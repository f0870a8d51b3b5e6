"""Memlet propagation: lifting per-iteration subsets to parametric subsets.

When a memlet crosses a map boundary, the subset seen outside the scope is
the union of the per-iteration subsets over the map's range.  This is the
parametric data-access tracking the paper identifies as the key analysis
tool of the SDFG IR (§2.2) and the basis of DaCe's symbolic math engine
refinement mentioned in §5.1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..symbolic import Range, Subset
from .memlet import Memlet
from .nodes import MapEntry, MapExit
from .sdfg import SDFG
from .state import MultiConnectorEdge, SDFGState


def propagate_subset(memlet: Memlet, params: List[str], ranges: List[Range]) -> Memlet:
    """Propagate a memlet's subset over the given map parameters."""
    if memlet.is_empty or memlet.subset is None:
        return memlet.clone()
    subset = memlet.subset
    # Start from the volume, not the subset size: across a nested scope the
    # memlet already carries the inner scope's repetitions.
    volume = memlet.volume
    free_names = {sym.name for sym in subset.free_symbols()}
    for param, rng in zip(params, ranges):
        # Whether or not the access depends on this parameter, every
        # iteration contributes to the moved volume; the subset only grows
        # for parameters it actually mentions.
        if param in free_names:
            subset = subset.bounding_box_over(param, rng)
            free_names = {sym.name for sym in subset.free_symbols()}
        volume = volume * rng.num_elements()
    result = Memlet(data=memlet.data, subset=subset, wcr=memlet.wcr, dynamic=memlet.dynamic)
    result.volume = volume
    return result


def propagate_memlets_scope(state: SDFGState, entry: MapEntry) -> None:
    """Recompute the outer-facing memlets of one map scope from the inner ones."""
    exit_node = state.exit_node(entry)
    params = entry.map.params
    ranges = entry.map.ranges

    # Input side: outer edge IN_x -> entry; inner edges entry OUT_x -> ...
    for outer_edge in state.in_edges(entry):
        if not outer_edge.dst_conn or not outer_edge.dst_conn.startswith("IN_"):
            continue
        connector = outer_edge.dst_conn[3:]
        inner_memlets = [
            edge.data
            for edge in state.out_edges(entry)
            if edge.src_conn == f"OUT_{connector}" and not edge.data.is_empty
        ]
        propagated = _union_propagated(inner_memlets, params, ranges)
        if propagated is not None:
            outer_edge.data = propagated

    # Output side: inner edges ... -> exit IN_x; outer edge exit OUT_x -> ...
    for outer_edge in state.out_edges(exit_node):
        if not outer_edge.src_conn or not outer_edge.src_conn.startswith("OUT_"):
            continue
        connector = outer_edge.src_conn[4:]
        inner_memlets = [
            edge.data
            for edge in state.in_edges(exit_node)
            if edge.dst_conn == f"IN_{connector}" and not edge.data.is_empty
        ]
        propagated = _union_propagated(inner_memlets, params, ranges)
        if propagated is not None:
            outer_edge.data = propagated


def _union_propagated(
    memlets: List[Memlet], params: List[str], ranges: List[Range]
) -> Optional[Memlet]:
    propagated: Optional[Memlet] = None
    for memlet in memlets:
        lifted = propagate_subset(memlet, params, ranges)
        propagated = lifted if propagated is None else propagated.union(lifted)
    return propagated


def propagate_memlets_state(sdfg: SDFG, state: SDFGState) -> None:
    """Propagate memlets through every map scope of a state (innermost first)."""
    scope = state.scope_dict()
    entries = [node for node in state.nodes() if isinstance(node, MapEntry)]
    # Innermost scopes have the longest chain of enclosing entries.
    def depth(node) -> int:
        count = 0
        current = scope.get(node)
        while current is not None:
            count += 1
            current = scope.get(current)
        return count

    for entry in sorted(entries, key=depth, reverse=True):
        propagate_memlets_scope(state, entry)


def propagate_memlets_sdfg(sdfg: SDFG) -> None:
    """Propagate memlets through all map scopes of all states."""
    for state in sdfg.states():
        propagate_memlets_state(sdfg, state)
