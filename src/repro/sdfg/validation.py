"""SDFG validation.

Checks the invariants that the data-centric passes and the code generator
rely on; the checks mirror the verification capabilities the paper credits
data-centric abstractions with (bounds analysis, §1), plus structural
sanity of the state machine and dataflow graphs.
"""

from __future__ import annotations

from typing import Set

import networkx as nx

from ..symbolic import Integer
from .data import Scalar
from .memlet import Memlet
from .nodes import AccessNode, MapEntry, MapExit, Tasklet
from .sdfg import SDFG, InvalidSDFGError
from .state import SDFGState


def validate_sdfg(sdfg: SDFG) -> None:
    """Validate the SDFG; raises :class:`InvalidSDFGError` on violations."""
    if sdfg.start_state is None and sdfg.states():
        raise InvalidSDFGError(f"SDFG {sdfg.name!r} has states but no start state")
    if sdfg.start_state is not None and sdfg.start_state not in sdfg.states():
        raise InvalidSDFGError("Start state is not part of the state machine")

    _validate_symbols(sdfg)
    for state in sdfg.states():
        validate_state(sdfg, state)
    _validate_reachability(sdfg)


def _validate_symbols(sdfg: SDFG) -> None:
    for name in sdfg.symbols:
        if name in sdfg.arrays:
            raise InvalidSDFGError(f"Name {name!r} is both a symbol and a container")
    for edge in sdfg.edges():
        for target in edge.data.assignments:
            if target in sdfg.arrays and not isinstance(sdfg.arrays[target], Scalar):
                raise InvalidSDFGError(
                    f"Interstate edge assigns to non-scalar container {target!r}"
                )


def _validate_reachability(sdfg: SDFG) -> None:
    if sdfg.start_state is None or len(sdfg.states()) <= 1:
        return
    reachable = set(nx.descendants(sdfg._graph, sdfg.start_state)) | {sdfg.start_state}
    unreachable = [state.label for state in sdfg.states() if state not in reachable]
    if unreachable:
        # Unreachable states are not an error (dead-state elimination removes
        # them) but an SDFG with *only* unreachable work is malformed.
        if len(unreachable) == len(sdfg.states()):
            raise InvalidSDFGError("No state is reachable from the start state")


def validate_state(sdfg: SDFG, state: SDFGState) -> None:
    _validate_acyclic(state)
    scope = state.scope_dict()
    for node in state.nodes():
        if isinstance(node, AccessNode):
            if node.data not in sdfg.arrays:
                raise InvalidSDFGError(
                    f"Access node references undefined container {node.data!r} "
                    f"in state {state.label!r}"
                )
        if isinstance(node, Tasklet):
            _validate_tasklet_connectors(state, node)
    for edge in state.edges():
        _validate_memlet(sdfg, state, edge.data)
    _validate_scopes(state, scope)


def _validate_acyclic(state: SDFGState) -> None:
    if not nx.is_directed_acyclic_graph(state._graph):
        raise InvalidSDFGError(f"State {state.label!r} contains a dataflow cycle")


def _validate_tasklet_connectors(state: SDFGState, tasklet: Tasklet) -> None:
    connected_in: Set[str] = {
        edge.dst_conn for edge in state.in_edges(tasklet) if edge.dst_conn
    }
    connected_out: Set[str] = {
        edge.src_conn for edge in state.out_edges(tasklet) if edge.src_conn
    }
    missing_in = tasklet.in_connectors - connected_in
    missing_out = tasklet.out_connectors - connected_out
    if missing_in:
        raise InvalidSDFGError(
            f"Tasklet {tasklet.label!r} in state {state.label!r} has unconnected "
            f"input connector(s) {sorted(missing_in)}"
        )
    if missing_out:
        raise InvalidSDFGError(
            f"Tasklet {tasklet.label!r} in state {state.label!r} has unconnected "
            f"output connector(s) {sorted(missing_out)}"
        )


def _validate_memlet(sdfg: SDFG, state: SDFGState, memlet: Memlet) -> None:
    if memlet.is_empty:
        return
    if memlet.data not in sdfg.arrays:
        raise InvalidSDFGError(
            f"Memlet references undefined container {memlet.data!r} in state {state.label!r}"
        )
    descriptor = sdfg.arrays[memlet.data]
    if memlet.subset is None:
        return
    if isinstance(descriptor, Scalar):
        return
    if memlet.subset.dims != descriptor.rank and descriptor.rank > 0:
        raise InvalidSDFGError(
            f"Memlet {memlet} has {memlet.subset.dims} dimensions but container "
            f"{memlet.data!r} has rank {descriptor.rank}"
        )
    # Bounds analysis: flag statically-decidable out-of-bounds accesses.
    for rng, dim in zip(memlet.subset.ranges, descriptor.shape):
        low = rng.start
        high = rng.end - dim
        if low.is_constant() and low.as_int() < 0:
            raise InvalidSDFGError(
                f"Memlet {memlet} accesses negative index {low} of {memlet.data!r}"
            )
        if high.is_constant() and high.as_int() > 0:
            raise InvalidSDFGError(
                f"Memlet {memlet} exceeds dimension {dim} of {memlet.data!r} by {high}"
            )


def _validate_scopes(state: SDFGState, scope) -> None:
    entries = [node for node in state.nodes() if isinstance(node, MapEntry)]
    exits = [node for node in state.nodes() if isinstance(node, MapExit)]
    if len(entries) != len(exits):
        raise InvalidSDFGError(
            f"State {state.label!r} has {len(entries)} scope entries but {len(exits)} exits"
        )
    for entry in entries:
        try:
            state.exit_node(entry)
        except KeyError as error:
            raise InvalidSDFGError(str(error)) from error
