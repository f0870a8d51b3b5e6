"""State-machine level analyses: liveness and access sets.

These analyses back the extended dead code elimination of §6.2 (Dead State
Elimination works on symbolic conditions; Dead Dataflow Elimination walks
the state machine in reverse topological order tracking future-reused
containers) and the memory-scheduling heuristics of §6.3.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .data import Scalar
from .sdfg import SDFG
from .state import SDFGState


def state_access_sets(sdfg: SDFG) -> Dict[SDFGState, Tuple[Set[str], Set[str]]]:
    """Per-state (read set, write set) of container names."""
    return {state: (state.read_set(), state.write_set()) for state in sdfg.states()}


def live_containers_per_state(sdfg: SDFG) -> Dict[SDFGState, Set[str]]:
    """For each state, the containers that may still be read *after* it.

    Used by Dead Dataflow Elimination: a write whose container is not live
    after the state — and not externally visible — can be removed.  The
    analysis is a backwards dataflow fixed point over the state machine:

        live_out(S) = union over successors T of (live_in(T))
        live_in(S)  = (live_out(S) - killed(S)) | read(S) | edge_reads(S)

    Kill information is conservative: a state only kills a container if it
    writes it entirely without reading it (we do not track partial writes).
    """
    access = state_access_sets(sdfg)
    edge_reads: Dict[SDFGState, Set[str]] = {state: set() for state in sdfg.states()}
    for edge in sdfg.edges():
        edge_reads[edge.src] |= edge.data.free_symbols() & set(sdfg.arrays)

    externally_visible = {
        name for name, descriptor in sdfg.arrays.items() if not descriptor.transient
    }
    externally_visible |= set(sdfg.return_values)

    live_in: Dict[SDFGState, Set[str]] = {state: set() for state in sdfg.states()}
    live_out: Dict[SDFGState, Set[str]] = {state: set() for state in sdfg.states()}

    changed = True
    iterations = 0
    while changed and iterations < 2 * len(sdfg.states()) + 8:
        changed = False
        iterations += 1
        for state in sdfg.states():
            reads, writes = access[state]
            new_out: Set[str] = set()
            for edge in sdfg.out_edges(state):
                new_out |= live_in[edge.dst]
            killed = {
                name
                for name in writes - reads
                if isinstance(sdfg.arrays.get(name), Scalar)
            }
            new_in = (new_out - killed) | reads | edge_reads[state]
            if new_out != live_out[state] or new_in != live_in[state]:
                live_out[state] = new_out
                live_in[state] = new_in
                changed = True

    # Externally visible containers are always live.
    for state in sdfg.states():
        live_out[state] |= externally_visible
    return live_out
