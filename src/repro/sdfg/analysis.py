"""State-machine level analyses: liveness and private scalars.

They answer the one question ``LoopToMap`` and the code generators' array
form must answer alike: which scalars does an iteration keep to itself?
(Dead Dataflow Elimination, §6.2, does not read this liveness: it closes
over which containers feed which, in :mod:`repro.transforms.dead_code`.)

The bridge, CSE, scalar replacement and LICM leave per-iteration values in
transient :class:`~repro.sdfg.data.Scalar` containers (``_load_5 =
A[i]``, read twice below).  Such a scalar is read *and* written by its loop
body, yet carries nothing from one iteration to the next.  One scan of a
state in program order (:func:`scalar_uses`) tells, per scalar, whether a
read can see the value the scalar held when the state began (it is
**upward-exposed**) and whether every path through the state overwrites
that value (the state **kills** it).  Liveness reads both; a scalar that is
not upward-exposed in a loop body and not live after it is **private**
(:func:`private_scalars`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

from .data import Scalar
from .nodes import AccessNode, MapEntry, MapExit
from .sdfg import SDFG
from .state import SDFGState

#: Per state, the containers that may still be read after it.
Liveness = Dict[SDFGState, Set[str]]


class ScalarUse(NamedTuple):
    """How one state uses one :class:`Scalar`: its access nodes in program
    order, whether a read may see the value it held when the state began,
    and whether the state overwrites that value on every path through it."""

    nodes: Tuple[AccessNode, ...]
    exposed: bool
    killed: bool


def _stored(state: SDFGState, node: AccessNode) -> bool:
    """Whether ``node`` is written whole before anything reads it: it has
    writes, every one a plain store (no update, no dynamic memlet) made in
    the node's own scope (not handed on by a map exit, which may run zero
    times)."""
    writes = [edge for edge in state.in_edges(node) if not edge.data.is_empty]
    return bool(writes) and all(
        edge.data.wcr is None and not edge.data.dynamic and not isinstance(edge.src, MapExit)
        for edge in writes
    )


def scalar_uses(sdfg: SDFG, state: SDFGState) -> Dict[str, ScalarUse]:
    """:class:`ScalarUse` of every :class:`Scalar` with an access node in ``state``.

    A scalar is not upward-exposed when its first access node in program
    order is stored (:func:`_stored`) and every other access node of it
    sits in the same scope: each execution of that scope — the state, or
    one iteration of a map — overwrites it before it reads it.  An update
    (WCR) reads the value it updates.  The state kills the scalar when that
    first store runs whenever the state does: no map around it may have an
    empty range.
    """
    arrays = sdfg.arrays
    grouped: Dict[str, List[AccessNode]] = {}
    for node in state.program_order():
        if isinstance(node, AccessNode) and isinstance(arrays.get(node.data), Scalar):
            grouped.setdefault(node.data, []).append(node)
    if not grouped:
        return {}
    has_map = any(isinstance(node, MapEntry) for node in state.nodes())
    scope = state.scope_dict() if has_map else {}
    uses: Dict[str, ScalarUse] = {}
    for name, nodes in grouped.items():
        first = nodes[0]
        stored = _stored(state, first)
        where = scope.get(first)
        covered = stored and all(scope.get(node) is where for node in nodes[1:])
        read = any(
            not edge.data.is_empty for node in nodes for edge in state.out_edges(node)
        ) or any(
            edge.data.wcr is not None for node in nodes for edge in state.in_edges(node)
        )
        killed = stored
        while killed and where is not None:
            killed = all(rng.is_empty() is False for rng in where.map.ranges)
            where = scope.get(where)
        uses[name] = ScalarUse(tuple(nodes), read and not covered, killed)
    return uses


def live_containers_per_state(sdfg: SDFG) -> Liveness:
    """For each state, the containers that may still be read *after* it.

    A backwards dataflow fixed point over the state machine:

        live_out(S) = union over successors T of live_in(T)
        live_in(S)  = (live_out(S) - killed(S)) | read(S) | edge_reads(S)

    ``read(S)`` is every container an edge reads out of an access node —
    less the scalars :func:`scalar_uses` finds not upward-exposed, plus the
    scalars an update reads; ``killed(S)`` holds the scalars the state
    overwrites on every path through it.  Arrays are never killed (partial
    writes are not tracked), and externally visible containers —
    non-transients and return values — are live everywhere.  The fixed
    point is the least one, reached by a worklist, so a scalar every
    iteration of a loop writes before it reads is not live around the
    loop's back edge.
    """
    states = sdfg.states()
    containers = set(sdfg.arrays)
    gen: Dict[SDFGState, Set[str]] = {}
    kill: Dict[SDFGState, Set[str]] = {}
    for state in states:
        uses = scalar_uses(sdfg, state)
        gen[state] = {
            name for name in state.read_set() if name not in uses or uses[name].exposed
        } | {name for name, use in uses.items() if use.exposed}
        kill[state] = {name for name, use in uses.items() if use.killed}
    for edge in sdfg.edges():
        gen[edge.src] |= edge.data.free_symbols() & containers

    live_in: Liveness = {state: set() for state in states}
    live_out: Liveness = {state: set() for state in states}
    pending = list(states)
    queued = set(pending)
    while pending:
        state = pending.pop()
        queued.discard(state)
        out: Set[str] = set()
        for edge in sdfg.out_edges(state):
            out |= live_in[edge.dst]
        live_out[state] = out
        new_in = (out - kill[state]) | gen[state]
        if new_in != live_in[state]:
            live_in[state] = new_in
            for edge in sdfg.in_edges(state):
                if edge.src not in queued:
                    queued.add(edge.src)
                    pending.append(edge.src)

    # Externally visible containers are always live.
    visible = {name for name, descriptor in sdfg.arrays.items() if not descriptor.transient}
    visible |= set(sdfg.return_values)
    for state in states:
        live_out[state] |= visible
    return live_out


def lazy_liveness(sdfg: SDFG) -> Callable[[], Liveness]:
    """:func:`live_containers_per_state` of ``sdfg``, computed on the first call."""
    return lru_cache(maxsize=None)(partial(live_containers_per_state, sdfg))


def private_scalars(
    sdfg: SDFG, state: SDFGState, nodes: Iterable,
    live: Optional[Union[Liveness, Callable[[], Liveness]]] = None,
) -> Set[str]:
    """The transient scalars private to ``nodes`` — a loop body, a map scope —
    of ``state``.

    A scalar is private when every access node of it in the state is among
    ``nodes``, it is not upward-exposed (:func:`scalar_uses`: the first of
    them is a store and all of them share its scope) and it is not live
    after the state.  Every iteration then writes it before it reads it and
    nothing reads what the last one left, so each iteration may hold a
    value of its own.  ``live`` is :func:`live_containers_per_state` of
    ``sdfg``, or a function returning it (:func:`lazy_liveness`), called
    only once some scalar gets that far; without it, it is computed here.
    """
    members = set(nodes)
    candidates = {
        name for name, use in scalar_uses(sdfg, state).items()
        if sdfg.arrays[name].transient and not use.exposed
        and all(node in members for node in use.nodes)
    }
    if not candidates:
        return candidates
    if live is None:
        live = live_containers_per_state(sdfg)
    elif callable(live):
        live = live()
    return candidates - live[state]
