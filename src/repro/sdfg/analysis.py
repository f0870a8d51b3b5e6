"""State-machine level analyses: liveness, private scalars, dependence.

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

Every other "can two iterations touch one element?" is one predicate,
:func:`may_meet`: update detection, ``LoopToMap``, the parallelism proof
(:mod:`repro.sdfg.parallelism`) and the code generators' array form and
accumulators ask it, each naming which loop and map parameters may
differ between the two accesses and which of them must.
``A[i][j] -= A[i][k] * A[k][j]`` under ``k < j < i`` reads two other
elements than the one it updates, in every iteration of every loop around
it, so the read holds no loop back; covariance's ``C[i][j]`` and
``C[j][i]`` over ``j`` in ``[i, M)`` meet in no two iterations of ``j``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import (
    Callable, Collection, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
    Set, Tuple, Union,
)

from ..symbolic import Integer, Range, Subset, Symbol
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


class Site(NamedTuple):
    """Where an access happens: the subset it touches, and the range of every
    loop induction variable and map parameter around it (:func:`site_ranges`)
    — or a function returning them, called only when the subsets alone do
    not keep the two sites apart (:func:`may_meet`)."""

    subset: Optional[Subset]
    ranges: Union[Mapping[str, Range], Callable[[], Mapping[str, Range]]]


def site_ranges(scope, node, loops: Mapping[str, Range]) -> Dict[str, Range]:
    """The ranges around ``node`` of a state whose :meth:`scope_dict` is
    ``scope``: each parameter of the maps enclosing it, innermost first, then
    ``loops`` — the state's loop inductions
    (:func:`~repro.transforms.loop_analysis.induction_ranges`) — for any
    name no map took."""
    ranges: Dict[str, Range] = {}
    entry = scope.get(node)
    while entry is not None:
        for param, rng in zip(entry.map.params, entry.map.ranges):
            ranges.setdefault(param, rng)
        entry = scope.get(entry)
    for name, rng in loops.items():
        ranges.setdefault(name, rng)
    return ranges


def may_meet(access: Site, write: Site, apart: Collection[str],
             carried: Sequence[str] = ()) -> bool:
    """Whether ``access`` may reach an element ``write`` touches — in two
    iterations that differ in ``carried``, when it names any.

    The symbols ``apart`` names — the loops and maps inside the scope the
    question is about — may hold different values at the two sites: each
    is renamed apart at the access, where it takes any value of its range
    there, and any value at all where it has none.  Every other symbol
    holds one value at both sites.  The two never meet when some
    dimension's ranges are disjoint over all those values
    (:meth:`Subset.disjoint`): trmm's ``B[k][j]`` and ``B[i][j]`` under
    ``k`` in ``[i + 1, N)``.

    ``carried`` names loop or map parameters, outermost first, and asks
    the direction-vector question (Wolfe; Banerjee's inequalities): per
    level, the names before it hold one value at both sites, its own is
    renamed and asked once over the later iterations ``[p + step, end)``
    and once over the earlier ``[start, p - step + 1)``, and the names
    after it are apart.  So covariance's stores ``C[i][j]`` and
    ``C[j][i]`` over ``j`` in ``[i, M)`` meet only where ``j`` is one
    value at both.  Whatever cannot be shown — a missing subset, a bound
    that is not affine in a symbol, a symbol without a range — may meet.
    """
    if access.subset is None or write.subset is None:
        return True
    apart, carried = frozenset(apart), tuple(carried)
    # Every symbol may take any value first: that is sound, and usually enough.
    if not _meets(access.subset, (), write.subset, (), apart, carried):
        return False
    return _meets(access.subset, _items(access.ranges), write.subset, _items(write.ranges),
                  apart, carried)


def _items(ranges) -> Tuple[Tuple[str, Range], ...]:
    return tuple((ranges() if callable(ranges) else ranges).items())


@lru_cache(maxsize=8192)  # a pass asks again of the same hash-consed subsets
def _meets(access: Subset, access_ranges, write: Subset, write_ranges,
           apart: FrozenSet[str], carried: Tuple[str, ...]) -> bool:
    def disjoint(moved, moved_ranges, held, held_ranges, primed: Dict[str, Symbol],
                 pinned: Mapping[str, Range]) -> bool:
        """Whether ``moved``, its names ``primed`` renamed, never meets ``held``."""
        bounds = dict(held_ranges)
        for name, rng in moved_ranges:
            if name in primed:
                bounds[primed[name].name] = rng.subs(primed)
            else:
                bounds.setdefault(name, rng)
        bounds.update(pinned)
        return moved.subs(primed).disjoint(held, bounds)

    def rename(names) -> Dict[str, Symbol]:
        return {name: Symbol(f"{name}'") for name in names}

    sites = (access, access_ranges, write, write_ranges)
    if not carried:
        return not disjoint(*sites, rename(apart), {})
    swapped = (write, write_ranges, access, access_ranges)
    ranges = {**dict(write_ranges), **dict(access_ranges)}
    for level, name in enumerate(carried):
        primed = rename(apart.difference(carried[:level]).union(carried[level:]))
        here = ranges.get(name)
        if here is None:  # it runs from and to symbols that have no range
            start, end, step = Symbol(f"{name}'start"), Symbol(f"{name}'end"), Integer(1)
        else:
            start, end, step = here.start.subs(primed), here.end.subs(primed), here.step
        value, key = Symbol(name), primed[name].name
        later = {key: Range(value + step, end)}
        earlier = {key: Range(start, value - step + 1)}
        # Each direction is asked with either site renamed: a bound says
        # only how the renamed name lies against the other, not the reverse.
        if not (disjoint(*sites, primed, later) or disjoint(*swapped, primed, earlier)) or \
                not (disjoint(*sites, primed, earlier) or disjoint(*swapped, primed, later)):
            return True
    return False
