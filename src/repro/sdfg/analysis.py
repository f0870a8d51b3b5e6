"""State-machine level analyses: liveness, private containers, dependence.

They answer the one question ``LoopToMap`` and the code generators' array
form must answer alike: which containers does an iteration keep to itself?
(Dead Dataflow Elimination, §6.2, does not read this liveness: it closes
over which containers feed which, in :mod:`repro.transforms.dead_code`.)

The bridge, CSE, scalar replacement and LICM leave per-iteration values in
transient :class:`~repro.sdfg.data.Scalar` containers (``_load_5 =
A[i]``, read twice below), and C locals and NumPy temporaries become
transient arrays (doitgen's ``sumv``, symm's one-element ``temp2``).  Such
a container is read *and* written by its loop body, yet carries nothing
from one iteration to the next.  One scan of a state in program order
(:func:`container_uses`) tells, per container, whether a read can see the
value it held when the state began (it is **upward-exposed**) and whether
every path through the state overwrites all of it (the state **kills**
it).  Liveness reads both; a transient that is not upward-exposed in a
loop body and not live after it is **private** (:func:`private_containers`;
Tu and Padua's array privatization).

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
from ..symbolic.ranges import affine_in
from .data import Array, Scalar
from .nodes import AccessNode, MapEntry, MapExit, Tasklet
from .sdfg import SDFG
from .state import SDFGState

#: Per state, the containers that may still be read after it.
Liveness = Dict[SDFGState, Set[str]]


class ContainerUse(NamedTuple):
    """How one state uses one scalar or transient array: its access nodes in
    program order, whether a read may see the value it held when the state
    began, and whether the state overwrites all of it on every path through
    it."""

    nodes: Tuple[AccessNode, ...]
    exposed: bool
    killed: bool


def _plain(memlet) -> bool:
    return memlet.wcr is None and not memlet.dynamic


def _stored(state: SDFGState, node: AccessNode) -> bool:
    """Whether the scalar ``node`` is written before anything reads it: it
    has writes, every one a plain store (no update, no dynamic memlet) made
    in the node's own scope (not handed on by a map exit, which may run zero
    times)."""
    writes = [edge for edge in state.in_edges(node) if not edge.data.is_empty]
    return bool(writes) and all(
        _plain(edge.data) and not isinstance(edge.src, MapExit) for edge in writes
    )


def _enclosed(scope, node, entry: MapEntry) -> bool:
    """Whether ``entry``'s scope holds ``node`` (its exit included)."""
    while node is not None:
        node = scope.get(node)
        if node is entry:
            return True
    return False


@lru_cache(maxsize=4096)  # liveness asks again of the same hash-consed subsets
def _spans(subset: Subset, axes: Tuple[Tuple[str, Range], ...], shape: Tuple) -> bool:
    """Whether a store of ``subset``, repeated over every value of the map
    parameters ``axes`` (``(name, range)`` pairs), writes each element of a
    container of ``shape``: every range is non-empty, and each dimension is
    either a range over all of it or ``p + c`` of one unit-step parameter of
    its own whose range, shifted by ``c``, covers it."""
    ranges = dict(axes)
    if subset is None or subset.dims != len(shape) or any(
        rng.is_empty() is not False for rng in ranges.values()
    ):
        return False
    used: Set[str] = set()
    for rng, dim in zip(subset.ranges, shape):
        whole = Range(0, dim)
        names = {symbol.name for symbol in rng.free_symbols()} & ranges.keys()
        if not rng.is_point() or not names:
            if names or rng.step != 1 or rng.covers(whole) is not True:
                return False
            continue
        if len(names) > 1 or names & used:
            return False
        (param,) = names
        used.add(param)
        form, around = affine_in(rng.start, param), ranges[param]
        if form is None or form[0] != 1 or around.step != 1 or (
            {symbol.name for symbol in form[1].free_symbols()} & ranges.keys()
        ) or Range(around.start + form[1], around.end + form[1]).covers(whole) is not True:
            return False
    return True


def _covered(state: SDFGState, scopes: Callable[[], Dict], position: Callable[[], Dict],
             name: str, nodes: Sequence[AccessNode], shape) -> bool:
    """Whether each element of the array ``name`` is stored in ``state``
    before anything reads it.

    Every access node but the first shares one scope, which encloses the
    first.  The first is written by a plain store out of a tasklet that,
    propagated over the maps between the two scopes — and, where those are
    the same, over the maps the store leaves through — writes the whole
    shape (:func:`_spans`).  Inside the outermost of those maps nothing else
    touches the array but that store's element, after it, in the same
    iteration: doitgen's ``sumv[p] = 0`` followed by ``sumv[p] += …`` over
    ``s`` within one iteration of ``p``.  ``scopes`` and ``position``
    return the state's :meth:`scope_dict` and each node's place in its
    program order.
    """
    first = nodes[0]
    writes = [edge for edge in state.in_edges(first) if not edge.data.is_empty]
    if not writes or not all(_plain(edge.data) for edge in writes):
        return False
    scope = scopes()
    last = scope.get(nodes[-1])
    if any(scope.get(node) is not last for node in nodes[1:]):
        return False
    outside: List[MapEntry] = []
    entry = scope.get(first)
    while entry is not last:
        if entry is None:
            return False
        outside.append(entry)
        entry = scope.get(entry)
    for edge in writes:
        chain, inner = [edge], []
        while isinstance(chain[-1].src, MapExit) and chain[-1].src_conn and not outside:
            exit_node, connector = chain[-1].src, f"IN_{chain[-1].src_conn[4:]}"
            inner.append(scope[exit_node])
            feeding = [other for other in state.in_edges(exit_node)
                       if other.dst_conn == connector and not other.data.is_empty]
            if len(feeding) != 1:
                break
            chain.append(feeding[0])
        store = chain[-1]
        maps = inner + outside
        axes = tuple(axis for around in maps for axis in zip(around.map.params, around.map.ranges))
        if not isinstance(store.src, Tasklet) or not all(_plain(link.data) for link in chain) \
                or not _spans(store.data.subset, axes, tuple(shape)):
            continue
        if inner:
            # Any other write inside the store's maps leaves through the
            # outermost exit: the first node is the only one in its scope.
            if all(other is edge or other.data.data != name for other in state.out_edges(edge.src)):
                return True
            continue
        if not maps:
            return True
        outermost, here = maps[-1], scope.get(first)
        boundary = state.exit_node(outermost)
        for other in state.edges():
            memlet = other.data
            if memlet.is_empty or memlet.data != name or other in chain or not (
                _enclosed(scope, other.dst, outermost)
                or other.src is not boundary and _enclosed(scope, other.src, outermost)
            ):
                continue
            if memlet.subset != store.data.subset:
                break
            if other.src is first:
                continue
            anchor = other.src
            while anchor is not None and scope.get(anchor) is not here:
                anchor = scope.get(anchor)
            if anchor is None or position()[anchor] < position()[first]:
                break
        else:
            return True
    return False


def container_uses(sdfg: SDFG, state: SDFGState) -> Dict[str, ContainerUse]:
    """:class:`ContainerUse` of every :class:`Scalar` and transient
    :class:`Array` with an access node in ``state``.

    A container is not upward-exposed when every element is stored before
    anything reads it.  For a scalar: its first access node in program order
    is stored (:func:`_stored`) and every other access node of it sits in
    the same scope, so each execution of that scope — the state, or one
    iteration of a map — overwrites it before it reads it.  For an array:
    :func:`_covered`.  An update (WCR) reads the value it updates.  The
    state kills the container when that first store runs whenever the state
    does: no map around it may have an empty range.
    """
    arrays = sdfg.arrays
    grouped: Dict[str, List[AccessNode]] = {}
    order = state.program_order()
    for node in order:
        if isinstance(node, AccessNode):
            descriptor = arrays.get(node.data)
            if isinstance(descriptor, Scalar) or isinstance(descriptor, Array) and descriptor.transient:
                grouped.setdefault(node.data, []).append(node)
    if not grouped:
        return {}
    has_map = any(isinstance(node, MapEntry) for node in order)
    known: Dict[str, Dict] = {}

    def scopes() -> Dict:
        if "scope" not in known:
            known["scope"] = state.scope_dict() if has_map else {}
        return known["scope"]

    def position() -> Dict:
        if "position" not in known:
            known["position"] = {node: index for index, node in enumerate(order)}
        return known["position"]

    uses: Dict[str, ContainerUse] = {}
    for name, nodes in grouped.items():
        first = nodes[0]
        if isinstance(arrays[name], Scalar):
            stored = _stored(state, first)
            covered = stored and all(scopes().get(node) is scopes().get(first) for node in nodes[1:])
        else:
            stored = covered = _covered(state, scopes, position, name, nodes, arrays[name].shape)
        read = any(
            not edge.data.is_empty for node in nodes for edge in state.out_edges(node)
        ) or any(
            edge.data.wcr is not None for node in nodes for edge in state.in_edges(node)
        )
        killed, where = stored, scopes().get(first) if stored else None
        while killed and where is not None:
            killed = all(rng.is_empty() is False for rng in where.map.ranges)
            where = scopes().get(where)
        uses[name] = ContainerUse(tuple(nodes), read and not covered, killed)
    return uses


def live_containers_per_state(sdfg: SDFG) -> Liveness:
    """For each state, the containers that may still be read *after* it.

    A backwards dataflow fixed point over the state machine:

        live_out(S) = union over successors T of live_in(T)
        live_in(S)  = (live_out(S) - killed(S)) | read(S) | edge_reads(S)

    ``read(S)`` is every container an edge reads out of an access node —
    less the containers :func:`container_uses` finds not upward-exposed,
    plus those an update reads; ``killed(S)`` holds the scalars and
    transient arrays the state overwrites whole on every path through it.
    An array written in part is never killed, and externally visible
    containers — non-transients and return values — are live everywhere.
    The fixed point is the least one, reached by a worklist, so a container
    every iteration of a loop stores before it reads is not live around the
    loop's back edge.
    """
    states = sdfg.states()
    containers = set(sdfg.arrays)
    gen: Dict[SDFGState, Set[str]] = {}
    kill: Dict[SDFGState, Set[str]] = {}
    for state in states:
        uses = container_uses(sdfg, state)
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


def private_containers(
    sdfg: SDFG, state: SDFGState, nodes: Iterable,
    live: Optional[Union[Liveness, Callable[[], Liveness]]] = None,
) -> Set[str]:
    """The transient scalars and arrays private to ``nodes`` — a loop body,
    a map scope — of ``state``.

    A container is private when every access node of it in the state is
    among ``nodes``, it is not upward-exposed (:func:`container_uses`: each
    element is stored before it is read, by a store that runs in every
    iteration) and it is not live after the state.  Every iteration then
    writes it before it reads it and nothing reads what the last one left,
    so each iteration may hold a copy of its own.  ``live`` is
    :func:`live_containers_per_state` of ``sdfg``, or a function returning
    it (:func:`lazy_liveness`), called only once some container gets that
    far; without it, it is computed here.
    """
    members = set(nodes)
    candidates = {
        name for name, use in container_uses(sdfg, state).items()
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
