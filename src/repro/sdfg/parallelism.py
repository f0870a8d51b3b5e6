"""Parallelization safety analysis for map scopes.

A map's iterations are order-independent by IR contract (§2.2 of the
paper), but executing them *concurrently* additionally requires that no
two iterations write the same location — except through WCR memlets,
whose conflict resolution can be lowered to reductions or atomic
updates.  :func:`analyze_map_parallelism` proves that property for one
outermost map scope, conservatively: it either returns a positive
verdict with everything the backends need (the chunked parameter, the
reduction clauses, which WCR updates need atomics, which loop variables
must be privatized), or a negative verdict with the reason.

The proof partitions iterations by the map's **first parameter** — the
loop native code splits across its OpenMP threads.  A write is *safe*
when it meets no write of its container in an iteration with another
value of that parameter: one question,
:func:`~repro.sdfg.analysis.may_meet` carried by the first parameter,
every other parameter of the scope apart, over the ranges of the maps
around each write.  The intra-tile parameters
:func:`~repro.transforms.map_parameterized.tile_map` creates range over
``[p, min(p + T, N))`` of the tile parameter ``p`` (step ``T``), so two
tiles never meet — which is why the outer tile loop of ``MapTiling`` is
the natural parallel grain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .analysis import Site, may_meet, site_ranges
from .data import Scalar
from .nodes import AccessNode, MapEntry, MapExit, SCHEDULE_PARALLEL

#: Environment variable overriding the default worker count of parallel
#: schedules (native OpenMP code and the cost model honor it).
NUM_THREADS_ENV = "REPRO_NUM_THREADS"


def default_workers() -> int:
    """Worker count a parallel map runs with when ``n_threads`` is unset:
    ``REPRO_NUM_THREADS`` when positive, else the machine's core count."""
    raw = os.environ.get(NUM_THREADS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ParallelismInfo:
    """Verdict of :func:`analyze_map_parallelism` for one map scope."""

    #: Whether the scope is provably safe to execute in parallel.
    ok: bool
    #: Human-readable refusal reason when ``ok`` is False.
    reason: Optional[str] = None
    #: The parameter whose iterations are split across workers.
    chunk_param: Optional[str] = None
    #: Scalar WCR accumulators, as sorted ``(container, operator)`` pairs —
    #: OpenMP ``reduction(...)`` clauses.
    reductions: Tuple[Tuple[str, str], ...] = ()
    #: ``id()`` of write edges whose WCR update must be atomic (integer
    #: array targets not partitioned by the chunked parameter).
    atomic_edges: FrozenSet[int] = frozenset()
    #: Loop parameters of the scope beyond the chunked one (the map's own
    #: trailing parameters plus every nested map's); the C backend adds a
    #: ``private(...)`` clause for any of them declared at function scope.
    private_params: Tuple[str, ...] = ()


def _refuse(reason: str) -> ParallelismInfo:
    return ParallelismInfo(ok=False, reason=reason)


def _scope_nodes(state, entry: MapEntry) -> Set:
    """All nodes whose scope chain contains ``entry`` (exit nodes included)."""
    scope = state.scope_dict()
    members: Set = set()
    for node in state.nodes():
        current = scope.get(node)
        while current is not None:
            if current is entry:
                members.add(node)
                break
            current = scope.get(current)
    members.add(state.exit_node(entry))
    return members


def analyze_map_parallelism(sdfg, state, entry: MapEntry) -> ParallelismInfo:
    """Prove (or refuse) that one outermost map scope may run in parallel.

    Every innermost write inside the scope must either be partitioned by
    the chunked (first) parameter — it meets no write of its container in
    an iteration of another chunk (:func:`~repro.sdfg.analysis.may_meet`,
    carried by that parameter, every other parameter of the scope apart)
    — or carry a WCR: scalar WCR targets become reductions, and
    integer array ``+``/``*`` WCR updates that meet only updates with
    their own operator are marked for atomic emission.  A
    non-partitioned ``min``/``max`` array WCR (which has no native atomic
    form) refuses, and so does a non-partitioned floating-point ``+``/``*``
    one: atomics would add in whatever order the threads arrive, and the
    answer would change from run to run.
    """
    map_obj = entry.map
    if not map_obj.params:
        return _refuse("map has no parameters")
    scope = state.scope_dict()
    if scope.get(entry) is not None:
        return _refuse("only outermost map scopes are parallelized")

    members = _scope_nodes(state, entry)
    chunk_param = map_obj.params[0]
    private: List[str] = list(map_obj.params[1:])
    for node in state.nodes():  # not ``members``: a set's order is per process
        if node in members and isinstance(node, MapEntry):
            private.extend(node.map.params)

    reductions: Dict[str, str] = {}
    read_scalars: Set[str] = set()
    # Per array, its writes: the edge, where it lands, and its operator.
    writes: Dict[str, List[Tuple[object, Site, Optional[str]]]] = {}

    for edge in state.edges():
        source, destination = edge.src, edge.dst
        inside = source in members or source is entry
        if not inside:
            continue
        memlet = edge.data
        if (
            isinstance(destination, AccessNode) and destination in members
            and not memlet.is_empty and memlet.wcr is None
            and isinstance(sdfg.arrays.get(destination.data), Scalar)
        ):
            # A copy's memlet may name its source: what it stores is the scalar.
            return _refuse(f"scalar {destination.data!r} written without WCR")
        # Track scalar reads so a reduction target that is *also* read in
        # the scope (a sequential dependence) refuses cleanly.
        if (
            not memlet.is_empty
            and memlet.data is not None
            and isinstance(sdfg.arrays.get(memlet.data), Scalar)
            and not isinstance(destination, MapExit)
            and memlet.wcr is None
            and destination in members
        ):
            read_scalars.add(memlet.data)
        if source not in members or isinstance(source, MapExit):
            continue  # entry boundary reads / exit propagation plumbing
        if not isinstance(destination, (MapExit,)) and not hasattr(destination, "data"):
            continue  # value edge between code nodes
        if isinstance(destination, MapEntry):
            continue  # read flowing into a nested scope
        data = memlet.data if not memlet.is_empty else (
            getattr(destination, "data", None) if not isinstance(destination, MapExit) else None
        )
        if data is None:
            continue
        descriptor = sdfg.arrays.get(data)
        if descriptor is None:
            continue
        if isinstance(descriptor, Scalar):
            if memlet.wcr is None:
                return _refuse(f"scalar {data!r} written without WCR")
            previous = reductions.get(data)
            if previous is not None and previous != memlet.wcr:
                return _refuse(f"scalar {data!r} accumulated with conflicting WCR operators")
            reductions[data] = memlet.wcr
            continue
        # Array write.
        if memlet.dynamic or memlet.subset is None:
            return _refuse(f"unanalyzable (dynamic or unsubscripted) write to {data!r}")
        if not memlet.subset.is_point():
            return _refuse(f"non-point write to {data!r}")
        site = Site(memlet.subset, site_ranges(scope, source, {}))
        writes.setdefault(data, []).append((edge, site, memlet.wcr))

    apart = frozenset(private)
    atomic_edges: Set[int] = set()
    for data, found in writes.items():
        float_type = sdfg.arrays[data].dtype.startswith("float")
        for edge, site, wcr in found:
            meeting = {
                other_wcr for _, other, other_wcr in found
                if may_meet(other, site, apart, (chunk_param,))
            }
            if not meeting:
                continue
            if wcr is None or meeting != {wcr}:
                return _refuse(f"cross-iteration write conflict on {data!r}")
            if wcr in ("+", "*") and float_type:
                return _refuse(
                    f"non-partitioned {wcr}-WCR write to floating-point {data!r} "
                    "would sum in thread order"
                )
            if wcr in ("min", "max"):
                return _refuse(f"non-partitioned {wcr}-WCR write to {data!r} has no atomic form")
            atomic_edges.add(id(edge))

    conflicted = read_scalars & set(reductions)
    if conflicted:
        return _refuse(
            "reduction scalar(s) also read inside the scope: "
            + ", ".join(sorted(conflicted))
        )

    return ParallelismInfo(
        ok=True,
        chunk_param=chunk_param,
        reductions=tuple(sorted(reductions.items())),
        atomic_edges=frozenset(atomic_edges),
        private_params=tuple(dict.fromkeys(private)),
    )


def parallel_maps(sdfg) -> List[Tuple[object, MapEntry]]:
    """The ``(state, entry)`` pairs annotated with a parallel schedule."""
    return [
        (state, entry)
        for state, entry in sdfg.map_entries()
        if entry.map.schedule == SCHEDULE_PARALLEL
    ]
