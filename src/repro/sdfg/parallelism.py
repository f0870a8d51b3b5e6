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
when some dimension of its subset is strictly monotone in a parameter of
the partition family: the first parameter itself, or an inner-map
parameter whose range is an interval ``[p, p + step)`` of it — exactly
the intra-tile parameters :func:`~repro.transforms.map_parameterized.tile_map`
creates, which is why the outer tile loop of ``MapTiling`` is the
natural parallel grain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..symbolic import Expr
from ..symbolic.expr import Add, Integer, Min, Mul, Symbol
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


def monotone_in(expression: Expr, param: str) -> bool:
    """Whether ``expression`` is strictly monotone in ``param`` by structure.

    Accepts the affine shapes subsets actually use — ``p``, ``p + c``,
    ``c * p``, ``c * p + d`` — where the remaining terms are free of
    ``param``.  Anything else (``p % 2``, ``p * p``) is refused.
    """
    if isinstance(expression, Symbol):
        return expression.name == param
    if isinstance(expression, Mul):
        coefficient = [a for a in expression.args if isinstance(a, Integer)]
        symbols = [a for a in expression.args if isinstance(a, Symbol)]
        return (
            len(expression.args) == 2
            and len(coefficient) == 1
            and coefficient[0].value != 0
            and len(symbols) == 1
            and symbols[0].name == param
        )
    if isinstance(expression, Add):
        carrying = [
            a for a in expression.args
            if param in {s.name for s in a.free_symbols()}
        ]
        return len(carrying) == 1 and monotone_in(carrying[0], param)
    return False


def _injective_dimension(expression: Expr, family: Set[str], scope_params: Set[str]) -> bool:
    """Whether one subset dimension separates partition chunks.

    True when the index depends on exactly one scope parameter, that
    parameter belongs to the partition family, and the dependence is
    strictly monotone — so two iterations from different chunks can never
    produce the same index value in this dimension.
    """
    names = {symbol.name for symbol in expression.free_symbols()}
    carried = names & scope_params
    if len(carried) != 1:
        return False
    (param,) = carried
    if param not in family:
        return False
    return monotone_in(expression, param)


def _interval_of(start: Expr, end: Expr, param: str, step: Expr) -> bool:
    """Whether ``[start, end)`` is an interval ``[param, param + step)``.

    This is the shape :func:`~repro.transforms.map_parameterized.tile_map`
    emits for intra-tile parameters (``[p_tile, min(p_tile + tile, N))``
    under an outer step of ``tile``): consecutive values of ``param`` then
    yield pairwise-disjoint inner ranges, so the inner parameter inherits
    the outer one's partitioning.
    """
    if not (isinstance(start, Symbol) and start.name == param):
        return False
    if not isinstance(step, Integer) or step.value < 1:
        return False

    def bounded(expr: Expr) -> bool:
        if isinstance(expr, Symbol) and expr.name == param:
            return True  # empty interval — trivially contained
        if isinstance(expr, Add) and len(expr.args) == 2:
            offsets = [a for a in expr.args if isinstance(a, Integer)]
            bases = [a for a in expr.args if isinstance(a, Symbol) and a.name == param]
            return (
                len(offsets) == 1
                and len(bases) == 1
                and 0 < offsets[0].value <= step.value
            )
        return False

    if bounded(end):
        return True
    if isinstance(end, Min):
        return any(bounded(arg) for arg in end.args)
    return False


def _partition_family(state, entry: MapEntry, members: Set) -> Set[str]:
    """The chunked parameter plus inner parameters that inherit its partition."""
    chunk_param = entry.map.params[0]
    step = entry.map.ranges[0].step
    family = {chunk_param}
    for node in members:
        if not isinstance(node, MapEntry):
            continue
        for param, rng in zip(node.map.params, node.map.ranges):
            if _interval_of(rng.start, rng.end, chunk_param, step):
                family.add(param)
    return family


def analyze_map_parallelism(sdfg, state, entry: MapEntry) -> ParallelismInfo:
    """Prove (or refuse) that one outermost map scope may run in parallel.

    Every innermost write inside the scope must either be partitioned by
    the chunked (first) parameter — some subset dimension strictly
    monotone in a partition-family parameter — or carry a WCR: scalar WCR
    targets become reductions, and non-partitioned integer array
    ``+``/``*`` WCR updates are marked for atomic emission.  A
    non-partitioned ``min``/``max`` array WCR (which has no native atomic
    form) refuses, and so does a non-partitioned floating-point ``+``/``*``
    one: atomics would add in whatever order the threads arrive, and the
    answer would change from run to run.
    """
    map_obj = entry.map
    if not map_obj.params:
        return _refuse("map has no parameters")
    if map_obj.vectorized:
        return _refuse("map is annotated for vector emission")
    if state.scope_dict().get(entry) is not None:
        return _refuse("only outermost map scopes are parallelized")

    members = _scope_nodes(state, entry)
    chunk_param = map_obj.params[0]
    family = _partition_family(state, entry, members)
    scope_params: Set[str] = set(map_obj.params)
    private: List[str] = list(map_obj.params[1:])
    for node in state.nodes():  # not ``members``: a set's order is per process
        if node in members and isinstance(node, MapEntry):
            scope_params.update(node.map.params)
            private.extend(node.map.params)

    reductions: Dict[str, str] = {}
    atomic_edges: Set[int] = set()
    read_scalars: Set[str] = set()

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
        partitioned = any(
            _injective_dimension(index, family, scope_params)
            for index in memlet.subset.indices()
        )
        if partitioned:
            continue
        if memlet.wcr in ("+", "*") and descriptor.dtype.startswith("float"):
            return _refuse(
                f"non-partitioned {memlet.wcr}-WCR write to floating-point {data!r} "
                "would sum in thread order"
            )
        if memlet.wcr in ("+", "*"):
            atomic_edges.add(id(edge))
            continue
        if memlet.wcr in ("min", "max"):
            return _refuse(
                f"non-partitioned {memlet.wcr}-WCR write to {data!r} has no atomic form"
            )
        return _refuse(f"cross-iteration write conflict on {data!r}")

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
