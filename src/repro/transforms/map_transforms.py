"""Parallel-scope transformations: LoopToMap and memory-reducing map fusion.

``LoopToMap`` turns a counted state-machine loop whose iterations are
independent into a parametric ``map`` scope — the SDFG's native form of
parametric parallelism (§3.2) and the prerequisite for both vectorized code
generation (the ICC/SLEEF effect of Fig. 8) and map fusion.  A scalar or
array the iterations share only by name — each stores all of it before it
reads it, and nothing reads it after the loop
(:func:`~repro.sdfg.analysis.private_containers`) — holds no loop back.  Of
every other container the body writes, no store may touch an element
another iteration reads or stores: one question,
:func:`~repro.sdfg.analysis.may_meet` carried by the induction variable.
:meth:`LoopToMap.refusal` names what holds a loop back, from the
closed set :data:`LOOP_REFUSALS`, and :func:`loops_left` counts the loops a
compile leaves by that name.  A nest raises inside-out in one run: once a
loop is a map, the body of the loop around it may be straight-line, and
then it is fused into one state and tested again.

``MapFusion`` implements the memory-reducing loop fusion of §6.3 in a
deliberately conservative form: two map scopes in the same state with the
same iteration space, connected exclusively through an elementwise
transient, are merged; the intermediate drops from an array to a scalar,
promoting cache locality and reducing the memory footprint.  The consumer
must read exactly the element the producer wrote, so fusion compares
subsets for equality: that is no dependence test.

Both are pattern-based :class:`~repro.transforms.Transformation` subclasses:
``LoopToMap`` matches independent counted loops (one sweep, every match
applied with revalidation), ``MapFusion`` matches fusable map pairs and
re-enumerates after every fusion (fusing two maps can expose a chain
fusion with a third).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..symbolic import Range, Subset, Symbol
from ..sdfg import SDFG, AccessNode, Memlet, Scalar, SDFGState, Tasklet
from ..sdfg.analysis import (
    Site, container_uses, lazy_liveness, may_meet, private_containers, site_ranges,
)
from ..sdfg.nodes import MapEntry, MapExit
from ..sdfg.tasklet_code import renamed, statements
from .loop_analysis import LoopInfo, chain_loop, find_loops, lazy_induction_ranges
from .rewrite import Match, Transformation
from .state_fusion import StateFusion

#: Why a loop stays a loop (:meth:`LoopToMap.refusal`), in the order checked.
LOOP_REFUSALS = (
    "uncounted", "multi_state_body", "latch_assignments", "symbolic_step",
    "carried_scalar", "live_after_loop", "reads_what_it_writes", "writes_collide",
)


class LoopToMap(Transformation):
    """Convert independent counted state-machine loops into map scopes."""

    NAME = "loop-to-map"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        live = lazy_liveness(sdfg)
        loops = find_loops(sdfg)
        inductions = lazy_induction_ranges(sdfg, loops)
        matches: List[Match] = []
        for loop in loops:
            if self.refusal(loop, live, inductions) is not None:
                continue
            matches.append(Match(
                transformation=self.name,
                kind="loop",
                where=loop.guard.label,
                subject=(
                    f"for {loop.induction_symbol} in "
                    f"[{loop.init_expr}, {loop.bound_expr}) step {loop.step_expr}"
                ),
                payload={"loop": loop, "inductions": inductions},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        loop = match.payload["loop"]
        if self.refusal(loop, inductions=match.payload["inductions"]) is not None:
            return False
        while loop is not None:
            body = self._convert(sdfg, loop)
            loop = self._enclosing(sdfg, body)
        return True

    @staticmethod
    def refusal(loop: LoopInfo, live=None, inductions=None) -> Optional[str]:
        """Why ``loop`` stays a loop — a name of :data:`LOOP_REFUSALS` — or
        ``None`` when its iterations may run as a map.  Nothing is mutated.

        The loop must be counted with a constant step, its body one state
        whose edges carry no assignment but the induction's.  Its iterations
        must be independent.  A scalar the body reads, or stores other than
        by updates of one operator, must be private to it
        (:func:`~repro.sdfg.analysis.private_containers`, which reads
        ``live``: the liveness, or a function computing it); else it carries
        a value into the next iteration (``carried_scalar``) or out of the
        last one (``live_after_loop``).  Per array the body writes and does
        not keep private, no store may touch an element that another
        iteration reads or stores (:func:`~repro.sdfg.analysis.may_meet`,
        carried by the induction, the body's map parameters apart, over the
        ranges of the loops around — ``inductions`` returns them,
        :func:`lazy_induction_ranges`); two updates with one operator
        commute wherever they land.  Over
        ``k`` in ``[i + 1, N)``, ``B[i][j] += A[k][i] * B[k][j]`` is a
        reduction; over ``k`` in ``[i, N)`` the update reads what another
        iteration updates (``reads_what_it_writes``); ``A[i] = A[i + 1]``
        and ``A[i] = x; A[i + 1] = y`` touch an element another iteration
        stores (``writes_collide``).  Run in order the last store wins; run
        as a map — vectorized, or in parallel — any may.
        """
        induction = loop.induction_symbol
        if induction is None or loop.bound_expr is None:
            return "uncounted"
        body = next(iter(loop.body_states))
        if (len(loop.body_states) != 1 or len(loop.latch_edges) != 1
                or loop.latch_edges[0].src is not body or loop.body_edge.dst is not body):
            return "multi_state_body"
        # The body edge and latch must not carry extra work.
        if loop.body_edge.data.assignments or \
                set(loop.latch_edges[0].data.assignments) - {induction}:
            return "latch_assignments"
        if loop.step_expr is None or not loop.step_expr.is_constant():
            return "symbolic_step"
        sdfg = body.sdfg
        if inductions is None:
            inductions = lazy_induction_ranges(sdfg)
        accesses = _accesses(body, lambda: inductions().get(body, {}))
        shared = [
            name for name, (stores, loads) in accesses.items()
            if stores and isinstance(sdfg.arrays[name], Scalar) and (loads or not _updates(stores))
        ]
        private: Optional[Set[str]] = None
        if shared:
            private = private_containers(sdfg, body, body.nodes(), live)
            uses = container_uses(sdfg, body)
            for name in shared:
                if name not in private:
                    return "carried_scalar" if uses[name].exposed else "live_after_loop"
        apart = frozenset(param for node in body.nodes() if isinstance(node, MapEntry)
                          for param in node.map.params)
        for name, (stores, loads) in accesses.items():
            if not stores or isinstance(sdfg.arrays[name], Scalar):
                continue
            refused = "reads_what_it_writes" if _updates(stores) else "writes_collide"
            if any(
                (wcr is None or wcr != other_wcr) and may_meet(other, store, apart, (induction,))
                for position, (store, wcr) in enumerate(stores)
                for other, other_wcr in stores[position:] + [(load, None) for load in loads]
            ):
                if private is None:
                    private = private_containers(sdfg, body, body.nodes(), live)
                if name not in private:
                    return refused
        return None

    def _convert(self, sdfg: SDFG, loop: LoopInfo) -> SDFGState:
        """Make ``loop``, which :meth:`refusal` accepts, a map; return its body."""
        body = next(iter(loop.body_states))

        induction = loop.induction_symbol
        map_range = Range(loop.init_expr, loop.bound_expr, loop.step_expr)
        self._wrap_state_in_map(body, f"map_{induction}", induction, map_range)

        # Rewire the state machine: predecessors of the guard go straight to
        # the body, the body goes straight to the exit destination.
        guard = loop.guard
        exit_dst = loop.exit_edge.dst
        for entry_edge in loop.entry_edges:
            assignments = dict(entry_edge.data.assignments)
            assignments.pop(induction, None)
            sdfg.remove_edge(entry_edge)
            sdfg.add_edge(entry_edge.src, body, type(entry_edge.data)(
                entry_edge.data.condition, assignments))
        sdfg.remove_edge(loop.body_edge)
        sdfg.remove_edge(loop.exit_edge)
        sdfg.remove_edge(loop.latch_edges[0])
        sdfg.add_edge(body, exit_dst, type(loop.exit_edge.data)())
        if sdfg.start_state is guard:
            sdfg.start_state = body
        if sdfg.in_degree(guard) == 0 and sdfg.out_degree(guard) == 0:
            sdfg.remove_state(guard)
        return body

    def _enclosing(self, sdfg: SDFG, body: SDFGState) -> Optional[LoopInfo]:
        """The loop around ``body`` when raising it left that loop's body
        straight-line (:func:`chain_loop`) and, fused into one state, the
        loop may be a map."""
        loop = chain_loop(sdfg, body)
        if loop is not None and len(loop.body_states) > 1:
            first = loop.body_edge.dst
            StateFusion().fuse_run(sdfg, first, loop.body_states)
            loop = chain_loop(sdfg, first)
        if loop is None or len(loop.body_states) > 1 or self.refusal(loop) is not None:
            return None
        return loop

    @staticmethod
    def _wrap_state_in_map(state: SDFGState, label: str, param: str, map_range: Range) -> None:
        entry, exit_node = state.add_map(label, [param], [map_range])
        sources = [
            node
            for node in state.nodes()
            if node not in (entry, exit_node) and state.in_degree(node) == 0
        ]
        sinks = [
            node
            for node in state.nodes()
            if node not in (entry, exit_node) and state.out_degree(node) == 0
        ]
        for source in sources:
            if isinstance(source, AccessNode):
                # Reads enter the scope through the map entry.
                reads = 0
                for edge in list(state.out_edges(source)):
                    state.remove_edge(edge)
                    if edge.data.is_empty and isinstance(edge.dst, AccessNode):
                        # A pure ordering edge (state fusion's write-after-read
                        # marker).  Towards a sink the scope boundary already
                        # orders the two; otherwise it keeps the node inside.
                        if edge.dst not in sinks:
                            state.add_nedge(entry, edge.dst, Memlet.empty())
                        continue
                    reads += 1
                    connector = f"OUT_{source.data}"
                    entry.add_in_connector(f"IN_{source.data}")
                    entry.add_out_connector(connector)
                    state.add_edge(entry, connector, edge.dst, edge.dst_conn, edge.data)
                if not reads:
                    state.remove_node(source)
                    continue
                descriptor_shape = state.sdfg.arrays[source.data].shape if state.sdfg else ()
                outer = Memlet(
                    data=source.data,
                    subset=Subset.full(descriptor_shape) if descriptor_shape else None,
                )
                state.add_edge(source, None, entry, f"IN_{source.data}", outer)
            else:
                state.add_nedge(entry, source, Memlet.empty())
        for sink in sinks:
            if sink in sources:
                continue
            if isinstance(sink, AccessNode):
                for edge in list(state.in_edges(sink)):
                    if edge.src is entry:
                        continue
                    connector = f"IN_{sink.data}"
                    exit_node.add_in_connector(connector)
                    exit_node.add_out_connector(f"OUT_{sink.data}")
                    state.add_edge(edge.src, edge.src_conn, exit_node, connector, edge.data)
                    state.remove_edge(edge)
                descriptor_shape = state.sdfg.arrays[sink.data].shape if state.sdfg else ()
                outer = Memlet(
                    data=sink.data,
                    subset=Subset.full(descriptor_shape) if descriptor_shape else None,
                )
                state.add_edge(exit_node, f"OUT_{sink.data}", sink, None, outer)
            else:
                state.add_nedge(sink, exit_node, Memlet.empty())
        # Make sure the scope is connected even with no external reads.
        if state.in_degree(entry) == 0 and state.out_degree(entry) == 0:
            state.add_nedge(entry, exit_node, Memlet.empty())
        # Only the new scope: it wraps the whole state, so every scope
        # inside it kept its own, already propagated, boundary memlets.
        from ..sdfg.propagation import propagate_memlets_scope

        propagate_memlets_scope(state, entry)


def _accesses(body: SDFGState, loops: Callable[[], Dict[str, Range]]
              ) -> Dict[str, Tuple[List[Tuple[Site, Optional[str]]], List[Site]]]:
    """Per container ``body`` touches: each store with its operator, and each
    read.  An access is where a tasklet or an access node makes it, with
    the ranges of the maps around it and of the loops (``loops`` returns
    those); a nested scope's boundary memlet is only a bounding box of
    those.  A memlet that names another container, as a copy's may, has
    no subset."""
    scope = None
    known: Dict[object, Dict[str, Range]] = {}

    def ranges(node) -> Dict[str, Range]:
        nonlocal scope
        if node not in known:
            if scope is None:
                scope = body.scope_dict()
            known[node] = site_ranges(scope, node, loops())
        return known[node]

    def site(memlet: Memlet, name: str, node) -> Site:
        return Site(memlet.subset if memlet.data == name else None, partial(ranges, node))

    found: Dict[str, Tuple[List[Tuple[Site, Optional[str]]], List[Site]]] = {}
    for edge in body.edges():
        memlet, source, destination = edge.data, edge.src, edge.dst
        if memlet.is_empty:
            continue
        if isinstance(destination, (AccessNode, MapExit)) and not isinstance(source, MapExit):
            name = destination.data if isinstance(destination, AccessNode) else memlet.data
            found.setdefault(name, ([], []))[0].append((site(memlet, name, source), memlet.wcr))
        if isinstance(destination, MapEntry):
            continue
        if isinstance(source, (AccessNode, MapEntry)):
            name = source.data if isinstance(source, AccessNode) else memlet.data
            found.setdefault(name, ([], []))[1].append(site(memlet, name, destination))
    return found


def _updates(stores: Sequence[Tuple[Site, Optional[str]]]) -> bool:
    """Whether every store is an update (WCR) with one operator."""
    return stores[0][1] is not None and all(wcr == stores[0][1] for _, wcr in stores)


def loops_left(sdfg: SDFG) -> Dict[str, int]:
    """How many loops ``sdfg`` still has, per :meth:`LoopToMap.refusal` name
    (``eligible`` for one the data stage's last sweep left raisable)."""
    live = lazy_liveness(sdfg)
    loops = find_loops(sdfg)
    inductions = lazy_induction_ranges(sdfg, loops)
    counted: Dict[str, int] = {}
    for loop in loops:
        reason = LoopToMap.refusal(loop, live, inductions) or "eligible"
        counted[reason] = counted.get(reason, 0) + 1
    return counted


class MapFusion(Transformation):
    """Memory-reducing loop fusion (§6.3), conservative form.

    Fuses two map scopes in the same state when they share the same single
    parameter and range and the only dataflow between them is an
    elementwise transient written by the first map and read by the second
    at the same index.  The intermediate access is narrowed to the fused
    iteration, removing the array-sized intermediate from the critical
    path.
    """

    NAME = "map-fusion"
    DRAIN = "restart"

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state in sdfg.states():
            for intermediate in state.data_nodes():
                found = self._fusable(sdfg, state, intermediate)
                if found is None:
                    continue
                producer_exit, consumer_entry = found
                matches.append(Match(
                    transformation=self.name,
                    kind="map-pair",
                    where=state.label,
                    subject=(
                        f"{producer_exit.map.label} + {consumer_entry.map.label} "
                        f"via {intermediate.data}"
                    ),
                    payload={"state": state, "intermediate": intermediate},
                ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        intermediate: AccessNode = match.payload["intermediate"]
        if state not in sdfg.states() or intermediate not in state:
            return False
        found = self._fusable(sdfg, state, intermediate)
        if found is None:
            return False
        producer_exit, consumer_entry = found
        self._fuse_scopes(sdfg, state, producer_exit, consumer_entry, intermediate)
        return True

    @staticmethod
    def _fusable(sdfg: SDFG, state: SDFGState, intermediate: AccessNode):
        """The fusable (producer exit, consumer entry) around a transient.

        Fusing runs iteration *i* of the consumer right after iteration *i*
        of the producer and drops the intermediate, so it needs more than
        matching ranges: the intermediate has no other access anywhere, the
        consumer reads exactly the element its own iteration produced, and
        nothing else in the state touches what the consumer writes or
        writes what it reads.
        """
        if intermediate not in state:
            return None
        descriptor = sdfg.arrays.get(intermediate.data)
        if descriptor is None or not descriptor.transient:
            return None
        in_edges = state.in_edges(intermediate)
        out_edges = state.out_edges(intermediate)
        if len(in_edges) != 1 or len(out_edges) != 1:
            return None
        producer_exit = in_edges[0].src
        consumer_entry = out_edges[0].dst
        if not isinstance(producer_exit, MapExit) or not isinstance(consumer_entry, MapEntry):
            return None
        first_map = producer_exit.map
        second_map = consumer_entry.map
        if len(first_map.params) != 1 or len(second_map.params) != 1:
            return None
        if first_map.ranges[0] != second_map.ranges[0]:
            return None
        name = intermediate.data
        if name in sdfg.return_values or any(
            node.data == name and node is not intermediate
            for other in sdfg.states() for node in other.data_nodes()
        ):
            return None
        writes = [
            edge.data for edge in state.in_edges(producer_exit)
            if not edge.data.is_empty and edge.data.data == name
        ]
        if len(writes) != 1 or writes[0].wcr is not None or writes[0].subset is None \
                or not writes[0].subset.is_point():
            return None
        rename = {second_map.params[0]: Symbol(first_map.params[0])}
        for edge in state.out_edges(consumer_entry):
            if not edge.data.is_empty and edge.data.data == name \
                    and edge.data.subs(rename).subset != writes[0].subset:
                return None

        # The consumer moves up to the producer's position.  It may cross
        # any node when nothing in this state can conflict with it: what it
        # writes has no other access node or writer, and whatever else it
        # reads is written nowhere here.
        consumer_exit = state.exit_node(consumer_entry)
        outputs = [edge.dst for edge in state.out_edges(consumer_exit)]
        if any(edge.src is not consumer_exit for node in outputs for edge in state.in_edges(node)):
            return None
        written = {node.data for node in outputs}
        consumed = {
            edge.data.data for edge in state.in_edges(consumer_entry) if not edge.data.is_empty
        } - {name}
        for node in state.data_nodes():
            if node.data in written and node not in outputs:
                return None
            if node.data in consumed and state.in_degree(node):
                return None
        # Renaming the consumer's parameter needs the code of its tasklets read.
        scope = state.scope_dict() if first_map.params != second_map.params else {}
        if any(isinstance(node, Tasklet) and statements(node.code) is None
               for node, entry in scope.items() if entry is consumer_entry):
            return None
        return producer_exit, consumer_entry

    def _fuse_scopes(self, sdfg: SDFG, state: SDFGState, producer_exit: MapExit,
                     consumer_entry: MapEntry, intermediate: AccessNode) -> None:
        first_entry = state.entry_node(producer_exit)
        consumer_exit = state.exit_node(consumer_entry)
        first_param = first_entry.map.params[0]
        second_param = consumer_entry.map.params[0]

        # Rename the second map's parameter to the first's inside its scope.
        if second_param != first_param:
            rename = {second_param: Symbol(first_param)}
            scope = state.scope_dict()
            for edge in state.edges():
                if scope.get(edge.src) is consumer_entry or scope.get(edge.dst) is consumer_entry:
                    if not edge.data.is_empty:
                        edge.data = edge.data.subs(rename)
            for node in state.nodes():
                if scope.get(node) is consumer_entry and isinstance(node, Tasklet):
                    node.code = renamed(node.code, {second_param: first_param})

        # Connect the producer's inner writers of the intermediate directly
        # to the consumer's inner readers.
        inner_write_edges = [
            edge for edge in state.in_edges(producer_exit)
            if not edge.data.is_empty and edge.data.data == intermediate.data
        ]
        inner_read_edges = [
            edge for edge in state.out_edges(consumer_entry)
            if not edge.data.is_empty and edge.data.data == intermediate.data
        ]
        for write_edge in inner_write_edges:
            for read_edge in inner_read_edges:
                # The element now travels as a value, not through memory.
                state.add_edge(
                    write_edge.src, write_edge.src_conn, read_edge.dst, read_edge.dst_conn,
                    Memlet.empty(),
                )
        for edge in inner_write_edges + inner_read_edges:
            state.remove_edge(edge)

        # Move remaining external connections of the consumer scope onto the
        # first scope's entry/exit.
        for edge in list(state.in_edges(consumer_entry)):
            state.remove_edge(edge)
            if isinstance(edge.src, AccessNode) and edge.dst_conn:
                connector = edge.dst_conn
                first_entry.add_in_connector(connector)
                state.add_edge(edge.src, edge.src_conn, first_entry, connector, edge.data)
        for edge in list(state.out_edges(consumer_entry)):
            state.remove_edge(edge)
            if edge.src_conn:
                first_entry.add_out_connector(edge.src_conn)
                state.add_edge(first_entry, edge.src_conn, edge.dst, edge.dst_conn, edge.data)
        for edge in list(state.in_edges(consumer_exit)):
            state.remove_edge(edge)
            if edge.dst_conn:
                producer_exit.add_in_connector(edge.dst_conn)
                state.add_edge(edge.src, edge.src_conn, producer_exit, edge.dst_conn, edge.data)
        for edge in list(state.out_edges(consumer_exit)):
            state.remove_edge(edge)
            if edge.src_conn:
                producer_exit.add_out_connector(edge.src_conn)
                state.add_edge(producer_exit, edge.src_conn, edge.dst, edge.dst_conn, edge.data)

        # Remove the intermediate access node and the now-empty second scope.
        for edge in list(state.in_edges(intermediate)) + list(state.out_edges(intermediate)):
            state.remove_edge(edge)
        state.remove_node(intermediate)
        state.remove_node(consumer_entry)
        state.remove_node(consumer_exit)

        sdfg.remove_data(intermediate.data, validate=False)

        from ..sdfg.propagation import propagate_memlets_state

        propagate_memlets_state(sdfg, state)
