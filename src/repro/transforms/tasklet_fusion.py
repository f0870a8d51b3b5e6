"""Tasklet fusion: collapsing the bridge's one-operation-per-tasklet chains.

The bridge turns every MLIR operation into its own tasklet and joins it to
the next through a transient scalar (§5.2), so one fused multiply-add
reaches the SDFG as load → ``_load_N`` → mul → ``_mulf_N`` → add →
``_addf_N`` → store.  The data-centric passes that follow reason about
*one* tasklet and its memlets — update detection needs a tasklet that
reads and writes ``A[s]``, ``LoopToMap`` a body that does not write and
then read its own scalars — so the chain has to go first.

A match is a transient :class:`~repro.sdfg.Scalar` access node between a
*producer* and a *consumer* tasklet, both a single ``_out = <expression>``
line of Python.  Applying substitutes the producer's (parenthesised)
expression for the consumer's connector, moves the producer's in-edges
onto the consumer, renumbers the connectors ``_in0 … _inK`` in order of
first use, and removes producer, access node and container.  Identity
loads and stores (``_out = _in``) are the trivial case: the memory read
lands on the consuming tasklet's memlet.

The pass refuses when

* the scalar has any other reference — a second reader or writer, an
  access node in another state, a memlet through a map boundary, an
  interstate condition or assignment, the SDFG's return values;
* the scalar's in-edge is an update (WCR) or dynamic, or producer and
  consumer sit in different scopes;
* either tasklet is not one single-target assignment in Python, or the
  consumer uses the connector more than once and the producer computes
  (substitution would repeat the computation);
* the scalar's dtype differs from the producer's result type (the store
  converts, so it is not a copy);
* a write to a container the producer reads could be ordered between the
  two tasklets: every such write must have a path *to* the producer or
  *from* the consumer (``t = A[i]; A[i] = 0; B[i] = t`` is refused).
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Dict, List, Optional, Set

from ..sdfg import SDFG, AccessNode, Scalar, SDFGState, Tasklet
from ..sdfg.nodes import MapExit
from ..sdfg.tasklet_code import Assignment, assignment_dtype, name_dtypes, single_assignment
from .rewrite import Match, Transformation


class _Usage:
    """Where container names are referenced, counted once per sweep.

    Fusions only remove references and never add a write, so the counts
    taken when a sweep starts stay a sound basis for revalidating its
    matches; across any other mutation they do not (see ``apply``).
    """

    def __init__(self, sdfg: SDFG):
        self.access_nodes: Counter = Counter()
        self.memlets: Counter = Counter()
        for state in sdfg.states():
            for node in state.data_nodes():
                self.access_nodes[node.data] += 1
            for edge in state.edges():
                if not edge.data.is_empty:
                    self.memlets[edge.data.data] += 1
        self.elsewhere: Set[str] = set(sdfg.return_values)
        for edge in sdfg.edges():
            self.elsewhere |= edge.data.free_symbols()
            self.elsewhere |= set(edge.data.assignments)
        self.names: Dict[str, str] = name_dtypes(sdfg.symbols, sdfg.constants)
        self._states: Dict[SDFGState, tuple] = {}

    def only_here(self, name: str) -> bool:
        """One access node, its in- and out-memlet, and nothing else."""
        return (
            self.access_nodes[name] == 1
            and self.memlets[name] == 2
            and name not in self.elsewhere
        )

    def of_state(self, state: SDFGState) -> tuple:
        """``(scope of each node or None without maps, who writes each container)``."""
        facts = self._states.get(state)
        if facts is None:
            has_map = any(isinstance(node, MapExit) for node in state.nodes())
            writers: Dict[str, Set] = {}
            for edge in state.edges():
                if not edge.data.is_empty and isinstance(edge.dst, (AccessNode, MapExit)):
                    # A copy lands when its destination access node is
                    # reached, any other write when its code node runs.
                    writer = edge.dst if isinstance(edge.src, AccessNode) else edge.src
                    writers.setdefault(edge.data.data, set()).add(writer)
            facts = self._states[state] = (state.scope_dict() if has_map else None, writers)
        return facts


class TaskletFusion(Transformation):
    """Fuse single-assignment tasklets joined by a private transient scalar."""

    NAME = "tasklet-fusion"
    DRAIN = "sweep"

    #: The reference counts of the sweep in progress, ``None`` outside one.
    _sweep_usage: Optional[_Usage] = None

    def apply(self, sdfg: SDFG, match: Optional[Match] = None) -> bool:
        """One count serves a whole sweep — fusions only remove references.

        Nothing else may: a match applied on its own (``apply(sdfg, match)``
        or :meth:`apply_match`, after whatever the caller did to the graph
        in between) is revalidated against a fresh count.
        """
        self._sweep_usage = _Usage(sdfg) if match is None else None
        try:
            return super().apply(sdfg, match)
        finally:
            self._sweep_usage = None

    def match(self, sdfg: SDFG) -> List[Match]:
        usage = self._sweep_usage or _Usage(sdfg)
        matches: List[Match] = []
        for state in sdfg.states():
            for node in state.data_nodes():
                if self._site(sdfg, state, node, usage) is None:
                    continue
                producer = state.in_edges(node)[0].src
                consumer = state.out_edges(node)[0].dst
                matches.append(Match(
                    transformation=self.name,
                    kind="chain",
                    where=state.label,
                    subject=f"{producer.label} -> {node.data} -> {consumer.label}",
                    payload={"state": state, "node": node},
                ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        node: AccessNode = match.payload["node"]
        if state not in sdfg or node not in state:
            return False
        site = self._site(sdfg, state, node, self._sweep_usage or _Usage(sdfg))
        if site is None:
            return False
        self._fuse(sdfg, state, node, *site)
        return True

    # -- the pattern -------------------------------------------------------------------
    def _site(self, sdfg: SDFG, state: SDFGState, node: AccessNode, usage: _Usage):
        """``(producer assignment, consumer assignment)`` when ``node`` is fusable."""
        descriptor = sdfg.arrays.get(node.data)
        if not isinstance(descriptor, Scalar) or not descriptor.transient:
            return None
        in_edges, out_edges = state.in_edges(node), state.out_edges(node)
        if len(in_edges) != 1 or len(out_edges) != 1:
            return None
        write, read = in_edges[0], out_edges[0]
        producer, consumer = write.src, read.dst
        if not isinstance(producer, Tasklet) or not isinstance(consumer, Tasklet):
            return None
        if write.data.data != node.data or read.data.data != node.data:
            return None
        if write.data.wcr is not None or write.data.dynamic or read.data.dynamic:
            return None
        if not usage.only_here(node.data) or state.out_degree(producer) != 1:
            return None
        if producer.language != "python" or consumer.language != "python":
            return None
        produced = single_assignment(producer.code)
        consumed = single_assignment(consumer.code)
        if produced is None or consumed is None or produced.target != write.src_conn:
            return None
        uses = consumed.uses(read.dst_conn)
        if uses == 0 or uses > 1 and not isinstance(produced.value, (ast.Name, ast.Constant)):
            return None
        producer_reads = state.in_edges(producer)
        if assignment_dtype(produced, producer_reads, sdfg.arrays, usage.names) \
                != descriptor.dtype:
            return None
        scope, writers = usage.of_state(state)
        if scope is not None and not scope[producer] is scope[node] is scope[consumer]:
            return None
        if self._write_between(state, producer_reads, producer, consumer, writers):
            return None
        return produced, consumed

    @staticmethod
    def _write_between(state: SDFGState, producer_reads, producer: Tasklet,
                       consumer: Tasklet, writers: Dict[str, Set]) -> bool:
        """Whether a write to something the producer reads may fall between the two.

        The fused tasklet reads where the consumer stood.  A write is
        harmless when the graph orders it before the producer (a path to
        it) or after the consumer (a path from it, or the consumer's own
        write); anything else could execute in between.
        """
        pending: Set = set()
        for edge in producer_reads:
            if not edge.data.is_empty:
                pending.update(writers.get(edge.data.data, ()))
        pending.discard(consumer)
        if pending:
            pending -= state.ancestors(producer)
        if pending:
            pending -= state.descendants(consumer)
        return bool(pending)

    # -- the rewrite -------------------------------------------------------------------
    @staticmethod
    def _fuse(sdfg: SDFG, state: SDFGState, node: AccessNode,
              produced: Assignment, consumed: Assignment) -> None:
        write, read = state.in_edges(node)[0], state.out_edges(node)[0]
        producer, consumer = write.src, read.dst
        moved = state.in_edges(producer)
        kept = [edge for edge in state.in_edges(consumer) if edge is not read]

        # Number the connectors of both tasklets in order of first use in
        # the fused expression; connected-but-unused ones go last.
        inner = [name for name, _, _ in produced.names]
        order: List[tuple] = []
        for name, _, _ in consumed.names:
            order += [(producer, used) for used in inner] if name == read.dst_conn \
                else [(consumer, name)]
        connected = [
            (tasklet, edge.dst_conn)
            for tasklet, edges in ((producer, moved), (consumer, kept))
            for edge in edges if edge.dst_conn is not None
        ]
        order = [key for key in dict.fromkeys(order) if key in connected]
        order += [key for key in connected if key not in order]
        final = {key: f"_in{position}" for position, key in enumerate(order)}

        def renaming(tasklet) -> Dict[str, str]:
            return {name: new for (owner, name), new in final.items() if owner is tasklet}

        expression = produced.operand(renaming(producer))
        if not isinstance(consumed.value, ast.Name):  # else an identity: the inlined text is it
            expression = consumed.operand({**renaming(consumer), read.dst_conn: expression})
        consumer.code = f"{consumed.target} = {expression}"

        # The consumer's own edges stay where they are under their new
        # names; the producer's are re-pointed at the consumer.
        consumer.in_connectors.clear()
        for edge in kept:
            if edge.dst_conn is not None:
                edge.dst_conn = final[consumer, edge.dst_conn]
                consumer.add_in_connector(edge.dst_conn)
        for edge in moved:
            connector = None if edge.dst_conn is None else final[producer, edge.dst_conn]
            state.add_edge(edge.src, edge.src_conn, consumer, connector, edge.data)
        state.remove_node(producer)
        state.remove_node(node)
        sdfg.remove_data(node.data, validate=False)

