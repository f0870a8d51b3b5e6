"""State fusion: enlarging pure dataflow regions (§6.1, "SDFG Simplification").

Fuses a state into its unique predecessor when the connecting transition is
unconditional and carries no symbol assignments.  Data dependencies between
the two states are preserved by merging access nodes (read-after-write) and
adding explicit ordering edges (write-after-read / write-after-write), so
the fused state remains a correct acyclic dataflow graph without
introducing data races.

Pattern-based: a match is one fusable ``(first, second)`` state pair; each
application creates new fusion opportunities (the fused state may now have
a unique unconditional successor), so the drain restarts after every
application (``DRAIN = "restart"``).  A fusion changes the answer of
``_fusable_edge`` for ``first`` only, so :meth:`StateFusion.rematch`
patches the previous match list with one probe instead of probing every
state again: draining a chain of *n* states costs O(n) probes, not O(n²),
and yields the same fusions in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sdfg import SDFG, AccessNode, Memlet, SDFGState
from .rewrite import Match, Transformation


class StateFusion(Transformation):
    """Repeatedly fuse linear, unconditional state pairs."""

    NAME = "state-fusion"
    DRAIN = "restart"

    def match(self, sdfg: SDFG) -> List[Match]:
        found = (self._match_at(sdfg, first) for first in sdfg.states())
        return [entry for entry in found if entry is not None]

    def _match_at(self, sdfg: SDFG, first: SDFGState) -> Optional[Match]:
        edge = self._fusable_edge(sdfg, first)
        if edge is None:
            return None
        return Match(
            transformation=self.name,
            kind="state-pair",
            where=first.label,
            subject=f"{first.label} <- {edge.dst.label}",
            payload={"first": first, "second": edge.dst, "edge": edge},
        )

    def rematch(self, sdfg: SDFG, found: List[Match], applied: Match) -> List[Match]:
        """Patch ``found`` instead of probing every state again.

        Fusing ``(first, second)`` removes ``second`` and hands its
        out-transitions to ``first``; every other state keeps its
        out-edges, and every surviving destination keeps its in-edge
        *count* (each ``second -> t`` became one ``first -> t``), so
        :meth:`_fusable_edge` can answer differently for ``first`` alone.
        ``sdfg.states()`` keeps its order under removal, hence a fresh
        enumeration is ``found`` without ``second``'s entry and with
        ``first``'s entry re-derived where it stood.
        """
        first, second = applied.payload["first"], applied.payload["second"]
        patched: List[Match] = []
        for entry in found:
            if entry is applied:
                entry = self._match_at(sdfg, first)
            if entry is not None and entry.payload["first"] is not second:
                patched.append(entry)
        return patched

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        first: SDFGState = match.payload["first"]
        second: SDFGState = match.payload["second"]
        # Revalidate against the current graph: an earlier fusion may have
        # consumed either state or rewired the transition.
        if first not in sdfg or second not in sdfg:
            return False
        edge = self._fusable_edge(sdfg, first)
        if edge is None or edge.dst is not second:
            return False
        self._fuse(sdfg, first, second, edge)
        return True

    @staticmethod
    def _fusable_edge(sdfg: SDFG, first: SDFGState):
        """The single fusable out-transition of ``first`` (or None)."""
        out_edges = sdfg.out_edges(first)
        if len(out_edges) != 1:
            return None
        edge = out_edges[0]
        second = edge.dst
        if second is first:
            return None
        if len(sdfg.in_edges(second)) != 1:
            return None
        if not edge.data.is_unconditional or edge.data.assignments:
            return None
        if second is sdfg.start_state:
            return None
        return edge

    def _fuse(self, sdfg: SDFG, first: SDFGState, second: SDFGState, edge) -> None:
        # Last access node per container in the first state (for merging).
        last_in_first: Dict[str, AccessNode] = {}
        for node in first.program_order():
            if isinstance(node, AccessNode):
                last_in_first[node.data] = node

        # Move nodes of the second state into the first, appended in their
        # own order so that the fused state's insertion order stays the
        # program's order.
        node_order = second.program_order()
        first_read_node_in_second: Dict[str, AccessNode] = {}
        for node in node_order:
            if isinstance(node, AccessNode) and node.data not in first_read_node_in_second:
                first_read_node_in_second[node.data] = node

        for node in node_order:
            first.add_node(node)
        for dataflow_edge in second.edges():
            first.add_edge(
                dataflow_edge.src,
                dataflow_edge.src_conn,
                dataflow_edge.dst,
                dataflow_edge.dst_conn,
                dataflow_edge.data,
            )

        # Merge: the *first* access node of container X in the second state
        # becomes the last node of X in the first state (RAW dependency),
        # provided it only reads (no incoming writes) — otherwise keep it
        # separate but add an ordering edge (WAR/WAW).
        for data, second_node in first_read_node_in_second.items():
            if data not in last_in_first:
                continue
            first_node = last_in_first[data]
            if first_node is second_node or first_node not in first:
                continue
            incoming = first.in_edges(second_node)
            if not incoming:
                # Pure read in the second state: redirect its outgoing edges
                # to the first state's node and drop the duplicate.
                for out_edge in list(first.out_edges(second_node)):
                    first.add_edge(
                        first_node, out_edge.src_conn, out_edge.dst, out_edge.dst_conn,
                        out_edge.data,
                    )
                    first.remove_edge(out_edge)
                first.remove_node(second_node)
            else:
                # The second state writes the container: order it after the
                # first state's accesses with an explicit dependency edge.
                if not first.edges_between(first_node, second_node):
                    first.add_nedge(first_node, second_node, Memlet.empty())

        # Rewire the state machine.
        sdfg.remove_edge(edge)
        for out_edge in list(sdfg.out_edges(second)):
            sdfg.remove_edge(out_edge)
            sdfg.add_edge(first, out_edge.dst, out_edge.data)
        sdfg.remove_state(second)
