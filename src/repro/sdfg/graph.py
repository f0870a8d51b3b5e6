"""The ordered multigraph under both :class:`SDFG` and :class:`SDFGState`.

Both IR levels are directed multigraphs of edge *objects* (``src``/``dst``/
``key``) kept in a ``networkx.MultiDiGraph``.  Queries read its adjacency
mappings (``_node``, ``_succ[u][v][key]``, ``_pred[v][u][key]``) instead of
building an ``EdgeDataView`` per call, in the neighbour-then-key order the
views iterate in; ``tests/test_graph_contract.py`` holds every query to the
``networkx`` expression it replaces.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import networkx as nx


class OrderedMultiDiGraph:
    """Nodes in insertion order, parallel edges and self-loops allowed."""

    def __init__(self):
        self._graph = nx.MultiDiGraph()
        #: ``program_order()`` of the current graph; every mutator drops it.
        self._program = None

    def add_node(self, node):
        self._graph.add_node(node)
        self._program = None
        return node

    def remove_node(self, node) -> None:
        self._graph.remove_node(node)
        self._program = None

    def _insert_edge(self, edge):
        self._graph.add_edge(edge.src, edge.dst, key=edge.key, edge=edge)
        self._program = None
        return edge

    def remove_edge(self, edge) -> None:
        self._graph.remove_edge(edge.src, edge.dst, key=edge.key)
        self._program = None

    def nodes(self) -> list:
        return list(self._graph._node)

    def __contains__(self, node) -> bool:
        return node in self._graph._node

    def number_of_nodes(self) -> int:
        return len(self._graph._node)

    def edges(self) -> list:
        return [
            data["edge"]
            for neighbours in self._graph._succ.values()
            for keyed in neighbours.values()
            for data in keyed.values()
        ]

    def in_edges(self, node) -> list:
        return [d["edge"] for keyed in self._graph._pred[node].values() for d in keyed.values()]

    def out_edges(self, node) -> list:
        return [d["edge"] for keyed in self._graph._succ[node].values() for d in keyed.values()]

    def in_degree(self, node) -> int:
        return sum(map(len, self._graph._pred[node].values()))

    def out_degree(self, node) -> int:
        return sum(map(len, self._graph._succ[node].values()))

    def edges_between(self, src, dst) -> list:
        keyed = self._graph._succ.get(src, {}).get(dst, {})
        return [data["edge"] for data in keyed.values()]

    def predecessors(self, node) -> list:
        return list(self._graph._pred[node])

    def successors(self, node) -> list:
        return list(self._graph._succ[node])

    def ancestors(self, node) -> set:
        """Every node with a path to ``node`` (itself excluded)."""
        return _closure(self._graph._pred, node)

    def descendants(self, node) -> set:
        """Every node reachable from ``node`` (itself excluded)."""
        return _closure(self._graph._succ, node)

    def program_order(self) -> list:
        """The topological order that departs least from insertion order.

        Of all valid orders, the one that always continues with the
        earliest-inserted ready node.  Builders insert nodes in program
        order and state fusion appends the later state's nodes, so this is
        the order the source program ran its operations in — which the
        edges alone do not always pin (two writers of one container are
        joined through their access nodes, not to each other).  It is the
        only order the graph hands out: scope queries, every pass and both
        code generators see one sequence, so a pass that inserts a node
        where it belongs in the program is ordered the same everywhere.
        Raises ``networkx.NetworkXUnfeasible`` on a cycle.  Computed once
        per mutation; callers get their own copy.
        """
        if self._program is None:
            pred, succ = self._graph._pred, self._graph._succ
            nodes = list(self._graph._node)
            index = {node: position for position, node in enumerate(nodes)}
            waiting = {node: len(pred[node]) for node in nodes}
            ready = [position for position, node in enumerate(nodes) if not waiting[node]]
            heapify(ready)
            order = []
            while ready:
                node = nodes[heappop(ready)]
                order.append(node)
                for successor in succ[node]:
                    waiting[successor] -= 1
                    if not waiting[successor]:
                        heappush(ready, index[successor])
            if len(order) != len(nodes):
                raise nx.NetworkXUnfeasible("Graph contains a cycle")
            self._program = order
        return list(self._program)


def _closure(adjacency, start) -> set:
    seen: set = set()
    frontier = [start]
    while frontier:
        for neighbour in adjacency[frontier.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    seen.discard(start)  # on a cycle it reaches itself; the contract is networkx's
    return seen
