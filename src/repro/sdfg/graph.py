"""The ordered multigraph under both :class:`SDFG` and :class:`SDFGState`.

Both IR levels are directed multigraphs of edge *objects* (``src``/``dst``/
``key``).  The graph keeps two ordered adjacency dicts,
``_succ[u][v][key] = edge`` and ``_pred[v][u][key] = edge``, under
``networkx.MultiDiGraph``'s insertion and removal rules: nodes in insertion
order, neighbours in the order their first edge arrived, parallel edges by
key.  Every query answers neighbour first, then key, and the graph
algorithms the compiler uses live here too; ``tests/test_graph_contract.py``
holds each query and algorithm to the ``networkx`` expression it stands for.
"""

from __future__ import annotations

from functools import reduce
from heapq import heapify, heappop, heappush


class GraphCycleError(ValueError):
    """:meth:`OrderedMultiDiGraph.program_order` of a graph with a cycle."""


class OrderedMultiDiGraph:
    """Nodes in insertion order, parallel edges and self-loops allowed."""

    def __init__(self):
        self._succ: dict = {}
        self._pred: dict = {}
        #: ``program_order()`` of the current graph; every mutator drops it.
        self._program = None

    def add_node(self, node):
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
        self._program = None
        return node

    def remove_node(self, node) -> None:
        for successor in self._succ.pop(node):
            del self._pred[successor][node]
        for predecessor in self._pred.pop(node):
            del self._succ[predecessor][node]
        self._program = None

    def _insert_edge(self, edge):
        self.add_node(edge.src)
        self.add_node(edge.dst)
        keyed = self._succ[edge.src].get(edge.dst)
        if keyed is None:
            # One dict under both ends, so both list parallel edges alike.
            keyed = self._succ[edge.src][edge.dst] = self._pred[edge.dst][edge.src] = {}
        keyed[edge.key] = edge
        return edge

    def remove_edge(self, edge) -> None:
        keyed = self._succ[edge.src][edge.dst]
        del keyed[edge.key]
        if not keyed:
            del self._succ[edge.src][edge.dst]
            del self._pred[edge.dst][edge.src]
        self._program = None

    def nodes(self) -> list:
        return list(self._succ)

    def __contains__(self, node) -> bool:
        return node in self._succ

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def edges(self) -> list:
        return [
            edge
            for neighbours in self._succ.values()
            for keyed in neighbours.values()
            for edge in keyed.values()
        ]

    def in_edges(self, node) -> list:
        return [edge for keyed in self._pred[node].values() for edge in keyed.values()]

    def out_edges(self, node) -> list:
        return [edge for keyed in self._succ[node].values() for edge in keyed.values()]

    def in_degree(self, node) -> int:
        return sum(map(len, self._pred[node].values()))

    def out_degree(self, node) -> int:
        return sum(map(len, self._succ[node].values()))

    def edges_between(self, src, dst) -> list:
        return list(self._succ.get(src, {}).get(dst, {}).values())

    def predecessors(self, node) -> list:
        return list(self._pred[node])

    def successors(self, node) -> list:
        return list(self._succ[node])

    def ancestors(self, node) -> set:
        """Every node with a path to ``node`` (itself excluded)."""
        return _closure(self._pred, node)

    def descendants(self, node) -> set:
        """Every node reachable from ``node`` (itself excluded)."""
        return _closure(self._succ, node)

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
        Raises :class:`GraphCycleError` on a cycle.  Computed once per
        mutation; callers get their own copy.
        """
        if self._program is None:
            pred, succ = self._pred, self._succ
            nodes = list(succ)
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
                raise GraphCycleError("Graph contains a cycle")
            self._program = order
        return list(self._program)

    def immediate_dominators(self, start, successors=None, predecessors=None) -> dict:
        """Each node reachable from ``start`` mapped to its immediate dominator.

        ``start`` maps to itself.  Cooper, Harvey and Kennedy's iteration
        over reverse postorder ("A simple, fast dominance algorithm", 2006).
        ``successors``/``predecessors`` (node → iterable) stand in for the
        graph's own adjacency: postdominators are the dominators of the
        reversed edges from a virtual sink.
        """
        successors = successors or self._succ.__getitem__
        predecessors = predecessors or self._pred.__getitem__
        order = _postorder(start, successors, set())
        position = {node: index for index, node in enumerate(order)}
        idom = {start: start}

        def intersect(u, v):
            while u != v:
                while position[u] < position[v]:
                    u = idom[u]
                while position[u] > position[v]:
                    v = idom[v]
            return u

        changed = True
        while changed:
            changed = False
            for node in reversed(order[:-1]):
                dominator = reduce(intersect, [p for p in predecessors(node) if p in idom])
                if node not in idom or idom[node] != dominator:
                    idom[node] = dominator
                    changed = True
        return idom

    def on_cycles(self) -> set:
        """Nodes that share a cycle with some other node.

        The strongly connected components of two or more nodes (Kosaraju:
        components grow backwards from the latest-finished node); a node
        whose only cycle is its self-loop is not among them.
        """
        seen: set = set()
        finished = []
        for node in self._succ:
            if node not in seen:
                finished += _postorder(node, self._succ.__getitem__, seen)
        placed: set = set()
        cyclic: set = set()
        for root in reversed(finished):
            if root in placed:
                continue
            component, frontier = {root}, [root]
            while frontier:
                for predecessor in self._pred[frontier.pop()]:
                    if predecessor not in placed and predecessor not in component:
                        component.add(predecessor)
                        frontier.append(predecessor)
            placed |= component
            if len(component) > 1:
                cyclic |= component
        return cyclic


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


def _postorder(start, successors, seen: set) -> list:
    """Depth-first postorder from ``start`` over nodes not yet ``seen``."""
    seen.add(start)
    order = []
    stack = [(start, iter(successors(start)))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(successors(child))))
                break
        else:
            stack.pop()
            order.append(node)
    return order
