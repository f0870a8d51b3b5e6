"""``sdfg/graph.py`` against ``networkx`` itself.

:class:`~repro.sdfg.graph.OrderedMultiDiGraph` reads the ``MultiDiGraph``
adjacency mappings directly.  Every query must return exactly the sequence
the ``networkx`` view expression it replaced returns — the order decides
match enumeration and therefore generated code — on multigraphs with
parallel edges, self-loops (the state machine has them) and removals
interleaved with additions.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.sdfg import SDFG, InterstateEdge, Memlet, SDFGState
from repro.sdfg.graph import OrderedMultiDiGraph


class _Edge:
    _keys = itertools.count()

    def __init__(self, src, dst):
        self.src, self.dst, self.key = src, dst, next(_Edge._keys)


class _Plain(OrderedMultiDiGraph):
    """The base alone: integer nodes, bare edge objects."""

    def new_node(self, index):
        return self.add_node(index)

    def connect(self, src, dst):
        return self._insert_edge(_Edge(src, dst))

    drop = OrderedMultiDiGraph.remove_node


class _Machine(SDFG):
    def __init__(self):
        super().__init__("contract")

    def new_node(self, index):
        return self.add_state(f"s{index}")

    def connect(self, src, dst):
        return self.add_edge(src, dst, InterstateEdge())

    drop = SDFG.remove_state


class _Dataflow(SDFGState):
    def __init__(self):
        super().__init__("contract")

    def new_node(self, index):
        return self.add_access(f"a{index}")

    def connect(self, src, dst):
        return self.add_nedge(src, dst, Memlet.empty())

    drop = SDFGState.remove_node


KINDS = [_Plain, _Machine, _Dataflow]


def _assert_matches_networkx(graph):
    G = graph._graph
    assert graph.nodes() == list(G.nodes())
    assert graph.number_of_nodes() == G.number_of_nodes()
    assert graph.edges() == [data["edge"] for _, _, data in G.edges(data=True)]
    for node in G.nodes():
        assert node in graph
        assert graph.in_edges(node) == [d["edge"] for _, _, d in G.in_edges(node, data=True)]
        assert graph.out_edges(node) == [d["edge"] for _, _, d in G.out_edges(node, data=True)]
        assert graph.in_degree(node) == G.in_degree(node)
        assert graph.out_degree(node) == G.out_degree(node)
        assert graph.predecessors(node) == list(G.predecessors(node))
        assert graph.successors(node) == list(G.successors(node))
        assert graph.ancestors(node) == nx.ancestors(G, node)
        assert graph.descendants(node) == nx.descendants(G, node)
        for other in G.nodes():
            expected = (
                [data["edge"] for data in G[node][other].values()]
                if G.has_edge(node, other) else []
            )
            assert graph.edges_between(node, other) == expected
    inserted = {node: position for position, node in enumerate(G.nodes())}
    try:
        program = list(nx.lexicographical_topological_sort(G, key=inserted.__getitem__))
    except nx.NetworkXUnfeasible:
        with pytest.raises(nx.NetworkXUnfeasible):
            graph.program_order()
    else:
        assert graph.program_order() == program
        assert graph.program_order() == program  # the memoized answer


def _mutate(graph, rng, steps, acyclic):
    """Random additions and removals, checking the whole contract after each."""
    nodes, edges, made = [], [], 0
    for _ in range(steps):
        action = rng.random()
        if action < 0.25 or len(nodes) < 2:
            nodes.append((made, graph.new_node(made)))
            made += 1
        elif action < 0.75:
            (i, src), (j, dst) = rng.choice(nodes), rng.choice(nodes)
            if acyclic and i == j:
                continue
            if acyclic and i > j:
                src, dst = dst, src
            edges.append(graph.connect(src, dst))  # parallel edges and self-loops included
        elif action < 0.9 and edges:
            graph.remove_edge(edges.pop(rng.randrange(len(edges))))
        else:
            _, node = nodes.pop(rng.randrange(len(nodes)))
            graph.drop(node)
            edges = [edge for edge in edges if edge.src is not node and edge.dst is not node]
        _assert_matches_networkx(graph)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("acyclic", [True, False], ids=["dag", "cyclic"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__.strip("_").lower())
def test_queries_and_program_order_memo_match_networkx(kind, acyclic, seed):
    graph = kind()
    _mutate(graph, random.Random(seed), steps=120, acyclic=acyclic)
    assert graph.number_of_nodes() > 3 and graph.edges()


def test_program_order_is_insertion_order_wherever_the_edges_allow():
    graph = _Plain()
    for index in range(5):
        graph.new_node(index)
    assert graph.program_order() == [0, 1, 2, 3, 4]
    graph.connect(4, 1)  # 1 must wait for 4; nothing else moves
    assert graph.program_order() == [0, 2, 3, 4, 1]
    graph.program_order().reverse()
    assert graph.program_order() == [0, 2, 3, 4, 1]


def test_state_membership_and_labels_follow_removal():
    sdfg = SDFG("labels")
    first, second = sdfg.add_state("s"), sdfg.add_state("s")
    assert first in sdfg and second in sdfg and second.label != "s"
    sdfg.remove_state(first)
    assert first not in sdfg and sdfg.start_state is None
    assert sdfg.add_state("s").label == "s"  # the label is free again


def test_deduplicated_label_is_itself_checked():
    sdfg = SDFG("clash")
    labels = [sdfg.add_state(label).label for label in ("s_0", "s", "s", None, "state_2")]
    assert labels == ["s_0", "s", "s_1", "state_2", "state_2_3"]
    assert len(set(labels)) == len(labels)
