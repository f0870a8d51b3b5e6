"""``sdfg/graph.py`` against ``networkx`` itself.

:class:`~repro.sdfg.graph.OrderedMultiDiGraph` keeps its own adjacency
dicts.  Every mutation is mirrored into a ``networkx.MultiDiGraph``, and
every query must return exactly the sequence the ``networkx`` expression
it stands for returns on the mirror — the order decides match enumeration
and therefore generated code — on multigraphs with parallel edges,
self-loops (the state machine has them) and removals interleaved with
additions.  The graph algorithms (program order, dominators, the nodes on
cycles) are held to ``networkx``'s answers the same way.
"""

import itertools
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from repro.codegen import have_compiler
from repro.sdfg import SDFG, InterstateEdge, Memlet, SDFGState
from repro.sdfg.graph import GraphCycleError, OrderedMultiDiGraph


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


def _assert_matches_networkx(graph, G):
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
        with pytest.raises(GraphCycleError):
            graph.program_order()
    else:
        assert graph.program_order() == program
        assert graph.program_order() == program  # the memoized answer
    cyclic = [component for component in nx.strongly_connected_components(G) if len(component) > 1]
    assert graph.on_cycles() == set().union(*cyclic)
    if G:
        first = next(iter(G))
        # networkx before 3.5 maps the start node to itself, later releases omit it.
        assert graph.immediate_dominators(first) == {**nx.immediate_dominators(G, first), first: first}
        _assert_postdominators_match_networkx(graph, G)


def _assert_postdominators_match_networkx(graph, G):
    """Dominators over caller-supplied adjacency: reversed edges, virtual sink."""
    sink = object()
    exits = [node for node in G if not G.out_degree(node)]
    reversed_graph = nx.DiGraph()
    reversed_graph.add_nodes_from([*G, sink])
    reversed_graph.add_edges_from((dst, src) for src, dst in G.edges())
    reversed_graph.add_edges_from((sink, node) for node in exits)
    postdominators = graph.immediate_dominators(
        sink,
        successors=lambda node: exits if node is sink else graph.predecessors(node),
        predecessors=lambda node: [sink] if node in exits else graph.successors(node),
    )
    assert postdominators == {**nx.immediate_dominators(reversed_graph, sink), sink: sink}


def _mutate(graph, rng, steps, acyclic):
    """Random additions and removals, each mirrored into a networkx
    ``MultiDiGraph``; the whole contract is checked after every step."""
    G = nx.MultiDiGraph()
    nodes, edges, made = [], [], 0
    for _ in range(steps):
        action = rng.random()
        if action < 0.25 or len(nodes) < 2:
            node = graph.new_node(made)
            G.add_node(node)
            nodes.append((made, node))
            made += 1
        elif action < 0.75:
            (i, src), (j, dst) = rng.choice(nodes), rng.choice(nodes)
            if acyclic and i == j:
                continue
            if acyclic and i > j:
                src, dst = dst, src
            edge = graph.connect(src, dst)  # parallel edges and self-loops included
            G.add_edge(src, dst, key=edge.key, edge=edge)
            edges.append(edge)
        elif action < 0.9 and edges:
            edge = edges.pop(rng.randrange(len(edges)))
            graph.remove_edge(edge)
            G.remove_edge(edge.src, edge.dst, key=edge.key)
        else:
            _, node = nodes.pop(rng.randrange(len(nodes)))
            graph.drop(node)
            G.remove_node(node)
            edges = [edge for edge in edges if edge.src is not node and edge.dst is not node]
        _assert_matches_networkx(graph, G)


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


_RUN_WITHOUT_NETWORKX = """
import sys
from repro import compile_c, get_pipeline
from repro.workloads import get_kernel

spec = get_pipeline("dcir").with_codegen(backend=sys.argv[1])
result = compile_c(get_kernel("atax", {"M": 12, "N": 14}), spec)
assert result.backend == sys.argv[1], result.backend_diagnostic
result.run()
assert "networkx" not in sys.modules, "the compiler loaded networkx"
"""


@pytest.mark.parametrize("backend", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")),
])
def test_the_compiler_runtime_does_not_load_networkx(backend, tmp_path):
    """networkx is this file's reference, not a dependency of the compiler."""
    env = dict(os.environ, REPRO_NATIVE_CACHE_DIR=str(tmp_path))  # a real cc build and dlopen
    env.pop("REPRO_CACHE_DIR", None)  # compile, do not rehydrate
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(path for path in [src, env.get("PYTHONPATH")] if path)
    subprocess.run([sys.executable, "-c", _RUN_WITHOUT_NETWORKX, backend], env=env, check=True)
