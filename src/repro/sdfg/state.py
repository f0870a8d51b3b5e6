"""SDFG states: acyclic dataflow multigraphs.

A state contains access nodes, tasklets and map scopes connected by edges
that carry memlets.  Execution order inside a state is defined purely by
data dependencies (§2.2); the surrounding state machine provides control
flow.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..symbolic import Range
from .graph import OrderedMultiDiGraph
from .memlet import Memlet
from .nodes import (
    AccessNode,
    CodeNode,
    Map,
    MapEntry,
    MapExit,
    Node,
    Tasklet,
)

_edge_counter = itertools.count()


class MultiConnectorEdge:
    """A dataflow edge: (source node, source connector) → (dest node, dest
    connector), carrying a memlet."""

    __slots__ = ("src", "src_conn", "dst", "dst_conn", "data", "key")

    def __init__(
        self,
        src: Node,
        src_conn: Optional[str],
        dst: Node,
        dst_conn: Optional[str],
        data: Memlet,
        key: Optional[int] = None,
    ):
        self.src = src
        self.src_conn = src_conn
        self.dst = dst
        self.dst_conn = dst_conn
        self.data = data
        self.key = key if key is not None else next(_edge_counter)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiConnectorEdge) and other.key == self.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Edge({self.src!r}.{self.src_conn} -> {self.dst!r}.{self.dst_conn}: {self.data})"
        )


class SDFGState(OrderedMultiDiGraph):
    """A single state: an acyclic multigraph of dataflow nodes."""

    def __init__(self, label: str, sdfg: Optional["SDFG"] = None):  # noqa: F821
        super().__init__()
        self.label = label
        self.sdfg = sdfg

    # -- node management -----------------------------------------------------------
    def add_access(self, data: str) -> AccessNode:
        return self.add_node(AccessNode(data))

    def add_tasklet(
        self,
        label: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: str,
        language: str = "python",
    ) -> Tasklet:
        return self.add_node(Tasklet(label, inputs, outputs, code, language))

    def add_map(
        self, label: str, params: Sequence[str], ranges: Sequence[Range]
    ) -> Tuple[MapEntry, MapExit]:
        map_obj = Map(label, params, ranges)
        entry = MapEntry(map_obj)
        exit_node = MapExit(map_obj)
        self.add_node(entry)
        self.add_node(exit_node)
        return entry, exit_node

    # -- edge management --------------------------------------------------------------
    def add_edge(
        self,
        src: Node,
        src_conn: Optional[str],
        dst: Node,
        dst_conn: Optional[str],
        memlet: Memlet,
    ) -> MultiConnectorEdge:
        """Connect two nodes, adding them to the state if absent."""
        if src_conn and isinstance(src, CodeNode):
            src.add_out_connector(src_conn)
        if dst_conn and isinstance(dst, CodeNode):
            dst.add_in_connector(dst_conn)
        return self._insert_edge(MultiConnectorEdge(src, src_conn, dst, dst_conn, memlet))

    def add_nedge(self, src: Node, dst: Node, memlet: Optional[Memlet] = None) -> MultiConnectorEdge:
        """Add an edge without connectors (access-to-access copies, dependencies)."""
        return self.add_edge(src, None, dst, None, memlet or Memlet.empty())

    # -- traversal helpers ----------------------------------------------------------------
    def data_nodes(self) -> List[AccessNode]:
        return [node for node in self._succ if isinstance(node, AccessNode)]

    def tasklets(self) -> List[Tasklet]:
        return [node for node in self._succ if isinstance(node, Tasklet)]

    def is_empty(self) -> bool:
        return self.number_of_nodes() == 0

    # -- read/write sets --------------------------------------------------------------------
    def read_set(self) -> Set[str]:
        """Containers read (data flowing out of an access node) in this state."""
        reads: Set[str] = set()
        for edge in self.edges():
            if edge.data.is_empty:
                continue
            if isinstance(edge.src, AccessNode):
                reads.add(edge.src.data)
        return reads

    def write_set(self) -> Set[str]:
        """Containers written (data flowing into an access node) in this state."""
        writes: Set[str] = set()
        for edge in self.edges():
            if edge.data.is_empty:
                continue
            if isinstance(edge.dst, AccessNode):
                writes.add(edge.dst.data)
        return writes

    def used_symbols(self) -> Set[str]:
        """Names memlets, map ranges and tasklet code use, symbols among them."""
        used: Set[str] = set()
        for edge in self.edges():
            used |= {symbol.name for symbol in edge.data.free_symbols()}
        for node in self.nodes():
            if isinstance(node, MapEntry):
                used |= {symbol.name for rng in node.map.ranges for symbol in rng.free_symbols()}
            elif isinstance(node, Tasklet):
                used |= node.free_symbols(self.sdfg.symbols)
        return used

    # -- scope queries -----------------------------------------------------------------------
    def map_entries(self) -> List[MapEntry]:
        """Map-scope entries of this state, in program order."""
        return [node for node in self.program_order() if isinstance(node, MapEntry)]

    def scope_children(self) -> Dict[Optional[MapEntry], List[Node]]:
        """Nodes per innermost enclosing scope (``None`` = top level).

        The inverse view of :meth:`scope_dict`; node lists follow the
        state's program order, so consumers enumerate scope members
        deterministically.
        """
        scope = self.scope_dict()
        children: Dict[Optional[MapEntry], List[Node]] = {None: []}
        for entry in scope.values():
            if entry is not None:
                children.setdefault(entry, [])
        for node in self.program_order():
            children.setdefault(scope.get(node), []).append(node)
        return children

    # -- scopes ------------------------------------------------------------------------------
    def scope_dict(self) -> Dict[Node, Optional[MapEntry]]:
        """Map each node to its innermost enclosing scope entry (or None)."""
        scope: Dict[Node, Optional[MapEntry]] = {node: None for node in self._succ}
        for entry in self.map_entries():
            exit_node = self.exit_node(entry)
            # Nodes strictly between entry and exit belong to this scope.
            for node in self._scope_members(entry, exit_node):
                scope[node] = entry
            scope[exit_node] = entry
        return scope

    def _scope_members(self, entry: Node, exit_node: Node) -> Set[Node]:
        members: Set[Node] = set()
        frontier = list(self._succ[entry])
        while frontier:
            node = frontier.pop()
            if node is exit_node or node in members:
                continue
            members.add(node)
            frontier.extend(self._succ[node])
        return members

    def exit_node(self, entry: Node) -> Node:
        """The exit node matching a scope entry."""
        if isinstance(entry, MapEntry):
            for node in self._succ:
                if isinstance(node, MapExit) and node.map is entry.map:
                    return node
        raise KeyError(f"No exit node for scope entry {entry!r}")

    def entry_node(self, exit_node: Node) -> Node:
        if isinstance(exit_node, MapExit):
            for node in self._succ:
                if isinstance(node, MapEntry) and node.map is exit_node.map:
                    return node
        raise KeyError(f"No entry node for scope exit {exit_node!r}")

    # -- convenience builders ----------------------------------------------------------------
    def add_mapped_tasklet(
        self,
        label: str,
        map_ranges: Dict[str, Range],
        inputs: Dict[str, Memlet],
        code: str,
        outputs: Dict[str, Memlet],
        external_edges: bool = True,
    ) -> Tuple[Tasklet, MapEntry, MapExit]:
        """Create map entry/exit, a tasklet inside, and the connecting edges.

        ``inputs``/``outputs`` map tasklet connector names to memlets.  When
        ``external_edges`` is set, access nodes for the memlet containers
        are created and wired through the map boundary.
        """
        params = list(map_ranges.keys())
        ranges = [map_ranges[param] for param in params]
        entry, exit_node = self.add_map(label, params, ranges)
        tasklet = self.add_tasklet(label, list(inputs), list(outputs), code)
        if not inputs:
            self.add_nedge(entry, tasklet)
        for connector, memlet in inputs.items():
            entry.add_in_connector(f"IN_{memlet.data}")
            entry.add_out_connector(f"OUT_{memlet.data}")
            self.add_edge(entry, f"OUT_{memlet.data}", tasklet, connector, memlet.clone())
            if external_edges:
                read = self.add_access(memlet.data)
                outer = Memlet.full(memlet.data, self._container_shape(memlet.data))
                self.add_edge(read, None, entry, f"IN_{memlet.data}", outer)
        for connector, memlet in outputs.items():
            exit_node.add_in_connector(f"IN_{memlet.data}")
            exit_node.add_out_connector(f"OUT_{memlet.data}")
            self.add_edge(tasklet, connector, exit_node, f"IN_{memlet.data}", memlet.clone())
            if external_edges:
                write = self.add_access(memlet.data)
                outer = Memlet.full(memlet.data, self._container_shape(memlet.data))
                outer.wcr = memlet.wcr
                self.add_edge(exit_node, f"OUT_{memlet.data}", write, None, outer)
        return tasklet, entry, exit_node

    def _container_shape(self, data: str):
        if self.sdfg is None or data not in self.sdfg.arrays:
            return [1]
        shape = self.sdfg.arrays[data].shape
        return shape if shape else [1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SDFGState {self.label}: {self.number_of_nodes()} nodes>"
