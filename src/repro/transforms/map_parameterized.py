"""Parameterized map-scope transformations: tiling, interchange, collapse.

The paper's evaluation hand-picks schedules the SDFG representation can
express but the original pipeline never searched: tiled iteration spaces
and reordered loop nests.  These three pattern-based transformations make
that space explicit, with their parameters (tile size) declared as tuner
axes (:attr:`~repro.transforms.Transformation.PARAMS`) so ``python -m
repro tune`` explores the compositions the paper picks by hand:

* :class:`MapTiling` — strip-mine every parameter of a map scope by
  ``tile_size``: the map becomes an outer tile loop (step = tile size)
  around a new inner intra-tile map.  The SDFG analogue of loop blocking.
* :class:`MapInterchange` — reorder the parameters of a multi-parameter
  map so the parameter indexing the innermost (fastest-varying) dimension
  of the most memlets iterates innermost — the stride-1 locality
  heuristic.  Matching is directional, so the pass is idempotent.
* :class:`MapCollapse` — merge a perfectly nested map pair into one
  multi-parameter map (the inverse of strip-mining), collapsing loop
  overhead and exposing a single larger iteration space.

All three are additive scheduling choices rather than members of the §6
simplification suite, so they advertise ``ADDABLE = True`` and the
tuner's search space proposes *adding* them (with each preset parameter
value) to pipelines that lack them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..symbolic import Integer, Min, Symbol
from ..sdfg import SDFG, SDFGState
from ..sdfg.nodes import Map, MapEntry, MapExit
from ..symbolic import Range
from .rewrite import Match, Transformation

_ONE = Integer(1)


def tile_map(state: SDFGState, entry: MapEntry, tile_size: int) -> Tuple[MapEntry, MapExit]:
    """Strip-mine every parameter of ``entry``'s map by ``tile_size``.

    The existing map object becomes the outer tile loop (``p_tile`` with
    the original bounds and step ``tile_size``); a new inner map iterates
    the original parameters over each tile (``[p_tile, min(p_tile +
    tile_size, end))``), so tasklet code and memlets keep their original
    parameter names untouched.  Returns the (new inner entry, new inner
    exit) pair.
    """
    exit_node = state.exit_node(entry)
    outer_map = entry.map
    params = list(outer_map.params)
    ranges = list(outer_map.ranges)

    tile = Integer(int(tile_size))
    inner_ranges = []
    outer_params = []
    outer_ranges = []
    for param, rng in zip(params, ranges):
        tile_param = f"{param}_tile"
        outer_params.append(tile_param)
        outer_ranges.append(Range(rng.start, rng.end, tile))
        inner_ranges.append(Range(
            Symbol(tile_param),
            Min.make(Symbol(tile_param) + tile, rng.end),
        ))

    inner_map = Map(f"{outer_map.label}_tile", params, inner_ranges)
    inner_entry = MapEntry(inner_map)
    inner_exit = MapExit(inner_map)
    state.add_node(inner_entry)
    state.add_node(inner_exit)

    # The old map becomes the tile loop; mark it so tiling never re-matches.
    outer_map.params = outer_params
    outer_map.ranges = outer_ranges
    outer_map.tiling = int(tile_size)

    # Splice the inner scope pair between the outer entry/exit and the
    # original scope members, mirroring the outer connectors.
    for edge in list(state.out_edges(entry)):
        state.remove_edge(edge)
        if edge.src_conn:
            inner_entry.add_in_connector(f"IN_{edge.src_conn[4:]}")
            inner_entry.add_out_connector(edge.src_conn)
        state.add_edge(entry, edge.src_conn, inner_entry,
                       f"IN_{edge.src_conn[4:]}" if edge.src_conn else None,
                       edge.data.clone() if not edge.data.is_empty else edge.data)
        state.add_edge(inner_entry, edge.src_conn, edge.dst, edge.dst_conn, edge.data)
    for edge in list(state.in_edges(exit_node)):
        state.remove_edge(edge)
        if edge.dst_conn:
            inner_exit.add_in_connector(edge.dst_conn)
            inner_exit.add_out_connector(f"OUT_{edge.dst_conn[3:]}")
        state.add_edge(edge.src, edge.src_conn, inner_exit, edge.dst_conn, edge.data)
        state.add_edge(inner_exit,
                       f"OUT_{edge.dst_conn[3:]}" if edge.dst_conn else None,
                       exit_node, edge.dst_conn,
                       edge.data.clone() if not edge.data.is_empty else edge.data)
    # Keep degenerate (member-less) scopes connected.
    if not state.edges_between(entry, inner_entry):
        state.add_nedge(entry, inner_entry)
    if not state.edges_between(inner_exit, exit_node):
        state.add_nedge(inner_exit, exit_node)
    return inner_entry, inner_exit


def _tileable(state: SDFGState, entry: MapEntry) -> bool:
    """Whether a map is a fresh, unit-step scope worth tiling."""
    map_obj = entry.map
    if map_obj.tiling is not None:
        return False
    if not map_obj.params:
        return False
    if any(rng.step != _ONE for rng in map_obj.ranges):
        return False
    # Do not re-tile the intra-tile map a previous tiling created.
    parent = state.scope_dict().get(entry)
    if parent is not None and parent.map.tiling is not None:
        return False
    return True


class MapTiling(Transformation):
    """Strip-mine map scopes into tile loops (loop blocking on the SDFG)."""

    NAME = "map-tiling"
    DRAIN = "sweep"
    ADDABLE = True
    PARAMS = {"tile_size": (4, 8, 16, 32, 64)}

    def __init__(self, tile_size: int = 32, **kwargs):
        super().__init__(**kwargs)
        if int(tile_size) < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        self.tile_size = int(tile_size)

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state, entry in sdfg.map_entries():
            if not _tileable(state, entry):
                continue
            matches.append(Match(
                transformation=self.name,
                kind="map",
                where=state.label,
                subject=f"{entry.map.label} ({', '.join(entry.map.params)}) "
                        f"by {self.tile_size}",
                payload={"state": state, "entry": entry},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        entry: MapEntry = match.payload["entry"]
        if state not in sdfg.states() or entry not in state:
            return False
        if not _tileable(state, entry):
            return False
        tile_map(state, entry, self.tile_size)
        return True


class MapInterchange(Transformation):
    """Reorder map parameters for stride-1 innermost access (loop interchange).

    For multi-parameter maps the parameters are emitted outermost-first;
    this pass moves the parameter that indexes the last (fastest-varying)
    dimension of the most member memlets to the innermost position.  The
    match is directional — it only fires when the reorder strictly
    improves the locality count — so repeated runs are idempotent.
    """

    NAME = "map-interchange"
    DRAIN = "sweep"
    ADDABLE = True

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state, entry in sdfg.map_entries():
            order = self._better_order(state, entry)
            if order is None:
                continue
            matches.append(Match(
                transformation=self.name,
                kind="map",
                where=state.label,
                subject=f"{entry.map.label}: ({', '.join(entry.map.params)}) "
                        f"-> ({', '.join(order)})",
                payload={"state": state, "entry": entry, "order": order},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        entry: MapEntry = match.payload["entry"]
        if state not in sdfg.states() or entry not in state:
            return False
        order = self._better_order(state, entry)
        if order is None or order != match.payload["order"]:
            return False
        map_obj = entry.map
        by_param = dict(zip(map_obj.params, map_obj.ranges))
        map_obj.params = list(order)
        map_obj.ranges = [by_param[param] for param in order]
        return True

    def _better_order(self, state: SDFGState, entry: MapEntry) -> Optional[List[str]]:
        """The locality-sorted parameter order, when it differs from the current.

        Parameters are ranked by how many member memlets index their last
        dimension with that parameter (descending order = outermost
        first, so the highest-count parameter iterates innermost).  Ranges
        must be mutually independent for the reorder to be meaningful.
        """
        map_obj = entry.map
        if len(map_obj.params) < 2:
            return None
        params = list(map_obj.params)
        # Interchange requires independent ranges (no triangular nests).
        names = set(params)
        for rng in map_obj.ranges:
            if {sym.name for sym in rng.free_symbols()} & names:
                return None
        counts = {param: 0 for param in params}
        scope = state.scope_dict()
        for edge in state.edges():
            if scope.get(edge.src) is not entry and scope.get(edge.dst) is not entry:
                continue
            memlet = edge.data
            if memlet.is_empty or memlet.subset is None or not memlet.subset.ranges:
                continue
            last = memlet.subset.ranges[-1]
            for param in params:
                if param in {sym.name for sym in last.free_symbols()}:
                    counts[param] += 1
        # Stable sort: ascending locality count, original order tiebreak —
        # the best-count parameter ends up last (innermost).
        order = sorted(params, key=lambda param: counts[param])
        if order == params or all(counts[p] == counts[params[0]] for p in params):
            return None
        return order


class MapCollapse(Transformation):
    """Merge a perfectly nested map pair into one multi-parameter map."""

    NAME = "map-collapse"
    DRAIN = "restart"
    ADDABLE = True

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state, entry in sdfg.map_entries():
            inner = self._collapsible(state, entry)
            if inner is None:
                continue
            matches.append(Match(
                transformation=self.name,
                kind="map-pair",
                where=state.label,
                subject=f"{entry.map.label} + {inner.map.label}",
                payload={"state": state, "entry": entry, "inner": inner},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        entry: MapEntry = match.payload["entry"]
        if state not in sdfg.states() or entry not in state:
            return False
        inner = self._collapsible(state, entry)
        if inner is None or inner is not match.payload["inner"]:
            return False
        self._collapse(state, entry, inner)
        return True

    @staticmethod
    def _collapsible(state: SDFGState, entry: MapEntry) -> Optional[MapEntry]:
        """The directly nested map entry when the nest is perfect."""
        if entry not in state:
            return None
        inner_candidates = {
            edge.dst for edge in state.out_edges(entry)
        }
        if len(inner_candidates) != 1:
            return None
        inner = next(iter(inner_candidates))
        if not isinstance(inner, MapEntry):
            return None
        try:
            outer_exit = state.exit_node(entry)
            inner_exit = state.exit_node(inner)
        except KeyError:
            return None
        if {edge.src for edge in state.in_edges(outer_exit)} != {inner_exit}:
            return None
        # Inner bounds must not depend on outer parameters (no triangular
        # or tiled nests), and parameter names must not clash.
        outer_params = set(entry.map.params)
        if outer_params & set(inner.map.params):
            return None
        for rng in inner.map.ranges:
            if {sym.name for sym in rng.free_symbols()} & outer_params:
                return None
        return inner

    @staticmethod
    def _collapse(state: SDFGState, entry: MapEntry, inner: MapEntry) -> None:
        outer_exit = state.exit_node(entry)
        inner_exit = state.exit_node(inner)
        map_obj = entry.map
        map_obj.params = list(map_obj.params) + list(inner.map.params)
        map_obj.ranges = list(map_obj.ranges) + list(inner.map.ranges)

        # Inner scope members hang directly off the outer entry/exit.
        for edge in list(state.out_edges(inner)):
            state.remove_edge(edge)
            if edge.dst is not outer_exit:
                if edge.src_conn:
                    entry.add_out_connector(edge.src_conn)
                state.add_edge(entry, edge.src_conn, edge.dst, edge.dst_conn, edge.data)
        for edge in list(state.in_edges(inner)):
            state.remove_edge(edge)
        for edge in list(state.in_edges(inner_exit)):
            state.remove_edge(edge)
            if edge.src is not entry:
                if edge.dst_conn:
                    outer_exit.add_in_connector(edge.dst_conn)
                state.add_edge(edge.src, edge.src_conn, outer_exit, edge.dst_conn, edge.data)
        for edge in list(state.out_edges(inner_exit)):
            state.remove_edge(edge)
        state.remove_node(inner)
        state.remove_node(inner_exit)
        if state.out_degree(entry) == 0:
            state.add_nedge(entry, outer_exit)
