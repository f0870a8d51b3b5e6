"""Extended dead code elimination on the SDFG (§6.2).

Three pattern-based transformations bridge control- and data-centric DCE:

* :class:`DeadStateElimination` — matches provably-false transitions and
  the states that become unreachable once they are gone, and removes both.
* :class:`DeadDataflowElimination` — tracks future-reused data containers
  and removes all computations that end up in unused temporary containers.
  The analysis is a container-level "faint variable" analysis: a transient
  container is live only if it (transitively) feeds an externally
  observable container (program outputs, non-transients, or values read by
  state-transition conditions); each match is one dead write site, and
  applying it cascades away the computations that fed only it.
* :class:`RedundantIterationElimination` — matches loops whose body
  neither depends on the induction symbol nor carries data across
  iterations; every iteration then writes the same values, so one
  iteration suffices.  This is what fully collapses the paper's Fig. 2
  example once the dead arrays are gone.
"""

from __future__ import annotations

from typing import Dict, List, Set

import networkx as nx

from ..symbolic import BoolConst
from ..sdfg import SDFG, AccessNode, SDFGState, Tasklet
from .loop_analysis import find_loops
from .rewrite import Match, Transformation


class DeadStateElimination(Transformation):
    """Remove provably-false transitions and unreachable states."""

    NAME = "dead-state-elimination"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        false_edges = []
        for edge in sdfg.edges():
            condition = edge.data.condition
            if isinstance(condition, BoolConst) and not condition.value:
                false_edges.append(edge)
                matches.append(Match(
                    transformation=self.name,
                    kind="false-edge",
                    where=edge.src.label,
                    subject=f"{edge.src.label} -> {edge.dst.label} (condition {condition})",
                    payload={"edge": edge},
                ))
        # States unreachable once the false edges are gone (pure analysis:
        # the reachability the graph will have after the edge matches apply).
        if sdfg.start_state is not None:
            removed = set(false_edges)
            reachable = {sdfg.start_state}
            frontier = [sdfg.start_state]
            while frontier:
                state = frontier.pop()
                for edge in sdfg.out_edges(state):
                    if edge in removed or edge.dst in reachable:
                        continue
                    reachable.add(edge.dst)
                    frontier.append(edge.dst)
            for state in sdfg.states():
                if state not in reachable:
                    matches.append(Match(
                        transformation=self.name,
                        kind="unreachable-state",
                        where=state.label,
                        subject=state.label,
                        payload={"state": state},
                    ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        if match.kind == "false-edge":
            edge = match.payload["edge"]
            if edge.src not in sdfg.states() or edge not in sdfg.out_edges(edge.src):
                return False
            sdfg.remove_edge(edge)
            return True
        state = match.payload["state"]
        if state not in sdfg.states():
            return False
        for edge in list(sdfg.in_edges(state)) + list(sdfg.out_edges(state)):
            sdfg.remove_edge(edge)
        sdfg.remove_state(state)
        return True


class DeadDataflowElimination(Transformation):
    """Remove computations whose results can never be observed."""

    NAME = "dead-dataflow-elimination"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        live = self._live_containers(sdfg)
        matches: List[Match] = []
        for state in sdfg.states():
            for node in state.nodes():
                if not isinstance(node, AccessNode) or node.data in live:
                    continue
                descriptor = sdfg.arrays.get(node.data)
                if descriptor is None or not descriptor.transient:
                    continue
                matches.append(Match(
                    transformation=self.name,
                    kind="dead-write",
                    where=state.label,
                    subject=node.data,
                    payload={"state": state, "node": node},
                ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        node: AccessNode = match.payload["node"]
        if node not in state:
            return False  # an earlier cascade already removed this site
        for edge in list(state.in_edges(node)) + list(state.out_edges(node)):
            state.remove_edge(edge)
        state.remove_node(node)
        self._cascade(state)
        return True

    # -- analysis -----------------------------------------------------------------
    def _live_containers(self, sdfg: SDFG) -> Set[str]:
        observable: Set[str] = {
            name for name, descriptor in sdfg.arrays.items() if not descriptor.transient
        }
        observable |= set(sdfg.return_values)
        for edge in sdfg.edges():
            observable |= edge.data.free_symbols() & set(sdfg.arrays)

        # feeds[x] = containers written by computations that read x.
        feeds: Dict[str, Set[str]] = {name: set() for name in sdfg.arrays}
        for state in sdfg.states():
            graph = state._graph
            for read in state.data_nodes():
                written: Set[str] = set()
                for reached in nx.descendants(graph, read):
                    if isinstance(reached, AccessNode):
                        written.add(reached.data)
                feeds.setdefault(read.data, set()).update(written)

        live = set(observable)
        frontier = list(observable)
        while frontier:
            target = frontier.pop()
            for source, targets in feeds.items():
                if source in live:
                    continue
                if targets & live:
                    live.add(source)
                    frontier.append(source)
        # Re-run until fixed point (feeds is not transitive by itself).
        changed = True
        while changed:
            changed = False
            for source, targets in feeds.items():
                if source not in live and targets & live:
                    live.add(source)
                    changed = True
        return live

    def _cascade(self, state: SDFGState) -> None:
        """Remove code nodes whose outputs are no longer consumed."""
        changed = True
        while changed:
            changed = False
            for node in list(state.nodes()):
                if node not in state:
                    continue
                if isinstance(node, Tasklet):
                    if state.out_degree(node) == 0:
                        for edge in list(state.in_edges(node)):
                            state.remove_edge(edge)
                        state.remove_node(node)
                        changed = True
                elif isinstance(node, AccessNode):
                    # Reads that no longer feed anything.
                    if state.out_degree(node) == 0 and state.in_degree(node) == 0:
                        state.remove_node(node)
                        changed = True


class RedundantIterationElimination(Transformation):
    """Collapse loops whose iterations are all identical.

    Conditions: the loop is a recognized counted loop; no state in the body
    uses the induction symbol; the body neither reads what it writes (no
    loop-carried dataflow) nor assigns other symbols on its internal edges.
    The latch assignment is then changed to jump directly to the loop bound,
    so the body executes at most once.
    """

    NAME = "redundant-iteration-elimination"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for loop in find_loops(sdfg):
            if not self._eligible(sdfg, loop):
                continue
            matches.append(Match(
                transformation=self.name,
                kind="redundant-loop",
                where=loop.guard.label,
                subject=f"loop over {loop.induction_symbol} (bound {loop.bound_expr})",
                payload={"loop": loop},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        loop = match.payload["loop"]
        if not self._eligible(sdfg, loop):
            return False
        for latch in loop.latch_edges:
            latch.data.assignments[loop.induction_symbol] = loop.bound_expr
        return True

    def _eligible(self, sdfg: SDFG, loop) -> bool:
        if loop.induction_symbol is None or loop.bound_expr is None:
            return False
        induction = loop.induction_symbol
        if self._already_collapsed(loop, induction):
            return False
        return self._is_redundant(sdfg, loop, induction)

    def _already_collapsed(self, loop, induction: str) -> bool:
        return all(
            latch.data.assignments.get(induction) == loop.bound_expr
            for latch in loop.latch_edges
        )

    def _is_redundant(self, sdfg: SDFG, loop, induction: str) -> bool:
        reads: Set[str] = set()
        writes: Set[str] = set()
        assigned_inside: Set[str] = set()
        loop_region = loop.body_states | {loop.guard}
        for state in loop.body_states:
            if induction in state.used_symbols():
                return False
            reads |= state.read_set()
            writes |= state.write_set()
            # An update (WCR) reads what it writes: ``s += x`` is carried
            # from iteration to iteration even though no edge reads ``s``.
            reads |= {
                edge.data.data for edge in state.edges()
                if edge.data.wcr is not None and not edge.data.is_empty
            }
            for edge in sdfg.out_edges(state):
                if edge.dst in loop_region:
                    if induction in edge.data.free_symbols() and edge not in loop.latch_edges:
                        return False
                    for name in edge.data.assignments:
                        if edge in loop.latch_edges and name != induction:
                            return False
                        if name != induction:
                            assigned_inside.add(name)
        if reads & writes:
            return False
        # Symbols assigned inside the body (e.g. inner loop counters) must not
        # be observed outside the loop, otherwise collapsing the iteration
        # count could change their final value's visibility.
        if assigned_inside:
            for state in sdfg.states():
                if state in loop_region:
                    continue
                if assigned_inside & state.used_symbols():
                    return False
            for edge in sdfg.edges():
                if edge.src in loop_region and edge.dst in loop_region:
                    continue
                if assigned_inside & edge.data.free_symbols():
                    return False
        # Conditions of internal edges must not depend on containers the body writes.
        for state in loop.body_states | {loop.guard}:
            for edge in sdfg.out_edges(state):
                if edge.dst in loop.body_states or edge.dst is loop.guard:
                    if edge.data.free_symbols() & writes:
                        return False
        return True
