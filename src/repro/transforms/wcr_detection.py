"""Update detection: ``AugAssignToWCR`` (§6.1).

SDFGs support a third data-movement mode besides read and write: *update*.
Differentiating updates from plain writes enables automatic
parallelization, better reduction schedules and wait-free communication.
This pattern-based pass traces symbolic expressions around tasklets: a
match is a tasklet that reads ``A[s]``, combines it with another value
using an associative binary operator, and writes the result back to
``A[s]`` (same subset); applying it removes the read edge and turns the
write memlet into an update with the corresponding write-conflict-
resolution (WCR) function.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from ..sdfg import SDFG, AccessNode, Tasklet
from ..sdfg.tasklet_code import single_assignment
from .rewrite import Match, Transformation

#: Associative, commutative operators eligible for WCR conversion.
_WCR_OPERATORS = {ast.Add: "+", ast.Mult: "*"}


class AugAssignToWCR(Transformation):
    """Convert read-modify-write patterns into WCR (update) memlets."""

    NAME = "augassign-to-wcr"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state in sdfg.states():
            for tasklet in state.tasklets():
                conversion = self._find_conversion(state, tasklet)
                if conversion is None:
                    continue
                operator, _, write_edge, _ = conversion
                matches.append(Match(
                    transformation=self.name,
                    kind="update",
                    where=state.label,
                    subject=f"{tasklet.label}: {write_edge.data.data} (wcr {operator})",
                    payload={"state": state, "tasklet": tasklet},
                ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state = match.payload["state"]
        tasklet: Tasklet = match.payload["tasklet"]
        if tasklet not in state:
            return False
        conversion = self._find_conversion(state, tasklet)
        if conversion is None:
            return False
        operator, read_edge, write_edge, update = conversion
        # Rewrite the tasklet: it now only computes the value combined in.
        tasklet.code = f"{write_edge.src_conn} = {update}"
        tasklet.in_connectors.discard(read_edge.dst_conn)
        state.remove_edge(read_edge)
        # The read-side access node may now be dangling: nothing reads it
        # any more, so neither does it need its ordering edges.
        source = read_edge.src
        if isinstance(source, AccessNode) and state.in_degree(source) == 0 \
                and all(edge.data.is_empty for edge in state.out_edges(source)):
            state.remove_node(source)
        write_edge.data.wcr = operator
        return True

    def _find_conversion(self, state, tasklet: Tasklet):
        """``(operator, read edge, write edge, update text)`` when the pattern holds."""
        out_edges = [edge for edge in state.out_edges(tasklet) if not edge.data.is_empty]
        if len(out_edges) != 1 or tasklet.language != "python":
            return None
        write_edge = out_edges[0]
        if not isinstance(write_edge.dst, AccessNode) or write_edge.data.wcr is not None:
            return None
        target = write_edge.data.data
        target_subset = write_edge.data.subset
        # The target may be read once, at the written subset: an update
        # that also reads it elsewhere (``B[i][j] += A[k][i] * B[k][j]``)
        # depends on other elements' updates and stays a plain write.
        reads = [
            edge for edge in state.in_edges(tasklet)
            if not edge.data.is_empty and edge.data.data == target
        ]
        if len(reads) != 1:
            return None
        read_edge = reads[0]
        if (read_edge.data.subset is None) != (target_subset is None):
            return None
        if read_edge.data.subset is not None and read_edge.data.subset != target_subset:
            return None
        match_info = self._match_code(tasklet.code, write_edge.src_conn, read_edge.dst_conn)
        if match_info is None:
            return None
        return match_info[0], read_edge, write_edge, match_info[1]

    @staticmethod
    def _match_code(code: str, target: str, connector: str) -> Optional[Tuple[str, str]]:
        """``(operator, other operand's text)`` of ``target = connector <op> other``.

        Structural, on the expression tree: the top-level operation is
        ``+`` or ``*`` and exactly one operand is the bare connector
        (either side — both operators commute), used nowhere else.
        """
        assignment = single_assignment(code)
        if assignment is None or assignment.target != target:
            return None
        value = assignment.value
        if not isinstance(value, ast.BinOp) or assignment.uses(connector) != 1:
            return None
        operator = _WCR_OPERATORS.get(type(value.op))
        if operator is None:
            return None
        for operand, other in ((value.left, value.right), (value.right, value.left)):
            if isinstance(operand, ast.Name) and operand.id == connector:
                return operator, assignment.operand_text(other)
        return None
