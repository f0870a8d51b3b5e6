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

The value combined in may read ``A`` elsewhere, where it never reaches
``A[s]`` over the loops and maps around the tasklet
(:func:`~repro.sdfg.analysis.may_meet`): trisolv's ``x[i] -= L[i][j] *
x[j]`` under ``j < i``.  A floating-point ``A[s] - e`` is the update ``+``
of ``-(e)``: IEEE 754 defines ``x - y`` as ``x + (-y)``, so not one bit
moves.  An integer one stays a plain write — ``-INT64_MIN`` is undefined
behaviour in C.
"""

from __future__ import annotations

import ast
from collections import ChainMap
from typing import List, Optional, Tuple

from ..sdfg import SDFG, AccessNode, Tasklet
from ..sdfg.analysis import Site, may_meet, site_ranges
from ..sdfg.tasklet_code import Assignment, name_dtypes, result_dtype, single_assignment
from .loop_analysis import lazy_induction_ranges
from .rewrite import Match, Transformation

#: Associative, commutative operators eligible for WCR conversion, and
#: ``-``, which is ``+`` of the negated operand on floating-point targets.
_WCR_OPERATORS = {ast.Add: "+", ast.Mult: "*", ast.Sub: "-"}


class AugAssignToWCR(Transformation):
    """Convert read-modify-write patterns into WCR (update) memlets."""

    NAME = "augassign-to-wcr"
    DRAIN = "sweep"

    def match(self, sdfg: SDFG) -> List[Match]:
        loops = lazy_induction_ranges(sdfg)
        matches: List[Match] = []
        for state in sdfg.states():
            for tasklet in state.tasklets():
                conversion = self._find_conversion(sdfg, state, tasklet, loops)
                if conversion is None:
                    continue
                operator, _, write_edge, _ = conversion
                matches.append(Match(
                    transformation=self.name,
                    kind="update",
                    where=state.label,
                    subject=f"{tasklet.label}: {write_edge.data.data} (wcr {operator})",
                    payload={"state": state, "tasklet": tasklet, "loops": loops},
                ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state = match.payload["state"]
        tasklet: Tasklet = match.payload["tasklet"]
        if tasklet not in state:
            return False
        conversion = self._find_conversion(sdfg, state, tasklet, match.payload["loops"])
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

    def _find_conversion(self, sdfg: SDFG, state, tasklet: Tasklet, loops):
        """``(operator, read edge, write edge, update text)`` when the pattern
        holds.  ``loops`` returns :func:`lazy_induction_ranges` of ``sdfg``; it
        is called only for a tasklet that reads its target at another subset."""
        out_edges = [edge for edge in state.out_edges(tasklet) if not edge.data.is_empty]
        if len(out_edges) != 1 or tasklet.language != "python":
            return None
        write_edge = out_edges[0]
        if not isinstance(write_edge.dst, AccessNode) or write_edge.data.wcr is not None:
            return None
        target = write_edge.data.data
        target_subset = write_edge.data.subset
        # The target is read once at the written subset; any other read of it
        # must never reach that element, or the update would depend on
        # another element's (``B[i][j] += A[k][i] * B[k][j]`` over ``k >= i``).
        reads = [
            edge for edge in state.in_edges(tasklet)
            if not edge.data.is_empty and edge.data.data == target
        ]
        own = [edge for edge in reads if edge.data.subset == target_subset]
        if len(own) != 1:
            return None
        read_edge = own[0]
        found = self._match_code(tasklet.code, write_edge.src_conn, read_edge.dst_conn)
        if found is None:
            return None
        operator, assignment, other = found
        update = assignment.operand_text(other)  # parenthesised unless an atom
        if operator == "-":
            if not self._negates_exactly(sdfg, state, tasklet, target, other):
                return None
            operator, update = "+", f"-{update}" if update.startswith("(") else f"-({update})"
        if len(reads) > 1:
            # In one iteration of the loops around the tasklet, any of the maps'.
            maps = site_ranges(state.scope_dict(), tasklet, {})
            around = loops().get(state, {})
            ranges = {**around, **maps}
            written = Site(target_subset, ranges)
            if any(
                may_meet(Site(edge.data.subset, ranges), written, maps.keys())
                for edge in reads if edge is not read_edge
            ):
                return None
        return operator, read_edge, write_edge, update

    @staticmethod
    def _negates_exactly(sdfg: SDFG, state, tasklet: Tasklet, target: str,
                         other: ast.expr) -> bool:
        """Whether ``target - other`` may be stored as ``target + (-(other))``:
        both are floating-point, where negation is exact and total."""
        connectors = {
            edge.dst_conn: sdfg.arrays[edge.data.data].dtype
            for edge in state.in_edges(tasklet)
            if edge.dst_conn is not None and not edge.data.is_empty
        }
        names = ChainMap(connectors, name_dtypes(sdfg.symbols, sdfg.constants))
        dtypes = (sdfg.arrays[target].dtype, result_dtype(other, names) or "")
        return all(dtype.startswith("float") for dtype in dtypes)

    @staticmethod
    def _match_code(code: str, target: str,
                    connector: str) -> Optional[Tuple[str, Assignment, ast.expr]]:
        """``(operator, assignment, other operand)`` of ``target = connector <op>
        other``.

        Structural, on the expression tree: the top-level operation is
        ``+``, ``*`` or ``-`` and exactly one operand is the bare connector
        (either side of ``+`` and ``*``, which commute; the left of ``-``),
        used nowhere else.
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
        sides = ((value.left, value.right),)
        if operator != "-":
            sides += ((value.right, value.left),)
        for operand, other in sides:
            if isinstance(operand, ast.Name) and operand.id == connector:
                return operator, assignment, other
        return None
