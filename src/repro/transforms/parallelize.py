"""Parallel-schedule annotation as a pattern-based transformation.

``Parallelize`` closes the loop the paper's §2.2 opens: map scopes are
*parametrically parallel* by construction, but until a schedule says so,
both backends lower them as sequential loop nests.  This transformation
runs the conservative safety proof in :mod:`repro.sdfg.parallelism` on
every outermost map scope and, where the proof succeeds, flips the map's
``schedule`` annotation to ``"parallel"`` — nothing else.  Native code
keys off the annotation: the C generator emits ``#pragma omp parallel
for``, with ``reduction(...)`` clauses, and ``#pragma omp atomic``
lowered from integer WCR memlets.  The interpreted backend does not read
it: it runs every map in order, a sound schedule for any map the proof
accepted, so its text is the text without this pass.

The natural grain is the outer tile loop ``MapTiling`` produces: its
step equals the tile size, so each worker owns whole tiles and the
intra-tile maps (whose ranges the proof recognizes as intervals of the
tile parameter) inherit the partition.  Untiled maps parallelize too
when their writes are indexed injectively by the first parameter.
"""

from __future__ import annotations

from typing import List, Optional

from ..sdfg import SDFG, SDFGState
from ..sdfg.nodes import MapEntry, SCHEDULE_PARALLEL, SCHEDULE_SEQUENTIAL
from ..sdfg.parallelism import analyze_map_parallelism
from .rewrite import Match, Transformation


class Parallelize(Transformation):
    """Annotate provably safe outermost map scopes with a parallel schedule.

    ``n_threads`` requests a fixed worker count (``None`` defers to
    ``REPRO_NUM_THREADS`` and then the machine's core count at run time);
    it is a declared tuner axis, so the measured-runtime evaluator sweeps
    worker counts the same way it sweeps tile sizes.
    """

    NAME = "parallelize"
    DRAIN = "sweep"
    # The tuner proposes this pass through its dedicated ``schedule:``
    # axis (SearchSpace._schedule_variants) rather than the generic
    # additions stage, so the schedule choice shows up as its own
    # labelled dimension of the search space.
    ADDABLE = False
    PARAMS = {"n_threads": (None, 2, 4, 8)}

    def __init__(self, n_threads: Optional[int] = None, **kwargs):
        super().__init__(**kwargs)
        if n_threads is not None and int(n_threads) < 1:
            raise ValueError(f"n_threads must be >= 1 (or None), got {n_threads}")
        self.n_threads = None if n_threads is None else int(n_threads)

    def match(self, sdfg: SDFG) -> List[Match]:
        matches: List[Match] = []
        for state, entry in sdfg.map_entries():
            if not self._eligible(state, entry):
                continue
            info = analyze_map_parallelism(sdfg, state, entry)
            if not info.ok:
                continue
            notes = []
            if info.reductions:
                notes.append(
                    "reductions: "
                    + ", ".join(f"{name}[{op}]" for name, op in info.reductions)
                )
            if info.atomic_edges:
                notes.append(f"{len(info.atomic_edges)} atomic update(s)")
            threads = "auto" if self.n_threads is None else str(self.n_threads)
            subject = f"{entry.map.label} over {info.chunk_param} ({threads} threads)"
            if notes:
                subject += " — " + "; ".join(notes)
            matches.append(Match(
                transformation=self.name,
                kind="map",
                where=state.label,
                subject=subject,
                payload={"state": state, "entry": entry},
            ))
        return matches

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        state: SDFGState = match.payload["state"]
        entry: MapEntry = match.payload["entry"]
        if state not in sdfg.states() or entry not in state:
            return False
        if not self._eligible(state, entry):
            return False
        # Re-prove on the current graph: earlier matches of the same drain
        # may have restructured the state since this match was collected.
        info = analyze_map_parallelism(sdfg, state, entry)
        if not info.ok:
            return False
        entry.map.schedule = SCHEDULE_PARALLEL
        entry.map.n_threads = self.n_threads
        return True

    @staticmethod
    def _eligible(state: SDFGState, entry: MapEntry) -> bool:
        map_obj = entry.map
        if map_obj.schedule != SCHEDULE_SEQUENTIAL or not map_obj.params:
            return False
        return state.scope_dict().get(entry) is None
