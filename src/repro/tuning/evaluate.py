"""Candidate evaluators: score a batch of pipeline specs for one kernel.

Both evaluators dispatch every candidate batch through
:func:`repro.service.compile_specs` on the session's executor, so the
content-addressed :class:`~repro.service.CompileCache` deduplicates
shared candidates (two strategies proposing the same spec, or a repeat
tuning run over the same space) into zero-work rehydrations — re-running
a search costs ~nothing.

* :class:`StaticEvaluator` scores by the data-movement cost model
  (:func:`repro.codegen.movement_score`): fully deterministic, so seeded
  searches are byte-reproducible across processes — the default.
* :class:`RuntimeEvaluator` scores by measured best-of-N runtime of the
  generated program, and differentially checks every candidate's return
  value against the base pipeline's — an unsound ablation (one that
  changes the computed result) is disqualified rather than ranked.

Scores are "lower is better" in both cases; a candidate that cannot be
scored (compile error, missing movement report, mismatching output)
carries ``score=None`` plus the reason, and ranks after every scored one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..codegen import movement_score, sdfg_movement_report
from ..errors import PipelineError
from ..passbase import suggest
from ..perf import PERF
from ..pipeline import generate_program, run_compiled
from ..pipeline.spec import PipelineSpec
from ..service import compile_specs
from .space import Candidate


@dataclass
class EvaluatedCandidate:
    """One scored point of the search: candidate + score + how it was obtained."""

    candidate: Candidate
    score: Optional[float] = None
    compile_seconds: float = 0.0
    cache_hit: bool = False
    run_seconds: Optional[float] = None
    #: Individual measured repetition timings (runtime evaluation only);
    #: ``run_seconds`` is their minimum.  Warm-up reps are excluded.
    rep_seconds: List[float] = field(default_factory=list)
    moved_bytes: Optional[float] = None
    allocations: Optional[float] = None
    #: Compile-time profiler counters recorded by the compile that produced
    #: this candidate's program (empty for cache hits served without work).
    counters: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Live compile result, populated during evaluation (not serialized).
    result: Optional[object] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None and self.score is not None

    @property
    def content_id(self) -> str:
        return self.candidate.content_id

    def to_dict(self) -> Dict:
        """JSON-stable entry for the tuning report."""
        return {
            "origin": self.candidate.origin,
            "label": self.candidate.label,
            "content_id": self.content_id,
            "spec": self.candidate.spec.to_dict(),
            "score": self.score,
            "compile_seconds": self.compile_seconds,
            "cache_hit": self.cache_hit,
            "run_seconds": self.run_seconds,
            "rep_seconds": list(self.rep_seconds),
            "moved_bytes": self.moved_bytes,
            "allocations": self.allocations,
            "counters": dict(self.counters),
            "error": self.error,
            "error_type": self.error_type,
        }


class Evaluator:
    """Scores batches of candidates for a fixed source program."""

    #: Registry/CLI name of the evaluator.
    name = "abstract"

    def evaluate(
        self,
        source: str,
        candidates: Sequence[Candidate],
        session,
        function: Optional[str] = None,
        base: Optional[PipelineSpec] = None,
    ) -> List[EvaluatedCandidate]:
        raise NotImplementedError

    # -- shared compile plumbing ----------------------------------------------------
    def _compile(
        self, source: str, candidates: Sequence[Candidate], session, function: Optional[str]
    ) -> List[EvaluatedCandidate]:
        """Compile every candidate through the session's cache + executor.

        Returns index-aligned :class:`EvaluatedCandidate` shells with
        compile facts filled in and ``score`` still None; compile errors
        are already recorded per-candidate.
        """
        outcomes = compile_specs(
            source,
            [candidate.spec for candidate in candidates],
            function=function,
            labels=[candidate.origin for candidate in candidates],
            executor=session.executor,
            max_workers=session.max_workers,
            cache=session.cache,
        )
        evaluated: List[EvaluatedCandidate] = []
        for candidate, outcome in zip(candidates, outcomes):
            entry = EvaluatedCandidate(
                candidate=candidate,
                compile_seconds=outcome.seconds,
                cache_hit=outcome.cache_hit,
            )
            if not outcome.ok:
                entry.error = outcome.error
                entry.error_type = outcome.error_type
            else:
                entry.result = outcome.result  # live handle for the scoring phase
                if not outcome.cache_hit and outcome.result.report is not None:
                    entry.counters = dict(outcome.result.report.counters)
            evaluated.append(entry)
        return evaluated


def _release_results(evaluated: List[EvaluatedCandidate]) -> List[EvaluatedCandidate]:
    """Drop the live compile handles once scoring is done.

    Only score/counters/identity are read after evaluation, and a ranking
    of dozens of candidates would otherwise pin every exec'd program
    module (and any live SDFG) for the lifetime of the TuningReport.
    """
    for entry in evaluated:
        entry.result = None
    return evaluated


class StaticEvaluator(Evaluator):
    """Rank candidates by the data-movement cost model — deterministic.

    Only data-centric (``bridge=True``) pipelines carry a movement report;
    control-centric candidates score ``None`` and rank last (the model has
    no visibility into the MLIR backend's movement).  ``symbols`` supplies
    values for any free size symbols — PolyBench kernels bake their sizes
    in as constants, so it is normally unnecessary, and it costs: results
    arriving from the batch/cache layer carry only the movement snapshot
    computed with default symbol values, so honoring custom symbols forces
    one in-process recompile per data-centric candidate (no cache reuse).
    """

    name = "static"

    def __init__(self, symbols: Optional[Dict[str, float]] = None):
        self.symbols = dict(symbols) if symbols else None

    def evaluate(self, source, candidates, session, function=None, base=None):
        evaluated = self._compile(source, candidates, session, function)
        for entry in evaluated:
            if entry.error is not None:
                continue
            movement = entry.result.movement_report(self.symbols)
            if movement is None and self.symbols and entry.candidate.spec.bridge:
                # Batch results are payload rehydrations without a live
                # SDFG; custom symbols need one, so redo the pure compile —
                # and book the work onto the candidate's counters, or the
                # report would claim a zero-work run while N full compiles
                # executed.
                before = PERF.snapshot()
                try:
                    program = generate_program(
                        source, entry.candidate.spec, function=function
                    )
                except Exception as exc:
                    entry.error = str(exc)
                    entry.error_type = type(exc).__name__
                    continue
                finally:
                    for name, value in PERF.delta_since(before).items():
                        entry.counters[name] = entry.counters.get(name, 0) + value
                if program.sdfg is not None:
                    movement = sdfg_movement_report(program.sdfg, self.symbols)
            if movement is None:
                entry.error = (
                    "no movement report (static scoring needs a data-centric "
                    "pipeline)"
                )
                entry.error_type = "Unscorable"
                continue
            entry.score = movement_score(movement)
            entry.moved_bytes = movement.bytes_moved
            entry.allocations = movement.allocations
        return _release_results(evaluated)


class RuntimeEvaluator(Evaluator):
    """Rank candidates by measured best-of-N runtime of the generated code.

    Every candidate's return value is differentially checked against the
    base pipeline's (the suite runner's correctness oracle): a candidate
    whose checksum disagrees is an *unsound* ablation and is disqualified
    (``score=None``) instead of being allowed to win by computing less.
    """

    name = "runtime"

    def __init__(self, repetitions: int = 3, rel_tolerance: float = 1e-6, warmup: int = 1):
        self.repetitions = max(1, int(repetitions))
        self.rel_tolerance = float(rel_tolerance)
        # One discarded warm-up rep absorbs first-call costs (native
        # compile + dlopen, interpreted bytecode warm-up) that would
        # otherwise be charged to whichever candidate ran first.
        self.warmup = max(0, int(warmup))
        self._references: Dict[str, Optional[float]] = {}

    def evaluate(self, source, candidates, session, function=None, base=None):
        evaluated = self._compile(source, candidates, session, function)
        reference = self._reference(source, session, function, base)
        for entry in evaluated:
            if entry.error is not None:
                continue
            try:
                # GC stays off during the timed reps so a collection pause
                # cannot decide a ranking.
                run = run_compiled(
                    entry.result,
                    repetitions=self.repetitions,
                    warmup=self.warmup,
                    disable_gc=True,
                )
            except Exception as exc:  # a mis-ablated pipeline may only fail at runtime
                entry.error = str(exc)
                entry.error_type = type(exc).__name__
                continue
            entry.run_seconds = run.seconds
            entry.rep_seconds = list(run.rep_seconds)
            entry.allocations = float(run.allocations)
            value = run.return_value
            if reference is not None and value is not None:
                scale = max(abs(reference), 1.0)
                if not (abs(float(value) - reference) <= self.rel_tolerance * scale):
                    entry.error = (
                        f"return value {value!r} disagrees with the base "
                        f"pipeline's {reference!r} (unsound candidate)"
                    )
                    entry.error_type = "ResultMismatch"
                    continue
            entry.score = run.seconds
        return _release_results(evaluated)

    def _reference(self, source, session, function, base) -> Optional[float]:
        """Base pipeline's return value for this source (memoized per source)."""
        if base is None:
            return None
        key = hashlib.sha256(
            (base.content_id() + "\0" + source).encode("utf-8")
        ).hexdigest()
        if key not in self._references:
            try:
                result = session.compile(source, base, function=function)
                value = run_compiled(result, repetitions=1).return_value
                self._references[key] = float(value) if value is not None else None
            except Exception:
                self._references[key] = None  # candidates then skip the check
        return self._references[key]


#: Registered evaluator constructors, by CLI name.
EVALUATORS = {
    StaticEvaluator.name: StaticEvaluator,
    RuntimeEvaluator.name: RuntimeEvaluator,
}


def get_evaluator(name: str, **options) -> Evaluator:
    """Build an evaluator by registered name (``static`` or ``runtime``)."""
    try:
        factory = EVALUATORS[name]
    except KeyError:
        raise PipelineError(
            f"Unknown evaluator {name!r}; " + suggest(name, list(EVALUATORS), "evaluators")
        ) from None
    return factory(**options)
