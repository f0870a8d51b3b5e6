"""The tuner: search a pipeline space for one kernel, report, register.

:func:`tune` wires the subsystem together: a
:class:`~repro.tuning.space.SearchSpace` proposes candidate specs, a
:class:`~repro.tuning.strategy.Strategy` decides which to evaluate, an
:class:`~repro.tuning.evaluate.Evaluator` scores them — every batch
compiled through :meth:`repro.service.Session.compile_many` on the
session's :class:`~repro.service.CompileCache`, so repeat runs over the
same space rehydrate every previously evaluated candidate with zero
frontend/pass work (the report's ``counters`` prove it).

The result is a :class:`TuningReport`: a JSON-stable, self-describing
document (library version, kernel, sizes, strategy/evaluator config, and
per-candidate spec ``content_id`` + full spec + score + provenance) whose
ranking is deterministic for deterministic evaluators — ties and float
scores break on the content address, so two seeded runs in different
processes produce the same winner digest.  The winning spec can be
registered back into the pipeline registry (:func:`register_winner`) and
then used anywhere a pipeline name is accepted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import PipelineError
from ..pipeline import PipelineSpec, register_pipeline
from ..pipeline.spec import PipelineLike
from ..service import Session
from .evaluate import EvaluatedCandidate, Evaluator, StaticEvaluator
from .space import SearchSpace
from .strategy import ExhaustiveStrategy, RandomStrategy, Strategy

#: JSON schema tag of the emitted tuning document.
TUNE_SCHEMA = "repro-tune/v1"


@dataclass
class TuningReport:
    """Ranked outcome of one tuning run (JSON-stable via :meth:`to_dict`)."""

    kernel: str
    base_id: str
    base_label: str
    strategy: Dict = field(default_factory=dict)
    evaluator: str = ""
    sizes: Optional[Dict[str, int]] = None
    #: Evaluated candidates, best first (rank 1).  Unscorable candidates
    #: (compile errors, unsound ablations, missing movement reports) sort
    #: after every scored one.
    ranking: List[EvaluatedCandidate] = field(default_factory=list)
    #: Aggregate compile-work counters of the run: the summed profiler
    #: deltas of every *fresh* compile (cache hits contribute nothing, so
    #: a fully cached re-run reports an empty dict — the "zero work" proof).
    counters: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0

    # -- results ---------------------------------------------------------------------
    @property
    def winner(self) -> Optional[EvaluatedCandidate]:
        """Best scored candidate (None when nothing could be scored)."""
        return self.ranking[0] if self.ranking and self.ranking[0].ok else None

    @property
    def winner_id(self) -> Optional[str]:
        """Content digest of the winning spec — the reproducibility token."""
        winner = self.winner
        return winner.content_id if winner is not None else None

    def winner_spec(self) -> PipelineSpec:
        """The winning spec (raises :class:`PipelineError` if none won)."""
        winner = self.winner
        if winner is None:
            raise PipelineError(
                f"Tuning of {self.kernel!r} produced no scorable candidate"
            )
        return winner.candidate.spec

    def best_registered(self) -> Optional[EvaluatedCandidate]:
        """Best-ranked candidate that is a pre-registered pipeline seed."""
        for entry in self.ranking:
            if entry.ok and entry.candidate.origin.startswith("registered:"):
                return entry
        return None

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Self-describing JSON document (version + content ids throughout)."""
        from .. import __version__

        return {
            "schema": TUNE_SCHEMA,
            "version": __version__,
            "kernel": self.kernel,
            "sizes": self.sizes,
            "base": {"label": self.base_label, "content_id": self.base_id},
            "strategy": dict(self.strategy),
            "evaluator": self.evaluator,
            "candidates": [
                dict(entry.to_dict(), rank=rank)
                for rank, entry in enumerate(self.ranking, start=1)
            ],
            "winner": (
                {
                    "content_id": self.winner.content_id,
                    "origin": self.winner.candidate.origin,
                    "score": self.winner.score,
                    "spec": self.winner.candidate.spec.to_dict(),
                }
                if self.winner is not None
                else None
            ),
            "counters": dict(self.counters),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "wall_seconds": self.wall_seconds,
        }

    def write(self, path) -> Path:
        """Write the report as pretty-printed JSON."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    def table(self, limit: Optional[int] = 15) -> str:
        """Aligned text ranking (top ``limit`` candidates)."""
        header = f"{'rank':>4}  {'score':>14}  {'compile':>9}  {'cache':>5}  origin"
        lines = [header, "-" * len(header)]
        shown = self.ranking if limit is None else self.ranking[:limit]
        for rank, entry in enumerate(shown, start=1):
            if entry.ok:
                score = f"{entry.score:.6g}"
            else:
                score = f"[{entry.error_type or 'error'}]"
            lines.append(
                f"{rank:>4}  {score:>14}  {entry.compile_seconds * 1e3:>7.1f}ms"
                f"  {'hit' if entry.cache_hit else 'miss':>5}  {entry.candidate.origin}"
            )
        if limit is not None and len(self.ranking) > limit:
            lines.append(f"... {len(self.ranking) - limit} more candidates")
        lines.append(
            f"{len(self.ranking)} candidates, {self.cache_hits} cache hits, "
            f"wall {self.wall_seconds:.2f}s"
        )
        if self.winner is not None:
            lines.append(f"winner: {self.winner_id} ({self.winner.candidate.origin})")
        return "\n".join(lines)


def rank_candidates(evaluated: List[EvaluatedCandidate]) -> List[EvaluatedCandidate]:
    """Deterministic ranking: score ascending, content address as tiebreak.

    Unscorable candidates follow all scored ones, ordered by content
    address so the full ranking — not just the winner — is reproducible.
    """
    scored = sorted(
        (entry for entry in evaluated if entry.ok),
        key=lambda entry: (entry.score, entry.content_id),
    )
    unscored = sorted(
        (entry for entry in evaluated if not entry.ok),
        key=lambda entry: entry.content_id,
    )
    return scored + unscored


def tune(
    source: str,
    base: PipelineLike = "dcir",
    strategy: Optional[Strategy] = None,
    evaluator: Optional[Evaluator] = None,
    space: Optional[SearchSpace] = None,
    session: Optional[Session] = None,
    function: Optional[str] = None,
    kernel: str = "<source>",
    sizes: Optional[Dict[str, int]] = None,
) -> TuningReport:
    """Search the pipeline space for ``source`` and rank the candidates.

    Defaults: a :class:`SearchSpace` around ``base`` seeded with every
    registered pipeline, exhaustive search, and the deterministic static
    (cost-model) evaluator.  Pass a :class:`RuntimeEvaluator` to score by
    measured runtime, a budgeted :class:`RandomStrategy`/ ``seed`` for
    reproducible sampling, or a pre-warmed :class:`~repro.service.Session`
    to share its compile cache across tuning runs.
    """
    space = space if space is not None else SearchSpace(base)
    strategy = strategy if strategy is not None else ExhaustiveStrategy()
    evaluator = evaluator if evaluator is not None else StaticEvaluator()
    session = session if session is not None else Session()

    stats_before = session.cache.stats.snapshot()
    start = time.perf_counter()
    evaluated = strategy.run(
        space,
        lambda batch: evaluator.evaluate(
            source, list(batch), session, function=function, base=space.base
        ),
    )
    wall = time.perf_counter() - start
    stats_after = session.cache.stats

    # Every entry's counters count, including candidates later disqualified
    # during scoring (unsound ablations, unscorable or degraded backends):
    # the "counters == {} means zero compile work" contract must account
    # for all work performed, not just the work that produced a ranking
    # score.  Cache hits served without work contribute empty dicts by
    # construction.
    counters: Dict[str, int] = {}
    for entry in evaluated:
        for name, value in entry.counters.items():
            counters[name] = counters.get(name, 0) + value

    return TuningReport(
        kernel=kernel,
        base_id=space.base.content_id(),
        base_label=space.base_label,
        strategy=strategy.describe(),
        evaluator=evaluator.name,
        sizes=dict(sizes) if sizes else None,
        ranking=rank_candidates(evaluated),
        counters=counters,
        cache_hits=stats_after.hits - stats_before.hits,
        cache_misses=stats_after.misses - stats_before.misses,
        wall_seconds=wall,
    )


def tune_kernel(
    name: str,
    sizes: Optional[Dict[str, int]] = None,
    base: PipelineLike = "dcir",
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    **options,
) -> TuningReport:
    """Tune a named PolyBench kernel (the ``python -m repro tune`` core).

    When ``budget`` is given the search is seeded random sampling
    (``seed`` defaults to 0) — byte-reproducible across processes;
    otherwise it is exhaustive.  Further keyword arguments pass through to
    :func:`tune`.
    """
    from ..workloads import default_sizes, get_kernel

    source = get_kernel(name, sizes)
    bound = dict(default_sizes(name))
    bound.update(sizes or {})
    if "strategy" not in options or options["strategy"] is None:
        if budget is not None:
            options["strategy"] = RandomStrategy(budget=budget, seed=seed or 0)
        elif seed is not None:
            # Mirrors the CLI: a seed without a budget would silently run
            # an unseeded exhaustive search.
            raise PipelineError(
                "seed only applies to seeded random sampling; pass budget "
                "to select it (or a RandomStrategy instance)"
            )
        else:
            options["strategy"] = ExhaustiveStrategy()
    elif budget is not None or seed is not None:
        raise PipelineError("Pass either a strategy instance or budget/seed, not both")
    return tune(source, base=base, kernel=name, sizes=bound, **options)


def register_winner(report: TuningReport, name: str, overwrite: bool = False) -> PipelineSpec:
    """Register a tuning run's winning spec under a pipeline name.

    The registered spec is the winner's content (same ``content_id`` —
    names are display-only and excluded from the canonical serialization),
    so compiles through the new name hit the cache entries the tuning run
    already created.
    """
    spec = replace(
        report.winner_spec(),
        name=name,
        description=(
            f"Tuned for {report.kernel} ({report.evaluator} evaluator, "
            f"origin {report.ranking[0].candidate.origin})"
        ),
    )
    return register_pipeline(spec, overwrite=overwrite)
