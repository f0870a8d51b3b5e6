"""Compilation sessions and the suite runner.

A :class:`Session` ties the service layer together: one compile cache, one
executor policy, and a suite runner that compiles and runs a whole workload
set (e.g. all PolyBench kernels × selected pipelines) the way the paper's
evaluation does — reporting compile time, run time, cache hits and the
movement/allocation statistics the cost model provides, and cross-checking
that every pipeline agrees on each workload's output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import failure_kind as classify_failure
from ..pipeline import CompileResult, resolve_pipeline, run_compiled
from ..pipeline.spec import PipelineLike, pipeline_label
from .batch import BatchOutcome, CompileRequest, compile_many
from .cache import CacheStats, CompileCache
from .resilience import RetryPolicy, validate_degradation


@dataclass
class SuiteEntry:
    """One (workload × pipeline) cell of a suite run."""

    workload: str
    pipeline: str
    #: Content address (:meth:`~repro.PipelineSpec.content_id`) of the
    #: pipeline spec this cell compiled through — the stable identity that
    #: makes suite dumps diffable across runs and registry renames.
    spec_id: Optional[str] = None
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    cache_hit: bool = False
    return_value: Optional[float] = None
    allocations: int = 0
    moved_bytes: Optional[float] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Taxonomy bucket of the error (see :func:`repro.errors.failure_kind`).
    failure_kind: Optional[str] = None
    #: Total compile dispatches this cell consumed (retries included).
    attempts: int = 1
    #: Diagnostic recorded when this cell's execution backend degraded
    #: (e.g. a native build that fell back to the interpreted runner).
    degraded: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict:
        """JSON-stable snapshot of this cell."""
        return {
            "workload": self.workload,
            "pipeline": self.pipeline,
            "spec_id": self.spec_id,
            "compile_seconds": self.compile_seconds,
            "run_seconds": self.run_seconds,
            "cache_hit": self.cache_hit,
            "return_value": self.return_value,
            "allocations": self.allocations,
            "moved_bytes": self.moved_bytes,
            "error": self.error,
            "error_type": self.error_type,
            "failure_kind": self.failure_kind,
            "attempts": self.attempts,
            "degraded": self.degraded,
        }


#: JSON schema tag of :meth:`SuiteReport.to_dict` documents.
#: (v2: entries carry ``failure_kind``/``attempts``/``degraded``.)
SUITE_SCHEMA = "repro-suite/v2"


@dataclass
class SuiteReport:
    """Structured result of one suite run."""

    entries: List[SuiteEntry] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def failures(self) -> List[SuiteEntry]:
        return [entry for entry in self.entries if not entry.ok]

    @property
    def degraded_entries(self) -> List[SuiteEntry]:
        """Entries that succeeded only by degrading their backend."""
        return [entry for entry in self.entries if entry.ok and entry.degraded]

    @property
    def cache_hits(self) -> int:
        return sum(1 for entry in self.entries if entry.cache_hit)

    @property
    def compile_seconds(self) -> float:
        return sum(entry.compile_seconds for entry in self.entries)

    @property
    def run_seconds(self) -> float:
        return sum(entry.run_seconds for entry in self.entries)

    def by_workload(self) -> Dict[str, List[SuiteEntry]]:
        grouped: Dict[str, List[SuiteEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.workload, []).append(entry)
        return grouped

    def disagreements(self, rel: float = 1e-9) -> Dict[str, List[SuiteEntry]]:
        """Workloads whose pipelines do not agree on the return value.

        The first successful entry of each workload is the reference; an
        entry disagrees when its return value differs by more than ``rel``
        relatively (``nan`` never agrees).  Differential testing across the
        six pipelines is the suite-runner's correctness oracle, mirroring
        the paper's cross-pipeline checksum validation.
        """
        bad: Dict[str, List[SuiteEntry]] = {}
        for workload, entries in self.by_workload().items():
            good = [entry for entry in entries if entry.ok and entry.return_value is not None]
            if len(good) < 2:
                continue
            reference = good[0].return_value
            scale = max(abs(reference), 1.0)
            mismatched = [
                entry
                for entry in good[1:]
                if not (abs(entry.return_value - reference) <= rel * scale)
            ]
            if mismatched:
                bad[workload] = mismatched
        return bad

    def to_dict(self) -> Dict:
        """Self-describing, JSON-stable document of the whole suite run.

        Carries the library version and the spec ``content_id`` of every
        entry, so dumped artifacts (e.g. from CI) are diffable across runs
        and unambiguous about exactly which pipeline contents produced
        each number.
        """
        from .. import __version__

        return {
            "schema": SUITE_SCHEMA,
            "version": __version__,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "degraded": len(self.degraded_entries),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def table(self) -> str:
        """Render the report as an aligned text table."""
        header = (
            f"{'workload':<18}{'pipeline':<10}{'compile':>10}{'run':>10}"
            f"{'cache':>7}{'allocs':>8}  result"
        )
        lines = [header, "-" * len(header)]
        for entry in self.entries:
            if entry.ok:
                value = f"{entry.return_value:.6g}" if entry.return_value is not None else "-"
                lines.append(
                    f"{entry.workload:<18}{entry.pipeline:<10}"
                    f"{entry.compile_seconds * 1e3:>8.1f}ms{entry.run_seconds * 1e3:>8.2f}ms"
                    f"{'hit' if entry.cache_hit else 'miss':>7}{entry.allocations:>8}  {value}"
                )
            else:
                lines.append(
                    f"{entry.workload:<18}{entry.pipeline:<10}"
                    f"{'-':>10}{'-':>10}{'-':>7}{'-':>8}  {entry.error_type}: {entry.error}"
                )
        lines.append(
            f"total: compile {self.compile_seconds:.2f}s, run {self.run_seconds:.2f}s, "
            f"{self.cache_hits}/{len(self.entries)} cache hits, wall {self.wall_seconds:.2f}s"
        )
        degraded = self.degraded_entries
        if degraded:
            lines.append(
                f"degraded backends: {len(degraded)} entries fell back "
                "(see SuiteEntry.degraded for diagnostics)"
            )
        return "\n".join(lines)


#: Workload sets accepted by the suite runner: a name→source mapping or an
#: iterable of (name, source) pairs.
WorkloadsLike = Union[Mapping[str, str], Iterable[Tuple[str, str]]]


class Session:
    """A compilation service session: cache + executor policy + suite runner.

    The session also carries the robustness policy every compile under it
    inherits: a default per-request ``timeout`` (seconds), a
    ``retry_policy`` for transient failures (default: environment-driven
    :meth:`~repro.service.resilience.RetryPolicy.from_env`), and a
    ``degradation`` mode — ``"fallback"`` (a failed native backend
    degrades to the interpreted one, recorded per entry) or ``"strict"``
    (failures surface as typed errors).
    """

    def __init__(
        self,
        cache: Optional[CompileCache] = None,
        cache_dir: Optional[str] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        degradation: str = "fallback",
    ):
        if cache is not None and cache_dir is not None:
            raise ValueError("Pass either a cache instance or cache_dir, not both")
        self.cache = cache if cache is not None else CompileCache(directory=cache_dir)
        self.executor = executor
        self.max_workers = max_workers
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.degradation = validate_degradation(degradation)

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def _apply_policy(self, result: CompileResult) -> CompileResult:
        """Stamp the session's degradation/deadline policy onto a result."""
        result.degradation = self.degradation
        if self.timeout is not None and result.timeout is None:
            result.timeout = self.timeout
        return result

    def compile(
        self, source: str, pipeline: PipelineLike = "dcir", function: Optional[str] = None
    ) -> CompileResult:
        """Cached single compile of a pipeline name or spec
        (see :meth:`CompileCache.get_or_compile`)."""
        return self._apply_policy(self.cache.get_or_compile(source, pipeline, function=function))

    def compile_many(
        self, items: Iterable, executor: Optional[str] = None, max_workers: Optional[int] = None
    ) -> List[BatchOutcome]:
        """Cached parallel batch compile with per-item error capture."""
        outcomes = compile_many(
            items,
            executor=executor or self.executor,
            max_workers=max_workers or self.max_workers,
            cache=self.cache,
            retry_policy=self.retry_policy,
            timeout=self.timeout,
        )
        for outcome in outcomes:
            if outcome.result is not None:
                self._apply_policy(outcome.result)
        return outcomes

    def run_suite(
        self,
        workloads: WorkloadsLike,
        pipelines: Sequence[PipelineLike] = ("dcir",),
        repetitions: int = 1,
        parallel: bool = False,
        symbols: Optional[Dict[str, float]] = None,
    ) -> SuiteReport:
        """Compile and run every workload through every pipeline.

        ``pipelines`` mixes registered names and
        :class:`~repro.pipeline.PipelineSpec` values freely — custom specs
        sweep exactly like the built-in six (entries are labelled with the
        spec's display label).  With ``parallel=True`` the cold compiles
        are batched through the session executor first — entries keep
        honest statistics (a compile done in the batch phase reports the
        worker's compile time and ``cache_hit=False``, not the ~ms cache
        rehydration that follows); runs always happen sequentially
        in-process (they are being timed).  Compilation or runtime errors
        are captured per entry, never aborting the remaining suite.

        ``symbols`` needs a live SDFG to evaluate, so ``moved_bytes`` is
        None for entries rehydrated from the cache (see
        :meth:`~repro.pipeline.CompileResult.movement_report`).
        """
        named = list(workloads.items()) if isinstance(workloads, Mapping) else list(workloads)
        pairs = [(name, source, pipeline) for name, source in named for pipeline in pipelines]
        start = time.perf_counter()

        # Content identity per pipeline (entries stay diffable even when a
        # registered name is later redefined); unknown names stay None —
        # their compile fails per-entry below with the real error.
        spec_ids: Dict[int, Optional[str]] = {}
        for position, pipeline in enumerate(pipelines):
            try:
                spec_ids[position] = resolve_pipeline(pipeline).content_id()
            except Exception:
                spec_ids[position] = None

        batched: List[Optional[BatchOutcome]] = [None] * len(pairs)
        if parallel and len(pairs) > 1:
            batched = self.compile_many(
                [CompileRequest(source=source, pipeline=pipeline, name=name)
                 for name, source, pipeline in pairs]
            )  # warms the cache; per-item errors re-surface in the loop below

        report = SuiteReport()
        for index, (name, source, pipeline) in enumerate(pairs):
            entry = SuiteEntry(
                workload=name,
                pipeline=pipeline_label(pipeline),
                spec_id=spec_ids[index % len(pipelines)],
            )
            outcome = batched[index]
            if outcome is not None and not outcome.ok:
                # Already failed in the batch phase; don't recompile just to
                # observe the same error again.
                entry.compile_seconds = outcome.seconds
                entry.error = outcome.error
                entry.error_type = outcome.error_type
                entry.failure_kind = outcome.failure_kind
                entry.attempts = outcome.attempts
                report.entries.append(entry)
                continue
            if outcome is not None:
                # Use the batch result directly (its payload may already
                # have been evicted from the LRU), attributing the worker's
                # compile time and cache status, not a rehydration's.
                compiled = outcome.result
                entry.compile_seconds = outcome.seconds
                entry.cache_hit = outcome.cache_hit
                entry.attempts = outcome.attempts
            else:
                compile_start = time.perf_counter()
                try:
                    compiled = self.compile(source, pipeline)
                except Exception as exc:
                    entry.compile_seconds = time.perf_counter() - compile_start
                    entry.error = str(exc)
                    entry.error_type = type(exc).__name__
                    entry.failure_kind = classify_failure(exc)
                    entry.attempts = max(1, getattr(exc, "attempts", 1))
                    report.entries.append(entry)
                    continue
                entry.compile_seconds = time.perf_counter() - compile_start
                entry.cache_hit = compiled.cache_hit
            movement = compiled.movement_report(symbols)
            if movement is not None:
                entry.moved_bytes = movement.bytes_moved
            try:
                run = run_compiled(compiled, repetitions=repetitions)
            except Exception as exc:
                entry.error = str(exc)
                entry.error_type = type(exc).__name__
                entry.failure_kind = classify_failure(exc)
                entry.degraded = compiled.backend_diagnostic
                report.entries.append(entry)
                continue
            entry.run_seconds = run.seconds
            entry.allocations = run.allocations
            entry.degraded = compiled.backend_diagnostic
            value = run.return_value
            entry.return_value = float(value) if value is not None else None
            report.entries.append(entry)

        report.wall_seconds = time.perf_counter() - start
        report.cache_stats = self.cache.stats.snapshot()
        return report
