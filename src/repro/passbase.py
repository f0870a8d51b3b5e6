"""Unified pass, pass-registry and report infrastructure.

Both IR layers — the MLIR-like control-centric IR (:mod:`repro.passes`) and
the SDFG data-centric IR (:mod:`repro.transforms`) — run ordered lists of
passes to a fixed point and record per-pass statistics.  This module is
the single implementation of that machinery, mirroring MLIR's homogenized
pass infrastructure:

* :class:`PassBase` — a named pass with a ``run(target) -> bool`` hook;
* :class:`PassRunner` — runs an ordered pass list, optionally repeating
  until a fixed point, producing a :class:`StageReport`;
* :class:`PassRegistry` — a name → pass-class registry so declarative
  pipeline specs (:mod:`repro.pipeline.spec`) can reference passes by name;
* :class:`StageReport` / :class:`PassRecord` — per-stage pass statistics;
* :class:`CompilationReport` — per-stage timings of one whole compilation
  (frontend / control / bridge / data / codegen), surfaced on
  :class:`~repro.pipeline.GeneratedProgram`.

Each layer adds only its own hook name on top: :class:`repro.passes.Pass`
(``run_on_module``) and :class:`repro.transforms.DataCentricPass`
(``apply``).
"""

from __future__ import annotations

import difflib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Type

from .errors import PipelineError
from .perf import PERF


class PassBase:
    """Base class for passes of either IR layer."""

    #: Human-readable pass name (defaults to the class name).
    NAME: Optional[str] = None

    @property
    def name(self) -> str:
        return self.NAME or type(self).__name__

    def run(self, target) -> bool:
        """Transform ``target`` in place; return True if anything changed."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


@dataclass
class PassRecord:
    """Execution record of a single pass invocation.

    ``matches``/``applied`` carry the pattern-engine accounting of
    :class:`repro.transforms.Transformation` passes — how many sites the
    pass's pattern matched and how many it rewrote during this invocation.
    They stay ``None`` for passes without the match/apply contract
    (control-centric passes, plain whole-graph passes).
    """

    name: str
    changed: bool
    seconds: float
    matches: Optional[int] = None
    applied: Optional[int] = None


@dataclass
class StageReport:
    """Per-pass statistics of one pipeline stage (control or data)."""

    stage: str = ""
    records: List[PassRecord] = field(default_factory=list)
    #: Wall time of the whole stage including runner overhead; falls back
    #: to the per-pass sum when the stage was not run through a runner.
    wall_seconds: Optional[float] = None
    #: False when the runner's ``max_iterations`` ended the stage while its
    #: last sweep still changed something; True when it stopped by itself.
    converged: bool = True

    @property
    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.records)

    @property
    def seconds(self) -> float:
        """Stage wall time (:attr:`wall_seconds` when known)."""
        return self.wall_seconds if self.wall_seconds is not None else self.total_seconds

    @property
    def changed(self) -> bool:
        return any(record.changed for record in self.records)

    def match_totals(self) -> Dict[str, Dict[str, int]]:
        """Aggregated pattern accounting per pass name.

        ``{name: {"matches": total, "applied": total}}`` over every
        invocation that reported match counts (pattern-based passes run
        once per fixpoint iteration; the totals sum across iterations).
        """
        totals: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            if record.matches is None and record.applied is None:
                continue
            entry = totals.setdefault(record.name, {"matches": 0, "applied": 0})
            entry["matches"] += record.matches or 0
            entry["applied"] += record.applied or 0
        return totals

    def summary(self) -> str:
        lines = [
            f"{record.name:<34} changed={record.changed} {record.seconds * 1e3:8.2f} ms"
            + match_suffix(record)
            for record in self.records
        ]
        lines.append(f"{'total':<34} {'':13} {self.total_seconds * 1e3:8.2f} ms")
        return "\n".join(lines)


@dataclass
class CompilationReport:
    """Per-stage timings of one whole compilation.

    Stages appear in execution order; a pipeline without a bridge has no
    ``bridge``/``data`` stages, one without control-centric passes no
    ``control`` stage.  The ``control`` and ``data`` stages carry the
    per-pass :class:`PassRecord` statistics.
    """

    pipeline: str = ""
    stages: List[StageReport] = field(default_factory=list)
    #: Profiler counter increments attributed to this compilation
    #: (a delta of :data:`repro.perf.PERF` around the compile).  Includes
    #: symbolic-engine cache statistics, frontend/pass work counts, etc.
    #: (worker *processes* keep independent counters).
    counters: Dict[str, int] = field(default_factory=dict)

    def add_stage(
        self, name: str, seconds: float, records: Sequence[PassRecord] = ()
    ) -> StageReport:
        report = StageReport(stage=name, records=list(records), wall_seconds=seconds)
        self.stages.append(report)
        return report

    def stage(self, name: str) -> Optional[StageReport]:
        for report in self.stages:
            if report.stage == name:
                return report
        return None

    @property
    def stage_seconds(self) -> Dict[str, float]:
        return {report.stage: report.seconds for report in self.stages}

    @property
    def total_seconds(self) -> float:
        return sum(report.seconds for report in self.stages)

    def summary(self) -> str:
        lines = [f"pipeline {self.pipeline or '<anonymous>'}"]
        for report in self.stages:
            lines.append(
                f"  {report.stage:<10} {report.seconds * 1e3:8.2f} ms" + cap_suffix(report)
            )
            for record in report.records:
                lines.append(
                    f"    {record.name:<32} changed={record.changed} "
                    f"{record.seconds * 1e3:8.2f} ms" + match_suffix(record)
                )
        lines.append(f"  {'total':<10} {self.total_seconds * 1e3:8.2f} ms")
        for name in sorted(self.counters):
            lines.append(f"  {name:<40} {self.counters[name]:12g}")
        return "\n".join(lines)


def cap_suffix(report: StageReport) -> str:
    """The stage-line tail saying ``max_iterations``, not a fixed point, ended it."""
    return "" if report.converged else "  iteration cap reached"


def match_suffix(record: PassRecord) -> str:
    """Render a record's pattern accounting (empty for plain passes).

    The single renderer of the ``matches=… applied=…`` tail, shared by the
    report summaries here and the CLI's ``compile --verbose`` output.
    """
    if record.matches is None and record.applied is None:
        return ""
    return f"  matches={record.matches or 0} applied={record.applied or 0}"


class PassRunner:
    """Runs an ordered sequence of passes, optionally to a fixed point.

    The runner is IR-agnostic: it only requires each pass to implement
    ``run(target) -> bool``.
    """

    def __init__(
        self,
        passes: Sequence[PassBase],
        max_iterations: int = 1,
        stage: str = "passes",
    ):
        self.passes = list(passes)
        self.max_iterations = max(1, max_iterations)
        self.stage = stage

    def run(self, target) -> StageReport:
        report = StageReport(stage=self.stage)
        wall_start = time.perf_counter()
        for _ in range(self.max_iterations):
            iteration_changed = False
            for pass_obj in self.passes:
                start = time.perf_counter()
                changed = bool(pass_obj.run(target))
                elapsed = time.perf_counter() - start
                report.records.append(PassRecord(
                    pass_obj.name, changed, elapsed,
                    # Pattern-based passes report per-invocation site counts.
                    matches=getattr(pass_obj, "last_matches", None),
                    applied=getattr(pass_obj, "last_applied", None),
                ))
                PERF.increment("passes.runs")
                if changed:
                    PERF.increment("passes.applied")
                iteration_changed = iteration_changed or changed
            if not iteration_changed:
                break
        else:
            report.converged = False
        report.wall_seconds = time.perf_counter() - wall_start
        return report


class PassRegistry:
    """Name-keyed registry of pass classes for one IR layer.

    Declarative pipeline specs reference passes by registered name; the
    registry instantiates them (with per-pass options as constructor
    keyword arguments) and produces helpful errors — including
    closest-match suggestions — for unknown names.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._classes: "OrderedDict[str, Type[PassBase]]" = OrderedDict()

    def register(
        self,
        cls: Optional[Type[PassBase]] = None,
        *,
        name: Optional[str] = None,
        overwrite: bool = False,
    ):
        """Register a pass class (usable directly or as a decorator).

        Re-registering an existing name raises unless ``overwrite=True``:
        silently redefining a pass would change what every pipeline spec
        referencing it means while its cache keys (which address pass
        *names*) stayed the same — stale cached code would be served as
        valid hits.
        """

        def _register(pass_cls: Type[PassBase]) -> Type[PassBase]:
            key = name or pass_cls.NAME or pass_cls.__name__
            if key in self._classes and not overwrite:
                raise PipelineError(
                    f"{self.kind} pass {key!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._classes[key] = pass_cls
            return pass_cls

        return _register(cls) if cls is not None else _register

    def names(self) -> List[str]:
        return list(self._classes)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def get(self, name: str) -> Type[PassBase]:
        try:
            return self._classes[name]
        except KeyError:
            raise PipelineError(
                f"Unknown {self.kind} pass {name!r}; "
                + suggest(name, self.names(), "registered passes")
            ) from None

    def build(self, name: str, options: Optional[Mapping[str, object]] = None) -> PassBase:
        cls = self.get(name)
        try:
            return cls(**options) if options else cls()
        except TypeError as exc:
            raise PipelineError(
                f"Bad options {dict(options or {})!r} for {self.kind} pass {name!r}: {exc}"
            ) from exc


def suggest(name: str, known: Sequence[str], what: str = "registered names") -> str:
    """Render the known-name list, with a closest-match hint when one exists."""
    close = difflib.get_close_matches(name, known, n=1)
    hint = f"did you mean {close[0]!r}? " if close else ""
    return f"{hint}{what}: {', '.join(known) or '<none>'}"
