"""Spec-driven compilation: frontend → control passes → (bridge → data
passes →) codegen.

All pipelines start from the same C source and end in executable Python;
they differ only in which optimizations run — mirroring the paper's
methodology of using the same flags for every compiler.  The six
compositions of the evaluation (§7) ship pre-registered
(:mod:`repro.pipeline.registry`):

========== ============================== ======== ============================
pipeline   control-centric passes          bridge   data-centric passes / codegen
========== ============================== ======== ============================
``gcc``    full suite                      —        native-style MLIR codegen
``clang``  full suite (minus memref-DCE)   —        native-style MLIR codegen
``mlir``   full suite                      —        Polygeist-style MLIR codegen
``dace``   none (coarse view)              yes      full §6 set, SDFG codegen
``dcir``   full suite                      yes      full §6 set, SDFG codegen
``dcir+vec`` as dcir                       yes      as dcir, ``ivdep`` maps in C
========== ============================== ======== ============================

(Interpreted, ``dcir+vec`` emits what ``dcir`` emits: the SDFG code
generator writes every innermost map that is an array expression as NumPy
operations under all three bridge pipelines.  The flag reaches the native
backend and keeps its own cache key.)

Every entry point accepts a registered pipeline *name* or a
:class:`~repro.pipeline.spec.PipelineSpec` value, so custom compositions
(ablations, new orderings) are first-class — they compile, cache and batch
exactly like the built-in six.

The module is split into a *pure* compilation stage and artifact
construction so the service layer (:mod:`repro.service`) can cache the
former and cheaply redo the latter:

* :func:`generate_program` runs frontend → passes → (bridge →) codegen and
  returns a :class:`GeneratedProgram` — the emitted Python source plus
  serializable statistics, including a per-stage
  :class:`~repro.passbase.CompilationReport`.  No executable objects are
  created.
* :meth:`GeneratedProgram.to_result` / :func:`load_runner` turn generated
  code into a live :class:`CompileResult`; :func:`result_from_payload`
  rehydrates one from a cached payload without re-running any pass.
"""

from __future__ import annotations

import gc
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..codegen import (
    MovementReport,
    generate_mlir_code,
    generate_code as generate_sdfg_code,
    load_entry,
    sdfg_movement_report,
)
from ..codegen.sdfg_c import NativeCodegenError, generate_c_code
from ..codegen.toolchain import CompiledNative
from ..conversion import mlir_to_sdfg, require_function
from ..errors import PermanentError, PipelineError, TransientError
from ..frontend import compile_c_to_mlir
from ..frontend_py import ProgramLike, as_program, compile_python_to_mlir
from ..passbase import CompilationReport, PassRunner, StageReport
from ..passes import CONTROL_PASSES
from ..perf import PERF
from ..sdfg import SDFG
from ..transforms import DATA_PASSES, loops_left
from .registry import PIPELINES, resolve_pipeline
from .spec import PipelineLike, PipelineSpec, pipeline_label

#: What the compilation entry points accept as a program: C source text
#: or a Python-frontend program (decorated/plain function or
#: :class:`~repro.frontend_py.PythonProgram`).
SourceLike = Union[str, ProgramLike]

#: Version tag of the serialized program payload; bump when the payload
#: layout or the semantics of generated code change incompatibly.
#: (v2: declarative-pipeline payloads carry the spec and stage timings;
#: v3: payloads carry the compile-time profiler counters;
#: v4: movement snapshots carry the loop/map iteration count the cost
#: model's iteration-overhead term scores;
#: v5: payloads carry the native (C) backend's emitted source and the
#: fallback diagnostic, and specs carry the ``codegen.backend`` axis;
#: v6: map schedules — native code for parallel-annotated maps carries
#: OpenMP pragmas (interpreted code ignores a schedule), so cached payloads
#: from earlier versions would miss the schedule.)
PAYLOAD_VERSION = 6


#: What a field of a rehydrated result holds until it is first read.
_UNREAD = object()


class _FromPayload:
    """A :class:`CompileResult` field a cache hit builds on first read.

    A result rehydrated from the compile cache keeps its payload, which few
    warm callers ever look into; such a field holds :data:`_UNREAD` until
    the first read calls ``build(payload)``, which makes a value of this
    result's own (every builder copies what it takes, so no two hits share
    one and none aliases the payload).  Threads sharing a result must all
    get the one value it keeps, so the build runs under a lock.  A result
    made by :meth:`GeneratedProgram.to_result` holds its live values.
    """

    def __init__(self, build: Callable[[Dict], object]):
        self._build = build
        self._building = threading.Lock()

    def __set_name__(self, owner, name):
        self._slot = f"_{name}"

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass default
        value = result.__dict__[self._slot]
        if value is _UNREAD:
            with self._building:
                value = result.__dict__[self._slot]
                if value is _UNREAD:
                    value = result.__dict__[self._slot] = self._build(result._payload)
        return value

    def __set__(self, result, value):
        result.__dict__[self._slot] = value


def _spec_of(payload: Dict) -> Optional[PipelineSpec]:
    spec = payload.get("spec")
    return PipelineSpec.from_dict(spec) if spec is not None else None


def _report_of(payload: Dict) -> Optional[CompilationReport]:
    if not payload.get("stage_seconds"):
        return None
    report = CompilationReport(pipeline=payload["pipeline"])
    capped = payload.get("capped_stages") or ()
    for stage, seconds in payload["stage_seconds"].items():
        report.add_stage(stage, seconds).converged = stage not in capped
    # Profiler counters recorded by the original (cache-filling) compile.
    report.counters = dict(payload.get("counters") or {})
    return report


def _movement_of(payload: Dict) -> Optional[MovementReport]:
    snapshot = payload.get("movement")
    if snapshot is None:
        return None
    return MovementReport(
        elements_moved=snapshot.get("elements_moved", 0.0),
        bytes_moved=snapshot.get("bytes_moved", 0.0),
        allocations=snapshot.get("allocations", 0.0),
        allocated_bytes=snapshot.get("allocated_bytes", 0.0),
        iterations=snapshot.get("iterations", 0.0),
        per_container=dict(snapshot.get("per_container", {})),
    )


@dataclass
class CompileResult:
    """Result of compiling a program through one pipeline."""

    pipeline: str
    function: Optional[str]
    code: str
    runner: Callable
    sdfg: Optional[SDFG] = None
    mlir_module: object = None
    compile_seconds: float = 0.0
    optimization_report: object = None
    #: Declarative spec of the pipeline that produced this result (a
    #: rehydrated result parses it from the payload when first read).
    spec: Optional[PipelineSpec] = _FromPayload(_spec_of)
    #: Per-stage compilation report (frontend/control/bridge/data/codegen;
    #: a rehydrated result builds it from the payload when first read).
    report: Optional[CompilationReport] = _FromPayload(_report_of)
    #: True when this result was rehydrated from the compile cache rather
    #: than produced by a fresh run of the compilation pipeline.
    cache_hit: bool = False
    #: Execution backend of :attr:`runner`: ``"python"`` (interpreted) or
    #: ``"native"`` (compiled C).  A requested-but-unavailable native
    #: backend flips to ``"python"`` with :attr:`backend_diagnostic` set —
    #: at codegen time for inexpressible SDFGs, or at first call when the
    #: machine has no C compiler.
    backend: str = "python"
    #: Why the native backend was not used, when it was requested.
    backend_diagnostic: Optional[str] = None
    #: The emitted C translation unit (native backend only).
    native_code: Optional[str] = field(repr=False, default=None)
    #: How a failing native backend behaves at run time: ``"fallback"``
    #: degrades to the interpreted runner (recording why in
    #: :attr:`backend_diagnostic`); ``"strict"`` re-raises the typed error.
    degradation: str = "fallback"
    #: Deadline (seconds) threaded to the toolchain when the deferred
    #: native build runs (None: the toolchain's own default applies).
    timeout: Optional[float] = None
    #: The movement report recorded at compile time (rehydrated results only).
    _cached_movement: Optional[MovementReport] = _FromPayload(_movement_of)
    #: The cached payload a rehydrated result was made from.
    _payload: Optional[Dict] = field(repr=False, default=None)

    def run(self, **kwargs) -> Dict:
        return self.runner(**kwargs)

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage compile-time breakdown (empty when unknown)."""
        return self.report.stage_seconds if self.report is not None else {}

    def movement_report(self) -> Optional[MovementReport]:
        if self.sdfg is not None:
            return sdfg_movement_report(self.sdfg)
        # Rehydrated results carry the report computed at compile time.
        return self._cached_movement

    @property
    def eliminated_containers(self) -> List[str]:
        if self.sdfg is not None:
            return list(self.sdfg.eliminated_containers)
        # Rehydrated results carry the list recorded at compile time.
        return list((self._payload or {}).get("eliminated_containers", []))


@dataclass
class RunResult:
    """Timing and output of executing a compiled program.

    ``seconds`` is the best-of-N runtime and ``outputs`` comes from that
    same best repetition (every repetition of a deterministic program
    computes identical outputs; recording the pair keeps them consistent
    even for programs that are not).  ``rep_seconds`` carries the
    individual repetition timings in execution order; ``warmup_seconds``
    carries the timings of discarded warm-up repetitions (never part of
    the best-of-N statistic).
    """

    pipeline: str
    seconds: float
    outputs: Dict
    allocations: int = 0
    rep_seconds: List[float] = field(default_factory=list)
    warmup_seconds: List[float] = field(default_factory=list)

    @property
    def return_value(self):
        return self.outputs.get("__return")


@dataclass
class GeneratedProgram:
    """Pure compilation artifact: generated code plus statistics.

    Everything needed to *execute* the program later is in :attr:`code`
    (self-contained Python source defining ``run(**kwargs)``); the live IR
    objects are kept only for fresh compiles and are excluded from the
    cacheable payload.
    """

    pipeline: str
    function: Optional[str]
    code: str
    compile_seconds: float = 0.0
    sdfg: Optional[SDFG] = None
    mlir_module: object = None
    optimization_report: object = None
    #: Declarative spec of the pipeline that produced this program.
    spec: Optional[PipelineSpec] = None
    #: Per-stage compilation report (frontend/control/bridge/data/codegen).
    report: Optional[CompilationReport] = None
    #: C translation unit emitted by the native backend (when requested
    #: and expressible); the Python :attr:`code` is always emitted too —
    #: it is the differential reference and the no-compiler fallback.
    native_code: Optional[str] = None
    #: Why a requested native backend fell back to Python at codegen time.
    native_fallback: Optional[str] = None

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage compile-time breakdown (empty when unknown)."""
        return self.report.stage_seconds if self.report is not None else {}

    def to_payload(self) -> Dict:
        """Serializable (JSON-safe) snapshot for the content-addressed cache."""
        movement = None
        eliminated: List[str] = []
        if self.sdfg is not None:
            report = sdfg_movement_report(self.sdfg)
            movement = {
                "elements_moved": report.elements_moved,
                "bytes_moved": report.bytes_moved,
                "allocations": report.allocations,
                "allocated_bytes": report.allocated_bytes,
                "iterations": report.iterations,
                "per_container": dict(report.per_container),
            }
            eliminated = list(self.sdfg.eliminated_containers)
        return {
            "version": PAYLOAD_VERSION,
            "pipeline": self.pipeline,
            "function": self.function,
            "code": self.code,
            "compile_seconds": self.compile_seconds,
            "movement": movement,
            "eliminated_containers": eliminated,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "stage_seconds": self.stage_seconds,
            "capped_stages": [
                stage.stage for stage in self.report.stages if not stage.converged
            ] if self.report is not None else [],
            "counters": dict(self.report.counters) if self.report is not None else {},
            "native_code": self.native_code,
            "native_fallback": self.native_fallback,
        }

    def to_result(self) -> CompileResult:
        """Construct the executable artifact from this program."""
        return _build_result(
            self.code,
            f"<{self.pipeline}>",
            self.native_code,
            self.native_fallback,
            pipeline=self.pipeline,
            function=self.function,
            sdfg=self.sdfg,
            mlir_module=self.mlir_module,
            compile_seconds=self.compile_seconds,
            optimization_report=self.optimization_report,
            spec=self.spec,
            report=self.report,
        )


def load_runner(code: str, name: str = "<generated>") -> Callable:
    """Load generated Python source into its ``run(**kwargs)`` callable."""
    return load_entry(code, entry="run", filename=name)


class _LazyNativeRunner:
    """Runner that compiles the emitted C on first call.

    Building a :class:`CompileResult` must stay cheap and side-effect free
    (the tuner rehydrates many candidates it will never execute, and
    repeat-run cache reuse is asserted to spawn zero work), so the
    toolchain — ``cc`` process, ``dlopen`` — is only touched when the
    program is actually run, and the interpreted source of a native
    result is not loaded at all unless the toolchain fails.  The first
    call goes through :meth:`CompiledNative.from_code`, which serves a
    library this process already has mapped from its loaded-library table.
    Under the result's default ``"fallback"`` degradation mode a missing,
    failing, hung or corrupted toolchain loads the interpreted runner
    instead, with a warning and a recorded diagnostic; under ``"strict"``
    the typed error propagates to the caller (the diagnostic is still
    recorded first).
    """

    def __init__(self, result: CompileResult, native_code: str):
        self._result = result
        self._native_code = native_code
        self._callable: Optional[Callable] = None

    def __call__(self, **kwargs) -> Dict:
        if self._callable is None:
            try:
                self._callable = CompiledNative.from_code(
                    self._native_code,
                    name=self._result.pipeline,
                    timeout=self._result.timeout,
                ).run
            except (PermanentError, TransientError) as exc:
                self._result.backend = "python"
                self._result.backend_diagnostic = str(exc)
                if self._result.degradation == "strict":
                    raise
                warnings.warn(
                    f"Native backend unavailable for pipeline "
                    f"{self._result.pipeline!r} ({exc}); falling back to the "
                    "interpreted backend",
                    RuntimeWarning,
                    stacklevel=2,
                )
                PERF.increment("backend.degraded_runs")
                self._callable = load_runner(
                    self._result.code, name=f"<{self._result.pipeline}>"
                )
        return self._callable(**kwargs)


def _build_result(
    code: str,
    filename: str,
    native_code: Optional[str],
    native_fallback: Optional[str],
    **fields,
) -> CompileResult:
    """The one constructor of results: fields plus the execution backend.

    A result with emitted C runs natively and loads nothing here — its
    :class:`_LazyNativeRunner` loads the interpreted source itself if the
    toolchain ever fails.  Every other result loads its interpreted
    runner now, under the display ``filename``.
    """
    if native_code:
        result = CompileResult(
            code=code, runner=None, backend="native", native_code=native_code, **fields
        )
        result.runner = _LazyNativeRunner(result, native_code)
        return result
    return CompileResult(
        code=code,
        runner=load_runner(code, name=filename),
        backend_diagnostic=native_fallback,
        **fields,
    )


def result_from_payload(payload: Dict) -> CompileResult:
    """Rehydrate a :class:`CompileResult` from a cached payload.

    No frontend, pass or codegen work runs: an interpreted result
    re-``exec``-s its generated code (compiled once per process, see
    :func:`~repro.codegen.loader.load_entry`), a native one loads nothing
    until it is run.  The rehydrated result has no live SDFG/MLIR objects; the
    movement report, eliminated-container list and stage timings recorded
    at compile time stand in for them.  They, and the spec, stay in the
    payload until first read: reading :attr:`CompileResult.spec`,
    :attr:`~CompileResult.report` or :meth:`~CompileResult.movement_report`
    builds that one value, for this result alone.
    """
    return _build_result(
        payload["code"],
        f"<cached:{payload['pipeline']}>",
        payload.get("native_code"),
        payload.get("native_fallback"),
        pipeline=payload["pipeline"],
        function=payload.get("function"),
        compile_seconds=payload.get("compile_seconds", 0.0),
        spec=_UNREAD,
        report=_UNREAD,
        cache_hit=True,
        _cached_movement=_UNREAD,
        _payload=payload,
    )


def compile_frontend(source, spec: PipelineSpec):
    """Frontend dispatch: C source text or a Python program → MLIR module.

    Every pipeline entry point funnels through here, so both frontends
    share the stack below this call — that is the frontend-agnosticism
    the paper's bridge claims, made structural.  Strings are C sources;
    :class:`~repro.frontend_py.PythonProgram` instances (or anything
    callable, coerced via :func:`~repro.frontend_py.as_program`) take the
    Python frontend.
    """
    if isinstance(source, str):
        return compile_c_to_mlir(source, **spec.frontend_options)
    return compile_python_to_mlir(as_program(source), **spec.frontend_options)


def control_runner(spec: PipelineSpec) -> PassRunner:
    """The runner of ``spec``'s control-centric stage — the one
    :func:`generate_program` runs over the MLIR module."""
    return PassRunner(
        [CONTROL_PASSES.build(p.name, p.params) for p in spec.control_passes],
        max_iterations=spec.control_max_iterations,
        stage="control",
    )


def data_runner(spec: PipelineSpec) -> PassRunner:
    """The runner of ``spec``'s data-centric stage — the one
    :func:`generate_program` runs over the bridged SDFG."""
    return PassRunner(
        [DATA_PASSES.build(p.name, p.params) for p in spec.data_passes],
        max_iterations=spec.data_max_iterations,
        stage="data",
    )


def generate_sdfg(
    source: SourceLike,
    pipeline: PipelineLike = "dcir",
    function: Optional[str] = None,
    stop_before: Optional[str] = None,
) -> SDFG:
    """Compile up to the data-centric stage and return the live SDFG.

    Runs frontend → control passes → bridge, then the spec's data-centric
    passes — all of them, or only those *before* the first occurrence of
    ``stop_before`` (the natural point to enumerate that pass's matches:
    the graph it would actually see).  The spec must cross the bridge.

    This is the workhorse of ``python -m repro transforms match``.
    """
    spec = resolve_pipeline(pipeline).validate()
    if not spec.bridge:
        raise PipelineError(
            f"Pipeline {spec.label!r} never builds an SDFG (bridge=False); "
            "pick a data-centric pipeline such as 'dcir'"
        )
    data_passes = list(spec.data_passes)
    if stop_before is not None:
        index = next(
            (i for i, p in enumerate(data_passes) if p.name == stop_before),
            len(data_passes),
        )
        data_passes = data_passes[:index]
        spec = spec.with_passes("data", data_passes,
                                name=spec.name, description=spec.description)

    module = compile_frontend(source, spec)
    require_function(module, function)
    if spec.control_passes:
        control_runner(spec).run(module)
    sdfg = mlir_to_sdfg(module, function=function)
    if spec.data_passes:
        data_runner(spec).run(sdfg)
    return sdfg


def generate_program(
    source: SourceLike, pipeline: PipelineLike = "dcir", function: Optional[str] = None
) -> GeneratedProgram:
    """Run the pure compilation stages for one pipeline.

    ``source`` is C text or a Python-frontend program (see
    :func:`compile_frontend`); ``pipeline`` is a registered name or a
    :class:`PipelineSpec`.  Frontend →
    control-centric passes → (SDFG bridge → data-centric passes →) code
    generation, producing a :class:`GeneratedProgram`.  This performs no
    ``exec`` and builds no callables, so the service layer can run it in a
    worker process and ship the payload back to the parent.
    """
    spec = resolve_pipeline(pipeline).validate()
    label = spec.label
    report = CompilationReport(pipeline=label)
    perf_before = PERF.snapshot()
    start = time.perf_counter()

    stage_start = time.perf_counter()
    PERF.increment("frontend.runs")
    module = compile_frontend(source, spec)
    require_function(module, function)
    report.add_stage("frontend", time.perf_counter() - stage_start)

    control_report: Optional[StageReport] = None
    if spec.control_passes:
        control_report = control_runner(spec).run(module)
        report.stages.append(control_report)

    if not spec.bridge:
        stage_start = time.perf_counter()
        code = generate_mlir_code(
            module,
            function=function,
            native_scalars=spec.codegen.native_scalars,
            preallocate=spec.codegen.preallocate,
        )
        report.add_stage("codegen", time.perf_counter() - stage_start)
        report.counters = PERF.delta_since(perf_before)
        native_fallback = None
        if spec.codegen.backend == "native":
            native_fallback = (
                "the native backend lowers SDFGs; pipeline "
                f"{label!r} never crosses the bridge (bridge=False)"
            )
        return GeneratedProgram(
            pipeline=label,
            function=function,
            code=code,
            compile_seconds=time.perf_counter() - start,
            mlir_module=module,
            optimization_report=control_report,
            spec=spec,
            report=report,
            native_fallback=native_fallback,
        )

    # Data-centric pipelines: bridge to the SDFG IR and optimize there.
    stage_start = time.perf_counter()
    sdfg = mlir_to_sdfg(module, function=function)
    report.add_stage("bridge", time.perf_counter() - stage_start)
    data_report = data_runner(spec).run(sdfg)
    report.stages.append(data_report)
    for reason, count in loops_left(sdfg).items():
        PERF.increment(f"transforms.loops_left.{reason}", count)
    stage_start = time.perf_counter()
    code = generate_sdfg_code(sdfg, vectorize=spec.codegen.vectorize)
    native_code = None
    native_fallback = None
    if spec.codegen.backend == "native":
        # C emission is pure (no compiler involved), so it belongs to the
        # cacheable stage; building/loading the shared object is deferred
        # to the first run.  Python code is still emitted above — it is
        # the differential reference and the no-compiler fallback.
        try:
            native_code = generate_c_code(sdfg, vectorize=spec.codegen.vectorize)
            PERF.increment("codegen.native_programs")
        except NativeCodegenError as exc:
            native_fallback = str(exc)
            PERF.increment("codegen.native_fallbacks")
    report.add_stage("codegen", time.perf_counter() - stage_start)
    report.counters = PERF.delta_since(perf_before)
    return GeneratedProgram(
        pipeline=label,
        function=function,
        code=code,
        compile_seconds=time.perf_counter() - start,
        sdfg=sdfg,
        mlir_module=module,
        optimization_report=data_report,
        spec=spec,
        report=report,
        native_code=native_code,
        native_fallback=native_fallback,
    )


def compile_c(
    source: SourceLike, pipeline: PipelineLike = "dcir", function: Optional[str] = None
) -> CompileResult:
    """Compile a program through the requested pipeline (name or spec).

    Despite the historical name, ``source`` may be C text *or* a
    Python-frontend program — the frontends share everything below
    :func:`compile_frontend`.

    This is the main public entry point of the library: it reproduces the
    paper's Fig. 4 conversion pipeline for ``dcir`` and the baseline paths
    for the other pipeline names, and compiles any custom
    :class:`PipelineSpec` the same way.  For cached and batched compilation
    see :mod:`repro.service`.
    """
    return generate_program(source, pipeline, function=function).to_result()


def run_compiled(
    result: CompileResult,
    repetitions: int = 1,
    warmup: int = 0,
    disable_gc: bool = False,
    **kwargs,
) -> RunResult:
    """Execute a compiled program, returning the best-of-N runtime.

    The reported ``outputs`` (and the allocation count derived from them)
    come from the same repetition as the reported ``seconds``; per-rep
    timings are returned in ``RunResult.rep_seconds``.

    ``warmup`` repetitions run (and are timed into
    ``RunResult.warmup_seconds``) before the measured ones but never
    enter the best-of-N statistic — the first call pays one-time costs
    (native: compile + ``dlopen``; interpreted: bytecode warm-up) that
    are not the program's runtime.  ``disable_gc`` suspends the cyclic
    garbage collector around the timed section so a collection pause
    cannot land inside a measured repetition.
    """
    best = float("inf")
    outputs: Dict = {}
    rep_seconds: List[float] = []
    warmup_seconds: List[float] = []
    restore_gc = disable_gc and gc.isenabled()
    if restore_gc:
        gc.disable()
    try:
        for _ in range(max(0, warmup)):
            start = time.perf_counter()
            result.run(**kwargs)
            warmup_seconds.append(time.perf_counter() - start)
        for _ in range(max(1, repetitions)):
            start = time.perf_counter()
            current = result.run(**kwargs)
            elapsed = time.perf_counter() - start
            rep_seconds.append(elapsed)
            if elapsed < best:
                best = elapsed
                outputs = current
    finally:
        if restore_gc:
            gc.enable()
    return RunResult(
        pipeline=result.pipeline,
        seconds=best,
        outputs=outputs,
        allocations=int(outputs.get("__allocations", 0)),
        rep_seconds=rep_seconds,
        warmup_seconds=warmup_seconds,
    )


def compile_and_run(
    source: SourceLike, pipeline: PipelineLike = "dcir", repetitions: int = 1,
    function: Optional[str] = None, **kwargs,
) -> RunResult:
    """Convenience wrapper: compile then run."""
    return run_compiled(compile_c(source, pipeline, function=function), repetitions, **kwargs)
