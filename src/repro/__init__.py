"""DCIR reproduction: bridging control-centric and data-centric optimization.

Re-implementation (in pure Python) of the system described in
"Bridging Control-Centric and Data-Centric Optimization" (CGO 2023):
an MLIR-like IR with control-centric passes, a DaCe-like SDFG IR with
data-centric passes, the ``sdfg`` dialect bridging the two, and the DCIR
compilation pipeline that combines them.

Quick start::

    from repro import compile_c, run_compiled

    result = compile_c(C_SOURCE, pipeline="dcir")
    print(run_compiled(result).return_value)

Or start from NumPy-style Python instead of C — the second frontend
lowers into the same IR, so every pipeline, the cache, the tuner and the
native backend apply unchanged::

    import numpy as np
    from repro import program, compile_and_run

    @program
    def heat(N=48, T=6):
        u = np.zeros(N)
        for i in range(N):
            u[i] = ((i * 5) % 13) * 0.2 - 1.0
        for t in range(T):
            u[1:-1] = u[1:-1] + 0.1 * (u[:-2] - 2.0 * u[1:-1] + u[2:])
        s = 0.0
        for i in range(N):
            s += u[i]
        return s

    assert abs(compile_and_run(heat, "dcir").return_value - heat()) < 1e-12

Define your own pipeline
------------------------

Pipelines are declarative :class:`PipelineSpec` values; the six paper
pipelines are simply pre-registered specs (``PIPELINES`` is a live view of
the registry).  Build a custom composition — an ablation, a new pass
ordering, a workload-specific pipeline — and every entry point accepts it
directly, or register it to address it by name::

    from repro import PipelineSpec, get_pipeline, register_pipeline
    from repro.pipeline import paper_control_passes, paper_data_passes

    # dcir without memory-reducing loop fusion (a §6.3 ablation):
    nofuse = get_pipeline("dcir").without_pass("map-fusion", name="dcir-nofuse")
    result = compile_c(C_SOURCE, nofuse)              # pass the spec directly...
    register_pipeline(nofuse)
    result = compile_c(C_SOURCE, "dcir-nofuse")       # ...or by registered name

Specs serialize to JSON (``spec.to_dict()`` / ``PipelineSpec.from_dict``)
and are content-addressed by their *canonical* serialization (everything
except the display name), so the compile cache keys custom pipelines
correctly: ``"dcir"``, ``get_pipeline("dcir")`` and an equivalent
hand-built spec share one cache entry, while dropping a pass or flipping a
codegen flag yields a new one.  Sweep specs through the service layer like
any name: ``Session().run_suite(workloads, pipelines=("dcir", nofuse))``.

Evaluation-scale sweeps go through the service layer
(:mod:`repro.service`), which memoizes compilation by content address,
compiles batches in parallel, and runs whole workload suites::

    from repro.service import CompileCache, Session, compile_many
    from repro.workloads import polybench_suite

    # Content-addressed cache: the second compile is a rehydration, not a
    # re-run of the pipeline.  Point it at a directory (or set the
    # REPRO_CACHE_DIR environment variable) to persist across processes.
    cache = CompileCache(directory=".repro-cache")
    result = cache.get_or_compile(C_SOURCE, "dcir")        # cold: compiles
    result = cache.get_or_compile(C_SOURCE, "dcir")        # warm: cache_hit=True

    # Batch compilation (a process pool when CPUs allow) with per-item
    # error isolation.
    outcomes = compile_many([(C_SOURCE, p) for p in PIPELINES], cache=cache)

    # Suite runner: one cached compile_many batch under the session's
    # executor, deadline, retries and degradation mode, then timed runs and
    # a structured report (compile/run time, cache hits, movement stats).
    session = Session(cache=cache)
    report = session.run_suite(polybench_suite(["gemm", "atax"]), pipelines=("gcc", "dcir"))
    print(report.table())

Data-centric passes are pattern-based transformations
(:mod:`repro.transforms`): each separates ``match(sdfg) -> list[Match]``
(deterministic site enumeration) from ``apply_match(sdfg, match)``
(one-site rewrite), records per-run match/application counts on its
:class:`~repro.passbase.PassRecord`, and declares tunable parameters
(``MapTiling(tile_size=16)``, ``Parallelize(n_threads=2)``) that
serialize through :class:`PassSpec` params into the spec's content
address.

Auto-tuning (:mod:`repro.tuning`) searches the pipeline space *between*
the six compositions per kernel — ablations, reorderings, codegen-option
sweeps, transformation-parameter presets and tiled/collapsed schedule
additions — with pluggable strategies and evaluators, every candidate
batch compiled by the session's ``compile_many`` and deduplicated through
the compile cache::

    report = tune_kernel("gemm", budget=8, seed=0)   # reproducible search
    register_winner(report, "gemm-tuned")            # now a named pipeline

A command-line interface mirrors the library: ``python -m repro
list-pipelines``, ``python -m repro compile``, ``python -m repro run``,
``python -m repro tune``, ``python -m repro transforms list|match`` (see
``python -m repro --help``).
"""

from .pipeline import (
    PIPELINES,
    CodegenOptions,
    CompilationReport,
    CompileResult,
    GeneratedProgram,
    PassSpec,
    PipelineError,
    PipelineSpec,
    RunResult,
    compile_and_run,
    compile_c,
    generate_program,
    get_pipeline,
    list_pipelines,
    register_pipeline,
    run_compiled,
    unregister_pipeline,
)
from .codegen import (
    CompiledNative,
    NativeCodegenError,
    ToolchainError,
    generate_c_code,
    have_compiler,
)
from .errors import (
    CacheCorruption,
    CompileTimeout,
    FrontendError,
    PermanentError,
    ToolchainCrash,
    TransientError,
    WorkerLost,
    failure_kind,
)
from .frontend_py import PythonProgram, lower_python, program

__version__ = "1.21.0"

from .service import (  # noqa: E402  (needs __version__ for cache keys)
    CompileCache,
    RetryPolicy,
    Session,
    SuiteReport,
    compile_many,
)
from .tuning import (  # noqa: E402  (builds on the service layer)
    SearchSpace,
    TuningReport,
    register_winner,
    tune,
    tune_kernel,
)

__all__ = [
    "CacheCorruption",
    "CodegenOptions",
    "CompilationReport",
    "CompileCache",
    "CompileResult",
    "CompileTimeout",
    "CompiledNative",
    "FrontendError",
    "GeneratedProgram",
    "NativeCodegenError",
    "PIPELINES",
    "PassSpec",
    "PermanentError",
    "PipelineError",
    "PipelineSpec",
    "PythonProgram",
    "RetryPolicy",
    "RunResult",
    "SearchSpace",
    "Session",
    "SuiteReport",
    "ToolchainCrash",
    "ToolchainError",
    "TransientError",
    "TuningReport",
    "WorkerLost",
    "__version__",
    "failure_kind",
    "compile_and_run",
    "compile_c",
    "compile_many",
    "generate_c_code",
    "generate_program",
    "have_compiler",
    "get_pipeline",
    "list_pipelines",
    "lower_python",
    "program",
    "register_pipeline",
    "register_winner",
    "run_compiled",
    "tune",
    "tune_kernel",
    "unregister_pipeline",
]
