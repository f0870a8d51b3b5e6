"""Quickstart: compile a C kernel through every pipeline and compare.

Also demonstrates the service layer (:mod:`repro.service`) — the
content-addressed compile cache, parallel batch compilation with
``compile_many``, and the ``Session`` suite runner — how to define,
register and sweep a *custom* pipeline as a declarative
:class:`~repro.PipelineSpec`, the compile-time profiler
(:mod:`repro.perf`), whose counters every compilation report carries,
and the auto-tuner (:mod:`repro.tuning`), which searches the pipeline
space for one kernel and registers the winning spec.

Run with::

    python examples/quickstart.py
"""

import time

from repro.perf import PERF
from repro import (
    PIPELINES,
    compile_c,
    get_pipeline,
    register_pipeline,
    run_compiled,
    unregister_pipeline,
)
from repro.service import CompileCache, Session, cache_key, compile_many
from repro.workloads import polybench_suite

SOURCE = """
double saxpy() {
  double x[256];
  double y[256];
  double a = 2.5;
  for (int i = 0; i < 256; i++) {
    x[i] = i * 0.5;
    y[i] = 256 - i;
  }
  for (int i = 0; i < 256; i++)
    y[i] = a * x[i] + y[i];
  double sum = 0.0;
  for (int i = 0; i < 256; i++)
    sum += y[i];
  return sum;
}
"""


def main() -> None:
    print(f"{'pipeline':<10} {'result':>14} {'runtime':>12} {'compile':>10}")
    for pipeline in PIPELINES:
        compiled = compile_c(SOURCE, pipeline)
        result = run_compiled(compiled, repetitions=3)
        print(
            f"{pipeline:<10} {result.return_value:>14.4f} "
            f"{result.seconds * 1e3:>10.2f}ms {compiled.compile_seconds * 1e3:>8.1f}ms"
        )

    # The DCIR pipeline exposes the optimized SDFG and the generated code.
    dcir = compile_c(SOURCE, "dcir")
    print("\nDCIR data containers:", sorted(dcir.sdfg.arrays))
    print("Eliminated containers:", dcir.eliminated_containers)
    print("\nGenerated code (first 25 lines):")
    print("\n".join(dcir.code.splitlines()[:25]))

    native_backend_demo()
    parallel_demo()
    custom_pipeline_demo()
    service_demo()
    chaos_demo()
    perf_demo()
    tuning_demo()


def native_backend_demo() -> None:
    """The native backend: lower the SDFG to C and run the compiled binary.

    ``backend`` is a codegen option on the spec, so it flows through the
    cache key and serialization like any other.  On machines without a C
    compiler the first native run warns and falls back to the interpreted
    backend — same outputs, just slower — so this demo never crashes.
    """
    from repro.codegen import have_compiler

    spec = get_pipeline("dcir").with_codegen(backend="native")
    compiled = compile_c(SOURCE, spec)
    print(f"\nnative backend (C compiler {'found' if have_compiler() else 'MISSING'}):")
    if compiled.native_code:
        header = compiled.native_code.splitlines()
        print("  " + "\n  ".join(header[:3]))  # banner + ABI descriptor

    interpreted = run_compiled(compile_c(SOURCE, "dcir"), repetitions=3)
    native = run_compiled(compiled, repetitions=3, warmup=1, disable_gc=True)
    print(f"  backend used: {compiled.backend}"
          + (f" ({compiled.backend_diagnostic})" if compiled.backend_diagnostic else ""))
    print(f"  interpreted: {interpreted.seconds * 1e6:9.1f}us   "
          f"native: {native.seconds * 1e6:9.1f}us   "
          f"same result: {native.return_value == interpreted.return_value}")


def parallel_demo() -> None:
    """Map schedules: prove outer maps parallel, then execute them that way.

    The ``parallelize`` pass annotates exactly the maps the safety
    analysis proves free of cross-iteration write conflicts (WCR
    updates become reductions or atomics).  Both backends honor the
    annotation — OpenMP pragmas in the native C, a fork/join
    shared-memory executor in the interpreted Python — and degrade to
    plain sequential loops on machines that cannot fan out, so the
    demo is correct everywhere and only *faster* with cores to spare.
    """
    from repro.sdfg import SCHEDULE_PARALLEL
    from repro.workloads import get_kernel

    source = get_kernel("atax", {"M": 96, "N": 96})
    base = get_pipeline("dcir")
    passes = [(p.name, dict(p.params)) for p in base.data_passes]
    parallel = base.with_passes("data", passes + [("parallelize", {"n_threads": 2})])

    sequential = run_compiled(compile_c(source, base), repetitions=3)
    compiled = compile_c(source, parallel)
    measured = run_compiled(compiled, repetitions=3)
    annotated = sum(
        1 for _, entry in compiled.sdfg.map_entries()
        if entry.map.schedule == SCHEDULE_PARALLEL
    )
    drift = abs(measured.return_value - sequential.return_value)
    drift /= max(1.0, abs(sequential.return_value))
    print(f"\nparallel schedules (atax, 2 workers): {annotated} map(s) annotated")
    print(f"  sequential: {sequential.seconds * 1e3:8.2f}ms   "
          f"parallel: {measured.seconds * 1e3:8.2f}ms   "
          f"relative drift: {drift:.2e} (<= 1e-12)")


def custom_pipeline_demo() -> None:
    """Define your own pipeline: build a spec, register it, sweep it.

    Pipelines are declarative :class:`~repro.PipelineSpec` values — the six
    paper pipelines are just pre-registered specs.  Deriving a spec (here:
    ``dcir`` without the memory-reducing loop fusion of §6.3) gives an
    ablation pipeline that compiles, caches and sweeps exactly like the
    built-in six, without touching library internals.
    """
    nofuse = get_pipeline("dcir").without_pass("map-fusion", name="dcir-nofuse")

    # Cache keys are content addresses of the *canonical* spec
    # serialization (everything but the display name): a registered name
    # and an equivalent spec share one entry, an ablated spec gets its own.
    assert cache_key(SOURCE, "dcir") == cache_key(SOURCE, get_pipeline("dcir"))
    assert cache_key(SOURCE, nofuse) != cache_key(SOURCE, "dcir")

    # Register it to address it by string everywhere names are accepted
    # (PIPELINES is a live view over the registry).
    register_pipeline(nofuse)
    print("\nregistered pipelines:", ", ".join(PIPELINES))

    # Sweep the ablation against its parent through the suite runner:
    # specs and names mix freely in ``pipelines=``.
    report = Session().run_suite(
        {"saxpy": SOURCE}, pipelines=("dcir", "dcir-nofuse"), repetitions=3
    )
    print(report.table())
    print("ablation disagreements:", report.disagreements() or "none")
    unregister_pipeline("dcir-nofuse")


def service_demo() -> None:
    """The service layer: compile cache, batch compilation, suite runner."""
    # Content-addressed cache: the second compile rehydrates the generated
    # code instead of re-running the pipeline.  Give the cache a directory
    # (or set REPRO_CACHE_DIR) and it persists across processes.
    cache = CompileCache()
    start = time.perf_counter()
    cache.get_or_compile(SOURCE, "dcir")
    cold = time.perf_counter() - start
    start = time.perf_counter()
    warm_result = cache.get_or_compile(SOURCE, "dcir")
    warm = time.perf_counter() - start
    print(f"\ncompile cache: cold {cold * 1e3:.1f}ms, warm {warm * 1e3:.2f}ms "
          f"(cache_hit={warm_result.cache_hit})")

    # Batch compilation: every pipeline at once, one failing item does not
    # abort the sweep (its outcome carries the error instead of a result).
    outcomes = compile_many(
        [(SOURCE, pipeline) for pipeline in PIPELINES] + [("int broken( {", "gcc")],
        cache=cache,
    )
    for outcome in outcomes:
        status = "ok" if outcome.ok else f"{outcome.error_type}: {outcome.error}"
        print(f"  compile_many[{outcome.request.label:<10}] {status}")

    # Suite runner: compile + run a PolyBench subset through several
    # pipelines with cache reuse, and cross-check that they agree.
    session = Session(cache=cache)
    report = session.run_suite(
        polybench_suite(["gemm", "atax"]), pipelines=("gcc", "dace", "dcir")
    )
    print("\n" + report.table())
    print("pipeline disagreements:", report.disagreements() or "none")


def chaos_demo() -> None:
    """Fault tolerance: injected faults degrade into typed outcomes.

    The service layer assumes a hostile environment — hung compilers,
    OOM-killed workers, torn cache files — and every such failure
    surfaces as a *typed, recorded* outcome instead of a crash.  Here a
    deterministic fault plan (``REPRO_FAULTS``, seeded RNG) tears every
    on-disk cache write; the clean re-read quarantines the corrupt
    entries and transparently recompiles.  ``tests/test_resilience.py``
    runs PolyBench kernels under every fault class the same way and
    asserts zero crashes.
    """
    import os
    import tempfile

    from repro import failure_kind
    from repro.faults import reset_plan
    from repro.perf import PERF
    from repro.service import RetryPolicy

    # Bounded retries with a deterministic backoff schedule; the sleep
    # function is injectable, so the schedule is testable without waiting.
    policy = RetryPolicy.from_env()
    delays = [policy.delay(attempt) for attempt in range(1, policy.max_attempts)]
    print(f"\nretry policy: {policy.max_attempts} attempts, backoff {delays}s")

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_FAULTS"] = "cache_corrupt:1"  # tear every disk write
        reset_plan()
        try:
            CompileCache(directory=tmp).get_or_compile(SOURCE, "dcir")
        finally:
            del os.environ["REPRO_FAULTS"]
            reset_plan()

        before = PERF.snapshot()
        healed = CompileCache(directory=tmp).get_or_compile(SOURCE, "dcir")
        evicted = PERF.delta_since(before).get("compile_cache.corrupt_evicted", 0)
        print(f"torn cache entry: quarantined {evicted} file(s), "
              f"recompiled cleanly (cache_hit={healed.cache_hit})")

    # Failures carry their taxonomy kind, so reports aggregate classes of
    # failure ("timeout", "worker-lost", ...) instead of matching strings.
    outcome = compile_many([("int broken( {", "gcc")])[0]
    print(f"failure taxonomy: {outcome.error_type} -> "
          f"kind={outcome.failure_kind!r} (transient: "
          f"{failure_kind(outcome.error_type) not in ('permanent', 'unexpected')}, "
          f"attempts={outcome.attempts})")


def perf_demo() -> None:
    """The compile-time profiler: counters on every compilation report.

    The compiler's hot paths (symbolic interning, canonicalizer memos,
    the expression-parse cache, pass execution, the compile cache) feed
    the process-global :data:`repro.perf.PERF` profiler; each compile
    attaches the delta it caused to its report.  Compile *time* is
    measured by ``python3 benchmarks/e2e/run.py --workload cold_compile``.
    """
    result = compile_c(SOURCE, "dcir")
    counters = result.report.counters
    print("\ncompile-time profile of one dcir compile:")
    for name in ("frontend.runs", "passes.runs", "passes.applied",
                 "symbolic.intern.hits", "symbolic.make.hits", "symbolic.parse.hits"):
        if name in counters:
            print(f"  {name:<24} {counters[name]:10g}")
    for prefix in ("symbolic.intern", "symbolic.make", "symbolic.parse"):
        rate = PERF.hit_rate(prefix)
        if rate is not None:
            print(f"  hit rate {prefix:<15} {rate * 100:5.1f}% (process-wide)")


def tuning_demo() -> None:
    """Auto-tune one kernel and register the winning spec.

    The tuner searches the neighbourhood of a base pipeline — single-pass
    ablations, in-stage reorderings, codegen variants — seeded with every
    registered pipeline, so the winner is at least as good as the best
    pre-registered composition under the chosen evaluator.  Seeded random
    search (``budget``/``seed``) elects the same winner in every process,
    and because candidates go through the compile cache, re-running the
    search is free (``report.counters`` stays empty).
    """
    from repro import register_winner, tune_kernel

    report = tune_kernel("gemm", sizes={"NI": 12, "NJ": 11, "NK": 10},
                         budget=10, seed=0)
    print("\nauto-tuning gemm (10 candidates, seed 0):")
    print(report.table(limit=5))

    winner = register_winner(report, "gemm-tuned", overwrite=True)
    print(f"registered {winner.name!r} (content {winner.content_id()[:16]}…); "
          "it now compiles by name like any built-in pipeline")
    unregister_pipeline("gemm-tuned")


if __name__ == "__main__":
    main()
