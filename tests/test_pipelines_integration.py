"""End-to-end pipeline tests: correctness across pipelines and the paper's
qualitative claims (Fig. 2, Fig. 7, Fig. 9) at test-sized workloads."""

import gc

import numpy as np
import pytest

import repro
from repro import (
    PIPELINES,
    compile_c,
    compile_and_run,
    generate_program,
    get_pipeline,
    run_compiled,
)
from repro.codegen import have_compiler
from repro.conversion import ConversionError
from repro.pipeline import CONTROL_SUITE, DATA_SUITE
from repro.workloads import (
    bandwidth_source,
    fig2_source,
    get_kernel,
    get_suite,
    kernel_names,
    milc_source,
    mish_source,
    reference_checksum,
    run_eager,
    run_jit,
    syrk_source,
)

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: Small problem sizes so the whole matrix of (kernel × pipeline) stays fast.
_SMALL_SIZES = {
    "2mm": {"NI": 6, "NJ": 7, "NK": 8, "NL": 9},
    "3mm": {"NI": 5, "NJ": 6, "NK": 7, "NL": 8, "NM": 9},
    "atax": {"M": 10, "N": 12},
    "bicg": {"M": 10, "N": 12},
    "cholesky": {"N": 8},
    "covariance": {"N": 10, "M": 8},
    "doitgen": {"R": 4, "Q": 3, "P": 6},
    "durbin": {"N": 16},
    "floyd-warshall": {"N": 10},
    "gemm": {"NI": 8, "NJ": 9, "NK": 10},
    "gemver": {"N": 10},
    "gesummv": {"N": 10},
    "heat-3d": {"N": 6, "T": 2},
    "jacobi-1d": {"N": 20, "T": 3},
    "jacobi-2d": {"N": 10, "T": 2},
    "lu": {"N": 8},
    "mvt": {"N": 12},
    "seidel-2d": {"N": 10, "T": 2},
    "symm": {"M": 8, "N": 9},
    "syr2k": {"N": 8, "M": 9},
    "syrk": {"N": 8, "M": 9},
    "trisolv": {"N": 12},
    "trmm": {"M": 8, "N": 9},
}


#: ``dcir`` minus one of the data-centric eliminations that make Fig. 2 fast:
#: slower, never wrong.
_FIG2_ABLATIONS = [
    get_pipeline("dcir").without_pass(name, name=f"dcir-no-{name}")
    for name in (
        "dead-dataflow-elimination", "redundant-iteration-elimination", "array-elimination"
    )
]


#: Source-level exercisers of the two suite passes no shipped workload
#: reaches, each with the value a C compiler returns for ``kernel()``.
#: ``inline`` needs a call; ``dead-state-elimination`` needs a branch whose
#: condition is constant, and fires under ``dace`` only — under the other
#: bridge pipelines ``canonicalize`` folds the branch before the bridge.
_EXERCISERS = {
    "two-function": ("""
double sq(double x) { return x * x; }
double kernel() {
  double A[16];
  for (int i = 0; i < 16; i++) A[i] = i * 0.5 + 1.0;
  double s = 0.0;
  for (int i = 0; i < 16; i++) s += sq(A[i]);
  return s;
}
""", 446.0),
    "dead-branches": ("""
double kernel() {
  double A[8];
  int flag = 0;
  for (int i = 0; i < 8; i++) A[i] = i + 1.0;
  if (3 > 5) { for (int i = 0; i < 8; i++) A[i] = -1.0; }
  if (flag) { A[0] = 100.0; }
  while (0) { A[1] = 200.0; }
  for (int i = 5; i < 3; i++) A[i] = 300.0;
  double s = 0.0;
  for (int i = 0; i < 8; i++) s += A[i] * (i + 1);
  return s;
}
""", 204.0),
}


#: ROADMAP's first open item, pinned: C's ``%`` and ``/`` round toward
#: zero, the bridge rounds down.  A weighted sum over ``i < 8`` of one
#: operation on the negative operand ``i - 5``, with the value C gives.
_TRUNCATING = {
    "% 3": 6.0,   # the bridge pipelines return 42
    "/ 2": -5.0,  # the bridge pipelines return -14
}

_TRUNCATING_SOURCE = """
double kernel() {
  double s = 0.0;
  for (int i = 0; i < 8; i++) s += ((i - 5) %s) * (i + 1);
  return s;
}
"""

_rounds_down = pytest.mark.xfail(
    strict=True, reason="the bridge maps arith.divsi / arith.remsi to floor semantics"
)


def _reference(source: str) -> float:
    return compile_and_run(source, "gcc").return_value


def _applications(program) -> dict:
    """Pass name → rewrites over one compile (sites for pattern passes,
    else one per invocation that reported a change)."""
    totals = {}
    for stage in program.report.stages:
        for record in stage.records:
            count = record.applied if record.applied is not None else int(record.changed)
            totals[record.name] = totals.get(record.name, 0) + count
    return totals


class TestPipelineCorrectness:
    @pytest.mark.parametrize("kernel", sorted(_SMALL_SIZES))
    @pytest.mark.parametrize("pipeline", ["clang", "mlir", "dace", "dcir"])
    def test_polybench_kernels_match_reference(self, kernel, pipeline):
        source = get_kernel(kernel, _SMALL_SIZES[kernel])
        reference = _reference(source)
        result = compile_and_run(source, pipeline).return_value
        assert result == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize(
        "pipeline", list(PIPELINES) + _FIG2_ABLATIONS,
        ids=lambda pipeline: getattr(pipeline, "name", pipeline),
    )
    def test_fig2_example_all_pipelines(self, pipeline):
        source = fig2_source({"N": 80, "M": 10})
        assert compile_and_run(source, pipeline).return_value == 5

    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dace", "dcir"])
    def test_milc_all_pipelines(self, pipeline):
        source = milc_source({"NORDER": 120, "ITERS": 2})
        reference = _reference(source)
        assert compile_and_run(source, pipeline).return_value == pytest.approx(reference)

    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dace", "dcir"])
    def test_bandwidth_all_pipelines(self, pipeline):
        source = bandwidth_source({"N": 64, "NTIMES": 2})
        reference = _reference(source)
        assert compile_and_run(source, pipeline).return_value == pytest.approx(reference)

    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dace", "dcir", "dcir+vec"])
    def test_mish_matches_closed_form(self, pipeline):
        source = mish_source({"N": 64, "REPS": 1})
        expected = reference_checksum(64)
        assert compile_and_run(source, pipeline).return_value == pytest.approx(expected)

    @pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_cc)])
    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    @pytest.mark.parametrize("program", sorted(_EXERCISERS))
    def test_pass_exercisers_all_pipelines(self, program, pipeline, backend):
        source, expected = _EXERCISERS[program]
        spec = get_pipeline(pipeline).with_codegen(backend=backend)
        if (program, pipeline) == ("two-function", "dace"):
            # No control-centric stage, so nothing inlines the call.
            with pytest.raises(ConversionError, match="must be inlined"):
                generate_program(source, spec, function="kernel")
            return
        generated = generate_program(source, spec, function="kernel")
        result = generated.to_result()
        assert run_compiled(result).return_value == expected
        if spec.bridge and backend == "native":
            assert result.backend == "native", result.backend_diagnostic
        applied = _applications(generated)
        if program == "two-function":
            assert applied["inline"] >= 1
        elif pipeline == "dace":
            assert applied["dead-state-elimination"] >= 1

    @pytest.mark.parametrize("pipeline,backend", [
        ("gcc", "python"),
        ("mlir", "python"),
        pytest.param("dace", "python", marks=_rounds_down),
        pytest.param("dcir", "python", marks=_rounds_down),
        pytest.param("dcir", "native", marks=[requires_cc, _rounds_down]),
    ])
    @pytest.mark.parametrize("operation", sorted(_TRUNCATING))
    def test_c_division_and_remainder_truncate(self, operation, pipeline, backend):
        """Strict: the PR that fixes the bridge flips these, none is skipped."""
        spec = get_pipeline(pipeline).with_codegen(backend=backend)
        result = compile_c(_TRUNCATING_SOURCE % operation, spec)
        assert result.backend == backend
        assert result.run()["__return"] == _TRUNCATING[operation]

    def test_every_suite_pass_fires_on_some_source_program(self):
        """A pass in the default suites that no C or traced-Python program
        can make fire is dead weight in every compile and every tuning run."""
        programs = [
            (source, None)
            for suite in ("polybench", "casestudies", "mish", "python")
            for source in get_suite(suite).values()
        ] + [(source, "kernel") for source, _ in _EXERCISERS.values()]
        uninlined = (_EXERCISERS["two-function"][0], "dace")  # a ConversionError, pinned above
        fired = set()
        for source, function in programs:
            for pipeline in ("dace", "dcir"):
                if (source, pipeline) != uninlined:
                    program = generate_program(source, pipeline, function=function)
                    fired.update(name for name, n in _applications(program).items() if n)
        idle = [name for name in CONTROL_SUITE + DATA_SUITE if name not in fired]
        assert not idle, f"suite passes that fired on no program: {idle}"

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(repro.PipelineError):
            compile_c("int f() { return 0; }", "icc")


class TestPaperClaims:
    def test_fig2_dcir_eliminates_dead_array(self):
        """Fig. 2: only the combined pipeline removes the dead allocation."""
        source = fig2_source({"N": 150, "M": 20})
        dcir = compile_c(source, "dcir")
        dace = compile_c(source, "dace")
        assert dcir.eliminated_containers, "DCIR should eliminate the dead array A"
        # Without the control-centric half, the false dependency through A
        # remains and DaCe alone cannot remove the array (paper §1).
        dcir_arrays = [n for n in dcir.eliminated_containers if n.startswith("_arr")]
        dace_arrays = [n for n in dace.eliminated_containers if n.startswith("_arr")]
        assert len(dcir_arrays) > len(dace_arrays)

    def test_fig2_dcir_runtime_advantage(self):
        source = fig2_source({"N": 300, "M": 30})
        dcir = run_compiled(compile_c(source, "dcir"))
        mlir = run_compiled(compile_c(source, "mlir"))
        assert dcir.return_value == mlir.return_value == 5
        assert dcir.seconds * 5 < mlir.seconds, (
            "DCIR should be at least 5x faster than the MLIR pipeline on Fig. 2"
        )

    def test_fig7_syrk_licm(self):
        """Fig. 7: DCIR hoists alpha*A[i][k] out of the innermost loop; the
        DaCe C frontend view (no control-centric passes) does not."""
        source = syrk_source({"N": 6, "M": 5})
        from repro.frontend import compile_c_to_mlir
        from repro.pipeline import control_runner
        from repro.ir import print_module

        module = compile_c_to_mlir(source)
        control_runner(get_pipeline("dcir")).run(module)
        text = print_module(module)
        # After LICM the innermost (j) loop no longer contains the multiply
        # of the two loop-invariant operands.
        innermost = text.split("scf.for %j")[-1].split("}")[0]
        assert innermost.count("arith.mulf") <= 1
        # And both pipelines still agree numerically.
        reference = _reference(source)
        assert compile_and_run(source, "dcir").return_value == pytest.approx(reference)
        assert compile_and_run(source, "dace").return_value == pytest.approx(reference)

    def test_fig9_milc_array_elimination(self):
        """Fig. 9: the data-centric pipeline eliminates the arrays whose
        values are never observed (zeta_ip1, beta_i in the paper)."""
        source = milc_source({"NORDER": 200, "ITERS": 2})
        dcir = compile_c(source, "dcir")
        eliminated_arrays = [n for n in dcir.eliminated_containers if n.startswith("_arr")]
        assert len(eliminated_arrays) >= 2

    def test_elimination_counts_reported(self):
        """§7.3: the three case studies together eliminate tens of containers."""
        total = 0
        for source in (
            fig2_source({"N": 60, "M": 10}),
            milc_source({"NORDER": 100, "ITERS": 1}),
            bandwidth_source({"N": 50, "NTIMES": 2}),
        ):
            total += len(compile_c(source, "dcir").eliminated_containers)
        assert total >= 20

    def test_mish_vectorized_matches_eager_and_is_competitive(self):
        """Fig. 8: the vectorized (ICC/SLEEF-style) backend computes the same
        activation and is competitive with the eager framework model (the
        absolute ordering of the paper depends on native vector math that a
        Python substrate cannot reproduce; see EXPERIMENTS.md)."""
        n, reps = 3000, 2
        source = mish_source({"N": n, "REPS": reps})
        # Best of five after one warm-up, GC off, on both sides: two single
        # wall-clock samples flaked whenever the runner stalled inside one.
        vec = run_compiled(
            compile_c(source, "dcir+vec"), repetitions=5, warmup=1, disable_gc=True
        )
        restore_gc = gc.isenabled()
        gc.disable()
        try:
            run_eager(n, reps)  # warm-up
            eager = min((run_eager(n, reps) for _ in range(5)), key=lambda r: r.seconds)
        finally:
            if restore_gc:
                gc.enable()
        assert vec.outputs["__return"] == pytest.approx(eager.checksum, rel=1e-9)
        assert vec.seconds < eager.seconds * 3

    def test_movement_report_availability(self):
        source = bandwidth_source({"N": 64, "NTIMES": 2})
        result = compile_c(source, "dcir")
        report = result.movement_report()
        assert report is not None and report.bytes_moved > 0
        assert compile_c(source, "gcc").movement_report() is None

    def test_compile_time_reported(self):
        result = compile_c(get_kernel("gemm", _SMALL_SIZES["gemm"]), "dcir")
        assert result.compile_seconds > 0
        assert result.optimization_report is not None
