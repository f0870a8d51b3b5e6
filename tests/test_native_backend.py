"""Native (compiled C) backend: differential validation against the
interpreted backend, the dtype table invariant, toolchain degradation,
and the runtime-measurement fixes the backend's timings depend on.

The heart of the file is the differential matrix: every PolyBench kernel
through every registered pipeline with ``backend="native"`` requested,
asserting the natively measured program computes *exactly* what the
interpreted reference computes (integers and allocation counts equal,
floats within tolerance) — the paper's wall-clock numbers are only
meaningful if the compiled binary and the model-validated interpreter
agree on the answer.
"""

import ctypes
import traceback

import numpy as np
import pytest

from repro import compile_c, get_pipeline, list_pipelines, run_compiled
from repro.codegen import (
    CompiledNative,
    NativeCodegenError,
    ToolchainError,
    generate_c_code,
    have_compiler,
    load_entry,
)
from repro.codegen.toolchain import CC_ENV, find_compiler, parse_abi
from repro.pipeline.pipelines import load_runner, result_from_payload
from repro.sdfg.data import DTYPES
from repro.workloads import get_kernel, kernel_names

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: The three data-centric registered pipelines — the ones with an SDFG to lower.
BRIDGE_PIPELINES = ("dace", "dcir", "dcir+vec")


def _outputs_match(reference, candidate):
    """Exact for ints/allocations, tight tolerance for float rounding."""
    assert sorted(reference) == sorted(candidate)
    for key in reference:
        expected, actual = reference[key], candidate[key]
        if isinstance(expected, np.ndarray):
            np.testing.assert_allclose(
                np.asarray(actual, dtype=float), np.asarray(expected, dtype=float),
                rtol=1e-12, atol=0, err_msg=key,
            )
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=1e-12), key
        else:
            assert int(actual) == int(expected), key


# -- the central dtype table ---------------------------------------------------------------


class TestDTypeTable:
    @pytest.mark.parametrize("name", sorted(DTYPES))
    def test_numpy_ctypes_and_declared_sizes_agree(self, name):
        info = DTYPES[name]
        assert np.dtype(info.numpy_name).itemsize == info.bytes
        assert ctypes.sizeof(getattr(ctypes, info.ctypes_name)) == info.bytes

    def test_c_type_names_are_emittable(self):
        for info in DTYPES.values():
            assert info.c_type.replace("_", "").replace(" ", "").isalnum()


# -- differential matrix: every kernel x every pipeline, both backends --------------------


@requires_cc
@pytest.mark.parametrize("kernel", kernel_names())
def test_native_outputs_equal_interpreted_for_all_pipelines(kernel):
    source = get_kernel(kernel)
    for pipeline in BRIDGE_PIPELINES:
        spec = get_pipeline(pipeline).with_codegen(backend="native")
        result = compile_c(source, spec)
        assert result.backend == "native", pipeline
        assert result.native_code is not None, pipeline
        native = run_compiled(result, repetitions=1)
        assert result.backend == "native", (pipeline, result.backend_diagnostic)
        interpreted = load_runner(result.code)()
        _outputs_match(interpreted, native.outputs)


@pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_cc)])
@pytest.mark.parametrize("kernel", kernel_names())
def test_vectorized_pipeline_agrees_with_scalar(kernel, backend):
    """``dcir+vec`` sweeps every eligible map, and PolyBench's init loops are
    maps now: their casts and ``%`` chains must stay scalar, not raise."""
    source = get_kernel(kernel)
    scalar, vectorized = (
        run_compiled(compile_c(source, get_pipeline(name).with_codegen(backend=backend)))
        for name in ("dcir", "dcir+vec")
    )
    assert vectorized.return_value == pytest.approx(scalar.return_value, rel=1e-9)
    assert vectorized.allocations == scalar.allocations


#: Each iteration also stores into its successor's element: in order the
#: later iteration wins, as a vector ``A[1:9] = Y`` lands after all of
#: ``A[0:8] = X``, in parallel whichever thread comes last.
OVERLAPPING_STORES = """
double kernel() {
  double A[9]; double X[8]; double Y[8];
  for (int i = 0; i < 8; i++) { X[i] = i * 3.0 + 1.0; Y[i] = i * 7.0 + 2.0; }
  for (int i = 0; i < 9; i++) A[i] = 0.0;
  for (int i = 0; i < 8; i++) { A[i] = X[i]; A[i + 1] = Y[i]; }
  double s = 0.0;
  for (int i = 0; i < 9; i++) s += A[i] * (i + 1);
  return s;
}
"""


@pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_cc)])
def test_overlapping_stores_stay_a_sequential_loop(backend, monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    dcir = get_pipeline("dcir")
    passes = [(p.name, dict(p.params)) for p in dcir.data_passes]
    parallel = dcir.with_passes("data", passes + [("parallelize", {"n_threads": 2})])
    expected = run_compiled(compile_c(OVERLAPPING_STORES, "gcc")).return_value
    assert expected == 999.0
    for spec in (dcir, get_pipeline("dcir+vec"), parallel):
        result = compile_c(OVERLAPPING_STORES, spec.with_codegen(backend=backend))
        for _ in range(3):
            assert run_compiled(result).return_value == expected, spec.label


@pytest.mark.parametrize("pipeline", sorted(set(list_pipelines()) - set(BRIDGE_PIPELINES)))
def test_non_bridge_pipelines_fall_back_with_a_reason(pipeline):
    spec = get_pipeline(pipeline).with_codegen(backend="native")
    result = compile_c(get_kernel("atax"), spec)
    assert result.backend == "python"
    assert "bridge" in (result.backend_diagnostic or "")
    # The fallback still executes: same program, interpreted.
    assert run_compiled(result, repetitions=1).return_value is not None


# -- graceful degradation without a compiler -----------------------------------------------


class TestNoCompilerFallback:
    def test_missing_compiler_degrades_to_python_with_warning(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/compiler")
        assert find_compiler() is None and not have_compiler()
        spec = get_pipeline("dcir").with_codegen(backend="native")
        result = compile_c(get_kernel("atax"), spec)
        assert result.backend == "native"  # requested and emitted...
        with pytest.warns(RuntimeWarning, match="Native backend unavailable"):
            run = run_compiled(result, repetitions=1)
        # ...but the first call discovered the missing toolchain and fell back.
        assert result.backend == "python"
        assert "No C compiler available" in result.backend_diagnostic
        reference = load_runner(result.code)()
        _outputs_match(reference, run.outputs)

    def test_compile_shared_raises_a_clear_diagnostic(self, monkeypatch):
        monkeypatch.setenv(CC_ENV, "/nonexistent/compiler")
        with pytest.raises(ToolchainError, match="No C compiler available"):
            CompiledNative.from_code(
                f'/* REPRO-NATIVE-ABI: {{"entry": "repro_run", "args": [], '
                f'"symbols": [], "constants": {{}}}} */\n'
            )


# -- artifact contract ---------------------------------------------------------------------


@requires_cc
class TestCompiledNativeArtifact:
    def test_rehydrates_from_code_string_alone(self):
        spec = get_pipeline("dcir").with_codegen(backend="native")
        result = compile_c(get_kernel("gemm"), spec)
        native = CompiledNative.from_code(result.native_code)
        rebuilt = CompiledNative.from_code(native.code)  # code is the artifact
        _outputs_match(native.run(), rebuilt.run())

    def test_payload_roundtrip_preserves_native_backend(self):
        from repro import generate_program

        spec = get_pipeline("dcir").with_codegen(backend="native")
        program = generate_program(get_kernel("atax"), spec)
        assert program.native_code is not None
        rehydrated = result_from_payload(program.to_payload())
        assert rehydrated.backend == "native"
        run = run_compiled(rehydrated, repetitions=1)
        _outputs_match(load_runner(program.code)(), run.outputs)

    def test_abi_header_parses(self):
        spec = get_pipeline("dcir").with_codegen(backend="native")
        result = compile_c(get_kernel("atax"), spec)
        abi = parse_abi(result.native_code)
        assert abi["entry"] == "repro_run"
        assert isinstance(abi["args"], list) and isinstance(abi["symbols"], list)

    def test_repeat_compilation_reuses_the_shared_object(self):
        from repro.perf import PERF

        spec = get_pipeline("dcir").with_codegen(backend="native")
        result = compile_c(get_kernel("gemm"), spec)
        CompiledNative.from_code(result.native_code)  # populate the .so cache
        before = PERF.snapshot()
        CompiledNative.from_code(result.native_code)
        delta = PERF.delta_since(before)
        assert delta.get("toolchain.so_cache_hits", 0) == 1
        assert delta.get("toolchain.cc_runs", 0) == 0


# -- vectorization annotations survive into C ----------------------------------------------


@requires_cc
def test_vectorized_maps_emit_simd_pragmas():
    from repro.pipeline import generate_sdfg

    # atax's inner maps are WCR-free point-wise updates, so the
    # Vectorization annotation survives into a SIMD-friendly C loop
    # (gemm's innermost loop is a reduction and correctly does not).
    sdfg = generate_sdfg(get_kernel("atax"), "dcir+vec")
    code = generate_c_code(sdfg, vectorize=True)
    assert "#pragma GCC ivdep" in code


def test_wcr_memlets_become_accumulations():
    from repro.pipeline import generate_sdfg

    sdfg = generate_sdfg(get_kernel("gemm"), "dcir")
    code = generate_c_code(sdfg)
    assert "+=" in code  # the reduction accumulates in place


# -- the runtime-measurement path the backend's numbers depend on --------------------------


class TestMeasurementPath:
    def test_warmup_reps_are_recorded_but_never_ranked(self):
        result = compile_c(get_kernel("atax"), "dcir")
        run = run_compiled(result, repetitions=3, warmup=2)
        assert len(run.rep_seconds) == 3
        assert len(run.warmup_seconds) == 2
        assert run.seconds == min(run.rep_seconds)

    def test_gc_is_restored_after_timed_section(self):
        import gc

        result = compile_c(get_kernel("atax"), "dcir")
        assert gc.isenabled()
        run_compiled(result, repetitions=1, disable_gc=True)
        assert gc.isenabled()

    def test_generated_code_tracebacks_show_source_lines(self):
        runner = load_entry(
            "def run(**_args):\n    raise ValueError('from generated code')\n",
            filename="<traceback-probe>",
        )
        try:
            runner()
        except ValueError:
            text = traceback.format_exc()
        assert "raise ValueError('from generated code')" in text
        assert "traceback-probe" in text

    def test_runtime_evaluator_records_rep_seconds(self):
        from repro.service import CompileCache, Session
        from repro.tuning import SearchSpace
        from repro.tuning.evaluate import RuntimeEvaluator

        space = SearchSpace("dcir", include_registered=False, ablations=False,
                            reorderings=False, iteration_variants=False,
                            codegen_variants=False, additions=False,
                            limit_variants=False, parameter_variants=False)
        session = Session(cache=CompileCache(max_entries=64, use_env_directory=False))
        evaluator = RuntimeEvaluator(repetitions=2, warmup=1)
        evaluated = evaluator.evaluate(
            get_kernel("atax"), space.candidates(), session,
            base=get_pipeline("dcir"),
        )
        entry = evaluated[0]
        assert entry.ok
        assert len(entry.rep_seconds) == 2
        assert entry.run_seconds == min(entry.rep_seconds)
        assert entry.to_dict()["rep_seconds"] == entry.rep_seconds
