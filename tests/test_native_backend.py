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
import os
import resource
import sys
import threading
import traceback

import numpy as np
import pytest

from repro import compile_c, generate_program, get_pipeline, list_pipelines, run_compiled
from repro.codegen import (
    CompiledNative,
    NativeCodegenError,
    ToolchainError,
    generate_c_code,
    have_compiler,
    load_entry,
)
from repro.codegen.toolchain import _WORKSPACE, CC_ENV, find_compiler, parse_abi
from repro.pipeline.pipelines import load_runner, result_from_payload
from repro.sdfg import SDFG, InterstateEdge, Memlet
from repro.sdfg.data import DTYPES
from repro.symbolic import Range
from repro.workloads import get_kernel, kernel_names, polybench_suite
from repro.workloads.python_suite import python_suite

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
                f'"symbols": [], "constants": {{}}, "workspace": 0}} */\n'
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


# -- the transient workspace ---------------------------------------------------------------

#: Every shipped program: 23 PolyBench kernels and the 9 traced ones.
PROGRAMS = {**polybench_suite(), **python_suite()}


def _native_spec(label):
    if label == "dcir+par":
        base = _native_spec("dcir")
        return base.with_passes(
            "data", list(base.data_passes) + [("parallelize", {"n_threads": 2})]
        )
    return get_pipeline(label).with_codegen(backend="native")


def _poison_workspace(size):
    """Fill the calling thread's block with 0xFF: a read-before-write becomes a NaN."""
    ctypes.memset(_WORKSPACE.reserve(size), 0xFF, size)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_c_calls_no_allocator(name):
    for label in BRIDGE_PIPELINES + ("dcir+par",):
        code = generate_program(PROGRAMS[name], _native_spec(label)).native_code
        assert "malloc(" not in code and "free(" not in code, label
        assert "#include <stdlib.h>" not in code or "getenv(" in code, label
        # No shipped program has a free size symbol: the size is folded.
        assert type(parse_abi(code)["workspace"]) is int, label


@requires_cc
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_poisoned_workspace_agrees_with_interpreted(name):
    """Nothing zeroes the block, and fresh zero pages no longer hide a read
    before a write: every transient is written before it is read.  The
    comparison includes ``__allocations`` — containers materialised, not
    allocator calls — against interpreted text the digests pin unchanged."""
    for label in ("dace", "dcir"):
        program = generate_program(PROGRAMS[name], _native_spec(label))
        native = CompiledNative.from_code(program.native_code)
        _poison_workspace(native.abi["workspace"])
        _outputs_match(load_runner(program.code)(), native.run())


def _symbolic_transient_sdfg():
    """``B = 2 A + 1`` through a transient ``T[N]``: the only program here
    whose ``workspace`` is an expression, not a number."""
    sdfg = SDFG("symbolic_transient")
    sdfg.add_symbol("N")
    sdfg.add_array("A", ["N"], "float64", transient=False)
    sdfg.add_array("B", ["N"], "float64", transient=False)
    sdfg.add_transient("T", ["N"], "float64")
    first = sdfg.add_state("double", is_start_state=True)
    first.add_mapped_tasklet(
        "double", {"i": Range(0, "N")}, {"_a": Memlet.simple("A", "i")},
        "_t = _a * 2.0", {"_t": Memlet.simple("T", "i")},
    )
    second = sdfg.add_state_after(first, "increment")
    second.add_mapped_tasklet(
        "increment", {"i": Range(0, "N")}, {"_t": Memlet.simple("T", "i")},
        "_b = _t + 1.0", {"_b": Memlet.simple("B", "i")},
    )
    return sdfg


def _in_thread(target):
    """Run ``target`` on a thread of its own (so with a workspace of its own)."""
    box = {}

    def body():
        try:
            box["value"] = target()
        except BaseException as exc:  # handed to the caller, re-raised there
            box["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


def _two_millisecond_kernels():
    """2mm and gemm at sizes where a call is long enough for two to overlap."""
    sizes = {
        "2mm": {"NI": 80, "NJ": 90, "NK": 100, "NL": 110},
        "gemm": {"NI": 90, "NJ": 100, "NK": 110},
    }
    return [
        CompiledNative.from_code(
            generate_program(get_kernel(kernel, size), _native_spec("dcir")).native_code
        )
        for kernel, size in sizes.items()
    ]


@requires_cc
class TestWorkspace:
    def test_warm_call_of_a_large_transient_takes_no_page_faults(self):
        elements = (16 << 20) // 8 + 1024
        source = (
            "double kernel() {\n"
            f"  double A[{elements}];\n"
            f"  for (int i = 0; i < {elements}; i++) A[i] = i * 0.5;\n"
            "  double s = 0.0;\n"
            f"  for (int i = 0; i < {elements}; i++) s += A[i];\n"
            "  return s;\n}\n"
        )
        program = generate_program(source, _native_spec("dcir"))
        native = CompiledNative.from_code(program.native_code)
        assert native.abi["workspace"] >= 16 << 20
        expected = 0.5 * elements * (elements - 1) / 2
        for call in range(3):
            before = _minor_faults()
            assert native.run()["__return"] == expected
            faults = _minor_faults() - before
        assert faults < 32, f"third call took {faults} minor faults"
        # A fork write-protects every page it copies — the interpreter's own
        # come back as a few dozen faults — and the block is not copied.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        before = _minor_faults()
        assert native.run()["__return"] == expected
        faults = _minor_faults() - before
        pages = native.abi["workspace"] // resource.getpagesize()
        assert faults < pages // 8, f"the call after a fork took {faults} minor faults"

    def test_symbolic_workspace_grows_once(self):
        code = generate_c_code(_symbolic_transient_sdfg())
        assert parse_abi(code)["workspace"] == "8 * N + 128"
        native = CompiledNative.from_code(code)

        def three_calls():
            blocks = []
            for size in (1000, 4000, 1000):
                A = np.arange(size, dtype=float)
                B = np.zeros(size)
                native.run(A=A, B=B, N=size)
                np.testing.assert_array_equal(B, 2.0 * A + 1.0)
                blocks.append((_WORKSPACE.size, _WORKSPACE.address))
            return blocks

        small, grown, kept = _in_thread(three_calls)
        assert small[0] == 8 * 1000 + 128 and grown[0] == 8 * 4000 + 128
        assert kept == grown  # the same block, not a third one

    def test_size_symbol_assigned_inside_the_program_is_refused(self):
        sdfg = _symbolic_transient_sdfg()
        last = sdfg.add_state("last")
        sdfg.add_edge(sdfg.states()[-2], last, InterstateEdge(assignments={"N": "4"}))
        with pytest.raises(NativeCodegenError, match=r"depend on \['N'\]"):
            generate_c_code(sdfg)

    def test_bad_workspace_sizes_raise_before_the_library_is_entered(self):
        code = generate_c_code(_symbolic_transient_sdfg())
        native = CompiledNative.from_code(code)
        one = np.zeros(1)
        with pytest.raises(ToolchainError, match="-672 bytes"):
            native.run(A=one, B=one.copy(), N=-100)
        fractional = code.replace('"8 * N + 128"', '"N / 3"')
        with pytest.raises(ToolchainError, match="bytes"):
            CompiledNative.from_code(fractional).run(A=one, B=one.copy(), N=4)
        unmappable = code.replace('"8 * N + 128"', str(1 << 62))
        with pytest.raises(ToolchainError, match=f"{1 << 62}-byte workspace"):
            _in_thread(lambda: CompiledNative.from_code(unmappable).run(A=one, B=one.copy(), N=1))

    def test_code_without_a_workspace_key_is_refused(self):
        """C text from before 1.10.0 takes one argument less: never called."""
        code = generate_c_code(_symbolic_transient_sdfg())
        stale = code.replace(', "workspace": "8 * N + 128"', "")
        assert "workspace" not in parse_abi(stale)
        with pytest.raises(ToolchainError, match="no 'workspace' key"):
            CompiledNative.from_code(stale)

    def test_threads_interleaving_two_programs_agree_with_sequential(self):
        natives = _two_millisecond_kernels()
        expected = [native.run() for native in natives]

        def fifty_calls():
            return [natives[call % 2].run() for call in range(50)]

        results, errors = [], []

        def worker():
            try:
                results.append(fifty_calls())
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(results) == 4
        for outputs in results:
            assert outputs == [expected[call % 2] for call in range(50)]

    def test_forked_child_does_not_share_its_parents_block(self):
        """Parent and child run different kernels at once, both carving from
        offset 0 of "the" block: with a shared mapping each would overwrite
        the other's transients."""
        parent, child = _two_millisecond_kernels()
        assert parent.abi["workspace"] > child.abi["workspace"]  # the child maps nothing new
        expected = parent.run()["__return"]  # the block exists before the fork
        wanted = _in_thread(lambda: child.run()["__return"])
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(reader)
                agree = all(child.run()["__return"] == wanted for _ in range(200))
                os.write(writer, b"1" if agree else b"0")
                status = 0
            finally:
                os._exit(status)
        os.close(writer)
        try:
            ours = [parent.run()["__return"] for _ in range(200)]
            theirs = os.read(reader, 1)
        finally:
            os.close(reader)
            _, status = os.waitpid(pid, 0)
        assert status == 0 and theirs == b"1"
        assert ours == [expected] * 200


# -- the vectorize flag asks for SIMD in C -------------------------------------------------


@requires_cc
def test_vectorized_maps_emit_simd_pragmas():
    from repro.pipeline import generate_sdfg

    # atax's inner maps are WCR-free point-wise updates, so the
    # ``vectorize`` flag annotates them with a SIMD-friendly C loop
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
