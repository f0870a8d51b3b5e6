"""Parallel execution: differential equality and WCR stress, natively.

PR 10's acceptance bar for parallel execution is *semantic*: every
parallel run must compute what the sequential schedule computes —
integers and allocation counts bit-stable, floats within 1e-12 relative
drift (reduction reassociation is the only permitted difference) — and
repeated parallel runs must be stable among themselves.  Only native
code runs maps in parallel (OpenMP: reduction clauses, atomic updates);
the interpreted backend does not read a map's schedule, which these
tests pin as text.  They drive:

* the whole NumPy-frontend suite at ``REPRO_NUM_THREADS=2``;
* hand-built WCR SDFGs (scalar reductions, integer atomics);
* every PolyBench kernel at 1, 2 and 3 threads, whose ``__return`` must
  carry sequential's bits — the checksum loops are WCR updates, and a
  float one the proof refuses rather than sum in thread order.
"""

import numpy as np
import pytest

from repro.codegen import have_compiler
from repro.codegen.sdfg_c import generate_c_code
from repro.codegen.sdfg_python import generate_code
from repro.codegen.toolchain import CompiledNative
from repro.pipeline.pipelines import generate_sdfg
from repro.sdfg import SDFG, Memlet, SCHEDULE_PARALLEL
from repro.symbolic import Range
from repro.transforms import Parallelize
from repro.workloads import get_kernel, kernel_names
from repro.workloads.python_suite import python_suite

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: Parallel float results may differ from sequential only by reduction
#: reassociation — bounded by this relative tolerance (PR acceptance bar).
FLOAT_DRIFT = 1e-12

#: Repeated parallel executions per stress case.
STRESS_RUNS = 5


def _outputs_match(reference, candidate) -> None:
    assert set(reference) == set(candidate)
    for key in reference:
        expected, actual = reference[key], candidate[key]
        if isinstance(expected, np.ndarray):
            if np.issubdtype(expected.dtype, np.integer):
                assert np.array_equal(expected, actual), key
            else:
                np.testing.assert_allclose(actual, expected, rtol=FLOAT_DRIFT, atol=0.0)
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=FLOAT_DRIFT), key
        else:
            assert actual == expected, key


def _reduction_sdfg(wcr: str, dtype: str, size: int = 1000) -> SDFG:
    """A map whose only write is a WCR update of an external scalar."""
    sdfg = SDFG(f"red_{wcr.replace('*', 'x').replace('+', 'p')}_{dtype}")
    sdfg.add_array("A", [size], dtype)
    sdfg.add_scalar("s", dtype, transient=False)
    state = sdfg.add_state("s0", is_start_state=True)
    state.add_mapped_tasklet(
        "acc", {"i": Range(0, size)},
        {"_a": Memlet.simple("A", "i")}, "_out = _a",
        {"_out": Memlet(data="s", wcr=wcr)},
    )
    return sdfg


def _annotate_all(sdfg: SDFG, n_threads=None) -> int:
    transform = Parallelize(n_threads=n_threads)
    matches = transform.match(sdfg)
    for match in matches:
        transform.apply_match(sdfg, match)
    return len(matches)


def _native(sdfg: SDFG) -> CompiledNative:
    return CompiledNative.from_code(generate_c_code(sdfg))


# ---------------------------------------------------------------------------
# The NumPy-frontend suite
# ---------------------------------------------------------------------------

class TestPythonSuite:
    @requires_cc
    @pytest.mark.parametrize("kernel", sorted(python_suite()))
    def test_python_suite_differential(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        sdfg = generate_sdfg(python_suite()[kernel], pipeline="dcir")
        reference = _native(sdfg).run()
        assert _annotate_all(sdfg) > 0
        code = generate_c_code(sdfg)
        assert "#pragma omp parallel for" in code
        _outputs_match(reference, CompiledNative.from_code(code).run())

    def test_interpreted_text_ignores_the_schedule(self):
        sdfg = generate_sdfg(python_suite()["heat1d"], pipeline="dcir")
        sequential = generate_code(sdfg)
        assert _annotate_all(sdfg, n_threads=2) > 0
        assert generate_code(sdfg) == sequential

    @requires_cc
    def test_single_thread_matches_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        sdfg = generate_sdfg(python_suite()["heat1d"], pipeline="dcir")
        reference = _native(sdfg).run()
        _annotate_all(sdfg)
        _outputs_match(reference, _native(sdfg).run())


class TestWCRStress:
    @requires_cc
    @pytest.mark.parametrize("wcr,dtype", [
        ("+", "int64"), ("max", "int64"), ("+", "float64"),
        ("*", "float64"), ("min", "float64"),
    ])
    def test_repeated_runs_are_stable(self, wcr, dtype, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        sdfg = _reduction_sdfg(wcr, dtype)
        if dtype == "int64":
            values = np.arange(1, 1001, dtype=np.int64)
        elif wcr == "*":
            values = np.random.default_rng(3).uniform(0.9, 1.1, 1000)
        else:
            values = np.random.default_rng(3).standard_normal(1000)
        start = 1 if wcr == "*" else 0
        reference = _native(sdfg).run(A=values.copy(), s=start)["s"]
        for _, entry in sdfg.map_entries():
            entry.map.schedule = SCHEDULE_PARALLEL
        code = generate_c_code(sdfg)
        assert f"reduction({wcr}:s)" in code
        compiled = CompiledNative.from_code(code)
        results = [compiled.run(A=values.copy(), s=start)["s"] for _ in range(STRESS_RUNS)]
        if dtype == "int64" or wcr in ("min", "max"):
            # Exact whatever the order: bit-stable, and sequential's bits.
            assert {float(value).hex() for value in results} == {float(reference).hex()}
        else:
            # OpenMP combines the partials in an unspecified order.
            for value in results:
                assert value == pytest.approx(reference, rel=FLOAT_DRIFT)

    @requires_cc
    @pytest.mark.parametrize("wcr", ["+", "*"])
    def test_native_reduction_clause(self, wcr):
        sdfg = _reduction_sdfg(wcr, "float64", size=512)
        for _, entry in sdfg.map_entries():
            entry.map.schedule = SCHEDULE_PARALLEL
            entry.map.n_threads = 2
        code = generate_c_code(sdfg)
        assert f"reduction({wcr}:s)" in code
        values = np.random.default_rng(5).uniform(0.9, 1.1, 512)
        native = CompiledNative.from_code(code)
        sequential = 1.0 if wcr == "*" else 0.0
        for value in values:
            sequential = sequential * value if wcr == "*" else sequential + value
        for _ in range(STRESS_RUNS):
            out = native.run(A=values.copy(), s=1.0 if wcr == "*" else 0.0)
            assert out["s"] == pytest.approx(sequential, rel=FLOAT_DRIFT)

    @requires_cc
    def test_native_atomic_update(self):
        sdfg = SDFG("atomic_native")
        sdfg.add_array("A", [256], "int64")
        sdfg.add_array("B", [4], "int64")
        state = sdfg.add_state("s0", is_start_state=True)
        _, entry, _ = state.add_mapped_tasklet(
            "hist", {"i": Range(0, 256)},
            {"_a": Memlet.simple("A", "i")}, "_out = _a",
            {"_out": Memlet.simple("B", "0", wcr="+")},
        )
        entry.map.schedule = SCHEDULE_PARALLEL
        entry.map.n_threads = 2
        code = generate_c_code(sdfg)
        assert "#pragma omp atomic" in code
        values = np.random.default_rng(9).integers(-1000, 1000, 256)
        native = CompiledNative.from_code(code)
        for _ in range(STRESS_RUNS):
            out = native.run(A=values.copy(), B=np.zeros(4, dtype=np.int64))
            assert out["B"][0] == values.sum()  # integer atomics are exact


# ---------------------------------------------------------------------------
# PolyBench sweeps
# ---------------------------------------------------------------------------

@requires_cc
@pytest.mark.parametrize("kernel", ["atax", "bicg"])
def test_polybench_native_parallel_differential(kernel, monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")
    sdfg = generate_sdfg(get_kernel(kernel), pipeline="dcir")
    reference = CompiledNative.from_code(generate_c_code(sdfg)).run()
    assert _annotate_all(sdfg, n_threads=2) > 0
    code = generate_c_code(sdfg)
    assert "#pragma omp parallel for" in code
    parallel = CompiledNative.from_code(code).run()
    _outputs_match(reference, parallel)


@requires_cc
@pytest.mark.parametrize("kernel,vectorize", [
    pytest.param(kernel, vectorize, id=f"{kernel}-vectorize" if vectorize else kernel)
    for vectorize in (False, True) for kernel in kernel_names()
])
def test_polybench_wcr_under_parallelism(kernel, vectorize, monkeypatch):
    """Every PolyBench kernel returns sequential's bits at 1, 2 and 3 threads.

    Each kernel's checksum loop is a WCR update; a floating-point one that
    would need atomics is refused by the proof, so no parallel run may
    change a bit.  A kernel left with no provable map emits sequential's C
    even when every outermost map asks for a parallel schedule: the
    annotation is a request, the proof is the authority.  The ``vectorize``
    flag (``dcir+vec``) annotates only maps that stay sequential, so it
    keeps every parallel loop the proof accepted.
    """
    sdfg = generate_sdfg(get_kernel(kernel), pipeline="dcir")
    sequential = generate_c_code(sdfg, vectorize=vectorize)
    reference = CompiledNative.from_code(sequential).run()["__return"]
    if _annotate_all(sdfg) == 0:
        for state, entry in sdfg.map_entries():
            if state.scope_dict().get(entry) is None:
                entry.map.schedule = SCHEDULE_PARALLEL
        assert generate_c_code(sdfg, vectorize=vectorize) == sequential
        return
    code = generate_c_code(sdfg, vectorize=vectorize)
    if vectorize:
        pragma = "#pragma omp parallel for"
        assert code.count(pragma) == generate_c_code(sdfg).count(pragma)
    parallel = CompiledNative.from_code(code)
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("REPRO_NUM_THREADS", threads)
        returned = parallel.run()["__return"]
        assert float(returned).hex() == float(reference).hex(), threads
