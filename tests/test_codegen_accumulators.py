"""A reduction map accumulates in a local.

A WCR write whose target element does not move with a sequentially emitted
map is read once before the loop nest, updated in a local and written once
after it (``codegen/sdfg_walk.py``, :meth:`SDFGWalker._accumulators`).  The
operations, their order and their type are unchanged, so every comparison
here is exact (``==``), on hand-built SDFGs and through both frontends, on
both backends.  Interpreted, the whole nest is an array expression: the
local is updated by ``np.add.accumulate`` over the iterations' values in
nest order, and a target that moves with some of the nest's parameters
folds along the axes of the others — the loops' order either way.
"""

import json
import math
import os
import re

import numpy as np
import pytest

from repro import compile_and_run, compile_c, generate_program, get_pipeline, program
from repro.codegen import have_compiler
from repro.codegen.sdfg_c import generate_c_code
from repro.codegen.sdfg_python import CompiledSDFG, generate_code
from repro.codegen.toolchain import CompiledNative
from repro.sdfg import SCHEDULE_PARALLEL, SDFG, Memlet, propagate_memlets_state
from repro.symbolic import Range
from repro.workloads import get_kernel
from repro.workloads.python_suite import get_program

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: An update that still subscripts its target (``T[0] += …``, ``T[…] *= …``).
_SUBSCRIPTED_UPDATE = re.compile(r"^\s*\w+\[[^\]]*\] [+*]= ", re.M)


def _fold(local, values, wcr="+"):
    """The interpreted text that folds the vector ``values`` into ``local``."""
    ufunc = {"+": "np.add", "*": "np.multiply"}[wcr]
    return f"{local} = {ufunc}.accumulate(np.concatenate((({local},), {values})))[-1]\n"


def _nest(sdfg, state, dims, inputs, code, output, extra_writes=()):
    """One map per entry of ``dims``, nested in that order, around tasklets.

    The first tasklet computes ``code`` over ``inputs`` and writes
    ``output``; each of ``extra_writes`` is one more ``_out = 1.0`` tasklet
    in the innermost scope writing that memlet.
    """
    scopes = [state.add_map(f"map_{param}", [param], [rng]) for param, rng in dims.items()]
    innermost = scopes[-1][0]
    for (outer, _), (inner, _) in zip(scopes, scopes[1:]):
        state.add_nedge(outer, inner)
    tasklets = [(state.add_tasklet("body", list(inputs), ["_out"], code), output)]
    tasklets += [
        (state.add_tasklet("extra", [], ["_out"], "_out = 1.0"), memlet)
        for memlet in extra_writes
    ]
    for connector, memlet in inputs.items():
        source, source_connector = state.add_access(memlet.data), None
        for entry, _ in scopes:
            state.add_edge(source, source_connector, entry, f"IN_{memlet.data}", memlet.clone())
            source, source_connector = entry, f"OUT_{memlet.data}"
        state.add_edge(source, source_connector, tasklets[0][0], connector, memlet.clone())
    sinks = {}
    for tasklet, memlet in tasklets:
        state.add_nedge(innermost, tasklet)
        state.add_edge(tasklet, "_out", scopes[-1][1], f"IN_{memlet.data}", memlet.clone())
        if memlet.data in sinks:
            continue
        sinks[memlet.data] = state.add_access(memlet.data)
        source = scopes[-1][1]
        for _, exit_node in reversed(scopes[:-1]):
            state.add_edge(source, f"OUT_{memlet.data}", exit_node, f"IN_{memlet.data}",
                           memlet.clone())
            source = exit_node
        state.add_edge(source, f"OUT_{memlet.data}", sinks[memlet.data], None, memlet.clone())
    propagate_memlets_state(sdfg, state)
    return scopes


def _reduction(wcr="+", dtype="float64", value_dtype=None, size=12, index="0", **memlet):
    """``for i < size: B[index] wcr= A[i]`` as one map."""
    sdfg = SDFG("reduction")
    sdfg.add_array("A", [size], value_dtype or dtype)
    sdfg.add_array("B", [4], dtype)
    state = sdfg.add_state("s0", is_start_state=True)
    _nest(sdfg, state, {"i": Range(0, size)}, {"_a": Memlet.simple("A", "i")},
          "_out = _a", Memlet(data="B", subset=index, wcr=wcr, **memlet))
    return sdfg


def _run_both(sdfg, **arguments):
    """Outputs of the interpreted and (with a compiler) the native backend."""
    copies = lambda: {name: np.copy(value) for name, value in arguments.items()}
    outputs = [CompiledSDFG.from_code(generate_code(sdfg)).run(**copies())]
    if have_compiler():
        outputs.append(CompiledNative.from_code(generate_c_code(sdfg)).run(**copies()))
    return outputs


def _texts(sdfg):
    return generate_code(sdfg), generate_c_code(sdfg)


def _left_to_right(values, start, wcr):
    total = start
    for value in values:
        total = total + value if wcr == "+" else total * value
    return total


class TestWhatAccumulates:
    @pytest.mark.parametrize("wcr", ["+", "*"])
    def test_sum_and_product_use_a_local(self, wcr):
        sdfg = _reduction(wcr)
        python, c = _texts(sdfg)
        operator = f"{wcr}="
        assert "_acc0 = B[0]\n    " + _fold("_acc0", "A[0:12]", wcr) + "    B[0] = _acc0\n" in python
        assert "double _acc0 = B[(int64_t)(0)];" in c and f"_acc0 {operator} A[" in c
        assert not _SUBSCRIPTED_UPDATE.search(python) and not _SUBSCRIPTED_UPDATE.search(c)
        values = np.random.default_rng(1).uniform(0.5, 1.5, 12)
        start = np.array([3.0, 5.0, 7.0, 9.0])
        for output in _run_both(sdfg, A=values, B=start):
            assert output["B"][0] == _left_to_right(values, 3.0, wcr)
            assert list(output["B"][1:]) == [5.0, 7.0, 9.0]

    @pytest.mark.parametrize("wcr", ["min", "max"])
    def test_min_and_max_are_left_alone(self, wcr):
        # Python's min/max hand back one of their operands, so a local could
        # take the value's type where the store converts it: not accumulated.
        sdfg = _reduction(wcr)
        python, c = _texts(sdfg)
        assert "_acc" not in python and "_acc" not in c
        assert f"B[0] = {wcr}(B[0], A[i])" in python
        values = np.random.default_rng(2).standard_normal(12)
        for output in _run_both(sdfg, A=values, B=np.zeros(4)):
            assert output["B"][0] == (min if wcr == "min" else max)(0.0, *values)

    def test_integer_container(self):
        sdfg = _reduction("+", "int64")
        python, c = _texts(sdfg)
        assert "_acc0 = B[0]" in python and "int64_t _acc0 = B[(int64_t)(0)];" in c
        values = np.arange(1, 13, dtype=np.int64) * 1_000_000_007
        for output in _run_both(sdfg, A=values, B=np.array([5, 0, 0, 0], dtype=np.int64)):
            assert output["B"].dtype == np.int64
            assert int(output["B"][0]) == 5 + int(values.sum())

    @pytest.mark.parametrize("dtype,value_dtype", [
        ("int64", "float64"),    # the store truncates each sum, a local would not
        ("float32", "float64"),  # the store rounds to single, a local would not
        ("float32", "float32"),
        ("int32", "int32"),
    ])
    def test_store_that_would_round_is_refused(self, dtype, value_dtype):
        sdfg = _reduction("+", dtype, value_dtype)
        python, c = _texts(sdfg)
        assert "_acc" not in python and "_acc" not in c
        assert "B[0] += A[i]" in python
        numpy_dtype, numpy_value = np.dtype(dtype), np.dtype(value_dtype)
        values = (np.arange(12) * 0.7 + 0.3).astype(numpy_value)
        expected = np.zeros(1, dtype=numpy_dtype)
        for value in values:
            expected[0] += value
        for output in _run_both(sdfg, A=values, B=np.zeros(4, dtype=numpy_dtype)):
            assert output["B"][0] == expected[0]

    def test_target_also_read_in_the_scope_is_refused(self):
        sdfg = SDFG("read_too")
        sdfg.add_array("A", [12], "float64")
        sdfg.add_array("B", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _nest(sdfg, state, {"i": Range(0, 12)},
              {"_a": Memlet.simple("A", "i"), "_b": Memlet.simple("B", "0")},
              "_out = _a * _b", Memlet.simple("B", "0", wcr="+"))
        python, c = _texts(sdfg)
        assert "_acc" not in python and "_acc" not in c
        assert "B[0] += (A[i] * B[0])" in python
        values = np.linspace(0.1, 0.4, 12)
        expected = 2.0
        for value in values:
            expected += value * expected
        for output in _run_both(sdfg, A=values, B=np.full(4, 2.0)):
            assert output["B"][0] == expected

    def test_dynamic_memlet_is_refused(self):
        sdfg = _reduction("+", dynamic=True)
        python, c = _texts(sdfg)
        assert "_acc" not in python and "_acc" not in c
        assert "B[0] += A[i]" in python

    def test_moving_target_is_refused(self):
        python, c = _texts(_reduction("+", size=4, index="i"))
        assert "_acc" not in python and "_acc" not in c
        assert "B[0:4] += A[0:4]" in python


class TestWhereItIsBound:
    def _cube(self, index):
        sdfg = SDFG("cube")
        sdfg.add_array("A", [3, 4, 5], "float64")
        sdfg.add_array("T", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _nest(sdfg, state, {"i": Range(0, 3), "j": Range(0, 4), "k": Range(0, 5)},
              {"_a": Memlet.simple("A", "i, j, k")}, "_out = _a",
              Memlet.simple("T", index, wcr="+"))
        return sdfg

    def test_invariant_in_the_whole_nest_binds_outermost(self):
        sdfg = self._cube("1")
        python, c = _texts(sdfg)
        # Interpreted, the nest is one expression: its values in nest order.
        assert (
            "    _acc0 = T[1]\n    " + _fold("_acc0", "np.ravel(A[0:3, 0:4, 0:5])")
            + "    T[1] = _acc0\n"
        ) in python
        assert python.count("_acc0 = T[") == 1 and c.count("double _acc0") == 1
        values = np.random.default_rng(3).standard_normal((3, 4, 5))
        for output in _run_both(sdfg, A=values, T=np.ones(4)):
            assert output["T"][1] == _left_to_right(values.ravel(), 1.0, "+")

    def test_index_naming_an_inner_parameter_binds_one_level_in(self):
        # T[j] moves with the middle map: refused at i and at j, bound at k.
        # Interpreted, the nest is one expression folding along i and k.
        sdfg = self._cube("j")
        python, c = _texts(sdfg)
        assert "_acc" not in python and (
            "np.transpose(A[0:3, 0:4, 0:5], (1, 0, 2)).reshape(T[0:4].shape + (-1,))"
        ) in python
        assert re.search(r"for \(int64_t j = .*\{\n\s+double _acc0 = T\[", c)
        values = np.random.default_rng(4).standard_normal((3, 4, 5))
        expected = np.zeros(4)
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    expected[j] += values[i, j, k]
        for output in _run_both(sdfg, A=values, T=np.zeros(4)):
            assert np.array_equal(output["T"], expected)

    def test_possibly_empty_inner_map_binds_at_the_inner_map(self):
        # The load and the store run once per entry of the scope they
        # surround; a nested map that may run zero times must not be
        # between them and the update, so each level binds its own.
        sdfg = SDFG("triangle")
        sdfg.add_array("A", [6, 6], "float64")
        sdfg.add_array("T", [1], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _nest(sdfg, state, {"i": Range(0, 6), "j": Range(0, "i")},
              {"_a": Memlet.simple("A", "i, j")}, "_out = _a",
              Memlet.simple("T", "0", wcr="+"))
        python, _ = _texts(sdfg)
        assert (
            "    for i in range(0, 6):\n"
            "        if 0 < i:\n"
            "            _acc0 = T[0]\n"
            "            " + _fold("_acc0", "A[i, 0:i]") +
            "            T[0] = _acc0\n"
        ) in python
        values = np.random.default_rng(5).standard_normal((6, 6))
        expected = _left_to_right([values[i, j] for i in range(6) for j in range(i)], 0.0, "+")
        for output in _run_both(sdfg, A=values, T=np.zeros(1)):
            assert output["T"][0] == expected

    def test_two_writers_of_one_element_share_the_local(self):
        sdfg = SDFG("two_writers")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_array("B", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _nest(sdfg, state, {"i": Range(0, 8)}, {"_a": Memlet.simple("A", "i")}, "_out = _a",
              Memlet.simple("B", "2", wcr="+"), extra_writes=[Memlet.simple("B", "2", wcr="+")])
        python, c = _texts(sdfg)
        assert python.count("_acc0 = B[2]") == 1 and python.count("_acc0 += ") == 2
        assert "_acc1" not in python and not _SUBSCRIPTED_UPDATE.search(python)
        assert c.count("double _acc") == 1 and c.count("_acc0 += ") == 2
        values = np.random.default_rng(6).standard_normal(8)
        expected = 0.5
        for value in values:
            expected = (expected + value) + 1.0
        for output in _run_both(sdfg, A=values, B=np.full(4, 0.5)):
            assert output["B"][2] == expected

    @pytest.mark.parametrize("second", [
        Memlet.simple("B", "2", wcr="*"),  # another operator
        Memlet.simple("B", "3", wcr="+"),  # another element: the index could alias
        Memlet.simple("B", "2"),           # a plain store
    ])
    def test_two_writers_that_differ_are_refused(self, second):
        sdfg = SDFG("two_writers")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_array("B", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _nest(sdfg, state, {"i": Range(0, 8)}, {"_a": Memlet.simple("A", "i")}, "_out = _a",
              Memlet.simple("B", "2", wcr="+"), extra_writes=[second])
        python, c = _texts(sdfg)
        assert "_acc" not in python and "_acc" not in c


class TestZeroTrips:
    def _sdfg(self):
        sdfg = SDFG("maybe_empty")
        sdfg.add_symbol("N")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_array("B", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _nest(sdfg, state, {"i": Range(0, "N")}, {"_a": Memlet.simple("A", "i")}, "_out = _a",
              Memlet.simple("B", "N + 1000003", wcr="+"))
        return sdfg

    def test_load_and_store_sit_under_the_loops_own_guard(self):
        python, c = _texts(self._sdfg())
        assert (
            "    if 0 < N:\n"
            "        _acc0 = B[N + 1000003]\n"
            "        " + _fold("_acc0", "A[0:N]") +
            "        B[N + 1000003] = _acc0\n"
        ) in python
        guard, load, loop, store = (
            c.index("if (((0) < (N)))"), c.index("double _acc0 = B["),
            c.index("for (int64_t i = "), c.index("] = _acc0;"),
        )
        assert guard < load < loop < store
        # Both closing braces of the guarded block follow the store.
        assert c[store:].count("}") == 2

    def test_zero_trip_map_never_touches_an_out_of_bounds_target(self):
        # B[1000003] does not exist: a load or a store would raise
        # IndexError interpreted and read or write ~8 MB off the end of a
        # 32-byte buffer natively.  The text test above runs first.
        for output in _run_both(self._sdfg(), N=0, A=np.ones(8), B=np.arange(4.0)):
            assert list(output["B"]) == [0.0, 1.0, 2.0, 3.0]

    def test_literal_bounds_need_no_guard(self):
        python, c = _texts(_reduction("+"))
        assert "if " not in python and "if (" not in c

    def test_provably_empty_map_is_left_alone(self):
        python, c = _texts(_reduction("+", size=0))
        assert "_acc" not in python and "_acc" not in c


#: ``repro_run`` of ``TestParallelMapsKeepTheirPaths._rows``, from its parameter
#: list on: the OpenMP loop of v1.10.0, no local, no atomics.
_PARENT_C = """\
(double *restrict A, double *restrict C, int64_t K, int64_t N, int64_t *_alloc_out, char *_ws) {
    int64_t _alloc_count = 0;
    const int64_t _lo0 = (int64_t)(0);
    const int64_t _hi0 = (int64_t)(N);
    const int64_t _st0 = (int64_t)(1);
    #ifdef _OPENMP
    #pragma omp parallel for num_threads(repro_omp_threads(2)) schedule(static)
    #endif
    for (int64_t i = _lo0; i < _hi0; i += _st0) {
        const int64_t _lo1 = (int64_t)(0);
        const int64_t _hi1 = (int64_t)(K);
        const int64_t _st1 = (int64_t)(1);
        for (int64_t k = _lo1; k < _hi1; k += _st1) {
            C[(int64_t)(i)] += A[(int64_t)(i) * (int64_t)(K) + (int64_t)(k)];
        }
    }
    *_alloc_out = _alloc_count;
}
"""


class TestParallelMapsKeepTheirPaths:
    def _rows(self, parallel):
        """``for i < N: for k < K: C[i] += A[i, k]``; symbolic bounds, so no
        literal in a loop header differs from the parent's text either."""
        sdfg = SDFG("rows")
        sdfg.add_symbol("N")
        sdfg.add_symbol("K")
        sdfg.add_array("A", ["N", "K"], "float64")
        sdfg.add_array("C", ["N"], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        scopes = _nest(sdfg, state, {"i": Range(0, "N"), "k": Range(0, "K")},
                       {"_a": Memlet.simple("A", "i, k")}, "_out = _a",
                       Memlet.simple("C", "i", wcr="+"))
        if parallel:
            scopes[0][0].map.schedule = SCHEDULE_PARALLEL
            scopes[0][0].map.n_threads = 2
        return sdfg

    def test_parallelized_map_text_equals_the_parents(self):
        python, c = _texts(self._rows(parallel=True))
        # Interpreted, the schedule is not read: the sequential map's text.
        assert python == generate_code(self._rows(parallel=False))
        assert c.split("void repro_run", 1)[1] == _PARENT_C

    def test_the_same_map_emitted_sequentially_accumulates(self):
        python, c = _texts(self._rows(parallel=False))
        # Interpreted, the nest folds along k: the local is the array's own axis.
        assert (
            "    if 0 < N:\n        if 0 < K:\n            C[0:N, None] = np.add.accumulate("
            "np.concatenate((C[0:N, None], A[0:N, 0:K]), axis=1), axis=1)[:, -1:]\n"
        ) in python
        assert "double _acc0 = C[(int64_t)(i)];" in c

    def test_atomic_update_stays_atomic(self):
        sdfg = _reduction("+", dtype="int64", size=64)
        for _, entry in sdfg.map_entries():
            entry.map.schedule = SCHEDULE_PARALLEL
        c = generate_c_code(sdfg)
        assert "#pragma omp atomic" in c and "_acc" not in c
        # Interpreted, the map runs in order, and a sequential loop accumulates.
        python = generate_code(sdfg)
        assert python == generate_code(_reduction("+", dtype="int64", size=64))


class TestOrderOfOperations:
    #: 1e16 absorbs the 1.0 that follows it, so the left-to-right sum of k
    #: repetitions is exactly 1.0; pairwise, sorted or compensated sums differ.
    VALUES = np.array([1e16, 1.0, -1e16, 1.0] * 8)

    def test_reference_differs_from_reassociations(self):
        assert _left_to_right(self.VALUES, 0.0, "+") == 1.0
        assert math.fsum(self.VALUES) == 16.0
        assert float(np.sum(self.VALUES)) != 1.0
        assert _left_to_right(sorted(self.VALUES), 0.0, "+") != 1.0
        assert _left_to_right(self.VALUES[::-1], 0.0, "+") != 1.0

    def test_hand_built_reduction_is_left_to_right(self):
        sdfg = _reduction("+", size=len(self.VALUES))
        assert "_acc0" in generate_code(sdfg)
        for output in _run_both(sdfg, A=self.VALUES, B=np.zeros(4)):
            assert output["B"][0] == 1.0

    def test_c_frontend_reduction_is_left_to_right(self):
        source = """
        double kernel() {
          double A[32]; double r[1];
          for (int i = 0; i < 8; i++) {
            A[4 * i] = 1e16; A[4 * i + 1] = 1.0; A[4 * i + 2] = -1e16; A[4 * i + 3] = 1.0;
          }
          r[0] = 0.0;
          for (int i = 0; i < 32; i++) r[0] += A[i];
          return r[0];
        }
        """
        assert compile_and_run(source, "gcc").return_value == 1.0
        interpreted = compile_c(source, "dcir")
        assert "_acc" in interpreted.code
        assert interpreted.run()["__return"] == 1.0
        native = compile_c(source, get_pipeline("dcir").with_codegen(backend="native"))
        if have_compiler():
            assert native.backend == "native" and "double _acc" in native.native_code
        assert native.run()["__return"] == 1.0


@program
def _row_sums(N=7, M=5):
    A = np.zeros((N, M))
    for i in range(N):
        for j in range(M):
            A[i, j] = ((i * 3 + j * 5) % 7) * 0.3 - 0.4
    rows = np.zeros(N)
    total = np.zeros(1)
    for i in range(N):
        for j in range(M):
            rows[i] += A[i, j] * (j + 1)
    for i in range(N):
        for j in range(M):
            total[0] += A[i, j] * rows[i]
    return total[0]


class TestThroughTheFrontends:
    C_SOURCE = """
    double kernel() {
      double A[7][5]; double rows[7]; double total[1]; long hits[1];
      for (int i = 0; i < 7; i++)
        for (int j = 0; j < 5; j++)
          A[i][j] = ((i * 3 + j * 5) % 7) * 0.3 - 0.4;
      for (int i = 0; i < 7; i++) {
        rows[i] = 1.0;
        for (int j = 0; j < 5; j++) rows[i] *= A[i][j] + 1.5;
      }
      total[0] = 0.0;
      for (int i = 0; i < 7; i++)
        for (int j = 0; j < 5; j++) total[0] += A[i][j] * rows[i];
      hits[0] = 0;
      for (int i = 0; i < 7; i++)
        for (int j = 0; j < 5; j++) hits[0] += (i * j) % 3;
      return total[0] + hits[0];
    }
    """

    def test_c_program_agrees_exactly_on_every_pipeline_and_backend(self):
        reference = compile_and_run(self.C_SOURCE, "gcc").return_value
        for pipeline in ("mlir", "dace", "dcir", "dcir+vec"):
            assert compile_and_run(self.C_SOURCE, pipeline).return_value == reference
        generated = generate_program(
            self.C_SOURCE, get_pipeline("dcir").with_codegen(backend="native")
        )
        # total[0] += … and hits[0] += … over their nests; interpreted,
        # rows[i] *= … folds along j in the nest it shares with rows[i] = 1.0.
        assert len(re.findall(r"^\s+_acc\d+ = \w+\[", generated.code, re.M)) == 2
        assert re.search(r"^\s+_arr_\d+\[0:7, None\] = np\.multiply\.accumulate\(",
                         generated.code, re.M)
        assert "int64_t _acc" in generated.native_code
        assert "double _acc" in generated.native_code
        assert compile_c(self.C_SOURCE, generated.spec).run()["__return"] == reference

    def test_python_program_agrees_exactly_with_numpy(self):
        reference = _row_sums()
        for pipeline in ("mlir", "dace", "dcir"):
            assert compile_and_run(_row_sums, pipeline).return_value == reference
        generated = generate_program(
            _row_sums, get_pipeline("dcir").with_codegen(backend="native")
        )
        assert "_acc" in generated.code
        assert compile_c(_row_sums, generated.spec).run()["__return"] == reference


class TestCounted:
    def test_interp_run_programs_get_their_sites(self):
        """The 32 ``interp_run`` programs at ``medium`` under ``dcir``."""
        with open(os.path.join(_ROOT, "benchmarks", "e2e", "sizes.json"), encoding="utf-8") as fh:
            kernels = json.load(fh)["kernels"]
        assert len(kernels) == 32
        sites = {}
        for name, entry in kernels.items():
            source = (
                get_program(name, entry["medium"]) if entry["class"] == "python-suite"
                else get_kernel(name, entry["medium"])
            )
            code = generate_program(source, "dcir").code
            # In a local, or — interpreted, in an array nest — along the axes
            # of the nest the target does not move with.
            sites[name] = len(re.findall(r"^\s+_acc\d+ = \w+\[", code, re.M)) + len(
                re.findall(r"^\s+\w+\[[^\n]*\] = np\.(add|multiply)\.accumulate\("
                           r"np\.concatenate\(\(\w+\[", code, re.M)
            )
        assert sum(sites.values()) >= 49, sites
        assert all(sites.values()), sites  # every program has at least its checksum

    def test_2mm_reductions_leave_no_subscripted_update(self):
        code = generate_program(get_kernel("2mm"), "dcir").code
        # All three `+=` are reductions; the one `*=` moves with its map.
        # The checksum folds into a local, the two products along their k axis.
        assert not re.search(r"^\s+_arr_\d+\[[^\]]*\] \+= ", code, re.M)
        assert len(re.findall(r"^\s+_arr_\d+\[[^\]]*\] \*= ", code, re.M)) == 1
        assert len(re.findall(r"^\s+_acc\d+ = np\.add\.accumulate\(", code, re.M)) == 1
        assert len(re.findall(r"^\s+_arr_\d+\[[^\]]*\] = np\.add\.accumulate\(", code, re.M)) == 2
