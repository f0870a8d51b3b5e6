"""A map is an array expression — and where it is not, it stays a loop.

The interpreted emitter writes every map nest the walker classifies
(``codegen/sdfg_walk.py``, :meth:`SDFGWalker._array_form`) as n-d NumPy
operations in operation order.  Each hazard below is a map or a nest whose
array reading could differ from its loops: it is built by hand (or compiled
from C or traced Python), its text is checked for the form it must take, and
its outputs are compared bit for bit (``float.hex``) with a scalar reference
that executes the tasklets one iteration at a time.

The last two classes pin what must not move: ``__return`` of the benchmark's
programs as the parent commit computed it (``tests/data/array_map_returns.json``),
and the two tables the spelling comes from — NumPy's and C's.
"""

import ast
import ctypes
import itertools
import json
import math
import os

import numpy as np
import pytest

from repro import compile_and_run, compile_c, generate_program, get_pipeline, program
from repro.codegen.sdfg_c import _HELPERS, CEmitter, NativeCodegenError
from repro.codegen.sdfg_python import NUMPY, CompiledSDFG, Refused, generate_code
from repro.codegen.sdfg_walk import ARRAY_KINDS, affine_in
from repro.codegen.toolchain import NATIVE_CACHE_ENV, compile_shared
from repro.perf import PERF
from repro.sdfg import SCHEDULE_PARALLEL, SDFG, Memlet, Tasklet, propagate_memlets_state
from repro.sdfg.tasklet_code import (
    _FLOAT_MATH, Unspelled, as_operand, result_dtype, single_assignment, spell,
)
from repro.symbolic import Range, parse_expr
from repro.workloads import get_kernel
from repro.workloads.python_suite import get_program

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- building and running one map ------------------------------------------------------------


def _map_sdfg(arrays, tasklets, rng, param="i", symbols=()):
    """One map over ``param`` holding ``tasklets`` in order.

    ``arrays`` maps a container to ``(shape, dtype)`` (``None`` for the shape
    of a scalar); a tasklet is ``(code, {connector: (data, index)}, (data,
    index, wcr))`` plus an optional dict of memlet attributes for its write
    (``{"dynamic": True}``).
    """
    sdfg = SDFG("hazard")
    for symbol in symbols:
        sdfg.add_symbol(symbol)
    for name, (shape, dtype) in arrays.items():
        if shape is None:
            sdfg.add_scalar(name, dtype)
        else:
            sdfg.add_array(name, shape, dtype)
    state = sdfg.add_state("s0", is_start_state=True)
    entry, exit_node = state.add_map("m", [param], [rng])
    sources, sinks = {}, {}
    for code, inputs, (data, index, wcr), *attributes in tasklets:
        tasklet = state.add_tasklet("t", list(inputs), ["_out"], code)
        if not inputs:
            state.add_nedge(entry, tasklet)
        for connector, (source, read_index) in inputs.items():
            if source not in sources:
                sources[source] = state.add_access(source)
                state.add_edge(sources[source], None, entry, f"IN_{source}",
                               Memlet.simple(source, read_index))
            state.add_edge(entry, f"OUT_{source}", tasklet, connector,
                           Memlet.simple(source, read_index))
        write = Memlet(data=data, subset=index, wcr=wcr, **(attributes[0] if attributes else {}))
        state.add_edge(tasklet, "_out", exit_node, f"IN_{data}", write)
        if data not in sinks:
            sinks[data] = state.add_access(data)
            state.add_edge(exit_node, f"OUT_{data}", sinks[data], None, write.clone())
    propagate_memlets_state(sdfg, state)
    return sdfg


def _scalar_reference(tasklets, values, containers, param, symbols):
    """Execute ``tasklets`` one iteration of ``values`` at a time, on copies."""
    containers = {name: np.copy(value) for name, value in containers.items()}
    for value in values:
        names = dict(symbols, **{param: value})
        for code, inputs, (data, index, wcr), *_ in tasklets:
            scope = dict(names, math=math)
            for connector, (source, read_index) in inputs.items():
                scope[connector] = containers[source][eval(read_index, {}, names)]
            exec(code, scope)
            target, where = containers[data], eval(index, {}, names)
            if wcr == "+":
                target[where] += scope["_out"]
            elif wcr == "*":
                target[where] *= scope["_out"]
            else:
                target[where] = scope["_out"]
    return containers


def _run(sdfg, containers, **symbols):
    copies = {name: np.copy(value) for name, value in containers.items()}
    return CompiledSDFG.from_code(generate_code(sdfg)).run(**copies, **symbols)


def _same_bits(actual, expected):
    for name, value in expected.items():
        assert actual[name].dtype == value.dtype, name
        got = [float(x).hex() for x in np.ravel(actual[name])]
        assert got == [float(x).hex() for x in np.ravel(value)], name


def _counted(before):
    """The ``codegen.python.*`` counters moved since ``before``, without the prefix."""
    return {
        name[len("codegen.python."):]: count
        for name, count in PERF.delta_since(before).items() if name.startswith("codegen.python.")
    }


def _values(shape, dtype, seed):
    values = np.random.default_rng(seed).uniform(-1.5, 1.5, shape)
    return values.astype(dtype) if dtype.startswith("float") else (values * 40).astype(dtype)


#: Containers of most hazards: two vectors, and a matrix where an index form needs one.
_AB = {"A": ([16], "float64"), "B": ([16], "float64")}
_ABM = dict(_AB, M=([16, 16], "float64"))


def _check(tasklets, rng=Range(0, 16), arrays=_AB, *, kind=0, refused=None, param="i",
           given=None, **symbols):
    """Build, emit, run and compare bit for bit; returns the emitted text.

    The map must become array operations (no ``for``) counted as
    ``ARRAY_KINDS[kind]`` — or, with ``refused``, stay a loop over ``range``
    counted under that name.  Containers hold seeded random values unless
    ``given``.
    """
    sdfg = _map_sdfg(arrays, tasklets, rng, param, symbols)
    before = PERF.snapshot()
    code = generate_code(sdfg)
    if refused is None:
        counter = "array_maps." + ARRAY_KINDS[kind].replace(" ", "_")
        assert _counted(before) == {"array_maps": 1, counter: 1}, code
        assert f"for {param} in range(" not in code
    else:
        assert _counted(before) == {"loop_maps": 1, f"refused.{refused}": 1}
        assert f"for {param} in range(" in code
    containers = {
        name: _values(shape, dtype, seed)
        for seed, (name, (shape, dtype)) in enumerate(arrays.items())
    }
    containers.update(given or {})
    expected = _scalar_reference(tasklets, rng.evaluate(symbols), containers, param, symbols)
    _same_bits(_run(sdfg, containers, **symbols), expected)
    return code


def _copy(read="i", write="i", wcr=None, code="_out = _a", source="A", target="B"):
    """The tasklet ``target[write] wcr= code`` over ``_a = source[read]``."""
    return (code, {"_a": (source, read)}, (target, write, wcr))


# -- hazards ---------------------------------------------------------------------------------


class TestIndexForms:
    def test_unit_coefficient_is_a_slice(self):
        code = _check([_copy("i + 2", code="_out = _a + 1.0")], Range(1, 13))
        assert "B[1:13] = A[3:15] + 1.0" in code and "np.arange" not in code

    def test_diagonal_needs_the_index_vector(self):
        code = _check([_copy(write="i, i", target="M", code="_out = _a * 2.0")], arrays=_ABM)
        assert "i = np.arange(0, 16)" in code and "M[i, i] = A[0:16] * 2.0" in code

    def test_diagonal_update_in_place(self):
        code = _check([_copy(write="i, i", target="M", wcr="+")], arrays=_ABM, kind=1)
        assert "M[i, i] += A[0:16]" in code

    def test_parameter_used_as_a_value(self):
        code = _check([("_out = i * 0.5", {}, ("B", "i", None))])
        assert "i = np.arange(0, 16)" in code and "B[0:16] = i * 0.5" in code

    def test_casts_of_the_parameter_and_of_an_element(self):
        code = _check([_copy(code="_out = (float(((i * 7) % 5)) / 3.0) + float(int(_a * 3.0))")])
        assert "np.float64((i * 7) % 5)" in code and "np.float64(np.int64(A[0:16] * 3.0))" in code

    def test_coefficient_two(self):
        code = _check([_copy(write="2 * i + 1")], Range(0, 8))
        assert "B[1:17:2] = A[0:8]" in code

    def test_negative_coefficient_reads_the_slice_backwards(self):
        # A[15:-1:-1] would be empty: a negative stride cannot stop below element 0.
        code = _check([_copy("15 - i", code="_out = _a - 1.0")])
        assert "B[0:16] = A[0:16][::-1] - 1.0" in code and "np.arange" not in code

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_negative_coefficient_in_a_store_and_a_symbolic_range(self, k):
        code = _check([_copy("k - i - 1", "14 - 2 * i", "+")], Range(0, "k"), kind=1, k=k)
        assert "B[-2 * k + 16:15:2][::-1] += A[0:k][::-1]" in code

    def test_negative_coefficient_under_a_step_takes_the_index_vector(self):
        code = _check([_copy("15 - i")], Range(0, 16, 2))
        assert "i = np.arange(0, 16, 2)" in code and "B[0:16:2] = A[-1 * i + 15]" in code

    def test_step_three(self):
        code = _check([_copy(write="i + 1", code="_out = _a * 3.0")], Range(0, 15, 3))
        assert "B[1:16:3] = A[0:15:3] * 3.0" in code

    def test_index_not_affine_in_the_parameter(self):
        code = _check([_copy("(i * i) % 16")])
        assert "i = np.arange(0, 16)" in code and "B[0:16] = A[i * i % 16]" in code

    def test_outer_symbols_stay_scalars(self):
        code = _check([_copy("k, i", "k + 1", source="M", code="_out = _a * k")], arrays=_ABM,
                      refused="not_injective", k=4)
        assert "B[k + 1] = (M[k, i] * k)" in code
        code = _check([_copy("k, i", "i", source="M", code="_out = _a * k")], arrays=_ABM, k=4)
        assert "B[0:16] = M[k, 0:16] * k" in code

    def test_affine_in(self):
        assert affine_in(parse_expr("k - i - 1"), "i") == (-1, parse_expr("k - 1"))
        assert affine_in(parse_expr("3 * (i + 1) - i"), "i") == (2, parse_expr("3"))
        assert affine_in(parse_expr("N - 1"), "i") == (0, parse_expr("N - 1"))
        for text in ("i * j", "i % 2", "i // 2", "min(i, 3)", "i * i"):
            assert affine_in(parse_expr(text), "i") is None, text


class TestWritesThatMustStayLoops:
    @pytest.mark.parametrize("index", ["0", "i // 2", "i % 4", "(i * i) % 16"])
    def test_store_not_injective_in_the_parameter(self, index):
        # The last iteration's store wins; an array store promises no order.
        _check([_copy(write=index)], refused="not_injective")

    def test_store_to_a_scalar(self):
        arrays = dict(_AB, s=(None, "float64"))
        sdfg = _map_sdfg(arrays, [_copy(write="0", target="s")], Range(0, 16))
        before = PERF.snapshot()
        assert "for i in range(0, 16):\n        s = A[i]\n" in generate_code(sdfg)
        assert _counted(before) == {"loop_maps": 1, "refused.scalar_store": 1}

    def test_read_of_what_an_earlier_iteration_stored(self):
        _check([_copy(write="i + 1", target="A", code="_out = _a + 1.0")], Range(0, 15),
               refused="crosses_iterations")

    def test_rows_it_cannot_tell_apart(self):
        # Rows k and m meet when k == m, nothing says whether they do, and then
        # iteration i + 1 reads what iteration i stored.
        _check([_copy("k, i", "m, i + 1", source="M", target="M")], Range(0, 15),
               arrays=_ABM, refused="crosses_iterations", k=4, m=5)

    def test_updates_of_neighbouring_elements(self):
        # A[k] gets iteration k - 1's second update before iteration k's first.
        tasklets = [_copy(source="B", target="A", wcr="+"),
                    _copy(write="i + 1", source="B", target="A", wcr="+", code="_out = _a * 0.1")]
        _check(tasklets, Range(0, 15), refused="crosses_iterations")

    def test_two_updates_sharing_one_accumulator(self):
        # (((acc + a0) + b0) + a1) + b1 …: one update after the other is another sum.
        tasklets = [_copy(write="3", wcr="+"), _copy(write="3", wcr="+", code="_out = _a * 1e-9")]
        code = _check(tasklets, refused="shared_accumulator",
                      given={"A": np.linspace(-1e8, 3e8, 16)})
        assert code.count("_acc0 += ") == 2

    def test_accumulator_read_in_the_scope(self):
        tasklet = ("_out = _a * _b", {"_a": ("A", "i"), "_b": ("B", "0")}, ("B", "0", "+"))
        _check([tasklet], refused="shared_accumulator")

    def test_update_by_a_value_that_does_not_move(self):
        _check([("_out = 0.1", {}, ("B", "2", "+"))], refused="uniform_update")

    def test_dynamic_memlet(self):
        _check([_copy() + ({"dynamic": True},)], refused="dynamic_memlet")

    @pytest.mark.parametrize("wcr", ["min", "max"])
    def test_min_max_update(self, wcr):
        sdfg = _map_sdfg(_AB, [_copy(wcr=wcr)], Range(0, 16))
        before = PERF.snapshot()
        assert "for i in range(0, 16):" in generate_code(sdfg)
        assert _counted(before) == {"loop_maps": 1, "refused.min_max_update": 1}

    def test_several_statements(self):
        _check([_copy(code="_t = _a + 1.0\n_out = _t * _t")], refused="statements")

    def test_a_view_bound_to_a_temporary(self):
        # t = A[i]; A[i] = 0; B[i] = t — as arrays, t would be a view of the zeros.
        sdfg = _map_sdfg(_AB, [("_out = 0.0", {}, ("A", "i", None)), _copy(code="_out = _v")],
                         Range(0, 16))
        state = sdfg.states()[0]
        zero, store = [node for node in state.nodes() if isinstance(node, Tasklet)]
        entry = state.map_entries()[0]
        load = state.add_tasklet("load", ["_a"], ["_out"], "_out = _a")
        for edge in state.in_edges(store):
            state.remove_edge(edge)
        state.add_edge(entry, "OUT_A", load, "_a", Memlet.simple("A", "i"))
        state.add_edge(load, "_out", store, "_v", Memlet.empty())
        state.add_nedge(load, zero)
        before = PERF.snapshot()
        code = generate_code(sdfg)
        assert _counted(before) == {"loop_maps": 1, "refused.aliased_value": 1}, code
        values = _values([16], "float64", 0)
        output = _run(sdfg, {"A": values, "B": np.zeros(16)})
        _same_bits(output, {"A": np.zeros(16), "B": values})


class TestElementTypes:
    @pytest.mark.parametrize("dtype", ["float32", "int32"])
    def test_narrow_containers_stay_loops(self, dtype):
        arrays = {"A": ([16], dtype), "B": ([16], dtype)}
        _check([_copy(code="_out = (_a * 3) + _a")], arrays=arrays, refused="narrow_type")

    def test_float_update_of_an_integer_element_stays_a_loop(self):
        # Each scalar `B[i] += 0.75 * a` truncates; the array statement raises.
        _check([_copy(wcr="+", code="_out = _a * 0.75")],
               arrays={"A": ([16], "float64"), "B": ([16], "int64")}, refused="rounding_update")

    def test_integer_update_of_an_integer_element(self):
        code = _check([_copy(wcr="+", code="_out = _a * 1_000_003")],
                      arrays={"A": ([16], "int64"), "B": ([16], "int64")}, kind=1)
        assert "B[0:16] += A[0:16] * 1000003" in code

    def test_float_store_into_an_integer_container_truncates_alike(self):
        _check([_copy(code="_out = _a * 7.5")],
               arrays={"A": ([16], "float64"), "B": ([16], "int64")})


class TestInPlaceAndInOrder:
    def test_in_place_store(self):
        code = _check([_copy(target="A", code="_out = _a * 2.0")], kind=1)
        assert "A[0:16] = A[0:16] * 2.0" in code

    def test_another_row_of_the_container_written(self):
        # Rows k and k + 1 never meet, whatever k is: the read is a plain read.
        code = _check([_copy("k, i", "k + 1, i", source="M", target="M")], arrays=_ABM,
                      kind=1, k=4)
        assert "M[k + 1, 0:16] = M[k, 0:16]" in code

    @pytest.mark.parametrize("k, m", [(4, 5), (4, 4)])
    def test_rows_that_meet_only_within_one_iteration(self, k, m):
        # Rows k and m may be one row, but column i is touched in iteration i
        # alone: reading all of row k before storing row m is what the loop does.
        code = _check([_copy("k, i", "m, i", source="M", target="M")], arrays=_ABM,
                      kind=1, k=k, m=m)
        assert "M[m, 0:16] = M[k, 0:16]" in code

    @pytest.mark.parametrize("wcr", ["+", "*"])
    def test_moving_update_is_a_slice_update(self, wcr):
        code = _check([_copy(wcr=wcr, code="_out = _a * _a")], Range(2, 14), kind=1)
        assert f"_a = A[2:14]\n    B[2:14] {wcr}= _a * _a" in code

    def test_operation_order_inside_one_iteration(self):
        tasklets = [_copy(wcr="+", code="_out = _a * 0.3"), _copy(wcr="*", code="_out = _a + 1.0")]
        _check(tasklets, kind=1)

    @pytest.mark.parametrize("wcr", ["+", "*"])
    def test_fixed_update_folds_in_left_to_right(self, wcr):
        given = {"A": np.array([1e16, 1.0, -1e16, 1.0] * 4)} if wcr == "+" else None
        code = _check([_copy(write="5", wcr=wcr)], kind=2, given=given)
        ufunc = {"+": "np.add", "*": "np.multiply"}[wcr]
        assert f"_acc0 = {ufunc}.accumulate(np.concatenate(((_acc0,), A[0:16])))[-1]" in code


class TestRangesThatMayBeEmpty:
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_triangular_reduction_keeps_the_accumulators_guard(self, k):
        code = _check([_copy("k, j", "k", "+", source="M")], Range(0, "k"), _ABM, kind=2,
                      param="j", k=k)
        assert ("    if 0 < k:\n        _acc0 = B[k]\n        _acc0 = np.add.accumulate("
                "np.concatenate(((_acc0,), M[k, 0:k])))[-1]\n        B[k] = _acc0\n") in code

    @pytest.mark.parametrize("n", [0, 1, 2, 8])
    def test_negative_end_is_not_counted_from_the_back(self, n):
        # range(1, n - 1) is empty at n = 0; the slice 1:-1 is not.
        code = _check([_copy("j", "j", code="_out = _a * 0.5")], Range(1, "n - 1"), param="j", n=n)
        assert "    if 1 < n - 1:\n        B[1:n - 1] = A[1:n - 1] * 0.5\n" in code

    def test_out_of_bounds_accumulator_is_not_touched_at_zero_trips(self):
        _check([_copy("j", "n + 1000003", "+")], Range(0, "n"), kind=2, param="j", n=0)

    def test_literal_bounds_need_no_guard_and_no_coercion(self):
        code = _check([_copy()])
        assert "if " not in code and "int(" not in code


class TestBounds:
    def _loop(self, rng, **symbols):
        # A min update keeps the map a loop, so the header is what is looked at.
        sdfg = _map_sdfg(_AB, [_copy(wcr="min")], rng, symbols=symbols)
        sdfg.symbols.update(symbols)
        return generate_code(sdfg)

    def test_integral_components_are_written_as_they_are(self):
        assert "for i in range(0, k + 1):" in self._loop(Range(0, "k + 1"), k="int64")
        assert "for i in range(k, min(k + 4, N), 2):" in self._loop(
            Range("k", "min(k + 4, N)", 2), k="int64", N="int64")

    def test_only_what_may_not_be_an_integer_is_coerced(self):
        assert "for i in range(0, int(N / 2)):" in self._loop(Range(0, "N / 2"), N="int64")
        assert "for i in range(0, int(x)):" in self._loop(Range(0, "x"), x="float64")


class TestInsideAParallelMap:
    def _rows(self, threads):
        """``for i: for k: C[i] += A[i, k]; B[i, k] = A[i, k] * i``, the outer
        map parallel-scheduled on ``threads`` unless that is ``None``."""
        sdfg = SDFG("rows")
        sdfg.add_array("A", [12, 9], "float64")
        sdfg.add_array("B", [12, 9], "float64")
        sdfg.add_array("C", [12], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        outer, outer_exit = state.add_map("rows", ["i"], [Range(0, 12)])
        inner, inner_exit = state.add_map("cols", ["k"], [Range(0, 9)])
        if threads is not None:
            outer.map.schedule, outer.map.n_threads = SCHEDULE_PARALLEL, threads
        read = state.add_access("A")
        state.add_edge(read, None, outer, "IN_A", Memlet.simple("A", "i, k"))
        state.add_edge(outer, "OUT_A", inner, "IN_A", Memlet.simple("A", "i, k"))
        for code, data, index, wcr in (("_out = _a", "C", "i", "+"),
                                       ("_out = _a * i", "B", "i, k", None)):
            tasklet = state.add_tasklet("t", ["_a"], ["_out"], code)
            write = Memlet.simple(data, index, wcr=wcr)
            state.add_edge(inner, "OUT_A", tasklet, "_a", Memlet.simple("A", "i, k"))
            state.add_edge(tasklet, "_out", inner_exit, f"IN_{data}", write)
            state.add_edge(inner_exit, f"OUT_{data}", outer_exit, f"IN_{data}", write.clone())
            state.add_edge(outer_exit, f"OUT_{data}", state.add_access(data), None, write.clone())
        propagate_memlets_state(sdfg, state)
        return sdfg

    def _innermost(self, parallel):
        sdfg = _map_sdfg(_AB, [_copy()], Range(0, 16))
        if parallel:
            for _, entry in sdfg.map_entries():
                entry.map.schedule, entry.map.n_threads = SCHEDULE_PARALLEL, 2
        return sdfg

    def test_the_schedule_changes_no_text(self):
        # Interpreted, every map runs in order: the text is the sequential one.
        for build, parallel in ((self._rows, 2), (self._innermost, True)):
            assert generate_code(build(parallel)) == generate_code(build(None))


# -- whole nests -----------------------------------------------------------------------------


def _nest_sdfg(arrays, tree, symbols=(), private=()):
    """A nest of maps built from ``tree``: ``({param: range}, [member, …])``,
    where a member is a nested tree or a tasklet as in :func:`_map_sdfg`.

    A container named in ``private`` is a transient scalar: a tasklet writes
    it into the scope the tasklet sits in, and tasklets of that scope or of
    maps nested in it read it there.
    """
    sdfg = SDFG("nest")
    for symbol in symbols:
        sdfg.add_symbol(symbol)
    for name, (shape, dtype) in arrays.items():
        sdfg.add_array(name, shape, dtype)
    for name in private:
        sdfg.add_scalar(name, "float64", transient=True)
    state = sdfg.add_state("s0", is_start_state=True)
    outside, bound, entered, left = {}, {}, set(), set()

    def build(tree, scopes):
        dims, members = tree
        entry, exit_node = state.add_map("m", list(dims), list(dims.values()))
        if scopes:
            state.add_nedge(scopes[-1][0], entry)
        scopes = scopes + [(entry, exit_node)]
        for member in members:
            if isinstance(member[0], dict):
                build(member, scopes)
                continue
            code, inputs, (data, index, wcr) = member
            tasklet = state.add_tasklet("t", list(inputs), ["_out"], code)
            if not inputs:
                state.add_nedge(entry, tasklet)
            for connector, (source, read_index) in inputs.items():
                memlet = Memlet.simple(source, read_index or "0")
                node, depth = bound.get(source) or (outside.get(source), 0)
                if node is None:
                    node = outside[source] = state.add_access(source)
                conn = None
                for scope_entry, _ in scopes[depth:]:
                    if (scope_entry, source) not in entered:
                        state.add_edge(node, conn, scope_entry, f"IN_{source}", memlet.clone())
                        entered.add((scope_entry, source))
                    node, conn = scope_entry, f"OUT_{source}"
                state.add_edge(node, conn, tasklet, connector, memlet.clone())
            write = Memlet.simple(data, index or "0", wcr=wcr)
            if data in private:
                bound[data] = (state.add_access(data), len(scopes))
                state.add_edge(tasklet, "_out", bound[data][0], None, write)
                continue
            node, conn = tasklet, "_out"
            for _, scope_exit in reversed(scopes):
                state.add_edge(node, conn, scope_exit, f"IN_{data}", write.clone())
                node, conn = scope_exit, f"OUT_{data}"
                if (scope_exit, data) in left:
                    break
                left.add((scope_exit, data))
            else:
                state.add_edge(node, conn, state.add_access(data), None, write.clone())

    build(tree, [])
    propagate_memlets_state(sdfg, state)
    return sdfg


def _nest_reference(tree, containers, symbols):
    """Run ``tree`` as the loops it stands for, one tasklet at a time, on copies."""
    containers = {name: np.copy(value) for name, value in containers.items()}
    scalars = {}

    def run(tree, names):
        dims, members = tree
        for values in itertools.product(*(rng.evaluate(names) for rng in dims.values())):
            scope = dict(names, **dict(zip(dims, values)))
            for member in members:
                if isinstance(member[0], dict):
                    run(member, scope)
                    continue
                code, inputs, (data, index, wcr) = member
                local = dict(scope, math=math)
                for connector, (source, read_index) in inputs.items():
                    local[connector] = scalars[source] if read_index is None \
                        else containers[source][eval(read_index, {}, scope)]
                exec(code, local)
                if index is None:
                    scalars[data] = local["_out"]
                    continue
                target, where = containers[data], eval(index, {}, scope)
                if wcr == "+":
                    target[where] += local["_out"]
                elif wcr == "*":
                    target[where] *= local["_out"]
                else:
                    target[where] = local["_out"]

    run(tree, dict(symbols))
    return containers


def _check_nest(tree, arrays, *, counted, private=(), symbols=None, runs=({},)):
    """Build, emit, run and compare bit for bit; returns the emitted text.

    ``counted`` is every ``codegen.python`` counter the compile moves, without
    the prefix (the nest counters as ``nests.<name>``); each of ``runs`` is
    one assignment of ``symbols``.
    """
    sdfg = _nest_sdfg(arrays, tree, symbols or (), private)
    before = PERF.snapshot()
    code = generate_code(sdfg)
    moved = {
        name[len("codegen.python"):].replace("_nests.", "nests.", 1).lstrip("."): count
        for name, count in PERF.delta_since(before).items()
        if name.startswith("codegen.python")
    }
    assert moved == counted, code
    containers = {
        name: _values(shape, dtype, seed)
        for seed, (name, (shape, dtype)) in enumerate(arrays.items())
    }
    for assignment in runs:
        expected = _nest_reference(tree, containers, assignment)
        _same_bits(_run(sdfg, containers, **assignment), expected)
    return code


def _loops(code):
    return [line.strip() for line in code.splitlines() if line.strip().startswith("for ")]


_I, _J, _K = Range(0, 6), Range(0, 5), Range(0, 4)
_NEST_ARRAYS = {
    "A": ([6, 4], "float64"), "B": ([4, 5], "float64"), "C": ([6, 5], "float64"),
    "S": ([6, 6], "float64"), "T": ([5], "float64"),
}


class TestNests:
    def test_a_multi_parameter_map_is_a_nest_of_one(self):
        code = _check_nest(
            ({"i": _I, "j": _J}, [("_out = (i * 4.0) + j", {}, ("C", "i, j", None))]),
            _NEST_ARRAYS,
            counted={"array_maps": 1, "array_maps.elementwise": 1,
                     "nests.array_nests": 1, "nests.array_nests.depth_2": 1},
        )
        assert "i = np.arange(0, 6)[:, None]\n    j = np.arange(0, 5)\n" in code
        assert "C[0:6, 0:5] = (i * 4.0) + j" in code and not _loops(code)

    @pytest.mark.parametrize("shape", ["one map", "two maps"])
    def test_transposed_in_place_write_stays_a_loop(self, shape):
        # A[i, j] = A[j, i] reads, below the diagonal, what an earlier iteration wrote.
        tasklet = ("_out = _a", {"_a": ("S", "j, i")}, ("S", "i, j", None))
        if shape == "one map":
            tree = ({"i": _I, "j": _I}, [tasklet])
            counted = {"loop_maps": 1, "refused.crosses_iterations": 1,
                       "nests.nest_refused.crosses_iterations": 1}
        else:  # refused as a nest, and the inner map alone too
            tree = ({"i": _I}, [({"j": _I}, [tasklet])])
            counted = {"loop_maps": 1, "refused.crosses_iterations": 1,
                       "nests.nest_refused.crosses_iterations": 1}
        code = _check_nest(tree, _NEST_ARRAYS, counted=counted)
        assert _loops(code) == ["for i in range(0, 6):", "for j in range(0, 6):"]

    def test_gemm_nest_folds_along_its_middle_parameter(self):
        # for i: C[i, :] *= 1.5; for k: for j: C[i, j] += A[i, k] * B[k, j]
        tree = ({"i": _I}, [
            ({"j": _J}, [("_out = 1.5", {}, ("C", "i, j", "*"))]),
            ({"k": _K}, [({"j": _J}, [
                ("_out = 0.5 * _a * _b", {"_a": ("A", "i, k"), "_b": ("B", "k, j")},
                 ("C", "i, j", "+")),
            ])]),
        ])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 2, "array_maps.updates_in_place": 1, "array_maps.reduces_in_order": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_3": 1,
        })
        assert not _loops(code) and "C[0:6, 0:5] *= 1.5" in code
        assert (
            "C[0:6, None, 0:5] = np.add.accumulate(np.concatenate((C[0:6, None, 0:5], "
            "(0.5 * A[0:6, 0:4, None]) * B[0:4, 0:5]), axis=1), axis=1)[:, -1:]"
        ) in code

    def test_fold_over_the_outer_and_inner_parameter(self):
        # T[j] moves with the middle parameter only: both others fold, in nest order.
        tree = ({"i": _I}, [({"j": _J}, [({"k": _K}, [
            ("_out = _a * _b", {"_a": ("A", "i, k"), "_b": ("B", "k, j")}, ("T", "j", "+")),
        ])])])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 1, "array_maps.reduces_in_order": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_3": 1,
        })
        assert not _loops(code) and "np.transpose(" in code and ".reshape(T[0:5].shape" in code

    def test_triangular_inner_bound_is_refused_by_name(self):
        tree = ({"i": _I}, [({"j": Range(0, "i + 1")}, [
            ("_out = _a", {"_a": ("S", "i, j")}, ("C", "i, 0", "+")),
        ])])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 1, "array_maps.reduces_in_order": 1,
            "nests.nest_refused.triangular": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_1": 1,
        })
        assert _loops(code) == ["for i in range(0, 6):"] and "S[i, 0:i + 1]" in code

    def test_a_row_rewritten_every_iteration_stays_loops(self):
        # T is one row, stored for every i: as one statement, the last row would win.
        tree = ({"i": _I}, [
            ({"j": _J}, [("_out = _a", {"_a": ("C", "i, j")}, ("T", "j", None))]),
            ({"j": _J}, [("_out = _t * 2.0", {"_t": ("T", "j")}, ("S", "i, j", None))]),
        ])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 2, "array_maps.elementwise": 2,
            "nests.nest_refused.not_injective": 1,
            "nests.array_nests": 2, "nests.array_nests.depth_1": 2,
        })
        assert _loops(code) == ["for i in range(0, 6):"]

    def test_the_next_row_read_in_another_map_stays_loops(self):
        # Iteration i reads row i + 1 before iteration i + 1 stores it.
        tree = ({"i": Range(0, 5)}, [
            ({"j": _J}, [("_out = _c", {"_c": ("C", "i, j")}, ("S", "i, j", None))]),
            ({"j": _J}, [("_out = _s * 2.0", {"_s": ("S", "i + 1, j")}, ("C", "i, j", "+"))]),
        ])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 2, "array_maps.elementwise": 1, "array_maps.updates_in_place": 1,
            "nests.nest_refused.crosses_iterations": 1,
            "nests.array_nests": 2, "nests.array_nests.depth_1": 2,
        })
        assert _loops(code) == ["for i in range(0, 5):"]

    @pytest.mark.parametrize("n", [0, -3, 4])
    def test_an_outer_range_that_may_be_empty(self, n):
        # A negative end is no empty slice: the whole nest sits under ``0 < N``.
        tree = ({"i": Range(0, "N")}, [({"j": _J}, [
            ("_out = _c * 2.0", {"_c": ("C", "i, j")}, ("S", "i, j", None)),
        ])])
        code = _check_nest(tree, _NEST_ARRAYS, symbols=["N"], runs=[{"N": n}], counted={
            "array_maps": 1, "array_maps.elementwise": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_2": 1,
        })
        assert "    if 0 < N:\n        S[0:N, 0:5] = C[0:N, 0:5] * 2.0\n" in code

    def test_an_outer_index_with_a_negative_slope(self):
        tree = ({"i": _I}, [({"j": _J}, [
            ("_out = _c + _a", {"_c": ("C", "5 - i, j"), "_a": ("A", "i, 3 - j % 4")},
             ("S", "5 - i, j", None)),
        ])])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 1, "array_maps.elementwise": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_2": 1,
        })
        assert "S[0:6, 0:5][::-1] = C[0:6, 0:5][::-1] + A[i, -1 * (j % 4) + 3]" in code

    def test_a_store_out_of_nest_order_is_transposed(self):
        tree = ({"i": _I}, [({"j": _J}, [
            ("_out = _c * 2.0", {"_c": ("C", "i, j")}, ("S", "j, i", None)),
        ])])
        code = _check_nest(tree, _NEST_ARRAYS, counted={
            "array_maps": 1, "array_maps.elementwise": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_2": 1,
        })
        assert "S[0:5, 0:6].transpose(1, 0)[...] = C[0:6, 0:5] * 2.0" in code

    def test_a_private_scalar_bound_in_the_outer_body(self):
        tree = ({"i": _I}, [
            ("_out = _a * 2.0", {"_a": ("A", "i, 0")}, ("t", None, None)),
            ({"j": _J}, [("_out = _c + _t", {"_c": ("C", "i, j"), "_t": ("t", None)},
                          ("S", "i, j", None))]),
        ])
        code = _check_nest(tree, _NEST_ARRAYS, private=["t"], counted={
            "array_maps": 1, "array_maps.elementwise": 1,
            "nests.array_nests": 1, "nests.array_nests.depth_2": 1,
        })
        assert "t = A[0:6, 0] * 2.0" in code and "S[0:6, 0:5] = C[0:6, 0:5] + t[..., None]" in code

    def test_a_view_bound_after_its_container_is_written(self):
        # atax: the sums fold into A[:, 0] first, then t views the finished column.
        tree = ({"i": _I}, [
            ({"j": _J}, [("_out = _c", {"_c": ("C", "i, j")}, ("A", "i, 0", "+"))]),
            ("_out = _a", {"_a": ("A", "i, 0")}, ("t", None, None)),
            ({"j": _J}, [("_out = _c * _t", {"_c": ("C", "i, j"), "_t": ("t", None)},
                          ("T", "j", "+"))]),
        ])
        code = _check_nest(tree, _NEST_ARRAYS, private=["t"], counted={
            "array_maps": 2, "array_maps.reduces_in_order": 2,
            "nests.array_nests": 1, "nests.array_nests.depth_2": 1,
        })
        assert not _loops(code) and "    t = A[0:6, 0]\n" in code
        assert "T[None, 0:5] = np.add.accumulate(np.concatenate((T[None, 0:5], " in code

    @pytest.mark.parametrize("kernel", ["gemm", "2mm", "heat-3d"])
    def test_collapsed_maps_return_the_pinned_value(self, kernel):
        """``map-collapse`` makes multi-parameter maps: each is a nest of one."""
        with open(os.path.join(_ROOT, "benchmarks", "e2e", "sizes.json"), encoding="utf-8") as fh:
            size = json.load(fh)["kernels"][kernel]["medium"]
        spec = get_pipeline("dcir")
        spec = spec.with_passes("data", list(spec.data_passes) + ["map-collapse"])
        generated = generate_program(get_kernel(kernel, size), spec)
        assert any(len(entry.map.params) > 1 for _, entry in generated.sdfg.map_entries())
        counters = generated.report.counters
        assert counters.get("codegen.python.loop_maps", 0) == 0
        assert not [line for line in generated.code.splitlines() if line.strip().startswith("for ")]
        value = float(generated.to_result().run()["__return"])
        assert value.hex() == float.fromhex(_PINNED["medium"][f"{kernel}/dcir"]).hex()


# -- through the frontends -------------------------------------------------------------------

_C_SOURCE = """
double kernel() {
  double A[9][9]; double x[9]; double y[9]; double d[1];
  for (int i = 0; i < 9; i++) {
    x[i] = i * 0.5 - 1.0;
    for (int j = 0; j < 9; j++) A[i][j] = ((i * 7 + j * 3) % 11) * 0.25 - 1.0;
  }
  for (int i = 0; i < 9; i++) A[i][i] += 4.0;
  for (int i = 0; i < 9; i++) {
    y[i] = 0.0;
    for (int j = 0; j < i; j++) y[i] += A[i][j] * x[i - 1 - j];
  }
  for (int i = 2; i < 9; i += 3) x[i] = y[8 - i] * 2.0;
  d[0] = 0.0;
  for (int i = 0; i < 9; i++) d[0] += x[i] + y[i] * A[i][8 - i];
  return d[0];
}
"""


@program
def _traced(N=9):
    A = np.zeros((N, N))
    x = np.zeros(N)
    y = np.zeros(N)
    for i in range(N):
        x[i] = i * 0.5 - 1.0
        for j in range(N):
            A[i, j] = ((i * 7 + j * 3) % 11) * 0.25 - 1.0
    for i in range(N):
        A[i, i] += 4.0
    for i in range(N):
        for j in range(i):
            y[i] += A[i, j] * x[i - 1 - j]
    total = np.zeros(1)
    for i in range(N):
        total[0] += x[i] + y[i] * A[i, N - 1 - i]
    return total[0]


class TestThroughTheFrontends:
    def test_c_source(self):
        reference = compile_and_run(_C_SOURCE, "gcc").return_value
        for pipeline in ("dace", "dcir", "dcir+vec"):
            generated = generate_program(_C_SOURCE, pipeline)
            assert generated.report.counters.get("codegen.python.array_maps", 0) >= 5
            assert float(compile_c(_C_SOURCE, pipeline).run()["__return"]).hex() == \
                float(reference).hex()

    def test_traced_python(self):
        reference = _traced()
        for pipeline in ("dace", "dcir"):
            generated = generate_program(_traced, pipeline)
            assert generated.report.counters.get("codegen.python.array_maps", 0) >= 4
            assert float(compile_c(_traced, pipeline).run()["__return"]).hex() == \
                float(reference).hex()

    def test_vectorize_flag_changes_no_interpreted_text(self):
        for source in (_C_SOURCE, get_kernel("gemm")):
            plain, flagged = (generate_program(source, name) for name in ("dcir", "dcir+vec"))
            assert flagged.code == plain.code


# -- what a compile reports ------------------------------------------------------------------


def _benchmark_programs(preset):
    with open(os.path.join(_ROOT, "benchmarks", "e2e", "sizes.json"), encoding="utf-8") as fh:
        kernels = json.load(fh)["kernels"]
    for name, entry in sorted(kernels.items()):
        if preset not in entry or (preset == "small" and "large" not in entry):
            continue
        python = entry["class"] == "python-suite"
        yield name, (get_program if python else get_kernel)(name, entry[preset])


class TestCounted:
    def test_every_innermost_map_is_counted_once_and_named(self):
        """The 32 ``interp_run`` programs at ``medium`` under ``dcir``."""
        totals = {}
        for name, source in _benchmark_programs("medium"):
            counters = generate_program(source, "dcir").report.counters
            for key, value in counters.items():
                if key.startswith("codegen.python."):
                    totals[key] = totals.get(key, 0) + value
        arrays = totals.pop("codegen.python.array_maps")
        loops = totals.pop("codegen.python.loop_maps", 0)
        # Maps in loop nests that run on lists: tests/test_codegen_scalar_regions.py.
        listed = totals.pop("codegen.python.region_maps")
        assert (arrays, listed, loops) == (153, 4, 0) and arrays + listed == 157
        assert totals.pop("codegen.python.scalar_regions") == 6
        assert totals.pop("codegen.python.region_refused.long_maps") == 7
        kinds = {"codegen.python.array_maps." + kind.replace(" ", "_") for kind in ARRAY_KINDS}
        assert sum(totals.pop(kind) for kind in kinds) == arrays  # all three kinds occur
        assert sum(totals.values()) == loops  # each loop is refused under one name
        assert all(key.startswith("codegen.python.refused.") for key in totals)


# -- bit identity with the parent commit -----------------------------------------------------

with open(os.path.join(_ROOT, "tests", "data", "array_map_returns.json"), encoding="utf-8") as _fh:
    _PINNED = json.load(_fh)

#: Largest relative distance from the pinned value seen on a program whose
#: tasklets call a ``math.`` function (NumPy's ``exp``/``tanh``/``log`` need
#: not round as libm's do).  Observed on the recording machine: 0.
_MATH_TOLERANCE = 1e-12


def _tasklets(sdfg):
    return [node for state in sdfg.states() for node in state.nodes() if isinstance(node, Tasklet)]


@pytest.mark.parametrize("preset", ["medium", "small"])
def test_returns_are_the_parents(preset):
    """``float.hex(__return)`` per program × {``dace``, ``dcir``}, recorded at
    the parent commit (v1.11.1, loops) before the emitter changed."""
    pinned = _PINNED[preset]
    checked = 0
    for name, source in _benchmark_programs(preset):
        for pipeline in ("dace", "dcir"):
            generated = generate_program(source, pipeline)
            value = float(generated.to_result().run()["__return"])
            expected = float.fromhex(pinned[f"{name}/{pipeline}"])
            if any("math." in tasklet.code for tasklet in _tasklets(generated.sdfg)):
                assert abs(value - expected) <= _MATH_TOLERANCE * abs(expected), (name, pipeline)
            else:
                assert value.hex() == expected.hex(), (name, pipeline)
            checked += 1
    assert checked == len(pinned)


# -- the spelling table ----------------------------------------------------------------------


def _numpy(tree) -> str:
    return spell(tree, NUMPY, lambda name: (name, None), as_operand)[0]


class TestNumpyTable:
    #: One expression per ``ast`` node type, operator and call name that
    #: ``node_dtype`` types.
    TYPED = (
        ["a + b", "a - b", "a * b", "a / b", "a // b", "a % b", "a ** b", "-a", "+a", "not a",
         "a < b", "a <= b", "a > b", "a >= b", "a == b", "a != b", "a and b", "a or b",
         "a if b else 1.0", "1", "1.5", "True", "a"]
        + [f"math.{name}(a)" for name in sorted(_FLOAT_MATH - {"atan2", "pow"})]
        + ["math.atan2(a, b)", "math.pow(a, b)", "math.floor(a)", "math.ceil(a)"]
        + ["float(a)", "int(a)", "bool(a)", "abs(a)", "min(a, b)", "max(a, b)"]
    )

    @pytest.mark.parametrize("text", TYPED)
    def test_everything_typed_is_spelled_or_refused_by_name(self, text):
        tree = ast.parse(text, mode="eval").body
        assert result_dtype(tree, {"a": "float64", "b": "float64"}) is not None
        try:
            spelled = _numpy(tree)
        except LookupError as refusal:
            assert isinstance(refusal.args[0], Refused) and refusal.args[0] != "expression"
            return
        a, b = np.array([0.3, 1.7, 2.5]), np.array([1.1, 0.4, 2.5])
        vector = eval(spelled, {"np": np, "a": a, "b": b})
        for position in range(3):
            scalar = eval(text, {"math": math, "a": float(a[position]), "b": float(b[position])})
            element = vector[position] if np.ndim(vector) else vector
            assert element == pytest.approx(scalar, rel=1e-15), spelled

    def test_what_is_not_in_the_table_is_refused_as_an_expression(self):
        for text in ("a < b < 1.0", "math.gamma(a)", "round(a)", "a @ b", "pow(a, b=2)", "[a]"):
            with pytest.raises(LookupError, match="expression"):
                _numpy(ast.parse(text, mode="eval").body)

    def test_refusal_names_are_the_counter_names(self):
        refusals = {value for value in NUMPY.values() if isinstance(value, Refused)}
        assert refusals == {"power", "boolean", "conditional", "bool_cast", "min_max"}
        assert len(ARRAY_KINDS) == 3


def _c_spelling(text: str, dtype: str):
    """``(C text, dtype)`` of ``text`` over symbols ``a`` and ``b`` of ``dtype``."""
    sdfg = SDFG("table")
    for name in ("a", "b"):
        sdfg.add_symbol(name, dtype)
    return CEmitter(sdfg).render_expression(single_assignment(f"_out = {text}"), {})


class TestCTable:
    """The same constructs through the native backend's table: spelled, or
    refused with an error naming them — and what is spelled computes what
    Python computes, at values of mixed sign."""

    VALUES = {"float64": ((2.5, -1.5), (-3.0, 4.0)), "int64": ((7, -2), (-7, 3))}

    @pytest.mark.parametrize("dtype", sorted(VALUES))
    @pytest.mark.parametrize("text", TestNumpyTable.TYPED)
    def test_everything_typed_is_spelled_or_refused_naming_it(self, text, dtype):
        try:
            _, spelled_dtype = _c_spelling(text, dtype)
        except NativeCodegenError as error:
            assert isinstance(error.__cause__, Unspelled)
            assert error.__cause__.args[1] in str(error)
            return
        assert spelled_dtype == result_dtype(ast.parse(text, mode="eval").body,
                                             {"a": dtype, "b": dtype})

    def test_what_is_not_in_the_table_is_refused_naming_it(self):
        for text, name in (("a < b < 1.0", "Compare"), ("math.gamma(a)", "math.gamma"),
                           ("round(a)", "round"), ("a @ b", "MatMult"), ("pow(a, b=2)", "keyword"),
                           ("[a]", "List"), ("math.sqrt(a, b)", "math.sqrt"), ("min(a)", "min")):
            with pytest.raises(NativeCodegenError, match=name.replace(".", r"\.")):
                _c_spelling(text, "float64")

    def test_the_spellings_compute_what_python_computes(self, tmp_path, monkeypatch):
        """Every spelled construct, under both element types, in one
        translation unit beside the emitter's helpers, built by the toolchain
        every native program goes through."""
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "native"))
        functions, expected = [], []
        for dtype, values in self.VALUES.items():
            ctype = "double" if dtype == "float64" else "int64_t"
            lines = []
            for text in TestNumpyTable.TYPED:
                spelled, result = _c_spelling(text, dtype)
                lines.append(f"    out[{len(lines)}] = (double)({spelled});")
                expected.append((dtype, text, {"float64": float, "int64": int, "bool": bool}[result]))
            functions.append(
                f"void repro_{dtype}({ctype} a, {ctype} b, double *out) {{\n"
                + "\n".join(lines) + "\n}\n"
            )
        code = "".join(functions)
        helpers = "\n".join(text for name, text in _HELPERS.items() if f"{name}(" in code)
        library = ctypes.CDLL(str(compile_shared(
            f"#include <math.h>\n#include <stdint.h>\n{helpers}\n{code}", name="tasklet_table"
        )))
        compared = 0
        for dtype, values in self.VALUES.items():
            function = getattr(library, f"repro_{dtype}")
            argument = ctypes.c_double if dtype == "float64" else ctypes.c_int64
            function.argtypes = [argument, argument, ctypes.POINTER(ctypes.c_double)]
            function.restype = None
            cases = [case for case in expected if case[0] == dtype]
            for a, b in values:
                out = (ctypes.c_double * len(cases))()
                function(a, b, out)
                for (_, text, convert), value in zip(cases, out):
                    try:
                        scalar = eval(text, {"math": math, "a": a, "b": b})
                    except (ArithmeticError, ValueError):
                        continue  # outside the domain: Python raises where C returns NaN
                    assert value == pytest.approx(float(convert(scalar)), rel=1e-15), \
                        f"{text} at a={a}, b={b}"
                    compared += 1
        assert compared > 130
