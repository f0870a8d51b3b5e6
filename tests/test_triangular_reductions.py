"""A read that never reaches the updated element holds no loop back.

Update detection, ``LoopToMap``, the parallelism proof and the interpreted
array form ask one question (:func:`~repro.sdfg.analysis.may_meet`): over
the ranges of the loops and maps around two accesses, can one ever reach an
element the other touches — with ``carried``, in two iterations that differ
in those names?  The counted loops around a state bound their induction
variables (:func:`~repro.transforms.loop_analysis.induction_ranges`), so
``j < i`` around ``for k < j`` proves that lu's ``A[k][j]`` is never
``A[i][j]``.  The state machines here are built by hand, one loop per
level, and run on both backends against the loops executed in Python; the
four triangular PolyBench kernels run through every pipeline against the
``gcc`` reference.
"""

import numpy as np
import pytest

from repro import compile_and_run, compile_c, generate_program, get_pipeline
from repro.codegen import have_compiler
from repro.codegen.sdfg_c import generate_c_code
from repro.codegen.sdfg_python import CompiledSDFG, generate_code
from repro.codegen.toolchain import CompiledNative
from repro.passbase import PassRunner
from repro.pipeline import PAPER_PIPELINES
from repro.sdfg import SDFG, InterstateEdge, Memlet
from repro.sdfg.analysis import Site, may_meet
from repro.symbolic import Range, Subset, parse_expr
from repro.symbolic.ranges import upper_bound
from repro.transforms import AugAssignToWCR, LoopToMap, find_loops, loops_left
from repro.transforms.loop_analysis import induction_ranges
from repro.workloads import get_kernel

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")


# -- the predicate ------------------------------------------------------------------------------


class TestThePredicate:
    BOUNDS = {"k": Range("i + 1", "N"), "i": Range(0, "N")}

    def test_the_innermost_symbol_goes_first(self):
        assert upper_bound(parse_expr("i + 1 - k"), self.BOUNDS) == 0
        assert upper_bound(parse_expr("k - i"), self.BOUNDS) is None  # N - 1 is no literal
        assert upper_bound(parse_expr("(k * k) - i"), self.BOUNDS) is None  # not affine in k

    def test_rows_below_the_updated_one(self):
        read = Site(Subset.parse("k, j"), self.BOUNDS)
        write = Site(Subset.parse("i, j"), {"i": Range(0, "N")})
        assert not may_meet(read, write, apart={"k"})
        # Over every i as well, row k of one iteration is row i of another.
        assert may_meet(read, write, apart={"i", "k"})

    def test_a_prefix_sum_meets_only_across_iterations(self):
        ranges = {"i": Range(1, "N")}
        read, write = Site(Subset.parse("i - 1"), ranges), Site(Subset.parse("i"), ranges)
        assert not may_meet(read, write, apart=())
        assert may_meet(read, write, apart={"i"})

    def test_what_cannot_be_shown_may_meet(self):
        ranges = {"k": Range("M", "N")}
        assert may_meet(Site(Subset.parse("k"), ranges), Site(Subset.parse("i"), {}), apart={"k"})
        assert may_meet(Site(None, ranges), Site(Subset.parse("i"), {}), apart={"k"})

    def test_a_symbol_apart_without_a_range_may_take_any_value(self):
        read, write = Site(Subset.parse("i"), {}), Site(Subset.parse("i + 1"), {})
        assert not may_meet(read, write, apart=())
        assert may_meet(read, write, apart={"i"})

    def test_a_tile_ends_before_the_next_one_starts(self):
        tiles = {"p": Range(0, "N", 8), "i": Range("p", "min(p + 8, N)")}
        assert upper_bound(parse_expr("i - p"), tiles) == 7  # either argument of the min bounds it
        back = {"p": Range(0, "N"), "i": Range("max(p - 8, 0)", "p")}
        assert upper_bound(parse_expr("p - i"), back) == 8
        tile = Site(Subset.parse("i"), tiles)
        assert not may_meet(tile, tile, apart={"i"}, carried=("p",))


class TestCarried:
    """``may_meet(..., carried=)``: in two iterations that differ in the
    carried names, never in one."""

    RANGES = {"i": Range(0, "N")}

    @pytest.mark.parametrize("first, second", [
        ("i", "i + 1"),   # the first meets the second one iteration later
        ("i + 1", "i"),   # and one iteration earlier
    ])
    def test_each_direction(self, first, second):
        one, other = (Site(Subset.parse(index), self.RANGES) for index in (first, second))
        assert may_meet(one, other, (), carried=("i",))
        assert not may_meet(one, other, (), carried=())  # no iteration meets itself

    def test_one_iteration_is_not_two(self):
        store = Site(Subset.parse("i"), self.RANGES)
        assert may_meet(store, store, apart=())
        assert not may_meet(store, store, (), carried=("i",))

    def test_even_and_odd_elements(self):
        even, odd = (Site(Subset.parse(index), self.RANGES) for index in ("2*i", "2*i + 1"))
        assert not may_meet(even, odd, (), carried=("i",))
        assert may_meet(even, Site(Subset.parse("2*i + 2"), self.RANGES), (), carried=("i",))

    @pytest.mark.parametrize("start, meet", [("i", False), ("0", True)])
    def test_a_row_and_a_column_from_the_diagonal_on(self, start, meet):
        """Over ``j >= i``, ``C[i][j']`` is ``C[j][i]`` only where ``j' = i = j``."""
        ranges = {"j": Range(start, "M")}
        row, column = Site(Subset.parse("i, j"), ranges), Site(Subset.parse("j, i"), ranges)
        assert may_meet(row, column, (), carried=("j",)) is meet
        assert may_meet(column, row, (), carried=("j",)) is meet

    def test_outer_levels_hold_inner_ones_vary(self):
        ranges = {"i": Range(0, "N"), "j": Range(0, "N")}
        point, diagonal = Site(Subset.parse("i, j"), ranges), Site(Subset.parse("i + j"), ranges)
        assert not may_meet(point, point, (), carried=("i", "j"))
        assert may_meet(diagonal, diagonal, (), carried=("i", "j"))
        # With ``j`` apart, not carried, one ``i`` may hold two values of ``j``.
        assert not may_meet(point, point, {"j"}, carried=("i",))
        assert may_meet(Site(Subset.parse("i"), ranges), Site(Subset.parse("i"), ranges),
                        {"j"}, carried=())

    def test_a_carried_name_without_a_range(self):
        """A loop whose bounds are no fact still moves its induction."""
        shift, point = Site(Subset.parse("i + 1"), {}), Site(Subset.parse("i"), {})
        assert may_meet(shift, point, (), carried=("i",))
        assert not may_meet(point, point, (), carried=("i",))


# -- hand-built loop nests ----------------------------------------------------------------------


def _nest(levels, arrays, *tasklets):
    """``for name in [start, end)`` for each ``(name, start, end)`` of
    ``levels``, outermost first, one state per level, around one state that
    runs ``tasklets`` in order — each ``(code, {connector: (data, index)},
    (data, index, wcr))``."""
    sdfg = SDFG("nest")
    sdfg.add_symbol("M")
    for name, shape in arrays.items():
        sdfg.add_array(name, shape, "float64")
    before = sdfg.add_state("init", is_start_state=True)
    guards = []
    for name, start, end in levels:
        guard = sdfg.add_state(f"guard_{name}")
        sdfg.add_edge(before, guard, InterstateEdge(assignments={name: start}))
        before = sdfg.add_state(f"in_{name}")
        sdfg.add_edge(guard, before, InterstateEdge(condition=f"{name} < {end}"))
        guards.append((guard, name, end))
    for code, inputs, (data, index, wcr) in tasklets:
        node = before.add_tasklet("t", list(inputs), ["_out"], code)
        sources = {}
        for connector, (source, read_index) in inputs.items():
            if source not in sources:
                sources[source] = before.add_access(source)
            before.add_edge(sources[source], None, node, connector,
                            Memlet.simple(source, read_index))
        before.add_edge(node, "_out", before.add_access(data), None,
                        Memlet.simple(data, index, wcr=wcr))
    for guard, name, end in reversed(guards):
        sdfg.add_edge(before, guard, InterstateEdge(assignments={name: f"{name} + 1"}))
        before = sdfg.add_state(f"done_{name}")
        sdfg.add_edge(guard, before, InterstateEdge(condition=f"not ({name} < {end})"))
    return sdfg


def _reference(levels, tasklets, containers, symbols):
    """The loops of :func:`_nest`, run in Python on copies of ``containers``."""
    containers = {name: np.copy(value) for name, value in containers.items()}

    def run(depth, names):
        if depth == len(levels):
            for code, inputs, (data, index, wcr) in tasklets:
                scope = dict(names)
                for connector, (source, read_index) in inputs.items():
                    scope[connector] = containers[source][eval(read_index, {}, names)]
                exec(code, scope)
                where = eval(index, {}, names)
                if wcr == "+":
                    containers[data][where] += scope["_out"]
                else:
                    containers[data][where] = scope["_out"]
            return
        name, start, end = levels[depth]
        for value in range(eval(start, {}, names), eval(end, {}, names)):
            run(depth + 1, dict(names, **{name: value}))

    run(0, dict(symbols))
    return containers


def _check_runs(sdfg, levels, tasklets, arrays, **symbols):
    """Both backends compute, bit for bit, what the loops do."""
    containers = {
        name: np.random.default_rng(seed).uniform(0.5, 1.5, shape)
        for seed, (name, shape) in enumerate(arrays.items())
    }
    expected = _reference(levels, tasklets, containers, symbols)
    copies = lambda: {name: np.copy(value) for name, value in containers.items()}
    outputs = [CompiledSDFG.from_code(generate_code(sdfg)).run(**copies(), **symbols)]
    if have_compiler():
        outputs.append(CompiledNative.from_code(generate_c_code(sdfg)).run(**copies(), **symbols))
    for output in outputs:
        for name, value in expected.items():
            assert [x.hex() for x in np.ravel(output[name])] == \
                [x.hex() for x in np.ravel(value)], name


def _raise(sdfg):
    PassRunner([AugAssignToWCR(), LoopToMap()], max_iterations=4).run(sdfg)
    return loops_left(sdfg)


def _inner(sdfg, name):
    return next(loop for loop in find_loops(sdfg) if loop.induction_symbol == name)


_TRMM_ARRAYS = {"A": [8, 8], "B": [8]}


def _trmm(start, update=False):
    """``B[i] = B[i] + A[k][i] * B[k]`` for ``k`` in ``[start, 8)`` under
    ``i`` in ``[0, 8)``; ``update`` builds it as the update ``B[i] += …``."""
    levels = [("i", "0", "8"), ("k", start, "8")]
    reads = {"_in1": ("A", "k, i"), "_in2": ("B", "k")}
    if update:
        tasklet = ("_out = (_in1 * _in2)", reads, ("B", "i", "+"))
    else:
        tasklet = ("_out = (_in0 + (_in1 * _in2))", dict(reads, _in0=("B", "i")), ("B", "i", None))
    return levels, tasklet


class TestHandBuilt:
    def test_trmm_rows_above_the_target_raise(self):
        levels, tasklet = _trmm("i + 1")
        sdfg = _nest(levels, _TRMM_ARRAYS, tasklet)
        assert loops_left(sdfg) == {"writes_collide": 1, "multi_state_body": 1}
        # Raised, ``k`` leaves ``i`` a one-state body that updates ``B[i]``
        # where another iteration reads it.
        assert _raise(sdfg) == {"reads_what_it_writes": 1}
        _check_runs(sdfg, levels, [tasklet], _TRMM_ARRAYS)

    def test_trmm_rows_from_the_target_on_meet_it(self):
        """``k = i`` reads the element being updated: no update, no map."""
        levels, tasklet = _trmm("i")
        sdfg = _nest(levels, _TRMM_ARRAYS, tasklet)
        assert not AugAssignToWCR().apply(sdfg)
        assert _raise(sdfg) == {"writes_collide": 1, "multi_state_body": 1}
        _check_runs(sdfg, levels, [tasklet], _TRMM_ARRAYS)

    @pytest.mark.parametrize("start, refusal", [
        ("i + 1", None),
        ("i", "reads_what_it_writes"),   # k = i reads what the update writes
        ("M", "reads_what_it_writes"),   # nothing bounds M against i
    ])
    def test_an_update_that_reads_its_target(self, start, refusal):
        levels, tasklet = _trmm(start, update=True)
        sdfg = _nest(levels, _TRMM_ARRAYS, tasklet)
        assert LoopToMap.refusal(_inner(sdfg, "k")) == refusal

    def test_a_bound_it_cannot_decide_stays_a_loop(self):
        levels, tasklet = _trmm("M")
        sdfg = _nest(levels, _TRMM_ARRAYS, tasklet)
        assert not AugAssignToWCR().apply(sdfg)
        assert _raise(sdfg) == {"writes_collide": 1, "multi_state_body": 1}
        for m in (0, 3):
            _check_runs(sdfg, levels, [tasklet], _TRMM_ARRAYS, M=m)

    @pytest.mark.parametrize("columns, left", [
        # j < i: A[k][j] is never A[i][j]; raised, k leaves j reading A[i][k]
        ("i", {"reads_what_it_writes": 1, "multi_state_body": 1}),
        ("8", {"writes_collide": 1, "multi_state_body": 2}),  # k = i < j reads A[i][j]
    ])
    def test_lu_raises_only_below_the_diagonal(self, columns, left):
        levels = [("i", "0", "8"), ("j", "0", columns), ("k", "0", "j")]
        tasklet = ("_out = (_in0 - (_in1 * _in2))",
                   {"_in0": ("A", "i, j"), "_in1": ("A", "i, k"), "_in2": ("A", "k, j")},
                   ("A", "i, j", None))
        sdfg = _nest(levels, {"A": [8, 8]}, tasklet)
        ranges = induction_ranges(sdfg, find_loops(sdfg))
        body = next(state for state in sdfg.states() if state.label == "in_k")
        assert ranges[body]["j"] == Range(0, columns)
        assert _raise(sdfg) == left
        _check_runs(sdfg, levels, [tasklet], {"A": [8, 8]})

    def test_a_shift_whose_loop_is_no_fact_stays_a_loop(self):
        """The entry also sets the bound ``n``, so the loop's range is no fact
        (:func:`induction_ranges`); ``i`` still differs between iterations,
        and ``A[i]`` of one is ``A[i + 1]`` of the one before."""
        levels, arrays = [("i", "0", "n")], {"A": [8]}
        tasklet = ("_out = _in0", {"_in0": ("A", "i")}, ("A", "i + 1", None))
        sdfg = _nest(levels, arrays, tasklet)
        entry = next(edge for edge in sdfg.edges() if edge.src.label == "init")
        entry.data.assignments["n"] = parse_expr("M")
        assert not induction_ranges(sdfg, find_loops(sdfg))
        assert LoopToMap.refusal(_inner(sdfg, "i")) == "writes_collide"
        assert _raise(sdfg) == {"writes_collide": 1}
        _check_runs(sdfg, [("i", "0", "M")], [tasklet], arrays, M=7)

    @pytest.mark.parametrize("start, refusal, left", [
        ("i", None, {}),  # raised, j leaves i storing row i and column i from i on
        # One dimension at a time, row and column meet in two iterations.
        ("0", "writes_collide", {"writes_collide": 1, "multi_state_body": 1}),
    ])
    def test_covariance_stores_a_row_and_a_column(self, start, refusal, left):
        """``C[i][j] = …; C[j][i] = …`` over ``j`` in ``[start, 8)``: from the
        diagonal on, the two stores meet only where ``j = i``, in one
        iteration."""
        levels = [("i", "0", "8"), ("j", start, "8")]
        tasklets = [("_out = _in0", {"_in0": ("A", "i, j")}, ("C", "i, j", None)),
                    ("_out = (_in0 * 2.0)", {"_in0": ("A", "i, j")}, ("C", "j, i", None))]
        arrays = {"A": [8, 8], "C": [8, 8]}
        sdfg = _nest(levels, arrays, *tasklets)
        assert LoopToMap.refusal(_inner(sdfg, "j")) == refusal
        assert _raise(sdfg) == left
        _check_runs(sdfg, levels, tasklets, arrays)

    def test_a_loop_that_moves_its_bound_tells_nothing(self):
        levels, tasklet = _trmm("i + 1")
        sdfg = _nest(levels, _TRMM_ARRAYS, tasklet)
        latch = next(edge for edge in sdfg.edges() if edge.data.assignments.get("k") is not None
                     and edge.src.label == "in_k")
        latch.data.assignments["i"] = parse_expr("i")
        assert "k" not in induction_ranges(sdfg, find_loops(sdfg)).get(latch.src, {})


# -- the triangular PolyBench kernels -----------------------------------------------------------


_SIZES = {"cholesky": {"N": 8}, "lu": {"N": 8}, "trisolv": {"N": 12}, "trmm": {"M": 8, "N": 9}}


def _loops_left(source):
    prefix = "transforms.loops_left."
    counters = generate_program(source, "dcir").report.counters
    return {name[len(prefix):]: count for name, count in counters.items()
            if name.startswith(prefix)}


@pytest.mark.parametrize("kernel, left", [
    ("cholesky", {"writes_collide": 1, "multi_state_body": 1}),
    ("lu", {"writes_collide": 1, "multi_state_body": 1}),
    ("trisolv", {"writes_collide": 1}),
    ("trmm", {"writes_collide": 1}),
])
def test_loops_left(kernel, left):
    assert _loops_left(get_kernel(kernel, _SIZES[kernel])) == left


@pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_cc)])
@pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
@pytest.mark.parametrize("kernel", sorted(_SIZES))
def test_every_pipeline_computes_the_reference(kernel, pipeline, backend):
    source = get_kernel(kernel, _SIZES[kernel])
    spec = get_pipeline(pipeline).with_codegen(backend=backend)
    result = compile_c(source, spec)
    if spec.bridge:
        assert result.backend == backend, result.backend_diagnostic
    expected = compile_and_run(source, "gcc").return_value
    assert result.run()["__return"] == pytest.approx(expected, rel=1e-12)
