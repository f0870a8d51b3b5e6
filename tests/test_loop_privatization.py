"""A private scalar holds no loop back.

``LoopToMap`` raises a loop whose only shared containers are scalars that
each iteration writes before it reads and that nothing reads after the loop
(:func:`~repro.sdfg.analysis.private_scalars`), and a loop that reads an
element only where it writes it; :meth:`LoopToMap.refusal` names why any
other loop stays one (``transforms.loops_left.<name>`` per compile).  The
interpreted emitter carries a private through the array form as one value
per iteration.  The programs here run through the six registered pipelines
on both backends against plain NumPy; the maps and the two-level loop are
built by hand where the frontends cannot reach a case — both keep a C or
Python local in a one-element array, so a scalar that carries a value
exists only as a transient the bridge made.
"""

import numpy as np
import pytest

from repro import compile_c, generate_program, get_pipeline, program
from repro.codegen import have_compiler
from repro.codegen.sdfg_c import generate_c_code
from repro.codegen.sdfg_python import CompiledSDFG, generate_code
from repro.codegen.toolchain import CompiledNative
from repro.passbase import PassRunner
from repro.perf import PERF
from repro.pipeline import PAPER_PIPELINES
from repro.sdfg import (
    SDFG, InterstateEdge, Memlet, live_containers_per_state, private_scalars,
    propagate_memlets_state,
)
from repro.sdfg.analysis import scalar_uses
from repro.symbolic import Range
from repro.transforms import LoopToMap, StateFusion, find_loops, loops_left
from repro.workloads.python_suite import get_program

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")


def _loops_left(source):
    """``transforms.loops_left.*`` of one ``dcir`` compile, without the prefix."""
    prefix = "transforms.loops_left."
    counters = generate_program(source, "dcir").report.counters
    return {name[len(prefix):]: count for name, count in counters.items()
            if name.startswith(prefix)}


@program
def carried(N=16):
    A = np.zeros(N)
    B = np.zeros(N)
    for i in range(N):
        A[i] = (i % 5) * 0.5 - 1.0
    s = 0.0
    for i in range(N):
        s = 0.5 * s + A[i]
        B[i] = s
    total = 0.0
    for i in range(N):
        total += B[i] * (i + 1)
    return total


@program
def last_value(N=16):
    A = np.zeros(N)
    B = np.zeros(N)
    for i in range(N):
        A[i] = (i % 7) * 0.25 - 0.5
    t = 0.0
    for i in range(N):
        t = A[i] * A[i] + 1.0
        B[i] = t * 2.0 - t
    total = t
    for i in range(N):
        total += B[i]
    return total


@program
def doubled(N=16):
    A = np.zeros(N)
    for i in range(N):
        A[i] = (i % 3) * 0.5 + 0.25
    for i in range(N):
        A[i] = A[i] * 2.0
    total = 0.0
    for i in range(N):
        total += A[i] * (i + 1)
    return total


@program
def shifted(N=16):
    A = np.zeros(N)
    for i in range(N):
        A[i] = (i % 3) * 0.5 + 0.25
    for i in range(N - 1):
        A[i] = A[i + 1]
    total = 0.0
    for i in range(N):
        total += A[i] * (i + 1)
    return total


PROGRAMS = {
    "carried": carried, "last_value": last_value, "doubled": doubled, "shifted": shifted,
    "heat1d": get_program("heat1d", {"N": 24, "T": 3}),
}


@pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_cc)])
@pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_pipeline_computes_what_numpy_does(name, pipeline, backend):
    source = PROGRAMS[name]
    spec = get_pipeline(pipeline).with_codegen(backend=backend)
    result = compile_c(source, spec)
    if spec.bridge:
        assert result.backend == backend, result.backend_diagnostic
    assert result.run()["__return"] == pytest.approx(source(), rel=1e-12, abs=1e-12)


class TestWhatRaises:
    def test_an_element_read_where_it_is_written(self):
        """``A[i] = A[i] * 2``: every memlet of ``A`` agrees on ``i``."""
        assert _loops_left(doubled) == {}

    def test_heat1d_keeps_only_its_time_loop(self):
        """The stencil's private ``_load`` is written first in each iteration
        of a loop nested in the time loop: once liveness kills it there, it
        is dead after its loop, which raises."""
        heat1d = PROGRAMS["heat1d"]
        assert _loops_left(heat1d) == {"writes_collide": 1}
        code = generate_program(heat1d, "dcir").code
        assert sum(line.lstrip().startswith("while") for line in code.splitlines()) == 1

    @pytest.mark.parametrize("name", ["mish", "gelu", "silu"])
    def test_the_activations_leave_no_loop(self, name):
        code = generate_program(get_program(name, {"N": 64}), "dcir").code
        assert not any(line.lstrip().startswith("while") for line in code.splitlines())


class TestWhatStaysALoop:
    @pytest.mark.parametrize("source", [carried, last_value])
    def test_a_local_kept_in_memory_is_an_array_both_iterations_touch(self, source):
        """The frontends keep ``s``/``t`` in a one-element array: a loop that
        stores it in every iteration collides with itself."""
        assert _loops_left(source) == {"writes_collide": 1}

    def test_a_read_of_the_next_element_collides(self):
        """``A[i] = A[i + 1]``: iteration ``i + 1`` stores what ``i`` reads."""
        assert _loops_left(shifted) == {"writes_collide": 1}


# -- the array form carries a private ---------------------------------------------------------


def _view_map(zero_first):
    """``s = A[i]; B[i] = s * s + 1.0`` as one map over 16, with ``s`` a private
    scalar; ``zero_first`` stores ``A[i] = 0.0`` between the two."""
    sdfg = SDFG("view")
    sdfg.add_array("A", [16], "float64")
    sdfg.add_array("B", [16], "float64")
    sdfg.add_scalar("s", "float64")
    state = sdfg.add_state("s0", is_start_state=True)
    entry, exit_node = state.add_map("m", ["i"], [Range(0, 16)])
    state.add_edge(state.add_access("A"), None, entry, "IN_A", Memlet.simple("A", "0:16"))
    load = state.add_tasklet("load", ["_a"], ["_out"], "_out = _a")
    state.add_edge(entry, "OUT_A", load, "_a", Memlet.simple("A", "i"))
    private = state.add_access("s")
    state.add_edge(load, "_out", private, None, Memlet(data="s"))
    use = state.add_tasklet("use", ["_x", "_y"], ["_out"], "_out = _x * _y + 1.0")
    state.add_edge(private, None, use, "_x", Memlet(data="s"))
    state.add_edge(private, None, use, "_y", Memlet(data="s"))
    state.add_edge(use, "_out", exit_node, "IN_B", Memlet.simple("B", "i"))
    written = ["B"]
    if zero_first:
        zero = state.add_tasklet("zero", [], ["_out"], "_out = 0.0")
        state.add_nedge(private, zero)
        state.add_nedge(zero, use)
        state.add_edge(zero, "_out", exit_node, "IN_A", Memlet.simple("A", "i"))
        written.append("A")
    for data in written:
        state.add_edge(exit_node, f"OUT_{data}", state.add_access(data), None,
                       Memlet.simple(data, "0:16"))
    propagate_memlets_state(sdfg, state)
    return sdfg


def _counted_codegen(sdfg):
    before = PERF.snapshot()
    code = generate_code(sdfg)
    counted = {
        name[len("codegen.python."):]: count
        for name, count in PERF.delta_since(before).items()
        if name.startswith("codegen.python.")
    }
    return code, counted


def _outputs(sdfg, **arrays):
    """Interpreted and (with a compiler) native outputs of ``sdfg``."""
    copies = lambda: {name: np.copy(value) for name, value in arrays.items()}
    outputs = [CompiledSDFG.from_code(generate_code(sdfg)).run(**copies())]
    if have_compiler():
        outputs.append(CompiledNative.from_code(generate_c_code(sdfg)).run(**copies()))
    return outputs


class TestTheArrayFormCarriesThePrivate:
    VALUES = np.linspace(-1.5, 2.5, 16)

    def test_the_private_is_the_slice_it_binds(self):
        code, counted = _counted_codegen(_view_map(zero_first=False))
        assert counted == {"array_maps": 1, "array_maps.elementwise": 1}, code
        assert "    s = A[0:16]\n    B[0:16] = (s * s) + 1.0\n" in code
        for output in _outputs(_view_map(zero_first=False), A=self.VALUES, B=np.zeros(16)):
            assert np.array_equal(output["B"], self.VALUES * self.VALUES + 1.0)

    def test_a_view_whose_source_the_map_writes_stays_a_loop(self):
        # As arrays, s would be a view of A and read the zeros.
        code, counted = _counted_codegen(_view_map(zero_first=True))
        assert counted == {"loop_maps": 1, "refused.aliased_value": 1}, code
        for output in _outputs(_view_map(zero_first=True), A=self.VALUES, B=np.zeros(16)):
            assert np.array_equal(output["B"], self.VALUES * self.VALUES + 1.0)
            assert not output["A"].any()


# -- liveness on a hand-built two-level loop --------------------------------------------------


def _nest(read_first=False, read_after=False):
    """``for i < 3: for j < 4: s = A[i, j]; B[i, j] = s * s + s`` as a state
    machine.  ``read_first`` computes ``B`` from ``s`` before storing it (the
    previous iteration's value), ``read_after`` copies the last ``s`` into
    ``C`` after both loops."""
    sdfg = SDFG("nest")
    for name, shape in (("A", [3, 4]), ("B", [3, 4]), ("C", [1])):
        sdfg.add_array(name, shape, "float64")
    sdfg.add_scalar("s", "float64")
    init = sdfg.add_state("init", is_start_state=True)
    outer, row, inner, body, step, done = (
        sdfg.add_state(label) for label in ("outer", "row", "inner", "body", "step", "done")
    )
    sdfg.add_edge(init, outer, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(outer, row, InterstateEdge(condition="i < 3"))
    sdfg.add_edge(row, inner, InterstateEdge(assignments={"j": 0}))
    sdfg.add_edge(inner, body, InterstateEdge(condition="j < 4"))
    sdfg.add_edge(body, inner, InterstateEdge(assignments={"j": "j + 1"}))
    sdfg.add_edge(inner, step, InterstateEdge(condition="not (j < 4)"))
    sdfg.add_edge(step, outer, InterstateEdge(assignments={"i": "i + 1"}))
    sdfg.add_edge(outer, done, InterstateEdge(condition="not (i < 3)"))
    use = body.add_tasklet("use", ["_x", "_y"], ["_out"], "_out = _x * _y + _x")
    stale = body.add_access("s") if read_first else None
    load = body.add_tasklet("load", ["_a"], ["_out"], "_out = _a")
    body.add_edge(body.add_access("A"), None, load, "_a", Memlet.simple("A", "i, j"))
    stored = body.add_access("s")
    body.add_edge(load, "_out", stored, None, Memlet(data="s"))
    for connector in ("_x", "_y"):
        body.add_edge(stale or stored, None, use, connector, Memlet(data="s"))
    body.add_edge(use, "_out", body.add_access("B"), None, Memlet.simple("B", "i, j"))
    if read_after:
        copy = done.add_tasklet("copy", ["_x"], ["_out"], "_out = _x")
        done.add_edge(done.add_access("s"), None, copy, "_x", Memlet(data="s"))
        done.add_edge(copy, "_out", done.add_access("C"), None, Memlet.simple("C", "0"))
    return sdfg, body


def _loop(sdfg, guard):
    return next(loop for loop in find_loops(sdfg) if loop.guard.label == guard)


class TestLiveness:
    def test_the_body_stores_s_before_it_reads_it(self):
        sdfg, body = _nest()
        use = scalar_uses(sdfg, body)["s"]
        assert (len(use.nodes), use.exposed, use.killed) == (1, False, True)
        sdfg, body = _nest(read_first=True)
        use = scalar_uses(sdfg, body)["s"]
        assert (len(use.nodes), use.exposed, use.killed) == (2, True, False)

    def test_a_nested_private_is_dead_after_its_loop(self):
        """Reading ``s`` in the body once kept it live around both back edges."""
        sdfg, body = _nest()
        live = live_containers_per_state(sdfg)
        assert not any("s" in names for names in live.values())
        assert private_scalars(sdfg, body, body.nodes(), live) == {"s"}
        assert LoopToMap.refusal(_loop(sdfg, "inner"), live) is None
        assert LoopToMap.refusal(_loop(sdfg, "outer"), live) == "multi_state_body"

    def test_a_read_after_the_nest_keeps_the_last_value_live(self):
        sdfg, body = _nest(read_after=True)
        live = live_containers_per_state(sdfg)
        assert "s" in live[body]
        assert private_scalars(sdfg, body, body.nodes(), live) == set()
        assert LoopToMap.refusal(_loop(sdfg, "inner"), live) == "live_after_loop"
        assert loops_left(sdfg) == {"live_after_loop": 1, "multi_state_body": 1}

    def test_a_read_before_the_store_carries_a_value(self):
        sdfg, body = _nest(read_first=True)
        live = live_containers_per_state(sdfg)
        assert "s" in live[body]
        assert LoopToMap.refusal(_loop(sdfg, "inner"), live) == "carried_scalar"

    @pytest.mark.parametrize("read_first", [False, True])
    def test_what_raises_computes_what_the_loops_did(self, read_first):
        sdfg, _ = _nest(read_first=read_first)
        PassRunner([StateFusion(), LoopToMap()], max_iterations=4).run(sdfg)
        assert bool(find_loops(sdfg)) is read_first
        A = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
        expected = A * A + A
        if read_first:
            previous = np.concatenate(([0.0], A.ravel()[:-1])).reshape(3, 4)
            expected = previous * previous + previous
        for output in _outputs(sdfg, A=A, B=np.zeros((3, 4)), C=np.zeros(1)):
            assert np.array_equal(output["B"], expected)
