"""A private scalar or array holds no loop back.

``LoopToMap`` raises a loop whose only shared containers are scalars and
transient arrays that each iteration stores whole before it reads and that
nothing reads after the loop
(:func:`~repro.sdfg.analysis.private_containers`), and a loop that reads an
element only where it writes it; :meth:`LoopToMap.refusal` names why any
other loop stays one (``transforms.loops_left.<name>`` per compile).  The
interpreted emitter carries a private scalar through the array form as one
value per iteration, a private array as one copy per iteration.  The
programs here run through the six registered pipelines on both backends
against plain NumPy; the maps and the loops are built by hand where the
frontends cannot reach a case — both keep a C or Python local in a
one-element array, so a scalar that carries a value exists only as a
transient the bridge made.
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
    SDFG, AccessNode, Array, InterstateEdge, Memlet, SCHEDULE_PARALLEL, live_containers_per_state,
    private_containers, propagate_memlets_state,
)
from repro.sdfg.analysis import container_uses
from repro.sdfg.nodes import MapExit
from repro.sdfg.parallelism import analyze_map_parallelism
from repro.symbolic import Range
from repro.transforms import LoopToMap, StateFusion, find_loops, loops_left
from repro.workloads import get_kernel, kernel_names
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
        is dead after its loop, which raises.  Its maps are short, so the
        time loop runs them on lists: one loop header in the program's body."""
        heat1d = PROGRAMS["heat1d"]
        assert _loops_left(heat1d) == {"writes_collide": 1}
        code = generate_program(heat1d, "dcir").code
        assert [line for line in code.splitlines()
                if line.startswith(("    while", "    for"))] == ["    for t in range(0, 3):"]

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
        use = container_uses(sdfg, body)["s"]
        assert (len(use.nodes), use.exposed, use.killed) == (1, False, True)
        sdfg, body = _nest(read_first=True)
        use = container_uses(sdfg, body)["s"]
        assert (len(use.nodes), use.exposed, use.killed) == (2, True, False)

    def test_a_nested_private_is_dead_after_its_loop(self):
        """Reading ``s`` in the body once kept it live around both back edges."""
        sdfg, body = _nest()
        live = live_containers_per_state(sdfg)
        assert not any("s" in names for names in live.values())
        assert private_containers(sdfg, body, body.nodes(), live) == {"s"}
        assert LoopToMap.refusal(_loop(sdfg, "inner"), live) is None
        assert LoopToMap.refusal(_loop(sdfg, "outer"), live) == "multi_state_body"

    def test_a_read_after_the_nest_keeps_the_last_value_live(self):
        sdfg, body = _nest(read_after=True)
        live = live_containers_per_state(sdfg)
        assert "s" in live[body]
        assert private_containers(sdfg, body, body.nodes(), live) == set()
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


# -- private arrays ---------------------------------------------------------------------------


def _scratch(read_first=False, stored=4, live_after=False):
    """``for i < 3: t[k] = A[i, k] * 2.0 for k < stored; B[i, j] = t[j] + 1.0
    for j < 3`` as a state machine whose loop body is one state, with ``t``
    a transient of four elements.  ``read_first`` reads ``t`` before it
    stores it, ``live_after`` copies the last ``t`` into ``C`` after the
    loop.  ``stored`` may be a symbol (``"M"``, with ``t``, ``A`` and ``B``
    that long): a map over it may run zero times."""
    size = stored if isinstance(stored, str) else 4
    sdfg = SDFG("scratch")
    sdfg.add_array("A", [3, size], "float64")
    sdfg.add_array("B", [3, size], "float64")
    sdfg.add_array("C", [size], "float64")
    sdfg.add_array("t", [size], "float64", transient=True)
    init, guard, body, done = (sdfg.add_state(label) for label in ("init", "guard", "body", "done"))
    sdfg.start_state = init
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(guard, body, InterstateEdge(condition="i < 3"))
    sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1"}))
    sdfg.add_edge(guard, done, InterstateEdge(condition="not (i < 3)"))

    def mapped(param, stop, source, read, target, write, code):
        _, entry, exit_node = body.add_mapped_tasklet(
            f"map_{param}", {param: Range(0, stop)}, {"_a": Memlet.simple(source, read)}, code,
            {"_out": Memlet.simple(target, write)}, external_edges=False,
        )
        return entry, exit_node

    def store():
        entry, exit_node = mapped("k", stored, "A", "i, k", "t", "k", "_out = _a * 2.0")
        body.add_edge(body.add_access("A"), None, entry, "IN_A", Memlet.simple("A", "i, 0:4"))
        written = body.add_access("t")
        body.add_edge(exit_node, "OUT_t", written, None, Memlet.simple("t", "0:4"))
        return written

    def load(source):
        entry, exit_node = mapped("j", 3, "t", "j", "B", "i, j", "_out = _a + 1.0")
        body.add_edge(source, None, entry, "IN_t", Memlet.simple("t", "0:3"))
        body.add_edge(exit_node, "OUT_B", body.add_access("B"), None, Memlet.simple("B", "i, 0:3"))

    if read_first:
        load(body.add_access("t"))
        store()
    else:
        load(store())
    propagate_memlets_state(sdfg, body)
    if live_after:
        copy = done.add_tasklet("copy", ["_x"], ["_out"], "_out = _x")
        done.add_edge(done.add_access("t"), None, copy, "_x", Memlet.simple("t", "1"))
        done.add_edge(copy, "_out", done.add_access("C"), None, Memlet.simple("C", "0"))
    return sdfg, body


def _sums(update="p", store_first=True):
    """``for i < 3: for p < 4: (t[p] = 0.0; for s < 4: t[<update>] += A[i, s] * C[s, p])``
    and ``B[i, j] = t[j]`` for ``j < 4``, in one loop body: doitgen's
    ``sumv``, stored inside the map that goes on to update it.  Without
    ``store_first`` the ``s`` map comes first in program order."""
    sdfg = SDFG("sums")
    sdfg.add_array("A", [3, 4], "float64")
    sdfg.add_array("B", [3, 4], "float64")
    sdfg.add_array("C", [4, 4], "float64")
    sdfg.add_array("t", [4], "float64", transient=True)
    init, guard, body, done = (sdfg.add_state(label) for label in ("init", "guard", "body", "done"))
    sdfg.start_state = init
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(guard, body, InterstateEdge(condition="i < 3"))
    sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1"}))
    sdfg.add_edge(guard, done, InterstateEdge(condition="not (i < 3)"))
    entry_p, exit_p = body.add_map("p", ["p"], [Range(0, 4)])
    body.add_edge(body.add_access("A"), None, entry_p, "IN_A", Memlet.simple("A", "i, 0:4"))
    body.add_edge(body.add_access("C"), None, entry_p, "IN_C", Memlet.simple("C", "0:4, 0:4"))
    def store():
        zero = body.add_tasklet("zero", [], ["_out"], "_out = 0.0")
        body.add_nedge(entry_p, zero)
        stored = body.add_access("t")
        body.add_edge(zero, "_out", stored, None, Memlet.simple("t", "p"))
        return stored

    stored = store() if store_first else None
    entry_s, exit_s = body.add_map("s", ["s"], [Range(0, 4)])
    stored = stored or store()
    add = body.add_tasklet("add", ["_a", "_c"], ["_out"], "_out = _a * _c")
    body.add_edge(entry_p, "OUT_A", entry_s, "IN_A", Memlet.simple("A", "i, 0:4"))
    body.add_edge(entry_p, "OUT_C", entry_s, "IN_C", Memlet.simple("C", "0:4, p"))
    body.add_edge(entry_s, "OUT_A", add, "_a", Memlet.simple("A", "i, s"))
    body.add_edge(entry_s, "OUT_C", add, "_c", Memlet.simple("C", "s, p"))
    body.add_edge(add, "_out", exit_s, "IN_t", Memlet.simple("t", update, wcr="+"))
    body.add_edge(exit_s, "OUT_t", exit_p, "IN_t", Memlet.simple("t", update, wcr="+"))
    body.add_nedge(stored, exit_p)
    summed = body.add_access("t")
    body.add_edge(exit_p, "OUT_t", summed, None, Memlet.simple("t", "0:4", wcr="+"))
    entry_j, exit_j = body.add_map("j", ["j"], [Range(0, 4)])
    copy = body.add_tasklet("copy", ["_a"], ["_out"], "_out = _a")
    body.add_edge(summed, None, entry_j, "IN_t", Memlet.simple("t", "0:4"))
    body.add_edge(entry_j, "OUT_t", copy, "_a", Memlet.simple("t", "j"))
    body.add_edge(copy, "_out", exit_j, "IN_B", Memlet.simple("B", "i, j"))
    body.add_edge(exit_j, "OUT_B", body.add_access("B"), None, Memlet.simple("B", "i, 0:4"))
    propagate_memlets_state(sdfg, body)
    return sdfg, body


def _compiled(source, pipeline="dcir"):
    return generate_program(source, pipeline)


def _heads(code):
    """The loop headers of generated Python."""
    return [line.strip() for line in code.splitlines() if line.lstrip().startswith(("while", "for"))]


class TestPrivateArrays:
    """A transient array each iteration stores whole before it reads, dead
    after the loop, is private: doitgen's ``sumv``, symm's ``temp2``,
    layernorm's row sums and differences."""

    @pytest.mark.parametrize("name, left", [
        ("doitgen", {}), ("symm", {"writes_collide": 1}), ("layernorm", {}),
        ("heat-3d", {"writes_collide": 1}),
    ])
    def test_what_raises(self, name, left):
        source = get_program(name) if name == "layernorm" else get_kernel(name)
        assert _loops_left(source) == left

    @pytest.mark.parametrize("name, heads", [
        ("doitgen", []), ("layernorm", []), ("symm", ["while i_1 < 28:"]),
    ])
    def test_each_nest_is_one_numpy_nest(self, name, heads):
        """symm keeps the ``i`` loop, whose iterations read rows earlier ones
        updated; inside it ``j`` and ``k`` are one nest."""
        source = get_program(name) if name == "layernorm" else get_kernel(name)
        code = _compiled(source).code
        assert _heads(code) == heads, code
        assert "_copies = np.empty((" in code

    def test_the_private_is_one_copy_per_iteration(self):
        sdfg, body = _scratch()
        live = live_containers_per_state(sdfg)
        assert not any("t" in names for names in live.values())
        use = container_uses(sdfg, body)["t"]
        assert (len(use.nodes), use.exposed, use.killed) == (1, False, True)
        assert private_containers(sdfg, body, body.nodes(), live) == {"t"}
        assert LoopToMap.refusal(find_loops(sdfg)[0], live) is None
        assert LoopToMap().apply(sdfg) and not find_loops(sdfg)
        code = generate_code(sdfg)
        assert _heads(code) == [] and "t_copies = np.empty((3, 4,), dtype=np.float64)" in code
        A = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
        expected = np.zeros((3, 4))
        expected[:, :3] = A[:, :3] * 2.0 + 1.0
        for output in _outputs(sdfg, A=A, B=np.zeros((3, 4)), C=np.zeros(4)):
            assert np.array_equal(output["B"], expected)

    def test_a_store_inside_the_map_that_updates_it(self):
        """Within one iteration of ``p`` the update reads the element the store
        wrote; doitgen's ``sumv``."""
        sdfg, body = _sums()
        assert private_containers(sdfg, body, body.nodes()) == {"t"}
        assert LoopToMap().apply(sdfg) and not find_loops(sdfg)
        assert _heads(generate_code(sdfg)) == []
        A = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
        C = np.linspace(0.5, 1.5, 16).reshape(4, 4)
        expected = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                expected[i, j] = sum(A[i, s] * C[s, j] for s in range(4))
        for output in _outputs(sdfg, A=A, B=np.zeros((3, 4)), C=C):
            assert np.array_equal(output["B"], expected)

    @pytest.mark.parametrize("case", [
        dict(update="3 - p"),      # t[3 - p] is stored by a later iteration of p
        dict(store_first=False),   # the update reads t[p] before the store
    ], ids=["another_element", "before_the_store"])
    def test_an_update_of_an_element_not_stored_yet_stays_a_loop(self, case):
        """The update reads what the last iteration of ``i`` left."""
        sdfg, body = _sums(**case)
        assert "t" not in private_containers(sdfg, body, body.nodes())
        assert LoopToMap.refusal(find_loops(sdfg)[0]) == "writes_collide"

    @pytest.mark.parametrize("case", [
        dict(read_first=True),   # the first iteration reads what was there before the loop
        dict(stored=3),          # t[3] is never stored
        dict(stored="M"),        # a map over [0, M) may run zero times
        dict(live_after=True),   # the last iteration's t is read after the loop
    ], ids=["read_first", "stored_in_part", "may_run_zero_times", "live_after"])
    def test_what_stays_a_loop(self, case):
        sdfg, body = _scratch(**case)
        assert "t" not in private_containers(sdfg, body, body.nodes())
        assert LoopToMap.refusal(find_loops(sdfg)[0]) == "writes_collide"
        assert loops_left(sdfg) == {"writes_collide": 1}


def _outer_maps(sdfg):
    """``(state, entry, private arrays its scope writes)`` of each outermost map."""
    for state, entry in sdfg.map_entries():
        scope = state.scope_dict()
        if scope.get(entry) is not None:
            continue
        inside = [node for node in state.nodes() if _within(scope, node, entry)]
        private = private_containers(sdfg, state, inside)
        written = {
            edge.data.data for node in inside if isinstance(node, (AccessNode, MapExit))
            for edge in state.in_edges(node) if not edge.data.is_empty
        }
        yield state, entry, {name for name in private & written
                             if isinstance(sdfg.arrays[name], Array)}


def _within(scope, node, entry):
    while node is not None:
        node = scope.get(node)
        if node is entry:
            return True
    return False


class TestPrivateArraysInParallel:
    """Native code keeps one copy of a private array, so a map that writes
    one stays sequential and says why; the kernels keep their bits."""

    SOURCES = {
        "doitgen": lambda: get_kernel("doitgen"), "symm": lambda: get_kernel("symm"),
        "layernorm": lambda: get_program("layernorm"),
    }

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_a_map_writing_a_private_array_stays_sequential(self, name):
        spec = get_pipeline("dcir")
        spec = spec.with_passes("data", list(spec.data_passes) + [("parallelize", {"n_threads": 2})])
        sdfg = generate_program(self.SOURCES[name](), spec).sdfg
        guarded = 0
        for state, entry, private in _outer_maps(sdfg):
            if not private:
                continue
            guarded += 1
            assert entry.map.schedule != SCHEDULE_PARALLEL
            reason = analyze_map_parallelism(sdfg, state, entry).reason
            assert reason.startswith("private array") and any(
                repr(data) in reason for data in private
            ), reason
        assert guarded == 1

    @requires_cc
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_parallel_returns_sequentials_bits(self, name, monkeypatch):
        spec = get_pipeline("dcir").with_codegen(backend="native")
        parallel = spec.with_passes(
            "data", list(spec.data_passes) + [("parallelize", {"n_threads": 2})]
        )
        sequential = compile_c(self.SOURCES[name](), spec)
        result = compile_c(self.SOURCES[name](), parallel)
        assert result.backend == "native", result.backend_diagnostic
        assert "#pragma omp parallel for" in result.native_code
        reference = float(sequential.run()["__return"]).hex()
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("REPRO_NUM_THREADS", threads)
            assert float(result.run()["__return"]).hex() == reference, threads


class TestDataStageConverges:
    def test_every_kernel_reaches_a_fixed_point(self):
        """A nest raises inside-out in one ``loop-to-map`` run, so no sweep is
        left raising what the one before made straight-line: the data stage
        of every PolyBench kernel stops before ``data_max_iterations``."""
        capped = [
            (name, pipeline) for name in kernel_names() for pipeline in ("dace", "dcir")
            if not _compiled(get_kernel(name), pipeline).report.stage("data").converged
        ]
        assert capped == []
