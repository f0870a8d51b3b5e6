"""Tasklet fusion: what fuses, what is refused, and that nothing observable moves.

Hand-built graphs pin every refusal rule and the shape of a fused chain;
the sweep at the end holds the pass to *exact* equality with the pipeline
that leaves it out, on all 32 programs and both backends — fusion inlines
expressions, it may not reassociate or reorder a memory access.
"""

import dataclasses

import pytest

from repro import compile_c, get_pipeline, run_compiled
from repro.codegen import generate_code, have_compiler
from repro.codegen.sdfg_c import C_TASKLET
from repro.sdfg import SDFG, InterstateEdge, Memlet
from repro.sdfg.tasklet_code import result_dtype, single_assignment, spell
from repro.transforms import TaskletFusion
from repro.workloads import get_kernel
from repro.workloads import kernel_names as polybench_names
from repro.workloads.python_suite import get_program
from repro.workloads.python_suite import kernel_names as python_names


BACKENDS = ["python"] + (["native"] if have_compiler() else [])


def _chain(scalar_dtype="float64", producer_code="_out = _in", consumer_code="_out = _in"):
    """``B[i] = A[i]`` as load → scalar ``t`` → store, in one state."""
    sdfg = SDFG("chain")
    sdfg.add_symbol("i")
    sdfg.add_array("A", [8], "float64")
    sdfg.add_array("B", [8], "float64")
    sdfg.add_scalar("t", scalar_dtype, transient=True)
    state = sdfg.add_state("s", is_start_state=True)
    load = state.add_tasklet("load", ["_in"], ["_out"], producer_code)
    store = state.add_tasklet("store", ["_in"], ["_out"], consumer_code)
    scalar = state.add_access("t")
    state.add_edge(state.add_access("A"), None, load, "_in", Memlet.simple("A", "i"))
    state.add_edge(load, "_out", scalar, None, Memlet(data="t"))
    state.add_edge(scalar, None, store, "_in", Memlet(data="t"))
    state.add_edge(store, "_out", state.add_access("B"), None, Memlet.simple("B", "i"))
    return sdfg, state, load, scalar, store


def _fuses(sdfg) -> int:
    fusion = TaskletFusion()
    fusion.apply(sdfg)
    sdfg.validate()
    return fusion.last_applied


class TestFusion:
    def test_identity_chain_becomes_one_tasklet_reading_memory(self):
        sdfg, state, _, _, store = _chain()
        assert _fuses(sdfg) == 1
        assert state.tasklets() == [store]
        assert store.code == "_out = _in0"
        (read,) = state.in_edges(store)
        assert (read.dst_conn, str(read.data)) == ("_in0", "A[i]")
        assert "t" not in sdfg.arrays and sdfg.eliminated_containers == ["t"]

    def test_three_tasklet_chain_pins_connector_order_and_is_idempotent(self):
        """``C[i] = C[i] + alpha * B[i]`` the way the bridge emits it."""
        sdfg = SDFG("fma")
        sdfg.add_symbol("i")
        for name in ("B", "C"):
            sdfg.add_array(name, [8], "float64")
        sdfg.add_scalar("alpha", "float64", transient=False)
        for name in ("_load_0", "_load_1", "_mulf_2", "_addf_3"):
            sdfg.add_scalar(name, "float64", transient=True)
        state = sdfg.add_state("s", is_start_state=True)
        read_c = state.add_access("C")

        def tasklet(label, code, inputs, output):
            node = state.add_tasklet(label, list(inputs), ["_out"], code)
            for connector, (source, memlet) in inputs.items():
                state.add_edge(source, None, node, connector, memlet)
            target = state.add_access(output)
            state.add_edge(node, "_out", target, None, Memlet(data=output))
            return target

        load_b = tasklet("load_b", "_out = _in",
                         {"_in": (state.add_access("B"), Memlet.simple("B", "i"))}, "_load_0")
        load_c = tasklet("load_c", "_out = _in",
                         {"_in": (read_c, Memlet.simple("C", "i"))}, "_load_1")
        mul = tasklet("mul", "_out = (_in0 * _in1)", {
            "_in0": (state.add_access("alpha"), Memlet(data="alpha")),
            "_in1": (load_b, Memlet(data="_load_0")),
        }, "_mulf_2")
        add = tasklet("add", "_out = (_in0 + _in1)", {
            "_in0": (load_c, Memlet(data="_load_1")),
            "_in1": (mul, Memlet(data="_mulf_2")),
        }, "_addf_3")
        store = state.add_tasklet("store", ["_in"], ["_out"], "_out = _in")
        state.add_edge(add, None, store, "_in", Memlet(data="_addf_3"))
        write_c = state.add_access("C")
        state.add_edge(store, "_out", write_c, None, Memlet.simple("C", "i"))
        state.add_nedge(read_c, write_c, Memlet.empty())  # state fusion's WAR marker

        assert _fuses(sdfg) == 4
        assert state.tasklets() == [store]
        assert store.code == "_out = (_in0 + (_in1 * _in2))"
        assert {edge.dst_conn: str(edge.data) for edge in state.in_edges(store)} == {
            "_in0": "C[i]", "_in1": "alpha", "_in2": "B[i]",
        }
        assert sdfg.eliminated_containers == ["_load_0", "_load_1", "_mulf_2", "_addf_3"]
        assert _fuses(sdfg) == 0  # a second run finds nothing
        assert "C[i] = (C[i] + (alpha * B[i]))" in generate_code(sdfg)

    def test_connector_used_twice_fuses_an_identity_but_not_a_computation(self):
        sdfg, _, _, _, store = _chain(consumer_code="_out = (_in * _in)")
        assert _fuses(sdfg) == 1 and store.code == "_out = (_in0 * _in0)"
        sdfg, *_ = _chain(producer_code="_out = (_in + 1.0)", consumer_code="_out = (_in * _in)")
        assert _fuses(sdfg) == 0

    def test_substitution_is_structural_not_textual(self):
        """``_in`` is replaced; ``_in1`` and ``math._in`` that contain it are not."""
        assignment = single_assignment("_out = (_in + _in1 * math._in(_in))")
        assert assignment.substitute({"_in": "X"}) == "X + _in1 * math._in(X)"
        assert assignment.substitute({"_in": "_in1", "_in1": "_in"}) == \
            "_in1 + _in * math._in(_in1)"


class TestRefusals:
    def test_second_reader_in_the_same_state(self):
        sdfg, state, _, scalar, _ = _chain()
        other = state.add_tasklet("other", ["_in"], ["_out"], "_out = _in")
        state.add_edge(scalar, None, other, "_in", Memlet(data="t"))
        state.add_edge(other, "_out", state.add_access("B"), None, Memlet.simple("B", "i + 1"))
        assert _fuses(sdfg) == 0

    def test_reader_in_another_state(self):
        sdfg, state, *_ = _chain()
        later = sdfg.add_state("later")
        sdfg.add_edge(state, later, InterstateEdge())
        copy = later.add_tasklet("copy", ["_in"], ["_out"], "_out = _in")
        later.add_edge(later.add_access("t"), None, copy, "_in", Memlet(data="t"))
        later.add_edge(copy, "_out", later.add_access("B"), None, Memlet.simple("B", "0"))
        assert _fuses(sdfg) == 0

    def test_a_match_applied_later_is_checked_against_the_graph_as_it_is_then(self):
        """``apply(sdfg, match)`` may come after anything: no count taken at
        enumeration time survives it."""
        sdfg, state, *_ = _chain()
        fusion = TaskletFusion()
        (match,) = fusion.matches(sdfg)
        later = sdfg.add_state("later")
        sdfg.add_edge(state, later, InterstateEdge())
        copy = later.add_tasklet("copy", ["_in"], ["_out"], "_out = _in")
        later.add_edge(later.add_access("t"), None, copy, "_in", Memlet(data="t"))
        later.add_edge(copy, "_out", later.add_access("B"), None, Memlet.simple("B", "0"))
        assert not fusion.apply(sdfg, match)
        assert "t" in sdfg.arrays and len(state.tasklets()) == 2
        sdfg.validate()

    def test_use_on_an_interstate_edge(self):
        sdfg, state, *_ = _chain()
        sdfg.add_edge(state, sdfg.add_state("then"), InterstateEdge(condition="t > 0"))
        assert _fuses(sdfg) == 0

    def test_assignment_on_an_interstate_edge(self):
        sdfg, state, *_ = _chain()
        sdfg.add_edge(state, sdfg.add_state("then"), InterstateEdge(assignments={"t": "0"}))
        assert _fuses(sdfg) == 0

    def test_return_value(self):
        sdfg, *_ = _chain()
        sdfg.return_values.append("t")
        assert _fuses(sdfg) == 0

    def test_wcr_in_edge(self):
        sdfg, state, _, scalar, _ = _chain()
        state.in_edges(scalar)[0].data.wcr = "+"
        assert _fuses(sdfg) == 0

    def test_dtype_converting_store(self):
        """``int64 t = A[i]`` truncates natively: the scalar is not a copy of its producer."""
        sdfg, *_ = _chain(scalar_dtype="int64")
        assert _fuses(sdfg) == 0

    @pytest.mark.parametrize("producer, consumer", [
        ("_tmp = _in\n_out = _tmp", "_out = _in"),
        ("_out = _in", "_tmp = _in\n_out = _tmp"),
    ])
    def test_multi_statement_producer_or_consumer(self, producer, consumer):
        sdfg, *_ = _chain(producer_code=producer, consumer_code=consumer)
        assert _fuses(sdfg) == 0

    def test_non_python_tasklet(self):
        sdfg, _, load, *_ = _chain()
        load.language = "mlir"
        assert _fuses(sdfg) == 0

    def test_write_between_producer_and_consumer(self):
        """``t = A[i]; A[i] = 0; B[i] = t``: the read may not move past the store."""
        sdfg, state, load, _, _ = _chain()
        read_a = state.in_edges(load)[0].src
        zero = state.add_tasklet("zero", [], ["_out"], "_out = 0.0")
        write_a = state.add_access("A")
        state.add_edge(zero, "_out", write_a, None, Memlet.simple("A", "i"))
        state.add_nedge(read_a, write_a, Memlet.empty())
        assert _fuses(sdfg) == 0

    def test_write_ordered_after_the_consumer_is_no_hazard(self):
        """``A[i] = A[i] + 1`` through scalars: the store depends on the consumer."""
        sdfg, state, _, _, store = _chain()
        write_edge = state.out_edges(store)[0]
        state.remove_node(write_edge.dst)
        state.add_edge(store, "_out", state.add_access("A"), None, Memlet.simple("A", "i"))
        assert _fuses(sdfg) == 1


def test_the_native_translator_types_by_the_table_fusion_reads():
    """One typing table: what guards fusion is what the C backend declares by."""
    names = {"a": "float64", "f": "float32", "n": "int64", "k": "int32", "b": "bool"}
    env = {name: (name, dtype) for name, dtype in names.items()}
    expected = {
        "a + n": "float64", "f * f": "float32", "f + n": "float32", "k + k": "int64",
        "n // 2": "int64", "n % 3": "int64", "n / 2": "float64", "a ** 2": "float64",
        # ``%`` and ``//`` on floats run through ``double`` helpers, float32 included.
        "a % 2.0": "float64", "f % f": "float64", "f // f": "float64", "f // n": "float64",
        "-n": "int64", "-f": "float32", "-b": "int64", "~b": "int64", "not b": "bool",
        "float(n)": "float64", "int(a)": "int64", "bool(n)": "bool",
        "abs(n)": "int64", "abs(a)": "float64", "abs(f)": "float64",
        "min(n, 3)": "int64", "max(a, n)": "float64", "max(f, n)": "float64",
        "math.sqrt(n)": "float64", "np.floor(a)": "float64",
        "a if n < 2 else f": "float64", "n < 2": "bool", "b and n": "bool",
        "(a * f) - n": "float64", "1.5": "float64", "7": "int64", "True": "bool",
    }
    for text, dtype in expected.items():
        node = single_assignment(f"_out = {text}").value
        assert result_dtype(node, names) == dtype, text
        assert spell(node, C_TASKLET, env.__getitem__)[1] == dtype, text
    assert result_dtype(single_assignment("_out = unknown + 1").value, names) is None


def test_a_float32_remainder_stored_to_float32_is_a_conversion():
    """``f % f`` is a double in C: its float32 store converts, so it is not a copy."""
    sdfg, *_ = _chain(scalar_dtype="float32", producer_code="_out = _in % _in")
    sdfg.arrays["A"].dtype = "float32"
    assert _fuses(sdfg) == 0
    sdfg, *_ = _chain(scalar_dtype="float64", producer_code="_out = _in % _in")
    sdfg.arrays["A"].dtype = "float32"
    assert _fuses(sdfg) == 1


HAZARD_SOURCE = """
double f() {
  double A[4]; double B[4];
  for (int i = 0; i < 4; i++) { A[i] = i + 1.0; B[i] = 0.0; }
  for (int i = 0; i < 4; i++) { double t = A[i]; A[i] = 0.0; B[i] = t; }
  double s = 0.0;
  for (int i = 0; i < 4; i++) s += B[i] + A[i];
  return s;
}
"""


@pytest.mark.parametrize("backend", ["python", "native"])
@pytest.mark.parametrize("pipeline", ["dace", "dcir"])
def test_a_store_between_a_load_and_its_use_stays_between(pipeline, backend):
    """The hazard end to end.  The constant store has no dataflow predecessor,
    so only program order keeps it after the load: emission follows
    ``program_order`` and fusion refuses to carry the load across it."""
    if backend not in BACKENDS:
        pytest.skip("no C compiler on PATH")
    spec = get_pipeline(pipeline)
    spec = spec.derive(codegen=dataclasses.replace(spec.codegen, backend=backend))
    assert run_compiled(compile_c(HAZARD_SOURCE, spec)).return_value == 10.0


# -- the whole suite: fused ≡ unfused, exactly ---------------------------------------------

PROGRAMS = [(name, "c") for name in polybench_names()] + [(name, "py") for name in python_names()]


def _source(name, kind):
    return get_kernel(name) if kind == "c" else get_program(name)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pipeline", ["dace", "dcir"])
@pytest.mark.parametrize("name, kind", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_fusion_changes_no_result_and_no_allocation(name, kind, pipeline, backend):
    spec = get_pipeline(pipeline)
    spec = spec.derive(codegen=dataclasses.replace(spec.codegen, backend=backend))
    source = _source(name, kind)
    fused = compile_c(source, spec)
    plain = compile_c(source, spec.without_pass("tasklet-fusion"))
    assert fused.backend == plain.backend == backend
    fused_run, plain_run = run_compiled(fused), run_compiled(plain)
    assert fused_run.return_value == plain_run.return_value  # ==, not approx
    assert fused_run.allocations == plain_run.allocations
    records = [r for stage in fused.report.stages for r in stage.records]
    assert any(r.name == "tasklet-fusion" and r.applied for r in records)
