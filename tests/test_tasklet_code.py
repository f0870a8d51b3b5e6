"""A tasklet is read once: every reader of tasklet code goes through one parse.

``sdfg/tasklet_code.py`` reads a body into its ``target = <expression>``
statements with the offsets of every name; the free symbols of a tasklet,
the symbols an SDFG uses, map fusion's parameter rename and both code
generators read that one parse.  The last class pins the wrong answer that
not reading tasklet code gave: a symbol loaded only inside a tasklet was not
a free symbol, so the program bound it to 0 instead of taking it from the
caller.
"""

import pytest

from repro import PIPELINES, compile_c, get_pipeline
from repro.codegen import have_compiler
from repro.sdfg import SDFG, Memlet
from repro.sdfg.nodes import Tasklet
from repro.sdfg.tasklet_code import renamed, single_assignment, statements
from repro.symbolic import Range
from repro.transforms import MapFusion

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

LINE = "_out = 1e-05 * math.exp(_in) if N > 0 else float(pi)"


class TestReading:
    def test_free_symbols_are_the_names_the_code_loads(self):
        """Not ``e``, ``else``, ``exp``, ``float``, ``if`` or ``math``."""
        assert Tasklet("t", ["_in"], ["_out"], LINE).free_symbols() == {"N", "pi"}

    def test_a_rename_splices_names_not_attributes(self):
        assert renamed("_out = math.pi * pi", {"pi": "i"}) == "_out = math.pi * i"

    def test_a_multi_statement_body_reads_as_its_statements(self):
        code = "_t = _in * N\n_out = _t + math.sqrt(_t) - M"
        body = statements(code)
        assert [(statement.target, statement.text) for statement in body] == [
            ("_t", "_in * N"), ("_out", "_t + math.sqrt(_t) - M"),
        ]
        assert [[name for name, _, _ in statement.names] for statement in body] == [
            ["_in", "N"], ["_t", "_t", "M"],
        ]
        assert single_assignment(code) is None
        assert Tasklet("t", ["_in"], ["_out"], code).free_symbols() == {"N", "M"}
        assert renamed(code, {"_t": "_u", "N": "K"}) == \
            "_u = _in * K\n_out = _u + math.sqrt(_u) - M"

    def test_a_store_through_a_subscript_loads_its_indices(self):
        """The bridge's indirect store: the target is no local, its index a symbol."""
        tasklet = Tasklet("t", ["_val", "_array", "_i0"], [], "_array[int(i), int(_i0)] = _val")
        (statement,) = statements(tasklet.code)
        assert statement.target is None and single_assignment(tasklet.code) is None
        assert tasklet.free_symbols() == {"i"}
        assert renamed(tasklet.code, {"i": "j"}) == "_array[int(j), int(_i0)] = _val"

    @pytest.mark.parametrize("code", [
        "pass", "_out += 1", "_a, _b = 1, 2", "_a = _b = 1", "_out = (1 +\n 2)",
        '%0 = "foo.bar"(%1) : (f64) -> f64', "_out = é",
    ])
    def test_what_is_not_assignments_does_not_read(self, code):
        assert statements(code) is None and renamed(code, {"_out": "x"}) is None

    def test_an_mlir_tasklet_keeps_every_symbol_used(self):
        sdfg = SDFG("opaque")
        for symbol in ("N", "M"):
            sdfg.add_symbol(symbol)
        state = sdfg.add_state("s", is_start_state=True)
        tasklet = state.add_tasklet("m", [], [], "_out = N", language="mlir")
        assert tasklet.free_symbols(sdfg.symbols) == {"N", "M"}
        assert state.used_symbols() == {"N", "M"}
        assert sdfg.free_symbols() == {"N", "M"}
        tasklet.language = "python"
        assert sdfg.free_symbols() == {"N"}


def _fusable_maps(consumer_code):
    """``T[i] = A[i] + 1`` then, over ``pi``, ``B[pi] = <consumer_code>`` of ``T[pi]``."""
    sdfg = SDFG("fusion")
    sdfg.add_symbol("N")
    sdfg.add_array("A", ["N"], "float64")
    sdfg.add_transient("T", ["N"], "float64")
    sdfg.add_array("B", ["N"], "float64")
    state = sdfg.add_state("s0", is_start_state=True)
    state.add_mapped_tasklet(
        "first", {"i": Range(0, "N")},
        {"_a": Memlet.simple("A", "i")}, "_t = _a + 1.0", {"_t": Memlet.simple("T", "i")},
    )
    consumer, _, _ = state.add_mapped_tasklet(
        "second", {"pi": Range(0, "N")},
        {"_t": Memlet.simple("T", "pi")}, consumer_code, {"_b": Memlet.simple("B", "pi")},
    )
    written, read = sorted(
        (node for node in state.data_nodes() if node.data == "T"),
        key=state.in_degree, reverse=True,
    )
    for edge in list(state.out_edges(read)):
        state.add_edge(written, None, edge.dst, edge.dst_conn, edge.data)
    state.remove_node(read)
    return sdfg, consumer


class TestMapFusionRename:
    def test_the_consumer_parameter_is_renamed_where_the_code_loads_it(self):
        sdfg, consumer = _fusable_maps("_b = _t * math.pi * pi")
        assert MapFusion().apply(sdfg)
        sdfg.validate()
        assert consumer.code == "_b = _t * math.pi * i"

    def test_code_that_does_not_read_is_not_renamed_but_refused(self):
        sdfg, consumer = _fusable_maps("_b = _t * math.pi * pi")
        consumer.code = "%b = arith.mulf %t, %pi : f64"
        assert MapFusion().matches(sdfg) == []


#: A symbol loaded only inside tasklet code, and what every pipeline must return for ``n = 7``.
KERNELS = {
    "store": (
        "double kernel(int n) { double A[10]; "
        "for (int i = 0; i < 10; i++) A[i] = 1.0 * n; return A[3]; }",
        7.0,
    ),
    "sum": (
        "double kernel(int n) { double s = 0.0; "
        "for (int i = 0; i < 10; i++) s += n * 0.5; return s; }",
        35.0,
    ),
}


@pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_cc)])
@pytest.mark.parametrize("pipeline", list(PIPELINES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_symbol_only_tasklet_code_loads_comes_from_the_caller(kernel, pipeline, backend):
    source, expected = KERNELS[kernel]
    spec = get_pipeline(pipeline).with_codegen(backend=backend)
    result = compile_c(source, spec)
    if spec.bridge:
        assert result.backend == backend, result.backend_diagnostic
    assert result.run(n=7)["__return"] == expected
