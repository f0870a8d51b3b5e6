"""Tests for the MLIR→SDFG bridge (converter, translator, raising) and code generation."""

import numpy as np
import pytest

from repro.codegen import (
    build_control_flow,
    compile_mlir,
    compile_sdfg,
    generate_code,
    generate_mlir_code,
    sdfg_movement_report,
    states_in_tree,
)
from repro.codegen.control_flow import LoopNode
from repro.conversion import (
    convert_to_sdfg_dialect,
    mlir_to_sdfg,
    raise_tasklet,
    translate_module,
)
from repro.dialects.sdfg_dialect import SDFGOp, StateOp, TaskletOp
from repro.frontend import compile_c_to_mlir
from repro.ir import print_module, verify
from repro.pipeline import control_runner, data_runner, get_pipeline
from repro.sdfg import Memlet, SDFG, InterstateEdge
from repro.symbolic import Range

FIG5_SOURCE = """
int fName(int *A, int *B) {
  return *A + *B;
}
"""

LOOP_SOURCE = """
double kernel() {
  double A[10];
  double s = 0.0;
  for (int i = 0; i < 10; i++)
    A[i] = i * 2.0;
  for (int i = 0; i < 10; i++)
    s += A[i];
  return s;
}
"""


class TestConverter:
    def test_fig5_walkthrough(self):
        """Reproduces the Fig. 5 conversion: dynamic memref sizes become
        symbols, the addition becomes a tasklet in its own state."""
        module = compile_c_to_mlir(FIG5_SOURCE)
        dialect_module = convert_to_sdfg_dialect(module)
        sdfg_ops = [op for op in dialect_module.body.operations if isinstance(op, SDFGOp)]
        assert len(sdfg_ops) == 1
        sdfg_op = sdfg_ops[0]
        # One fresh symbol per '?' dimension.
        assert any(name.startswith("s_") for name in sdfg_op.symbols)
        # The addition lives in its own state as a tasklet.
        tasklets = [op for op in sdfg_op.walk() if isinstance(op, TaskletOp)]
        assert any("addi" in t.sym_name for t in tasklets)
        verify(dialect_module)

    def test_converter_emits_states_and_edges(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        dialect_module = convert_to_sdfg_dialect(module)
        sdfg_op = dialect_module.body.operations[0]
        assert len(sdfg_op.states()) > 3
        assert len(sdfg_op.edges()) >= len(sdfg_op.states()) - 1

    def test_loop_becomes_guarded_state_machine(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        conditions = [str(edge.data.condition) for edge in sdfg.edges()]
        assert any("<" in c for c in conditions)
        sdfg.validate()

    def test_translator_containers_and_symbols(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        assert "__return" in sdfg.arrays
        assert any(name in sdfg.symbols for name in ("i", "i_0"))

    def test_raise_tasklet_arith(self):
        module = compile_c_to_mlir("double f(double a, double b) { return a * b + 1.0; }")
        dialect_module = convert_to_sdfg_dialect(module)
        tasklets = [
            op for op in dialect_module.walk() if isinstance(op, TaskletOp) and op.code is None
        ]
        assert tasklets
        code, inputs, outputs, language = raise_tasklet(tasklets[0])
        assert language == "python"
        assert "_out" in code

    def test_translation_of_branches(self):
        source = """
        double f() {
          double A[4];
          for (int i = 0; i < 4; i++) {
            if (i % 2 == 0)
              A[i] = 1.0;
            else
              A[i] = 2.0;
          }
          return A[0] + A[1];
        }
        """
        module = compile_c_to_mlir(source)
        sdfg = mlir_to_sdfg(module)
        sdfg.validate()
        compiled = compile_sdfg(sdfg)
        assert compiled.run()["__return"] == pytest.approx(3.0)

    def test_indirect_access_translates(self):
        source = """
        double f() {
          double A[8]; int idx[8];
          for (int i = 0; i < 8; i++) { A[i] = i; idx[i] = 7 - i; }
          double s = 0.0;
          for (int i = 0; i < 8; i++) s += A[idx[i]];
          return s;
        }
        """
        module = compile_c_to_mlir(source)
        sdfg = mlir_to_sdfg(module)
        compiled = compile_sdfg(sdfg)
        assert compiled.run()["__return"] == pytest.approx(28.0)


class TestCodegen:
    def test_structured_control_flow_covers_all_states(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        tree = build_control_flow(sdfg)
        assert len(set(states_in_tree(tree))) == len(sdfg.states())

    def test_loops_are_raised_not_dispatched(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        code = generate_code(sdfg)
        assert "while " in code
        assert "_state ==" not in code  # no generic dispatcher needed

    def test_generated_code_executes(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        assert compile_sdfg(sdfg).run()["__return"] == pytest.approx(90.0)

    def test_optimized_sdfg_matches(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        control_runner(get_pipeline("dcir")).run(module)
        sdfg = mlir_to_sdfg(module)
        data_runner(get_pipeline("dcir")).run(sdfg)
        sdfg.validate()
        assert compile_sdfg(sdfg).run()["__return"] == pytest.approx(90.0)

    def test_mlir_codegen_matches(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        assert compile_mlir(module).run()["__return"] == pytest.approx(90.0)

    def test_mlir_codegen_native_vs_polygeist_mode(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        native = generate_mlir_code(module, native_scalars=True, preallocate=True)
        polygeist = generate_mlir_code(module, native_scalars=False, preallocate=False)
        assert native != polygeist
        for code in (native, polygeist):
            namespace = {}
            exec(code, namespace)
            assert namespace["run"]()["__return"] == pytest.approx(90.0)

    def test_vectorized_map_codegen(self):
        sdfg = SDFG("vec")
        sdfg.add_array("A", [16], "float64", transient=False)
        sdfg.add_array("B", [16], "float64", transient=False)
        state = sdfg.add_state("s0", is_start_state=True)
        state.add_mapped_tasklet(
            "exp",
            {"i": Range(0, 16)},
            {"_a": Memlet.simple("A", "i")},
            "_b = math.exp(_a)",
            {"_b": Memlet.simple("B", "i")},
        )
        compiled = compile_sdfg(sdfg, vectorize=True)
        assert "B[0:16] = np.exp(A[0:16])" in compiled.code
        assert compiled.code == compile_sdfg(sdfg).code  # the flag changes no interpreted text
        A = np.linspace(0, 1, 16)
        B = np.zeros(16)
        compiled.run(A=A, B=B)
        np.testing.assert_allclose(B, np.exp(A))

    @pytest.mark.parametrize("code", [
        "_b = (_a if _a > 0.5 else 0.0)", "_b = min(_a, 0.5)", "_b = max(_a, 0.5)",
        "_b = (_a > 0.2 and _a < 0.8)", "_b = (not _a)", "_b = bool(_a)", "_b = _a ** 2",
    ])
    def test_scalar_only_constructs_keep_a_map_scalar(self, code):
        """``a if v else b`` asks a vector for one truth value: such maps loop,
        whatever the vectorize flag says (casts no longer do: ``np.float64(``)."""

        def build():
            sdfg = SDFG("vec")
            sdfg.add_array("A", [16], "float64", transient=False)
            sdfg.add_array("B", [16], "float64", transient=False)
            state = sdfg.add_state("s0", is_start_state=True)
            state.add_mapped_tasklet(
                "t", {"i": Range(0, 16)}, {"_a": Memlet.simple("A", "i")}, code,
                {"_b": Memlet.simple("B", "i")},
            )
            return sdfg

        outputs = []
        for vectorize in (False, True):
            compiled = compile_sdfg(build(), vectorize=vectorize)
            assert "for i in range(0, 16):" in compiled.code and "0:16" not in compiled.code
            B = np.zeros(16)
            compiled.run(A=np.linspace(0, 1, 16), B=B)
            outputs.append(B)
        np.testing.assert_array_equal(*outputs)

    def _fork_sdfg(self, code, outputs=("B",)):
        sdfg = SDFG("fork")
        sdfg.add_symbol("i")
        for name in ("A",) + tuple(outputs):
            sdfg.add_array(name, [4], "float64", transient=False)
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("t", ["_in"], ["_out"], code)
        state.add_edge(state.add_access("A"), None, tasklet, "_in", Memlet.simple("A", "i"))
        for name in outputs:
            state.add_edge(tasklet, "_out", state.add_access(name), None, Memlet.simple(name, "i"))
        return sdfg

    def test_direct_form_binds_a_temporary_only_where_dataflow_forks(self):
        from repro.codegen import generate_c_code

        once = self._fork_sdfg("_out = (_in + 1.0)")
        assert "B[i] = (A[i] + 1.0)" in generate_code(once)
        assert "_in" not in generate_code(once) and "_t0_" not in generate_c_code(once)
        # A subscripted read the expression uses twice is loaded once ...
        twice = self._fork_sdfg("_out = (_in * _in)")
        assert "_in = A[i]" in generate_code(twice) and "B[i] = (_in * _in)" in generate_code(twice)
        assert "double _read0 = A[" in generate_c_code(twice)
        # ... and a result with two destinations is computed once.
        shared = self._fork_sdfg("_out = (_in + 1.0)", outputs=("B", "C"))
        python = generate_code(shared)
        assert "_val0 = (A[i] + 1.0)" in python and "B[i] = _val0" in python and "C[i] = _val0" in python
        assert generate_c_code(shared).count("A[") == 1

    def test_multi_statement_tasklets_keep_the_bound_form(self):
        sdfg = self._fork_sdfg("_tmp = _in + 1.0\n_out = _tmp * 2.0")
        code = generate_code(sdfg)
        assert "_in = A[i]" in code and "_tmp = _in + 1.0" in code and "B[i] = _out" in code
        result = compile_sdfg(sdfg).run(A=np.arange(4.0), B=np.zeros(4), i=2)
        assert result["B"][2] == 6.0

    def test_dispatcher_fallback_for_while_loops(self):
        source = "int f() { int i = 0; while (i < 5) { i = i + 1; } return i; }"
        module = compile_c_to_mlir(source)
        sdfg = mlir_to_sdfg(module)
        assert compile_sdfg(sdfg).run()["__return"] == 5

    def test_cost_model_counts_movement(self):
        module = compile_c_to_mlir(LOOP_SOURCE)
        sdfg = mlir_to_sdfg(module)
        report = sdfg_movement_report(sdfg)
        assert report.elements_moved > 10
        assert report.bytes_moved >= report.elements_moved

    def test_cost_model_reflects_elimination(self):
        from repro.workloads import fig2_source

        source = fig2_source({"N": 50, "M": 10})
        module = compile_c_to_mlir(source)
        control_runner(get_pipeline("dcir")).run(module)
        sdfg = mlir_to_sdfg(module)
        before = sdfg_movement_report(sdfg).elements_moved
        data_runner(get_pipeline("dcir")).run(sdfg)
        after = sdfg_movement_report(sdfg).elements_moved
        assert after < before
