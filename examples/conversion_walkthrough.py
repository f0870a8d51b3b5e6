"""Walkthrough of the conversion pipeline on the paper's Fig. 5 example.

Shows every intermediate representation of the bridge:
C source → MLIR core dialects (mini-Polygeist) → sdfg dialect → SDFG IR →
generated Python.

Run with::

    python examples/conversion_walkthrough.py
"""

from repro.codegen import generate_code
from repro.conversion import convert_to_sdfg_dialect, translate_module
from repro.frontend import compile_c_to_mlir
from repro.ir import print_module
from repro.pipeline import control_runner, data_runner, get_pipeline

SOURCE = """
int fName(int *A, int *B) {
  return *A + *B;
}
"""


def main() -> None:
    print("=== (a) C source ===")
    print(SOURCE)

    spec = get_pipeline("dcir")
    module = compile_c_to_mlir(SOURCE)
    print("=== (b) Polygeist-style MLIR (scf/arith/memref) ===")
    print(print_module(module))

    control_runner(spec).run(module)
    print("\n=== after control-centric passes (LICM, CSE, DCE, scalar replacement) ===")
    print(print_module(module))

    dialect_module = convert_to_sdfg_dialect(module)
    print("\n=== (c) sdfg dialect (symbolic sizes, per-computation states) ===")
    print(print_module(dialect_module))

    sdfg = translate_module(dialect_module)
    print("\n=== (d) translated SDFG ===")
    print(sdfg)
    print("containers:", {name: str(desc) for name, desc in sdfg.arrays.items()})
    print("symbols   :", sorted(sdfg.symbols))
    for state in sdfg.states():
        if state.is_empty():
            continue
        print(f"  state {state.label}:")
        for edge in state.edges():
            print(f"    {edge.src.label} -> {edge.dst.label}: {edge.data}")

    data_runner(spec).run(sdfg)
    print("\n=== generated Python (after the data-centric passes) ===")
    print(generate_code(sdfg))


if __name__ == "__main__":
    main()
