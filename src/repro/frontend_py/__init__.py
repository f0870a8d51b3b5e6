"""Python/NumPy frontend: trace NumPy-style functions into the control-centric IR.

This is the second frontend of the reproduction (the JaCe-style entry
point the paper's frontend-agnosticism claim calls for).  It accepts a
restricted NumPy-ish Python subset — ``for i in range(...)`` loops,
``if``/``while``, scalar arithmetic with Python semantics, array
indexing/slicing, ``np.zeros``-style allocation, elementwise NumPy ops
and ``+=`` reductions — and produces the *same* IR the C frontend emits,
by translating the Python AST into the C frontend's own AST and reusing
its lowering stage wholesale.

The IR contract every frontend must satisfy (see also
:mod:`repro.frontend`):

1. **One module, func.func ops.** Each kernel becomes a ``func.func``
   whose body uses only the scf/arith/math/memref dialects; the verifier
   (:func:`repro.ir.verifier.verify`) must pass on the result.
2. **Memref-shaped state.** Arrays are ``memref.alloca`` values with
   constant dimensions (symbolic shapes are resolved to integers before
   lowering); mutable scalars are spilled to 1-element memrefs
   (Polygeist-style) so passes see loads/stores, not SSA mutation.
3. **Canonical structured loops.** Counted loops become ``scf.for`` with
   positive step (downward loops are inverted); data-dependent loops
   become ``scf.while``; conditionals become ``scf.if``.  No
   unstructured branches.
4. **math-dialect calls.** Math functions lower to ``math.*`` ops via the
   records in ``repro.operators`` — never opaque calls.
5. **Scalar checksum return.** Kernels return one ``f64``/``i32`` value
   so every backend's result is comparable against the reference.

Anything outside the supported subset raises
:class:`repro.errors.FrontendError` naming the offending source line.
"""

from .driver import compile_python_to_mlir, lower_python
from .program import ProgramLike, PythonProgram, as_program, program
from .translate import python_to_c_ast

__all__ = [
    "ProgramLike",
    "PythonProgram",
    "as_program",
    "compile_python_to_mlir",
    "lower_python",
    "program",
    "python_to_c_ast",
]
