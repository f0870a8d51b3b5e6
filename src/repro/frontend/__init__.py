"""C frontend (mini-Polygeist): C subset → MLIR core dialects.

One of two frontends (the other is :mod:`repro.frontend_py`, which
traces NumPy-style Python and reuses this package's lowering stage).
Both produce IR satisfying the same contract, so everything downstream —
bridge, pass suites, pipelines, cache, tuner, backends — is
frontend-agnostic:

1. **One module, func.func ops.** Each kernel becomes a ``func.func``
   whose body uses only the scf/arith/math/memref dialects; the verifier
   (:func:`repro.ir.verifier.verify`) must pass on the result.
2. **Memref-shaped state.** Arrays are ``memref.alloca`` values with
   constant dimensions; mutable scalars are spilled to 1-element memrefs
   (Polygeist-style) so passes see loads/stores, not SSA mutation.
3. **Canonical structured loops.** Counted loops become ``scf.for`` with
   positive step; data-dependent loops become ``scf.while``;
   conditionals become ``scf.if``.  No unstructured branches.
4. **math-dialect calls.** Math functions lower to ``math.*`` ops via
   their records in ``repro.operators`` — never opaque calls.
5. **Scalar checksum return.** Kernels return one ``f64``/``i32`` value
   so every backend's result is comparable against the reference.
"""

from .c_ast import TranslationUnit
from .clexer import CLexerError, preprocess, tokenize
from .cparser import CParseError, parse_c
from .driver import compile_c_to_ast, compile_c_to_mlir
from .lowering import LoweringError, lower_translation_unit

__all__ = [
    "CLexerError",
    "CParseError",
    "LoweringError",
    "TranslationUnit",
    "compile_c_to_ast",
    "compile_c_to_mlir",
    "lower_translation_unit",
    "parse_c",
    "preprocess",
    "tokenize",
]
