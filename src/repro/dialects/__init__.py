"""Dialect definitions for the MLIR-like IR.

Importing this package registers every operation class with the global
operation registry, so ``from repro import dialects`` is enough to make all
ops available to passes, printers and converters.
"""

from . import arith, builtin, func, math_dialect, memref, scf, sdfg_dialect
from .builtin import ModuleOp
from .func import CallOp, FuncOp, ReturnOp
from .sdfg_dialect import SdfgArrayType, SymbolStore

__all__ = [
    "arith",
    "builtin",
    "func",
    "math_dialect",
    "memref",
    "scf",
    "sdfg_dialect",
    "CallOp",
    "FuncOp",
    "ModuleOp",
    "ReturnOp",
    "SdfgArrayType",
    "SymbolStore",
]
