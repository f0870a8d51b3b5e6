"""MLIR-like intermediate representation core.

Provides SSA values, operations, blocks, regions, a builder, a textual
printer and a structural verifier.  Dialect-specific operations live in
:mod:`repro.dialects`.
"""

from .core import (
    Block,
    BlockArgument,
    Builder,
    IRError,
    OPERATION_REGISTRY,
    Operation,
    OpResult,
    Region,
    Use,
    Value,
    defining_op,
    register_operation,
)
from .printer import IRPrinter, print_module, print_operation
from .types import (
    DYNAMIC,
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I32,
    I64,
    INDEX,
    IndexType,
    IntegerType,
    MemRefType,
    NONE,
    NoneType,
    Type,
)
from .verifier import VerificationError, verify

__all__ = [
    "Block",
    "BlockArgument",
    "Builder",
    "DYNAMIC",
    "F32",
    "F64",
    "FloatType",
    "FunctionType",
    "I1",
    "I32",
    "I64",
    "INDEX",
    "IRError",
    "IRPrinter",
    "IndexType",
    "IntegerType",
    "MemRefType",
    "NONE",
    "NoneType",
    "OPERATION_REGISTRY",
    "Operation",
    "OpResult",
    "Region",
    "Type",
    "Use",
    "Value",
    "VerificationError",
    "defining_op",
    "print_module",
    "print_operation",
    "register_operation",
    "verify",
]
