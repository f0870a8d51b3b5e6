"""Data descriptors for SDFG containers (mini-DaCe).

SDFGs separate *data containers* from their use (§2.2 of the paper): every
array or scalar is described once, with a (possibly symbolic)
shape, an element type, and allocation attributes that the memory
scheduling passes of §6.3 manipulate (transient/persistent, heap vs stack,
pre-allocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..symbolic import Expr, Integer, sympify

#: Storage locations a container can be placed in by the memory passes.
STORAGE_HEAP = "heap"
STORAGE_STACK = "stack"
STORAGE_REGISTER = "register"

#: Allocation lifetimes.
LIFETIME_SCOPE = "scope"  # allocated where defined (possibly inside a loop)
LIFETIME_PERSISTENT = "persistent"  # allocated once, up front


@dataclass(frozen=True)
class DTypeInfo:
    """Everything the backends must agree on about one element type.

    One row per supported dtype: the numpy dtype name the interpreted
    backend allocates with, the element size the cost model charges, and
    the C/ctypes type names the native backend emits and marshals with.
    A single table keeps the three views from silently diverging (the
    invariant ``numpy itemsize == bytes == ctypes.sizeof`` is regression
    tested).
    """

    name: str
    numpy_name: str
    bytes: int
    c_type: str
    ctypes_name: str


#: The single source of truth for supported element types.
DTYPES: Dict[str, DTypeInfo] = {
    info.name: info
    for info in (
        DTypeInfo("float64", "float64", 8, "double", "c_double"),
        DTypeInfo("float32", "float32", 4, "float", "c_float"),
        DTypeInfo("int64", "int64", 8, "int64_t", "c_int64"),
        DTypeInfo("int32", "int32", 4, "int32_t", "c_int32"),
        DTypeInfo("int8", "int8", 1, "int8_t", "c_int8"),
        DTypeInfo("bool", "bool_", 1, "uint8_t", "c_uint8"),
    )
}

# Derived views kept under the historical names for existing call sites.
_DTYPE_TO_NUMPY: Dict[str, str] = {name: info.numpy_name for name, info in DTYPES.items()}

_DTYPE_BYTES: Dict[str, int] = {name: info.bytes for name, info in DTYPES.items()}


class Data:
    """Base class of data descriptors."""

    def __init__(
        self,
        dtype: str,
        shape: Sequence[Union[int, str, Expr]] = (),
        transient: bool = False,
        storage: str = STORAGE_HEAP,
        lifetime: str = LIFETIME_SCOPE,
    ):
        if dtype not in _DTYPE_TO_NUMPY:
            raise ValueError(f"Unsupported dtype {dtype!r}")
        self.dtype = dtype
        self.shape: Tuple[Expr, ...] = tuple(sympify(dim) for dim in shape)
        self.transient = transient
        self.storage = storage
        self.lifetime = lifetime

    # -- queries --------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_scalar(self) -> bool:
        return len(self.shape) == 0

    def total_size(self) -> Expr:
        total: Expr = Integer(1)
        for dim in self.shape:
            total = total * dim
        return total

    def size_in_bytes(self) -> Expr:
        return self.total_size() * Integer(_DTYPE_BYTES[self.dtype])

    def element_bytes(self) -> int:
        return _DTYPE_BYTES[self.dtype]

    def free_symbols(self) -> frozenset:
        result: frozenset = frozenset()
        for dim in self.shape:
            result |= dim.free_symbols()
        return result

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(_DTYPE_TO_NUMPY[self.dtype])

    def concrete_shape(self, symbols: Mapping[str, int]) -> Tuple[int, ...]:
        """Shape with all symbols substituted (for allocation at runtime)."""
        return tuple(int(dim.evaluate(dict(symbols))) for dim in self.shape)

    def clone(self) -> "Data":
        copy = type(self).__new__(type(self))
        copy.__dict__ = dict(self.__dict__) if hasattr(self, "__dict__") else {}
        copy.dtype = self.dtype
        copy.shape = self.shape
        copy.transient = self.transient
        copy.storage = self.storage
        copy.lifetime = self.lifetime
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self).__name__
        shape = ", ".join(str(dim) for dim in self.shape)
        flags = "transient" if self.transient else "global"
        return f"{kind}({self.dtype}[{shape}], {flags}, {self.storage})"


class Array(Data):
    """A multi-dimensional array container."""

    def __init__(
        self,
        dtype: str,
        shape: Sequence[Union[int, str, Expr]],
        transient: bool = False,
        storage: str = STORAGE_HEAP,
        lifetime: str = LIFETIME_SCOPE,
        alignment: int = 64,
    ):
        super().__init__(dtype, shape, transient, storage, lifetime)
        self.alignment = alignment


class Scalar(Data):
    """A single value container (DaCe scalars; every MLIR SSA value starts
    as one of these after translation, §6.1)."""

    def __init__(self, dtype: str, transient: bool = True, storage: str = STORAGE_REGISTER):
        super().__init__(dtype, (), transient, storage, LIFETIME_SCOPE)


def mlir_type_to_dtype(type_obj) -> str:
    """Map an MLIR-like scalar type to a descriptor dtype string."""
    from ..ir.types import FloatType, IndexType, IntegerType

    if isinstance(type_obj, FloatType):
        return "float64" if type_obj.width == 64 else "float32"
    if isinstance(type_obj, IndexType):
        return "int64"
    if isinstance(type_obj, IntegerType):
        if type_obj.width == 1:
            return "bool"
        if type_obj.width <= 8:
            return "int8"
        if type_obj.width <= 32:
            return "int32"
        return "int64"
    raise ValueError(f"Cannot map type {type_obj} to a dtype")
