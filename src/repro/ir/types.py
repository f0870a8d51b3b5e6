"""Type system for the MLIR-like IR.

The reproduction models the MLIR types Polygeist emits for C programs:
integers of various widths, 32/64-bit floats, ``index``, function types and
``memref`` (shaped memory references whose dimensions may be dynamic,
printed ``?`` exactly like MLIR).  The ``sdfg`` dialect adds its own
symbolically-shaped array type in :mod:`repro.dialects.sdfg_dialect`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: Marker for a dynamic (unknown) memref dimension, printed as ``?``.
DYNAMIC = -1


class Type:
    """Base class of all IR types.  Types are immutable value objects."""

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Type):
            return NotImplemented
        return self.key() == other.key()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)

    # Convenience predicates --------------------------------------------------
    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntegerType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_index(self) -> bool:
        return isinstance(self, IndexType)

    @property
    def is_memref(self) -> bool:
        return isinstance(self, MemRefType)

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, (IntegerType, FloatType, IndexType))


class IntegerType(Type):
    """Signless integer type ``iN`` (i1 doubles as MLIR's boolean)."""

    __slots__ = ("width",)

    def __init__(self, width: int = 32):
        self.width = int(width)

    def key(self) -> tuple:
        return ("int", self.width)

    def __str__(self) -> str:
        return f"i{self.width}"


class FloatType(Type):
    """IEEE float type ``f32`` / ``f64``."""

    __slots__ = ("width",)

    def __init__(self, width: int = 64):
        if width not in (16, 32, 64):
            raise ValueError(f"Unsupported float width {width}")
        self.width = int(width)

    def key(self) -> tuple:
        return ("float", self.width)

    def __str__(self) -> str:
        return f"f{self.width}"


class IndexType(Type):
    """MLIR ``index`` type (loop counters, memref indices)."""

    __slots__ = ()

    def key(self) -> tuple:
        return ("index",)

    def __str__(self) -> str:
        return "index"


class NoneType(Type):
    """Unit type for ops without results."""

    __slots__ = ()

    def key(self) -> tuple:
        return ("none",)

    def __str__(self) -> str:
        return "none"


class MemRefType(Type):
    """Shaped memory reference ``memref<4x?xf64>``.

    ``shape`` entries are non-negative ints or :data:`DYNAMIC` for ``?``.
    """

    __slots__ = ("shape", "element_type")

    def __init__(self, shape: Sequence[int], element_type: Type):
        self.shape: Tuple[int, ...] = tuple(int(dim) for dim in shape)
        self.element_type = element_type

    def key(self) -> tuple:
        return ("memref", self.shape, self.element_type.key())

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def has_dynamic_dims(self) -> bool:
        return any(dim == DYNAMIC for dim in self.shape)

    def num_dynamic_dims(self) -> int:
        return sum(1 for dim in self.shape if dim == DYNAMIC)

    def num_elements(self) -> Optional[int]:
        """Total elements if fully static, otherwise ``None``."""
        if self.has_dynamic_dims:
            return None
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    def __str__(self) -> str:
        dims = "x".join("?" if dim == DYNAMIC else str(dim) for dim in self.shape)
        if dims:
            return f"memref<{dims}x{self.element_type}>"
        return f"memref<{self.element_type}>"


class FunctionType(Type):
    """Function signature ``(inputs) -> (results)``."""

    __slots__ = ("inputs", "results")

    def __init__(self, inputs: Sequence[Type], results: Sequence[Type]):
        self.inputs: Tuple[Type, ...] = tuple(inputs)
        self.results: Tuple[Type, ...] = tuple(results)

    def key(self) -> tuple:
        return (
            "function",
            tuple(t.key() for t in self.inputs),
            tuple(t.key() for t in self.results),
        )

    def __str__(self) -> str:
        inputs = ", ".join(str(t) for t in self.inputs)
        results = ", ".join(str(t) for t in self.results)
        if len(self.results) == 1:
            return f"({inputs}) -> {self.results[0]}"
        return f"({inputs}) -> ({results})"


# Commonly used singletons ----------------------------------------------------
I1 = IntegerType(1)
I32 = IntegerType(32)
I64 = IntegerType(64)
F32 = FloatType(32)
F64 = FloatType(64)
INDEX = IndexType()
NONE = NoneType()
