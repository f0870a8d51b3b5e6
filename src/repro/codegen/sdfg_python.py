"""SDFG → executable Python code generation (the interpreted backend).

:class:`PythonEmitter` is the Python syntax for the traversal it shares
with the native backend (:mod:`repro.codegen.sdfg_walk`).  DaCe generates
C++ from SDFGs; this reproduction generates Python (the substrate
available here), preserving what matters for the evaluation:
structured loops are raised from the state machine (no per-iteration
dispatch overhead), transient containers are allocated either up front
(``persistent`` lifetime, after memory pre-allocation) or at their first
use inside whatever loop that happens to be (modelling allocation cost on
the critical path), and WCR memlets become in-place updates, of a local
where the walker finds a reduction.

A map is an array expression.  Every innermost map the walker classifies
(:meth:`~repro.codegen.sdfg_walk.SDFGWalker._array_form`) is written as
NumPy operations, one per tasklet, under every pipeline — the ``vectorize``
flag of ``dcir+vec`` changes nothing here.  An index affine in the
parameter with a positive literal coefficient, in one dimension of its
memlet, is a **slice** (``A[i_1, 0:26]``, ``B[2:n - 1]``; with a negative
one the same slice read backwards, ``x[0:k][::-1]``); the parameter
becomes the vector of its values (``j = np.arange(…)``, bound on first use)
only where a tasklet computes with it or an index is anything else.  The
tasklet expression is spelled through :data:`NUMPY`; an update of an
element that moves is an in-place slice update, an update of one that does
not is folded in with ``np.add.accumulate`` — left to right from the
element, the order of the loop it replaces.
"""

from __future__ import annotations

import ast
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

from ..symbolic import Expr, Integer, Range, Subset, Symbol
from ..symbolic.expr import Add, FloorDiv, Max, Min, Mod, Mul
from ..sdfg import SDFG, Memlet, Scalar, Tasklet
from ..sdfg.data import DTYPES
from ..sdfg.nodes import MapEntry
from ..sdfg.parallelism import NUM_THREADS_ENV, ParallelismInfo
from ..sdfg.tasklet_code import OPERATORS, Refused, Unspelled, as_operand, spell
from .loader import load_entry
from .sdfg_walk import UPDATE_OPERATORS, CodegenError, SDFGWalker, affine_in
from .writer import SourceWriter


# Derived from the central dtype table so the interpreted and native
# backends can never disagree on element types (sdfg/data.py::DTYPES).
_NUMPY_DTYPES = {name: f"np.{info.numpy_name}" for name, info in DTYPES.items()}


# Runtime support for parallel-scheduled maps, emitted into the generated
# module only when the SDFG actually contains one (sequential programs
# stay byte-identical).  Workers are forked processes writing through
# ``multiprocessing.shared_memory`` segments: fork keeps the generated
# body function callable without pickling, shared memory makes array
# writes visible to the parent, and per-chunk partial slots carry scalar
# reduction results back (the fork itself privatizes everything else).
_PARALLEL_HELPERS = f"""\
import multiprocessing as _repro_mp
import os as _repro_os
from multiprocessing import shared_memory as _repro_shm

_repro_fork_ok = "fork" in _repro_mp.get_all_start_methods()
_repro_ctx = _repro_mp.get_context("fork") if _repro_fork_ok else None

def _repro_workers(requested):
    if requested and int(requested) > 0:
        return int(requested)
    env = _repro_os.environ.get({NUM_THREADS_ENV!r}, "").strip()
    if env:
        try:
            value = int(env)
            if value > 0:
                return value
        except ValueError:
            pass
    try:
        return max(1, len(_repro_os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, _repro_os.cpu_count() or 1)

def _repro_chunks(start, end, step, pieces):
    total = len(range(start, end, step))
    if total == 0:
        return []
    pieces = max(1, min(int(pieces), total))
    bounds = []
    for index in range(pieces):
        low = (total * index) // pieces
        high = (total * (index + 1)) // pieces
        if high > low:
            bounds.append((start + step * low, start + step * high))
    return bounds

class _ReproShared:
    def __init__(self):
        self._arrays = []
        self._extra = []
    def share(self, array):
        segment = _repro_shm.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._arrays.append((segment, array))
        return view
    def partials(self, count, dtype, identity):
        size = max(1, int(count) * np.dtype(dtype).itemsize)
        segment = _repro_shm.SharedMemory(create=True, size=size)
        view = np.ndarray((int(count),), dtype=dtype, buffer=segment.buf)
        view[...] = identity
        self._extra.append(segment)
        return view
    def restore(self):
        originals = []
        for segment, original in self._arrays:
            view = np.ndarray(original.shape, dtype=original.dtype, buffer=segment.buf)
            original[...] = view
            del view
            originals.append(original)
        for segment, _ in self._arrays:
            segment.close()
            segment.unlink()
        for segment in self._extra:
            segment.close()
            segment.unlink()
        self._arrays = []
        self._extra = []
        return tuple(originals)\
"""


def _reduction_identity(operator: str, dtype: str) -> str:
    """Identity-element literal for one scalar reduction, as source text."""
    floating = dtype.startswith("float")
    if operator == "+":
        return "0.0" if floating else "0"
    if operator == "*":
        return "1.0" if floating else "1"
    if operator == "min":
        return "float('inf')" if floating else f"int(np.iinfo({_NUMPY_DTYPES[dtype]}).max)"
    if operator == "max":
        return "float('-inf')" if floating else f"int(np.iinfo({_NUMPY_DTYPES[dtype]}).min)"
    raise CodegenError(f"No reduction identity for WCR operator {operator!r}")


#: Parent-side fold of one partials vector into the pre-map scalar value.
_REDUCTION_COMBINE = {
    "+": "{name} = {name} + {partials}.sum().item()",
    "*": "{name} = {name} * {partials}.prod().item()",
    "min": "{name} = min({name}, {partials}.min().item())",
    "max": "{name} = max({name}, {partials}.max().item())",
}


#: The NumPy spelling of a tasklet expression: for every construct that
#: :func:`~repro.sdfg.tasklet_code.node_dtype` types, keyed by
#: :func:`~repro.sdfg.tasklet_code.construct`, the text over its already
#: spelled operands — or the :class:`Refused` name of what has no
#: element-wise meaning (``a if v else b`` asks a vector for one truth
#: value) or another one (``int ** -1`` raises, ``min`` hands back an
#: operand).  Casts truncate as C's do.
NUMPY = {
    **dict.fromkeys((bool, int, float), lambda node, _, __: repr(node.value)),
    **{operator: f"{{}} {text} {{}}" for operator, text in OPERATORS.items()},
    ast.Pow: Refused("power"),
    ast.USub: "-{}", ast.UAdd: "+{}", ast.Invert: "~{}", ast.Not: Refused("boolean"),
    ast.IfExp: Refused("conditional"), ast.And: Refused("boolean"), ast.Or: Refused("boolean"),
    **{f"math.{name}": f"np.{name}({{}})"
       for name in ("sqrt", "exp", "log", "log2", "sin", "cos", "tanh", "fabs")},
    "math.atan2": "np.arctan2({}, {})", "math.pow": "np.float_power({}, {})",
    "math.floor": "np.int64(np.floor({}))", "math.ceil": "np.int64(np.ceil({}))",
    "float": "np.float64({})", "int": "np.int64({})", "abs": "abs({})",
    "bool": Refused("bool_cast"), "min": Refused("min_max"), "max": Refused("min_max"),
}


@lru_cache(maxsize=8192)  # one per tasklet body: ``statements`` shares them
def _refusal(assignment) -> Optional[str]:
    """The :class:`Refused` name of ``assignment``'s expression; ``None`` when it spells."""
    try:
        spell(assignment.value, NUMPY, lambda name: (name, None), as_operand)
    except Unspelled as refusal:
        return refusal.args[0]
    return None


#: The ufunc whose ``accumulate`` folds a vector in by each update operator.
_ACCUMULATE = {"+": "np.add", "*": "np.multiply"}


class PythonEmitter(SDFGWalker):
    """Python syntax for the SDFG walk: a ``run(**kwargs)`` function."""

    backend = "Python"
    # The interpreted executor's workers are processes: there are no
    # atomics, so maps needing atomic WCR updates lower sequentially.
    has_atomics = False
    array_maps = True  # NumPy
    end = ""
    comment = "# {}"
    while_header = "while {}"
    if_header = "if {}"
    elif_header = "elif {}"
    unless_header = "if not ({})"
    true = "True"
    dispatch_live = "{} is not None"
    empty_read = "None"

    def __init__(self, sdfg: SDFG, vectorize: bool = False):
        super().__init__(sdfg, vectorize, SourceWriter(braces=False))
        self._parallel_counter = 0
        #: Whether the array map being emitted has bound its parameter's values.
        self._values_bound = False

    expr = staticmethod(str)  # ``str(expr)`` is Python source: symbolic/printer.py

    # -- program frame -----------------------------------------------------------------
    def emit_preamble(self) -> None:
        writer = self.writer
        writer.emit("import math")
        writer.emit("import numpy as np")
        if self._parallel_maps:
            for line in _PARALLEL_HELPERS.splitlines():
                writer.emit(line)
        writer.emit()

    def entry_header(self) -> str:
        return "def run(**_args)"

    def emit_prologue(self) -> None:
        writer = self.writer
        writer.emit("_alloc_count = 0")
        # Symbols: free symbols come from the caller, constants are inlined.
        for name, value in self.sdfg.constants.items():
            writer.emit(f"{name} = {value!r}")
        free = self.sdfg.free_symbols()
        for name in sorted(free):
            writer.emit(f"{name} = _args[{name!r}]")
        for name in sorted(set(self.sdfg.symbols) - free - set(self.sdfg.constants)):
            writer.emit(f"{name} = 0")
        # Externally-visible containers are passed in.
        for name, descriptor in self.sdfg.arrays.items():
            if descriptor.transient:
                continue
            if isinstance(descriptor, Scalar):
                default = "0.0" if descriptor.dtype.startswith("float") else "0"
                writer.emit(f"{name} = _args.get({name!r}, {default})")
            else:
                writer.emit(f"{name} = _args[{name!r}]")

    def declare_transient(self, name: str, descriptor) -> None:
        if isinstance(descriptor, Scalar):
            default = "0.0" if descriptor.dtype.startswith("float") else "0"
            self.writer.emit(f"{name} = {default}")
        else:
            shape = ", ".join(map(self._integer, descriptor.shape))
            dtype = _NUMPY_DTYPES[descriptor.dtype]
            self.writer.emit(f"{name} = np.empty(({shape},), dtype={dtype})")

    def emit_epilogue(self) -> None:
        outputs = []
        for name, descriptor in self.sdfg.arrays.items():
            if not descriptor.transient or name in self.sdfg.return_values:
                outputs.append(name)
        entries = ", ".join(f"{name!r}: {name}" for name in dict.fromkeys(outputs))
        self.writer.emit(f"return {{'__allocations': _alloc_count, {entries}}}")

    # -- control flow ------------------------------------------------------------------
    def emit_assignment(self, name: str, value: Expr) -> None:
        self.writer.emit(f"{name} = {value}")

    def dispatch_register(self, node):
        codes = {state: repr(state.label) for state in node.states}
        codes[None] = "None"
        self.writer.emit(f"_state = {codes[node.entry]}")
        return "_state", codes

    # -- reads, copies, tasklets, writes -----------------------------------------------
    def read(self, data: str, memlet: Memlet) -> str:
        descriptor = self.sdfg.arrays[data]
        if (
            isinstance(descriptor, Scalar)
            or memlet.is_empty or memlet.subset is None or memlet.dynamic
            or not memlet.subset.is_point() and self._covers_whole(descriptor, memlet.subset)
        ):
            return data
        return self.write_target(data, descriptor, memlet.subset)

    def emit_copy(self, source: str, destination: str, subset: Optional[Subset]) -> None:
        source_scalar = isinstance(self.sdfg.arrays[source], Scalar)
        destination_scalar = isinstance(self.sdfg.arrays[destination], Scalar)
        if destination_scalar and source_scalar:
            self.writer.emit(f"{destination} = {source}")
        elif destination_scalar:
            element = self._subscript(subset) if subset is not None else "[0]"
            self.writer.emit(f"{destination} = {source}{element}")
        elif source_scalar:
            element = self._subscript(subset) if subset is not None else "[:]"
            self.writer.emit(f"{destination}{element} = {source}")
        else:
            self.writer.emit(f"np.copyto({destination}, {source})")

    def emit_tasklet(self, tasklet: Tasklet, inputs):
        writer = self.writer
        for connector, expression in inputs:
            writer.emit(f"{connector} = {expression}")
        for line in tasklet.code.splitlines():
            writer.emit(line)
        return lambda connector: connector

    def render_expression(self, assignment, bindings) -> str:
        if self._array_map is None:
            return assignment.operand(bindings)
        param = self._array_map.params[0]

        def name(identifier: str):
            if identifier in bindings:
                return bindings[identifier], None
            return (self._parameter_values() if identifier == param else identifier), None

        return spell(assignment.value, NUMPY, name, as_operand)[0]

    array_refusal = staticmethod(_refusal)

    def bind_input(self, connector: str, read: str) -> str:
        self.writer.emit(f"{connector} = {read}")
        return connector

    def bind_value(self, temp: str, value: str) -> str:
        self.writer.emit(f"{temp} = {value}")
        return temp

    def write_target(self, data: str, descriptor, subset: Subset) -> str:
        if subset.is_point():
            return data + self._subscript(subset)
        return f"{data}[{self._slices(subset)}]"

    def emit_update(self, target: str, descriptor, wcr, value: str, atomic: bool = False) -> None:
        if wcr in ("min", "max"):
            self.writer.emit(f"{target} = {wcr}({target}, {value})")
        else:
            self.writer.emit(f"{target} {UPDATE_OPERATORS.get(wcr, '=')} {value}")

    def emit_broadcast(self, data: str, descriptor, wcr, value: str) -> None:
        # Pinned output: a min/max WCR broadcast has always been a plain store.
        self.writer.emit(f"{data}[...] {UPDATE_OPERATORS.get(wcr, '=')} {value}")

    def emit_reduction(self, target: str, wcr: str, values: str) -> None:
        # ``accumulate`` computes every prefix, so it cannot reassociate.
        self.writer.emit(
            f"{target} = {_ACCUMULATE[wcr]}.accumulate(np.concatenate((({target},), {values})))[-1]"
        )

    # -- bounds and subscripts ---------------------------------------------------------
    def _integer(self, expression: Expr) -> str:
        """``expression`` where an integer must stand: as written when it
        provably is one (a literal, an integer symbol, ``+ * // % min max`` of
        such), else coerced."""
        text = str(expression)
        return text if self._integral(expression) else f"int({text})"

    def _integral(self, expression: Expr) -> bool:
        if isinstance(expression, Symbol):
            return not self._name_dtypes.get(expression.name, "int64").startswith("float")
        return isinstance(expression, Integer) or (
            isinstance(expression, (Add, Mul, FloorDiv, Mod, Min, Max))
            and all(map(self._integral, expression.children()))
        )

    def _span(self, rng: Range, separator: str) -> str:
        """``rng`` as the arguments of ``range``/``np.arange`` (``", "``) or the
        bounds of a slice (``":"``): a unit step is not written."""
        parts = (rng.start, rng.end) if rng.step == 1 else (rng.start, rng.end, rng.step)
        return separator.join(map(self._integer, parts))

    def _slices(self, subset: Subset) -> str:
        return ", ".join(
            str(rng.start) if rng.is_point() else self._span(rng, ":") for rng in subset.ranges
        )

    def _subscript(self, subset: Subset) -> str:
        """``[…]`` selecting one element; inside an array map, that element of
        every iteration.  Where the only index that moves with the parameter
        is ``a * p + b`` with a literal ``a`` and the map's step is a literal,
        that is a slice — for ``a < 0`` (and a unit step) the slice of the
        same elements read backwards, since a negative stride cannot name an
        end below element 0 — else the index over the parameter's values."""
        indices = subset.indices()
        texts = list(map(str, indices))
        reverse = ""
        if self._array_map is not None:
            param, rng = self._array_map.params[0], self._array_map.ranges[0]
            symbol = Symbol(param)
            moving = [dim for dim, index in enumerate(indices) if symbol in index.free_symbols()]
            slope, offset = (
                affine_in(indices[moving[0]], param, (0, None))
                if len(moving) == 1 and isinstance(rng.step, Integer) else (0, None)
            )
            if slope > 0 or (slope < 0 and rng.step == 1):
                first, beyond = slope * rng.start + offset, slope * rng.end + offset
                if slope > 0:
                    elements = Range(first, beyond, slope * rng.step)
                else:  # the last iteration's element up to the first one's
                    elements, reverse = Range(beyond - slope, first + 1, -slope), "[::-1]"
                texts[moving[0]] = self._span(elements, ":")
            elif moving:
                self._parameter_values()
        return f"[{', '.join(texts)}]{reverse}"

    def _parameter_values(self) -> str:
        """The array map's parameter as the vector of its values, bound on first use."""
        param, rng = self._array_map.params[0], self._array_map.ranges[0]
        if not self._values_bound:
            self.writer.emit(f"{param} = np.arange({self._span(rng, ', ')})")
            self._values_bound = True
        return param

    # -- maps --------------------------------------------------------------------------
    def emit_map(self, entry: MapEntry, emit_members, vectorized: bool, parallel) -> None:
        if vectorized:
            self._values_bound = False
            emit_members()
            return
        loops = [
            f"for {param} in range({self._span(rng, ', ')})"
            for param, rng in zip(entry.map.params, entry.map.ranges)
        ]
        if parallel is not None:
            self._emit_fork_join(entry, loops, emit_members, parallel)
        else:
            self._emit_loops(loops, emit_members)

    def _emit_loops(self, headers: List[str], emit_members) -> None:
        with ExitStack() as nest:
            for header in headers:
                nest.enter_context(self.writer.block(header))
            emit_members()

    def _emit_fork_join(self, entry: MapEntry, loops: List[str], emit_members,
                        info: ParallelismInfo) -> None:
        """Emit a map as a fork/join over chunks of its first dimension.

        ``loops`` are the headers of the map's sequential loop nest.
        The chunk grain is the outermost map parameter (after MapTiling
        that is the tile loop), split contiguously across the resolved
        worker count.  Written arrays move into shared-memory segments so
        worker writes survive the fork boundary; scalar WCR reductions
        accumulate privately per chunk into partial slots that the parent
        folds back in chunk order (deterministic for a fixed chunking).
        Degenerate chunkings — one worker, empty range, or no ``fork``
        start method on this platform — take the sequential loop nest.
        """
        writer = self.writer
        index = self._parallel_counter
        self._parallel_counter += 1
        chunks = f"_pchunks{index}"
        first = entry.map.ranges[0]
        step = self._integer(first.step)
        requested = entry.map.n_threads or 0
        writer.emit(
            f"{chunks} = _repro_chunks({self._integer(first.start)}, "
            f"{self._integer(first.end)}, {step}, "
            f"_repro_workers({requested})) if _repro_fork_ok else []"
        )
        with writer.block(f"if len({chunks}) <= 1"):
            self._emit_loops(loops, emit_members)
        with writer.block("else"):
            shared = f"_pshared{index}"
            writer.emit(f"{shared} = _ReproShared()")
            written = list(info.written_arrays)
            for name in written:
                writer.emit(f"{name} = {shared}.share({name})")
            partials = {}
            for name, operator in info.reductions:
                slot = f"_partial{index}_{name}"
                partials[name] = slot
                dtype = self.sdfg.arrays[name].dtype
                identity = _reduction_identity(operator, dtype)
                writer.emit(
                    f"{slot} = {shared}.partials(len({chunks}), "
                    f"{_NUMPY_DTYPES[dtype]}, {identity})"
                )
            body = f"_pbody{index}"
            with writer.block(f"def {body}(_pindex, _plow, _phigh)"):
                for name, operator in info.reductions:
                    dtype = self.sdfg.arrays[name].dtype
                    writer.emit(f"{name} = {_reduction_identity(operator, dtype)}")
                stride = "" if first.step == 1 else f", {step}"
                chunk_loop = f"for {entry.map.params[0]} in range(_plow, _phigh{stride})"
                self._emit_loops([chunk_loop] + loops[1:], emit_members)
                for name, _ in info.reductions:
                    writer.emit(f"{partials[name]}[_pindex] = {name}")
            procs = f"_pprocs{index}"
            writer.emit(f"{procs} = []")
            with writer.block(f"for _pindex, (_plow, _phigh) in enumerate({chunks})"):
                writer.emit(
                    f"_proc = _repro_ctx.Process(target={body}, "
                    "args=(_pindex, int(_plow), int(_phigh)))"
                )
                writer.emit("_proc.start()")
                writer.emit(f"{procs}.append(_proc)")
            with writer.block(f"for _proc in {procs}"):
                writer.emit("_proc.join()")
                with writer.block("if _proc.exitcode != 0"):
                    writer.emit(
                        "raise RuntimeError('parallel map worker failed "
                        "(exit code %r)' % (_proc.exitcode,))"
                    )
            for name, operator in info.reductions:
                writer.emit(_REDUCTION_COMBINE[operator].format(name=name, partials=partials[name]))
                writer.emit(f"{partials[name]} = None")
            if written:
                targets = ", ".join(written) + ("," if len(written) == 1 else "")
                writer.emit(f"{targets} = {shared}.restore()")
            else:
                writer.emit(f"{shared}.restore()")


@dataclass
class CompiledSDFG:
    """An executable program generated from an SDFG."""

    sdfg: Optional[SDFG]
    code: str
    _function: object = field(repr=False, default=None)

    def __call__(self, **kwargs):
        return self._function(**kwargs)

    def run(self, **kwargs):
        return self._function(**kwargs)

    @classmethod
    def from_code(cls, code: str, sdfg: Optional[SDFG] = None, name: str = "cached") -> "CompiledSDFG":
        """Rehydrate an executable from previously generated code.

        The SDFG is optional: the code string is self-contained, so cache
        layers can persist it alone and reload without any IR.
        """
        return cls(sdfg=sdfg, code=code, _function=load_entry(code, filename=f"<sdfg:{name}>"))


def generate_code(sdfg: SDFG, vectorize: bool = False) -> str:
    """Generate Python source implementing ``sdfg``."""
    return PythonEmitter(sdfg, vectorize=vectorize).generate()


def compile_sdfg(sdfg: SDFG, vectorize: bool = False) -> CompiledSDFG:
    """Generate and load an executable program for ``sdfg``."""
    code = generate_code(sdfg, vectorize=vectorize)
    return CompiledSDFG.from_code(code, sdfg=sdfg, name=sdfg.name)
