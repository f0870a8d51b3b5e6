"""SDFG → C code generation (the native backend).

The paper's evaluation measures wall-clock time of *compiled* binaries;
this generator emits a C translation unit from the SDFG so schedules can
be validated against real machine code instead of the interpreted Python
backend.  :class:`CEmitter` is the C syntax for the traversal it shares
with the Python backend (:mod:`repro.codegen.sdfg_walk`), so a native run
and an interpreted run of the same SDFG report identical
``__allocations`` counts and outputs:

* raised control flow becomes ``while``/``if``/``for`` statements;
* map scopes become counted loops — integer-literal bounds written in the
  header, a bound that is an expression hoisted into ``const int64_t``
  ``_loN``/``_hiN``/``_stN`` so it is evaluated once; under the
  ``vectorize`` flag, a sequential map the walker accepts
  (:func:`~repro.codegen.sdfg_walk.vectorizable_map`) asks the C compiler
  for SIMD (``#pragma GCC ivdep``);
* WCR memlets become in-place accumulations (``+=``, ``*=``, min/max), into
  a ``double``/``int64_t`` local where the walker finds a reduction;
* transient arrays are carved from one caller-owned workspace (the
  trailing ``char *_ws`` argument) by ``repro_take``, a 64-byte-aligning
  bump that leaves one cache line between containers — the translation
  unit calls no allocator.  The ABI header's ``workspace`` says how many
  bytes the block must hold: an integer when every transient's size is
  constant, else an expression in the free symbols; each container is
  charged its bytes plus 128 (alignment and the free line).
  Nothing zeroes the block, so a transient holds whatever the thread's
  last program left there until this one writes it;
* the allocation counter is threaded out through a pointer argument.

The generated source is self-contained and carries a one-line JSON ABI
header (interface containers, free symbols, constants), so
:class:`~repro.codegen.toolchain.CompiledNative` can rebuild the ctypes
marshalling layer from the code string alone — the same
rehydrate-from-source contract as ``CompiledSDFG.from_code``.

Constructs the scalar C model cannot express (MLIR-language tasklets,
whole-array connector bindings, strided subset writes) raise
:class:`NativeCodegenError`; the pipeline layer falls back to the Python
backend with a diagnostic rather than failing the compilation.

Python-semantics note: ``/`` always divides in ``double`` (the tasklet
raiser emits ``//`` for integer division), ``//``/``%`` follow Python's
floor/sign rules via inline helpers, and ``int()`` truncates toward zero
— all matching the interpreted backend so differential checks compare
equal bit-for-bit on integer data.  :func:`_c_binop` is the one place
``/``, ``//``, ``%`` and ``**`` are spelled (:func:`_c_minmax` for n-ary
``min``/``max``): the rows of both C tables call it — ``C_TASKLET``, which
the shared walker (:func:`~repro.sdfg.tasklet_code.spell`) reads for
tasklet code, and ``C``, the symbolic node classes.
"""

from __future__ import annotations

import ast
import json
from contextlib import ExitStack, contextmanager
from typing import Dict, List, Optional, Set, Tuple

from ..operators import CALLS
from ..symbolic import Expr, Subset
from ..symbolic.expr import (
    Add,
    And,
    BoolConst,
    Compare,
    Div,
    Float,
    FloorDiv,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Pow,
    Symbol,
)
from ..symbolic.printer import render
from ..sdfg import SDFG, Memlet, Scalar, Tasklet
from ..sdfg.data import Array, DTYPES
from ..sdfg.nodes import MapEntry
from ..sdfg.parallelism import NUM_THREADS_ENV, ParallelismInfo
from ..sdfg.tasklet_code import OPERATORS, Unspelled, spell, statements
from .sdfg_walk import UPDATE_OPERATORS, CodegenError, SDFGWalker
from .toolchain import ABI_MARKER
from .writer import SourceWriter

#: Exported entry-point symbol of every generated translation unit.
ENTRY_SYMBOL = "repro_run"


class NativeCodegenError(CodegenError):
    """Raised when an SDFG uses constructs the C backend cannot express.

    The pipeline layer treats this as "fall back to the Python backend",
    not as a compilation failure.
    """


#: Every ``static`` helper a translation unit may call, by name, in the
#: order they are written out; only the ones the body references are.
#:
#: ``repro_take`` must stay ``malloc`` + ``noinline``: pointers carved from
#: one block are, to the C compiler, offsets of one pointer that may all
#: alias, and the attribute is what says they do not (without it the
#: matrix-product kernels compile to 1.5–2 × slower loops than with
#: ``malloc``'d arrays; ``restrict`` on the local declarations does not
#: restore it).  It leaves a cache line between containers: PolyBench's
#: arrays are whole pages, and packed back to back they would all start at
#: the same offset in a page — the same L1 sets, and 4 KiB-aliased loads and
#: stores (symm and syr2k ran 7–15 % slower than with ``malloc``, whose
#: chunk headers staggered them; one line apart they run 20–30 % faster).
#:
#: ``repro_omp_threads`` resolves the worker count of a parallel map:
#: explicit ``n_threads`` annotation, then the environment override, then
#: the OpenMP runtime default (1 without OpenMP).
_HELPERS = {
    "repro_take": """\
__attribute__((malloc, noinline)) static void *repro_take(char **ws, uint64_t bytes) {
    char *base = (char *)(((uintptr_t)*ws + 63) & ~(uintptr_t)63);
    *ws = base + bytes + 64;
    return base;
}""",
    "repro_fdiv_i64": """\
static inline int64_t repro_fdiv_i64(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;  /* Python floor division */
    return q;
}""",
    "repro_mod_i64": """\
static inline int64_t repro_mod_i64(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;  /* Python sign-of-divisor rule */
    return r;
}""",
    "repro_mod_f64": """\
static inline double repro_mod_f64(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) r += b;
    return r;
}""",
    "repro_min_i64":
        "static inline int64_t repro_min_i64(int64_t a, int64_t b) { return a < b ? a : b; }",
    "repro_max_i64":
        "static inline int64_t repro_max_i64(int64_t a, int64_t b) { return a > b ? a : b; }",
    "repro_min_f64":
        "static inline double repro_min_f64(double a, double b) { return a < b ? a : b; }",
    "repro_max_f64":
        "static inline double repro_max_f64(double a, double b) { return a > b ? a : b; }",
    "repro_abs_i64":
        "static inline int64_t repro_abs_i64(int64_t a) { return a < 0 ? -a : a; }",
    "repro_omp_threads": f"""\
#ifdef _OPENMP
#include <omp.h>
#endif
static inline int repro_omp_threads(int64_t requested) {{
    if (requested > 0) return (int)requested;
    const char *env = getenv("{NUM_THREADS_ENV}");
    if (env && env[0]) {{
        int value = atoi(env);
        if (value > 0) return value;
    }}
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}}""",
}

#: Bytes charged per workspace container on top of its own: what
#: ``repro_take`` may skip to reach a 64-byte boundary, plus the line it
#: leaves free behind the container.
_WORKSPACE_SLACK = 128


def _int_literal(value: int) -> str:
    return f"{value}LL" if abs(value) > 2**31 - 1 else str(value)


def _contains_float(expression: Expr) -> bool:
    return isinstance(expression, Float) or any(map(_contains_float, expression.children()))


def _c_binop(operator: str, left: str, right: str, floats: bool) -> str:
    """C text of ``left operator right`` with Python's meaning (``floats``: an operand is floating).

    The one place ``/``, ``//``, ``%`` and ``**`` are spelled in C — for
    tasklet code and for symbolic expressions alike.
    """
    if operator == "/":
        # Python true division: always double (the raiser uses // for ints).
        return f"((double)({left}) / (double)({right}))"
    if operator == "//":
        if floats:
            return f"floor((double)({left}) / (double)({right}))"
        return f"repro_fdiv_i64((int64_t)({left}), (int64_t)({right}))"
    if operator == "%":
        if floats:
            return f"repro_mod_f64((double)({left}), (double)({right}))"
        return f"repro_mod_i64((int64_t)({left}), (int64_t)({right}))"
    if operator == "**":
        return f"pow((double)({left}), (double)({right}))"
    return f"(({left}) {operator} ({right}))"


def _c_minmax(kind: str, operands: List[str], floats: bool) -> str:
    """C text of n-ary ``min``/``max``: a left fold over the two-operand helper."""
    suffix = "f64" if floats else "i64"
    text = operands[0]
    for operand in operands[1:]:
        text = f"repro_{kind}_{suffix}({text}, {operand})"
    return text


#: The C spelling of every symbolic node class (``symbolic/printer.py`` holds
#: the Python one).  Every compound operand is parenthesised, so C's grouping
#: never matters.  Bounds and tiling clamps are integral; a float literal
#: anywhere under ``//``, ``%``, ``min`` or ``max`` switches to the double form.
C = {
    Integer: lambda node, _: _int_literal(node.value),
    Float: lambda node, _: repr(node.value),
    Symbol: lambda node, _: node.name,
    BoolConst: lambda node, _: "1" if node.value else "0",
    Add: lambda node, operands: "(" + " + ".join(operands) + ")",
    Mul: lambda node, operands: "(" + " * ".join(operands) + ")",
    Div: lambda node, operands: _c_binop("/", *operands, False),
    FloorDiv: lambda node, operands: _c_binop("//", *operands, _contains_float(node)),
    Mod: lambda node, operands: _c_binop("%", *operands, _contains_float(node)),
    Pow: lambda node, operands: _c_binop("**", *operands, False),
    Min: lambda node, operands: _c_minmax("min", operands, _contains_float(node)),
    Max: lambda node, operands: _c_minmax("max", operands, _contains_float(node)),
    Compare: lambda node, operands: _c_binop(node.op, *operands, False),
    And: lambda node, operands: "(" + " && ".join(f"({operand})" for operand in operands) + ")",
    Or: lambda node, operands: "(" + " || ".join(f"({operand})" for operand in operands) + ")",
    Not: lambda node, operands: f"(!({operands[0]}))",
}


def c_symbolic(expression: Expr) -> str:
    """Render a symbolic expression as C source."""
    return render(expression, C, NativeCodegenError)


def _binary(operator: str):
    return lambda _, texts, floats: _c_binop(operator, *texts, floats)


#: The C spelling of every tasklet construct (``sdfg_python.NUMPY`` holds the
#: NumPy one), keyed by :func:`~repro.sdfg.tasklet_code.construct`: a
#: template over the spelled operands, or a function of the node, them and
#: whether one is floating.  Every operand is parenthesised, so C's grouping
#: never matters; a call of an operation's record
#: (:data:`~repro.operators.CALLS`) is its C function on ``double``\ s.
C_TASKLET = {
    bool: lambda node, _, __: "1" if node.value else "0",
    int: lambda node, _, __: _int_literal(node.value),
    float: lambda node, _, __: repr(node.value),
    **{operator: _binary(text) for operator, text in OPERATORS.items()},
    ast.USub: "(-({}))", ast.UAdd: "(+({}))", ast.Not: "(!({}))", ast.Invert: "(~({}))",
    ast.And: lambda _, texts, __: "(" + " && ".join(f"({text})" for text in texts) + ")",
    ast.Or: lambda _, texts, __: "(" + " || ".join(f"({text})" for text in texts) + ")",
    ast.IfExp: lambda _, texts, __: "(({2}) ? ({0}) : ({1}))".format(*texts),
    **{name: f"{record.c[0]}({', '.join(['(double)({})'] * record.arity)})"
       for name, record in CALLS.items()},
    "float": "((double)({}))", "int": "((int64_t)({}))", "bool": "(({}) != 0)",
    # ``abs`` is also ``fabs``'s record, whose row this replaces: it takes integers too.
    "abs": lambda _, texts, floats: None if len(texts) != 1 else f"fabs((double)({texts[0]}))"
    if floats else f"repro_abs_i64((int64_t)({texts[0]}))",
    "min": lambda _, texts, floats: _c_minmax("min", texts, floats) if texts[1:] else None,
    "max": lambda _, texts, floats: _c_minmax("max", texts, floats) if texts[1:] else None,
}


class CEmitter(SDFGWalker):
    """C syntax for the SDFG walk: one translation unit exporting ``repro_run``."""

    backend = "native"
    error = NativeCodegenError
    runs_parallel = True  # ``#pragma omp parallel for``, atomics included
    end = ";"
    comment = "/* {} */"
    while_header = "while ({})"
    if_header = "if ({})"
    unless_header = "if (!({}))"
    true = "1"
    empty_read = None  # Python binds None; unusable in C

    def __init__(self, sdfg: SDFG, vectorize: bool = False):
        super().__init__(sdfg, vectorize, SourceWriter(braces=True))
        self._tasklet_counter = 0
        self._bound_counter = 0
        self._declared: Set[str] = set()
        self._interface = self._interface_containers()

    expr = staticmethod(c_symbolic)

    # -- program frame -----------------------------------------------------------------
    def emit_preamble(self) -> None:
        """Nothing yet: which helpers the file needs is known once the body is written."""

    def generate(self) -> str:
        body = super().generate()
        helpers = [text for name, text in _HELPERS.items() if f"{name}(" in body]
        writer = SourceWriter(braces=True)
        writer.emit("/* Generated by repro.codegen.sdfg_c — native SDFG backend. */")
        writer.emit(f"/* {ABI_MARKER} {json.dumps(self.abi(), sort_keys=True)} */")
        writer.emit("#include <math.h>")
        writer.emit("#include <stdint.h>")
        if any("getenv(" in text for text in helpers):
            writer.emit("#include <stdlib.h>")
        writer.emit()
        for text in helpers:
            writer.emit(text)
        if helpers:
            writer.emit()
        return writer.text() + body

    def abi(self) -> Dict:
        """The JSON ABI header: everything the ctypes wrapper must know."""
        args = []
        for name in self._interface:
            descriptor = self.sdfg.arrays[name]
            entry = {
                "name": name,
                "kind": "scalar" if isinstance(descriptor, Scalar) else "array",
                "dtype": descriptor.dtype,
                "transient": bool(descriptor.transient),
            }
            if isinstance(descriptor, Array):
                entry["shape"] = [str(dim) for dim in descriptor.shape]
            args.append(entry)
        return {
            "entry": ENTRY_SYMBOL,
            "name": self.sdfg.name,
            "args": args,
            "symbols": sorted(self.sdfg.free_symbols()),
            "constants": dict(self.sdfg.constants),
            "workspace": self._workspace_bytes(),
        }

    def _in_workspace(self, name: str, descriptor) -> bool:
        """Interface transients (return values) are wrapper-allocated parameters;
        every other transient array is a slice of the caller's workspace."""
        return (
            isinstance(descriptor, Array)
            and descriptor.transient
            and name not in self._interface
        )

    def _workspace_bytes(self):
        """Bytes the caller's block must hold: an ``int``, or an expression string
        in the free symbols that the wrapper evaluates like a ``shape`` entry."""
        total: Expr = Integer(0)
        for name, descriptor in self.sdfg.arrays.items():
            if self._in_workspace(name, descriptor):
                total = total + (
                    descriptor.total_size() * DTYPES[descriptor.dtype].bytes
                    + _WORKSPACE_SLACK
                )
        if total.is_constant():
            return total.as_int()  # folded here, so a cache hit evaluates nothing
        unknown = {symbol.name for symbol in total.free_symbols()} - (
            self.sdfg.free_symbols() | set(self.sdfg.constants)
        )
        if unknown:
            raise NativeCodegenError(
                f"Transient sizes depend on {sorted(unknown)}, assigned inside the "
                "program: the workspace cannot be sized before the call"
            )
        return str(total)

    def _interface_containers(self) -> List[str]:
        """Containers crossing the ABI, in the epilogue's output order."""
        names = []
        for name, descriptor in self.sdfg.arrays.items():
            if not descriptor.transient or name in self.sdfg.return_values:
                names.append(name)
        return list(dict.fromkeys(names))

    def entry_header(self) -> str:
        parameters = []
        for name in self._interface:
            descriptor = self.sdfg.arrays[name]
            ctype = DTYPES[descriptor.dtype].c_type
            if isinstance(descriptor, Scalar):
                parameters.append(f"{ctype} *_io_{name}")
            else:
                parameters.append(f"{ctype} *restrict {name}")
                self._declared.add(name)
        for symbol in sorted(self.sdfg.free_symbols()):
            dtype = self.sdfg.symbols.get(symbol, "int64")
            if dtype.startswith("float"):
                raise NativeCodegenError(f"Non-integer free symbol {symbol!r}")
            parameters.append(f"int64_t {symbol}")
            self._declared.add(symbol)
        parameters.append("int64_t *_alloc_out")
        parameters.append("char *_ws")
        return f"void {ENTRY_SYMBOL}({', '.join(parameters)})"

    def emit_prologue(self) -> None:
        writer = self.writer
        writer.emit("int64_t _alloc_count = 0;")
        for name, value in self.sdfg.constants.items():
            ctype = "double" if isinstance(value, float) else "int64_t"
            writer.emit(f"const {ctype} {name} = {value!r};")
            self._declared.add(name)
        free = self.sdfg.free_symbols()
        for name in sorted(set(self.sdfg.symbols) - free - set(self.sdfg.constants)):
            self._declare_zero(name, self.sdfg.symbols[name])
        # Interstate assignments may introduce loop variables that were
        # never registered as SDFG symbols; Python creates them on first
        # assignment, C must declare them up front.
        for edge in self.sdfg.edges():
            for name in edge.data.assignments:
                if name not in self._declared:
                    writer.emit(f"int64_t {name} = 0;")
                    self._declared.add(name)
        # Interface scalars: read through the in/out cell (the wrapper
        # seeds it with the caller's value, or 0 for transient outputs —
        # exactly `_args.get(name, default)` / `name = 0` in Python).
        for name in self._interface:
            descriptor = self.sdfg.arrays[name]
            if isinstance(descriptor, Scalar):
                ctype = DTYPES[descriptor.dtype].c_type
                writer.emit(f"{ctype} {name} = *_io_{name};")
                self._declared.add(name)

    def _declare_zero(self, name: str, dtype: str) -> None:
        zero = "0.0" if dtype in ("float64", "float32") else "0"
        self.writer.emit(f"{DTYPES[dtype].c_type} {name} = {zero};")
        self._declared.add(name)

    def declare_transient(self, name: str, descriptor) -> None:
        if isinstance(descriptor, Scalar):
            if name not in self._interface:  # else already bound from its in/out cell
                self._declare_zero(name, descriptor.dtype)
        elif self._in_workspace(name, descriptor):
            ctype = DTYPES[descriptor.dtype].c_type
            total = c_symbolic(descriptor.total_size())
            self.writer.emit(
                f"{ctype} *{name} = ({ctype} *)repro_take(&_ws, sizeof({ctype}) * {total});"
            )
            self._declared.add(name)

    def emit_epilogue(self) -> None:
        writer = self.writer
        for name in self._interface:
            if isinstance(self.sdfg.arrays[name], Scalar):
                writer.emit(f"*_io_{name} = {name};")
        writer.emit("*_alloc_out = _alloc_count;")

    # -- control flow ------------------------------------------------------------------
    def emit_assignment(self, name: str, value: Expr) -> None:
        if name not in self._declared:
            raise NativeCodegenError(f"Assignment to undeclared symbol {name!r}")
        self.writer.emit(f"{name} = {c_symbolic(value)};")

    # -- reads, copies, tasklets, writes -----------------------------------------------
    def read(self, data: str, memlet: Memlet) -> Tuple[str, str]:
        descriptor = self.sdfg.arrays[data]
        if isinstance(descriptor, Scalar):
            return data, descriptor.dtype
        if memlet.is_empty or memlet.subset is None or memlet.dynamic:
            raise NativeCodegenError(
                f"Whole-array connector binding of {data!r} (dynamic or unsubscripted "
                "memlet) is not expressible in scalar C"
            )
        if memlet.subset.is_point():
            return (
                f"{data}{self._flat_index(descriptor, memlet.subset.indices())}", descriptor.dtype
            )
        raise NativeCodegenError(
            f"Non-point read of {data!r} is not expressible in scalar C"
        )

    def emit_copy(self, source: str, destination: str, subset: Optional[Subset]) -> None:
        writer = self.writer
        src_descriptor = self.sdfg.arrays[source]
        dst_descriptor = self.sdfg.arrays[destination]
        if isinstance(dst_descriptor, Scalar) and isinstance(src_descriptor, Scalar):
            writer.emit(f"{destination} = {source};")
        elif isinstance(dst_descriptor, Scalar):
            index = self._flat_index(src_descriptor, subset.indices()) if subset is not None else "[0]"
            writer.emit(f"{destination} = {source}{index};")
        elif isinstance(src_descriptor, Scalar):
            if subset is not None and subset.is_point():
                index = self._flat_index(dst_descriptor, subset.indices())
                writer.emit(f"{destination}{index} = {source};")
            else:
                self.emit_broadcast(
                    destination, dst_descriptor, None, self.read(source, Memlet(data=source))
                )
        else:
            if [str(d) for d in dst_descriptor.shape] != [str(d) for d in src_descriptor.shape]:
                raise NativeCodegenError(
                    f"Array copy {source} -> {destination} with mismatched shapes"
                )
            ctype = DTYPES[dst_descriptor.dtype].c_type
            with self._each_element("_copy", dst_descriptor) as counter:
                writer.emit(f"{destination}[{counter}] = ({ctype}){source}[{counter}];")

    @contextmanager
    def _each_element(self, stem: str, descriptor):
        """Block looping a fresh counter over every element of a container."""
        counter = f"{stem}{self._bound_counter}"
        self._bound_counter += 1
        total = c_symbolic(descriptor.total_size())
        with self.writer.block(
            f"for (int64_t {counter} = 0; {counter} < (int64_t)({total}); {counter}++)"
        ):
            yield counter

    def render_expression(self, assignment, env: Dict[str, Optional[Tuple[str, str]]]):
        """``(C text, dtype)`` of a statement's expression over ``env`` (connector
        or local → ``(text, dtype)``, ``None`` when fed by an empty memlet), the
        SDFG's symbols and its constants."""
        def name(identifier: str) -> Tuple[str, str]:
            if identifier in env:
                if env[identifier] is None:
                    raise NativeCodegenError(f"Tasklet reads connector {identifier!r} "
                                             "bound to an empty memlet")
                return env[identifier]
            if identifier not in self._name_dtypes:
                raise NativeCodegenError(f"Tasklet references unknown name {identifier!r}")
            return identifier, self._name_dtypes[identifier]

        try:
            return spell(assignment.value, C_TASKLET, name)
        except Unspelled as refusal:
            raise NativeCodegenError(f"No C spelling for tasklet {refusal.args[1]!r}") from refusal

    def bind_input(self, connector: str, read: Tuple[str, str]) -> Tuple[str, str]:
        self._bound_counter += 1
        return self.bind_value(f"_read{self._bound_counter - 1}", read)

    def emit_tasklet(self, tasklet: Tasklet, inputs):
        # A per-tasklet prefix lets the locals of all tasklets share one C scope.
        prefix = f"_t{self._tasklet_counter}_"
        self._tasklet_counter += 1
        env: Dict[str, Optional[Tuple[str, str]]] = {
            connector: read and self.bind_value(prefix + connector, read)
            for connector, read in inputs
        }
        body = statements(tasklet.code)
        if body is None or not all(statement.target for statement in body):
            raise NativeCodegenError("Native backend supports only 'name = expression' lines")
        for statement in body:
            value = self.render_expression(statement, env)
            declared = env.get(statement.target)
            if declared is not None:
                self.writer.emit(f"{declared[0]} = {value[0]};")
            else:
                env[statement.target] = self.bind_value(prefix + statement.target, value)

        def output(connector: str) -> Tuple[str, str]:
            value = env.get(connector)
            if value is None:
                raise NativeCodegenError(
                    f"Tasklet {tasklet.label!r} never assigns out connector {connector!r}"
                )
            return value

        return output

    def bind_value(self, temp: str, value: Tuple[str, str]) -> Tuple[str, str]:
        text, dtype = value
        self.writer.emit(f"{DTYPES[dtype].c_type} {temp} = {text};")
        return temp, dtype

    def write_target(self, data: str, descriptor, subset: Subset) -> str:
        if not subset.is_point():
            raise NativeCodegenError(
                f"Strided subset write to {data!r} is not expressible in scalar C"
            )
        return f"{data}{self._flat_index(descriptor, subset.indices())}"

    def emit_update(self, target: str, descriptor, wcr, value, atomic: bool = False) -> None:
        """One write-conflict-resolved update: WCR memlets accumulate in place.

        ``atomic`` marks ``+``/``*`` WCR updates inside a parallel map
        whose target the partition proof could not privatize; the update
        statement itself is unchanged, so sequential builds stay
        byte-identical and non-OpenMP builds compile the same code.
        """
        writer = self.writer
        value = value[0]
        if atomic and wcr in ("+", "*"):
            writer.emit("#ifdef _OPENMP")
            writer.emit("#pragma omp atomic")
            writer.emit("#endif")
        if wcr in ("min", "max"):
            suffix = "f64" if descriptor.dtype.startswith("float") else "i64"
            writer.emit(f"{target} = repro_{wcr}_{suffix}({target}, {value});")
        elif wcr in UPDATE_OPERATORS:
            writer.emit(f"{target} {UPDATE_OPERATORS[wcr]} {value};")
        else:
            raise NativeCodegenError(f"Unsupported WCR operator {wcr!r}")

    def emit_broadcast(self, data: str, descriptor, wcr, value) -> None:
        if wcr in ("min", "max"):
            raise NativeCodegenError(f"Broadcast {wcr}-WCR write to {data!r}")
        with self._each_element("_fill", descriptor) as counter:
            self.writer.emit(f"{data}[{counter}] {UPDATE_OPERATORS.get(wcr, '=')} {value[0]};")

    # -- maps --------------------------------------------------------------------------
    def emit_map(self, entry: MapEntry, emit_members, vectorized: bool, parallel) -> None:
        writer = self.writer
        with ExitStack() as nest:
            for position, (param, rng) in enumerate(zip(entry.map.params, entry.map.ranges)):
                bounds = (rng.start, rng.end, rng.step)
                if all(isinstance(bound, Integer) for bound in bounds):
                    low, high, step = map(c_symbolic, bounds)
                else:
                    # An expression is evaluated once, not once per iteration.
                    suffix = self._bound_counter
                    self._bound_counter += 1
                    low, high, step = f"_lo{suffix}", f"_hi{suffix}", f"_st{suffix}"
                    for name, bound in zip((low, high, step), bounds):
                        writer.emit(f"const int64_t {name} = (int64_t)({c_symbolic(bound)});")
                declare = "" if param in self._declared else "int64_t "
                if vectorized:
                    # A sequential, single-parameter, WCR-free map of
                    # element-wise tasklets: safe to ask for SIMD.
                    writer.emit("#pragma GCC ivdep")
                if parallel is not None and position == 0:
                    self._emit_parallel_pragma(entry, parallel)
                nest.enter_context(writer.block(
                    f"for ({declare}{param} = {low}; {param} < {high}; {param} += {step})"
                ))
            emit_members()

    def _emit_parallel_pragma(self, entry: MapEntry, info: ParallelismInfo) -> None:
        """The ``omp parallel for`` line splitting the chunked parameter.

        The loop variable is implicitly private; remaining scope
        parameters declared at function scope (interstate loop variables)
        need an explicit ``private`` clause, ones declared in their own
        ``for`` init are block-scoped and private already.  Scalar WCR
        accumulators become ``reduction`` clauses.  ``schedule(static)``
        keeps chunk assignment deterministic run to run.
        """
        writer = self.writer
        requested = entry.map.n_threads or 0
        clauses = [f"num_threads(repro_omp_threads({requested}))"]
        shared_params = [p for p in info.private_params if p in self._declared]
        if shared_params:
            clauses.append(f"private({', '.join(shared_params)})")
        for name, operator in info.reductions:
            clauses.append(f"reduction({operator}:{name})")
        clauses.append("schedule(static)")
        writer.emit("#ifdef _OPENMP")
        writer.emit(f"#pragma omp parallel for {' '.join(clauses)}")
        writer.emit("#endif")

    # -- subset rendering --------------------------------------------------------------
    def _flat_index(self, descriptor, indices) -> str:
        if len(indices) != len(descriptor.shape):
            raise NativeCodegenError(
                f"Partial index ({len(indices)} of {len(descriptor.shape)} dims) "
                "is not expressible in scalar C"
            )
        strides: List[Expr] = []
        stride: Expr = Integer(1)
        for dim in reversed(descriptor.shape):
            strides.append(stride)
            stride = stride * dim
        strides.reverse()
        terms = []
        for index, dim_stride in zip(indices, strides):
            text = f"(int64_t)({c_symbolic(index)})"
            if not (isinstance(dim_stride, Integer) and dim_stride.value == 1):
                text += f" * (int64_t)({c_symbolic(dim_stride)})"
            terms.append(text)
        return "[" + " + ".join(terms) + "]"


def generate_c_code(sdfg: SDFG, vectorize: bool = False) -> str:
    """Generate a C translation unit implementing ``sdfg``.

    Raises :class:`NativeCodegenError` when the SDFG uses constructs the
    native backend cannot express — callers fall back to
    :func:`~repro.codegen.sdfg_python.generate_code`.
    """
    return CEmitter(sdfg, vectorize=vectorize).generate()
