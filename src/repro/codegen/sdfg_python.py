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
where the walker finds a reduction.  A map's schedule is not read: every
map runs in order, which is sound for one ``Parallelize`` proved safe too;
only native code (:mod:`repro.codegen.sdfg_c`) runs maps in parallel.

A map nest is an array expression.  Every nest the walker accepts
(:meth:`~repro.codegen.sdfg_walk.SDFGWalker._array_form`) is written as n-d
NumPy operations, one per tasklet, under every pipeline — the ``vectorize``
flag of ``dcir+vec`` changes nothing here.  Axis *n* of every operand is
the nest's parameter *n* around the tasklet.  An index affine in one
parameter with a positive literal coefficient, in one dimension of its
memlet, is a **slice** along that axis (``A[0:24, 0:20]``, ``B[2:n - 1]``;
with a negative one the same slice read backwards, ``x[0:k][::-1]``);
slices in another order than the nest's are transposed
(``B[0:20, 0:22].transpose(1, 0)``), and an operand that does not move
with a later parameter gets a new axis for it (``A[0:24, 0:20, None]``), so
that it broadcasts.  A parameter becomes the grid of its values
(``i = np.arange(0, 24)[:, None]``, bound on first use) only where a
tasklet computes with it or an index is anything else.  The tasklet
expression is spelled through :data:`NUMPY`; an update of an element that
moves with every parameter is an in-place update, an update of one that
does not is folded in with ``np.add.accumulate`` along the axes of the
parameters it does not move with — over the whole nest ``np.ravel`` in
nest order — left to right from the element, the order of the loops it
replaces.  A scalar private to the iterations holds the array of their
values: the copy that binds it is the slice it reads
(``_load_13 = _arr_0[0:100, 0:100]``).  A private array holds one copy
per iteration of the maps around its binding, allocated where that map
is entered and indexed by their parameters ahead of its own dimensions
(``_arr_2_copies[0:10, 0:8, 0:12] = 0.0``).

A loop nest runs on Python lists where that is faster.  A **scalar
region** is an outermost loop with no whole-array copy or dispatch region
in it, over transient ``float64`` containers, arrays only at a point,
whose tasklets compute on floats only what gives ``np.float64``'s bits
(:data:`SAME_BITS`), and whose maps, if it holds any, are short: fewer
than :data:`SHORT_MAPS` (32) elements per array statement executed, by a
closed-form count over the literal trip counts of its loops and maps
(:mod:`repro.symbolic.sums`).  Each array it touches is a list while it
runs (``_arr_0_l = _arr_0.tolist()``, ``_arr_0_l[i_0][j_0]``); the arrays
it wrote are stored back after it (``_arr_0[...] = _arr_0_l``), the live
scalars it wrote made ``np.float64`` again.  In it a counted loop is a
``for`` over a ``range``, then its induction is set to the value the
``while`` would leave; a map is a ``for`` per parameter in ascending order,
the order of the loop it was raised from and of ``accumulate``, its
reductions into a local.  A row that does not change in a loop is bound
ahead of it (``_arr_0_l0 = _arr_0_l[i_0 - 1]``, ``_arr_0_l0[j_0 - 1]``)
only where its index is provably in range
(:func:`~repro.symbolic.ranges.upper_bound`): a lookup that a loop making
no trip would skip cannot raise.  An element read is a list index, not a
boxed NumPy scalar: seidel-2d, floyd-warshall, softmax, cholesky and lu
run 2–6 times faster than on NumPy.

Outside array nests a ``math`` call that raises where ``np.float64`` gives
``nan`` or ``±inf`` is guarded (``math.sqrt(x) if x >= 0.0 else
float(np.sqrt(x))``, :data:`PYTHON`), and in a scalar region so is a
division by anything but a literal (:data:`LISTS`).
"""

from __future__ import annotations

import ast
from collections import defaultdict
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, List, Optional, Set, Tuple

from ..operators import CALLS, python_call
from ..perf import PERF
from ..symbolic import Expr, Integer, Range, Subset, Symbol
from ..symbolic.expr import Add, FloorDiv, Max, Min, Mod, Mul
from ..symbolic.ranges import upper_bound
from ..symbolic.sums import ONE, Polynomial, plus, summed
from ..sdfg import SDFG, AccessNode, Array, Memlet, Scalar, Tasklet
from ..sdfg.data import DTYPES
from ..sdfg.nodes import MapEntry, MapExit
from ..sdfg.tasklet_code import (
    OPERATORS, Refused, Unspelled, as_operand, construct, spell, statements,
)
from .control_flow import BranchNode, LoopNode, SequenceNode, StateNode, states_in_tree
from .loader import load_entry
from .sdfg_walk import UPDATE_OPERATORS, ArrayForm, SDFGWalker, sliced_dims
from .writer import SourceWriter


# Derived from the central dtype table so the interpreted and native
# backends can never disagree on element types (sdfg/data.py::DTYPES).
_NUMPY_DTYPES = {name: f"np.{info.numpy_name}" for name, info in DTYPES.items()}


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
    **{name: f"{record.numpy}({', '.join(['{}'] * record.arity)})"
       for name, record in CALLS.items()},
    "float": "np.float64({})", "int": "np.int64({})",
    "bool": Refused("bool_cast"), "min": Refused("min_max"), "max": Refused("min_max"),
}


def _temporary(node, text: str, index: int = 0) -> Tuple[str, str]:
    """``(value, binding)`` of operand ``index``: ``text`` twice when it is a
    name, else a temporary bound by the first use.  The temporary is ``_g``
    and the number of guarded nodes under and at ``node`` (then ``_`` and
    ``index`` past the first operand), so no guard below it reuses it."""
    if text.isidentifier():
        return text, text
    name = f"_g{sum(1 for child in ast.walk(node) if _guards(child, True))}"
    name += f"_{index}" if index else ""
    return name, f"({name} := {text})"


def _guards(node, lists: bool) -> bool:
    """Whether :data:`PYTHON` (``lists``: :data:`LISTS`) guards ``node``: a
    call whose record has a guard, in a scalar region a division by anything
    but a literal."""
    record = CALLS.get(construct(node))
    return record is not None and record.guard is not None or lists and isinstance(
        node, ast.BinOp) and isinstance(node.op, ast.Div) and not isinstance(
        node.right, ast.Constant)


def _guarded_call(record):
    def row(node, texts, _):
        values, bindings = zip(*(_temporary(node, text, index) for index, text in enumerate(texts)))
        return python_call(record, values, bindings)
    return row


def _call(name: str):
    return lambda _, texts, __: f"{name}({', '.join(texts)})"


#: The Python spelling of a tasklet expression on scalars that calls a
#: function with a guard: the call under its record's guard, NumPy's value
#: outside it (``math.sqrt(x) if x >= 0.0 else float(np.sqrt(x))``,
#: :func:`~repro.operators.python_call`), the rest in Python.  Any other
#: expression is emitted as written.
PYTHON = {
    **dict.fromkeys((bool, int, float), lambda node, _, __: repr(node.value)),
    **{operator: f"{{}} {text} {{}}" for operator, text in OPERATORS.items()},
    ast.USub: "-{}", ast.UAdd: "+{}", ast.Invert: "~{}", ast.Not: "not {}",
    ast.IfExp: lambda _, texts, __: f"{texts[0]} if {texts[2]} else {texts[1]}",
    ast.And: lambda _, texts, __: " and ".join(texts),
    ast.Or: lambda _, texts, __: " or ".join(texts),
    **{name: _call(name) for name in ("float", "int", "bool", "min", "max")},
    **{name: _call(name) if record.guard is None else _guarded_call(record)
       for name, record in CALLS.items()},
}


def _division(node, texts, _):
    """``a / b`` by anything but a literal, guarded: a ``float`` raises where
    ``np.float64`` gives ``±inf`` or ``nan``."""
    left, right = texts
    if not _guards(node, True):
        return f"{left} / {right}"
    value, binding = _temporary(node, right)
    return f"{left} / {value} if {binding} else float(np.float64({left}) / {value})"


#: :data:`PYTHON` in a scalar region, where elements are ``float``\ s: a
#: division is guarded too.
LISTS = {**PYTHON, ast.Div: _division}


@lru_cache(maxsize=8192)
def _respelled(assignment, lists: bool) -> bool:
    """Whether a scalar ``assignment`` is spelled through :data:`PYTHON`
    (``lists``: :data:`LISTS`) rather than as written."""
    return any(_guards(node, lists) for node in ast.walk(assignment.value))


#: The operators and calls that give the same bits on a Python ``float`` as
#: on ``np.float64`` in the spelling of :data:`LISTS`
#: (``tests/test_codegen_scalar_regions.py``): all a scalar region computes
#: on floats.  Not division by a literal zero, which is no number to guard.
SAME_BITS = frozenset({
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.UAdd, ast.IfExp, "abs", "float", "min",
    "max", ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, "math.sqrt",
})


def _admitted(node, _, floating):
    """A :data:`SCALAR` row: anything on integers, on a float what :data:`SAME_BITS` admits."""
    divisor = node.right if isinstance(getattr(node, "op", None), ast.Div) else None
    return None if floating and (construct(node) not in SAME_BITS or isinstance(
        divisor, ast.Constant) and not (type(divisor.value) in (int, float) and divisor.value)
    ) else ""


#: What a scalar region admits, as a spelling table whose rows spell nothing.
SCALAR = dict.fromkeys(NUMPY, _admitted)


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


def _subscript_of(entries: List[str]) -> str:
    """``[a, b]`` of ``entries`` without the full slices that end it."""
    while entries and entries[-1] == ":":
        entries = entries[:-1]
    return f"[{', '.join(entries)}]" if entries else ""


#: A loop nest with maps in it runs on lists when its maps compute fewer
#: elements than this per array statement executed (:meth:`PythonEmitter._short`):
#: there an element costs less as a ``float`` in a ``for`` loop than as its
#: share of a NumPy call.  Nests the rule decides among the 32 benchmark
#: programs at ``medium`` (the other stencils lie further above), list time
#: ÷ NumPy time of the program, the two texts timed alternately:
#:
#: ===========  ========  ===========
#: program      elements  list ÷ NumPy
#: ===========  ========  ===========
#: cholesky         14       0.30
#: lu               21       0.41
#: trisolv          62       1.10
#: durbin           75       1.47
#: jacobi-1d       438       8.3
#: heat-3d         512       4.2
#: ===========  ========  ===========
SHORT_MAPS = 32


#: The verdict on every map of a scalar region: a loop, in order.
_IN_REGION = ArrayForm(reason="scalar_region")


@dataclass
class _Loop:
    """A loop being emitted in a scalar region: the symbols assigned in it
    (``None`` for a ``while``, past which nothing is hoisted), the range of
    each induction of its header, where its header is, and each row bound
    ahead of it → the name bound."""

    assigned: Optional[Set[str]]
    bounds: Dict[str, Range]
    position: int
    indent: str
    rows: Dict[str, str] = field(default_factory=dict)


class PythonEmitter(SDFGWalker):
    """Python syntax for the SDFG walk: a ``run(**kwargs)`` function."""

    backend = "Python"
    runs_parallel = False  # a map's schedule is ignored: in order is always sound
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
        #: Nest parameter → how many axes follow its values' binding (the
        #: ``None``\ s after ``np.arange(…)[:, …]``), for those bound and not
        #: yet left behind by a nested map.
        self._grids: Dict[str, int] = {}
        #: In a scalar region: each array it touches → the name of its list,
        #: the names no container, symbol, list or row has, and the loops
        #: around what is being emitted, outermost first.
        self._lists: Optional[Dict[str, str]] = None
        self._taken: Set[str] = set()
        self._rows = 0
        self._loops: List[_Loop] = []
        #: The inductions of the ``for`` loops being emitted, not assigned.
        self._counting: Set[str] = set()

    expr = staticmethod(str)  # ``str(expr)`` is Python source: symbolic/printer.py

    # -- program frame -----------------------------------------------------------------
    def emit_preamble(self) -> None:
        writer = self.writer
        writer.emit("import math")
        writer.emit("import numpy as np")
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
        if name not in self._counting:
            self.writer.emit(f"{name} = {value}")

    def emit_loop(self, node: LoopNode) -> None:
        if self._lists is not None:  # in a scalar region
            counted = self._range(node)
            if counted is None:  # a ``while``: no row is hoisted past it
                with self._loop(None, None, {}):
                    super().emit_loop(node)
                return
            induction, rng, last = counted  # its latch's step is the range's
            self._counting.add(induction)
            assigned = {name for state in states_in_tree(node)
                        for edge in self.sdfg.out_edges(state) for name in edge.data.assignments}
            with self._loop(f"for {induction} in range({self._span(rng, ', ')})",
                            assigned | {induction}, {induction: rng}):
                self._emit_sequence(node.body)
            self._counting.discard(induction)
            self.writer.emit(f"{induction} = {last}")
            return
        region = self._region(node)
        if region is None:
            super().emit_loop(node)
            return
        touched, written = region  # its arrays as lists while it runs
        PERF.increment("codegen.python.scalar_regions")
        self._lists, self._taken = {}, set(self.sdfg.arrays.keys() | self.sdfg.symbols.keys())
        self._rows = 0
        for data in touched:
            if isinstance(self.sdfg.arrays[data], Array):
                self._lists[data] = self._fresh(f"{data}_l")
                self.writer.emit(f"{self._lists[data]} = {data}.tolist()")
        self.emit_loop(node)
        lists, self._lists = self._lists, None
        live = self._liveness()[node.guard] if written - lists.keys() else ()
        for data in sorted(written):
            if data in lists:
                self.writer.emit(f"{data}[...] = {lists[data]}")
            elif data in live:
                self.writer.emit(f"{data} = np.float64({data})")

    def _fresh(self, name: str) -> str:
        """``name``, or it followed by underscores, that nothing in the region has."""
        while name in self._taken:
            name += "_"
        self._taken.add(name)
        return name

    @contextmanager
    def _loop(self, header: Optional[str], assigned: Optional[Set[str]], bounds):
        """A loop of a scalar region: ``header``'s block (``None``: the caller
        writes a ``while``), with the rows hoisted ahead of it written
        before its header once its body is."""
        writer = self.writer
        loop = _Loop(assigned, bounds, len(writer.lines), "    " * writer.indent)
        self._loops.append(loop)
        with nullcontext() if header is None else writer.block(header):
            yield
        self._loops.pop()
        writer.lines[loop.position:loop.position] = [
            f"{loop.indent}{name} = {row}" for row, name in loop.rows.items()
        ]

    def _hoisted(self, data: str, indices) -> Optional["_Loop"]:
        """The outermost loop of the region ahead of which the row
        ``data[indices]`` may be bound: every loop from it in assigns no
        symbol of its indices, and each index is provably within its
        dimension under the ranges of the loops around the binding — which
        may then run where a loop makes no trip.  ``None`` for none."""
        names = {symbol.name for index in indices for symbol in index.free_symbols()}
        depth = len(self._loops)
        while depth and self._loops[depth - 1].assigned is not None \
                and not names & self._loops[depth - 1].assigned:
            depth -= 1
        if depth == len(self._loops) or names & self.sdfg.arrays.keys():
            return None
        bounds = {name: rng for loop in self._loops[:depth] for name, rng in loop.bounds.items()}
        for index, extent in zip(indices, self.sdfg.arrays[data].shape):
            highest, lowest = upper_bound(index, bounds), upper_bound(-index, bounds)
            if highest is None or lowest is None or lowest > 0 or not (
                isinstance(extent, Integer) and highest < extent.value
            ):
                return None
        return self._loops[depth]

    def _region(self, node: LoopNode) -> Optional[Tuple[List[str], Set[str]]]:
        """``(touched, written)`` containers of a loop that is a scalar region:
        no whole-array copy or dispatch region (which runs on past the loop)
        in it, interstate edges over symbols, transient ``float64``
        containers, arrays at points, tasklets :meth:`_scalar_tasklet`
        accepts, and maps, if any, that :meth:`_short` finds short."""
        arrays, states = self.sdfg.arrays, states_in_tree(node)
        if not (node.info.body_states | {node.guard}).issuperset(states):
            return None
        touched, written, maps = set(), set(), False
        for state in states:
            for item in state.nodes():
                if isinstance(item, AccessNode):
                    touched.add(item.data)
                elif isinstance(item, (MapEntry, MapExit)):
                    maps = True
                elif not isinstance(item, Tasklet) or not self._scalar_tasklet(state, item):
                    return None
            for edge in state.edges():
                memlet, ends = edge.data, (edge.src, edge.dst)
                if isinstance(edge.src, MapExit) or isinstance(edge.dst, MapEntry):
                    continue  # what a map moves in or out: its members' edges say how
                points = [isinstance(end, AccessNode) and isinstance(arrays[end.data], Array)
                          for end in ends]
                if memlet.is_empty:  # an order, or a tasklet's whole array
                    if any(points) and not all(isinstance(end, AccessNode) for end in ends):
                        return None
                elif all(points) or isinstance(arrays[memlet.data], Array) and (
                    memlet.dynamic or memlet.subset is None or not memlet.subset.is_point()
                ):
                    return None
                else:  # a tasklet writes what its memlet names, a copy its destination
                    touched.add(memlet.data)
                    if isinstance(edge.dst, (AccessNode, MapExit)):
                        written.add(memlet.data if isinstance(edge.src, Tasklet) else edge.dst.data)
        if any(not arrays[data].transient or arrays[data].dtype != "float64" for data in touched) \
                or any(edge.data.free_symbols() & arrays.keys()
                       for state in states for edge in self.sdfg.out_edges(state)):
            return None
        if maps and not self._short(node):
            PERF.increment("codegen.python.region_refused.long_maps")
            return None
        return sorted(touched), written

    def _short(self, node: LoopNode) -> bool:
        """Whether the maps in a loop nest compute fewer than
        :data:`SHORT_MAPS` elements per array statement executed, by the
        literal trip counts of the loops and maps in it."""
        counts = self._tally(node)
        if counts is None or any(monomial for part in counts for monomial in part):
            return False  # not literal
        elements, statements = (part.get((), 0) for part in counts)
        return 0 < elements < SHORT_MAPS * statements

    def _tally(self, node) -> Optional[Tuple[Polynomial, Polynomial]]:
        """``(elements, statements)`` of the innermost maps in a control-flow
        node: the iterations their members run and how many array statements
        that would be, over the inductions of the loops around it; ``None``
        where a loop with maps in it is no counted loop, or a bound no
        polynomial."""
        if isinstance(node, StateNode):
            return self._map_tally(node.state)
        if isinstance(node, SequenceNode):
            parts = node.children
        elif isinstance(node, BranchNode):
            parts = (node.then_body, node.else_body)
        elif isinstance(node, LoopNode):
            parts = (StateNode(node.guard), node.body)
        else:  # a dispatch region
            parts = [StateNode(state) for state in node.states]
        counts = [self._tally(part) for part in parts]
        if None in counts:
            return None
        totals = tuple(reduce(plus, column, {}) for column in zip(*counts)) or ({}, {})
        if isinstance(node, (SequenceNode, BranchNode)) or totals == ({}, {}):
            return totals
        counted = self._range(node) if isinstance(node, LoopNode) else None
        if counted is None:  # runs its maps an unknown number of times
            return None
        induction, rng, _ = counted
        totals = tuple(summed(total, induction, rng) for total in totals)
        return None if None in totals else totals

    @staticmethod
    def _map_tally(state) -> Optional[Tuple[Polynomial, Polynomial]]:
        """:meth:`_tally` of one state.  A map nest is one array statement
        per innermost map in it; a nested map whose range names a parameter
        of its nest roots a nest of its own, one statement per iteration
        of the maps around it."""
        scope, nested = state.scope_dict(), defaultdict(list)
        for item in state.nodes():
            if isinstance(item, MapEntry):
                nested[scope.get(item)].append(item)

        def walk(entry: MapEntry, nest: Set[str]):
            """``(elements, statements, innermost maps of its nest)`` of one
            run of ``entry``; ``nest`` holds the parameters around it in its nest."""
            nest = nest | set(entry.map.params)
            elements, statements, innermost = ({}, {}, 0) if nested[entry] else (ONE, {}, 1)
            for inner in nested[entry]:
                cut = any(symbol.name in nest for rng in inner.map.ranges
                          for symbol in rng.free_symbols())
                counts = walk(inner, set() if cut else nest)
                if counts is None:
                    return None
                elements, statements = plus(elements, counts[0]), plus(statements, counts[1])
                if cut:
                    statements = plus(statements, {(): Fraction(counts[2])})
                else:
                    innermost += counts[2]
            for param, rng in reversed(list(zip(entry.map.params, entry.map.ranges))):
                elements, statements = summed(elements, param, rng), summed(statements, param, rng)
                if elements is None or statements is None:
                    return None
            return elements, statements, innermost

        elements, statements = {}, {}
        for entry in nested[None]:
            counts = walk(entry, set())
            if counts is None:
                return None
            elements = plus(elements, counts[0])
            statements = plus(statements, plus(counts[1], {(): Fraction(counts[2])}))
        return elements, statements

    def _scalar_tasklet(self, state, tasklet: Tasklet) -> bool:
        """Whether each statement of a tasklet is a float :data:`SCALAR` spells:
        connectors and unknown names count as floats, symbols and map
        parameters as their type."""
        body = statements(tasklet.code) if tasklet.language == "python" else None
        connectors = {edge.dst_conn for edge in state.in_edges(tasklet)}
        dtypes = {name: dtype for name, dtype in self._name_dtypes.items() if name not in connectors}
        dtypes.update((param, "int64") for item in state.nodes() if isinstance(item, MapEntry)
                      for param in item.map.params if param not in connectors)
        try:
            return body is not None and all(statement.target is not None and spell(
                statement.value, SCALAR, lambda name: (name, dtypes.get(name, "float64"))
            )[1] == "float64" for statement in body)
        except Unspelled:
            return False

    def _range(self, node: LoopNode) -> Optional[Tuple[str, Range, Expr]]:
        """``(induction, range, exit value)`` of a loop counted up by a
        positive literal over bounds nothing in it or on its entry assigns
        (:func:`~repro.transforms.loop_analysis.induction_ranges`), with one
        latch that assigns nothing else, no guard state and integral bounds.
        The exit value is the one the ``while`` would leave."""
        info, body = node.info, next(iter(node.info.body_states), None)
        induction, start, end = info.induction_symbol, info.init_expr, info.bound_expr
        if induction not in self._inductions().get(body, ()) or not node.guard.is_empty() or \
                [edge.data.assignments.keys() for edge in info.latch_edges] != [{induction}] or \
                not (self._integral(start) and self._integral(end)):
            return None
        last = Max.make(start, start + info.trip_count() * info.step_expr)
        return induction, Range(start, end, info.step_expr), last

    def dispatch_register(self, node):
        codes = {state: repr(state.label) for state in node.states}
        codes[None] = "None"
        self.writer.emit(f"_state = {codes[node.entry]}")
        return "_state", codes

    # -- reads, copies, tasklets, writes -----------------------------------------------
    def read(self, data: str, memlet: Memlet) -> str:
        descriptor = self.sdfg.arrays[data]
        if isinstance(descriptor, Scalar):
            return self._scalar(data)
        if (
            memlet.is_empty or memlet.subset is None or memlet.dynamic
            or not memlet.subset.is_point() and self._covers_whole(descriptor, memlet.subset)
        ):
            return data
        return self.write_target(data, descriptor, memlet.subset)

    def emit_copy(self, source: str, destination: str, subset: Optional[Subset]) -> None:
        source_scalar = isinstance(self.sdfg.arrays[source], Scalar)
        destination_scalar = isinstance(self.sdfg.arrays[destination], Scalar)
        if destination_scalar and source_scalar:
            self.writer.emit(f"{destination} = {self._scalar(source)}")
        elif destination_scalar:
            element = self._point(source, subset) if subset is not None else f"{source}[0]"
            self.writer.emit(f"{destination} = {element}")
        elif source_scalar:
            element = self._point(destination, subset) if subset is not None else f"{destination}[:]"
            self.writer.emit(f"{element} = {source}")
        else:
            self.writer.emit(f"np.copyto({destination}, {source})")

    def emit_tasklet(self, tasklet: Tasklet, inputs):
        writer = self.writer
        for connector, expression in inputs:
            writer.emit(f"{connector} = {expression}")
        body = statements(tasklet.code) if tasklet.language == "python" else None
        if body is None or not any(_respelled(line, self._lists is not None) for line in body):
            for line in tasklet.code.splitlines():
                writer.emit(line)
        else:  # each line's target, then its expression as guarded
            for line, statement in zip(tasklet.code.strip().split("\n"), body):
                writer.emit(line[:statement.value.col_offset] + self._scalar_text(statement, {}))
        return lambda connector: connector

    def _scalar_text(self, assignment, bindings) -> str:
        """A tasklet expression outside an array nest over ``bindings``: as
        written, or where it must guard, spelled through :data:`PYTHON`
        (:data:`LISTS` in a scalar region)."""
        lists = self._lists is not None
        if _respelled(assignment, lists):
            try:
                text, _ = spell(assignment.value, LISTS if lists else PYTHON,
                                lambda name: (bindings.get(name, name), None), as_operand)
                return as_operand(text, assignment.value)
            except Unspelled:
                pass
        return assignment.operand(bindings)

    def render_expression(self, assignment, bindings) -> str:
        if self._nest is None:
            return self._scalar_text(assignment, bindings)
        params = {param for param, _ in self._nest}

        def name(identifier: str):
            if identifier in bindings:
                return bindings[identifier], None
            return (self._grid(identifier) if identifier in params else identifier), None

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
            return self._point(data, subset)
        return f"{data}[{self._slices(subset)}]"

    def emit_update(self, target: str, descriptor, wcr, value: str, atomic: bool = False) -> None:
        if target.endswith(")"):  # a transposed view: stored into through its elements
            target += "[...]"
        if wcr in ("min", "max"):
            self.writer.emit(f"{target} = {wcr}({target}, {value})")
        else:
            self.writer.emit(f"{target} {UPDATE_OPERATORS.get(wcr, '=')} {value}")

    def emit_broadcast(self, data: str, descriptor, wcr, value: str) -> None:
        # Pinned output: a min/max WCR broadcast has always been a plain store.
        self.writer.emit(f"{data}[...] {UPDATE_OPERATORS.get(wcr, '=')} {value}")

    def emit_reduction(self, target: str, wcr: str, values: str, folded, element) -> None:
        # ``accumulate`` computes every prefix, so it cannot reassociate.
        ufunc = _ACCUMULATE[wcr]
        if element is None:  # one element: the values of the whole nest, in its order
            if len(self._nest) > 1:
                values = f"np.ravel({values})"
            self.writer.emit(
                f"{target} = {ufunc}.accumulate(np.concatenate((({target},), {values})))[-1]"
            )
            return
        data, subset = element
        if len(folded) == 1:  # along that axis, the target a slice of length one there
            (axis,) = folded
            target = data + self._subscript(subset, full=True)
            last = ", ".join([":"] * axis + ["-1:"])
            self.writer.emit(
                f"{target} = {ufunc}.accumulate(np.concatenate(({target}, {values}), "
                f"axis={axis}), axis={axis})[{last}]"
            )
            return
        # Several axes: moved last and merged, in nest order, into one.
        target = data + self._subscript(subset, bare=True)
        kept = [axis for axis in range(len(self._nest)) if axis not in folded]
        order = ", ".join(map(str, kept + list(folded)))
        self.writer.emit(
            f"{target} = {ufunc}.accumulate(np.concatenate(({target}[..., None], "
            f"np.transpose({values}, ({order})).reshape({target}.shape + (-1,))), axis=-1), "
            "axis=-1)[..., -1]"
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

    def _subscript(self, subset: Subset, full: bool = False, bare: bool = False) -> str:
        """``[…]`` selecting one element; inside an array nest, that element of
        every iteration, with axis *n* the nest's parameter *n*.

        Where every index that moves is ``a * p + b`` along its own parameter
        (:func:`sliced_dims`) that is a slice — for ``a < 0`` the slice of
        the same elements read backwards, since a negative stride cannot
        name an end below element 0 — else the indices over the parameters'
        values.  Slices come out in nest order (a transpose where they are
        not), with a new axis for every parameter between and after them:
        the operand broadcasts against the nest's later axes.  ``full`` adds
        the axes before the first one too, ``bare`` no new axis at all (a
        target whose slices are in nest order)."""
        indices = subset.indices()
        texts = list(map(str, indices))
        nest = self._nest
        plan = None if nest is None else sliced_dims(indices, nest)
        if plan is None and nest is not None:
            params = {param for param, _ in nest}
            for name in sorted(s.name for s in subset.free_symbols() if s.name in params):
                self._grid(name)
        if not plan:
            return f"[{', '.join(texts)}]"
        reversed_ = []
        for dim, axis, slope, offset in plan:
            rng = nest[axis][1]
            first, beyond = slope * rng.start + offset, slope * rng.end + offset
            if slope > 0:
                elements = Range(first, beyond, slope * rng.step)
            else:  # the last iteration's element up to the first one's
                elements = Range(beyond - slope, first + 1, -slope)
            texts[dim] = self._span(elements, ":")
            reversed_.append(slope < 0)
        order = [axis for _, axis, _, _ in plan]
        if bare:
            return f"[{', '.join(texts)}]"
        ordered = sorted(order)
        start = 0 if full else ordered[0]
        if order == ordered and not any(reversed_):
            # The new axes go into the one subscript, after the slice before them.
            later = order[1:] + [len(nest)]
            for (dim, axis, _, _), following in reversed(list(zip(plan, later))):
                texts[dim] += ", None" * (following - axis - 1)
            return f"[{'None, ' * (ordered[0] - start)}{', '.join(texts)}]"
        text = f"[{', '.join(texts)}]"
        if any(reversed_):
            text += _subscript_of(["::-1" if backwards else ":" for backwards in reversed_])
        if order != ordered:
            text += f".transpose({', '.join(str(order.index(axis)) for axis in ordered)})"
        axes = [":" if axis in order else "None" for axis in range(start, len(nest))]
        return text + (_subscript_of(axes) if "None" in axes else "")

    def _point(self, data: str, subset: Subset) -> str:
        """``data[subset]``; in a scalar region, the element of its list,
        through each of its rows that :meth:`_hoisted` binds ahead of a loop
        (``_arr_0_l0 = _arr_0_l[i_0 - 1]``, ``_arr_0_l0[j_0 - 1]``)."""
        if self._lists is None:
            return data + self._subscript(subset)
        text, indices = self._lists[data], subset.indices()
        rows = 0
        while rows < len(indices) - 1:
            loop = self._hoisted(data, indices[:rows + 1])
            if loop is None:
                break
            row = f"{text}[{indices[rows]}]"
            if row not in loop.rows:
                loop.rows[row] = self._fresh(f"{self._lists[data]}{self._rows}")
                self._rows += 1
            text, rows = loop.rows[row], rows + 1
        return text + "".join(f"[{index}]" for index in indices[rows:])

    def _grid(self, param: str) -> str:
        """A nest parameter as its values along its axis — ``np.arange(…)``
        followed by a new axis for each later parameter — bound on first use."""
        params = [name for name, _ in self._nest]
        axis = params.index(param)
        later = len(params) - 1 - axis
        if self._grids.get(param) != later:
            axes = f"[:{', None' * later}]" if later else ""
            self.writer.emit(f"{param} = np.arange({self._span(self._nest[axis][1], ', ')}){axes}")
            self._grids[param] = later
        return param

    def _scalar(self, name: str) -> str:
        """A scalar read inside an array nest: a private bound to moving values
        fewer parameters in gets a new axis for each parameter more."""
        bound = self._carried.get(name) if self._nest is not None else None
        if bound is None or bound == len(self._nest):
            return name
        return f"{name}[..., {', '.join(['None'] * (len(self._nest) - bound))}]"

    # -- maps --------------------------------------------------------------------------
    def emit_map(self, entry: MapEntry, emit_members, vectorized: bool, parallel) -> None:
        if vectorized:
            emit_members()
            self._grids = {}  # a nested map may have bound them with other axes, or not at all
            return
        with ExitStack() as nest:
            for param, rng in zip(entry.map.params, entry.map.ranges):
                header = f"for {param} in range({self._span(rng, ', ')})"
                nest.enter_context(self.writer.block(header) if self._lists is None
                                   else self._loop(header, {param}, {param: rng}))
            emit_members()

    def _array_form(self, state, entry, members, owned, scope) -> ArrayForm:
        """In a scalar region a map is a loop, each innermost one counted as
        ``region_maps``; elsewhere the walker's verdict."""
        if self._lists is None:
            return super()._array_form(state, entry, members, owned, scope)
        if not any(isinstance(node, MapEntry) for node in members):
            PERF.increment("codegen.python.region_maps")
        return _IN_REGION


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
