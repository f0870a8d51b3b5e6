"""The one SDFG traversal behind both SDFG code generators.

:class:`SDFGWalker` owns every decision the interpreted (Python) and the
native (C) backend must make identically, so that a native run and an
interpreted run of one SDFG agree on outputs *and* on ``__allocations``:

* the order of the raised control-flow tree (states, loops, branches, and
  the state-machine skeleton of regions that did not raise);
* per-state order — program order, the topological order closest to the
  order nodes were inserted in — and which nodes a map scope owns;
* value-edge naming (``_valN``) between code nodes;
* allocation accounting: persistent transients are charged up front, all
  others at the first state that touches them — inside a loop if that is
  where they are used (§6.3);
* which container a write lands in and which writes are no-ops;
* whether a map is emitted as array operations, as a parallel loop or as
  a sequential loop nest.  Only an emitter that runs maps in parallel
  (:attr:`SDFGWalker.runs_parallel`, native C) reads a map's schedule;
  for any other every map is sequential, a sound schedule for one the
  proof accepted.  A map nest *is* an array expression: the nest
  an outermost sequential map roots — every map inside it, a
  multi-parameter map being a nest of one — is classified once
  (:meth:`SDFGWalker._array_form`) over its tuple of parameters, outermost
  first.  Accepted, each innermost map in it is ``elementwise``,
  ``updates in place`` or ``reduces in order`` (:class:`ArrayForm`),
  counted per compile as ``codegen.<backend>.array_maps`` (and
  ``.array_maps.<kind>``), the nest as ``codegen.<backend>_nests.array_nests``
  (and ``.array_nests.depth_<d>``, *d* parameters deep).  Refused under a
  name, the root stays a loop — counted as ``.loop_maps`` (and
  ``.refused.<name>``) if no map is nested in it, as
  ``codegen.<backend>_nests.nest_refused.<name>`` if it has more than one
  parameter — and each map nested in it is the root of a nest of its own:
  a range that names an outer parameter (``triangular``) cuts the nest
  there.  A transient scalar private
  to the iterations (:func:`~repro.sdfg.analysis.private_containers`) is one
  value per iteration of the maps around the tasklet binding it: the array
  of them.  A private transient array holds one copy per iteration of the
  maps around its binding — the scope all its access nodes but the first
  share — indexed by those maps' parameters ahead of its own dimensions
  (:meth:`SDFGWalker._located`; doitgen's ``sumv[p]`` under ``r, q`` is
  ``sumv[r, q, p]``), so its stores, updates and folds take the forms of
  any other array's.  An emitter that has array operations
  (:attr:`SDFGWalker.array_maps`) emits every accepted nest that would
  otherwise be sequential loops in **operation order** — each member over
  all iterations of the parameters around it before the next — under every
  pipeline and every schedule.  The verdict guarantees that no element
  sees its floating-point operations in another order: a store is
  injective in the parameters around it, two accesses of a container
  written in the nest reach one element only in one iteration of the maps
  around both, and an update of an element that does not move with some
  parameters adds (multiplies) along them in nest order, left to right
  starting from that element.  An emitter without array operations
  annotates, under the ``vectorize`` flag, each map that stays sequential
  and :func:`vectorizable_map` accepts;
* which WCR writes are reductions over a sequential map.  An update whose
  target element does not move with the map (``C[i, j] += …`` under
  ``for k``) accumulates in a local: ``_accN = T[idx]`` ahead of the loop
  nest, ``_accN op= value`` in place of the update, ``T[idx] = _accN``
  after it — the same operations in the same order on the same type, so
  results are bit-identical.  The local is bound at the outermost map for
  which :meth:`SDFGWalker._accumulators` holds; a map that may run zero
  times gets the load/store pair under its own ``lo < hi`` guard.
  Maps an emitter runs in parallel (and everything nested in them) keep
  their reduction and atomic paths, ``min``/``max`` updates
  and element types whose store would round where a local does not
  (anything but ``float64``, or ``int64`` updated with an integer) are
  left as they are;
* the form a tasklet takes.  A dataflow edge is not a variable: a tasklet
  whose body is one ``_out = <expression>`` line is emitted in **direct
  form** — every connector is replaced by the read it stands for and the
  result is written straight to its target
  (``C[i, j] = (C[i, j] + (t * B[k, j]))``).  A temporary is bound only
  where the dataflow forks: a subscripted read the expression uses more
  than once, or a result that feeds more than one out-edge.  Every other
  tasklet (several statements, an assigned name that is not the connector
  its out-edges leave from) and every tasklet of an annotated map takes
  the **bound form**: connectors become locals, the body is emitted as
  written, outputs are read back from the locals it assigned.  The choice
  is made from the tasklet's shape alone; a map of bound-form tasklets is
  no array expression.

A backend subclasses the walker and supplies syntax only — the class
attributes and the hook methods listed under "what an emitter provides"
below.  Hooks are ordinary methods: the walk is on the cold-compile path.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from contextlib import nullcontext
from functools import partial
from itertools import combinations
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..perf import PERF
from ..symbolic import Expr, Integer, Range, Subset, Symbol
from ..symbolic.expr import And
from ..symbolic.ranges import affine_in
from ..sdfg import SDFG, AccessNode, Memlet, SDFGState, Scalar, Tasklet
from ..sdfg.analysis import Site, lazy_liveness, may_meet, private_containers, site_ranges
from ..sdfg.data import Array, LIFETIME_PERSISTENT
from ..sdfg.nodes import MapEntry, MapExit, SCHEDULE_PARALLEL
from ..sdfg.parallelism import ParallelismInfo, analyze_map_parallelism
from ..sdfg.tasklet_code import (
    Assignment, assignment_dtype, construct, name_dtypes, single_assignment, statements,
)
from ..transforms.loop_analysis import lazy_induction_ranges
from .control_flow import (
    BranchNode,
    ControlFlowNode,
    DispatchNode,
    LoopNode,
    SequenceNode,
    StateNode,
    build_control_flow,
)
from .writer import SourceWriter


class CodegenError(Exception):
    """Raised when an SDFG cannot be turned into executable code."""


#: Constructs the ``vectorize`` flag annotates no map over: the pinned C text
#: carries no ``ivdep`` there.  (What the interpreted emitter spells over
#: arrays is its own table, ``sdfg_python.NUMPY``.)
_UNANNOTATED = frozenset({"float", "int", "bool", "min", "max",
                          ast.IfExp, ast.And, ast.Or, ast.Not})


def _elementwise(code: str) -> bool:
    """Whether tasklet code is plain-name assignments of arithmetic and
    ``math`` calls: no cast, builtin ``min``/``max``, conditional
    expression or boolean operator."""
    body = statements(code)
    return body is not None and all(statement.target for statement in body) and not any(
        construct(node) in _UNANNOTATED for statement in body for node in ast.walk(statement.value)
    )


def vectorizable_map(state, entry: "MapEntry", members) -> bool:
    """Whether an emitter without array operations annotates a map scope
    under the ``vectorize`` flag of ``dcir+vec``: single parameter, no
    nested scopes, tasklets that are element-wise assignments
    (:func:`_elementwise`), and no WCR updates.
    """
    if len(entry.map.params) != 1:
        return False
    for node in members:
        if isinstance(node, MapEntry):
            return False
        if isinstance(node, Tasklet) and not _elementwise(node.code):
            return False
        for edge in state.in_edges(node) + state.out_edges(node):
            if edge.data.wcr is not None:
                return False
    return True


#: What a map can be as an array expression (:attr:`ArrayForm.kind`), least
#: demanding first.
ARRAY_KINDS = ("elementwise", "updates in place", "reduces in order")

#: Element types whose scalar and vector arithmetic agree bit for bit.
_ARRAY_DTYPES = frozenset({"float64", "int64"})


class ArrayForm(NamedTuple):
    """Verdict of :meth:`SDFGWalker._array_form` on one map nest.

    Accepted, ``kinds`` holds one of :data:`ARRAY_KINDS` per innermost map
    of the nest, in program order — every write a store to the iteration's
    own element; some element read or updated where it is stored; a
    ``+``/``*`` update of an element that does not move with some
    parameter — and ``reason`` is ``None``; refused, ``reason`` names why
    the nest stays loops.  ``depth`` is the number of parameters around the
    deepest member; ``carried`` maps each private scalar bound to a value
    that moves to the number of parameters around the tasklet binding it;
    ``copies`` maps each private array to the map entry of its binding.
    """

    kinds: Tuple[str, ...] = ()
    reason: Optional[str] = None
    depth: int = 1
    carried: Optional[Dict[str, int]] = None
    copies: Optional[Dict[str, MapEntry]] = None


class _Member(NamedTuple):
    """A node of a map nest, with the maps around it and their ``(parameter,
    range)`` pairs, outermost first."""

    node: object
    maps: Tuple[MapEntry, ...]
    axes: Tuple[Tuple[str, Range], ...]


class _Access(NamedTuple):
    """One access of a container by the member ``node``, which ``maps`` encloses."""

    subset: Optional[Subset]
    maps: Tuple[MapEntry, ...]
    write: bool
    fold: bool
    node: object


def _names(expression) -> Set[str]:
    """The names of the free symbols of an expression, range or subset."""
    return set() if expression is None else {symbol.name for symbol in expression.free_symbols()}


def sliced_dims(indices, axes) -> Optional[List[Tuple[int, int, int, Expr]]]:
    """``(dim, axis, slope, offset)`` of each index that moves with a nest
    parameter, when every such index is a slice along one axis: ``slope *
    p + offset`` with a literal ``slope`` (negative only under a unit
    step), ``offset`` free of the parameters, each parameter in one index
    and its step a literal.  ``None`` when some index needs the values of
    the parameters instead.  ``axes`` are the ``(parameter, range)`` pairs
    of the nest, outermost first.
    """
    params = [param for param, _ in axes]
    plan, seen = [], set()
    for dim, index in enumerate(indices):
        moving = _names(index).intersection(params)
        if not moving:
            continue
        if len(moving) > 1:
            return None
        (param,) = moving
        axis = params.index(param)
        step = axes[axis][1].step
        form = affine_in(index, param)
        if axis in seen or form is None or not form[0] or not isinstance(step, Integer) or (
            form[0] < 0 and step != 1
        ) or _names(form[1]).intersection(params):
            return None
        seen.add(axis)
        plan.append((dim, axis) + form)
    return plan


#: In-place operator of each WCR the update statement spells directly
#: (``min``/``max`` need a call); the same in both target languages.
UPDATE_OPERATORS = {None: "=", "+": "+=", "*": "*="}

#: Element types a value must have for an ``int64`` accumulator to stay one.
_INTEGRAL = frozenset({"int64", "int32", "int8", "bool"})


class Accumulator(NamedTuple):
    """One reduction of a sequential map: the element ``data[subset]`` that
    every edge in ``edges`` updates, held in the local ``name``."""

    name: str
    data: str
    subset: Subset
    edges: Tuple[object, ...]


def _is_update(edge) -> bool:
    """Whether a dataflow edge is a ``+``/``*`` WCR write out of a tasklet."""
    return edge.data.wcr in ("+", "*") and isinstance(edge.src, Tasklet)


def _may_be_empty(ranges) -> bool:
    """Whether some range is not provably non-empty."""
    return any(rng.is_empty() is not False for rng in ranges)


class SDFGWalker:
    """Walks an SDFG in code-generation order; subclasses supply the syntax."""

    # -- what an emitter provides: syntax table ------------------------------------------
    #: Backend name for diagnostics, and the error type it raises.
    backend: str
    error = CodegenError
    #: The two capability differences: whether the emitter runs maps in
    #: parallel (then a parallel-scheduled map the proof accepts gets the
    #: emitter's parallel form, atomic WCR updates included; otherwise the
    #: schedule is not read), and whether the language has array operations
    #: (then every map that is an array expression is emitted as one, see
    #: :meth:`_array_form`).
    runs_parallel: bool
    array_maps: bool = False
    #: Statement terminator and comment form (``"# {}"``).
    end: str
    comment: str
    #: Block headers with a ``{}`` for the condition (the writer appends its
    #: block opener), and the always-true condition.
    while_header: str
    if_header: str
    elif_header: str
    unless_header: str
    true: str
    #: Condition (``{}`` = register) under which a dispatch register still
    #: names a state.
    dispatch_live: str
    #: What a connector fed by an empty memlet is bound to.
    empty_read: object

    def __init__(self, sdfg: SDFG, vectorize: bool, writer: SourceWriter):
        self.sdfg = sdfg
        self.vectorize = vectorize
        self.writer = writer
        self._value_counter = 0
        self._accumulator_counter = 0
        #: ``id()`` of each write edge redirected to a local → that local's name.
        self._accumulated: Dict[int, str] = {}
        #: Of the state being emitted, see :meth:`_index_updates`.
        self._updates: List = []
        self._touches: Dict[str, List] = {}
        self._in_parallel = False
        #: ``id()`` of each classified map entry → its verdict.
        self._array_forms: Dict[int, ArrayForm] = {}
        #: While a nest is emitted as array operations: the ``(parameter,
        #: range)`` pairs around the member being emitted, outermost first —
        #: axis *n* of every operand is parameter *n* — and the nest's
        #: :attr:`ArrayForm.carried`.
        self._nest: Optional[Tuple[Tuple[str, Range], ...]] = None
        self._carried: Dict[str, int] = {}
        #: Of the nest being emitted: each private array → the map binding it,
        #: and once declared, the name of its copies and the axes they span.
        self._bindings: Dict[str, MapEntry] = {}
        self._copies: Dict[str, Tuple[str, Tuple[Tuple[str, Range], ...]]] = {}
        #: Liveness of the SDFG's containers, and the ranges of the loops
        #: around each state, computed when a map first asks.
        self._liveness = lazy_liveness(sdfg)
        self._inductions = lazy_induction_ranges(sdfg)
        self._name_dtypes = name_dtypes(sdfg.symbols, sdfg.constants)
        self._allocated_persistent: Set[str] = set()
        # Top-level parallel-scheduled maps whose safety proof succeeds —
        # the annotation is a request, the proof is the authority.
        self._parallel_maps: Dict[int, ParallelismInfo] = {}
        self._atomic_edges: Set[int] = set()
        for state, entry in sdfg.map_entries():
            if not self.runs_parallel or entry.map.schedule != SCHEDULE_PARALLEL:
                continue
            if state.scope_dict().get(entry) is not None:
                continue
            info = analyze_map_parallelism(sdfg, state, entry)
            if info.ok:
                self._parallel_maps[id(entry)] = info
                self._atomic_edges |= info.atomic_edges

    # -- what an emitter provides: hooks -------------------------------------------------
    def expr(self, expression: Expr) -> str:
        """Render a symbolic expression."""
        raise NotImplementedError

    def emit_preamble(self) -> None:
        """Everything before the entry function (imports, helpers)."""
        raise NotImplementedError

    def entry_header(self) -> str:
        """Header of the block holding the whole program."""
        raise NotImplementedError

    def emit_prologue(self) -> None:
        """Bind the allocation counter, symbols and interface containers."""
        raise NotImplementedError

    def declare_transient(self, name: str, descriptor) -> None:
        """Give one transient container its storage."""
        raise NotImplementedError

    def emit_epilogue(self) -> None:
        """Release storage and hand outputs and the allocation count back."""
        raise NotImplementedError

    def emit_assignment(self, name: str, value: Expr) -> None:
        """One interstate symbol assignment."""
        raise NotImplementedError

    def dispatch_register(self, node: DispatchNode) -> Tuple[str, Dict]:
        """Initialise a state register at ``node.entry``.

        Returns its name and the code of every state in ``node.states``,
        plus the code of "no state left" under the key ``None``.
        """
        raise NotImplementedError

    def read(self, data: str, memlet):
        """What a connector reading ``memlet`` of ``data`` is bound to."""
        raise NotImplementedError

    def emit_copy(self, source: str, destination: str, subset: Optional[Subset]) -> None:
        """One access-node → access-node copy."""
        raise NotImplementedError

    def emit_tasklet(self, tasklet: Tasklet,
                     inputs: List[Tuple[str, object]]) -> Callable[[str], object]:
        """Bound form: bind ``inputs`` (connector, read) and emit the tasklet body.

        Returns a function from an output connector to the value it holds.
        """
        raise NotImplementedError

    def render_expression(self, assignment: Assignment, bindings: Dict[str, object]):
        """The value of a direct-form tasklet: its expression over ``bindings``
        (connector → read), without emitting anything."""
        raise NotImplementedError

    def bind_input(self, connector: str, read):
        """Load ``read`` into a temporary once; return what reading that yields."""
        raise NotImplementedError

    def bind_value(self, temp: str, value):
        """Store a tasklet output in ``temp``; return what reading it yields."""
        raise NotImplementedError

    def write_target(self, data: str, descriptor, subset: Subset) -> str:
        """The assignable form of ``data[subset]``."""
        raise NotImplementedError

    def emit_update(self, target: str, descriptor, wcr: Optional[str], value,
                    atomic: bool = False) -> None:
        """Store ``value`` into ``target``, resolving conflicts by ``wcr``."""
        raise NotImplementedError

    def emit_broadcast(self, data: str, descriptor, wcr: Optional[str], value) -> None:
        """Store ``value`` into every element of ``data``."""
        raise NotImplementedError

    def emit_map(self, entry: MapEntry, emit_members: Callable[[], None], vectorized: bool,
                 parallel: Optional[ParallelismInfo]) -> None:
        """Open the scope's loops (or vector/parallel form) around ``emit_members()``.

        ``vectorized`` asks for the emitter's vector form: array operations
        (while ``emit_members()`` runs, ``self._nest`` holds the parameters
        around each member and reads, write targets and expressions range
        over them; a map nested in the nest is entered the same way) where
        :attr:`array_maps` holds, else the annotated loop.
        """
        raise NotImplementedError

    def array_refusal(self, assignment: Assignment) -> Optional[str]:
        """With :attr:`array_maps`: the name under which a tasklet expression
        the emitter cannot spell over arrays keeps its map a loop."""
        raise NotImplementedError

    def emit_reduction(self, target: str, wcr: str, values, folded: Tuple[int, ...],
                       element: Optional[Tuple[str, Subset]]) -> None:
        """With :attr:`array_maps`: fold ``values`` into ``target`` by
        ``wcr`` along the nest axes ``folded`` — in nest order, left to right
        starting from ``target``.  ``element`` is ``(data, subset)`` of a
        target that moves with the other axes, ``None`` for one element."""
        raise NotImplementedError

    # -- the program -------------------------------------------------------------------
    def generate(self) -> str:
        writer = self.writer
        self.emit_preamble()
        with writer.block(self.entry_header()):
            self.emit_prologue()
            self._emit_transients()
            tree = build_control_flow(self.sdfg)
            if not tree.children:
                writer.fill()  # pinned output: a stateless SDFG gets an explicit no-op
            self._emit_sequence(tree)
            self.emit_epilogue()
        return writer.text()

    def _emit_transients(self) -> None:
        # Arrays are storage, declared once here for correctness; the *cost*
        # of a non-persistent (not pre-allocated) container is modelled by
        # the counter increments at its first-use state
        # (_emit_lazy_allocations), which may sit inside a loop.
        for name, descriptor in self.sdfg.arrays.items():
            if not descriptor.transient:
                continue
            self.declare_transient(name, descriptor)
            if (
                not isinstance(descriptor, Scalar)
                and descriptor.lifetime == LIFETIME_PERSISTENT
            ):
                self._count_allocation()
                self._allocated_persistent.add(name)

    def _count_allocation(self, note: Optional[str] = None) -> None:
        line = f"_alloc_count += 1{self.end}"
        if note is not None:
            line += "  " + self.comment.format(note)
        self.writer.emit(line)

    # -- control flow ------------------------------------------------------------------
    def _emit_sequence(self, node: SequenceNode) -> None:
        for child in node.children:
            self._emit_cf(child)

    def _emit_cf(self, node: ControlFlowNode) -> None:
        writer = self.writer
        if isinstance(node, StateNode):
            self._emit_state(node.state)
            self._emit_assignments(node.assignments)
        elif isinstance(node, SequenceNode):
            self._emit_sequence(node)
        elif isinstance(node, LoopNode):
            self.emit_loop(node)
            self._emit_assignments(node.exit_assignments)
        elif isinstance(node, BranchNode):
            with writer.block(self.if_header.format(self.expr(node.condition))):
                self._emit_arm(node.then_assignments, node.then_body)
            if node.else_body.children or node.else_assignments:
                with writer.block("else"):
                    self._emit_arm(node.else_assignments, node.else_body)
        elif isinstance(node, DispatchNode):
            self._emit_dispatch(node)
        else:  # pragma: no cover - defensive
            raise self.error(f"Unknown control-flow node {node!r}")

    def emit_loop(self, node: LoopNode) -> None:
        """One loop of the control-flow tree, up to its exit assignments: a
        ``while`` around its body, with its guard state (if any) ahead of the test."""
        writer = self.writer
        if node.guard.is_empty():
            with writer.block(self.while_header.format(self.expr(node.condition))):
                self._emit_sequence(node.body)
            return
        with writer.block(self.while_header.format(self.true)):
            self._emit_state(node.guard)
            with writer.block(self.unless_header.format(self.expr(node.condition))):
                writer.emit("break" + self.end)
            self._emit_sequence(node.body)

    def _emit_arm(self, assignments: Dict[str, Expr], body: SequenceNode) -> None:
        self._emit_assignments(assignments)
        if body.children:
            self._emit_sequence(body)
        else:
            self.writer.fill()  # pinned output: explicit even after assignments

    def _emit_assignments(self, assignments: Dict[str, Expr]) -> None:
        for name, value in assignments.items():
            self.emit_assignment(name, value)

    def _emit_dispatch(self, node: DispatchNode) -> None:
        """State-machine skeleton for regions that did not raise to structured flow."""
        writer = self.writer
        register, codes = self.dispatch_register(node)

        def goto(state: Optional[SDFGState]) -> None:
            writer.emit(f"{register} = {codes[state]}{self.end}")

        with writer.block(self.while_header.format(self.dispatch_live.format(register))):
            for position, state in enumerate(node.states):
                with writer.block(self._case(position, f"{register} == {codes[state]}")):
                    self._emit_state(state)
                    self._emit_transitions(self.sdfg.out_edges(state), goto)
            with writer.block("else"):
                goto(None)

    def _case(self, position: int, condition: str) -> str:
        return (self.elif_header if position else self.if_header).format(condition)

    def _emit_transitions(self, out_edges, goto: Callable) -> None:
        if not out_edges:
            goto(None)
            return
        writer = self.writer
        unconditional = False
        for position, edge in enumerate(out_edges):
            if not edge.data.is_unconditional:
                header = self._case(position, self.expr(edge.data.condition))
            elif position:
                header = "else"
            else:
                header = self._case(0, self.true)
            unconditional = unconditional or edge.data.is_unconditional
            with writer.block(header):
                self._emit_assignments(edge.data.assignments)
                goto(edge.dst)
        if not unconditional:
            with writer.block("else"):
                goto(None)

    # -- state dataflow ----------------------------------------------------------------
    def _emit_state(self, state: SDFGState) -> None:
        if state.is_empty():
            return
        self._emit_lazy_allocations(state)
        self._index_updates(state)
        scope = state.scope_dict()
        # Each scope's own nodes in program order; top-level ones under ``None``.
        owned: Dict[Optional[MapEntry], List] = {}
        for node in state.program_order():
            owned.setdefault(scope.get(node), []).append(node)
        value_names: Dict[Tuple[int, Optional[str]], object] = {}
        for node in owned.get(None, ()):
            self._emit_node(state, node, scope, owned, value_names)

    def _index_updates(self, state: SDFGState) -> None:
        """What :meth:`_accumulators` asks of a state, gathered in one pass:
        its ``+``/``*`` WCR writes out of tasklets, and for every container
        the source nodes of the edges that touch it in any other way, each
        with the edge when it is a tasklet's read (any other touch — a copy,
        any other write — with ``None``; a map exit only hands writes on, a
        map entry's in-edge only bounds the reads inside the map)."""
        edges = state.edges()
        self._updates = [edge for edge in edges if _is_update(edge)]
        self._touches = {}
        if not self._updates:
            return
        for edge in edges:
            source, destination, memlet = edge.src, edge.dst, edge.data
            if _is_update(edge) or isinstance(source, MapExit):
                continue
            if not memlet.is_empty and isinstance(destination, (Tasklet, MapEntry)) and (
                isinstance(source, MapEntry)
                or isinstance(source, AccessNode) and source.data == memlet.data
            ):
                if isinstance(destination, Tasklet):
                    self._touches.setdefault(memlet.data, []).append((source, edge))
                continue
            touched = [] if memlet.is_empty else [memlet.data]
            if isinstance(source, AccessNode) and (
                not memlet.is_empty
                or isinstance(destination, Tasklet) and edge.dst_conn is not None
            ):
                touched.append(source.data)
            if isinstance(destination, AccessNode) and (
                not memlet.is_empty or isinstance(source, Tasklet)
            ):
                touched.append(destination.data)
            for data in touched:
                self._touches.setdefault(data, []).append((source, None))

    def _emit_lazy_allocations(self, state: SDFGState) -> None:
        """Charge allocation cost for non-pre-allocated transients.

        Containers that were not hoisted by memory pre-allocation (§6.3) pay
        an allocation each time their first-use state executes — inside a
        loop if that is where they are used — which is what the allocation
        counter of the run results reports.
        """
        for name in sorted(state.read_set() | state.write_set()):
            descriptor = self.sdfg.arrays.get(name)
            if (
                isinstance(descriptor, Array)
                and descriptor.transient
                and descriptor.lifetime != LIFETIME_PERSISTENT
                and name not in self._allocated_persistent
            ):
                self._allocated_persistent.add(name)
                self._count_allocation(f"allocation of {name} on this path")

    def _emit_node(self, state, node, scope, owned, value_names,
                   vectorized: bool = False) -> None:
        if isinstance(node, Tasklet):
            self._emit_tasklet(state, node, value_names, vectorized)
        elif isinstance(node, MapEntry):
            self._emit_map(state, node, scope, owned, value_names)
        elif isinstance(node, AccessNode):
            for edge in state.in_edges(node):
                if isinstance(edge.src, AccessNode) and not edge.data.is_empty:
                    self.emit_copy(edge.src.data, node.data, edge.data.subset)

    def _emit_tasklet(self, state, tasklet: Tasklet, value_names, vectorized: bool) -> None:
        if tasklet.language == "mlir":
            raise self.error(
                f"Tasklet {tasklet.label!r} was kept in MLIR form and cannot be "
                f"emitted by the {self.backend} backend"
            )
        in_edges = [edge for edge in state.in_edges(tasklet) if edge.dst_conn is not None]
        inputs = [(edge.dst_conn, self._read_expression(edge, value_names)) for edge in in_edges]
        out_edges = [edge for edge in state.out_edges(tasklet) if edge.src_conn is not None]
        assignment = None if vectorized else single_assignment(tasklet.code)
        if assignment is not None and all(
            edge.src_conn == assignment.target for edge in out_edges
        ):
            bindings = {}
            for edge, (connector, read) in zip(in_edges, inputs):
                if assignment.uses(connector) > 1 and self._subscripted(edge):
                    read = self.bind_input(connector, read)
                bindings[connector] = read
            result = self.render_expression(assignment, bindings)
            if len(out_edges) > 1:
                result = self.bind_value(self._fresh_value(), result)
            output = lambda connector: result
        else:
            output = self.emit_tasklet(tasklet, inputs)
        for edge in out_edges:
            value = output(edge.src_conn)
            if isinstance(edge.dst, (AccessNode, MapExit)):
                self._emit_write(edge, value)
            else:
                # Value edge to another code node.
                value_names[(id(tasklet), edge.src_conn)] = self.bind_value(
                    self._fresh_value(), value
                )

    def _fresh_value(self) -> str:
        self._value_counter += 1
        return f"_val{self._value_counter - 1}"

    def _subscripted(self, edge) -> bool:
        """Whether reading ``edge`` indexes memory rather than naming a local."""
        return not edge.data.is_empty and isinstance(
            self.sdfg.arrays.get(edge.data.data), Array
        )

    def _read_expression(self, edge, value_names):
        source, memlet = edge.src, edge.data
        if memlet.data in self._copies and not memlet.is_empty:
            name, axes = self._copies[memlet.data]
            return self.write_target(name, self.sdfg.arrays[memlet.data],
                                     self._located(memlet.subset, axes))
        if isinstance(source, AccessNode):
            return self.read(source.data, memlet)
        if not isinstance(source, MapEntry):
            bound = value_names.get((id(source), edge.src_conn))
            if bound is not None:
                return bound
        if memlet.is_empty:
            return self.empty_read
        return self.read(memlet.data, memlet)

    def _emit_write(self, edge, value) -> None:
        memlet = edge.data
        if not memlet.is_empty:
            data = memlet.data
        elif isinstance(edge.dst, AccessNode):
            data = edge.dst.data
        else:
            return
        descriptor = self.sdfg.arrays[data]
        subset = None
        if id(edge) in self._accumulated:
            target = self._accumulated[id(edge)]
        elif isinstance(descriptor, Scalar):
            target = data
        elif memlet.subset is None:
            # A dynamic whole-array memlet was mutated in place through the input view.
            if not memlet.dynamic:
                self.emit_broadcast(data, descriptor, memlet.wcr, value)
            return
        elif data in self._copies:
            data, axes = self._copies[data]
            subset = self._located(memlet.subset, axes)
            target = self.write_target(data, descriptor, subset)
        elif memlet.subset.is_point() or not (
            memlet.dynamic and self._covers_whole(descriptor, memlet.subset)
        ):
            target = self.write_target(data, descriptor, memlet.subset)
            subset = memlet.subset
        else:
            return
        if self._nest is not None and memlet.wcr is not None:
            moving = _names(subset)
            folded = tuple(
                axis for axis, (param, _) in enumerate(self._nest) if param not in moving
            )
            if folded:
                element = (data, subset) if len(folded) < len(self._nest) else None
                self.emit_reduction(target, memlet.wcr, value, folded, element)
                return
        self.emit_update(
            target, descriptor, memlet.wcr, value, atomic=id(edge) in self._atomic_edges
        )

    def _emit_map(self, state, entry: MapEntry, scope, owned, value_names) -> None:
        exit_node = state.exit_node(entry)
        members = [node for node in owned.get(entry, ()) if node is not exit_node]
        if self._nest is not None:  # inside an array nest: the members over more axes
            self._emit_nested(state, entry, members, scope, owned, value_names)
            return
        parallel = self._parallel_maps.get(id(entry))
        # Without array operations the ``vectorize`` flag annotates a map
        # that stays sequential: a proven parallel schedule wins.
        annotated = (
            parallel is None
            and not self.array_maps
            and self.vectorize
            and vectorizable_map(state, entry, members)
        )
        # Reductions are rewritten only in sequentially emitted maps; a
        # parallel map keeps its reduction and atomic paths all the way down.
        sequential = not (annotated or parallel is not None or self._in_parallel)
        guard, accumulators = self._accumulators(state, entry, scope) if sequential else (None, [])
        for name, _, _, edges in accumulators:
            self._accumulated.update((id(edge), name) for edge in edges)
        form = self._array_form(state, entry, members, owned, scope) if self.array_maps else None
        as_array = form is not None and form.reason is None
        if as_array:
            # An empty range may have a negative end: not what a slice means by it.
            nonempty = self._nonempty(entry.map.ranges)
            guard = guard if nonempty is None else nonempty

        def emit_members() -> None:
            for node in members:
                self._emit_node(state, node, scope, owned, value_names, annotated)

        outside = self._in_parallel
        self._in_parallel = outside or parallel is not None
        with nullcontext() if guard is None else self.writer.block(
            self.if_header.format(self.expr(guard))
        ):
            bound = [
                self.bind_value(name, self.read(data, Memlet(data=data, subset=subset)))
                for name, data, subset, _ in accumulators
            ]
            if as_array:
                self._nest = tuple(zip(entry.map.params, entry.map.ranges))
                self._carried, self._bindings = form.carried, form.copies
                self._declare_copies(entry)
            self.emit_map(entry, emit_members, annotated or as_array, parallel)
            self._nest, self._bindings, self._copies = None, {}, {}
            for (_, data, subset, _), local in zip(accumulators, bound):
                descriptor = self.sdfg.arrays[data]
                target = self.write_target(data, descriptor, subset)
                self.emit_update(target, descriptor, None, local)
        self._in_parallel = outside

    def _emit_nested(self, state, entry: MapEntry, members, scope, owned, value_names) -> None:
        """A map inside an array nest: its members take the form over the
        nest's parameters and its own, under the guard of a range that may
        be empty."""
        outer = self._nest
        self._nest = outer + tuple(zip(entry.map.params, entry.map.ranges))
        guard = self._nonempty(entry.map.ranges)

        def emit_members() -> None:
            for node in members:
                self._emit_node(state, node, scope, owned, value_names)

        with nullcontext() if guard is None else self.writer.block(
            self.if_header.format(self.expr(guard))
        ):
            self._declare_copies(entry)
            self.emit_map(entry, emit_members, True, None)
        self._nest = outer

    def _declare_copies(self, entry: MapEntry) -> None:
        """Give each private array ``entry`` binds its copies: one per
        iteration of the nest's maps down to ``entry``, under a name no
        container or symbol has."""
        for data, binding in self._bindings.items():
            if binding is not entry:
                continue
            descriptor, name = self.sdfg.arrays[data], f"{data}_copies"
            while name in self.sdfg.arrays or name in self.sdfg.symbols:
                name += "_"
            extents = [rng.end - rng.start for _, rng in self._nest]
            self.declare_transient(name, Array(descriptor.dtype, extents + list(descriptor.shape),
                                               transient=True))
            self._copies[data] = (name, self._nest)

    @staticmethod
    def _located(subset: Subset, axes) -> Subset:
        """``subset`` of a private array in the copy of the iteration of
        ``axes``: each parameter, from its range's start, ahead of the
        array's own dimensions."""
        return Subset([Range(Symbol(param) - rng.start, Symbol(param) - rng.start + 1)
                       for param, rng in axes] + list(subset.ranges))

    @staticmethod
    def _nonempty(ranges) -> Optional[Expr]:
        """``lo < hi`` of every range that may be empty, joined; ``None`` if none may."""
        bounds = [rng.start.lt(rng.end) for rng in ranges if rng.is_empty() is not False]
        return And.make(*bounds) if bounds else None

    def _array_form(self, state, entry: MapEntry, members, owned, scope) -> ArrayForm:
        """The verdict on the nest ``entry`` roots, reached and counted once.

        Each innermost map of an accepted nest counts as an array map of its
        kind, the nest under ``array_nests`` and its depth.  A refused map
        without a nested one counts as a loop map under the refusal's name;
        a refused nest of more than one parameter under ``nest_refused``.
        """
        form = self._array_forms.get(id(entry))
        if form is None:
            form = self._classify(state, entry, owned, scope)
            self._array_forms[id(entry)] = form
            prefix = f"codegen.{self.backend.lower()}"
            nests = f"{prefix}_nests"
            nested = any(isinstance(node, MapEntry) for node in members)
            if form.reason is None:
                for kind in form.kinds:
                    PERF.increment(f"{prefix}.array_maps")
                    PERF.increment(f"{prefix}.array_maps.{kind.replace(' ', '_')}")
                PERF.increment(f"{nests}.array_nests")
                PERF.increment(f"{nests}.array_nests.depth_{form.depth}")
            else:
                if not nested:
                    PERF.increment(f"{prefix}.loop_maps")
                    PERF.increment(f"{prefix}.refused.{form.reason}")
                if nested or len(entry.map.params) > 1:
                    PERF.increment(f"{nests}.nest_refused.{form.reason}")
        return form

    @staticmethod
    def _nest_members(state, root: MapEntry, owned):
        """``(members, innermost maps, depth, refusal)`` of the nest ``root``
        roots: every node in it that is not a map, in operation order — each
        map's own nodes in program order, a nested map's in its place — and
        the maps without a nested one.  A map whose range names a parameter
        around it (a triangular bound) cuts the nest: the refusal names it."""
        members: List[_Member] = []
        innermost: List[MapEntry] = []
        depth = 0

        def walk(entry: MapEntry, maps, axes) -> Optional[str]:
            nonlocal depth
            for param, rng in zip(entry.map.params, entry.map.ranges):
                if _names(rng).intersection(name for name, _ in axes):
                    return "triangular"
                axes += ((param, rng),)
            maps += (entry,)
            depth = max(depth, len(axes))
            exit_node = state.exit_node(entry)
            nested = False
            for node in owned.get(entry, ()):
                if node is exit_node:
                    continue
                if not isinstance(node, MapEntry):
                    members.append(_Member(node, maps, axes))
                    continue
                nested = True
                reason = walk(node, maps, axes)
                if reason is not None:
                    return reason
            if not nested:
                innermost.append(entry)
            return None

        reason = walk(root, (), ())
        return members, innermost, depth, reason

    def _classify(self, state, root: MapEntry, owned, scope) -> ArrayForm:
        """What the nest ``root`` roots is as an array expression over its
        parameters' values.

        Operation order — each member over all iterations of the parameters
        around it, then the next member — must give every element the
        operations the loops give it, in the loops' order.  So every write
        lands on an ``Array`` element through a point memlet (no dynamic,
        range or ``min``/``max`` memlet); a store meets itself in no two
        iterations of the parameters it moves with; two accesses of a
        container written in the nest, one of them a write, meet in no two
        iterations of the maps around both — one question,
        :func:`~repro.sdfg.analysis.may_meet`, carried by those maps'
        parameters with the rest of the nest apart — so no iteration sees
        what another one left, and within one iteration the members run in
        the loops' order; and a ``+``/``*`` update of an element
        that does not move with some parameters is fed a value that moves
        with all of them and folds over those parameters in nest order —
        no other access of its container in an iteration of the maps around
        both.  Element types are those whose vector arithmetic is the
        scalar one (``float64``, ``int64``), an update stores what a local
        would hold (:meth:`_update_keeps_type`), and each tasklet is one
        expression the emitter can spell over arrays.  A scalar private to
        the iterations is stored and read like a temporary: it holds the
        array of their values when what binds it moves.  A copy or a bare
        read binding it is a view of what it reads, so a nest that writes
        that container at or after the binding, where the view may reach,
        stays loops (``aliased_value``), as one that updates the private, or binds it
        inside a nested map, does (``scalar_store``).
        """
        members, innermost, depth, reason = self._nest_members(state, root, owned)

        def refuse(reason: str) -> ArrayForm:
            return ArrayForm(reason=reason, depth=depth)

        if reason is not None:
            return refuse(reason)
        arrays = self.sdfg.arrays
        nodes = [member.node for member in members]
        private = private_containers(self.sdfg, state, nodes, self._liveness) if any(
            isinstance(node, AccessNode) and (
                isinstance(arrays[node.data], Scalar) or arrays[node.data].transient
            ) for node in nodes
        ) else set()
        # A private array is bound where its shallowest access node is.
        homes: Dict[str, _Member] = {}
        for member in members:
            data = getattr(member.node, "data", None)
            if data in private and isinstance(arrays[data], Array) and (
                data not in homes or len(member.maps) < len(homes[data].maps)
            ):
                homes[data] = member
        private -= homes.keys()

        def located(data: str, subset: Optional[Subset]) -> Optional[Subset]:
            home = homes.get(data)
            return subset if home is None else self._located(subset, home.axes)
        accesses: Dict[str, List[_Access]] = {}
        reads: Dict[MapEntry, Set[str]] = defaultdict(set)  # per map, what its tasklets read
        writes: Dict[MapEntry, Set[str]] = defaultdict(set)
        reduced: Set[MapEntry] = set()
        updated: Set[MapEntry] = set()
        moving: Dict[int, Set[str]] = {}  # tasklet → the parameters its value moves with
        # Private → the number of parameters around its binding, and those its value moves with.
        carried: Dict[str, Tuple[int, Set[str]]] = {}
        # Container → (member, read) of each view of it bound, in member order.
        views: Dict[str, List[Tuple[int, _Access]]] = defaultdict(list)
        written: Dict[str, int] = {}  # container → last member writing it

        site = partial(self._site, state, scope)

        def bound_value(data: str, depth: int) -> Optional[Set[str]]:
            """What a read ``depth`` parameters deep of ``data`` moves with;
            ``None`` for a private bound deeper in, whose last value the loops
            would read."""
            binding = carried.get(data, (0, set()))
            return None if binding[0] > depth else binding[1]

        def read(data: str, subset: Optional[Subset], maps, node) -> _Access:
            access = _Access(subset, maps, False, False, node)
            accesses.setdefault(data, []).append(access)
            reads[maps[-1]].add(data)
            return access

        for position, (node, maps, axes) in enumerate(members):
            params = {param for param, _ in axes}
            if isinstance(node, AccessNode):
                for edge in state.in_edges(node):
                    source, memlet = edge.src, edge.data
                    if memlet.is_empty or isinstance(source, (Tasklet, MapExit)):
                        continue  # a write, counted where the tasklet makes it
                    # A private bound by a copy is the slice the copy reads: a view.
                    if not isinstance(source, AccessNode) or node.data not in private \
                            or memlet.data != source.data:
                        return refuse("copy")
                    reason = self._element_refusal(arrays[source.data], memlet) \
                        or self._element_refusal(arrays[node.data], memlet)
                    if reason is not None:
                        return refuse(reason)
                    subset = None if isinstance(arrays[source.data], Scalar) else memlet.subset
                    access = read(source.data, subset, maps, node)
                    if subset is not None:
                        views[source.data].append((position, access))
                    values = bound_value(source.data, len(axes))
                    if values is None:
                        return refuse("crosses_iterations")
                    carried[node.data] = (len(axes), _names(subset) & params | values)
                continue
            if not isinstance(node, Tasklet):
                continue
            assignment = single_assignment(node.code)
            out_edges = [edge for edge in state.out_edges(node) if edge.src_conn is not None]
            if assignment is None or any(
                edge.src_conn != assignment.target for edge in out_edges
            ):
                return refuse("statements")
            reason = self.array_refusal(assignment)
            if reason is not None:
                return refuse(reason)
            values = {param for param in params if assignment.uses(param)}
            # A result bound to a temporary that is nothing but a read is a view.
            view = isinstance(assignment.value, ast.Name) and (
                len(out_edges) > 1 or any(
                    isinstance(edge.dst, Tasklet)
                    or isinstance(edge.dst, AccessNode) and edge.dst.data in private
                    for edge in out_edges
                )
            )
            for edge in state.in_edges(node):
                memlet = edge.data
                if edge.dst_conn is None:
                    continue
                if isinstance(edge.src, Tasklet):
                    values |= moving.get(id(edge.src), set())
                    continue
                if isinstance(edge.src, AccessNode):
                    data = edge.src.data
                elif memlet.is_empty:
                    continue
                else:
                    data = memlet.data
                reason = self._element_refusal(arrays[data], memlet)
                if reason is not None:
                    return refuse(reason)
                subset = None if isinstance(arrays[data], Scalar) else located(data, memlet.subset)
                access = read(data, subset, maps, node)
                bound = bound_value(data, len(axes))
                if bound is None:
                    return refuse("crosses_iterations")
                values |= _names(subset) & params | bound
                if view and subset is not None:
                    views[data].append((position, access))
            moving[id(node)] = values
            for edge in out_edges:
                memlet = edge.data
                if not isinstance(edge.dst, (AccessNode, MapExit)):
                    continue
                data = memlet.data if not memlet.is_empty else getattr(edge.dst, "data", None)
                if data is None:
                    continue
                descriptor = arrays[data]
                reason = self._element_refusal(descriptor, memlet)
                if reason is not None:
                    return refuse(reason)
                if data in private:
                    # One value per iteration; updated in place, a view would write
                    # through; bound in a nested map, the last iteration's would be read.
                    if memlet.wcr is not None or isinstance(edge.dst, MapExit):
                        return refuse("scalar_store")
                    carried[data] = (len(axes), values)
                    continue
                if memlet.wcr not in UPDATE_OPERATORS:
                    return refuse("min_max_update")
                if memlet.wcr is not None and not self._update_keeps_type(state, edge, descriptor):
                    return refuse("rounding_update")
                scalar = isinstance(descriptor, Scalar)
                subset = located(data, memlet.subset)
                bound = set() if scalar or id(edge) in self._accumulated \
                    else _names(subset) & params
                if bound != params:
                    if memlet.wcr is None:
                        return refuse("scalar_store" if scalar else "not_injective")
                    if values != params:
                        return refuse("uniform_update")
                    if bound and not self._fold_target(subset, axes, bound):
                        return refuse("fold_target")
                    reduced.add(maps[-1])
                if bound:
                    store = site(subset, node)
                    moves = tuple(param for param, _ in axes if param in bound)
                    if may_meet(store, store, (), moves):
                        return refuse("not_injective")
                if memlet.wcr is not None:
                    updated.add(maps[-1])
                accesses.setdefault(data, []).append(_Access(
                    None if scalar else subset, maps, True, bound != params, node
                ))
                writes[maps[-1]].add(data)
                written[data] = position
        nest = {param for *_, axes in members for param, _ in axes}
        for data, entries in accesses.items():
            if not any(access.write for access in entries):
                continue
            for first, second in combinations(entries, 2):
                if not (first.write or second.write):
                    continue
                around = tuple(param for outer, inner in zip(first.maps, second.maps)
                               if outer is inner for param in outer.map.params)
                if may_meet(site(first.subset, first.node), site(second.subset, second.node),
                            nest.difference(around), around):
                    return refuse(
                        "shared_accumulator" if first.fold or second.fold else "crosses_iterations"
                    )
            bindings = views.get(data)
            if bindings and written.get(data, -1) >= bindings[0][0] and any(
                may_meet(site(view.subset, view.node), site(access.subset, access.node), nest)
                for _, view in bindings for access in entries if access.write
            ):
                return refuse("aliased_value")
        kinds = tuple(
            ARRAY_KINDS[
                2 if entry in reduced else 1 if entry in updated or reads[entry] & writes[entry] else 0
            ]
            for entry in innermost
        )
        return ArrayForm(kinds, depth=depth,
                         carried={name: bound for name, (bound, moves) in carried.items() if moves},
                         copies={name: home.maps[-1] for name, home in homes.items()})

    def _site(self, state, scope, subset: Optional[Subset], node) -> Site:
        """``subset`` accessed at ``node`` of ``state``, with the ranges of the
        maps and loops around it, computed when :func:`may_meet` asks."""
        return Site(subset, lambda: site_ranges(scope, node, self._inductions().get(state, {})))

    @staticmethod
    def _fold_target(subset: Subset, axes, bound: Set[str]) -> bool:
        """Whether an element that moves with the parameters ``bound`` but not
        with all of ``axes`` is a slice along each of them in nest order —
        the layout a fold along the others keeps."""
        plan = sliced_dims(subset.indices(), axes)
        order = [axis for _, axis, _, _ in plan or ()]
        return plan is not None and order == sorted(order) and all(
            slope > 0 for *_, slope, _ in plan
        )

    @staticmethod
    def _element_refusal(descriptor, memlet) -> Optional[str]:
        """Why an access through ``memlet`` is not one element of a type whose
        vector arithmetic is the scalar one; ``None`` when it is."""
        if descriptor.dtype not in _ARRAY_DTYPES:
            return "narrow_type"
        if memlet.dynamic:
            return "dynamic_memlet"
        if isinstance(descriptor, Array) and (
            memlet.is_empty or memlet.subset is None or not memlet.subset.is_point()
        ):
            return "range_memlet"
        return None

    def _accumulators(self, state, entry: MapEntry, scope):
        """``(guard, accumulators)`` of one sequentially emitted map scope.

        A WCR write is a reduction over the scope when it updates, by ``+``
        or ``*`` through a non-dynamic memlet, one ``Array`` element whose
        index names no parameter of ``entry`` or of a map nested between it
        and the write, and the container is touched nowhere else inside the
        scope except by updates of the same element with the same operator
        (which share the local) and by reads that never reach that element
        in any iteration of the scope (:func:`~repro.sdfg.analysis.may_meet`).
        Writes an enclosing map already bound are skipped, so each is bound
        at the outermost scope that qualifies.

        The load and the store run once whatever the trip counts inside, so
        the scope must be entered exactly when the update would have run:
        every nested map on the way to a write, and every dimension of this
        map after the first, must be provably non-empty; the first dimension
        may be unknown, and then ``guard`` is its ``lo < hi``.
        """
        ranges = entry.map.ranges
        if not self._updates or not ranges or ranges[0].is_empty() or _may_be_empty(ranges[1:]):
            return None, []

        nesting: Dict[object, Optional[Tuple[MapEntry, ...]]] = {entry: ()}

        def nested(node) -> Optional[Tuple[MapEntry, ...]]:
            """The maps inside ``entry`` that enclose ``node``; None outside the scope."""
            if node not in nesting:
                parent = scope.get(node)
                outer = None if parent is None else nested(parent)
                nesting[node] = (
                    None if outer is None else outer if parent is entry else outer + (parent,)
                )
            return nesting[node]

        writes: Dict[str, List] = {}
        refused: Set[Optional[str]] = set()
        for edge in self._updates:
            maps = nested(edge.src)
            if maps is None or id(edge) in self._accumulated:
                continue
            data = edge.data.data if not edge.data.is_empty else getattr(edge.dst, "data", None)
            if self._reduces(state, edge, data, (entry,) + maps):
                writes.setdefault(data, []).append(edge)
            else:
                refused.add(data)

        accumulators = []
        for data, edges in writes.items():
            if data in refused or any(
                nested(source) is not None and (
                    read is None or self._reaches(state, scope, read, (entry,) + nested(read.dst), edges)
                )
                for source, read in self._touches.get(data, ())
            ):
                continue
            subset, wcr = edges[0].data.subset, edges[0].data.wcr
            if all(edge.data.subset == subset and edge.data.wcr == wcr for edge in edges):
                name = f"_acc{self._accumulator_counter}"
                self._accumulator_counter += 1
                accumulators.append(Accumulator(name, data, subset, tuple(edges)))
        if not accumulators or ranges[0].is_empty() is False:
            return None, accumulators
        return ranges[0].start.lt(ranges[0].end), accumulators

    def _reaches(self, state, scope, read, maps: Tuple[MapEntry, ...], updates) -> bool:
        """Whether the tasklet read ``read`` inside ``maps`` (outermost first)
        may reach an element one of ``updates`` updates, in any iterations
        of those maps."""
        site = self._site(state, scope, read.data.subset, read.dst)
        params = {param for entry in maps for param in entry.map.params}
        return any(
            may_meet(site, self._site(state, scope, edge.data.subset, edge.src), params)
            for edge in updates
        )

    def _reduces(self, state, edge, data: Optional[str], maps: Tuple[MapEntry, ...]) -> bool:
        """Whether ``edge``, a ``+``/``*`` update of ``data`` inside ``maps``
        (outermost first), may update a local bound outside them instead."""
        memlet, descriptor = edge.data, self.sdfg.arrays.get(data)
        if (
            not isinstance(descriptor, Array)
            or memlet.dynamic or memlet.subset is None or not memlet.subset.is_point()
            or edge.src_conn is None
            or any(_may_be_empty(inner.map.ranges) for inner in maps[1:])
        ):
            return False
        moving = {param for scope_entry in maps for param in scope_entry.map.params}
        if moving & _names(memlet.subset):
            return False
        return self._update_keeps_type(state, edge, descriptor)

    def _update_keeps_type(self, state, edge, descriptor) -> bool:
        """Whether the ``+``/``*`` update ``edge`` makes of one ``descriptor``
        element stores the type it computes: what a local (or a vector)
        holds is then what the element would."""
        if descriptor.dtype == "float64":
            return True  # float64 op anything is float64: nothing to round
        assignment = single_assignment(edge.src.code)
        return (
            descriptor.dtype == "int64"
            and assignment is not None and assignment.target == edge.src_conn
            and assignment_dtype(
                assignment, state.in_edges(edge.src), self.sdfg.arrays, self._name_dtypes
            ) in _INTEGRAL
        )

    def _covers_whole(self, descriptor, subset: Subset) -> bool:
        if len(descriptor.shape) != subset.dims:
            return False
        return bool(subset.covers(Subset.full(descriptor.shape)))
