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
  a sequential loop nest.  A map *is* an array expression: every
  single-parameter map without a nested scope is classified once
  (:meth:`SDFGWalker._array_form`) as ``elementwise``, ``updates in
  place`` or ``reduces in order`` — or refused under a name
  (:class:`ArrayForm`), counted per compile as
  ``codegen.<backend>.array_maps`` (and ``.array_maps.<kind>``) /
  ``.loop_maps`` (and ``.refused.<name>``).
  An emitter that has array operations (:attr:`SDFGWalker.array_maps`)
  emits every classified map that would otherwise be a sequential loop in
  **operation order** — each tasklet over all iterations before the next
  — under every pipeline; a parallel-scheduled map keeps its fork/join
  and the maps inside it take the array form.  The verdict guarantees
  that no element sees its floating-point operations in another order: a
  store is injective in the parameter, a container written in the scope
  is accessed there at one element per iteration, and an update of an
  element that does not move adds (multiplies) left to right starting
  from that element.  An emitter without array operations annotates what
  ``Vectorization`` (or the ``vectorize`` flag) marked and
  :func:`vectorizable_map` accepts;
* which WCR writes are reductions over a sequential map.  An update whose
  target element does not move with the map (``C[i, j] += …`` under
  ``for k``) accumulates in a local: ``_accN = T[idx]`` ahead of the loop
  nest, ``_accN op= value`` in place of the update, ``T[idx] = _accN``
  after it — the same operations in the same order on the same type, so
  results are bit-identical.  The local is bound at the outermost map for
  which :meth:`SDFGWalker._accumulators` holds; a map that may run zero
  times gets the load/store pair under its own ``lo < hi`` guard.
  Parallel maps (and everything nested in
  them) keep their reduction and atomic paths, ``min``/``max`` updates
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
from contextlib import nullcontext
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..perf import PERF
from ..symbolic import Expr, Integer, Subset, Symbol
from ..sdfg import SDFG, AccessNode, Memlet, SDFGState, Scalar, Tasklet
from ..sdfg.data import Array, LIFETIME_PERSISTENT
from ..sdfg.nodes import MapEntry, MapExit, SCHEDULE_PARALLEL
from ..sdfg.parallelism import ParallelismInfo, analyze_map_parallelism
from ..sdfg.tasklet_code import (
    Assignment, assignment_dtype, construct, name_dtypes, single_assignment, statements,
)
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


#: Constructs ``Vectorization`` annotates no map over: the pinned C text
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
    """Whether a map scope may carry the ``vectorized`` annotation.

    The matcher of the ``Vectorization`` transformation, and what an
    emitter without array operations checks before it honours the
    annotation (or the global ``vectorize`` flag of ``dcir+vec``): single
    parameter, no nested scopes, tasklets that are element-wise
    assignments (:func:`_elementwise`), and no WCR updates.
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
    """Verdict of :meth:`SDFGWalker._array_form` on one innermost map.

    ``kind`` is one of :data:`ARRAY_KINDS` — every write a store to the
    iteration's own element; some element read or updated where it is
    stored; a ``+``/``*`` update of an element that does not move — or
    ``None``, and then ``reason`` names why the map stays a loop.
    """

    kind: Optional[str]
    reason: Optional[str] = None


@lru_cache(maxsize=4096)  # the same few indices, asked about once per access
def affine_in(index: Expr, param: str, otherwise=None) -> Optional[Tuple[int, Expr]]:
    """``(a, b)`` such that ``index`` is ``a * param + b`` with a literal ``a``
    and ``b`` free of ``param``; ``otherwise`` for any other dependence."""
    offset = index.subs({param: 0})
    slope = index.subs({param: 1}) - offset
    if isinstance(slope, Integer) and slope * Symbol(param) + offset == index:
        return slope.value, offset
    return otherwise


def _names(subset: Optional[Subset]) -> Set[str]:
    return set() if subset is None else {symbol.name for symbol in subset.free_symbols()}


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
    #: The two capability differences: whether a WCR update can be made
    #: atomic (without atomics, maps that need them lower sequentially), and
    #: whether the language has array operations (then every map that is an
    #: array expression is emitted as one, see :meth:`_array_form`).
    has_atomics: bool
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
        #: The map whose members are being emitted as array operations.
        self._array_map = None
        self._name_dtypes = name_dtypes(sdfg.symbols, sdfg.constants)
        self._allocated_persistent: Set[str] = set()
        # Top-level parallel-scheduled maps whose safety proof succeeds —
        # the annotation is a request, the proof is the authority.
        self._parallel_maps: Dict[int, ParallelismInfo] = {}
        self._atomic_edges: Set[int] = set()
        for state, entry in sdfg.map_entries():
            if entry.map.schedule != SCHEDULE_PARALLEL:
                continue
            if state.scope_dict().get(entry) is not None:
                continue
            info = analyze_map_parallelism(sdfg, state, entry)
            if info.ok and (self.has_atomics or not info.atomic_edges):
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
        (while ``emit_members()`` runs, ``self._array_map`` is the map and
        reads, write targets and expressions range over its parameter)
        where :attr:`array_maps` holds, else the annotated loop.
        """
        raise NotImplementedError

    def array_refusal(self, assignment: Assignment) -> Optional[str]:
        """With :attr:`array_maps`: the name under which a tasklet expression
        the emitter cannot spell over arrays keeps its map a loop."""
        raise NotImplementedError

    def emit_reduction(self, target: str, wcr: str, values) -> None:
        """With :attr:`array_maps`: fold the vector ``values`` into ``target``
        by ``wcr``, left to right starting from ``target``."""
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
            if node.guard.is_empty():
                with writer.block(self.while_header.format(self.expr(node.condition))):
                    self._emit_sequence(node.body)
            else:
                with writer.block(self.while_header.format(self.true)):
                    self._emit_state(node.guard)
                    with writer.block(self.unless_header.format(self.expr(node.condition))):
                        writer.emit("break" + self.end)
                    self._emit_sequence(node.body)
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
        order = state.program_order()
        value_names: Dict[Tuple[int, Optional[str]], object] = {}
        for node in order:
            if scope.get(node) is None:  # others are emitted as part of their map scope
                self._emit_node(state, node, scope, order, value_names)

    def _index_updates(self, state: SDFGState) -> None:
        """What :meth:`_accumulators` asks of a state, gathered in one pass:
        its ``+``/``*`` WCR writes out of tasklets, and for every container
        the source nodes of the edges that touch it in any other way (a
        read, a copy, any other write; a map exit only hands writes on)."""
        edges = state.edges()
        self._updates = [edge for edge in edges if _is_update(edge)]
        self._touches = {}
        if not self._updates:
            return
        for edge in edges:
            source, destination, memlet = edge.src, edge.dst, edge.data
            if _is_update(edge) or isinstance(source, MapExit):
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
                self._touches.setdefault(data, []).append(source)

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

    def _emit_node(self, state, node, scope, order, value_names,
                   vectorized: bool = False) -> None:
        if isinstance(node, Tasklet):
            self._emit_tasklet(state, node, value_names, vectorized)
        elif isinstance(node, MapEntry):
            self._emit_map(state, node, scope, order, value_names)
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
        array_map = self._array_map
        moves = False
        if id(edge) in self._accumulated:
            target = self._accumulated[id(edge)]
        elif isinstance(descriptor, Scalar):
            target = data
        elif memlet.subset is None:
            # A dynamic whole-array memlet was mutated in place through the input view.
            if not memlet.dynamic:
                self.emit_broadcast(data, descriptor, memlet.wcr, value)
            return
        elif memlet.subset.is_point() or not (
            memlet.dynamic and self._covers_whole(descriptor, memlet.subset)
        ):
            target = self.write_target(data, descriptor, memlet.subset)
            moves = array_map is not None and array_map.params[0] in _names(memlet.subset)
        else:
            return
        if array_map is not None and memlet.wcr is not None and not moves:
            self.emit_reduction(target, memlet.wcr, value)
        else:
            self.emit_update(
                target, descriptor, memlet.wcr, value, atomic=id(edge) in self._atomic_edges
            )

    def _emit_map(self, state, entry: MapEntry, scope, order, value_names) -> None:
        exit_node = state.exit_node(entry)
        members = [
            node for node in order if scope.get(node) is entry and node is not exit_node
        ]
        # Without array operations the annotation is honoured, and wins.
        annotated = (
            not self.array_maps
            and (self.vectorize or entry.map.vectorized)
            and vectorizable_map(state, entry, members)
        )
        parallel = None if annotated else self._parallel_maps.get(id(entry))
        # Reductions are rewritten only in sequentially emitted maps; a
        # parallel map keeps its reduction and atomic paths all the way down.
        sequential = not (annotated or parallel is not None or self._in_parallel)
        guard, accumulators = self._accumulators(state, entry, scope) if sequential else (None, [])
        for name, _, _, edges in accumulators:
            self._accumulated.update((id(edge), name) for edge in edges)
        as_array = (
            self.array_maps
            and not any(isinstance(node, MapEntry) for node in members)
            and self._array_form(state, entry, members, parallel).kind is not None
        )
        first = entry.map.ranges[0]
        if as_array and guard is None and first.is_empty() is not False:
            # An empty range may have a negative end: not what a slice means by it.
            guard = first.start.lt(first.end)

        def emit_members() -> None:
            for node in members:
                self._emit_node(state, node, scope, order, value_names, annotated)

        outside = self._in_parallel
        self._in_parallel = outside or parallel is not None
        with nullcontext() if guard is None else self.writer.block(
            self.if_header.format(self.expr(guard))
        ):
            bound = [
                self.bind_value(name, self.read(data, Memlet(data=data, subset=subset)))
                for name, data, subset, _ in accumulators
            ]
            self._array_map = entry.map if as_array else None  # innermost: none around it
            self.emit_map(entry, emit_members, annotated or as_array, parallel)
            self._array_map = None
            for (_, data, subset, _), local in zip(accumulators, bound):
                descriptor = self.sdfg.arrays[data]
                target = self.write_target(data, descriptor, subset)
                self.emit_update(target, descriptor, None, local)
        self._in_parallel = outside

    def _array_form(self, state, entry: MapEntry, members,
                    parallel: Optional[ParallelismInfo]) -> ArrayForm:
        """The verdict on one map without a nested scope, reached and counted once."""
        form = self._array_forms.get(id(entry))
        if form is None:
            if parallel is not None:
                form = ArrayForm(None, "parallel_schedule")
            else:
                form = self._classify(state, entry, members)
            self._array_forms[id(entry)] = form
            prefix = f"codegen.{self.backend.lower()}"
            if form.kind is not None:
                PERF.increment(f"{prefix}.array_maps")
                PERF.increment(f"{prefix}.array_maps.{form.kind.replace(' ', '_')}")
            else:
                PERF.increment(f"{prefix}.loop_maps")
                PERF.increment(f"{prefix}.refused.{form.reason}")
        return form

    def _classify(self, state, entry: MapEntry, members) -> ArrayForm:
        """What the map is as an array expression over its parameter's values.

        Operation order — each tasklet over all iterations, then the next —
        must give every element the operations the loop gives it, in the
        loop's order.  So every write lands on an ``Array`` element through
        a point memlet (no dynamic, range or ``min``/``max`` memlet), a
        store's index is injective in the parameter, a container written in
        the scope is accessed there at one and the same element per
        iteration, and a ``+``/``*`` update of an element that does not move
        is the scope's only access to its container and is fed a value that
        does move.  Element types are those whose vector arithmetic is the
        scalar one (``float64``, ``int64``), an update stores what a local
        would hold (:meth:`_update_keeps_type`), and each tasklet is one
        expression the emitter can spell over arrays.
        """
        if len(entry.map.params) != 1:
            return ArrayForm(None, "parameters")
        param = entry.map.params[0]
        arrays = self.sdfg.arrays
        reads: Dict[str, List[Optional[Subset]]] = {}
        writes: Dict[str, List[Optional[Subset]]] = {}
        reduced: Set[str] = set()
        updated = False
        moving: Set[int] = set()   # tasklets whose value moves with the parameter
        aliased: Set[str] = set()  # containers a temporary holds a view of
        for node in members:
            if isinstance(node, AccessNode):
                if any(isinstance(edge.src, AccessNode) and not edge.data.is_empty
                       for edge in state.in_edges(node)):
                    return ArrayForm(None, "copy")
                continue
            if not isinstance(node, Tasklet):
                continue
            assignment = single_assignment(node.code)
            out_edges = [edge for edge in state.out_edges(node) if edge.src_conn is not None]
            if assignment is None or any(
                edge.src_conn != assignment.target for edge in out_edges
            ):
                return ArrayForm(None, "statements")
            reason = self.array_refusal(assignment)
            if reason is not None:
                return ArrayForm(None, reason)
            moves = assignment.uses(param) > 0
            # A result bound to a temporary that is nothing but a read is a view.
            view = isinstance(assignment.value, ast.Name) and (
                len(out_edges) > 1 or any(isinstance(edge.dst, Tasklet) for edge in out_edges)
            )
            for edge in state.in_edges(node):
                memlet = edge.data
                if edge.dst_conn is None:
                    continue
                if isinstance(edge.src, Tasklet):
                    moves = moves or id(edge.src) in moving
                    continue
                if isinstance(edge.src, AccessNode):
                    data = edge.src.data
                elif memlet.is_empty:
                    continue
                else:
                    data = memlet.data
                reason = self._element_refusal(arrays[data], memlet)
                if reason is not None:
                    return ArrayForm(None, reason)
                subset = None if isinstance(arrays[data], Scalar) else memlet.subset
                reads.setdefault(data, []).append(subset)
                moves = moves or param in _names(subset)
                if view and subset is not None:
                    aliased.add(data)
            if moves:
                moving.add(id(node))
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
                    return ArrayForm(None, reason)
                if memlet.wcr not in UPDATE_OPERATORS:
                    return ArrayForm(None, "min_max_update")
                if memlet.wcr is not None and not self._update_keeps_type(state, edge, descriptor):
                    return ArrayForm(None, "rounding_update")
                scalar = isinstance(descriptor, Scalar)
                if scalar or id(edge) in self._accumulated or param not in _names(memlet.subset):
                    if memlet.wcr is None:
                        return ArrayForm(None, "scalar_store" if scalar else "not_injective")
                    if not moves:
                        return ArrayForm(None, "uniform_update")
                    reduced.add(data)
                elif not any(
                    affine_in(index, param, (0, None))[0] for index in memlet.subset.indices()
                ):
                    return ArrayForm(None, "not_injective")  # no index of non-zero slope
                updated = updated or memlet.wcr is not None
                writes.setdefault(data, []).append(None if scalar else memlet.subset)
        for data, subsets in writes.items():
            accesses = subsets + reads.get(data, [])
            if data in reduced and len(accesses) > 1:
                return ArrayForm(None, "shared_accumulator")
            if any(subset != accesses[0] for subset in accesses):
                return ArrayForm(None, "crosses_iterations")
            if data in aliased:
                return ArrayForm(None, "aliased_value")
        in_place = updated or any(data in reads for data in writes)
        return ArrayForm(ARRAY_KINDS[2 if reduced else 1 if in_place else 0])

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
        (which share the local).  Writes an enclosing map already bound are
        skipped, so each is bound at the outermost scope that qualifies.

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
                nested(source) is not None for source in self._touches.get(data, ())
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
