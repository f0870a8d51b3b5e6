"""The Stateful Dataflow multiGraph (SDFG): a state machine of dataflow graphs.

The top-level IR object of the data-centric side (§2.2 of the paper):
data containers and symbols are declared once on the SDFG; states hold pure
dataflow; interstate edges carry symbolic conditions and symbol assignments
(enabling constant-time testing of data-dependent control flow, §3.2).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..symbolic import Expr, Symbol, TRUE, sympify
from .data import Array, Data, Scalar
from .graph import OrderedMultiDiGraph
from .state import SDFGState


class InvalidSDFGError(Exception):
    """Raised by validation when the SDFG violates a structural invariant."""


class InterstateEdge:
    """A state-machine transition: a symbolic condition plus assignments.

    Conditions and assignment right-hand sides are symbolic expressions over
    SDFG symbols and scalar containers (scalars are readable on edges, as in
    DaCe); assignments define/update symbols.
    """

    def __init__(
        self,
        condition: Union[str, Expr, None] = None,
        assignments: Optional[Mapping[str, Union[str, Expr, int]]] = None,
    ):
        if condition is None:
            self.condition: Expr = TRUE
        else:
            self.condition = sympify(condition)
        self.assignments: Dict[str, Expr] = {
            name: sympify(value) for name, value in (assignments or {}).items()
        }

    @property
    def is_unconditional(self) -> bool:
        return self.condition == TRUE

    def free_symbols(self) -> Set[str]:
        names = {symbol.name for symbol in self.condition.free_symbols()}
        for value in self.assignments.values():
            names |= {symbol.name for symbol in value.free_symbols()}
        return names

    def subs(self, mapping: Mapping[str, Expr]) -> "InterstateEdge":
        return InterstateEdge(
            self.condition.subs(mapping),
            {name: value.subs(mapping) for name, value in self.assignments.items()},
        )

    def clone(self) -> "InterstateEdge":
        return InterstateEdge(self.condition, dict(self.assignments))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if not self.is_unconditional:
            parts.append(f"if {self.condition}")
        if self.assignments:
            parts.append(", ".join(f"{k} = {v}" for k, v in self.assignments.items()))
        return "InterstateEdge(" + "; ".join(parts) + ")"


class StateEdge:
    """A (source state, destination state, interstate edge) triple."""

    __slots__ = ("src", "dst", "data", "key")

    _counter = itertools.count()

    def __init__(self, src: SDFGState, dst: SDFGState, data: InterstateEdge):
        self.src = src
        self.dst = dst
        self.data = data
        self.key = next(StateEdge._counter)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, StateEdge) and other.key == self.key


class SDFG(OrderedMultiDiGraph):
    """A stateful dataflow multigraph: the nodes are states, ``state in sdfg``
    is a constant-time membership test and state labels are unique."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.arrays: Dict[str, Data] = {}
        self.symbols: Dict[str, str] = {}
        self.constants: Dict[str, Union[int, float]] = {}
        self._labels: Set[str] = set()
        self.start_state: Optional[SDFGState] = None
        self._state_counter = 0
        self._temp_counter = 0
        #: Containers acting as outputs of the program (e.g. __return).
        self.return_values: List[str] = []
        #: Record of containers removed by elimination passes (for reports).
        self.eliminated_containers: List[str] = []

    # -- container management --------------------------------------------------------
    def add_array(
        self,
        name: str,
        shape: Sequence,
        dtype: str,
        transient: bool = False,
        storage: str = "heap",
        lifetime: str = "scope",
        find_new_name: bool = False,
    ) -> Tuple[str, Array]:
        if name in self.arrays:
            if not find_new_name:
                raise InvalidSDFGError(f"Container {name!r} already exists")
            name = self._find_new_name(name)
        descriptor = Array(dtype, shape, transient=transient, storage=storage, lifetime=lifetime)
        self.arrays[name] = descriptor
        return name, descriptor

    def add_transient(self, name: str, shape: Sequence, dtype: str, **kwargs) -> Tuple[str, Array]:
        kwargs.setdefault("find_new_name", True)
        return self.add_array(name, shape, dtype, transient=True, **kwargs)

    def add_scalar(
        self, name: str, dtype: str, transient: bool = True, find_new_name: bool = False
    ) -> Tuple[str, Scalar]:
        if name in self.arrays:
            if not find_new_name:
                raise InvalidSDFGError(f"Container {name!r} already exists")
            name = self._find_new_name(name)
        descriptor = Scalar(dtype, transient=transient)
        self.arrays[name] = descriptor
        return name, descriptor

    def remove_data(self, name: str, validate: bool = True) -> None:
        """Remove a container descriptor (it must be unused if ``validate``)."""
        if validate:
            for state in self.states():
                for node in state.data_nodes():
                    if node.data == name:
                        raise InvalidSDFGError(
                            f"Cannot remove {name!r}: still accessed in state {state.label!r}"
                        )
        if name in self.arrays:
            del self.arrays[name]
            self.eliminated_containers.append(name)

    def _find_new_name(self, base: str) -> str:
        while True:
            candidate = f"{base}_{self._temp_counter}"
            self._temp_counter += 1
            if candidate not in self.arrays and candidate not in self.symbols:
                return candidate

    # -- symbols ------------------------------------------------------------------------
    def add_symbol(self, name: str, dtype: str = "int64") -> Symbol:
        existing = self.symbols.get(name)
        if existing is not None and existing != dtype:
            raise InvalidSDFGError(f"Symbol {name!r} redefined with a different type")
        self.symbols[name] = dtype
        return Symbol(name)

    def free_symbols(self) -> Set[str]:
        """Symbols used anywhere but never defined (by interstate-edge
        assignments or as map parameters); these must be provided by the
        caller."""
        from .nodes import MapEntry

        assigned = {name for edge in self.edges() for name in edge.data.assignments}
        assigned |= {param for state in self.states() for node in state.nodes()
                     if isinstance(node, MapEntry) for param in node.map.params}
        return self.used_symbols() - assigned - set(self.constants)

    def used_symbols(self) -> Set[str]:
        """Symbols and constants the containers, interstate edges and states use."""
        used: Set[str] = set()
        for descriptor in self.arrays.values():
            used |= {symbol.name for symbol in descriptor.free_symbols()}
        for edge in self.edges():
            used |= edge.data.free_symbols()
        for state in self.states():
            used |= state.used_symbols()
        return used & (set(self.symbols) | set(self.constants))

    # -- state machine ---------------------------------------------------------------------
    def add_state(self, label: Optional[str] = None, is_start_state: bool = False) -> SDFGState:
        """Add a state; a missing or already-taken label gets a counter suffix."""
        base = "state" if label is None else label
        while label is None or label in self._labels:
            label = f"{base}_{self._state_counter}"
            self._state_counter += 1
        self._labels.add(label)
        state = self.add_node(SDFGState(label, self))
        if is_start_state or self.start_state is None:
            self.start_state = state
        return state

    def add_state_after(self, state: SDFGState, label: Optional[str] = None) -> SDFGState:
        """Insert a new state after ``state``, rewiring its outgoing edges."""
        new_state = self.add_state(label)
        for edge in self.out_edges(state):
            self.remove_edge(edge)
            self.add_edge(new_state, edge.dst, edge.data)
        self.add_edge(state, new_state, InterstateEdge())
        return new_state

    def add_edge(self, src: SDFGState, dst: SDFGState, data: Optional[InterstateEdge] = None) -> StateEdge:
        return self._insert_edge(StateEdge(src, dst, data or InterstateEdge()))

    def remove_state(self, state: SDFGState) -> None:
        self.remove_node(state)
        self._labels.discard(state.label)
        if self.start_state is state:
            self.start_state = None

    states = OrderedMultiDiGraph.nodes

    # -- queries ---------------------------------------------------------------------------------
    def arglist(self) -> Dict[str, Data]:
        """Externally visible containers (non-transient), i.e. run arguments."""
        return {
            name: descriptor
            for name, descriptor in self.arrays.items()
            if not descriptor.transient
        }

    def transients(self) -> Dict[str, Data]:
        return {
            name: descriptor for name, descriptor in self.arrays.items() if descriptor.transient
        }

    def map_entries(self) -> Iterator:
        """Yield ``(state, map entry)`` pairs in deterministic order.

        The enumeration order (state order, then program order of the nodes)
        is the order pattern-based map transformations number their
        matches in.
        """
        for state in self.states():
            for entry in state.map_entries():
                yield state, entry

    # -- validation and execution hooks ------------------------------------------------------------
    def validate(self) -> None:
        from .validation import validate_sdfg

        validate_sdfg(self)

    def compile(self, **kwargs):
        """Generate and load an executable Python program for this SDFG."""
        from ..codegen.sdfg_python import compile_sdfg

        return compile_sdfg(self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SDFG {self.name}: {len(self.states())} states, "
            f"{len(self.arrays)} containers, {len(self.symbols)} symbols>"
        )
