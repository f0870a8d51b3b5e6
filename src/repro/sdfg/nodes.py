"""Dataflow-graph node types of the SDFG IR.

A state's multigraph contains access nodes (views onto data containers),
tasklets (atomic units of computation), and map entry/exit pairs that
delimit parametrically parallel scopes (§2.2 of the paper).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..symbolic import Range
from .tasklet_code import statements

_node_counter = itertools.count()


class Node:
    """Base class for dataflow nodes.  Each node has a unique id so that
    identical-looking nodes (e.g. two access nodes of the same array) remain
    distinct graph vertices."""

    def __init__(self, label: str = ""):
        self.node_id = next(_node_counter)
        self.label = label

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.label or self.node_id}>"


class AccessNode(Node):
    """A read/write view of a data container within a state."""

    def __init__(self, data: str):
        super().__init__(label=data)
        self.data = data


class CodeNode(Node):
    """Base class for nodes with named connectors (tasklets, nested scopes)."""

    def __init__(self, label: str, inputs: Sequence[str] = (), outputs: Sequence[str] = ()):
        super().__init__(label=label)
        self.in_connectors: Set[str] = set(inputs)
        self.out_connectors: Set[str] = set(outputs)

    def add_in_connector(self, name: str) -> None:
        self.in_connectors.add(name)

    def add_out_connector(self, name: str) -> None:
        self.out_connectors.add(name)


class Tasklet(CodeNode):
    """An atomic unit of computation.

    ``code`` is a block of Python statements over the connector names (the
    *raised* representation of §5.2); ``language`` records the original
    representation (``"python"`` for raised tasklets, ``"mlir"`` for
    tasklets kept in MLIR form and compiled separately).
    """

    def __init__(
        self,
        label: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: str,
        language: str = "python",
    ):
        super().__init__(label, inputs, outputs)
        self.code = code
        self.language = language

    def free_symbols(self, symbols: Iterable[str] = ()) -> Set[str]:
        """Names the code loads that are neither connectors nor locals it
        assigns.  Code that does not read as Python statements (MLIR text)
        may load any of ``symbols``."""
        body = statements(self.code) if self.language == "python" else None
        if body is None:
            return set(symbols)
        loaded = {name for line in body for name, _, _ in line.target_names + line.names}
        return loaded - {line.target for line in body} - self.in_connectors - self.out_connectors


#: Default map schedule: the body executes as a sequential loop nest.
SCHEDULE_SEQUENTIAL = "sequential"

#: Parallel map schedule: native code splits the map's *first* parameter
#: across OpenMP threads; the interpreted backend runs it in order.  Set by
#: ``Parallelize`` after the safety proof in :mod:`repro.sdfg.parallelism`
#: succeeds.
SCHEDULE_PARALLEL = "parallel"

#: The valid values of :attr:`Map.schedule`.
MAP_SCHEDULES = (SCHEDULE_SEQUENTIAL, SCHEDULE_PARALLEL)


class Map:
    """A parametric parallel iteration space shared by an entry/exit pair.

    Scheduling annotations set by the parameterized transformations
    (:mod:`repro.transforms.map_parameterized`,
    :mod:`repro.transforms.parallelize`):

    * ``tiling`` — the tile size this map was strip-mined with; set on the
      *outer* (tile-loop) map by ``MapTiling`` so the pattern does not
      re-match maps it already created.
    * ``schedule`` — ``"sequential"`` (default; codegen is byte-identical
      to pre-schedule output) or ``"parallel"`` (the first parameter's
      loop is split across workers).  Set by ``Parallelize`` only after
      proving no cross-iteration write conflicts except WCR memlets.
    * ``n_threads`` — requested worker count for a parallel schedule;
      ``None`` defers to the ``REPRO_NUM_THREADS`` environment variable
      and then the machine's core count at run time.
    """

    def __init__(self, label: str, params: Sequence[str], ranges: Sequence[Range]):
        if len(params) != len(ranges):
            raise ValueError("Map requires one range per parameter")
        self.label = label
        self.params: List[str] = list(params)
        self.ranges: List[Range] = list(ranges)
        self.tiling: Optional[int] = None
        self.schedule: str = SCHEDULE_SEQUENTIAL
        self.n_threads: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spec = ", ".join(f"{p}={r}" for p, r in zip(self.params, self.ranges))
        return f"Map({self.label}: {spec})"


class MapEntry(CodeNode):
    """Entry node of a map scope.  Outer edges arrive at ``IN_<name>``
    connectors; inner edges leave from ``OUT_<name>`` connectors."""

    def __init__(self, map_obj: Map):
        super().__init__(label=f"{map_obj.label}_entry")
        self.map = map_obj


class MapExit(CodeNode):
    """Exit node of a map scope (inner edges in, outer edges out)."""

    def __init__(self, map_obj: Map):
        super().__init__(label=f"{map_obj.label}_exit")
        self.map = map_obj
