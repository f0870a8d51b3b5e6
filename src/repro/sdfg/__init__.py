"""The SDFG IR (mini-DaCe): stateful dataflow multigraphs.

Public entry points: :class:`SDFG`, :class:`SDFGState`,
:class:`InterstateEdge`, the node classes, :class:`Memlet`, and the data
descriptors (:class:`Array`, :class:`Scalar`).
"""

from .analysis import live_containers_per_state, state_access_sets
from .data import (
    Array,
    Data,
    LIFETIME_PERSISTENT,
    LIFETIME_SCOPE,
    STORAGE_HEAP,
    STORAGE_REGISTER,
    STORAGE_STACK,
    Scalar,
    mlir_type_to_dtype,
)
from .memlet import Memlet, WCR_OPERATORS
from .nodes import (
    AccessNode,
    CodeNode,
    MAP_SCHEDULES,
    Map,
    MapEntry,
    MapExit,
    Node,
    SCHEDULE_PARALLEL,
    SCHEDULE_SEQUENTIAL,
    Tasklet,
)
from .propagation import propagate_memlets_sdfg, propagate_memlets_state, propagate_subset
from .sdfg import SDFG, InterstateEdge, InvalidSDFGError, StateEdge
from .state import MultiConnectorEdge, SDFGState
from .validation import validate_sdfg, validate_state

__all__ = [
    "AccessNode",
    "Array",
    "CodeNode",
    "Data",
    "InterstateEdge",
    "InvalidSDFGError",
    "LIFETIME_PERSISTENT",
    "LIFETIME_SCOPE",
    "MAP_SCHEDULES",
    "Map",
    "MapEntry",
    "MapExit",
    "Memlet",
    "MultiConnectorEdge",
    "Node",
    "SCHEDULE_PARALLEL",
    "SCHEDULE_SEQUENTIAL",
    "SDFG",
    "SDFGState",
    "STORAGE_HEAP",
    "STORAGE_REGISTER",
    "STORAGE_STACK",
    "Scalar",
    "StateEdge",
    "Tasklet",
    "WCR_OPERATORS",
    "live_containers_per_state",
    "mlir_type_to_dtype",
    "propagate_memlets_sdfg",
    "propagate_memlets_state",
    "propagate_subset",
    "state_access_sets",
    "validate_sdfg",
    "validate_state",
]
