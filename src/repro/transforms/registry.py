"""Name-keyed registry of data-centric (SDFG) passes.

Declarative pipeline specs (:class:`repro.pipeline.PipelineSpec`) reference
data-centric passes by these names.  Registering a new pass makes it
immediately usable in specs — ablation pipelines (e.g. ``dcir`` without
``MapFusion``) are just specs with a shorter pass list — and pattern-based
:class:`~repro.transforms.Transformation` subclasses additionally expose
their match enumeration (``python -m repro transforms match``) and tuner
parameter axes (``PARAMS``) through the same name.
"""

from __future__ import annotations

from ..passbase import PassRegistry
from .array_elimination import ArrayElimination
from .dead_code import (
    DeadDataflowElimination,
    DeadStateElimination,
    RedundantIterationElimination,
)
from .map_parameterized import MapCollapse, MapInterchange, MapTiling
from .map_transforms import LoopToMap, MapFusion
from .parallelize import Parallelize
from .memory_allocation import MemoryPreAllocation, StackPromotion
from .state_fusion import StateFusion
from .tasklet_fusion import TaskletFusion
from .wcr_detection import AugAssignToWCR

#: The data-centric (SDFG-side) pass registry.
DATA_PASSES = PassRegistry("data-centric")

for _cls in (
    StateFusion,
    TaskletFusion,
    AugAssignToWCR,
    DeadStateElimination,
    DeadDataflowElimination,
    RedundantIterationElimination,
    ArrayElimination,
    StackPromotion,
    MemoryPreAllocation,
    LoopToMap,
    MapFusion,
    # Parameterized scheduling transforms (tuner-searchable additions).
    MapTiling,
    MapInterchange,
    MapCollapse,
    # Schedule annotation (tuner ``schedule:`` axis).
    Parallelize,
):
    DATA_PASSES.register(_cls)


def register_data_pass(cls=None, *, name=None, overwrite=False):
    """Register a data-centric pass class (usable as a decorator)."""
    return DATA_PASSES.register(cls, name=name, overwrite=overwrite)
