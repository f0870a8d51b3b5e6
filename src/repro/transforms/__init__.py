"""Data-centric transformations (§6 of the paper) on a pattern-based
subgraph-rewrite engine.

Every transformation is a :class:`Transformation`: it **matches** the
sites of the SDFG where its pattern occurs (:meth:`Transformation.match`
returns deterministic, ordered :class:`Match` values) and **applies** one
site at a time (:meth:`Transformation.apply_match`, revalidating against
the mutated graph).  The pipeline entry point ``apply(sdfg)`` drains the
match set under the class's ``DRAIN`` policy and records how many sites
matched and were rewritten — surfaced on every
:class:`~repro.passbase.PassRecord` and in ``python -m repro compile
--verbose``.

Transformation parameters are constructor keyword arguments, declared for
the auto-tuner via ``PARAMS`` (e.g. ``MapTiling(tile_size=16)``,
``StackPromotion(max_elements=1024)``); they
serialize through :class:`~repro.pipeline.spec.PassSpec` params into the
spec's content address.  Two parameters exist on every transformation:
``only_matches`` (apply only the given match indices — per-match enable
subsets) and ``max_applications`` (cap the number of rewrites per run).

Every transformation is registered by name in :data:`DATA_PASSES`.  The
one ordered §6 suite (simplification, then memory scheduling) is
:data:`repro.pipeline.DATA_SUITE`, and
:func:`repro.pipeline.data_runner` is what builds a runner from a spec;
the parameterized scheduling transforms (``MapTiling``, ``MapInterchange``,
``MapCollapse``) are additive choices the tuner's search space proposes on
top.  Symbol inference is not a pass here: the
bridge's :class:`~repro.conversion.symbols.SymbolicEvaluator` does it.
"""

from .array_elimination import ArrayElimination
from .dead_code import (
    DeadDataflowElimination,
    DeadStateElimination,
    RedundantIterationElimination,
)
from .loop_analysis import LoopInfo, find_loops
from .map_parameterized import (
    MapCollapse,
    MapInterchange,
    MapTiling,
    tile_map,
)
from .map_transforms import LoopToMap, MapFusion, loops_left
from .parallelize import Parallelize
from .memory_allocation import MemoryPreAllocation, StackPromotion
from .pipeline import DataCentricPass
from .registry import DATA_PASSES, register_data_pass
from .rewrite import Match, Transformation, transformation_parameters
from .state_fusion import StateFusion
from .tasklet_fusion import TaskletFusion
from .wcr_detection import AugAssignToWCR

__all__ = [
    "ArrayElimination",
    "AugAssignToWCR",
    "DATA_PASSES",
    "DataCentricPass",
    "DeadDataflowElimination",
    "DeadStateElimination",
    "LoopInfo",
    "LoopToMap",
    "MapCollapse",
    "MapFusion",
    "MapInterchange",
    "MapTiling",
    "Match",
    "MemoryPreAllocation",
    "Parallelize",
    "RedundantIterationElimination",
    "StackPromotion",
    "StateFusion",
    "TaskletFusion",
    "Transformation",
    "find_loops",
    "loops_left",
    "register_data_pass",
    "tile_map",
    "transformation_parameters",
]
