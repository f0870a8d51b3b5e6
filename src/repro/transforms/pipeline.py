"""Data-centric pass infrastructure and the standard DCIR pipelines.

A thin layer over the unified infrastructure in :mod:`repro.passbase`:
:class:`DataCentricPass` keeps the DaCe-flavoured ``apply`` hook name and
:class:`DataCentricPipeline` the ``validate`` convenience; runs report the
shared :class:`~repro.passbase.StageReport`.

``DataCentricPass`` is the *whole-graph* contract: ``apply(sdfg) -> bool``
transforms in place and reports whether anything changed.  Almost every
shipped pass is now the richer pattern-based
:class:`~repro.transforms.rewrite.Transformation` subclass of it, which
splits that into ``match(sdfg) -> list[Match]`` (deterministic site
enumeration) and ``apply_match(sdfg, match)`` (one-site rewrite with
revalidation), with ``apply`` as the match-draining driver; write a plain
``DataCentricPass`` only when a rewrite genuinely has no site structure.
The :class:`~repro.passbase.PassRunner` treats both identically, but
pattern-based passes additionally report per-run match/application counts
on their :class:`~repro.passbase.PassRecord`.

Three standard pipelines are provided, matching the paper:

* :func:`simplification_pipeline` — the idempotent ``-O1``-equivalent
  simplification (§6.1/§6.2): inference, state and tasklet fusion, dead state / dead
  dataflow elimination, array elimination, memlet consolidation.
* :func:`memory_scheduling_pipeline` — the ``-O2``-equivalent memory
  scheduling optimizations (§6.3): memory (pre-)allocation and
  memory-reducing loop fusion.
* :func:`data_centric_pipeline` — both, in order (what DCIR runs after
  translation).
"""

from __future__ import annotations

from typing import Sequence

from ..passbase import PassBase, PassRunner, StageReport
from ..sdfg import SDFG


class DataCentricPass(PassBase):
    """Base class for SDFG-level passes."""

    def run(self, target: SDFG) -> bool:
        return self.apply(target)

    def apply(self, sdfg: SDFG) -> bool:
        """Transform ``sdfg`` in place; return True if anything changed."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataCentricPass {self.name}>"


class DataCentricPipeline(PassRunner):
    """Runs a sequence of data-centric passes, optionally to a fixed point."""

    def __init__(self, passes: Sequence[DataCentricPass], max_iterations: int = 4,
                 validate: bool = False):
        super().__init__(
            passes,
            max_iterations=max_iterations,
            validate=(lambda sdfg: sdfg.validate()) if validate else None,
            stage="data",
        )

    def apply(self, sdfg: SDFG) -> StageReport:
        return self.run(sdfg)


def simplification_pipeline(max_iterations: int = 4) -> DataCentricPipeline:
    """Inference + data-movement reduction (§6.1 and §6.2, the -O1 set)."""
    from .array_elimination import ArrayElimination
    from .dead_code import (
        DeadDataflowElimination,
        DeadStateElimination,
        RedundantIterationElimination,
    )
    from .memlet_consolidation import MemletConsolidation
    from .state_fusion import StateFusion
    from .symbol_passes import ScalarToSymbolPromotion, SymbolPropagation
    from .tasklet_fusion import TaskletFusion
    from .wcr_detection import AugAssignToWCR

    return DataCentricPipeline(
        [
            ScalarToSymbolPromotion(),
            SymbolPropagation(),
            StateFusion(),
            TaskletFusion(),
            AugAssignToWCR(),
            DeadStateElimination(),
            DeadDataflowElimination(),
            RedundantIterationElimination(),
            ArrayElimination(),
            MemletConsolidation(),
        ],
        max_iterations=max_iterations,
    )


def memory_scheduling_pipeline() -> DataCentricPipeline:
    """Memory scheduling optimizations (§6.3, the -O2 set)."""
    from .map_transforms import LoopToMap, MapFusion
    from .memory_allocation import MemoryPreAllocation, StackPromotion

    return DataCentricPipeline(
        [
            StackPromotion(),
            MemoryPreAllocation(),
            LoopToMap(),
            MapFusion(),
        ],
        max_iterations=2,
    )


def data_centric_pipeline() -> DataCentricPipeline:
    """The full data-centric half of DCIR: simplify (-O1) then schedule (-O2)."""
    simplify = simplification_pipeline()
    schedule = memory_scheduling_pipeline()
    return DataCentricPipeline(simplify.passes + schedule.passes, max_iterations=3)
