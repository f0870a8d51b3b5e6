"""Control-centric passes, the pass manager and the pass registry.

The standard pipelines (``gcc``, ``clang``, ``mlir`` and the MLIR half of
``dcir``) are assembled from these passes; see
:func:`control_centric_pipeline` for the canonical ordering used by the
paper's §4 conversion pipeline.  Passes are also registered by name in
:data:`CONTROL_PASSES` so declarative pipeline specs
(:class:`repro.pipeline.PipelineSpec`) can reference them.
"""

from .canonicalize import Canonicalize, constant_value
from .cse import CommonSubexpressionElimination
from .dce import DeadCodeElimination
from .inlining import Inlining
from .licm import LoopInvariantCodeMotion
from .memref_dce import DeadMemoryElimination
from .pass_manager import Pass, PassManager
from .registry import CONTROL_PASSES, list_control_passes, register_control_pass
from .scalar_replacement import ScalarReplacement


def control_centric_pipeline(
    include_memref_dce: bool = True, max_iterations: int = 3
) -> PassManager:
    """The control-centric pass suite of §4: inlining, canonicalization,
    scalar replacement, CSE, LICM and DCE, iterated to a fixed point."""
    passes = [
        Inlining(),
        Canonicalize(),
        ScalarReplacement(),
        CommonSubexpressionElimination(),
        LoopInvariantCodeMotion(),
        DeadCodeElimination(),
    ]
    if include_memref_dce:
        passes.append(DeadMemoryElimination())
    return PassManager(passes, max_iterations=max_iterations)


__all__ = [
    "CONTROL_PASSES",
    "Canonicalize",
    "CommonSubexpressionElimination",
    "DeadCodeElimination",
    "DeadMemoryElimination",
    "Inlining",
    "LoopInvariantCodeMotion",
    "Pass",
    "PassManager",
    "ScalarReplacement",
    "constant_value",
    "control_centric_pipeline",
    "list_control_passes",
    "register_control_pass",
]
