"""Control-centric passes and the pass registry.

The standard pipelines (``gcc``, ``clang``, ``mlir`` and the MLIR half of
``dcir``) are assembled from these passes, registered by name in
:data:`CONTROL_PASSES` so declarative pipeline specs
(:class:`repro.pipeline.PipelineSpec`) can reference them.  The canonical
ordering of the paper's §4 conversion pipeline is
:data:`repro.pipeline.CONTROL_SUITE`, and
:func:`repro.pipeline.control_runner` builds the runner a spec names.
"""

from .canonicalize import Canonicalize, constant_value
from .cse import CommonSubexpressionElimination
from .dce import DeadCodeElimination
from .inlining import Inlining
from .licm import LoopInvariantCodeMotion
from .memref_dce import DeadMemoryElimination
from .pass_manager import Pass
from .registry import CONTROL_PASSES, register_control_pass
from .scalar_replacement import ScalarReplacement

__all__ = [
    "CONTROL_PASSES",
    "Canonicalize",
    "CommonSubexpressionElimination",
    "DeadCodeElimination",
    "DeadMemoryElimination",
    "Inlining",
    "LoopInvariantCodeMotion",
    "Pass",
    "ScalarReplacement",
    "constant_value",
    "register_control_pass",
]
