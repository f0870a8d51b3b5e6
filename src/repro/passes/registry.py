"""Name-keyed registry of control-centric passes.

Declarative pipeline specs (:class:`repro.pipeline.PipelineSpec`) reference
control-centric passes by these names; :func:`repro.pipeline.registry`'s
pre-registered paper pipelines and any user-defined spec resolve through
this registry.  Registering a new pass makes it immediately usable in
specs — no library internals need editing (the point of the redesign).
"""

from __future__ import annotations

from ..passbase import PassRegistry
from .canonicalize import Canonicalize
from .cse import CommonSubexpressionElimination
from .dce import DeadCodeElimination
from .inlining import Inlining
from .licm import LoopInvariantCodeMotion
from .memref_dce import DeadMemoryElimination
from .scalar_replacement import ScalarReplacement

#: The control-centric (MLIR-side) pass registry.
CONTROL_PASSES = PassRegistry("control-centric")

for _cls in (
    Inlining,
    Canonicalize,
    ScalarReplacement,
    CommonSubexpressionElimination,
    LoopInvariantCodeMotion,
    DeadCodeElimination,
    DeadMemoryElimination,
):
    CONTROL_PASSES.register(_cls)


def register_control_pass(cls=None, *, name=None, overwrite=False):
    """Register a control-centric pass class (usable as a decorator)."""
    return CONTROL_PASSES.register(cls, name=name, overwrite=overwrite)
