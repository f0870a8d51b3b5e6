"""Pass base class for the MLIR-like IR.

A thin layer over the unified infrastructure in :mod:`repro.passbase`:
:class:`Pass` keeps the MLIR-flavoured ``run_on_module`` hook name; runs
report the shared :class:`~repro.passbase.StageReport`.
"""

from __future__ import annotations

from ..ir.core import Operation
from ..passbase import PassBase


class Pass(PassBase):
    """Base class for control-centric IR passes."""

    def run(self, target: Operation) -> bool:
        return self.run_on_module(target)

    def run_on_module(self, module: Operation) -> bool:
        """Transform ``module`` in place; return True if anything changed."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.name}>"
