"""Pass infrastructure for the MLIR-like IR.

A thin layer over the unified infrastructure in :mod:`repro.passbase`:
:class:`Pass` keeps the MLIR-flavoured ``run_on_module`` hook name and
:class:`PassManager` the ``verify_each`` convenience; runs report the
shared :class:`~repro.passbase.StageReport`.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.core import Operation
from ..ir.verifier import verify
from ..passbase import PassBase, PassRunner


class Pass(PassBase):
    """Base class for control-centric IR passes."""

    def run(self, target: Operation) -> bool:
        return self.run_on_module(target)

    def run_on_module(self, module: Operation) -> bool:
        """Transform ``module`` in place; return True if anything changed."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.name}>"


class PassManager(PassRunner):
    """Runs an ordered sequence of passes over a module."""

    def __init__(
        self,
        passes: Sequence[Pass],
        verify_each: bool = False,
        max_iterations: int = 1,
    ):
        super().__init__(
            passes,
            max_iterations=max_iterations,
            validate=verify if verify_each else None,
            stage="control",
        )

    @property
    def verify_each(self) -> bool:
        return self.validate is not None
