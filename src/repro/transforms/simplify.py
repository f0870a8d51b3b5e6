"""The SDFG simplification pipeline (§6.1), exposed as ``sdfg.simplify()``.

Simplification is an idempotent process that repeatedly fuses control-flow
elements to enlarge pure dataflow regions and removes redundant memory —
the ``-O1``-equivalent step of the DaCe side of DCIR.
"""

from __future__ import annotations

from ..passbase import StageReport
from ..sdfg import SDFG
from .pipeline import simplification_pipeline


def simplify_sdfg(sdfg: SDFG, max_iterations: int = 4) -> StageReport:
    """Run the simplification pipeline on ``sdfg`` in place."""
    return simplification_pipeline(max_iterations=max_iterations).apply(sdfg)
