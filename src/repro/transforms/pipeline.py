"""The data-centric pass base class.

A thin layer over the unified infrastructure in :mod:`repro.passbase`:
:class:`DataCentricPass` keeps the DaCe-flavoured ``apply`` hook name.

``DataCentricPass`` is the *whole-graph* contract: ``apply(sdfg) -> bool``
transforms in place and reports whether anything changed.  Every shipped
pass is the richer pattern-based
:class:`~repro.transforms.rewrite.Transformation` subclass of it, which
splits that into ``match(sdfg) -> list[Match]`` (deterministic site
enumeration) and ``apply_match(sdfg, match)`` (one-site rewrite with
revalidation), with ``apply`` as the match-draining driver; write a plain
``DataCentricPass`` only when a rewrite genuinely has no site structure.
The :class:`~repro.passbase.PassRunner` treats both identically, but
pattern-based passes additionally report per-run match/application counts
on their :class:`~repro.passbase.PassRecord`.

The ordered §6 suite is :data:`repro.pipeline.DATA_SUITE`, and
:func:`repro.pipeline.data_runner` builds the runner a spec names.
"""

from __future__ import annotations

from ..passbase import PassBase
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
