"""Pattern-based subgraph-rewrite engine for SDFG transformations.

The paper's central claim (§6) is that lifting control-centric IR into the
data-centric SDFG unlocks *graph transformations* — fusion, tiling,
parallelization — that flag-driven pass pipelines cannot express.  This
module makes those transformations first-class: instead of a monolithic
whole-graph ``apply(sdfg)``, a :class:`Transformation` separates

* **matching** — :meth:`Transformation.match` enumerates every site of the
  SDFG where the rewrite pattern occurs, as :class:`Match` values, in a
  deterministic order (state order, then node/container order), and
* **application** — :meth:`Transformation.apply_match` rewrites exactly one
  matched site in place, revalidating the pattern against the (possibly
  mutated) graph first and returning ``False`` for stale matches.

The pass-pipeline entry point ``apply(sdfg)`` is a *driver* over those two
hooks, selected by the class attribute :attr:`Transformation.DRAIN`:

* ``"sweep"`` — enumerate once, apply every match in order.  Matches are
  independent sites (container promotions, loop conversions, dead writes);
  each application revalidates, so matches invalidated by an earlier
  application in the same sweep are skipped, not mis-applied.
* ``"restart"`` — apply the first applicable match, then re-examine what
  the rewrite touched.  For cascading rewrites (state fusion, map fusion)
  where one application creates or destroys other sites.  After each
  application the drain asks :meth:`Transformation.rematch` for the match
  list as it now stands; the default re-enumerates the whole SDFG, which
  costs one full ``match`` per application.  A transformation whose
  rewrite has a bounded footprint overrides it and patches the previous
  list — state fusion does, turning a drain quadratic in the number of
  states into a linear one — and owes exactly the list a fresh ``match``
  would return, so nothing the drain reports or selects by index moves.
  A drain that is still rewriting after :attr:`Transformation.MAX_ROUNDS`
  applications raises :class:`~repro.errors.PipelineError` rather than
  hand back a half-rewritten graph.

Every run records how many sites matched and how many were rewritten
(:attr:`last_matches` / :attr:`last_applied`); the shared
:class:`~repro.passbase.PassRunner` copies the counts into the per-pass
:class:`~repro.passbase.PassRecord`, so compilation reports read as a
per-transformation ablation study (``python -m repro compile --verbose``).

Transformations are **parameterized**: constructor keyword arguments are
the parameters, declared for the auto-tuner via the class attribute
:attr:`Transformation.PARAMS` (parameter name → preset value axis).  Two
parameters are inherited by every transformation:

* ``only_matches`` — apply only the matches with these indices (indices
  into the deterministic enumeration order of each round), the per-match
  enable subset;
* ``max_applications`` — stop after this many applications per run.

Both serialize through :class:`~repro.pipeline.spec.PassSpec` params, feed
the spec's content address, and therefore key the compile cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import PipelineError
from ..sdfg import SDFG
from .pipeline import DataCentricPass


@dataclass
class Match:
    """One site of an SDFG where a transformation's pattern occurs.

    A match is a *description* plus the live graph objects needed to apply
    it: ``transformation``/``kind``/``where``/``subject`` are stable,
    JSON-safe strings identifying the site (printed by ``python -m repro
    transforms match``), while :attr:`payload` carries node/edge/loop
    references for :meth:`Transformation.apply_match` and is excluded from
    comparison and serialization.  ``index`` is the match's position in the
    deterministic enumeration order — the coordinate ``only_matches``
    selects by.
    """

    transformation: str
    kind: str
    where: str
    subject: str
    index: int = -1
    payload: Dict[str, object] = field(default_factory=dict, repr=False, compare=False)

    def describe(self) -> str:
        return f"{self.transformation} [{self.kind}] @ {self.where}: {self.subject}"

    def to_dict(self) -> Dict:
        """JSON-stable description (no live graph references)."""
        return {
            "transformation": self.transformation,
            "kind": self.kind,
            "where": self.where,
            "subject": self.subject,
            "index": self.index,
        }


class Transformation(DataCentricPass):
    """Base class for pattern-based SDFG rewrites (match/apply contract)."""

    #: Tunable constructor parameters and their preset axes for the
    #: auto-tuner: parameter name → tuple of candidate values.  The
    #: parameter's default comes from the constructor signature.
    PARAMS: Dict[str, tuple] = {}

    #: Whether the search space may propose *adding* this transformation to
    #: pipelines that lack it (only sensible for transforms that are not
    #: part of the standard §6 suite).
    ADDABLE = False

    #: Match-drain policy of ``apply(sdfg)``: ``"sweep"`` or ``"restart"``
    #: (see the module docstring).
    DRAIN = "sweep"

    #: Hard cap on restart rounds — a runaway guard far above any real
    #: cascade depth, so a buggy ``apply_match`` that keeps reporting
    #: progress ends in a ``PipelineError`` instead of looping forever.
    MAX_ROUNDS = 10_000

    def __init__(
        self,
        only_matches: Optional[Sequence[int]] = None,
        max_applications: Optional[int] = None,
    ):
        self.only_matches = list(only_matches) if only_matches is not None else None
        self._allowed = frozenset(self.only_matches) if only_matches is not None else None
        self.max_applications = max_applications
        #: Sites found by the first enumeration of the most recent run.
        self.last_matches = 0
        #: Sites successfully rewritten by the most recent run.
        self.last_applied = 0

    # -- the pattern contract (subclasses implement these two) -----------------------
    def match(self, sdfg: SDFG) -> List[Match]:
        """Enumerate every current site of the pattern, in deterministic order."""
        raise NotImplementedError

    def apply_match(self, sdfg: SDFG, match: Match) -> bool:
        """Rewrite one matched site in place.

        Must revalidate the pattern first (an earlier application in the
        same run may have invalidated it) and return ``False`` — without
        mutating anything — when the match is stale.
        """
        raise NotImplementedError

    def rematch(self, sdfg: SDFG, found: List[Match], applied: Match) -> List[Match]:
        """The match list as it stands after ``applied`` was rewritten.

        Called by the ``"restart"`` drain with ``found``, the complete
        enumeration ``applied`` was taken from.  The default re-enumerates.
        An override may patch ``found`` instead, re-examining only what the
        rewrite touched, under one obligation: the result must equal a
        fresh :meth:`match` — same sites, same order, same payload objects
        — because ``only_matches`` indices, the reported counts and the
        order of applications are all defined by that enumeration.
        """
        return self.match(sdfg)

    # -- enumeration helpers -----------------------------------------------------------
    def matches(self, sdfg: SDFG) -> List[Match]:
        """:meth:`match` with indices assigned in enumeration order."""
        return self._indexed(self.match(sdfg))

    def _indexed(self, found: List[Match]) -> List[Match]:
        for index, entry in enumerate(found):
            entry.index = index
            if not entry.transformation:
                entry.transformation = self.name
        return found

    def _selected(self, found: List[Match]) -> List[Match]:
        if self._allowed is None:
            return found
        return [entry for entry in found if entry.index in self._allowed]

    # -- the pass-pipeline driver ------------------------------------------------------
    def apply(self, sdfg: SDFG, match: Optional[Match] = None) -> bool:
        """Apply one given match, or drain all matches per :attr:`DRAIN`."""
        if match is not None:
            return bool(self.apply_match(sdfg, match))
        self.last_matches = 0
        self.last_applied = 0
        if self.DRAIN == "sweep":
            return self._drain_sweep(sdfg)
        if self.DRAIN == "restart":
            return self._drain_restart(sdfg)
        raise ValueError(f"Unknown drain policy {self.DRAIN!r} on {self.name}")

    def _budget_left(self) -> bool:
        return self.max_applications is None or self.last_applied < self.max_applications

    def _drain_sweep(self, sdfg: SDFG) -> bool:
        found = self.matches(sdfg)
        self.last_matches = len(found)
        changed = False
        for entry in self._selected(found):
            if not self._budget_left():
                break
            if self.apply_match(sdfg, entry):
                self.last_applied += 1
                changed = True
        return changed

    def _drain_restart(self, sdfg: SDFG) -> bool:
        found = self.matches(sdfg)
        self.last_matches = len(found)
        while self._budget_left():
            if self.last_applied == self.MAX_ROUNDS:  # one application per round
                raise PipelineError(
                    f"{self.name} did not converge: still rewriting after "
                    f"{self.MAX_ROUNDS} restart rounds"
                )
            applied = next(
                (entry for entry in self._selected(found) if self.apply_match(sdfg, entry)), None
            )
            if applied is None:
                break
            self.last_applied += 1
            found = self._indexed(self.rematch(sdfg, found, applied))
        return self.last_applied > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transformation {self.name}>"


def transformation_parameters(cls) -> Dict[str, object]:
    """Constructor-parameter defaults of a transformation class.

    Returns ``{parameter: default}`` for every declared :attr:`PARAMS`
    axis, read from the constructor signature — the value a
    :class:`~repro.pipeline.spec.PassSpec` without that param implies.
    """
    import inspect

    defaults: Dict[str, object] = {}
    signature = inspect.signature(cls.__init__)
    for name in getattr(cls, "PARAMS", {}):
        parameter = signature.parameters.get(name)
        defaults[name] = (
            parameter.default if parameter is not None
            and parameter.default is not inspect.Parameter.empty else None
        )
    return defaults
