"""The pipeline search space: candidate specs derived from a base pipeline.

The paper's evaluation (§7) compares six *fixed* pipeline compositions;
the interesting space is between them — which pass ablations, orderings
and codegen options actually win per kernel.  A :class:`SearchSpace`
enumerates that neighbourhood of a base :class:`~repro.PipelineSpec`:

* **seeds** — the base spec itself and (optionally) every registered
  pipeline, so a search can never do worse than the best pre-registered
  composition under the chosen evaluator;
* **ablations** — ``base.without_pass(name)`` for every pass in the spec
  (the §6.3-style single-pass ablation study);
* **reorderings** — adjacent-pass swaps within each stage (pass order
  *within* a stage is the free variable; the control → bridge → data
  stage order is the paper's fixed architecture);
* **iteration variants** — running a stage's fixpoint loop only once;
* **codegen variants** — toggling the backend's
  :class:`~repro.CodegenOptions` flags (only the flags that affect the
  spec's selected backend, so every candidate is a *distinct* compilation);
* **parameter variants** — for every data pass whose transformation class
  declares tunable :attr:`~repro.transforms.Transformation.PARAMS` axes,
  each preset value of each parameter (``param:stack-promotion:
  max_elements=1024``);
* **additions** — appending an ``ADDABLE`` parameterized scheduling
  transform the spec lacks (``MapTiling``, ``MapInterchange``,
  ``MapCollapse``) with each preset of its primary parameter — the
  tiled/interchanged/collapsed schedules the paper's evaluation
  hand-picks;
* **match-limit variants** — capping a pattern-based pass at one
  application (``max_applications=1``), the coarse form of per-match
  enable subsets (``only_matches`` remains available through explicit
  pass params);
* **schedule variants** — appending the ``parallelize`` pass
  (``schedule:parallel``, ``schedule:parallel(n_threads=N)``), the
  parallel-schedule axis of a native spec.  ``Parallelize`` is
  deliberately excluded from the generic addition axis: a schedule is a
  *request* the safety proof may refuse, so it gets its own origin family
  with an explicit thread-count sweep instead of being enumerated like a
  rewrite.

Candidates are deduplicated by spec :meth:`~repro.PipelineSpec.content_id`
and enumerated in a deterministic order — the foundation of the seeded,
byte-reproducible searches in :mod:`repro.tuning.strategy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..errors import PipelineError
from ..pipeline import resolve_pipeline
from ..pipeline.spec import PipelineLike, PipelineSpec

#: Mutation stages a :class:`SearchSpace` can vary, in generation order.
STAGES = ("control", "data", "codegen")


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a spec plus its provenance.

    ``origin`` says how the candidate was derived (``"base"``,
    ``"registered:gcc"``, ``"ablate:map-fusion"``, ``"swap:data:3"``,
    ``"codegen:vectorize=True"`` …) — reports keep it next to the spec's
    content address so rankings read as an ablation study.
    """

    spec: PipelineSpec
    origin: str
    content_id: str = field(default="")

    def __post_init__(self):
        if not self.content_id:
            object.__setattr__(self, "content_id", self.spec.content_id())

    @property
    def label(self) -> str:
        return self.spec.name or self.origin


class SearchSpace:
    """Deterministic candidate enumeration around a base pipeline spec."""

    def __init__(
        self,
        base: PipelineLike = "dcir",
        include_registered: bool = True,
        ablations: bool = True,
        reorderings: bool = True,
        iteration_variants: bool = True,
        codegen_variants: bool = True,
        parameter_variants: bool = True,
        additions: bool = True,
        limit_variants: bool = True,
        schedule_variants: bool = True,
    ):
        self.base = resolve_pipeline(base).validate()
        self.base_label = base if isinstance(base, str) else self.base.label
        self.include_registered = include_registered
        self.ablations = ablations
        self.reorderings = reorderings
        self.iteration_variants = iteration_variants
        self.codegen_variants = codegen_variants
        self.parameter_variants = parameter_variants
        self.additions = additions
        self.limit_variants = limit_variants
        self.schedule_variants = schedule_variants
        self._candidates: "List[Candidate] | None" = None

    # -- enumeration -----------------------------------------------------------------
    def candidates(self) -> List[Candidate]:
        """Every candidate: seeds first, then the base spec's neighbourhood.

        Deduplicated by content address (first origin wins) in a stable
        order, so the same registry state always yields the same list —
        seeded random sampling over it is reproducible across processes.

        Enumerating derives and content-hashes dozens of specs, so the
        result is computed once and cached: the space is a snapshot of the
        registry as of the first enumeration (pipelines registered later
        do not appear as seeds).
        """
        if self._candidates is None:
            self._candidates = _dedupe(list(self.seeds()) + self.neighbours(self.base))
        return list(self._candidates)

    def seeds(self) -> Iterable[Candidate]:
        """The base spec and (optionally) every registered pipeline."""
        yield Candidate(spec=self.base, origin="base")
        if not self.include_registered:
            return
        from ..pipeline import get_pipeline, list_pipelines

        for name in list_pipelines():
            yield Candidate(spec=get_pipeline(name), origin=f"registered:{name}")

    def neighbours(self, spec: PipelineSpec) -> List[Candidate]:
        """All single-step mutations of ``spec``, across every stage."""
        found: List[Candidate] = []
        for stage in STAGES:
            found.extend(self.stage_mutations(spec, stage))
        return _dedupe(found)

    def stage_mutations(self, spec: PipelineSpec, stage: str) -> List[Candidate]:
        """Single-step mutations touching only one stage of ``spec``.

        The greedy strategy optimizes stage by stage; exhaustive search
        concatenates all three stages via :meth:`neighbours`.
        """
        if stage == "codegen":
            return self._codegen_mutations(spec)
        if stage not in ("control", "data"):
            raise PipelineError(f"Unknown search stage {stage!r}; choose one of {STAGES}")
        found: List[Candidate] = []
        passes = spec.stage_passes(stage)
        if self.ablations:
            seen: set = set()
            for pass_spec in passes:
                if pass_spec.name in seen:
                    continue  # without_pass removes every occurrence
                seen.add(pass_spec.name)
                found.append(Candidate(
                    spec=spec.without_pass(pass_spec.name),
                    origin=f"ablate:{pass_spec.name}",
                ))
        if self.reorderings:
            for index in range(len(passes) - 1):
                found.append(Candidate(
                    spec=spec.swap_passes(stage, index, index + 1),
                    origin=f"swap:{stage}:{passes[index].name}<->{passes[index + 1].name}",
                ))
        if self.iteration_variants and passes:
            field_name = f"{stage}_max_iterations"
            if getattr(spec, field_name) != 1:
                found.append(Candidate(
                    spec=spec.derive(**{field_name: 1}),
                    origin=f"iterations:{stage}=1",
                ))
        if stage == "data":
            if self.parameter_variants:
                found.extend(self._parameter_variants(spec))
            if self.limit_variants:
                found.extend(self._limit_variants(spec))
            if self.additions:
                found.extend(self._additions(spec))
            if self.schedule_variants:
                found.extend(self._schedule_variants(spec))
        return found

    # -- transformation-parameter axes -------------------------------------------------
    def _parameter_variants(self, spec: PipelineSpec) -> List[Candidate]:
        """Preset sweeps for every declared parameter of present data passes."""
        from ..transforms import DATA_PASSES
        from ..transforms.rewrite import Transformation, transformation_parameters

        found: List[Candidate] = []
        for index, pass_spec in enumerate(spec.data_passes):
            cls = DATA_PASSES.get(pass_spec.name)
            if not issubclass(cls, Transformation) or not cls.PARAMS:
                continue
            defaults = transformation_parameters(cls)
            for param, presets in cls.PARAMS.items():
                current = pass_spec.params.get(param, defaults.get(param))
                for value in presets:
                    if value == current:
                        continue  # identical compilation, wasted candidate
                    passes = list(spec.data_passes)
                    passes[index] = pass_spec.with_params(**{param: value})
                    found.append(Candidate(
                        spec=spec.with_passes("data", passes),
                        origin=f"param:{pass_spec.name}:{param}={value}",
                    ))
        return found

    def _limit_variants(self, spec: PipelineSpec) -> List[Candidate]:
        """Cap each pattern-based data pass at a single application."""
        from ..transforms import DATA_PASSES
        from ..transforms.rewrite import Transformation

        found: List[Candidate] = []
        for index, pass_spec in enumerate(spec.data_passes):
            cls = DATA_PASSES.get(pass_spec.name)
            if not issubclass(cls, Transformation):
                continue
            if pass_spec.params.get("max_applications") == 1:
                continue
            passes = list(spec.data_passes)
            passes[index] = pass_spec.with_params(max_applications=1)
            found.append(Candidate(
                spec=spec.with_passes("data", passes),
                origin=f"limit:{pass_spec.name}=1",
            ))
        return found

    def _additions(self, spec: PipelineSpec) -> List[Candidate]:
        """Append absent ADDABLE scheduling transforms, one preset per candidate."""
        from ..transforms import DATA_PASSES
        from ..transforms.rewrite import Transformation

        if not spec.bridge:
            return []  # scheduling transforms act on the SDFG side only
        present = {pass_spec.name for pass_spec in spec.data_passes}
        found: List[Candidate] = []
        for name in DATA_PASSES.names():
            cls = DATA_PASSES.get(name)
            if not issubclass(cls, Transformation) or not cls.ADDABLE:
                continue
            if name in present:
                continue
            variants: List[Dict] = [{}]
            if cls.PARAMS:
                primary, presets = next(iter(cls.PARAMS.items()))
                variants = [{primary: value} for value in presets]
            for params in variants:
                passes = list(spec.data_passes) + [(name, params)]
                label = ", ".join(f"{k}={v}" for k, v in params.items())
                found.append(Candidate(
                    spec=spec.with_passes("data", passes),
                    origin=f"add:{name}({label})" if label else f"add:{name}",
                ))
        return found

    def _schedule_variants(self, spec: PipelineSpec) -> List[Candidate]:
        """The parallel-schedule axis: append the ``parallelize`` pass.

        One candidate per thread-count preset, plus the ``None`` preset
        (worker count resolved at run time from ``REPRO_NUM_THREADS`` or
        the machine).  Maps the safety proof refuses simply stay
        sequential, so every candidate is a valid compilation.  Offered
        only to native code: the interpreted backend does not read a
        schedule, so its candidate would be the base's code under a new
        content address.
        """
        from ..transforms import DATA_PASSES
        from ..transforms.parallelize import Parallelize

        if not spec.bridge or spec.codegen.backend != "native":
            return []  # schedules annotate SDFG maps, and only C reads them
        if Parallelize.NAME not in DATA_PASSES.names():
            return []
        if any(pass_spec.name == Parallelize.NAME for pass_spec in spec.data_passes):
            return []
        found: List[Candidate] = []
        for value in Parallelize.PARAMS.get("n_threads", (None,)):
            params = {} if value is None else {"n_threads": value}
            origin = (
                "schedule:parallel" if value is None
                else f"schedule:parallel(n_threads={value})"
            )
            passes = list(spec.data_passes) + [(Parallelize.NAME, params)]
            found.append(Candidate(
                spec=spec.with_passes("data", passes),
                origin=origin,
            ))
        return found

    def _codegen_mutations(self, spec: PipelineSpec) -> List[Candidate]:
        if not self.codegen_variants:
            return []
        # Only flags that reach the spec's backend: toggling an ignored
        # flag would create a new content address for a byte-identical
        # compilation (a wasted candidate).  Only C reads ``vectorize``.
        if not spec.bridge:
            flags = ("native_scalars", "preallocate")
        elif spec.codegen.backend == "native":
            flags = ("vectorize",)
        else:
            flags = ()
        found: List[Candidate] = []
        for flag in flags:
            value = not getattr(spec.codegen, flag)
            found.append(Candidate(
                spec=spec.with_codegen(**{flag: value}),
                origin=f"codegen:{flag}={value}",
            ))
        if spec.bridge and spec.codegen.backend != "native":
            from ..codegen.toolchain import have_compiler

            # The native-backend axis is only a real candidate on machines
            # that can build it; without a compiler it would execute the
            # identical interpreted program under a new content address.
            if have_compiler():
                found.append(Candidate(
                    spec=spec.with_codegen(backend="native"),
                    origin="codegen:backend=native",
                ))
        return found

    def __len__(self) -> int:
        return len(self.candidates())

    def __repr__(self) -> str:
        return (
            f"SearchSpace(base={self.base_label!r}, "
            f"candidates={len(self.candidates())})"
        )


def _dedupe(candidates: Iterable[Candidate]) -> List[Candidate]:
    """Drop content-duplicate candidates, keeping the first origin."""
    unique: Dict[str, Candidate] = {}
    for candidate in candidates:
        unique.setdefault(candidate.content_id, candidate)
    return list(unique.values())
