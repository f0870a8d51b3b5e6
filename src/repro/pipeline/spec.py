"""Declarative pipeline specifications.

A :class:`PipelineSpec` is a first-class, serializable description of one
complete compilation pipeline — the paper's central claim that
control-centric and data-centric optimization are *composable* stages made
into a value:

* frontend options (keyword arguments of
  :func:`repro.frontend.compile_c_to_mlir`),
* an ordered list of control-centric passes by registered name
  (:data:`repro.passes.CONTROL_PASSES`), each with per-pass options,
* whether to cross the MLIR → SDFG *bridge* (Fig. 4's hand-off point),
* an ordered list of data-centric passes by registered name
  (:data:`repro.transforms.DATA_PASSES`),
* codegen options (``native_scalars``/``preallocate`` for the MLIR
  backend, ``vectorize`` for the SDFG backend).

Specs serialize to plain JSON-stable dictionaries (:meth:`PipelineSpec.to_dict`
/ :meth:`PipelineSpec.from_dict`); the *canonical* serialization — every
field except the display name and description — is the content identity
used by the compile cache, so two specs describing the same compilation
share a cache entry regardless of what they are called, and any change to
the pass list, pass options or codegen flags produces a new content
address.

Specs are values.  :class:`PipelineSpec`, :class:`PassSpec` and
:class:`CodegenOptions` are frozen dataclasses, pass lists are tuples, and
pass parameters and frontend options are read-only ``dict``/``list``
subclasses: every edit raises ``TypeError`` (or
``dataclasses.FrozenInstanceError``).  A variant is derived instead —
:meth:`PipelineSpec.derive`, :meth:`~PipelineSpec.with_passes`,
:meth:`~PipelineSpec.with_codegen`, :meth:`PassSpec.with_params` or
``dataclasses.replace``.  A spec that cannot change serializes once: its
cache-key JSON, :meth:`~PipelineSpec.canonical_json` and
:meth:`~PipelineSpec.content_id` are computed on first use and kept, and
specs, passes and options are shared rather than copied.

Every public entry point (``compile_c``, ``generate_program``,
``CompileCache.get_or_compile``, ``compile_many``, ``Session``) accepts a
registered pipeline name *or* a spec; :func:`pipeline_label` maps either to
a display string.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from ..errors import PipelineError
from ..passes import CONTROL_PASSES
from ..transforms import DATA_PASSES


def _refuse(self, *args, **kwargs):
    raise TypeError(
        "Pipeline spec options are read-only: derive a new spec (derive, "
        "with_passes, with_codegen, PassSpec.with_params) instead of editing one"
    )


class _FrozenDict(dict):
    """A ``dict`` that refuses edits; equal to, and serialized as, a plain one."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # Pickle and deepcopy would otherwise refill the copy item by item.
        return _FrozenDict, (dict(self),)


class _FrozenList(list):
    """A ``list`` that refuses edits; equal to, and serialized as, a plain one."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse

    def __reduce__(self):
        return _FrozenList, (list(self),)


def _freeze(value):
    """``value`` with every dict and list in it (at any depth) read-only."""
    if isinstance(value, (_FrozenDict, _FrozenList)):
        return value  # frozen all the way down when built
    if isinstance(value, Mapping):
        return _FrozenDict({key: _freeze(item) for key, item in value.items()})
    if isinstance(value, list):
        return _FrozenList([_freeze(item) for item in value])
    if type(value) is tuple:
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value):
    """Plain ``dict``/``list`` copies of a frozen value, for serialized output."""
    if isinstance(value, dict):
        return {key: _thaw(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_thaw(item) for item in value]
    if type(value) is tuple:
        return tuple(_thaw(item) for item in value)
    return value


def _options(options) -> _FrozenDict:
    """An options mapping (or ``None``) as a read-only dict."""
    return options if isinstance(options, _FrozenDict) else _freeze(dict(options or {}))


@dataclass(frozen=True)
class PassSpec:
    """One pass invocation inside a spec: a registered name plus parameters.

    ``params`` are passed to the pass constructor as keyword arguments
    when the pipeline is built — for pattern-based transformations these
    are the tunable transformation parameters (``tile_size``, ``n_threads``,
    ``max_elements``, plus the universal ``only_matches`` /
    ``max_applications``).  They are part of the canonical serialization,
    so a parameter change produces a new spec ``content_id`` (and hence a
    new compile-cache address).  They are read-only: :meth:`with_params`
    derives a pass with other values.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", _options(self.params))

    @classmethod
    def of(cls, item: "PassLike") -> "PassSpec":
        """Coerce a name, ``(name, params)`` pair or dict into a spec.

        A spec is returned as it is.  A mapping may carry only ``name`` and
        ``params``: any other key (a typo'd ``"parms"``) would otherwise
        build the pass with default parameters and content-alias the
        default spec in the compile cache.
        """
        if isinstance(item, PassSpec):
            return item
        if isinstance(item, str):
            return cls(name=item)
        if isinstance(item, Mapping):
            unknown = sorted(set(item) - {"name", "params"})
            if unknown:
                raise PipelineError(
                    f"Unknown key {unknown[0]!r} in pass specification {dict(item)!r}; "
                    "accepted keys: 'name', 'params'"
                )
            return cls(name=item["name"], params=item.get("params"))
        if isinstance(item, Sequence) and len(item) == 2:
            return cls(name=item[0], params=item[1])
        raise PipelineError(f"Cannot interpret {item!r} as a pass specification")

    def with_params(self, **params) -> "PassSpec":
        """A spec with some parameters replaced (a tuning-axis step)."""
        return replace(self, params={**self.params, **params})

    def to_dict(self) -> Dict:
        return {"name": self.name, "params": _thaw(self.params)}


PassLike = Union[PassSpec, str, Mapping, Sequence]


@dataclass(frozen=True)
class CodegenOptions:
    """Backend code-generation options.

    ``native_scalars`` and ``preallocate`` affect the MLIR (control-centric)
    backend; ``vectorize`` affects the C the SDFG (data-centric) backend
    emits — interpreted, every map that is an array expression already is
    one.  Options not applicable to the selected backend are ignored.

    ``backend`` selects how data-centric pipelines *execute*: ``"python"``
    (the interpreted backend) or ``"native"`` (C emitted by
    :mod:`repro.codegen.sdfg_c`, compiled with the system compiler and
    timed as real machine code).  Pipelines that never cross the bridge
    have no SDFG to lower, so ``"native"`` falls back to ``"python"``
    with a diagnostic — as it does on machines without a C compiler.
    """

    native_scalars: bool = False
    preallocate: bool = False
    vectorize: bool = False
    backend: str = "python"

    def __post_init__(self):
        if self.backend not in ("python", "native"):
            raise PipelineError(
                f"Unknown codegen backend {self.backend!r}; choose 'python' or 'native'"
            )

    def to_dict(self) -> Dict:
        return {
            "native_scalars": bool(self.native_scalars),
            "preallocate": bool(self.preallocate),
            "vectorize": bool(self.vectorize),
            "backend": str(self.backend),
        }

    @classmethod
    def from_dict(cls, data: Optional[Mapping]) -> "CodegenOptions":
        data = data or {}
        return cls(
            native_scalars=bool(data.get("native_scalars", False)),
            preallocate=bool(data.get("preallocate", False)),
            vectorize=bool(data.get("vectorize", False)),
            backend=str(data.get("backend", "python")),
        )


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of one complete compilation pipeline (a value)."""

    name: Optional[str] = None
    description: str = ""
    frontend_options: Mapping[str, object] = field(default_factory=dict)
    control_passes: Tuple[PassSpec, ...] = ()
    control_max_iterations: int = 3
    bridge: bool = False
    data_passes: Tuple[PassSpec, ...] = ()
    data_max_iterations: int = 3
    codegen: CodegenOptions = field(default_factory=CodegenOptions)

    def __post_init__(self):
        # Coerce every field into its read-only form; fields of a spec this
        # one was derived from are frozen already and kept as they are.
        object.__setattr__(self, "frontend_options", _options(self.frontend_options))
        object.__setattr__(self, "control_passes", tuple(map(PassSpec.of, self.control_passes)))
        object.__setattr__(self, "data_passes", tuple(map(PassSpec.of, self.data_passes)))
        if isinstance(self.codegen, Mapping):
            object.__setattr__(self, "codegen", CodegenOptions.from_dict(self.codegen))
        if self.data_passes and not self.bridge:
            raise PipelineError(
                "A pipeline with data-centric passes must set bridge=True "
                "(data-centric passes run on the SDFG IR behind the bridge)"
            )

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Full JSON-stable serialization (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "description": self.description,
            **self.cache_basis(),
        }

    def cache_basis(self) -> Dict:
        """Canonical content identity: everything except name/description.

        This is the cache-key basis — a registered name and an equivalent
        anonymous spec content-address identically, while any change to
        passes, options or codegen flags yields a different address.
        Its containers are plain dicts and lists.
        """
        return _thaw(self._basis())

    def _basis(self) -> Dict:
        return {
            "frontend": self.frontend_options,
            "control_passes": [{"name": p.name, "params": p.params} for p in self.control_passes],
            "control_max_iterations": int(self.control_max_iterations),
            "bridge": bool(self.bridge),
            "data_passes": [{"name": p.name, "params": p.params} for p in self.data_passes],
            "data_max_iterations": int(self.data_max_iterations),
            "codegen": self.codegen.to_dict(),
        }

    @cached_property
    def cache_basis_json(self) -> str:
        """:meth:`cache_basis` as ``json.dumps(..., sort_keys=True)`` text.

        Computed once per spec; ``cache_key`` splices it into the request's
        key text.
        """
        return json.dumps(self._basis(), sort_keys=True)

    @cached_property
    def _canonical_json(self) -> str:
        return json.dumps(self._basis(), sort_keys=True, separators=(",", ":"))

    @cached_property
    def _content_id(self) -> str:
        return hashlib.sha256(self._canonical_json.encode("utf-8")).hexdigest()

    def canonical_json(self) -> str:
        """Compact sorted-key JSON of :meth:`cache_basis` (computed once)."""
        return self._canonical_json

    def content_id(self) -> str:
        """SHA-256 of the canonical serialization (stable across processes)."""
        return self._content_id

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineSpec":
        if not isinstance(data, Mapping):
            raise PipelineError(
                f"A pipeline spec must deserialize from a mapping, got {type(data).__name__}"
            )
        return cls(
            name=data.get("name"),
            description=data.get("description", ""),
            frontend_options=data.get("frontend"),
            control_passes=data.get("control_passes") or (),
            control_max_iterations=int(data.get("control_max_iterations", 3)),
            bridge=bool(data.get("bridge", False)),
            data_passes=data.get("data_passes") or (),
            data_max_iterations=int(data.get("data_max_iterations", 3)),
            codegen=CodegenOptions.from_dict(data.get("codegen")),
        )

    # -- convenience -----------------------------------------------------------------
    @property
    def label(self) -> str:
        """Display name: the registered name, or a content-derived tag."""
        return self.name or f"custom-{self.content_id()[:12]}"

    def derive(self, **changes) -> "PipelineSpec":
        """A spec with fields replaced — the ablation/sweep building block.

        Unless explicitly overridden, it is anonymous (name and description
        cleared): a derived pipeline is a *different* pipeline and must
        not content-alias its parent's registered name.
        """
        changes.setdefault("name", None)
        changes.setdefault("description", "")
        return replace(self, **changes)

    def without_pass(self, pass_name: str, **changes) -> "PipelineSpec":
        """Ablation helper: a derived spec with every ``pass_name`` removed.

        Raises :class:`PipelineError` when the spec contains no such pass —
        a typo'd ablation would otherwise content-alias its parent and
        silently report the parent's (cached) results under its own label.
        """
        control = [p for p in self.control_passes if p.name != pass_name]
        data = [p for p in self.data_passes if p.name != pass_name]
        if len(control) == len(self.control_passes) and len(data) == len(self.data_passes):
            from ..passbase import suggest

            present = [p.name for p in self.control_passes + self.data_passes]
            raise PipelineError(
                f"Pipeline {self.label!r} contains no pass {pass_name!r}; "
                + suggest(pass_name, present, "passes in this pipeline")
            )
        return self.derive(control_passes=control, data_passes=data, **changes)

    def with_codegen(self, **options) -> "PipelineSpec":
        """Derived spec with some codegen flags replaced (an option sweep step).

        Unknown option names raise :class:`PipelineError` — a typo'd flag
        would otherwise content-alias the parent and silently re-report its
        (cached) results.
        """
        known = self.codegen.to_dict()
        for name in options:
            if name not in known:
                from ..passbase import suggest

                raise PipelineError(
                    f"Unknown codegen option {name!r}; "
                    + suggest(name, list(known), "codegen options")
                )
        known.update(options)
        return self.derive(codegen=CodegenOptions.from_dict(known))

    def with_passes(self, stage: str, passes: Sequence["PassLike"], **changes) -> "PipelineSpec":
        """Derived spec with one stage's pass list replaced.

        ``stage`` is ``"control"`` or ``"data"`` — the two pass stages of
        the paper's composition (§4 / §6).
        """
        if stage == "control":
            return self.derive(control_passes=list(passes), **changes)
        if stage == "data":
            return self.derive(data_passes=list(passes), **changes)
        raise PipelineError(f"Unknown pass stage {stage!r}; choose 'control' or 'data'")

    def stage_passes(self, stage: str) -> Tuple[PassSpec, ...]:
        """The passes of one stage, by stage name."""
        if stage == "control":
            return self.control_passes
        if stage == "data":
            return self.data_passes
        raise PipelineError(f"Unknown pass stage {stage!r}; choose 'control' or 'data'")

    def swap_passes(self, stage: str, first: int, second: int, **changes) -> "PipelineSpec":
        """Derived spec with two passes of one stage exchanged (a reordering).

        Indices follow Python semantics (negatives count from the end);
        out-of-range indices raise :class:`PipelineError`.
        """
        passes = list(self.stage_passes(stage))
        try:
            passes[first], passes[second] = passes[second], passes[first]
        except IndexError:
            raise PipelineError(
                f"Pass indices ({first}, {second}) out of range for the "
                f"{stage} stage of {self.label!r} ({len(passes)} passes)"
            ) from None
        return self.with_passes(stage, passes, **changes)

    def validate(self) -> "PipelineSpec":
        """Check pass names against the registries; raise :class:`PipelineError`.

        Called by ``generate_program`` before any compilation stage runs so
        misspelled pass names fail fast with a closest-match suggestion.
        """
        for pass_spec in self.control_passes:
            CONTROL_PASSES.get(pass_spec.name)
        for pass_spec in self.data_passes:
            DATA_PASSES.get(pass_spec.name)
        if self.control_max_iterations < 1 or self.data_max_iterations < 1:
            raise PipelineError("max_iterations fields must be >= 1")
        passes = self.control_passes + self.data_passes
        try:
            # Only the option dicts can hold arbitrary values; dumping the
            # non-empty ones alone rejects exactly what canonical_json would.
            for options in (self.frontend_options, *(p.params for p in passes)):
                if options:
                    json.dumps(options, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise PipelineError(
                "Pipeline options must be JSON-serializable (they form the "
                f"cache key and the on-disk payload): {exc}"
            ) from exc
        return self


#: Anything the public entry points accept as a pipeline designator.
PipelineLike = Union[str, PipelineSpec]


def pipeline_label(pipeline: PipelineLike) -> str:
    """Display label of a pipeline name or spec."""
    return pipeline if isinstance(pipeline, str) else pipeline.label
