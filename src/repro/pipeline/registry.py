"""The pipeline registry and the six pre-registered paper pipelines.

Pipelines are first-class :class:`~repro.pipeline.spec.PipelineSpec` values
registered by name.  The six compositions compared in the paper's
evaluation (§7) ship pre-registered — ``gcc``, ``clang``, ``dace``,
``mlir``, ``dcir``, ``dcir+vec`` — and user code can add its own with
:func:`register_pipeline` (ablations, new pass orderings,
workload-specific pipelines) without touching library internals.

:data:`PIPELINES` is a live, ordered view over the registered names, kept
for backwards compatibility with the original string-tuple API: iteration,
membership, indexing and ``len`` all reflect the current registry contents.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence

from ..errors import PipelineError
from ..passbase import suggest
from .spec import CodegenOptions, PassSpec, PipelineLike, PipelineSpec

_REGISTRY: "OrderedDict[str, PipelineSpec]" = OrderedDict()


def register_pipeline(spec: PipelineSpec, overwrite: bool = False) -> PipelineSpec:
    """Register a named pipeline spec, making it addressable by string.

    The spec must carry a ``name``.  Re-registering an existing name raises
    unless ``overwrite=True``; the six paper pipelines can be overwritten
    like any other entry (but the determinism guarantees then no longer
    apply to the replaced name).

    The registry stores the spec itself: a spec is a value, so nothing can
    later rewrite what the name means (or its cache identity).
    """
    if not spec.name:
        raise PipelineError(
            "Cannot register an anonymous pipeline spec (name it: spec.derive(name=...))"
        )
    if spec.name in _REGISTRY and not overwrite:
        raise PipelineError(
            f"Pipeline {spec.name!r} is already registered; pass overwrite=True to replace it"
        )
    _REGISTRY[spec.name] = spec.validate()
    return spec


def unregister_pipeline(name: str) -> Optional[PipelineSpec]:
    """Remove a registered pipeline; returns the removed spec (or None)."""
    return _REGISTRY.pop(name, None)


def get_pipeline(name: str) -> PipelineSpec:
    """Fetch a registered pipeline spec by name.

    Unknown names raise :class:`PipelineError` listing every *currently*
    registered pipeline (including user-registered ones) and suggesting the
    closest match.  The returned spec is the registered value itself; build
    ablations by deriving from it (``derive``, ``without_pass``,
    ``with_passes``, ``with_codegen``).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PipelineError(
            f"Unknown pipeline {name!r}; "
            + suggest(name, list(_REGISTRY), "registered pipelines")
        ) from None


def list_pipelines() -> List[str]:
    """Names of all registered pipelines, in registration order."""
    return list(_REGISTRY)


def resolve_pipeline(pipeline: PipelineLike) -> PipelineSpec:
    """Coerce a pipeline designator (registered name or spec) into a spec."""
    if isinstance(pipeline, PipelineSpec):
        return pipeline
    if isinstance(pipeline, str):
        return get_pipeline(pipeline)
    raise PipelineError(
        f"Expected a pipeline name or PipelineSpec, got {type(pipeline).__name__}"
    )


class _PipelineView(Sequence):
    """Live, ordered, read-only view over the registered pipeline names."""

    def __iter__(self):
        return iter(list(_REGISTRY))

    def __len__(self) -> int:
        return len(_REGISTRY)

    def __getitem__(self, index):
        return list(_REGISTRY)[index]

    def __contains__(self, name) -> bool:
        return name in _REGISTRY

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _PipelineView)):
            return list(_REGISTRY) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(_REGISTRY))

    def __add__(self, other):
        return tuple(_REGISTRY) + tuple(other)

    def __radd__(self, other):
        return tuple(other) + tuple(_REGISTRY)

    def __repr__(self) -> str:
        return f"PIPELINES{tuple(_REGISTRY)!r}"


#: The six pipeline compositions of the paper's evaluation — a fixed
#: snapshot, unaffected by later registrations (the default sweep set).
PAPER_PIPELINES = ("gcc", "clang", "dace", "mlir", "dcir", "dcir+vec")

#: Registered pipeline names — a live view over the registry (historically
#: a hard-coded six-element tuple).
PIPELINES = _PipelineView()


# -- the paper's six pipelines ---------------------------------------------------------

#: Canonical control-centric pass suite of §4, in pipeline order (the
#: registered names of :data:`repro.passes.CONTROL_PASSES`).
CONTROL_SUITE = (
    "inline",
    "canonicalize",
    "scalar-replacement",
    "cse",
    "licm",
    "dce",
    "memref-dce",
)

#: Canonical data-centric pass suite of §6 (simplify then schedule), in
#: pipeline order (the registered names of :data:`repro.transforms.DATA_PASSES`).
DATA_SUITE = (
    "state-fusion",
    "tasklet-fusion",
    "augassign-to-wcr",
    "dead-state-elimination",
    "dead-dataflow-elimination",
    "redundant-iteration-elimination",
    "array-elimination",
    "stack-promotion",
    "memory-preallocation",
    "loop-to-map",
    "map-fusion",
)


def paper_control_passes(include_memref_dce: bool = True) -> List[PassSpec]:
    """The §4 control-centric suite as pass specs (a fresh list)."""
    names = CONTROL_SUITE if include_memref_dce else CONTROL_SUITE[:-1]
    return [PassSpec(name) for name in names]


def paper_data_passes() -> List[PassSpec]:
    """The §6 data-centric suite as pass specs (a fresh list)."""
    return [PassSpec(name) for name in DATA_SUITE]


def _register_paper_pipelines() -> None:
    native = CodegenOptions(native_scalars=True, preallocate=True)
    polygeist = CodegenOptions(native_scalars=False, preallocate=False)
    register_pipeline(PipelineSpec(
        name="gcc",
        description="Full control-centric suite, native-style MLIR codegen",
        control_passes=paper_control_passes(),
        codegen=native,
    ))
    register_pipeline(PipelineSpec(
        name="clang",
        description="Control-centric suite minus memref-DCE, native-style MLIR codegen",
        control_passes=paper_control_passes(include_memref_dce=False),
        codegen=native,
    ))
    register_pipeline(PipelineSpec(
        name="dace",
        description="No control-centric passes (coarse view), full §6 set, SDFG codegen",
        bridge=True,
        data_passes=paper_data_passes(),
    ))
    register_pipeline(PipelineSpec(
        name="mlir",
        description="Full control-centric suite, Polygeist-style MLIR codegen",
        control_passes=paper_control_passes(),
        codegen=polygeist,
    ))
    register_pipeline(PipelineSpec(
        name="dcir",
        description="Full control-centric suite, bridge, full §6 set, SDFG codegen",
        control_passes=paper_control_passes(),
        bridge=True,
        data_passes=paper_data_passes(),
    ))
    register_pipeline(PipelineSpec(
        name="dcir+vec",
        description="As dcir, with vectorized maps",
        control_passes=paper_control_passes(),
        bridge=True,
        data_passes=paper_data_passes(),
        codegen=CodegenOptions(vectorize=True),
    ))


_register_paper_pipelines()
