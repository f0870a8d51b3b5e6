"""Stage-by-stage drive of one compile request, for the traced run.

``repro.generate_program`` runs frontend → control passes → (bridge → data
passes →) codegen in one call.  To time each layer without instrumenting
``src/``, the traced run makes the same public calls itself, one span per
layer.  The result carries the same three strings ``generate_program``
returns, and every workload asserts they are byte-identical to the real
pipeline's, so this file cannot drift from it unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from measure import Spans

from repro.codegen import NativeCodegenError, generate_c_code, generate_code, generate_mlir_code
from repro.conversion import mlir_to_sdfg
from repro.passbase import PassRunner, StageReport
from repro.passes import CONTROL_PASSES
from repro.pipeline import PipelineSpec
from repro.pipeline.pipelines import compile_frontend
from repro.transforms import DATA_PASSES


@dataclass
class Staged:
    """What one staged compile produced, plus the counts taken at each boundary."""

    code: str
    native_code: Optional[str] = None
    native_fallback: Optional[str] = None
    sdfg: object = None
    counts: Dict[str, int] = field(default_factory=dict)


def _applied(report: StageReport) -> int:
    """Rewrites a stage made: sites for pattern passes, else one per changing pass."""
    return sum(
        record.applied if record.applied is not None else int(record.changed)
        for record in report.records
    )


def _module_ops(module) -> int:
    return sum(1 for _ in module.walk())


def _sdfg_nodes(sdfg) -> int:
    return sum(state.number_of_nodes() for state in sdfg.states())


def staged_compile(spans: Spans, source, spec: PipelineSpec) -> Staged:
    """Compile ``source`` through ``spec`` one layer at a time (inside a ``request`` span)."""
    spec = spec.validate()
    is_c = isinstance(source, str)
    counts: Dict[str, int] = {}
    with spans.span("frontend" if is_c else "frontend_py"):
        module = compile_frontend(source, spec)
    counts["frontend.ops" if is_c else "frontend_py.ops"] = _module_ops(module)

    if spec.control_passes:
        runner = PassRunner(
            [CONTROL_PASSES.build(p.name, p.params) for p in spec.control_passes],
            max_iterations=spec.control_max_iterations, stage="control",
        )
        with spans.span("passes"):
            report = runner.run(module)
        counts["passes.applied"] = _applied(report)
        counts["passes.ops_after"] = _module_ops(module)

    if not spec.bridge:
        with spans.span("codegen.mlir_python"):
            code = generate_mlir_code(
                module, function=None,
                native_scalars=spec.codegen.native_scalars,
                preallocate=spec.codegen.preallocate,
            )
        counts["codegen.python_bytes"] = len(code.encode("utf-8"))
        return Staged(code=code, counts=counts)

    with spans.span("conversion"):
        sdfg = mlir_to_sdfg(module, function=None)
    counts["conversion.sdfg_nodes"] = _sdfg_nodes(sdfg)
    runner = PassRunner(
        [DATA_PASSES.build(p.name, p.params) for p in spec.data_passes],
        max_iterations=spec.data_max_iterations, stage="data",
    )
    with spans.span("transforms"):
        report = runner.run(sdfg)
    counts["transforms.applied"] = _applied(report)
    counts["transforms.sdfg_nodes_after"] = _sdfg_nodes(sdfg)
    counts["transforms.containers_eliminated"] = len(sdfg.eliminated_containers)

    with spans.span("codegen.python"):
        code = generate_code(sdfg, vectorize=spec.codegen.vectorize)
    counts["codegen.python_bytes"] = len(code.encode("utf-8"))
    staged = Staged(code=code, sdfg=sdfg, counts=counts)
    if spec.codegen.backend == "native":
        with spans.span("codegen.c"):
            try:
                staged.native_code = generate_c_code(sdfg, vectorize=spec.codegen.vectorize)
            except NativeCodegenError as exc:
                staged.native_fallback = str(exc)
        if staged.native_code is not None:
            counts["codegen.c_bytes"] = len(staged.native_code.encode("utf-8"))
        else:
            counts["codegen.native_fallbacks"] = 1
    return staged


def same_code(staged: Staged, generated) -> bool:
    """Whether a staged compile reproduced ``generate_program``'s output byte for byte."""
    return (
        staged.code == generated.code
        and staged.native_code == generated.native_code
        and (staged.native_fallback is None) == (generated.native_fallback is None)
    )
