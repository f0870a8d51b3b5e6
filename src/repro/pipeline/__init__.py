"""Public compilation pipelines: declarative specs, a name registry, and
the spec-driven compile entry points.

The six paper pipelines (``gcc``, ``clang``, ``dace``, ``mlir``, ``dcir``,
``dcir+vec``) are pre-registered specs; user code can build and register
its own (see :class:`PipelineSpec` and :func:`register_pipeline`).
"""

from ..passbase import CompilationReport, PassRecord, StageReport
from .registry import (
    CONTROL_SUITE,
    DATA_SUITE,
    PAPER_PIPELINES,
    PIPELINES,
    get_pipeline,
    list_pipelines,
    paper_control_passes,
    paper_data_passes,
    register_pipeline,
    resolve_pipeline,
    unregister_pipeline,
)
from .spec import (
    CodegenOptions,
    PassSpec,
    PipelineLike,
    PipelineSpec,
    pipeline_label,
)
from .pipelines import (
    CompileResult,
    GeneratedProgram,
    PipelineError,
    RunResult,
    compile_and_run,
    compile_c,
    control_runner,
    data_runner,
    generate_program,
    generate_sdfg,
    load_runner,
    result_from_payload,
    run_compiled,
)

__all__ = [
    "CONTROL_SUITE",
    "CodegenOptions",
    "CompilationReport",
    "CompileResult",
    "DATA_SUITE",
    "GeneratedProgram",
    "PAPER_PIPELINES",
    "PIPELINES",
    "PassRecord",
    "PassSpec",
    "PipelineError",
    "PipelineLike",
    "PipelineSpec",
    "RunResult",
    "StageReport",
    "compile_and_run",
    "compile_c",
    "control_runner",
    "data_runner",
    "generate_program",
    "generate_sdfg",
    "get_pipeline",
    "list_pipelines",
    "load_runner",
    "paper_control_passes",
    "paper_data_passes",
    "pipeline_label",
    "register_pipeline",
    "resolve_pipeline",
    "result_from_payload",
    "run_compiled",
    "unregister_pipeline",
]
