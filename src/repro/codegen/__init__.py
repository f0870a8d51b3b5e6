"""Code generation backends and the data-movement cost model.

SDFGs are lowered by one traversal (:mod:`.sdfg_walk`: control-flow
order, scoping, allocation accounting, write resolution, the
vector/parallel/sequential decision per map) with two syntax emitters on
top of it — :mod:`.sdfg_python` (interpreted) and :mod:`.sdfg_c`
(native).  :mod:`.mlir_python` executes the control-centric pipelines
that never build an SDFG.  All three write through :mod:`.writer`.
"""

from .control_flow import (
    BranchNode,
    ControlFlowBuilder,
    DispatchNode,
    LoopNode,
    SequenceNode,
    StateNode,
    build_control_flow,
    states_in_tree,
)
from .cost_model import (
    ALLOCATION_COST_BYTES,
    ITERATION_COST_BYTES,
    PARALLEL_FORK_JOIN_ITERATIONS,
    MovementReport,
    movement_score,
    sdfg_movement_report,
    sdfg_score,
)
from .loader import ProgramLoadError, load_entry
from .mlir_python import CompiledMLIR, MLIRCodegenError, compile_mlir, generate_mlir_code
from .sdfg_c import NativeCodegenError, generate_c_code
from .sdfg_python import CompiledSDFG, compile_sdfg, generate_code
from .sdfg_walk import CodegenError
from .toolchain import (
    CompiledNative,
    CompilerFeatures,
    ToolchainError,
    compile_shared,
    compiler_features,
    find_compiler,
    have_compiler,
)

__all__ = [
    "ALLOCATION_COST_BYTES",
    "ITERATION_COST_BYTES",
    "PARALLEL_FORK_JOIN_ITERATIONS",
    "BranchNode",
    "CodegenError",
    "CompiledMLIR",
    "CompiledNative",
    "CompiledSDFG",
    "ControlFlowBuilder",
    "DispatchNode",
    "LoopNode",
    "MLIRCodegenError",
    "MovementReport",
    "NativeCodegenError",
    "ProgramLoadError",
    "SequenceNode",
    "StateNode",
    "ToolchainError",
    "CompilerFeatures",
    "build_control_flow",
    "compile_mlir",
    "compile_sdfg",
    "compile_shared",
    "compiler_features",
    "find_compiler",
    "generate_c_code",
    "generate_code",
    "have_compiler",
    "generate_mlir_code",
    "load_entry",
    "movement_score",
    "sdfg_movement_report",
    "sdfg_score",
    "states_in_tree",
]
