"""Pipeline auto-tuning: search the space between the paper's pipelines.

The evaluation (§7) compares six fixed compositions; this subsystem
searches the space *between* them per kernel — single-pass ablations,
in-stage reorderings and codegen-option sweeps of a base
:class:`~repro.PipelineSpec` — with pluggable search strategies and
evaluators, all candidate batches dispatched in parallel through the
content-addressed compile cache (repeat runs cost ~zero)::

    from repro.tuning import RandomStrategy, SearchSpace, tune_kernel

    report = tune_kernel("gemm", budget=8, seed=0)   # deterministic search
    print(report.table())
    print(report.winner_id)                          # reproducible digest

    from repro.tuning import register_winner
    register_winner(report, "gemm-tuned")            # now a named pipeline

Entry points: :func:`tune` (any C source), :func:`tune_kernel` (PolyBench
by name) and ``python -m repro tune`` (CLI).
"""

from .evaluate import (
    EVALUATORS,
    EvaluatedCandidate,
    Evaluator,
    RuntimeEvaluator,
    StaticEvaluator,
    get_evaluator,
)
from .space import STAGES, Candidate, SearchSpace
from .strategy import (
    STRATEGIES,
    ExhaustiveStrategy,
    GreedyStrategy,
    RandomStrategy,
    Strategy,
    get_strategy,
)
from .tuner import (
    TUNE_SCHEMA,
    TuningReport,
    rank_candidates,
    register_winner,
    tune,
    tune_kernel,
)

__all__ = [
    "Candidate",
    "EVALUATORS",
    "EvaluatedCandidate",
    "Evaluator",
    "ExhaustiveStrategy",
    "GreedyStrategy",
    "RandomStrategy",
    "RuntimeEvaluator",
    "STAGES",
    "STRATEGIES",
    "SearchSpace",
    "StaticEvaluator",
    "Strategy",
    "TUNE_SCHEMA",
    "TuningReport",
    "get_evaluator",
    "get_strategy",
    "rank_candidates",
    "register_winner",
    "tune",
    "tune_kernel",
]
