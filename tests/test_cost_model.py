"""Tests for the data-movement cost model's score API.

The auto-tuner's static evaluator ranks candidate pipelines by
:func:`repro.codegen.movement_score`, so the score must be (1)
deterministic, (2) monotone under added data movement — an SDFG with a
redundant copy state must always score strictly worse — and (3) in
agreement with measured runtime on at least one known ablation pair
(here: ``dcir`` vs ``dcir`` with its control-centric stage ablated,
which is exactly the registered ``dace`` coarse-view pipeline).
"""

import pytest

from repro import compile_c, get_pipeline, run_compiled
from repro.codegen import (
    ALLOCATION_COST_BYTES,
    ITERATION_COST_BYTES,
    movement_score,
    sdfg_movement_report,
    sdfg_score,
)
from repro.sdfg import SDFG, Memlet
from repro.symbolic import Range
from repro.workloads import get_kernel

GEMM_SIZES = {"NI": 14, "NJ": 13, "NK": 12}


def _scale_sdfg():
    """A[i] -> B[i] * 2 over 8 concrete elements."""
    sdfg = SDFG("scale")
    sdfg.add_array("A", [8], "float64")
    sdfg.add_array("B", [8], "float64")
    state = sdfg.add_state("compute", is_start_state=True)
    state.add_mapped_tasklet(
        "scale",
        {"i": Range(0, 8)},
        {"_a": Memlet.simple("A", "i")},
        "_b = _a * 2.0",
        {"_b": Memlet.simple("B", "i")},
    )
    return sdfg


class TestScoreDeterminism:
    def test_same_sdfg_scores_identically(self):
        sdfg = _scale_sdfg()
        assert sdfg_score(sdfg) == sdfg_score(sdfg)

    def test_recompiled_program_scores_identically(self):
        source = get_kernel("gemm", GEMM_SIZES)
        first = compile_c(source, "dcir")
        second = compile_c(source, "dcir")
        assert movement_score(first.movement_report()) == movement_score(
            second.movement_report()
        )

    def test_score_is_positive_for_real_programs(self):
        source = get_kernel("gemm", GEMM_SIZES)
        assert movement_score(compile_c(source, "dcir").movement_report()) > 0


class TestScoreMonotonicity:
    def test_redundant_copy_state_strictly_increases_the_score(self):
        """Adding pure data movement must always look worse to the model."""
        sdfg = _scale_sdfg()
        baseline = sdfg_score(sdfg)

        # Append a state that copies all of A into B — dead work that
        # changes no observable result but moves 8 more elements.
        copy_state = sdfg.add_state_after(sdfg.start_state, "redundant-copy")
        copy_state.add_edge(
            copy_state.add_access("A"),
            None,
            copy_state.add_access("B"),
            None,
            Memlet(data="A", volume=8),
        )
        assert sdfg_score(sdfg) > baseline
        # Exactly the copied traffic: 8 elements × 8 bytes, no allocations.
        assert sdfg_score(sdfg) == baseline + 8 * 8

    def test_allocations_are_penalized(self):
        report = sdfg_movement_report(_scale_sdfg())
        baseline = movement_score(report)
        report.allocations += 1
        assert movement_score(report) == baseline + ALLOCATION_COST_BYTES

    def test_allocation_cost_is_configurable(self):
        report = sdfg_movement_report(_scale_sdfg())
        report.allocations += 2
        assert movement_score(report, allocation_cost_bytes=10.0) == pytest.approx(
            report.bytes_moved + 20.0 + ITERATION_COST_BYTES * report.iterations
        )

    def test_iterations_are_penalized(self):
        """The map scope's 8 iterations surface as loop-overhead cost."""
        report = sdfg_movement_report(_scale_sdfg())
        assert report.iterations == 8
        baseline = movement_score(report)
        report.iterations += 4
        assert movement_score(report) == baseline + 4 * ITERATION_COST_BYTES
        assert movement_score(report, iteration_cost_bytes=0.0) == pytest.approx(
            report.bytes_moved + ALLOCATION_COST_BYTES * report.allocations
        )

    def test_vectorized_map_scores_strictly_better(self):
        """Vector emission collapses the map's loop overhead to one step."""
        scalar = sdfg_score(_scale_sdfg())
        vectorized_sdfg = _scale_sdfg()
        for state, entry in vectorized_sdfg.map_entries():
            entry.map.vectorized = True
        vectorized = sdfg_score(vectorized_sdfg)
        assert vectorized < scalar
        # Same traffic, 7 fewer loop iterations (8 -> 1).
        assert scalar - vectorized == pytest.approx(7 * ITERATION_COST_BYTES)


class TestScoreAgreesWithRuntime:
    def test_control_stage_ablation_ranks_like_measured_runtime(self):
        """Known ablation pair: dcir vs dcir-without-control-passes (= dace).

        The paper's core claim is that the combined pipeline beats the
        coarse data-centric view; the static score must call that ranking
        the same way the wall clock does.
        """
        source = get_kernel("gemm", GEMM_SIZES)
        dcir = get_pipeline("dcir")
        ablated = dcir.derive(control_passes=[])
        # The ablation *is* the registered coarse-view pipeline.
        assert ablated.content_id() == get_pipeline("dace").content_id()

        full = compile_c(source, dcir)
        coarse = compile_c(source, ablated)
        score_full = movement_score(full.movement_report())
        score_coarse = movement_score(coarse.movement_report())
        assert score_full < score_coarse

        # Since both raise gemm's `k` loop the gap is a few per cent (dcir
        # hoists alpha's and beta's loads), so take the best of many reps,
        # alternating the two so a slow phase of the runner hits both.
        best = {}
        for _ in range(5):
            for label, result in (("full", full), ("coarse", coarse)):
                sample = min(run_compiled(result, repetitions=10).rep_seconds)
                best[label] = min(best.get(label, sample), sample)
        assert best["full"] < best["coarse"]
