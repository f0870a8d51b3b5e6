"""Map schedules: the safety analysis, the ``Parallelize`` transformation,
and the schedule axis in the cost model, search space and CLI.

The analysis is the authority: a ``parallel`` annotation is a *request*
that only reaches the backends when :func:`analyze_map_parallelism`
proves the scope free of cross-iteration write conflicts (WCR memlets
excepted — they lower to reductions or atomics).  These tests pin both
directions: provably-safe shapes are accepted with the right reduction/
atomic classification, and every conflicting shape is refused.
"""

import pytest

from repro.codegen import PARALLEL_FORK_JOIN_ITERATIONS, sdfg_score
from repro.pipeline import get_pipeline
from repro.pipeline.pipelines import generate_sdfg
from repro.sdfg import (
    SDFG,
    Memlet,
    SCHEDULE_PARALLEL,
    SCHEDULE_SEQUENTIAL,
)
from repro.sdfg.parallelism import (
    analyze_map_parallelism,
    default_workers,
    parallel_maps,
)
from repro.symbolic import Range
from repro.transforms import MapTiling, Parallelize
from repro.tuning import SearchSpace
from repro.workloads import get_kernel
from repro.workloads.python_suite import python_suite


def _single_map(build):
    """Build an SDFG via ``build(sdfg, state)`` and return its only map."""
    sdfg = SDFG("probe")
    state = sdfg.add_state("s0", is_start_state=True)
    build(sdfg, state)
    entries = [
        (s, n) for s in sdfg.states() for n in s.map_entries()
        if s.scope_dict().get(n) is None
    ]
    assert len(entries) == 1
    return sdfg, entries[0][0], entries[0][1]


def _elementwise(sdfg, state):
    sdfg.add_array("A", [64], "float64")
    sdfg.add_array("B", [64], "float64")
    state.add_mapped_tasklet(
        "mul", {"i": Range(0, 64)},
        {"_a": Memlet.simple("A", "i")}, "_out = _a * 2.0",
        {"_out": Memlet.simple("B", "i")},
    )


def _scalar_reduction(sdfg, state, wcr="+"):
    sdfg.add_array("A", [64], "float64")
    sdfg.add_scalar("s", "float64", transient=False)
    state.add_mapped_tasklet(
        "acc", {"i": Range(0, 64)},
        {"_a": Memlet.simple("A", "i")}, "_out = _a",
        {"_out": Memlet(data="s", wcr=wcr)},
    )


# ---------------------------------------------------------------------------
# Safety analysis
# ---------------------------------------------------------------------------

class TestAnalysis:
    def test_partitioned_elementwise_is_safe(self):
        sdfg, state, entry = _single_map(_elementwise)
        info = analyze_map_parallelism(sdfg, state, entry)
        assert info.ok, info.reason
        assert info.chunk_param == "i"
        assert info.reductions == ()
        assert not info.atomic_edges

    def test_scalar_wcr_becomes_reduction(self):
        for wcr in ("+", "*", "min", "max"):
            sdfg, state, entry = _single_map(
                lambda s, st: _scalar_reduction(s, st, wcr)
            )
            info = analyze_map_parallelism(sdfg, state, entry)
            assert info.ok, info.reason
            assert info.reductions == (("s", wcr),)

    def test_plain_scalar_write_refused(self):
        def build(sdfg, state):
            sdfg.add_array("A", [64], "float64")
            sdfg.add_scalar("s", "float64", transient=False)
            state.add_mapped_tasklet(
                "last", {"i": Range(0, 64)},
                {"_a": Memlet.simple("A", "i")}, "_out = _a",
                {"_out": Memlet(data="s")},  # no WCR: every iteration races
            )

        sdfg, state, entry = _single_map(build)
        info = analyze_map_parallelism(sdfg, state, entry)
        assert not info.ok

    def test_unpartitioned_array_wcr_needs_atomics(self):
        def build(sdfg, state):
            sdfg.add_array("A", [64], "int64")
            sdfg.add_array("B", [4], "int64")
            state.add_mapped_tasklet(
                "hist", {"i": Range(0, 64)},
                {"_a": Memlet.simple("A", "i")}, "_out = _a",
                {"_out": Memlet.simple("B", "0", wcr="+")},
            )

        sdfg, state, entry = _single_map(build)
        info = analyze_map_parallelism(sdfg, state, entry)
        assert info.ok, info.reason
        assert len(info.atomic_edges) == 1

    @pytest.mark.parametrize("wcr,dtype", [
        ("min", "float64"), ("max", "int64"), ("+", "float64"), ("*", "float64"),
    ])
    def test_unpartitioned_array_wcr_refused(self, wcr, dtype):
        # min/max have no native atomic update in C, and a float atomic adds
        # in the order the threads arrive — refuse rather than race.
        def build(sdfg, state):
            sdfg.add_array("A", [64], dtype)
            sdfg.add_array("B", [4], dtype)
            state.add_mapped_tasklet(
                "mn", {"i": Range(0, 64)},
                {"_a": Memlet.simple("A", "i")}, "_out = _a",
                {"_out": Memlet.simple("B", "0", wcr=wcr)},
            )

        sdfg, state, entry = _single_map(build)
        assert not analyze_map_parallelism(sdfg, state, entry).ok

    def test_unpartitioned_plain_array_write_refused(self):
        def build(sdfg, state):
            sdfg.add_array("A", [64], "float64")
            sdfg.add_array("B", [4], "float64")
            state.add_mapped_tasklet(
                "clobber", {"i": Range(0, 64)},
                {"_a": Memlet.simple("A", "i")}, "_out = _a",
                {"_out": Memlet.simple("B", "0")},
            )

        sdfg, state, entry = _single_map(build)
        assert not analyze_map_parallelism(sdfg, state, entry).ok

    @pytest.mark.parametrize("params, writes, ok", [
        ({"p": Range(0, 32)}, ["2*p", "2*p + 1"], True),  # even and odd elements
        ({"p": Range(0, 32)}, ["p", "p + 1"], False),     # p + 1 of one chunk is p of the next
        ({"p": Range(0, 32), "j": Range(0, 2)}, ["p + j"], False),
    ])
    def test_writes_that_meet_no_write_of_another_chunk(self, params, writes, ok):
        def build(sdfg, state):
            sdfg.add_array("A", [64], "float64")
            sdfg.add_array("B", [66], "float64")
            outputs = {f"_o{n}": Memlet.simple("B", index) for n, index in enumerate(writes)}
            state.add_mapped_tasklet(
                "spread", params, {"_a": Memlet.simple("A", "p")},
                "\n".join(f"{name} = _a" for name in outputs), outputs,
            )

        sdfg, state, entry = _single_map(build)
        info = analyze_map_parallelism(sdfg, state, entry)
        assert info.ok is ok, info.reason
        if not ok:
            assert info.reason == "cross-iteration write conflict on 'B'"

    def test_private_parameters_come_out_in_graph_order(self):
        """Node ids differ from compile to compile; the clause order may not."""
        orders = set()
        for _ in range(4):
            sdfg = generate_sdfg(get_kernel("2mm"), "dcir")
            for state, entry in sdfg.map_entries():
                if state.scope_dict().get(entry) is None:
                    info = analyze_map_parallelism(sdfg, state, entry)
                    orders.add((entry.map.label, info.private_params))
        assert len({label for label, _ in orders}) == len(orders)

    def test_tiled_map_partitions_by_tile_family(self):
        prog = python_suite()["heat1d"]
        sdfg = generate_sdfg(prog, pipeline="dcir")
        tiling = MapTiling(tile_size=8)
        matches = tiling.match(sdfg)
        assert matches
        tiling.apply_match(sdfg, matches[0])
        found = [
            (state, entry)
            for state in sdfg.states()
            for entry in state.map_entries()
            if state.scope_dict().get(entry) is None
        ]
        verdicts = [analyze_map_parallelism(sdfg, s, e) for s, e in found]
        accepted = [info for info in verdicts if info.ok]
        assert accepted, [info.reason for info in verdicts]
        # The inner (intra-tile) parameter is privatized, not chunked.
        assert any(info.private_params for info in accepted)


# ---------------------------------------------------------------------------
# The transformation
# ---------------------------------------------------------------------------

class TestParallelize:
    def test_annotates_only_proven_maps(self):
        suite = python_suite()
        sdfg = generate_sdfg(suite["jacobi2d"], pipeline="dcir")
        transform = Parallelize()
        matches = transform.match(sdfg)
        assert matches
        for match in matches:
            transform.apply_match(sdfg, match)
        annotated = parallel_maps(sdfg)
        assert len(annotated) == len(matches)
        for _, entry in annotated:
            assert entry.map.schedule == SCHEDULE_PARALLEL

    def test_thread_count_validates(self):
        with pytest.raises(Exception):
            Parallelize(n_threads=0)

    def test_refused_scope_is_not_matched(self):
        def build(sdfg, state):
            sdfg.add_array("A", [64], "float64")
            sdfg.add_scalar("s", "float64", transient=False)
            state.add_mapped_tasklet(
                "last", {"i": Range(0, 64)},
                {"_a": Memlet.simple("A", "i")}, "_out = _a",
                {"_out": Memlet(data="s")},
            )

        sdfg, _, entry = _single_map(build)
        assert Parallelize().match(sdfg) == []
        assert entry.map.schedule == SCHEDULE_SEQUENTIAL

    def test_polybench_atax_outer_map_parallelizes(self):
        sdfg = generate_sdfg(get_kernel("atax"), pipeline="dcir")
        transform = Parallelize(n_threads=2)
        matches = transform.match(sdfg)
        assert matches
        transform.apply_match(sdfg, matches[0])
        annotated = parallel_maps(sdfg)
        assert annotated and annotated[0][1].map.n_threads == 2


# ---------------------------------------------------------------------------
# Cost model, search space, workers resolution
# ---------------------------------------------------------------------------

class TestScheduleAxes:
    def test_cost_model_charges_fork_join(self):
        # Tiny map: the fork/join constant dominates, parallel scores worse.
        sdfg, _, entry = _single_map(_elementwise)
        sequential = sdfg_score(sdfg)
        entry.map.schedule = SCHEDULE_PARALLEL
        entry.map.n_threads = 4
        assert sdfg_score(sdfg) > sequential

    def test_cost_model_rewards_large_parallel_maps(self):
        def build(sdfg, state):
            sdfg.add_array("A", [100000], "float64")
            sdfg.add_array("B", [100000], "float64")
            state.add_mapped_tasklet(
                "mul", {"i": Range(0, 100000)},
                {"_a": Memlet.simple("A", "i")}, "_out = _a * 2.0",
                {"_out": Memlet.simple("B", "i")},
            )

        sdfg, _, entry = _single_map(build)
        sequential = sdfg_score(sdfg)
        entry.map.schedule = SCHEDULE_PARALLEL
        entry.map.n_threads = 4
        parallel = sdfg_score(sdfg)
        assert parallel < sequential
        # The gap is the per-worker iteration saving minus the constant.
        assert sequential - parallel == pytest.approx(
            2.0 * (100000 * 0.75 - PARALLEL_FORK_JOIN_ITERATIONS)
        )

    def test_search_space_has_schedule_axis(self):
        native = get_pipeline("dcir").with_codegen(backend="native")
        origins = {c.origin for c in SearchSpace(native).candidates()}
        assert "schedule:parallel" in origins
        assert "schedule:parallel(n_threads=2)" in origins
        # Interpreted, a schedule changes no code: the axis is not offered.
        assert not any(
            c.origin.startswith("schedule:") for c in SearchSpace("dcir").candidates()
        )
        spaceless = SearchSpace(native, schedule_variants=False)
        assert not any(
            c.origin.startswith("schedule:") for c in spaceless.candidates()
        )

    def test_schedule_axis_skips_non_bridge_pipelines(self):
        assert not any(
            c.origin.startswith("schedule:")
            for c in SearchSpace("gcc").candidates()
        )

    def test_default_workers_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert default_workers() >= 1
        monkeypatch.delenv("REPRO_NUM_THREADS")
        assert default_workers() >= 1
