"""Tests for the SDFG IR and the data-centric transformation passes."""

import pytest

from repro.passbase import PassRunner
from repro.pipeline import data_runner, get_pipeline
from repro.sdfg import (
    SDFG,
    AccessNode,
    InterstateEdge,
    InvalidSDFGError,
    Memlet,
    Scalar,
    Tasklet,
    live_containers_per_state,
    propagate_memlets_sdfg,
)
from repro.symbolic import FALSE, Integer, Range, Subset, Symbol, parse_expr
from repro.transforms import (
    ArrayElimination,
    AugAssignToWCR,
    DeadDataflowElimination,
    DeadStateElimination,
    LoopToMap,
    MapCollapse,
    MapFusion,
    MapTiling,
    Match,
    MemoryPreAllocation,
    Parallelize,
    RedundantIterationElimination,
    StackPromotion,
    StateFusion,
    Transformation,
    find_loops,
)


def _vector_scale_sdfg(n="N"):
    """A[i] -> B[i] * 2 map, used by several tests."""
    sdfg = SDFG("scale")
    sdfg.add_symbol("N")
    sdfg.add_array("A", [n], "float64")
    sdfg.add_array("B", [n], "float64")
    state = sdfg.add_state("compute", is_start_state=True)
    state.add_mapped_tasklet(
        "scale",
        {"i": Range(0, n)},
        {"_a": Memlet.simple("A", "i")},
        "_b = _a * 2.0",
        {"_b": Memlet.simple("B", "i")},
    )
    return sdfg


def _loop_sdfg():
    """State-machine loop writing A[i] = i for i in [0, N)."""
    sdfg = SDFG("loop")
    sdfg.add_symbol("N")
    sdfg.add_array("A", ["N"], "float64")
    init = sdfg.add_state("init", is_start_state=True)
    guard = sdfg.add_state("guard")
    body = sdfg.add_state("body")
    exit_state = sdfg.add_state("exit")
    sdfg.add_edge(init, guard, InterstateEdge(assignments={"i": 0}))
    sdfg.add_edge(guard, body, InterstateEdge(condition="i < N"))
    sdfg.add_edge(body, guard, InterstateEdge(assignments={"i": "i + 1"}))
    sdfg.add_edge(guard, exit_state, InterstateEdge(condition="not (i < N)"))
    tasklet = body.add_tasklet("write", [], ["_out"], "_out = i")
    write = body.add_access("A")
    body.add_edge(tasklet, "_out", write, None, Memlet.simple("A", "i"))
    return sdfg


class TestSDFGCore:
    def test_validation_passes(self):
        _vector_scale_sdfg().validate()

    def test_unknown_container_rejected(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s", is_start_state=True)
        state.add_access("missing")
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_out_of_bounds_memlet_rejected(self):
        sdfg = SDFG("oob")
        sdfg.add_array("A", [4], "float64")
        sdfg.add_scalar("s", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("t", ["_a"], [], "pass")
        state.add_edge(state.add_access("A"), None, tasklet, "_a", Memlet.simple("A", "7"))
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_unconnected_connector_rejected(self):
        sdfg = SDFG("conn")
        sdfg.add_array("A", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        state.add_tasklet("t", ["_a"], [], "pass")
        with pytest.raises(InvalidSDFGError):
            sdfg.validate()

    def test_duplicate_container_rejected(self):
        sdfg = SDFG("dup")
        sdfg.add_array("A", [4], "float64")
        with pytest.raises(InvalidSDFGError):
            sdfg.add_array("A", [4], "float64")

    def test_read_write_sets(self):
        sdfg = _vector_scale_sdfg()
        state = sdfg.states()[0]
        assert state.read_set() == {"A"}
        assert state.write_set() == {"B"}

    def test_memlet_propagation_through_map(self):
        sdfg = _vector_scale_sdfg()
        propagate_memlets_sdfg(sdfg)
        state = sdfg.states()[0]
        outer_reads = [
            e.data for e in state.edges()
            if isinstance(e.src, AccessNode) and e.src.data == "A"
        ]
        assert str(outer_reads[0].subset) == "0:N"
        assert outer_reads[0].volume == Symbol("N")

    def test_memlet_propagation_keeps_the_inner_scopes_repetitions(self):
        """A memlet leaving a nested scope already counts the inner iterations."""
        from repro.sdfg import propagate_subset

        inner = propagate_subset(Memlet.simple("C", "i, j"), ["j"], [Range(0, 13)])
        assert (str(inner.subset), inner.volume) == ("i, 0:13", Integer(13))
        # ``k`` does not index C: the subset stays, the traffic is 12 times it.
        outer = propagate_subset(inner, ["k"], [Range(0, 12)])
        assert (str(outer.subset), outer.volume) == ("i, 0:13", Integer(156))

    def test_free_symbols(self):
        sdfg = _vector_scale_sdfg()
        assert sdfg.free_symbols() == {"N"}

    def test_loop_detection(self):
        sdfg = _loop_sdfg()
        loops = find_loops(sdfg)
        assert len(loops) == 1
        assert loops[0].induction_symbol == "i"
        assert str(loops[0].trip_count()) == "N"

    def test_liveness(self):
        sdfg = _loop_sdfg()
        live = live_containers_per_state(sdfg)
        assert any("A" in names for names in live.values())

    def test_arglist_excludes_transients(self):
        sdfg = _vector_scale_sdfg()
        sdfg.add_transient("tmp", ["N"], "float64")
        assert "A" in sdfg.arglist() and not any(k.startswith("tmp") for k in sdfg.arglist())


class TestTransforms:
    def test_state_fusion_merges_linear_states(self):
        sdfg = SDFG("fuse")
        sdfg.add_array("A", [4], "float64")
        sdfg.add_scalar("s", "float64")
        first = sdfg.add_state("first", is_start_state=True)
        second = sdfg.add_state("second")
        sdfg.add_edge(first, second, InterstateEdge())
        t1 = first.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        first.add_edge(t1, "_out", first.add_access("s"), None, Memlet(data="s"))
        t2 = second.add_tasklet("t2", ["_in"], ["_out"], "_out = _in + 1.0")
        second.add_edge(second.add_access("s"), None, t2, "_in", Memlet(data="s"))
        second.add_edge(t2, "_out", second.add_access("A"), None, Memlet.simple("A", "0"))
        assert StateFusion().apply(sdfg)
        assert len(sdfg.states()) == 1
        sdfg.validate()

    def test_state_fusion_respects_conditions(self):
        sdfg = SDFG("nofuse")
        first = sdfg.add_state("first", is_start_state=True)
        second = sdfg.add_state("second")
        sdfg.add_edge(first, second, InterstateEdge(condition="N > 1"))
        assert not StateFusion().apply(sdfg)

    def test_dead_state_elimination(self):
        sdfg = SDFG("dse")
        start = sdfg.add_state("start", is_start_state=True)
        dead = sdfg.add_state("dead")
        sdfg.add_edge(start, dead, InterstateEdge(condition=FALSE))
        assert DeadStateElimination().apply(sdfg)
        assert len(sdfg.states()) == 1

    def test_dead_dataflow_elimination_removes_unobservable_writes(self):
        sdfg = SDFG("dde")
        sdfg.add_array("out", [4], "float64", transient=False)
        sdfg.add_transient("dead", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t1 = state.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        state.add_edge(t1, "_out", state.add_access("dead"), None, Memlet.simple("dead", "0"))
        t2 = state.add_tasklet("t2", [], ["_out"], "_out = 2.0")
        state.add_edge(t2, "_out", state.add_access("out"), None, Memlet.simple("out", "0"))
        assert DeadDataflowElimination().apply(sdfg)
        assert ArrayElimination().apply(sdfg)
        assert "dead" not in sdfg.arrays
        assert "out" in sdfg.arrays

    def test_dead_dataflow_keeps_feeding_chain(self):
        sdfg = SDFG("chain")
        sdfg.add_array("out", [1], "float64", transient=False)
        sdfg.add_transient("mid", [1], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t1 = state.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        mid = state.add_access("mid")
        state.add_edge(t1, "_out", mid, None, Memlet.simple("mid", "0"))
        t2 = state.add_tasklet("t2", ["_in"], ["_out"], "_out = _in + 1.0")
        state.add_edge(mid, None, t2, "_in", Memlet.simple("mid", "0"))
        state.add_edge(t2, "_out", state.add_access("out"), None, Memlet.simple("out", "0"))
        DeadDataflowElimination().apply(sdfg)
        assert "mid" in sdfg.arrays
        assert len(state.tasklets()) == 2

    def test_redundant_iteration_elimination(self):
        sdfg = _loop_sdfg()
        # Make the body independent of the induction symbol.
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for edge in body.edges():
            edge.data = Memlet.simple("A", "0")
        for tasklet in body.tasklets():
            tasklet.code = "_out = 5.0"
        assert RedundantIterationElimination().apply(sdfg)
        latch = [e for e in sdfg.edges() if e.src.label == "body" and e.dst.label == "guard"][0]
        assert latch.data.assignments["i"] == Symbol("N")

    def test_redundant_iteration_keeps_dependent_loops(self):
        sdfg = _loop_sdfg()
        assert not RedundantIterationElimination().apply(sdfg)

    def test_wcr_detection(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_scalar("v", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("acc", ["_in0", "_in1"], ["_out"], "_out = (_in0 + _in1)")
        state.add_edge(state.add_access("A"), None, tasklet, "_in0", Memlet.simple("A", "3"))
        state.add_edge(state.add_access("v"), None, tasklet, "_in1", Memlet(data="v"))
        state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", "3"))
        assert AugAssignToWCR().apply(sdfg)
        writes = [e for e in state.edges() if isinstance(e.dst, AccessNode) and e.dst.data == "A"]
        assert writes[0].data.wcr == "+"
        assert tasklet.code == "_out = _in1"

    def test_stack_promotion(self):
        sdfg = SDFG("stack")
        sdfg.add_transient("small", [16], "float64")
        sdfg.add_transient("huge", [1024 * 1024], "float64")
        StackPromotion(max_elements=1024).apply(sdfg)
        small_name = [n for n in sdfg.arrays if n.startswith("small")][0]
        huge_name = [n for n in sdfg.arrays if n.startswith("huge")][0]
        assert sdfg.arrays[small_name].storage == "stack"
        assert sdfg.arrays[huge_name].storage == "heap"

    def test_memory_preallocation(self):
        sdfg = SDFG("prealloc")
        sdfg.add_transient("tmp", [64], "float64")
        assert MemoryPreAllocation().apply(sdfg)
        name = [n for n in sdfg.arrays if n.startswith("tmp")][0]
        assert sdfg.arrays[name].lifetime == "persistent"

    def test_loop_to_map(self):
        sdfg = _loop_sdfg()
        assert LoopToMap().apply(sdfg)
        from repro.sdfg.nodes import MapEntry

        entries = [n for s in sdfg.states() for n in s.nodes() if isinstance(n, MapEntry)]
        assert len(entries) == 1
        assert entries[0].map.params == ["i"]
        sdfg.validate()

    def test_map_fusion(self):
        sdfg = SDFG("fusion")
        sdfg.add_symbol("N")
        sdfg.add_array("A", ["N"], "float64")
        sdfg.add_transient("T", ["N"], "float64")
        sdfg.add_array("B", ["N"], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        _, e1, x1 = state.add_mapped_tasklet(
            "first", {"i": Range(0, "N")},
            {"_a": Memlet.simple("A", "i")}, "_t = _a + 1.0", {"_t": Memlet.simple("T", "i")},
        )
        _, e2, x2 = state.add_mapped_tasklet(
            "second", {"j": Range(0, "N")},
            {"_t": Memlet.simple("T", "j")}, "_b = _t * 2.0", {"_b": Memlet.simple("B", "j")},
        )
        # Connect the two scopes through a single intermediate access node.
        intermediates = [n for n in state.data_nodes() if n.data == "T"]
        write_node = [n for n in intermediates if state.in_degree(n) > 0][0]
        read_node = [n for n in intermediates if state.in_degree(n) == 0][0]
        for edge in list(state.out_edges(read_node)):
            state.add_edge(write_node, None, edge.dst, edge.dst_conn, edge.data)
            state.remove_edge(edge)
        state.remove_node(read_node)
        assert MapFusion().apply(sdfg)
        from repro.sdfg.nodes import MapEntry

        entries = [n for n in state.nodes() if isinstance(n, MapEntry)]
        assert len(entries) == 1

    def test_simplify_pipeline_runs(self):
        sdfg = _loop_sdfg()
        report = data_runner(get_pipeline("dcir")).run(sdfg)
        assert report.records
        sdfg.validate()


def _concrete_scale_sdfg(n=8):
    """A[i] -> B[i] * 2 map over a concrete extent (executable)."""
    sdfg = SDFG("scale8")
    sdfg.add_array("A", [n], "float64")
    sdfg.add_array("B", [n], "float64")
    state = sdfg.add_state("compute", is_start_state=True)
    state.add_mapped_tasklet(
        "scale",
        {"i": Range(0, n)},
        {"_a": Memlet.simple("A", "i")},
        "_b = _a * 2.0",
        {"_b": Memlet.simple("B", "i")},
    )
    return sdfg


def _run_sdfg(sdfg, **arrays):
    import numpy as np

    inputs = {name: value.copy() for name, value in arrays.items()}
    return sdfg.compile().run(**inputs), inputs


class TestRewriteEngine:
    """The Transformation base: match enumeration, drains, accounting."""

    def test_match_indices_follow_enumeration_order(self):
        sdfg = SDFG("idx")
        sdfg.add_transient("a", [4], "float64")
        sdfg.add_transient("b", [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        matches = StackPromotion().matches(sdfg)
        assert [m.index for m in matches] == [0, 1]
        assert all(m.transformation == "stack-promotion" for m in matches)
        assert matches[0].to_dict()["kind"] == "container"
        assert "stack-promotion" in matches[0].describe()

    def test_only_matches_selects_a_subset(self):
        sdfg = SDFG("subset")
        sdfg.add_transient("a", [4], "float64")
        sdfg.add_transient("b", [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion(only_matches=[1])
        assert promotion.apply(sdfg)
        assert promotion.last_matches == 2 and promotion.last_applied == 1
        names = sorted(sdfg.arrays)
        assert sdfg.arrays[names[0]].storage == "heap"
        assert sdfg.arrays[names[1]].storage == "stack"

    def test_max_applications_caps_the_run(self):
        sdfg = SDFG("cap")
        for name in ("a", "b", "c"):
            sdfg.add_transient(name, [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion(max_applications=2)
        assert promotion.apply(sdfg)
        assert promotion.last_applied == 2
        promoted = [n for n, d in sdfg.arrays.items() if d.storage == "stack"]
        assert len(promoted) == 2

    def test_apply_with_explicit_match_rewrites_one_site(self):
        sdfg = SDFG("one")
        sdfg.add_transient("a", [4], "float64")
        sdfg.add_transient("b", [4], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion()
        matches = promotion.matches(sdfg)
        assert promotion.apply(sdfg, matches[0])
        promoted = [n for n, d in sdfg.arrays.items() if d.storage == "stack"]
        assert len(promoted) == 1
        # A stale match reports failure instead of re-applying.
        assert not promotion.apply_match(sdfg, matches[0])

    def test_restart_drain_that_never_converges_raises(self):
        from repro.errors import PipelineError

        class Flipper(Transformation):
            """Always finds its one site again and always reports progress."""

            NAME = "flipper"
            DRAIN = "restart"
            MAX_ROUNDS = 7

            def match(self, sdfg):
                return [Match(self.name, "toggle", "s", "s")]

            def apply_match(self, sdfg, match):
                return True

        sdfg = SDFG("runaway")
        sdfg.add_state("s", is_start_state=True)
        flipper = Flipper()
        with pytest.raises(PipelineError, match=r"flipper did not converge.*7 restart rounds"):
            flipper.apply(sdfg)
        assert flipper.last_applied == 7
        # The budget still ends a run before the guard does.
        assert Flipper(max_applications=7).apply(sdfg)

    def test_pass_records_carry_match_accounting(self):
        sdfg = _loop_sdfg()
        report = PassRunner([LoopToMap()]).run(sdfg)
        record = report.records[0]
        assert record.matches == 1 and record.applied == 1
        assert report.match_totals()["loop-to-map"] == {"matches": 1, "applied": 1}

    def test_transformation_params_are_declared(self):
        from repro.transforms import transformation_parameters

        assert transformation_parameters(MapTiling) == {"tile_size": 32}
        assert transformation_parameters(Parallelize) == {"n_threads": None}
        assert set(StackPromotion.PARAMS) == {"max_elements"}
        for cls in (MapTiling, MapCollapse):
            assert cls.ADDABLE and issubclass(cls, Transformation)


class TestMatchSets:
    """Exact match enumeration per ported transform on minimal fixtures."""

    def test_state_fusion_matches_every_linear_pair(self):
        sdfg = SDFG("chain")
        states = [sdfg.add_state(f"s{i}", is_start_state=(i == 0)) for i in range(3)]
        sdfg.add_edge(states[0], states[1], InterstateEdge())
        sdfg.add_edge(states[1], states[2], InterstateEdge())
        matches = StateFusion().matches(sdfg)
        assert [m.subject for m in matches] == ["s0 <- s1", "s1 <- s2"]
        assert StateFusion().apply(sdfg)
        assert len(sdfg.states()) == 1

    def test_loop_to_map_match_set(self):
        sdfg = _loop_sdfg()
        matches = LoopToMap().matches(sdfg)
        assert len(matches) == 1
        assert matches[0].kind == "loop"
        assert "for i in [0, N) step 1" in matches[0].subject

    def test_dead_state_matches_both_kinds(self):
        sdfg = SDFG("dse")
        start = sdfg.add_state("start", is_start_state=True)
        dead = sdfg.add_state("dead")
        sdfg.add_edge(start, dead, InterstateEdge(condition=FALSE))
        matches = DeadStateElimination().matches(sdfg)
        assert [m.kind for m in matches] == ["false-edge", "unreachable-state"]
        assert DeadStateElimination().apply(sdfg)
        assert len(sdfg.states()) == 1

    def test_dead_dataflow_matches_each_dead_write(self):
        sdfg = SDFG("dde")
        sdfg.add_array("out", [4], "float64", transient=False)
        sdfg.add_transient("dead", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        t1 = state.add_tasklet("t1", [], ["_out"], "_out = 1.0")
        state.add_edge(t1, "_out", state.add_access("dead"), None, Memlet.simple("dead", "0"))
        t2 = state.add_tasklet("t2", [], ["_out"], "_out = 2.0")
        state.add_edge(t2, "_out", state.add_access("out"), None, Memlet.simple("out", "0"))
        elimination = DeadDataflowElimination()
        matches = elimination.matches(sdfg)
        assert len(matches) == 1 and matches[0].subject.startswith("dead")
        assert elimination.apply(sdfg)
        assert len(state.tasklets()) == 1  # t1 cascaded away with its write

    def test_array_elimination_matches_unused_and_copies(self):
        sdfg = SDFG("arrays")
        sdfg.add_transient("never", [4], "float64")
        sdfg.add_array("src", [4], "float64")
        sdfg.add_transient("cpy", [4], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        read = state.add_access("src")
        copy_node = state.add_access("cpy")
        state.add_edge(read, None, copy_node, None, Memlet.full("src", [4]))
        t = state.add_tasklet("t", ["_in"], [], "pass")
        state.add_edge(copy_node, None, t, "_in", Memlet.simple("cpy", "0"))
        elimination = ArrayElimination()
        kinds = {(m.kind, m.subject.split(" ")[0]) for m in elimination.matches(sdfg)}
        assert ("unused", "never") in kinds
        assert any(kind == "copy" and subject.startswith("cpy") for kind, subject in kinds)
        assert elimination.apply(sdfg)
        assert "never" not in sdfg.arrays and "cpy" not in sdfg.arrays
        assert sorted(sdfg.eliminated_containers) == ["cpy", "never"]

    def test_wcr_match_set(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_scalar("v", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("acc", ["_in0", "_in1"], ["_out"], "_out = (_in0 + _in1)")
        state.add_edge(state.add_access("A"), None, tasklet, "_in0", Memlet.simple("A", "3"))
        state.add_edge(state.add_access("v"), None, tasklet, "_in1", Memlet(data="v"))
        state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", "3"))
        detection = AugAssignToWCR()
        matches = detection.matches(sdfg)
        assert len(matches) == 1 and "wcr +" in matches[0].subject
        assert detection.apply(sdfg)
        assert detection.matches(sdfg) == []  # idempotent: converted site gone

    def test_memory_transform_match_sets(self):
        sdfg = SDFG("mem")
        sdfg.add_transient("small", [16], "float64")
        sdfg.add_transient("huge", [1024 * 1024], "float64")
        sdfg.add_state("s", is_start_state=True)
        promotion = StackPromotion(max_elements=1024)
        assert [m.subject.split(" ")[0] for m in promotion.matches(sdfg)] == ["small"]
        prealloc = MemoryPreAllocation()
        assert len(prealloc.matches(sdfg)) == 2
        assert promotion.apply(sdfg)
        # Stack promotion made `small` persistent; preallocation still
        # matches the heap-resident one.
        assert len(prealloc.matches(sdfg)) == 1

    def test_redundant_iteration_match_set(self):
        sdfg = _loop_sdfg()
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for edge in body.edges():
            edge.data = Memlet.simple("A", "0")
        for tasklet in body.tasklets():
            tasklet.code = "_out = 5.0"
        elimination = RedundantIterationElimination()
        matches = elimination.matches(sdfg)
        assert len(matches) == 1 and matches[0].kind == "redundant-loop"
        assert elimination.apply(sdfg)
        assert elimination.matches(sdfg) == []  # collapsed loops do not re-match

    def test_map_fusion_match_set(self):
        sdfg = SDFG("fusion")
        sdfg.add_symbol("N")
        sdfg.add_array("A", ["N"], "float64")
        sdfg.add_transient("T", ["N"], "float64")
        sdfg.add_array("B", ["N"], "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        state.add_mapped_tasklet(
            "first", {"i": Range(0, "N")},
            {"_a": Memlet.simple("A", "i")}, "_t = _a + 1.0", {"_t": Memlet.simple("T", "i")},
        )
        state.add_mapped_tasklet(
            "second", {"j": Range(0, "N")},
            {"_t": Memlet.simple("T", "j")}, "_b = _t * 2.0", {"_b": Memlet.simple("B", "j")},
        )
        intermediates = [n for n in state.data_nodes() if n.data == "T"]
        write_node = [n for n in intermediates if state.in_degree(n) > 0][0]
        read_node = [n for n in intermediates if state.in_degree(n) == 0][0]
        for edge in list(state.out_edges(read_node)):
            state.add_edge(write_node, None, edge.dst, edge.dst_conn, edge.data)
            state.remove_edge(edge)
        state.remove_node(read_node)
        fusion = MapFusion()
        matches = fusion.matches(sdfg)
        assert len(matches) == 1 and "via T" in matches[0].subject
        assert fusion.apply(sdfg)
        assert fusion.matches(sdfg) == []


def _update_loop(read_index, code="_out = (_in0 + _in1)", target="i"):
    """``for i: A[target] = A[target] <op> A[read_index]`` as one body tasklet."""
    sdfg = _loop_sdfg()
    body = [s for s in sdfg.states() if s.label == "body"][0]
    for node in body.nodes():
        body.remove_node(node)
    tasklet = body.add_tasklet("update", ["_in0", "_in1"], ["_out"], code)
    source = body.add_access("A")
    body.add_edge(source, None, tasklet, "_in0", Memlet.simple("A", target))
    body.add_edge(source, None, tasklet, "_in1", Memlet.simple("A", read_index))
    body.add_edge(tasklet, "_out", body.add_access("A"), None, Memlet.simple("A", target))
    return sdfg, body, tasklet


def _two_maps(read_index="j", extra=None):
    """``T[i] = A[i] + 1`` then ``B[j] = T[read_index] * 2`` joined through one ``T`` node."""
    sdfg = SDFG("fusion")
    sdfg.add_symbol("N")
    sdfg.add_array("A", ["N"], "float64")
    sdfg.add_transient("T", ["N"], "float64")
    sdfg.add_array("B", ["N"], "float64")
    state = sdfg.add_state("s0", is_start_state=True)
    state.add_mapped_tasklet(
        "first", {"i": Range(0, "N")},
        {"_a": Memlet.simple("A", "i")}, "_t = _a + 1.0", {"_t": Memlet.simple("T", "i")},
    )
    state.add_mapped_tasklet(
        "second", {"j": Range(0, "N")},
        {"_t": Memlet.simple("T", read_index)}, "_b = _t * 2.0", {"_b": Memlet.simple("B", "j")},
    )
    written, read = sorted(
        (n for n in state.data_nodes() if n.data == "T"), key=state.in_degree, reverse=True
    )
    for edge in list(state.out_edges(read)):
        state.add_edge(written, None, edge.dst, edge.dst_conn, edge.data)
    state.remove_node(read)
    return sdfg, state


class TestSoundness:
    """Shapes the C-derived suite only reaches now that tasklets fuse."""

    def test_wcr_detection_reads_the_fused_expression(self):
        sdfg, body, tasklet = _update_loop("i", code="_out = ((_in1 * 2.0) + _in0)")
        tasklet.code = "_out = (_in0 + (_in1 * _in2))"
        body.add_edge(body.add_access("A"), None, tasklet, "_in2", Memlet.simple("A", "i"))
        assert not AugAssignToWCR().apply(sdfg)  # reads A through _in1 and _in2 as well

    def test_wcr_detection_takes_either_operand_and_keeps_the_rest(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("A", [8], "float64")
        sdfg.add_array("B", [8], "float64")
        sdfg.add_scalar("v", "float64")
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet(
            "fma", ["_in0", "_in1", "_in2"], ["_out"], "_out = ((_in0 * _in1) + _in2)"
        )
        state.add_edge(state.add_access("v"), None, tasklet, "_in0", Memlet(data="v"))
        state.add_edge(state.add_access("B"), None, tasklet, "_in1", Memlet.simple("B", "3"))
        state.add_edge(state.add_access("A"), None, tasklet, "_in2", Memlet.simple("A", "3"))
        state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", "3"))
        assert AugAssignToWCR().apply(sdfg)
        assert tasklet.code == "_out = (_in0 * _in1)"
        assert [e.data.wcr for e in state.out_edges(tasklet)] == ["+"]
        assert sorted(e.dst_conn for e in state.in_edges(tasklet)) == ["_in0", "_in1"]

    @staticmethod
    def _combine(code, dtype="float64"):
        """``A[3] = code(A[3] as _in0, v as _in1)`` in one state."""
        sdfg = SDFG("wcr")
        sdfg.add_array("A", [8], dtype)
        sdfg.add_scalar("v", dtype)
        state = sdfg.add_state("s0", is_start_state=True)
        tasklet = state.add_tasklet("t", ["_in0", "_in1"], ["_out"], code)
        state.add_edge(state.add_access("A"), None, tasklet, "_in0", Memlet.simple("A", "3"))
        state.add_edge(state.add_access("v"), None, tasklet, "_in1", Memlet(data="v"))
        state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", "3"))
        return sdfg, state, tasklet

    @pytest.mark.parametrize("code, dtype", [
        ("_out = ((_in0 + _in1) + 1.0)", "float64"),  # the read sits below the top-level operator
        ("_out = (_in1 - _in0)", "float64"),          # v - A[3]: the target is what is subtracted
        ("_out = (_in0 - _in1)", "int64"),            # -INT64_MIN is undefined behaviour in C
        ("_out = (_in0 + _in0)", "float64"),          # the target is not one operand
    ])
    def test_wcr_detection_refuses_what_is_not_an_update(self, code, dtype):
        sdfg, _, _ = self._combine(code, dtype)
        assert not AugAssignToWCR().apply(sdfg)

    @pytest.mark.parametrize("code, update", [
        ("_out = (_in0 - _in1)", "_out = -(_in1)"),
        ("_out = (_in0 - (_in1 * 2.0))", "_out = -(_in1 * 2.0)"),
    ])
    def test_wcr_detection_adds_what_a_float_difference_subtracts(self, code, update):
        """IEEE 754 defines ``x - y`` as ``x + (-y)``: the update is exact."""
        sdfg, state, tasklet = self._combine(code)
        assert AugAssignToWCR().apply(sdfg)
        assert tasklet.code == update
        assert [e.data.wcr for e in state.out_edges(tasklet)] == ["+"]
        assert [e.dst_conn for e in state.in_edges(tasklet)] == ["_in1"]

    def test_wcr_detection_refuses_a_second_read_of_the_target(self):
        """trmm: ``B[i] += A[k] * B[k]`` depends on other elements' updates."""
        sdfg, _, _ = _update_loop("0")
        assert not AugAssignToWCR().apply(sdfg)

    def test_loop_to_map_refuses_a_prefix_sum(self):
        sdfg, _, _ = _update_loop("i - 1")
        assert LoopToMap().matches(sdfg) == []

    def test_loop_to_map_refuses_an_update_that_also_reads_its_target(self):
        """``A[0] += A[i]`` carried through a WCR edge is a dependence, not a reduction."""
        sdfg, body, tasklet = _update_loop("i", target="0")
        read = [e for e in body.in_edges(tasklet) if e.dst_conn == "_in0"][0]
        body.remove_edge(read)
        tasklet.in_connectors.discard("_in0")
        tasklet.code = "_out = _in1"
        body.out_edges(tasklet)[0].data.wcr = "+"
        assert LoopToMap().matches(sdfg) == []

    def test_loop_to_map_takes_a_pure_reduction(self):
        sdfg, body, tasklet = _update_loop("i", target="0")
        sdfg.add_array("B", ["N"], "float64")
        for edge in body.in_edges(tasklet):
            body.remove_edge(edge)
        tasklet.in_connectors.clear()
        body.add_edge(body.add_access("B"), None, tasklet, "_in1", Memlet.simple("B", "i"))
        tasklet.code = "_out = _in1"
        body.out_edges(tasklet)[0].data.wcr = "+"
        for node in body.data_nodes():
            if body.in_degree(node) == 0 and body.out_degree(node) == 0:
                body.remove_node(node)
        assert LoopToMap().apply(sdfg)
        sdfg.validate()

    @pytest.mark.parametrize("stores, eligible", [
        ([("i", None)], True),
        ([("i", None), ("i", "+")], True),           # zero it, then accumulate: one element
        ([("0", "+"), ("i", "+")], True),            # one operator commutes anywhere
        ([("i", None), ("i + 1", None)], False),     # iteration i + 1 overwrites i's store
        ([("2*i", None), ("2*i + 1", None)], True),  # even and odd elements never meet
        ([("0", None)], False),                      # the last store wins, in order only
        ([("i % 2", None)], False),
        ([("0", "+"), ("0", "*")], False),           # two operators do not commute
        ([("0", "+"), ("i", None)], False),
    ])
    def test_loop_to_map_needs_iterations_that_write_apart(self, stores, eligible):
        sdfg = _loop_sdfg()
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for node in body.nodes():
            body.remove_node(node)
        for index, wcr in stores:
            tasklet = body.add_tasklet("store", [], ["_out"], "_out = 1.0")
            body.add_edge(tasklet, "_out", body.add_access("A"), None,
                          Memlet.simple("A", index, wcr=wcr))
        assert bool(LoopToMap().matches(sdfg)) is eligible

    def test_loop_to_map_reads_the_stores_of_nested_scopes(self):
        """2mm's row loop: ``tmp[i, j] = 0`` inside the ``j`` map, ``tmp[i, 0:M] +=``
        leaving it — two subsets, one row index."""
        sdfg = _loop_sdfg()
        sdfg.add_array("T", ["N", 4], "float64")
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for node in body.nodes():
            body.remove_node(node)
        _, _, exit_node = body.add_mapped_tasklet(
            "row", {"j": Range(0, 4)}, {}, "_out = 0.0", {"_out": Memlet.simple("T", "i, j")},
        )
        update = body.add_tasklet("update", [], ["_out"], "_out = 1.0")
        body.add_edge(update, "_out", body.out_edges(exit_node)[0].dst, None,
                      Memlet.simple("T", "i, 0:4", wcr="+"))
        propagate_memlets_sdfg(sdfg)  # the map's own store leaves it as T[i, 0:4]
        assert LoopToMap().matches(sdfg)
        body.in_edges(exit_node)[0].data = Memlet.simple("T", "j, i")
        propagate_memlets_sdfg(sdfg)
        assert LoopToMap().matches(sdfg) == []

    def test_redundant_iteration_keeps_an_induction_free_update(self):
        """``for i: s += 5`` runs N times even though no edge reads ``s``."""
        sdfg = _loop_sdfg()
        body = [s for s in sdfg.states() if s.label == "body"][0]
        for edge in body.edges():
            edge.data = Memlet.simple("A", "0", wcr="+")
        for tasklet in body.tasklets():
            tasklet.code = "_out = 5.0"
        assert not RedundantIterationElimination().apply(sdfg)

    def test_loop_to_map_drops_ordering_edges_instead_of_routing_them(self):
        """State fusion's read→write marker must not pull the sink into the scope."""
        sdfg, body, tasklet = _update_loop("i")
        sdfg.add_array("B", ["N"], "float64")
        other = [e for e in body.in_edges(tasklet) if e.dst_conn == "_in1"][0]
        body.remove_edge(other)
        body.add_edge(body.add_access("B"), None, tasklet, "_in1", Memlet.simple("B", "i"))
        read, write = other.src, body.out_edges(tasklet)[0].dst
        body.add_nedge(read, write, Memlet.empty())
        assert AugAssignToWCR().apply(sdfg)  # leaves ``read`` with the marker only
        assert read not in body
        assert LoopToMap().apply(sdfg)
        sdfg.validate()
        scope = body.scope_dict()
        assert scope[write] is None

    def test_map_fusion_refuses_a_shifted_read(self):
        sdfg, _ = _two_maps(read_index="N - 1 - j")
        assert MapFusion().matches(sdfg) == []

    def test_map_fusion_refuses_an_intermediate_used_elsewhere(self):
        sdfg, state = _two_maps()
        later = sdfg.add_state("later")
        sdfg.add_edge(state, later, InterstateEdge())
        copy = later.add_tasklet("copy", ["_in"], ["_out"], "_out = _in")
        later.add_edge(later.add_access("T"), None, copy, "_in", Memlet.simple("T", "0"))
        later.add_edge(copy, "_out", later.add_access("B"), None, Memlet.simple("B", "0"))
        assert MapFusion().matches(sdfg) == []

    def test_map_fusion_refuses_to_carry_the_consumer_over_a_conflicting_write(self):
        """``T = f(A); B[:] = 0; B += T``: the zeroing sits between the two maps."""
        sdfg, state = _two_maps()
        exit_edge = [e for e in state.edges() if e.dst.label == "B"][0]
        exit_edge.data.wcr = "+"
        zero = state.add_tasklet("zero", [], ["_out"], "_out = 0.0")
        zeroed = state.add_access("B")
        state.add_edge(zero, "_out", zeroed, None, Memlet.simple("B", "0"))
        state.add_nedge(zeroed, exit_edge.dst, Memlet.empty())
        assert MapFusion().matches(sdfg) == []

    def test_fused_maps_pass_the_element_as_a_value(self):
        sdfg, state = _two_maps()
        assert MapFusion().apply(sdfg)
        sdfg.validate()  # no memlet names the removed intermediate
        assert "T" not in sdfg.arrays


class TestParameterizedTransforms:
    def test_map_tiling_builds_a_tile_nest(self):
        import numpy as np

        sdfg = _concrete_scale_sdfg(10)
        a = np.arange(10, dtype=np.float64)
        expected, _ = _run_sdfg(_concrete_scale_sdfg(10), A=a, B=np.zeros(10))
        tiling = MapTiling(tile_size=4)
        matches = tiling.matches(sdfg)
        assert len(matches) == 1 and "by 4" in matches[0].subject
        assert tiling.apply(sdfg)
        sdfg.validate()
        state = sdfg.states()[0]
        entries = state.map_entries()
        assert len(entries) == 2
        outer, inner = entries
        assert outer.map.params == ["i_tile"] and outer.map.tiling == 4
        assert str(outer.map.ranges[0]) == "0:10:4"
        assert inner.map.params == ["i"]
        # Tiling is idempotent: neither the tile loop nor the intra-tile
        # map re-matches.
        assert tiling.matches(sdfg) == []
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros(10))
        assert np.allclose(outputs["B"], expected["B"])
        with pytest.raises(ValueError, match="tile_size"):
            MapTiling(tile_size=0)

    def test_map_collapse_merges_perfect_nests(self):
        import numpy as np

        sdfg = SDFG("collapse")
        sdfg.add_array("A", [4, 6], "float64")
        sdfg.add_array("B", [4, 6], "float64")
        state = sdfg.add_state("s", is_start_state=True)
        outer_entry, outer_exit = state.add_map("outer", ["i"], [Range(0, 4)])
        inner_entry, inner_exit = state.add_map("inner", ["j"], [Range(0, 6)])
        tasklet = state.add_tasklet("t", ["_a"], ["_b"], "_b = _a + 1.0")
        read, write = state.add_access("A"), state.add_access("B")
        state.add_edge(read, None, outer_entry, "IN_A", Memlet.full("A", [4, 6]))
        outer_entry.add_out_connector("OUT_A")
        state.add_edge(outer_entry, "OUT_A", inner_entry, "IN_A", Memlet.full("A", [4, 6]))
        state.add_edge(inner_entry, "OUT_A", tasklet, "_a", Memlet.simple("A", "i, j"))
        state.add_edge(tasklet, "_b", inner_exit, "IN_B", Memlet.simple("B", "i, j"))
        state.add_edge(inner_exit, "OUT_B", outer_exit, "IN_B", Memlet.full("B", [4, 6]))
        state.add_edge(outer_exit, "OUT_B", write, None, Memlet.full("B", [4, 6]))
        collapse = MapCollapse()
        matches = collapse.matches(sdfg)
        assert [m.subject for m in matches] == ["outer + inner"]
        assert collapse.apply(sdfg)
        sdfg.validate()
        entries = state.map_entries()
        assert len(entries) == 1
        assert entries[0].map.params == ["i", "j"]
        assert collapse.matches(sdfg) == []
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        outputs, _ = _run_sdfg(sdfg, A=a, B=np.zeros((4, 6)))
        assert np.allclose(outputs["B"], a + 1.0)

    def test_collapse_skips_tiled_nests(self):
        """Tiled (scope-dependent) nests are not collapsible."""
        sdfg = _concrete_scale_sdfg(10)
        assert MapTiling(tile_size=4).apply(sdfg)
        assert MapCollapse().matches(sdfg) == []

    def test_tiling_then_pipeline_stays_executable(self):
        """MapTiling composes with the standard suite through compile_c."""
        import numpy as np

        from repro import compile_c, get_pipeline, run_compiled
        from repro.pipeline.spec import PassSpec
        from repro.workloads import get_kernel

        source = get_kernel("atax", {"M": 6, "N": 7})
        reference = run_compiled(compile_c(source, "dcir"))
        spec = get_pipeline("dcir").derive()
        spec.data_passes.append(PassSpec("map-tiling", {"tile_size": 4}))
        tiled = run_compiled(compile_c(source, spec))
        assert np.isclose(float(tiled.return_value), float(reference.return_value))


class TestTransformsCLI:
    def test_transforms_list_shows_pattern_metadata(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["transforms", "list", "-v"]) == 0
        printed = capsys.readouterr().out
        assert "map-tiling" in printed and "addable" in printed
        assert "tile_size=32" in printed  # defaults with presets under -v
        assert "drain=restart" in printed

    def test_transforms_match_enumerates_sites(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["transforms", "match", "--kernel", "atax", "loop-to-map"]) == 0
        printed = capsys.readouterr().out
        # loop-to-map already ran in the prefix of dcir, so the interesting
        # enumeration is map-collapse on the final graph.
        assert cli_main(["transforms", "match", "--kernel", "atax", "map-collapse"]) == 0
        printed = capsys.readouterr().out
        assert "1 match(es)" in printed and "map-collapse [map-pair]" in printed

    def test_transforms_match_json_with_params(self, capsys):
        import json as json_module

        from repro.__main__ import main as cli_main

        assert cli_main([
            "transforms", "match", "--kernel", "atax", "map-tiling",
            "--param", "tile_size=8", "--json",
        ]) == 0
        matches = json_module.loads(capsys.readouterr().out)
        assert matches and matches[0]["transformation"] == "map-tiling"
        assert "by 8" in matches[0]["subject"]

    def test_transforms_match_rejects_non_bridge_pipelines(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main([
            "transforms", "match", "--kernel", "atax", "--pipeline", "gcc",
            "map-collapse",
        ]) == 2
        assert "bridge" in capsys.readouterr().err

    def test_compile_verbose_prints_match_accounting(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["compile", "--kernel", "atax", "--verbose"]) == 0
        printed = capsys.readouterr().out
        assert "data passes:" in printed
        assert "matches=" in printed and "applied=" in printed
        # Both stages stop by themselves: a nest raises inside-out in one
        # loop-to-map run, so atax's data stage is done before its cap.
        stage_lines = {line.split()[0]: line for line in printed.splitlines() if line[:2] == "  "}
        assert "iteration cap" not in stage_lines["data"]
        assert "iteration cap" not in stage_lines["control"]
