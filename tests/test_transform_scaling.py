"""The restart drain stays linear and its incremental patch stays exact.

Count-based, so every assertion repeats exactly: (a) on the whole
benchmark suite the match list ``StateFusion.rematch`` patches after each
fusion is the list a fresh enumeration returns; (b) on hand-built chains the
number of ``_fusable_edge`` probes grows with the number of states, not its
square, and the fused graph is node for node what the default
re-enumerating drain produces; (c) ``only_matches`` / ``max_applications``
select what they selected before the drain became incremental.
"""

import pytest

from repro import generate_program
from repro.sdfg import SDFG, InterstateEdge, Memlet
from repro.transforms import StateFusion, Transformation
from repro.workloads import get_suite

PROGRAMS = {**get_suite("polybench"), **get_suite("python")}


class ReenumeratingStateFusion(StateFusion):
    """Reference: state fusion on the base class's full re-enumeration."""

    rematch = Transformation.rematch


# -- fixtures ----------------------------------------------------------------------------


def _add_step(sdfg: SDFG, label: str, index: int):
    """A state holding one tasklet: A[index + 1] = A[index] + 1."""
    state = sdfg.add_state(label)
    tasklet = state.add_tasklet(label, ["_in"], ["_out"], "_out = _in + 1.0")
    state.add_edge(state.add_access("A"), None, tasklet, "_in", Memlet.simple("A", str(index)))
    state.add_edge(tasklet, "_out", state.add_access("A"), None, Memlet.simple("A", str(index + 1)))
    return state


def _chain(length: int, shape: str = "straight") -> SDFG:
    """``length`` single-tasklet states joined by unconditional transitions.

    ``"branch"`` splits the chain in the middle into two conditional arms
    that rejoin; ``"loop"`` puts a loop guard first and makes the chain its
    body.  Neither the arms nor the guard may be fused across.
    """
    sdfg = SDFG(f"chain_{shape}_{length}")
    sdfg.add_array("A", [length + 1], "float64")
    steps = [_add_step(sdfg, f"s{i}", i) for i in range(length)]
    for index, (src, dst) in enumerate(zip(steps, steps[1:])):
        if shape == "branch" and index == length // 2:
            sdfg.add_symbol("c")
            for arm, condition in (("then", "c > 0"), ("else", "c <= 0")):
                arm_state = sdfg.add_state(arm)
                sdfg.add_edge(src, arm_state, InterstateEdge(condition))
                sdfg.add_edge(arm_state, dst, InterstateEdge())
        else:
            sdfg.add_edge(src, dst, InterstateEdge())
    if shape == "loop":
        guard = sdfg.add_state("guard", is_start_state=True)
        after = sdfg.add_state("after")
        sdfg.add_edge(guard, steps[0], InterstateEdge("t < 3"))
        sdfg.add_edge(guard, after, InterstateEdge("t >= 3"))
        sdfg.add_edge(steps[-1], guard, InterstateEdge(assignments={"t": "t + 1"}))
    return sdfg


def _describe(sdfg: SDFG):
    """Everything state fusion decides, without object identities."""
    states = []
    for state in sdfg.states():
        numbering = {node: position for position, node in enumerate(state.nodes())}
        states.append((
            state.label,
            [(type(node).__name__, getattr(node, "data", None) or node.label)
             for node in state.nodes()],
            [(numbering[e.src], e.src_conn, numbering[e.dst], e.dst_conn, str(e.data))
             for e in state.edges()],
        ))
    transitions = [
        (e.src.label, e.dst.label, str(e.data.condition), sorted(e.data.assignments))
        for e in sdfg.edges()
    ]
    return states, transitions


def _probes(monkeypatch, transformation: StateFusion, sdfg: SDFG) -> int:
    """``_fusable_edge`` calls made by one ``apply(sdfg)``."""
    original = StateFusion._fusable_edge
    calls = []

    def counting(graph, first):
        calls.append(first)
        return original(graph, first)

    with monkeypatch.context() as patch:
        patch.setattr(StateFusion, "_fusable_edge", staticmethod(counting))
        transformation.apply(sdfg)
    return len(calls)


# -- (a) the patch equals re-enumeration on real traffic ---------------------------------


@pytest.mark.parametrize("pipeline", ["dace", "dcir"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_patched_match_list_equals_fresh_enumeration(monkeypatch, program, pipeline):
    patch = StateFusion.rematch
    checked = []

    def checking(self, sdfg, found, applied):
        patched = patch(self, sdfg, found, applied)
        for index, entry in enumerate(patched):  # what the drain does next
            entry.index = index
        fresh = self.matches(sdfg)
        assert [m.to_dict() for m in patched] == [m.to_dict() for m in fresh]
        for ours, theirs in zip(patched, fresh):
            assert ours.payload.keys() == theirs.payload.keys()
            assert all(ours.payload[key] is theirs.payload[key] for key in ours.payload)
        checked.append(applied)
        return patched

    monkeypatch.setattr(StateFusion, "rematch", checking)
    report = generate_program(PROGRAMS[program], pipeline).report
    fused = sum(
        record.applied for stage in report.stages for record in stage.records
        if record.name == "state-fusion"
    )
    assert len(checked) == fused > 0


# -- (b) probes grow linearly, the result is the reference's -------------------------------


@pytest.mark.parametrize("shape", ["straight", "branch", "loop"])
def test_fusable_edge_probes_grow_linearly(monkeypatch, shape):
    small = _probes(monkeypatch, StateFusion(), _chain(24, shape))
    large = _probes(monkeypatch, StateFusion(), _chain(96, shape))
    assert large <= 4.5 * small
    # The re-enumerating reference is the quadratic one this replaces.
    reference = _probes(monkeypatch, ReenumeratingStateFusion(), _chain(96, shape))
    assert reference > 10 * large


@pytest.mark.parametrize("shape", ["straight", "branch", "loop"])
@pytest.mark.parametrize("length", [24, 96])
def test_fused_chain_is_the_reference_result(shape, length):
    ours, theirs = _chain(length, shape), _chain(length, shape)
    fusion, reference = StateFusion(), ReenumeratingStateFusion()
    assert fusion.apply(ours) and reference.apply(theirs)
    assert _describe(ours) == _describe(theirs)
    assert (fusion.last_matches, fusion.last_applied) == (
        reference.last_matches, reference.last_applied)
    expected = {"straight": 1, "branch": 4, "loop": 3}[shape]
    assert len(ours.states()) == expected


# -- (c) match selection is what it was ----------------------------------------------------


def test_only_matches_and_max_applications_select_what_they_did():
    # Expected labels recorded from the re-enumerating drain of the parent commit.
    selected = _chain(5)
    fusion = StateFusion(only_matches=[1])
    assert fusion.apply(selected)
    assert [state.label for state in selected.states()] == ["s0", "s1"]
    assert (fusion.last_matches, fusion.last_applied) == (4, 3)

    capped = _chain(5)
    fusion = StateFusion(max_applications=2)
    assert fusion.apply(capped)
    assert [state.label for state in capped.states()] == ["s0", "s3", "s4"]
    assert (fusion.last_matches, fusion.last_applied) == (4, 2)
