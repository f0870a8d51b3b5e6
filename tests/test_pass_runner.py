"""The pass runner stops at its first quiet cycle.

``PassRunner.run`` cycles through its passes and stops as soon as the last
``len(passes)`` runs all reported no change; ``max_iterations`` caps the
stage at that many cycles.  Toy passes pin the schedule run by run.  The
sweep at the end holds the real stages to the old schedule — whole cycles
until one changes nothing — driven by hand as the oracle: the same emitted
text and the same ``converged`` flags on the 32 benchmark programs and the
case studies under the six paper pipelines, and one more run of every pass
after each stage changes nothing; on a few programs whose stages a cap of
one or two cycles cuts off, the same text and flags as well.
"""

import pytest

from repro.codegen import generate_code, generate_mlir_code
from repro.conversion import mlir_to_sdfg
from repro.passbase import PassBase, PassRunner
from repro.perf import PERF
from repro.pipeline import PAPER_PIPELINES, control_runner, data_runner, get_pipeline
from repro.pipeline.pipelines import compile_frontend
from repro.workloads import get_suite, polybench_suite, python_suite


class Countdown(PassBase):
    """Lowers ``target[key]`` by one while it is positive: a deterministic
    function of the IR that changes it ``target[key]`` times."""

    def __init__(self, key):
        self.NAME = key
        self.key = key

    def run(self, target) -> bool:
        if target.get(self.key, 0) > 0:
            target[self.key] -= 1
            return True
        return False


class Always(PassBase):
    NAME = "always"

    def run(self, target) -> bool:
        target["always"] = target.get("always", 0) + 1
        return True


def _run(passes, target, max_iterations):
    report = PassRunner(passes, max_iterations=max_iterations).run(target)
    return [(record.name, record.changed) for record in report.records], report.converged


class TestSchedule:
    def test_stops_after_one_cycle_of_quiet_runs_past_a_mid_cycle_change(self):
        passes = [Countdown("a"), Countdown("b"), Countdown("c")]
        runs, converged = _run(passes, {"b": 2}, max_iterations=5)
        assert runs == [
            ("a", False), ("b", True), ("c", False),
            ("a", False), ("b", True), ("c", False),
            ("a", False), ("b", False),
        ]
        assert converged is True

    def test_stops_at_once_after_a_quiet_first_cycle(self):
        passes = [Countdown("a"), Countdown("b")]
        runs, converged = _run(passes, {}, max_iterations=3)
        assert runs == [("a", False), ("b", False)]
        assert converged is True

    def test_a_change_in_the_last_cycle_is_not_convergence(self):
        passes = [Countdown("a"), Countdown("b"), Countdown("c")]
        runs, converged = _run(passes, {"b": 2}, max_iterations=2)
        assert len(runs) == 6 and runs[4] == ("b", True)
        assert converged is False

    def test_quiet_runs_across_a_cycle_boundary_are_a_quiet_cycle(self):
        # The last change is the first run of cycle 2: cycle 2's ``b`` and
        # cycle 3's ``a`` are quiet, so cycle 3's ``b`` is never run.
        passes = [Countdown("a"), Countdown("b")]
        target = {"a": 2}
        runs, converged = _run(passes, target, max_iterations=3)
        assert runs == [("a", True), ("b", False), ("a", True), ("b", False), ("a", False)]
        assert converged is True and target == {"a": 0}

    def test_a_pass_that_always_changes_uses_every_run_of_the_cap(self):
        passes = [Countdown("a"), Always(), Countdown("c")]
        target = {"a": 1}
        runs, converged = _run(passes, target, max_iterations=4)
        assert len(runs) == 4 * len(passes)
        assert [name for name, _ in runs] == ["a", "always", "c"] * 4
        assert converged is False and target["always"] == 4

    def test_one_iteration_is_one_cycle(self):
        passes = [Countdown("a"), Countdown("b"), Countdown("c")]
        runs, converged = _run(passes, {"b": 5}, max_iterations=1)
        assert runs == [("a", False), ("b", True), ("c", False)]
        assert converged is False
        runs, converged = _run(passes, {}, max_iterations=1)
        assert runs == [("a", False), ("b", False), ("c", False)]
        assert converged is True

    def test_an_empty_pass_list_converges_with_no_records(self):
        report = PassRunner([], max_iterations=3).run({})
        assert report.records == [] and report.converged is True

    def test_every_run_is_counted(self):
        before = PERF.snapshot()
        report = PassRunner([Countdown("a"), Countdown("b")], max_iterations=3).run({"a": 1})
        delta = PERF.delta_since(before)
        assert delta.get("passes.runs") == len(report.records) == 3
        assert delta.get("passes.applied") == 1


def _full_cycles(runner, target) -> bool:
    """The old schedule: whole cycles until one changes nothing, at most
    ``max_iterations`` of them; True iff a quiet cycle ended the stage."""
    for _ in range(runner.max_iterations):
        if not any([bool(pass_obj.run(target)) for pass_obj in runner.passes]):
            return True
    return False


def _first_quiet_cycle(runner, target) -> bool:
    """The runner's schedule; after a stage that converged, one more run of
    every pass is quiet."""
    converged = runner.run(target).converged
    if converged:
        assert [p.name for p in runner.passes if p.run(target)] == []
    return converged


def _compile(source, spec, schedule):
    """Emitted text and ``(control, data)`` converged flags of ``source``
    under ``spec``, each stage run with ``schedule``."""
    module = compile_frontend(source, spec)
    control = schedule(control_runner(spec), module) if spec.control_passes else None
    if not spec.bridge:
        code = generate_mlir_code(
            module, function=None,
            native_scalars=spec.codegen.native_scalars,
            preallocate=spec.codegen.preallocate,
        )
        return code, (control, None)
    sdfg = mlir_to_sdfg(module, function=None)
    data = schedule(data_runner(spec), sdfg)
    return generate_code(sdfg, vectorize=spec.codegen.vectorize), (control, data)


PROGRAMS = {
    **polybench_suite(),
    **python_suite(),
    **{f"casestudies/{name}": source for name, source in get_suite("casestudies").items()},
}


@pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_first_quiet_cycle_is_the_old_fixed_point(name, pipeline):
    spec = get_pipeline(pipeline)
    assert _compile(PROGRAMS[name], spec, _first_quiet_cycle) == _compile(
        PROGRAMS[name], spec, _full_cycles
    )


@pytest.mark.parametrize("name", ["2mm", "gemver", "seidel-2d", "casestudies/fig2"])
def test_a_capped_stage_reports_what_the_old_schedule_did(name):
    flags = []
    for cap in (1, 2):
        spec = get_pipeline("dcir").derive(control_max_iterations=cap, data_max_iterations=cap)
        new = _compile(PROGRAMS[name], spec, _first_quiet_cycle)
        assert new == _compile(PROGRAMS[name], spec, _full_cycles)
        flags += new[1]
    assert False in flags  # one cap or the other cuts a stage off
