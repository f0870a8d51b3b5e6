"""Tests for the pipeline auto-tuning subsystem and its CI plumbing.

Covers the search space (deterministic, deduplicated candidate
enumeration), the spec mutation helpers behind it, seeded-search
reproducibility, the two acceptance invariants — the winner never loses
to the best pre-registered pipeline under the same evaluator, and a
repeat search over the same space is served entirely from the compile
cache with zero frontend/pass work — plus winner registration, the
``tune`` CLI and the self-describing JSON reports (library version +
spec ``content_id`` on every entry).
"""

import json
import warnings

import pytest

from repro import (
    PipelineError,
    PipelineSpec,
    Session,
    __version__,
    get_pipeline,
    unregister_pipeline,
)
from repro.__main__ import main as cli_main
from repro.codegen import have_compiler
from repro.codegen.toolchain import NATIVE_CACHE_ENV
from repro.faults import FAULTS_ENV, reset_plan
from repro.service import SUITE_SCHEMA, CompileCache, RetryPolicy
from repro.service.resilience import BACKOFF_ENV
from repro.tuning import (
    Candidate,
    ExhaustiveStrategy,
    GreedyStrategy,
    RandomStrategy,
    RuntimeEvaluator,
    SearchSpace,
    StaticEvaluator,
    get_evaluator,
    get_strategy,
    register_winner,
    tune,
    tune_kernel,
)
from repro.workloads import get_kernel

SIZES = {"NI": 6, "NJ": 7, "NK": 8}

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")


def _session(**kwargs):
    return Session(cache=CompileCache(max_entries=1024, use_env_directory=False), **kwargs)


# -- spec mutation helpers ---------------------------------------------------------------


class TestSpecMutationHelpers:
    def test_with_codegen_toggles_one_flag(self):
        dcir = get_pipeline("dcir")
        vec = dcir.with_codegen(vectorize=True)
        assert vec.codegen.vectorize and not dcir.codegen.vectorize
        assert vec.content_id() == get_pipeline("dcir+vec").content_id()

    def test_with_codegen_rejects_unknown_flags(self):
        with pytest.raises(PipelineError, match="vectorize"):
            get_pipeline("dcir").with_codegen(vectorise=True)

    def test_swap_passes_changes_content_and_order(self):
        dcir = get_pipeline("dcir")
        swapped = dcir.swap_passes("data", 0, 1)
        assert swapped.content_id() != dcir.content_id()
        assert [p.name for p in swapped.data_passes[:2]] == [
            dcir.data_passes[1].name,
            dcir.data_passes[0].name,
        ]
        # Swapping back restores the original content identity.
        assert swapped.swap_passes("data", 0, 1).content_id() == dcir.content_id()

    def test_swap_passes_range_and_stage_validation(self):
        dcir = get_pipeline("dcir")
        with pytest.raises(PipelineError, match="out of range"):
            dcir.swap_passes("data", 0, 99)
        with pytest.raises(PipelineError, match="stage"):
            dcir.swap_passes("codegen", 0, 1)

    def test_with_passes_replaces_one_stage(self):
        dcir = get_pipeline("dcir")
        trimmed = dcir.with_passes("control", ["canonicalize", "dce"])
        assert [p.name for p in trimmed.control_passes] == ["canonicalize", "dce"]
        assert [p.name for p in trimmed.data_passes] == [
            p.name for p in dcir.data_passes
        ]


# -- search space ------------------------------------------------------------------------


class TestSearchSpace:
    def test_candidates_are_deduplicated_by_content(self):
        candidates = SearchSpace("dcir").candidates()
        ids = [candidate.content_id for candidate in candidates]
        assert len(ids) == len(set(ids))
        # dcir is both the base and a registered seed: only "base" survives.
        origins = [candidate.origin for candidate in candidates]
        assert "base" in origins and "registered:dcir" not in origins
        # Interpreted, vectorize changes no emitted byte and is not offered,
        # so the only codegen mutation is the native-backend axis (present
        # exactly when this machine has a C compiler).
        from repro.codegen import have_compiler

        codegen_origins = [o for o in origins if o.startswith("codegen:")]
        if have_compiler():
            assert codegen_origins == ["codegen:backend=native"]
        else:
            assert codegen_origins == []
        assert "registered:dcir+vec" in origins

    def test_enumeration_is_deterministic(self):
        first = [c.content_id for c in SearchSpace("dcir").candidates()]
        second = [c.content_id for c in SearchSpace("dcir").candidates()]
        assert first == second

    def test_base_is_always_first(self):
        assert SearchSpace("gcc").candidates()[0].origin == "base"

    def test_ablations_cover_every_distinct_pass(self):
        space = SearchSpace("dcir", include_registered=False)
        dcir = get_pipeline("dcir")
        expected = {p.name for p in dcir.control_passes + dcir.data_passes}
        ablated = {
            candidate.origin.split(":", 1)[1]
            for candidate in space.candidates()
            if candidate.origin.startswith("ablate:")
        }
        assert ablated == expected

    def test_vectorize_is_offered_only_to_native_code(self):
        def codegen_origins(base):
            space = SearchSpace(base, include_registered=False)
            return {c.origin for c in space.candidates() if c.origin.startswith("codegen:")}

        assert not any(o.startswith("codegen:vectorize") for o in codegen_origins("dcir"))
        native = get_pipeline("dcir").with_codegen(backend="native")
        assert "codegen:vectorize=True" in codegen_origins(native)

    def test_non_bridge_base_sweeps_mlir_codegen_flags(self):
        space = SearchSpace("gcc", include_registered=False)
        origins = {c.origin for c in space.candidates() if c.origin.startswith("codegen:")}
        assert origins == {"codegen:native_scalars=False", "codegen:preallocate=False"}

    def test_stage_mutations_rejects_unknown_stage(self):
        space = SearchSpace("dcir")
        with pytest.raises(PipelineError, match="stage"):
            space.stage_mutations(space.base, "frontend")

    def test_parameter_axes_sweep_declared_presets(self):
        space = SearchSpace("dcir", include_registered=False)
        origins = {c.origin for c in space.candidates() if c.origin.startswith("param:")}
        # stack-promotion is the only paper-suite pass with a declared axis;
        # its default preset is skipped (identical compilation).
        assert origins == {
            "param:stack-promotion:max_elements=1024",
            "param:stack-promotion:max_elements=16384",
            "param:stack-promotion:max_elements=262144",
        }
        for candidate in space.candidates():
            if candidate.origin.startswith("param:"):
                promo = [p for p in candidate.spec.data_passes if p.name == "stack-promotion"]
                assert len(promo) == 1 and "max_elements" in promo[0].params

    def test_additions_propose_addable_scheduling_transforms(self):
        space = SearchSpace("dcir", include_registered=False)
        origins = {c.origin for c in space.candidates() if c.origin.startswith("add:")}
        assert "add:map-tiling(tile_size=16)" in origins
        assert "add:map-collapse" in origins
        # Added passes land at the end of the data stage with their params.
        tiled = next(c for c in space.candidates()
                     if c.origin == "add:map-tiling(tile_size=16)")
        assert tiled.spec.data_passes[-1].name == "map-tiling"
        assert tiled.spec.data_passes[-1].params == {"tile_size": 16}

    def test_additions_skip_non_bridge_pipelines(self):
        space = SearchSpace("gcc", include_registered=False)
        assert not any(c.origin.startswith(("add:", "param:", "limit:"))
                       for c in space.candidates())

    def test_limit_variants_cap_pattern_passes(self):
        space = SearchSpace("dcir", include_registered=False)
        limited = [c for c in space.candidates() if c.origin.startswith("limit:")]
        assert len(limited) == len(space.base.data_passes)
        for candidate in limited:
            name = candidate.origin[len("limit:"):-2]
            spec = next(p for p in candidate.spec.data_passes if p.name == name)
            assert spec.params.get("max_applications") == 1

    def test_parameterized_candidates_compile_and_score(self):
        """Greedy over the parameterized space never loses to dcir (atax has
        a map scope, so tiling/collapse candidates are live)."""
        report = tune_kernel(
            "atax", strategy=GreedyStrategy(rounds=1), session=_session(),
            space=SearchSpace("dcir", include_registered=False),
        )
        base_entry = next(e for e in report.ranking if e.candidate.origin == "base")
        assert report.winner is not None
        assert report.winner.score <= base_entry.score
        scored_origins = {e.candidate.origin for e in report.ranking if e.ok}
        assert any(o.startswith("add:map-tiling") for o in scored_origins)
        assert "add:map-collapse" in scored_origins


# -- strategies and evaluators -----------------------------------------------------------


class TestStrategies:
    def test_random_strategy_is_seed_deterministic(self):
        space = SearchSpace("dcir")
        picks = []
        for _ in range(2):
            batches = []
            RandomStrategy(budget=6, seed=42).run(space, lambda b: batches.extend(b) or [])
            picks.append([c.content_id for c in batches])
        assert picks[0] == picks[1]
        assert len(picks[0]) == 6
        assert picks[0][0] == space.base.content_id()  # base always evaluated

    def test_different_seeds_sample_differently(self):
        space = SearchSpace("dcir")

        def sample(seed):
            batch = []
            RandomStrategy(budget=8, seed=seed).run(space, lambda b: batch.extend(b) or [])
            return [c.content_id for c in batch]

        assert sample(0) != sample(1)

    def test_budget_caps_evaluations(self):
        space = SearchSpace("dcir")
        seen = []
        ExhaustiveStrategy(budget=5).run(space, lambda b: seen.extend(b) or [])
        assert len(seen) == 5

    def test_registry_lookup_errors_suggest(self):
        with pytest.raises(PipelineError, match="exhaustive"):
            get_strategy("exhaustve")
        with pytest.raises(PipelineError, match="static"):
            get_evaluator("sttic")

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(PipelineError, match="budget"):
            ExhaustiveStrategy(budget=0)
        with pytest.raises(PipelineError, match="rounds"):
            GreedyStrategy(rounds=0)


# -- tuning end-to-end -------------------------------------------------------------------


class TestTuning:
    def test_winner_at_least_matches_best_registered_pipeline(self):
        """Acceptance: registered seeds bound the winner from above."""
        report = tune_kernel("gemm", sizes=SIZES, session=_session())
        assert report.winner is not None
        best_registered = report.best_registered()
        assert best_registered is not None
        assert report.winner.score <= best_registered.score

    def test_seeded_search_is_reproducible(self):
        first = tune_kernel("gemm", sizes=SIZES, budget=8, seed=0, session=_session())
        second = tune_kernel("gemm", sizes=SIZES, budget=8, seed=0, session=_session())
        assert first.winner_id == second.winner_id
        assert [e.content_id for e in first.ranking] == [
            e.content_id for e in second.ranking
        ]

    def test_repeat_run_is_pure_cache_reuse_with_zero_work(self):
        """Acceptance: second search = all cache hits, no frontend/pass work."""
        session = _session()
        first = tune_kernel("gemm", sizes=SIZES, budget=8, seed=0, session=session)
        second = tune_kernel("gemm", sizes=SIZES, budget=8, seed=0, session=session)
        assert first.counters.get("frontend.runs", 0) > 0
        assert second.counters == {}
        assert second.cache_misses == 0
        assert second.cache_hits == len(second.ranking)
        assert all(entry.cache_hit for entry in second.ranking)
        assert second.winner_id == first.winner_id

    def test_counters_account_for_every_fresh_compile(self):
        """Fresh compiles of later-disqualified candidates (e.g. the
        unscorable MLIR seeds under the static evaluator) still count:
        counters == {} must mean literally zero compile work happened."""
        report = tune_kernel("gemm", sizes=SIZES, session=_session())
        fresh = sum(1 for entry in report.ranking if not entry.cache_hit)
        unscorable = sum(1 for entry in report.ranking if not entry.ok)
        assert unscorable > 0  # gcc/clang/mlir seeds cannot be scored statically
        assert report.counters.get("frontend.runs") == fresh

    def test_tune_kernel_rejects_seed_without_budget(self):
        with pytest.raises(PipelineError, match="budget"):
            tune_kernel("gemm", sizes=SIZES, seed=7, session=_session())

    def test_search_space_enumeration_is_cached(self):
        space = SearchSpace("dcir")
        assert space.candidates() is not space.candidates()  # callers get copies
        assert [c.content_id for c in space.candidates()] == [
            c.content_id for c in space.candidates()
        ]
        assert len(space) == len(space.candidates())

    def test_greedy_strategy_never_loses_to_the_base(self):
        session = _session()
        report = tune_kernel(
            "gemm", sizes=SIZES, strategy=GreedyStrategy(rounds=1), session=session,
            space=SearchSpace("dcir", include_registered=False),
        )
        base_entry = next(
            entry for entry in report.ranking if entry.candidate.origin == "base"
        )
        assert report.winner is not None
        assert report.winner.score <= base_entry.score

    def test_runtime_evaluator_scores_and_checks_results(self):
        space = SearchSpace("dcir", include_registered=False)
        report = tune(
            get_kernel("gemm", SIZES),
            strategy=ExhaustiveStrategy(budget=4),
            evaluator=RuntimeEvaluator(repetitions=2),
            space=space,
            session=_session(executor="serial"),
            kernel="gemm",
        )
        assert report.evaluator == "runtime"
        assert report.winner is not None
        scored = [entry for entry in report.ranking if entry.ok]
        assert all(entry.run_seconds > 0 for entry in scored)

    def test_unsound_candidates_are_disqualified_not_ranked(self):
        session = _session(executor="serial")
        source = get_kernel("gemm", SIZES)
        base = get_pipeline("dcir")
        candidates = [Candidate(base.derive(), "identity")]

        sound = RuntimeEvaluator(repetitions=1).evaluate(
            source, candidates, session, base=base
        )
        assert sound[0].ok  # the faithful candidate matches the base checksum

        # Poison the memoized base reference: the differential check must
        # now disqualify the candidate instead of ranking it.
        poisoned = RuntimeEvaluator(repetitions=1)
        reference = poisoned._reference(source, session, None, base)
        key = next(iter(poisoned._references))
        poisoned._references[key] = reference + 1000.0
        mismatched = poisoned.evaluate(source, candidates, session, base=base)
        assert not mismatched[0].ok
        assert mismatched[0].error_type == "ResultMismatch"
        assert mismatched[0].score is None

    def test_error_candidates_rank_after_scored_ones(self):
        bad = PipelineSpec(control_passes=["canonicalize"])
        bad.control_passes[0].name = "no-such-pass"  # bypass of() validation
        evaluated = StaticEvaluator().evaluate(
            get_kernel("gemm", SIZES),
            [Candidate(get_pipeline("dcir"), "base"), Candidate(bad, "broken")],
            _session(executor="serial"),
        )
        from repro.tuning import rank_candidates

        ranking = rank_candidates(evaluated)
        assert ranking[0].ok and not ranking[-1].ok
        assert ranking[-1].error_type is not None

    def test_static_evaluator_cannot_score_mlir_backends(self):
        evaluated = StaticEvaluator().evaluate(
            get_kernel("gemm", SIZES),
            [Candidate(get_pipeline("gcc"), "registered:gcc")],
            _session(executor="serial"),
        )
        assert not evaluated[0].ok
        assert evaluated[0].error_type == "Unscorable"


# -- one session, one answer ------------------------------------------------------------


class TestOneAnswerPerSession:
    """Suites and the tuner compile through ``Session.compile_many``: the
    session's deadline, retry policy and degradation mode hold for every
    request it compiles, whichever entry point asked."""

    def test_session_deadline_fails_every_suite_entry_and_candidate(self):
        session = _session(
            timeout=1e-6, executor="serial",
            retry_policy=RetryPolicy(max_attempts=2, sleep=lambda _s: None),
        )
        suite = session.run_suite(
            {"gemm": get_kernel("gemm", SIZES)}, pipelines=("gcc", "dcir")
        )
        assert [entry.error_type for entry in suite.entries] == ["CompileTimeout"] * 2
        assert [entry.failure_kind for entry in suite.entries] == ["timeout"] * 2
        assert [entry.attempts for entry in suite.entries] == [2, 2]

        report = tune_kernel("gemm", sizes=SIZES, budget=3, seed=0, session=session)
        assert report.winner is None
        assert [entry.error_type for entry in report.ranking] == ["CompileTimeout"] * 3

    def test_strict_session_reaches_every_candidate_result(self):
        modes = []

        class Recording(StaticEvaluator):
            def _compile(self, *args):
                evaluated = super()._compile(*args)
                modes.extend(entry.result.degradation for entry in evaluated)
                return evaluated

        report = tune_kernel(
            "gemm", sizes=SIZES, budget=4, seed=0, evaluator=Recording(),
            session=_session(executor="serial", degradation="strict"),
        )
        assert len(modes) == len(report.ranking) == 4
        assert set(modes) == {"strict"}

    @requires_cc
    @pytest.mark.parametrize(
        "degradation, error_type", [("fallback", "Degraded"), ("strict", "ToolchainCrash")]
    )
    def test_a_failed_native_build_scores_no_candidate(
        self, degradation, error_type, tmp_path, monkeypatch
    ):
        """A native candidate that ran interpreted timed another program:
        it is recorded as degraded (or, strict, as the typed build error),
        never ranked against native times."""
        monkeypatch.setenv(FAULTS_ENV, "cc_crash:1")
        monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(BACKOFF_ENV, "0.001")
        reset_plan()
        native = get_pipeline("dcir").with_codegen(backend="native")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # fallback warns per build
            report = tune(
                get_kernel("gemm", SIZES),
                base=native,
                strategy=ExhaustiveStrategy(budget=3),
                evaluator=RuntimeEvaluator(repetitions=1, warmup=0),
                space=SearchSpace(native, include_registered=False),
                session=_session(executor="serial", degradation=degradation),
                kernel="gemm",
            )
        assert report.winner is None
        assert [entry.error_type for entry in report.ranking] == [error_type] * 3
        assert all(entry.error for entry in report.ranking)  # the diagnostic is kept


# -- winner registration -----------------------------------------------------------------


class TestWinnerRegistration:
    def test_register_winner_preserves_content_identity(self):
        session = _session()
        report = tune_kernel("gemm", sizes=SIZES, budget=6, seed=1, session=session)
        try:
            spec = register_winner(report, "test-tuned", overwrite=True)
            assert spec.name == "test-tuned"
            assert spec.content_id() == report.winner_id
            # Compiling by the new name hits the tuning run's cache entry.
            result = session.compile(get_kernel("gemm", SIZES), "test-tuned")
            assert result.cache_hit
        finally:
            unregister_pipeline("test-tuned")

    def test_register_winner_requires_a_winner(self):
        from repro.tuning import TuningReport

        empty = TuningReport(kernel="gemm", base_id="x", base_label="dcir")
        with pytest.raises(PipelineError, match="no scorable candidate"):
            register_winner(empty, "nope")


# -- reports are self-describing ---------------------------------------------------------


class TestReportsSelfDescribing:
    def test_tuning_report_carries_version_and_content_ids(self, tmp_path):
        report = tune_kernel("gemm", sizes=SIZES, budget=5, seed=0, session=_session())
        document = report.to_dict()
        assert document["schema"] == "repro-tune/v1"
        assert document["version"] == __version__
        assert document["kernel"] == "gemm"
        assert document["sizes"]["NI"] == SIZES["NI"]
        assert document["strategy"] == {"name": "random", "budget": 5, "seed": 0}
        for rank, entry in enumerate(document["candidates"], start=1):
            assert entry["rank"] == rank
            assert entry["content_id"]
            assert entry["spec"] is not None
        assert document["winner"]["content_id"] == report.winner_id
        # The embedded winner spec round-trips to the same content address.
        rebuilt = PipelineSpec.from_dict(document["winner"]["spec"])
        assert rebuilt.content_id() == report.winner_id

        path = report.write(tmp_path / "tune.json")
        assert json.loads(path.read_text())["winner"]["content_id"] == report.winner_id

    def test_suite_report_carries_version_and_spec_ids(self):
        session = _session()
        suite = session.run_suite(
            {"gemm": get_kernel("gemm", SIZES)}, pipelines=("gcc", "dcir")
        )
        document = suite.to_dict()
        assert document["schema"] == SUITE_SCHEMA
        assert document["version"] == __version__
        assert len(document["entries"]) == 2
        for entry in document["entries"]:
            assert entry["spec_id"]
        assert document["entries"][0]["spec_id"] == get_pipeline("gcc").content_id()
        assert document["entries"][1]["spec_id"] == get_pipeline("dcir").content_id()


# -- service plumbing --------------------------------------------------------------------


class TestServicePlumbing:
    def test_contains_compile_probes_without_compiling(self):
        cache = CompileCache(use_env_directory=False)
        source = get_kernel("gemm", SIZES)
        assert not cache.contains_compile(source, "dcir")
        cache.get_or_compile(source, "dcir")
        assert cache.contains_compile(source, "dcir")
        assert not cache.contains_compile(source, "gcc")


# -- the tune CLI ------------------------------------------------------------------------


class TestTuneCLI:
    def test_tune_cli_writes_a_self_describing_report(self, tmp_path, capsys):
        out = tmp_path / "tune.json"
        code = cli_main([
            "tune", "--kernel", "gemm", "--size", "NI=6", "NJ=7", "NK=8",
            "--budget", "6", "--seed", "0", "--executor", "serial", "-o", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "winner:" in printed
        document = json.loads(out.read_text())
        assert document["schema"] == "repro-tune/v1"
        assert document["version"] == __version__
        assert document["winner"]["content_id"]
        assert document["strategy"] == {"name": "random", "budget": 6, "seed": 0}
        assert document["sizes"]["NI"] == 6  # --size overrides the default

    def test_tune_cli_is_deterministic_across_invocations(self, tmp_path):
        winners = []
        for tag in ("a", "b"):
            out = tmp_path / f"tune-{tag}.json"
            assert cli_main([
                "tune", "--kernel", "gemm", "--size", "NI=6", "NJ=7", "NK=8",
                "--budget", "6", "--seed", "0", "--executor", "serial",
                "-o", str(out),
            ]) == 0
            winners.append(json.loads(out.read_text())["winner"]["content_id"])
        assert winners[0] == winners[1]

    def test_tune_cli_rejects_unknown_kernel(self, capsys):
        assert cli_main(["tune", "--kernel", "gemmm", "--budget", "2"]) == 2
        assert "gemm" in capsys.readouterr().err

    def test_tune_cli_rejects_inapplicable_options(self):
        # --seed without --budget would silently run an unseeded exhaustive
        # search; the CLI must refuse instead of ignoring the option.
        with pytest.raises(SystemExit, match="--seed"):
            cli_main(["tune", "--kernel", "gemm", "--seed", "7"])
        with pytest.raises(SystemExit, match="--rounds"):
            cli_main(["tune", "--kernel", "gemm", "--rounds", "3"])
        with pytest.raises(SystemExit, match="--repetitions"):
            cli_main(["tune", "--kernel", "gemm", "--budget", "2", "--seed", "0",
                      "--repetitions", "5"])
