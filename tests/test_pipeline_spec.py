"""Tests for the declarative PipelineSpec API.

Covers spec serialization round-trips, content-addressed cache keys
(name ≡ equivalent spec, distinct specs distinct), custom ablation
pipelines end-to-end through the cache / batch / session layers,
back-compat of the six string pipeline names, the registry's dynamic
unknown-pipeline errors, the satellite fixes (``run_compiled`` best-rep
outputs, ``CompileCache.__contains__`` validation) and the CLI.
"""

import json
import os
from dataclasses import FrozenInstanceError
import subprocess
import sys
import time

import pytest

import repro
from repro import (
    PIPELINES,
    CompileCache,
    PipelineError,
    PipelineSpec,
    Session,
    compile_c,
    compile_and_run,
    compile_many,
    generate_program,
    get_pipeline,
    list_pipelines,
    register_pipeline,
    run_compiled,
    unregister_pipeline,
)
from repro.pipeline import CompileResult, pipeline_label
from repro.pipeline.pipelines import result_from_payload
from repro.pipeline.registry import DATA_SUITE
from repro.service import cache_key, payload_digest
from repro.workloads import get_kernel

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SAXPY = """
double saxpy() {
  double x[32];
  double y[32];
  double a = 2.5;
  for (int i = 0; i < 32; i++) {
    x[i] = i * 0.5;
    y[i] = 32 - i;
  }
  for (int i = 0; i < 32; i++)
    y[i] = a * x[i] + y[i];
  double sum = 0.0;
  for (int i = 0; i < 32; i++)
    sum += y[i];
  return sum;
}
"""

_PAPER_NAMES = ("gcc", "clang", "dace", "mlir", "dcir", "dcir+vec")


def _fresh_cache(**kwargs):
    kwargs.setdefault("use_env_directory", False)
    return CompileCache(**kwargs)


def _ablated(name=None):
    """dcir without memory-reducing loop fusion — the canonical ablation."""
    return get_pipeline("dcir").without_pass("map-fusion", **({"name": name} if name else {}))


class TestRegistry:
    def test_paper_pipelines_preregistered_in_order(self):
        assert list(PIPELINES) == list(_PAPER_NAMES)
        assert list_pipelines() == list(_PAPER_NAMES)
        assert len(PIPELINES) == 6
        assert "dcir" in PIPELINES
        assert PIPELINES[0] == "gcc"

    def test_pipelines_is_a_live_view(self):
        spec = _ablated("view-test-pipeline")
        register_pipeline(spec)
        try:
            assert "view-test-pipeline" in PIPELINES
            assert "view-test-pipeline" in list_pipelines()
        finally:
            unregister_pipeline("view-test-pipeline")
        assert "view-test-pipeline" not in PIPELINES

    def test_anonymous_spec_cannot_be_registered(self):
        with pytest.raises(PipelineError, match="anonymous"):
            register_pipeline(_ablated())

    def test_duplicate_registration_requires_overwrite(self):
        spec = _ablated("dup-test-pipeline")
        register_pipeline(spec)
        try:
            with pytest.raises(PipelineError, match="already registered"):
                register_pipeline(spec)
            register_pipeline(spec, overwrite=True)  # explicit replacement is fine
        finally:
            unregister_pipeline("dup-test-pipeline")

    def test_unknown_pipeline_lists_registered_names_dynamically(self):
        with pytest.raises(PipelineError) as excinfo:
            compile_c(SAXPY, "dicr")
        message = str(excinfo.value)
        assert "dicr" in message
        assert "did you mean 'dcir'?" in message
        for name in _PAPER_NAMES:
            assert name in message

        # User-registered pipelines appear in the listing too.
        register_pipeline(_ablated("my-listed-pipeline"))
        try:
            with pytest.raises(PipelineError, match="my-listed-pipeline"):
                compile_c(SAXPY, "definitely-not-registered")
        finally:
            unregister_pipeline("my-listed-pipeline")

    def test_pass_registries_guard_against_silent_redefinition(self):
        from repro.passes import CONTROL_PASSES, register_control_pass
        from repro.transforms import register_data_pass

        class FakeCse:
            NAME = "cse"

        with pytest.raises(PipelineError, match="already registered"):
            register_control_pass(FakeCse)
        with pytest.raises(PipelineError, match="already registered"):
            register_data_pass(FakeCse, name="map-fusion")
        original = CONTROL_PASSES.get("cse")
        register_control_pass(original, overwrite=True)  # explicit replacement ok
        assert CONTROL_PASSES.get("cse") is original

    def test_unknown_pass_name_fails_fast_with_suggestion(self):
        spec = get_pipeline("dcir").derive(
            data_passes=list(get_pipeline("dcir").data_passes) + ["map-fusoin"]
        )
        with pytest.raises(PipelineError) as excinfo:
            compile_c(SAXPY, spec)
        assert "map-fusoin" in str(excinfo.value)
        assert "map-fusion" in str(excinfo.value)

    @pytest.mark.parametrize("deleted", ["scalar-to-symbol", "vectorization"])
    def test_spec_naming_a_deleted_pass_fails_validation(self, deleted):
        # A spec saved as JSON before the pass was deleted: loud, not skipped.
        saved = get_pipeline("dcir").to_dict()
        saved["data_passes"].insert(0, {"name": deleted, "params": {}})
        with pytest.raises(PipelineError) as excinfo:
            PipelineSpec.from_dict(saved).validate()
        message = str(excinfo.value)
        assert f"Unknown data-centric pass '{deleted}'" in message
        assert "registered passes: state-fusion, " in message


class TestPassSpecParams:
    def test_params_feed_the_content_address(self):
        from repro.pipeline.spec import PassSpec

        base = get_pipeline("dcir")
        tuned = base.with_passes("data", [*base.data_passes, PassSpec("map-tiling", {"tile_size": 16})])
        other = base.with_passes("data", [*base.data_passes, PassSpec("map-tiling", {"tile_size": 32})])
        assert tuned.content_id() != base.content_id()
        assert tuned.content_id() != other.content_id()
        assert "params" in tuned.cache_basis()["data_passes"][-1]

    def test_params_serialize_and_roundtrip(self):
        from repro.pipeline.spec import PassSpec

        spec = PassSpec("stack-promotion", {"max_elements": 1024})
        assert spec.to_dict() == {"name": "stack-promotion",
                                  "params": {"max_elements": 1024}}
        clone = PassSpec.of(spec.to_dict())
        assert clone == spec and clone is not spec
        assert clone.params is not spec.params

    @pytest.mark.parametrize("stale_key", ["options", "parms"])
    def test_unknown_pass_keys_are_rejected_not_dropped(self, stale_key):
        # Dropping the key would build the pass with default parameters and
        # content-alias the default spec in the compile cache.
        from repro.pipeline.spec import PassSpec

        entry = {"name": "map-fusion", stale_key: {"max_applications": 1}}
        with pytest.raises(PipelineError, match=f"'{stale_key}'.*'name', 'params'"):
            PassSpec.of(entry)
        document = get_pipeline("dcir").to_dict()
        document["data_passes"][-1] = entry
        with pytest.raises(PipelineError, match=f"'{stale_key}'"):
            PipelineSpec.from_dict(document)

    def test_with_params_returns_a_fresh_spec(self):
        from repro.pipeline.spec import PassSpec

        spec = PassSpec("map-tiling", {"tile_size": 4})
        wider = spec.with_params(tile_size=8)
        assert wider.params == {"tile_size": 8}
        assert spec.params == {"tile_size": 4}

    def test_bad_params_fail_with_a_helpful_error(self):
        from repro.pipeline.spec import PassSpec

        base = get_pipeline("dcir")
        spec = base.with_passes("data", [*base.data_passes, PassSpec("map-tiling", {"no_such_param": 1})])
        with pytest.raises(PipelineError, match="no_such_param"):
            compile_c(SAXPY, spec)


class TestSerialization:
    @pytest.mark.parametrize("name", _PAPER_NAMES)
    def test_roundtrip(self, name):
        spec = get_pipeline(name)
        clone = PipelineSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.to_dict() == spec.to_dict()
        # JSON-stable: a dump → load → dump cycle is a fixed point.
        dumped = json.dumps(spec.to_dict(), sort_keys=True)
        assert json.dumps(json.loads(dumped), sort_keys=True) == dumped

    def test_canonical_json_excludes_name_and_description(self):
        spec = get_pipeline("dcir")
        renamed = spec.derive(
            name="totally-different-name", description="other words",
        )
        assert renamed.canonical_json() == spec.canonical_json()
        assert renamed.content_id() == spec.content_id()

    def test_content_id_distinguishes_distinct_specs(self):
        dcir = get_pipeline("dcir")
        ids = {
            dcir.content_id(),
            _ablated().content_id(),
            get_pipeline("dcir+vec").content_id(),
            get_pipeline("gcc").content_id(),
        }
        assert len(ids) == 4

    def test_without_pass_rejects_absent_passes(self):
        with pytest.raises(PipelineError) as excinfo:
            get_pipeline("dcir").without_pass("map-fuson")  # typo must not no-op
        assert "map-fuson" in str(excinfo.value)
        assert "map-fusion" in str(excinfo.value)

    def test_specs_built_from_shared_options_are_independent(self):
        # Specs are values: one cannot edit the options it shares with a
        # sibling, and the caller's dict is not the specs' own.
        from repro import CodegenOptions

        codegen = CodegenOptions()
        frontend = {"run_verifier": True}
        first = PipelineSpec(codegen=codegen, frontend_options=frontend)
        second = PipelineSpec(codegen=codegen, frontend_options=frontend)
        with pytest.raises(FrozenInstanceError):
            first.codegen.vectorize = True
        with pytest.raises(TypeError, match="derive a new spec"):
            first.frontend_options["run_verifier"] = False
        frontend["run_verifier"] = False
        assert second.codegen.vectorize is False
        assert first.frontend_options == second.frontend_options == {"run_verifier": True}
        assert codegen.vectorize is False

    def test_pipelines_view_keeps_tuple_ergonomics(self):
        assert hash(PIPELINES) == hash(tuple(PIPELINES))
        assert PIPELINES + ("extra",) == tuple(_PAPER_NAMES) + ("extra",)
        assert ["x"] + list(PIPELINES) == ["x"] + list(_PAPER_NAMES)

    def test_run_polybench_default_is_a_paper_snapshot(self):
        from repro.pipeline import PAPER_PIPELINES

        assert PAPER_PIPELINES == _PAPER_NAMES
        register_pipeline(_ablated("snapshot-test"))
        try:
            assert "snapshot-test" in PIPELINES
            assert "snapshot-test" not in PAPER_PIPELINES
        finally:
            unregister_pipeline("snapshot-test")

    def test_pass_coercion_accepts_names_and_pairs(self):
        spec = PipelineSpec(control_passes=["cse", ("dce", {})])
        assert [p.name for p in spec.control_passes] == ["cse", "dce"]
        assert spec.control_passes[0].params == {}

    def test_data_passes_require_bridge(self):
        with pytest.raises(PipelineError, match="bridge"):
            PipelineSpec(data_passes=["map-fusion"])

    def test_derived_and_fetched_specs_share_no_mutable_state(self):
        # No edit of a derived or fetched spec may rewrite the registered
        # entry (that would silently change what a name means and break the
        # name ≡ equivalent-spec cache identity): specs are values, and
        # every kind of edit raises.
        derived = get_pipeline("dcir").derive(name="my-vec")
        with pytest.raises(FrozenInstanceError):
            derived.codegen.vectorize = True
        with pytest.raises(FrozenInstanceError):
            derived.data_passes = ()
        with pytest.raises(AttributeError):
            derived.data_passes.pop()
        with pytest.raises(TypeError, match="derive a new spec"):
            derived.frontend_options["run_verifier"] = False
        assert get_pipeline("dcir").codegen.vectorize is False
        assert len(get_pipeline("dcir").data_passes) == len(DATA_SUITE)
        assert get_pipeline("dcir").frontend_options == {}

        fetched = get_pipeline("gcc")
        with pytest.raises(FrozenInstanceError):
            fetched.codegen.native_scalars = False
        with pytest.raises(FrozenInstanceError):
            fetched.name = "renamed"
        assert get_pipeline("gcc").codegen.native_scalars is True
        assert get_pipeline("clang").codegen.native_scalars is True

        # A derived spec shares its parent's PassSpecs, whose params refuse edits.
        parent = get_pipeline("dcir")
        child = parent.without_pass("map-fusion")
        with pytest.raises(TypeError, match="derive a new spec"):
            child.data_passes[0].params["tweak"] = 1
        assert parent.data_passes[0].params == {}
        assert cache_key(SAXPY, parent) == cache_key(SAXPY, "dcir")

        ablated = _ablated()
        first, *rest = ablated.control_passes
        spec = ablated.with_passes(
            "control", [first.with_params(levels=[1, 2]), *rest], name="isolation-test"
        )
        register_pipeline(spec)
        try:
            with pytest.raises(FrozenInstanceError):
                spec.codegen.vectorize = True  # caller edit after registering
            with pytest.raises(AttributeError):
                spec.control_passes.append("cse")
            with pytest.raises(TypeError, match="derive a new spec"):
                spec.control_passes[0].params["levels"].append(3)  # nested edit
            assert get_pipeline("isolation-test").codegen.vectorize is False
            assert get_pipeline("isolation-test").control_passes[0].params == {"levels": [1, 2]}
            assert len(get_pipeline("isolation-test").control_passes) == len(ablated.control_passes)
        finally:
            unregister_pipeline("isolation-test")


class TestCacheKeys:
    def test_name_and_equivalent_spec_share_a_key(self):
        by_name = cache_key(SAXPY, "dcir")
        by_spec = cache_key(SAXPY, get_pipeline("dcir"))
        by_roundtrip = cache_key(SAXPY, PipelineSpec.from_dict(get_pipeline("dcir").to_dict()))
        by_renamed = cache_key(SAXPY, get_pipeline("dcir").derive(name="an-alias"))
        assert by_name == by_spec == by_roundtrip == by_renamed

    def test_distinct_specs_get_distinct_keys(self):
        keys = {
            cache_key(SAXPY, "dcir"),
            cache_key(SAXPY, _ablated()),
            cache_key(SAXPY, "dcir+vec"),
            cache_key(SAXPY, get_pipeline("dcir").derive(data_max_iterations=5)),
        }
        assert len(keys) == 4

    def test_name_and_spec_share_a_cache_entry(self):
        cache = _fresh_cache()
        cold = cache.get_or_compile(SAXPY, "dcir")
        warm = cache.get_or_compile(SAXPY, get_pipeline("dcir"))
        assert not cold.cache_hit and warm.cache_hit
        assert warm.code == cold.code


class TestBackCompat:
    @pytest.mark.parametrize("name", _PAPER_NAMES)
    def test_string_names_and_specs_generate_identical_code(self, name):
        by_name = generate_program(SAXPY, name)
        by_spec = generate_program(SAXPY, get_pipeline(name))
        assert by_name.code == by_spec.code
        assert by_name.pipeline == by_spec.pipeline == name

    def test_stage_timings_surfaced_on_generated_program(self):
        program = generate_program(SAXPY, "dcir")
        assert list(program.stage_seconds) == ["frontend", "control", "bridge", "data", "codegen"]
        assert all(seconds >= 0 for seconds in program.stage_seconds.values())
        control = program.report.stage("control")
        assert control is not None and control.records
        assert program.report.summary()

        mlir_program = generate_program(SAXPY, "mlir")
        assert list(mlir_program.stage_seconds) == ["frontend", "control", "codegen"]

    def test_stage_timings_survive_rehydration(self):
        cache = _fresh_cache()
        cache.get_or_compile(SAXPY, "dcir")
        warm = cache.get_or_compile(SAXPY, "dcir")
        assert warm.cache_hit
        assert set(warm.stage_seconds) == {"frontend", "control", "bridge", "data", "codegen"}
        assert warm.spec == get_pipeline("dcir")


    def test_stage_says_whether_it_converged_or_was_cut_off(self):
        """``data_max_iterations`` ends the data stage of 2mm while its last
        sweep still changes something; the report, the payload and the
        summary say so, and a cap the stage never reaches does not."""
        source = get_kernel("2mm")
        dcir = get_pipeline("dcir")
        cut = generate_program(source, dcir.derive(data_max_iterations=1))
        assert cut.report.stage("data").converged is False
        assert cut.report.stage("control").converged is True
        data_line = next(
            line for line in cut.report.summary().splitlines() if line.startswith("  data")
        )
        assert data_line.endswith("iteration cap reached")
        rehydrated = result_from_payload(json.loads(json.dumps(cut.to_payload())))
        assert rehydrated.report.stage("data").converged is False
        assert rehydrated.report.stage("control").converged is True

        free = generate_program(source, dcir.derive(data_max_iterations=12))
        data = free.report.stage("data")
        assert data.converged is True
        assert len(data.records) < 12 * len(dcir.data_passes)  # it stopped by itself
        assert "iteration cap reached" not in free.report.summary()
        assert result_from_payload(free.to_payload()).report.stage("data").converged is True


class TestCustomPipelineEndToEnd:
    def test_ablation_compiles_runs_and_caches(self):
        spec = _ablated()
        reference = compile_and_run(SAXPY, "dcir").return_value

        cache = _fresh_cache()
        cold = cache.get_or_compile(SAXPY, spec)
        warm = cache.get_or_compile(SAXPY, spec)
        assert not cold.cache_hit and warm.cache_hit
        assert run_compiled(warm).return_value == pytest.approx(reference, rel=1e-12)
        # The ablation really ran: map-fusion is absent from the data stage.
        applied = [record.name for record in cold.report.stage("data").records]
        assert "map-fusion" not in applied and "loop-to-map" in applied

    def test_ablation_through_compile_many(self):
        spec = _ablated()
        cache = _fresh_cache()
        cold = compile_many([(SAXPY, spec), (SAXPY, "dcir")], executor="serial", cache=cache)
        assert all(outcome.ok for outcome in cold)
        warm = compile_many([(SAXPY, spec), (SAXPY, "dcir")], executor="serial", cache=cache)
        assert all(outcome.cache_hit for outcome in warm)
        values = {outcome.request.label: outcome.result.run()["__return"] for outcome in warm}
        assert values[spec.label] == pytest.approx(values["dcir"], rel=1e-12)

    def test_ablation_through_session_suite(self):
        spec = _ablated("dcir-nofuse-session")
        session = Session(cache=_fresh_cache())
        report = session.run_suite({"saxpy": SAXPY}, pipelines=("dcir", spec))
        assert report.ok, [entry.error for entry in report.failures]
        labels = [entry.pipeline for entry in report.entries]
        assert labels == ["dcir", "dcir-nofuse-session"]
        assert report.disagreements(rel=1e-9) == {}

    def test_registered_custom_name_through_process_pool(self):
        register_pipeline(_ablated("pool-test-pipeline"))
        try:
            outcomes = compile_many(
                [(SAXPY, "pool-test-pipeline"), (SAXPY, "dcir")], executor="process"
            )
            assert all(outcome.ok for outcome in outcomes)
            assert outcomes[0].result.run()["__return"] == pytest.approx(
                outcomes[1].result.run()["__return"], rel=1e-12
            )
        finally:
            unregister_pipeline("pool-test-pipeline")

    def test_unserializable_options_are_isolated_per_item(self):
        base = get_pipeline("dcir")
        first, *rest = base.data_passes
        bad = base.with_passes("data", [first.with_params(bad={1, 2, 3}), *rest])  # sets are not JSON
        with pytest.raises(PipelineError, match="JSON-serializable"):
            compile_c(SAXPY, bad)
        outcomes = compile_many(
            [(SAXPY, bad), (SAXPY, "gcc")], executor="serial", cache=_fresh_cache()
        )
        assert [outcome.ok for outcome in outcomes] == [False, True]
        assert outcomes[0].error_type in ("PipelineError", "TypeError")

    def test_unknown_name_in_batch_is_isolated(self):
        outcomes = compile_many([(SAXPY, "no-such-pipeline"), (SAXPY, "gcc")], executor="serial")
        assert [outcome.ok for outcome in outcomes] == [False, True]
        assert outcomes[0].error_type == "PipelineError"
        assert "no-such-pipeline" in outcomes[0].error
        assert outcomes[0].error_traceback
        assert outcomes[0].failure_kind == "permanent"

    def test_parallel_suite_isolates_and_attributes_batch_errors(self):
        session = Session(cache=_fresh_cache(), executor="process")
        report = session.run_suite(
            {"good": SAXPY, "bad": "int broken( {"}, pipelines=("gcc", "dcir")
        )
        by_workload = report.by_workload()
        assert all(entry.ok for entry in by_workload["good"])
        assert all(entry.error_type == "CParseError" for entry in by_workload["bad"])
        # Cold parallel compiles report honest status, not rehydration hits.
        assert all(not entry.cache_hit for entry in by_workload["good"])

    def test_unknown_kernel_raises_pipeline_error_with_suggestion(self):
        from repro.workloads import get_kernel

        with pytest.raises(PipelineError) as excinfo:
            get_kernel("gemmm")
        assert "gemmm" in str(excinfo.value)
        assert "did you mean 'gemm'?" in str(excinfo.value)

    def test_pipeline_label(self):
        assert pipeline_label("dcir") == "dcir"
        assert pipeline_label(_ablated("labelled")) == "labelled"
        assert pipeline_label(_ablated()).startswith("custom-")


class TestRunCompiledRepetitions:
    def test_outputs_come_from_the_best_repetition(self):
        calls = []

        def runner(**kwargs):
            index = len(calls)
            calls.append(index)
            # First repetition is artificially slow: best must not be rep 0.
            if index == 0:
                time.sleep(0.02)
            return {"__return": 1.0, "call": index}

        result = CompileResult(pipeline="stub", function=None, code="", runner=runner)
        run = run_compiled(result, repetitions=4)
        assert len(run.rep_seconds) == 4
        assert run.seconds == min(run.rep_seconds)
        assert run.outputs["call"] == run.rep_seconds.index(min(run.rep_seconds))

    def test_single_repetition_keeps_contract(self):
        run = compile_and_run(SAXPY, "gcc", repetitions=1)
        assert len(run.rep_seconds) == 1
        assert run.seconds == run.rep_seconds[0]
        assert run.return_value is not None


class TestContainsValidation:
    def test_contains_agrees_with_lookup_for_stale_entries(self, tmp_path):
        cache = _fresh_cache(directory=tmp_path)
        key = cache_key(SAXPY, "gcc")
        cache.get_or_compile(SAXPY, "gcc")
        assert key in cache

        # A fresh instance sees the entry only via disk.
        fresh = _fresh_cache(directory=tmp_path)
        assert key in fresh

        # Corrupt the version: the entry must report absent, like lookup.
        # (Disk entries are checksummed envelopes; re-seal the digest so
        # this tests version staleness, not checksum corruption.)
        path = tmp_path / f"{key}.json"
        envelope = json.loads(path.read_text())
        envelope["payload"]["version"] = -1
        envelope["sha256"] = payload_digest(envelope["payload"])
        path.write_text(json.dumps(envelope), encoding="utf-8")
        stale = _fresh_cache(directory=tmp_path)
        assert key not in stale
        assert stale.lookup(key) is None

        # Corrupt JSON likewise.
        path.write_text("{not json", encoding="utf-8")
        assert key not in _fresh_cache(directory=tmp_path)


class TestCLI:
    def _run(self, *argv, **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in [_SRC_DIR, env.get("PYTHONPATH")] if path
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            **kwargs,
        )

    def test_list_pipelines(self):
        proc = self._run("list-pipelines")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == list(_PAPER_NAMES)

    def test_show_pipeline_roundtrips(self):
        proc = self._run("show-pipeline", "dcir")
        assert proc.returncode == 0, proc.stderr
        assert PipelineSpec.from_dict(json.loads(proc.stdout)) == get_pipeline("dcir")

    def test_compile_and_run_with_custom_spec(self, tmp_path):
        spec_path = tmp_path / "ablation.json"
        spec_path.write_text(json.dumps(_ablated("cli-nofuse").to_dict()), encoding="utf-8")
        proc = self._run(
            "compile", "--kernel", "gemm", "--size", "NI=5", "NJ=6", "NK=7",
            "--spec", str(spec_path), "--stats",
        )
        assert proc.returncode == 0, proc.stderr
        assert "cli-nofuse" in proc.stdout and "codegen" in proc.stdout

        proc = self._run(
            "run", "--kernel", "gemm", "--size", "NI=5", "NJ=6", "NK=7",
            "--spec", str(spec_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "return value:" in proc.stdout

    def test_unknown_pipeline_is_a_clean_error(self):
        proc = self._run("show-pipeline", "nope")
        assert proc.returncode == 2
        assert "Unknown pipeline" in proc.stderr

    def test_removed_bench_subcommand_is_an_invalid_choice(self):
        proc = self._run("bench")
        assert proc.returncode == 2
        assert "invalid choice: 'bench'" in proc.stderr
        proc = self._run("--help")
        assert proc.returncode == 0, proc.stderr
        assert "bench" not in proc.stdout

    def test_unknown_kernel_and_missing_spec_are_clean_errors(self):
        proc = self._run("compile", "--kernel", "gemmm")
        assert proc.returncode != 0
        assert "Unknown kernel" in proc.stderr and "gemm" in proc.stderr
        assert "Traceback" not in proc.stderr

        proc = self._run("compile", "--kernel", "gemm", "--spec", "/no/such/spec.json")
        assert proc.returncode != 0
        assert "Cannot read spec file" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_spec_file_with_a_typoed_pass_key_is_a_clean_error(self, tmp_path):
        document = get_pipeline("dcir").to_dict()
        document["data_passes"][0] = {"name": document["data_passes"][0]["name"], "parms": {}}
        spec_path = tmp_path / "typo.json"
        spec_path.write_text(json.dumps(document), encoding="utf-8")
        proc = self._run("compile", "--kernel", "gemm", "--spec", str(spec_path))
        assert proc.returncode != 0
        assert "Bad pipeline spec" in proc.stderr and "'parms'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_object_spec_file_is_a_clean_error(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("[]", encoding="utf-8")
        proc = self._run("compile", "--kernel", "gemm", "--spec", str(spec_path))
        assert proc.returncode != 0
        assert "Bad pipeline spec" in proc.stderr
        assert "Traceback" not in proc.stderr
