"""Tests for the compilation service layer (cache, batch, session).

Covers the cache hit/miss semantics, run-equivalence of rehydrated
results, ``compile_many`` error isolation, the suite runner's six-pipeline
differential check on a PolyBench subset, and the clear ``PipelineError``
for a ``function=`` that does not exist.
"""

import json
import os

import pytest

from repro import PIPELINES, PipelineError, compile_c
from repro.conversion import mlir_to_sdfg
from repro.frontend import compile_c_to_mlir
from repro.service import (
    CACHE_DIR_ENV,
    CompileCache,
    CompileRequest,
    Session,
    cache_key,
    compile_many,
    normalize_source,
)
from repro.workloads import polybench_suite

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

TWO_FUNCTIONS = """
double helper() { return 2.0; }
double entry() { double x = 21.0; return x * 2.0; }
"""

#: Tiny problem sizes: the differential suite compiles 6 pipelines per kernel.
_TINY = {
    "gemm": {"NI": 5, "NJ": 6, "NK": 7},
    "atax": {"M": 6, "N": 8},
    "jacobi-1d": {"N": 12, "T": 2},
}


def _fresh_cache(**kwargs):
    kwargs.setdefault("use_env_directory", False)
    return CompileCache(**kwargs)


class TestCacheKey:
    def test_formatting_variations_share_a_key(self):
        base = cache_key(SAXPY, "dcir")
        assert cache_key(SAXPY.replace("\n", "\r\n"), "dcir") == base
        assert cache_key("\n\n" + SAXPY.replace("\n", "   \n"), "dcir") == base

    def test_pipeline_and_function_are_part_of_the_key(self):
        assert cache_key(SAXPY, "dcir") != cache_key(SAXPY, "gcc")
        assert cache_key(SAXPY, "dcir") != cache_key(SAXPY, "dcir", function="saxpy")
        assert cache_key(SAXPY, "dcir") != cache_key(SAXPY + "int g() { return 1; }", "dcir")

    def test_normalize_source_keeps_contents(self):
        assert "a * x[i] + y[i]" in normalize_source(SAXPY)


class TestCacheSemantics:
    def test_miss_then_hit(self):
        cache = _fresh_cache()
        first = cache.get_or_compile(SAXPY, "dcir")
        second = cache.get_or_compile(SAXPY, "dcir")
        assert not first.cache_hit
        assert second.cache_hit
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_hits_are_fresh_objects(self):
        # Rehydration must never alias: callers may stash or mutate results.
        cache = _fresh_cache()
        first = cache.get_or_compile(SAXPY, "dcir")
        second = cache.get_or_compile(SAXPY, "dcir")
        third = cache.get_or_compile(SAXPY, "dcir")
        assert second is not first and third is not second
        assert second.runner is not third.runner

    def test_lru_eviction(self):
        cache = _fresh_cache(max_entries=2)
        for pipeline in ("gcc", "clang", "mlir"):
            cache.get_or_compile(SAXPY, pipeline)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        # The oldest entry (gcc) was evicted and recompiles as a miss.
        assert not cache.get_or_compile(SAXPY, "gcc").cache_hit
        assert cache.get_or_compile(SAXPY, "mlir").cache_hit

    def test_disk_store_survives_cache_instances(self, tmp_path):
        first = _fresh_cache(directory=tmp_path)
        cold = first.get_or_compile(SAXPY, "gcc")
        assert not cold.cache_hit
        assert list(tmp_path.glob("*.json"))

        second = _fresh_cache(directory=tmp_path)
        warm = second.get_or_compile(SAXPY, "gcc")
        assert warm.cache_hit
        assert second.stats.disk_hits == 1
        assert warm.run()["__return"] == cold.run()["__return"]

    def test_stale_payload_version_is_a_miss(self, tmp_path):
        from repro.service import payload_digest

        cache = _fresh_cache(directory=tmp_path)
        key = cache_key(SAXPY, "gcc")
        cache.get_or_compile(SAXPY, "gcc")
        path = tmp_path / f"{key}.json"
        envelope = json.loads(path.read_text())
        envelope["payload"]["version"] = -1
        # Re-seal the checksum so this tests *version* staleness, not the
        # integrity check (a stale checksum would also be rejected, but
        # through the corruption path).
        envelope["sha256"] = payload_digest(envelope["payload"])
        path.write_text(json.dumps(envelope), encoding="utf-8")
        result = _fresh_cache(directory=tmp_path).get_or_compile(SAXPY, "gcc")
        assert not result.cache_hit  # incompatible entries never rehydrate

    def test_an_entry_stored_by_another_release_is_a_miss(self, tmp_path, monkeypatch):
        """Emitted text changes between releases: the version is part of the key,
        so a directory filled by the previous release serves nothing."""
        import repro.service.cache as cache_module

        monkeypatch.setattr(cache_module, "__version__", "1.8.0")
        old_key = cache_key(SAXPY, "dcir")
        _fresh_cache(directory=tmp_path).get_or_compile(SAXPY, "dcir")
        assert (tmp_path / f"{old_key}.json").exists()
        monkeypatch.undo()
        assert cache_key(SAXPY, "dcir") != old_key
        assert not _fresh_cache(directory=tmp_path).get_or_compile(SAXPY, "dcir").cache_hit

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = _fresh_cache(directory=tmp_path)
        key = cache_key(SAXPY, "gcc")
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        result = cache.get_or_compile(SAXPY, "gcc")
        assert not result.cache_hit
        # The store was repaired: the entry is readable again.
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry["payload"]["pipeline"] == "gcc"

    def test_cross_invocation_disk_cache(self, tmp_path):
        # CI runs this test in two consecutive pytest invocations with a
        # shared REPRO_CACHE_DIR: the second invocation rehydrates compiles
        # the first one stored.  Without the env var it degrades to a
        # same-process check against a temporary directory.
        directory = os.environ.get(CACHE_DIR_ENV) or str(tmp_path)
        first = CompileCache(directory=directory).get_or_compile(SAXPY, "dcir")
        second = CompileCache(directory=directory).get_or_compile(SAXPY, "dcir")
        assert second.cache_hit  # served from disk, not the instance LRU
        assert second.run()["__return"] == first.run()["__return"]

    def test_env_directory_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        CompileCache().get_or_compile(SAXPY, "gcc")
        assert list(tmp_path.glob("*.json"))
        warm = CompileCache().get_or_compile(SAXPY, "gcc")
        assert warm.cache_hit


class TestRehydration:
    @pytest.mark.parametrize("pipeline", ["gcc", "mlir", "dcir", "dcir+vec"])
    def test_rehydrated_results_are_run_equivalent(self, pipeline):
        cache = _fresh_cache()
        fresh = cache.get_or_compile(SAXPY, pipeline)
        rehydrated = cache.get_or_compile(SAXPY, pipeline)
        fresh_out = fresh.run()
        warm_out = rehydrated.run()
        assert warm_out["__return"] == fresh_out["__return"]
        assert warm_out.get("__allocations") == fresh_out.get("__allocations")
        assert rehydrated.code == fresh.code

    def test_rehydrated_movement_report_matches(self):
        cache = _fresh_cache()
        fresh = cache.get_or_compile(SAXPY, "dcir")
        rehydrated = cache.get_or_compile(SAXPY, "dcir")
        fresh_report = fresh.movement_report()
        cached_report = rehydrated.movement_report()
        assert cached_report is not None
        assert cached_report.elements_moved == pytest.approx(fresh_report.elements_moved)
        assert cached_report.bytes_moved == pytest.approx(fresh_report.bytes_moved)
        assert cached_report.allocations == pytest.approx(fresh_report.allocations)
        assert rehydrated.eliminated_containers == fresh.eliminated_containers
        # Custom symbol bindings need the live SDFG: a rehydrated result
        # returns None rather than statistics computed for other values.
        assert rehydrated.movement_report({"N": 4096.0}) is None
        assert fresh.movement_report({"N": 4096.0}) is not None


class TestCompileMany:
    def test_error_isolation(self):
        items = [
            (SAXPY, "dcir"),
            ("int broken( {", "gcc"),  # syntactically invalid
            (SAXPY, "nonsense-pipeline"),
            (SAXPY, "mlir"),
        ]
        outcomes = compile_many(items, executor="thread")
        assert [outcome.ok for outcome in outcomes] == [True, False, False, True]
        assert outcomes[1].error_type == "CParseError"
        assert outcomes[2].error_type == "PipelineError"
        assert "nonsense-pipeline" in outcomes[2].error
        assert outcomes[1].error_traceback  # full traceback captured for debugging
        assert outcomes[3].result.run()["__return"] == outcomes[0].result.run()["__return"]

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executors_agree(self, executor):
        outcomes = compile_many([(SAXPY, p) for p in ("gcc", "dcir")], executor=executor)
        values = [outcome.result.run()["__return"] for outcome in outcomes]
        assert values[0] == pytest.approx(values[1], rel=1e-9)

    def test_batch_warms_and_uses_the_cache(self):
        cache = _fresh_cache()
        cold = compile_many([(SAXPY, "gcc"), (SAXPY, "dcir")], executor="serial", cache=cache)
        assert not any(outcome.cache_hit for outcome in cold)
        warm = compile_many([(SAXPY, "gcc"), (SAXPY, "dcir")], executor="serial", cache=cache)
        assert all(outcome.cache_hit for outcome in warm)
        assert cache.stats.misses == 2

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            compile_many([(SAXPY, "gcc"), (SAXPY, "dcir")], executor="rayon")


class TestMissingFunction:
    def test_compile_c_raises_pipeline_error(self):
        for pipeline in ("dcir", "dace", "gcc"):
            with pytest.raises(PipelineError) as excinfo:
                compile_c(TWO_FUNCTIONS, pipeline, function="does_not_exist")
            assert "does_not_exist" in str(excinfo.value)
            assert "entry" in str(excinfo.value)  # lists what *is* available

    def test_mlir_to_sdfg_raises_pipeline_error(self):
        module = compile_c_to_mlir(TWO_FUNCTIONS)
        with pytest.raises(PipelineError, match="does_not_exist"):
            mlir_to_sdfg(module, function="does_not_exist")

    def test_existing_function_still_compiles(self):
        result = compile_c(TWO_FUNCTIONS, "dcir", function="entry")
        assert result.run()["__return"] == pytest.approx(42.0)


class TestSuiteRunner:
    def test_six_pipeline_differential_on_polybench_subset(self):
        session = Session(cache=_fresh_cache(max_entries=1024))
        report = session.run_suite(
            polybench_suite(sorted(_TINY), sizes=_TINY), pipelines=PIPELINES
        )
        assert report.ok, [f"{e.workload}/{e.pipeline}: {e.error}" for e in report.failures]
        assert len(report.entries) == len(_TINY) * len(PIPELINES)
        assert report.disagreements(rel=1e-9) == {}
        # Movement statistics are reported for the data-centric pipelines.
        assert any(
            entry.moved_bytes for entry in report.entries if entry.pipeline == "dcir"
        )

        # Sweeping the same suite again is served entirely from the cache and
        # at least 5× faster on compile time (benchmarks/e2e measures the
        # full-suite version: request_path, service.mem_hit_s).
        warm = session.run_suite(polybench_suite(sorted(_TINY), sizes=_TINY), pipelines=PIPELINES)
        assert warm.ok
        assert warm.cache_hits == len(warm.entries)
        assert warm.disagreements(rel=1e-9) == {}
        assert report.compile_seconds / max(warm.compile_seconds, 1e-9) >= 5.0

    def test_suite_isolates_broken_workloads(self):
        session = Session(cache=_fresh_cache())
        report = session.run_suite(
            {"good": SAXPY, "bad": "int broken( {"}, pipelines=("gcc", "dcir")
        )
        by_workload = report.by_workload()
        assert all(entry.ok for entry in by_workload["good"])
        assert all(not entry.ok for entry in by_workload["bad"])
        assert all(entry.error_type == "CParseError" for entry in by_workload["bad"])

    def test_parallel_suite_matches_sequential(self):
        session = Session(cache=_fresh_cache(), executor="thread")
        suite = polybench_suite(["gemm"], sizes=_TINY)
        parallel = session.run_suite(suite, pipelines=("gcc", "dcir"), parallel=True)
        sequential = Session(cache=_fresh_cache()).run_suite(suite, pipelines=("gcc", "dcir"))
        assert parallel.ok and sequential.ok
        values = {entry.pipeline: entry.return_value for entry in parallel.entries}
        for entry in sequential.entries:
            assert values[entry.pipeline] == pytest.approx(entry.return_value, rel=1e-12)

    def test_report_table_renders(self):
        session = Session(cache=_fresh_cache())
        report = session.run_suite({"saxpy": SAXPY}, pipelines=("gcc",))
        table = report.table()
        assert "saxpy" in table and "cache" in table and "total:" in table
