"""What a compile-cache hit costs, counted — never timed.

A warm request is key → LRU → rehydrate → loaded-library table → call.
These tests count the work a hit must *not* redo (``compile`` of the
interpreted source, ``shutil.which`` walks over PATH, fresh ``dlopen``s,
``cc`` runs, parsing the stored spec, serializing the requested spec,
copying the ABI) and pin down what the process-level tables must never
weaken: a changed ``.so``, cache directory or compiler misses the table,
results share no mutable state, and concurrent callers agree.
"""

import copy
import ctypes
import functools
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import pytest

from repro import CompileCache, PipelineSpec, compile_c, get_pipeline
from repro.codegen import CompiledNative, have_compiler, loader
from repro.codegen.toolchain import CC_ENV, NATIVE_CACHE_ENV
from repro.errors import ToolchainError
from repro.perf import PERF
from repro.service.cache import cache_key
from repro.workloads import get_kernel

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

WARM_HITS = 20


class Calls:
    """Counts calls to a wrapped callable."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.wrapped(*args, **kwargs)

    def __get__(self, instance, owner=None):
        # Installed on a class, it counts method calls too.
        return self if instance is None else functools.partial(self, instance)


@pytest.fixture
def counters(monkeypatch):
    """Counters on the six seams a warm hit must leave alone."""
    counted = {
        "compile": Calls(compile),
        "which": Calls(shutil.which),
        "CDLL": Calls(ctypes.CDLL),
        "from_dict": Calls(PipelineSpec.from_dict),
        "deepcopy": Calls(copy.deepcopy),
        "basis": Calls(PipelineSpec._basis),
    }

    def install():
        # ``loader.compile`` shadows the builtin for that module only.
        monkeypatch.setattr(loader, "compile", counted["compile"], raising=False)
        monkeypatch.setattr(shutil, "which", counted["which"])
        monkeypatch.setattr(ctypes, "CDLL", counted["CDLL"])
        monkeypatch.setattr(PipelineSpec, "from_dict", counted["from_dict"])
        monkeypatch.setattr(copy, "deepcopy", counted["deepcopy"])
        monkeypatch.setattr(PipelineSpec, "_basis", counted["basis"])
        return counted

    return install


@pytest.fixture
def native_spec():
    return get_pipeline("dcir").with_codegen(backend="native")


@pytest.fixture
def so_dir(tmp_path, monkeypatch):
    directory = tmp_path / "native"
    monkeypatch.setenv(NATIVE_CACHE_ENV, str(directory))
    return directory


@pytest.fixture
def gemm_code(native_spec):
    return compile_c(get_kernel("gemm"), native_spec).native_code


# -- the warm path itself -------------------------------------------------------------------


@requires_cc
def test_native_warm_hits_only_hash_and_call(so_dir, native_spec, counters):
    cache = CompileCache(use_env_directory=False)
    source = get_kernel("gemm")
    expected = cache.get_or_compile(source, native_spec).run()["__return"]  # miss: cc + dlopen

    counted = counters()
    before = PERF.snapshot()
    for _ in range(WARM_HITS):
        result = cache.get_or_compile(source, native_spec)
        assert result.cache_hit and result.run()["__return"] == expected
        assert result.backend == "native" and result.backend_diagnostic is None
    delta = PERF.delta_since(before)

    assert {name: calls.count for name, calls in counted.items()} == {
        "compile": 0, "which": 0, "CDLL": 0, "from_dict": 0, "deepcopy": 0, "basis": 0,
    }
    assert delta.get("toolchain.so_cache_hits", 0) == WARM_HITS
    assert delta.get("toolchain.cc_runs", 0) == 0
    assert delta.get("compile_cache.hits", 0) == WARM_HITS


def test_interpreted_hits_compile_once_into_fresh_namespaces(counters):
    cache = CompileCache(use_env_directory=False)
    source = get_kernel("atax")
    expected = cache.get_or_compile(source, "dcir").run()["__return"]

    counted = counters()
    results = [cache.get_or_compile(source, "dcir") for _ in range(WARM_HITS)]

    # One compile for the first hit's "<cached:...>" name — none when an
    # earlier test of this process already loaded the same artifact.
    assert counted["compile"].count <= 1
    # By name: the registered spec itself, whose key text was built by the miss.
    assert counted["from_dict"].count == 0 and counted["basis"].count == 0
    assert all(r.cache_hit and r.run()["__return"] == expected for r in results)
    namespaces = {id(r.runner.__globals__) for r in results}
    assert len(namespaces) == WARM_HITS
    assert len({r.runner.__code__ for r in results}) == 1


def test_hits_parse_their_own_spec_on_first_read():
    cache = CompileCache(use_env_directory=False)
    source, stored = get_kernel("atax"), get_pipeline("dcir")
    cache.get_or_compile(source, stored)
    payload = cache.lookup(cache_key(source, stored))
    document = copy.deepcopy(payload["spec"])

    first, second = (cache.get_or_compile(source, stored) for _ in range(2))
    assert first.cache_hit and second.cache_hit
    for result in (first, second):
        assert result.spec.name == stored.name
        assert result.spec.content_id() == stored.content_id()
    assert first.spec is first.spec and first.spec is not second.spec

    # Every kind of edit raises; the sibling, the stored spec and the payload stay.
    with pytest.raises(AttributeError):
        first.spec.data_passes.pop()
    with pytest.raises(FrozenInstanceError):
        first.spec.codegen.vectorize = True
    with pytest.raises(FrozenInstanceError):
        first.spec.name = "renamed"
    with pytest.raises(TypeError, match="derive a new spec"):
        first.spec.data_passes[0].params["tile_size"] = 16
    with pytest.raises(TypeError, match="derive a new spec"):
        first.spec.frontend_options["run_verifier"] = False
    assert first.spec.content_id() == second.spec.content_id() == stored.content_id()
    assert stored == get_pipeline("dcir")
    assert payload["spec"] == document
    assert cache.get_or_compile(source, stored).spec.content_id() == stored.content_id()


def test_threads_reading_one_hit_get_one_spec():
    cache = CompileCache(use_env_directory=False)
    source = get_kernel("atax")
    cache.get_or_compile(source, "dcir")
    hits = [cache.get_or_compile(source, "dcir") for _ in range(20)]

    def read(result):
        return [result.spec for _ in range(8)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the first parse
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = [
                {id(spec) for batch in pool.map(read, [hit] * 8, timeout=60) for spec in batch}
                for hit in hits
            ]
    finally:
        sys.setswitchinterval(interval)
    assert seen == [{id(hit.spec)} for hit in hits]


# -- what must still miss the loaded-library table ---------------------------------------------


@requires_cc
def test_deleted_library_is_rebuilt(so_dir, gemm_code):
    first = CompiledNative.from_code(gemm_code)
    expected = first.run()["__return"]
    assert CompiledNative.from_code(gemm_code).library == first.library  # table hit

    first.library.unlink()
    before = PERF.snapshot()
    rebuilt = CompiledNative.from_code(gemm_code)
    delta = PERF.delta_since(before)

    assert delta.get("toolchain.cc_runs", 0) == 1
    assert delta.get("toolchain.so_cache_hits", 0) == 0
    assert rebuilt.library.exists() and rebuilt.run()["__return"] == expected


@requires_cc
def test_replaced_library_takes_the_full_load_path(so_dir, gemm_code, counters):
    first = CompiledNative.from_code(gemm_code)
    expected = first.run()["__return"]

    # Same bytes under a new inode, through a rename: never write in place,
    # the old inode stays mapped into this process.
    scratch = first.library.with_suffix(".copy")
    shutil.copyfile(first.library, scratch)
    os.replace(scratch, first.library)
    counted = counters()
    before = PERF.snapshot()
    reloaded = CompiledNative.from_code(gemm_code)
    delta = PERF.delta_since(before)

    assert counted["CDLL"].count == 1  # the table was not trusted
    assert delta.get("toolchain.so_cache_hits", 0) == 1  # found on disk, not rebuilt
    assert delta.get("toolchain.cc_runs", 0) == 0
    assert reloaded.run()["__return"] == expected
    CompiledNative.from_code(gemm_code)
    assert counted["CDLL"].count == 1  # and the new file is what the table now holds


@requires_cc
def test_fresh_cache_directory_forces_a_real_build(so_dir, gemm_code, tmp_path, monkeypatch):
    CompiledNative.from_code(gemm_code)
    monkeypatch.setenv(NATIVE_CACHE_ENV, str(tmp_path / "elsewhere"))
    before = PERF.snapshot()
    moved = CompiledNative.from_code(gemm_code)
    delta = PERF.delta_since(before)
    assert delta.get("toolchain.cc_runs", 0) == 1
    assert delta.get("toolchain.so_cache_hits", 0) == 0
    assert moved.library.parent == tmp_path / "elsewhere"


@requires_cc
@pytest.mark.parametrize("degradation", ["fallback", "strict"])
def test_compiler_removed_after_a_warm_hit_still_degrades(
    so_dir, native_spec, monkeypatch, degradation
):
    cache = CompileCache(use_env_directory=False)
    source = get_kernel("atax")
    expected = cache.get_or_compile(source, native_spec).run()["__return"]
    assert cache.get_or_compile(source, native_spec).run()["__return"] == expected  # warm

    monkeypatch.setenv(CC_ENV, "/nonexistent/compiler")
    result = cache.get_or_compile(source, native_spec)
    result.degradation = degradation
    if degradation == "strict":
        with pytest.raises(ToolchainError, match="No C compiler available"):
            result.run()
    else:
        with pytest.warns(RuntimeWarning, match="Native backend unavailable"):
            assert result.run()["__return"] == expected
    assert result.backend == "python"
    assert "No C compiler available" in result.backend_diagnostic


@requires_cc
def test_threads_hammering_one_key_agree(so_dir, native_spec):
    cache = CompileCache(use_env_directory=False)
    source = get_kernel("gemm")
    expected = cache.get_or_compile(source, native_spec).run()["__return"]

    def request(_):
        return [cache.get_or_compile(source, native_spec).run()["__return"] for _ in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the table's critical paths
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = [value for batch in pool.map(request, range(8), timeout=60) for value in batch]
    finally:
        sys.setswitchinterval(interval)
    assert values == [expected] * 200


@requires_cc
def test_table_hits_share_no_abi_state(so_dir, gemm_code):
    first = CompiledNative.from_code(gemm_code)
    expected = first.run()["__return"]
    with pytest.raises(TypeError):
        first.abi["entry"] = "elsewhere"
    with pytest.raises(AttributeError):
        first.abi["args"].clear()
    with pytest.raises(TypeError):
        first.abi["args"][0]["dtype"] = "int8"
    second = CompiledNative.from_code(gemm_code)
    assert second.abi is first.abi  # one read-only ABI, nothing to copy
    assert second.run()["__return"] == expected


# -- specs are values: parsed once, and no edit reaches them ----------------------------------


def test_from_dict_shares_no_params_with_its_input_or_a_sibling():
    document = get_pipeline("dcir").to_dict()
    document["frontend"] = {"defines": {"N": [1, 2]}}
    document["data_passes"].append(
        {"name": "map-tiling", "params": {"tile_size": 8, "only_matches": [0, 1]}}
    )
    first = PipelineSpec.from_dict(document)
    second = PipelineSpec.from_dict(document)
    raw = document["data_passes"][-1]["params"]
    for spec in (first, second):
        params = spec.data_passes[-1].params
        assert params == raw and params is not raw
        assert params["only_matches"] is not raw["only_matches"]
        assert spec.frontend_options["defines"] is not document["frontend"]["defines"]

    # Editing the input document after parsing reaches neither spec ...
    raw["only_matches"].append(2)
    document["frontend"]["defines"]["N"].append(3)
    # ... and every kind of edit of a spec raises.
    tiling = first.data_passes[-1]
    with pytest.raises(FrozenInstanceError):
        first.bridge = False
    with pytest.raises(FrozenInstanceError):
        tiling.params = {}
    with pytest.raises(AttributeError):
        first.data_passes.append(tiling)
    with pytest.raises(AttributeError):
        first.data_passes.pop()
    with pytest.raises(TypeError, match="derive a new spec"):
        tiling.params["tile_size"] = 16
    with pytest.raises(TypeError, match="derive a new spec"):
        tiling.params["only_matches"].append(2)
    with pytest.raises(TypeError, match="derive a new spec"):
        first.frontend_options["defines"] = {}
    with pytest.raises(TypeError, match="derive a new spec"):
        first.frontend_options["defines"]["N"].append(3)
    for spec in (first, second):
        assert spec.data_passes[-1].params == {"tile_size": 8, "only_matches": [0, 1]}
        assert spec.frontend_options == {"defines": {"N": [1, 2]}}
    assert first.content_id() == second.content_id()
    assert first.with_passes(
        "data", [*first.data_passes[:-1], tiling.with_params(tile_size=16)]
    ).content_id() != first.content_id()

    # Serialized output is the caller's: plain containers it may edit freely.
    params = second.cache_basis()["data_passes"][-1]["params"]
    assert params is not second.data_passes[-1].params
    params["only_matches"].append(5)
    assert second.data_passes[-1].params == {"tile_size": 8, "only_matches": [0, 1]}
