"""Pipeline specs are values: their key text is pinned, and they survive copies.

A spec's cache-key text and ``content_id()`` address every compile-cache
entry, on disk too: if either moved, every cache a previous release wrote
would silently stop hitting.  The literal digests below were computed
before specs became frozen values, whose serializations are computed once
per spec and spliced into each key.  The release ``__version__`` is hashed
into every key too, so the pinned keys are computed under the release they
were recorded at, and any other release must move every one of them: a
release whose emitted text differs serves nothing a previous one cached.
"""

import copy
import json
import pickle
from dataclasses import FrozenInstanceError

import pytest

import repro
import repro.service.cache as cache_module
from repro import PassSpec, PipelineSpec, get_pipeline
from repro.pipeline import PAPER_PIPELINES
from repro.service.cache import cache_key
from repro.workloads import get_kernel

#: The ``__version__`` the keys below were computed under.
PINNED_VERSION = "1.18.0"

#: ``cache_key(get_kernel(kernel), pipeline, function)``, default (``small``) sizes.
PINNED_KEYS = {
    ("atax", "dcir", None): "7899af919a0062435c4f2585b0d1819b9e6839f901b90cd7b3052c4d3f61cc15",
    ("atax", "dcir", "kernel_x"): "2db4ccdf90faab45c0f8decb3036caf68326e8375799c71afef7996fdddc748c",
    ("atax", "dcir/native", None): "7abc0ffa94ac219b59ff1ef7ea674079486e910d6e8f677edbbc75627d1b165b",
    ("atax", "dcir/native", "kernel_x"): "c342abf8ab156742482810fc46adcfd903096a20fd3cb071af1eb33f261c8857",
    ("atax", "mlir", None): "2d86ab2139b931310a8d745a588aae2c4ff573a9ece42f7e85f79f5d51c90e25",
    ("atax", "mlir", "kernel_x"): "4a5d6ab960b3347268a5c5a43f9ff0e2036fd7b1ea9483ef8ebb4008fbf88ab4",
    ("gemm", "dcir", None): "cd2e5e29e6460de719879143fd67b0d52ae4a649b202f214d67c77969b0fce0b",
    ("gemm", "dcir", "kernel_x"): "1ec081ec31c2d770c53d4c9c3490711ecc3023cad2a6c1a3fab3eaf8cdaf612b",
    ("gemm", "dcir/native", None): "f34be6ac263acc04563d5a8bfd2cedd35319908f7343d4cf0a359be6d91e4959",
    ("gemm", "dcir/native", "kernel_x"): "63de7a1434e4752bb99509c1cf44d5fe86cab658bd9262e0bc1eac6614338000",
    ("gemm", "mlir", None): "a0f99f33825c61fc1b108ed1ebd420d1711a346d120044847ad867ebfd0d4b10",
    ("gemm", "mlir", "kernel_x"): "3bb1ad1895a3470d5c86602c6f7b4e6a9d052417db299098521a824c08ada25a",
}

PINNED_CONTENT_IDS = {
    "gcc": "508d7db9fdcdee0e1646e29dd7b0b9e0e9a722a0a22bd2c590ca570ca5f7643c",
    "clang": "6797dc9bd8a0d896757c1094d2321ee35f67535393aba256ae92fce56eb9d01a",
    "dace": "8f22a924dbd9ba5850319be7e821ce53d596c2757a8046534f423b9d0002cf7a",
    "mlir": "23b4a2c9383c5efb9287e1da5a1203df2020a052a2ed18462a92f2ac27e3afd4",
    "dcir": "e313c0d3949f77d5cae9a2d7d25e4b3d7caaa34ecb6d36bb08e13ee65ec40762",
    "dcir+vec": "0594574de25141b0c2985a5293490f407850811d3191cdd217253445cedd06a4",
}


def _pipeline(label):
    if label == "dcir/native":
        return get_pipeline("dcir").with_codegen(backend="native")
    return label


@pytest.mark.parametrize("kernel, label, function", sorted(PINNED_KEYS, key=str))
def test_cache_keys_are_pinned(kernel, label, function, monkeypatch):
    monkeypatch.setattr(cache_module, "__version__", PINNED_VERSION)
    key = cache_key(get_kernel(kernel), _pipeline(label), function)
    assert key == PINNED_KEYS[kernel, label, function]


@pytest.mark.parametrize("version", [repro.__version__, "1.18.1", "1.17.0", "1.18", "2.0.0", ""])
def test_any_other_version_moves_every_key(version, monkeypatch):
    assert version != PINNED_VERSION
    monkeypatch.setattr(cache_module, "__version__", version)
    for (kernel, label, function), pinned in PINNED_KEYS.items():
        assert cache_key(get_kernel(kernel), _pipeline(label), function) != pinned


def test_paper_content_ids_are_pinned():
    assert {name: get_pipeline(name).content_id() for name in PAPER_PIPELINES} == PINNED_CONTENT_IDS


def test_serializations_are_computed_once_per_spec():
    spec = get_pipeline("dcir").derive()
    assert spec.cache_basis_json is spec.cache_basis_json
    assert spec.canonical_json() is spec.canonical_json()
    assert spec.content_id() is spec.content_id()
    assert json.loads(spec.cache_basis_json) == spec.cache_basis()


def _nested():
    return PipelineSpec(
        name="nested",
        frontend_options={"defines": {"N": [1, 2], "M": []}},
        control_passes=["cse"],
        bridge=True,
        data_passes=[PassSpec("map-tiling", {"tile_size": 8, "only_matches": [0, 2]})],
    )


#: ``json.dumps(_nested().to_dict())`` and ``_nested().content_id()`` before specs became values.
NESTED_TEXT = (
    '{"name": "nested", "description": "", "frontend": {"defines": {"N": [1, 2], "M": []}}, '
    '"control_passes": [{"name": "cse", "params": {}}], "control_max_iterations": 3, '
    '"bridge": true, "data_passes": [{"name": "map-tiling", "params": {"tile_size": 8, '
    '"only_matches": [0, 2]}}], "data_max_iterations": 3, "codegen": {"native_scalars": false, '
    '"preallocate": false, "vectorize": false, "backend": "python"}}'
)
NESTED_CONTENT_ID = "a0e9b47bf73fd7e28f3070a6b506c5c66d8874ae44411528e140f0594bb7fddb"


@pytest.mark.parametrize("clone", [
    lambda spec: pickle.loads(pickle.dumps(spec)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_nested_options_survive_copies(clone):
    spec = _nested()
    spec.content_id()  # a clone of a spec whose serializations are cached
    for original in (spec, _nested()):
        copied = clone(original)
        assert copied == original
        assert copied.content_id() == original.content_id() == NESTED_CONTENT_ID
        assert json.dumps(copied.to_dict()) == NESTED_TEXT
        # Still a value: the copy refuses edits at every depth.
        with pytest.raises(TypeError, match="derive a new spec"):
            copied.frontend_options["defines"]["N"].append(3)
        with pytest.raises(TypeError, match="derive a new spec"):
            copied.data_passes[0].params["only_matches"][0] = 1
        with pytest.raises(FrozenInstanceError):
            copied.data_passes[0].name = "map-fusion"


def test_serialized_output_is_plain_containers():
    document = _nested().to_dict()
    assert json.dumps(document) == NESTED_TEXT
    frontend, tiling = document["frontend"], document["data_passes"][0]
    assert type(document) is dict and type(frontend) is dict
    assert type(frontend["defines"]) is dict and type(frontend["defines"]["N"]) is list
    assert type(document["control_passes"]) is list and type(document["data_passes"]) is list
    assert type(tiling) is dict and type(tiling["params"]) is dict
    assert type(tiling["params"]["only_matches"]) is list
    assert type(document["codegen"]) is dict
    assert PipelineSpec.from_dict(document) == _nested()


def test_equal_specs_hash_equal_and_key_a_dict():
    """Hashing agrees with equality, down through the read-only params."""
    table = {get_pipeline(name): name for name in PAPER_PIPELINES}
    assert len(table) == len(PAPER_PIPELINES)
    for name in PAPER_PIPELINES:
        rebuilt = PipelineSpec.from_dict(get_pipeline(name).to_dict())
        assert rebuilt is not get_pipeline(name) and table[rebuilt] == name
    reordered = PipelineSpec(
        name="nested",
        frontend_options={"defines": {"M": [], "N": [1, 2]}},
        control_passes=["cse"],
        bridge=True,
        data_passes=[PassSpec("map-tiling", {"only_matches": [0, 2], "tile_size": 8})],
    )
    for equal in (reordered, pickle.loads(pickle.dumps(_nested())), copy.deepcopy(_nested())):
        assert equal == _nested() and hash(equal) == hash(_nested())
    assert {_nested(): 1}[reordered] == 1
    assert len({_nested(), _nested().derive(name="other")}) == 2
