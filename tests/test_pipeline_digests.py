"""Codegen digest regression net for the rewrite-engine refactor.

``tests/data/pipeline_digests.json`` holds SHA-256 digests of the code the
six registered pipelines generated for a fixed kernel set *before* the
data-centric passes were ported onto the pattern-based rewrite engine.
The port must be behaviour-preserving: every kernel/pipeline pair must
still generate byte-identical code.  Any intentional codegen change must
regenerate the file (see its ``comment`` field) in the same commit.

Two further tables pin what ``digests`` (``GeneratedProgram.code`` only)
cannot see: ``native_digests`` hashes the C translation unit of every
bridge-crossing pair under ``backend="native"``, and ``parallel_digests``
hashes both the Python fork/join text and the C OpenMP text of a few
kernels through ``dcir`` + ``parallelize(n_threads=2)``.  C *generation*
involves no compiler, so nothing here is skipped when ``cc`` is absent.
"""

import hashlib
import json
import os

import pytest

from repro import generate_program
from repro.pipeline import resolve_pipeline
from repro.workloads import get_kernel, mish_source

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _document():
    with open(os.path.join(_DATA, "pipeline_digests.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


DOCUMENT = _document()
PAIRS = sorted(DOCUMENT["digests"])
NATIVE_PAIRS = sorted(DOCUMENT["native_digests"])
PARALLEL_KERNELS = sorted(DOCUMENT["parallel_digests"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source(kernel: str):
    if kernel.startswith("py:"):
        # Python-frontend kernels: the digest pins frontend + passes +
        # codegen together, so a translator change shows up here too.
        from repro.workloads.python_suite import get_program

        name = kernel[len("py:"):]
        return get_program(name, DOCUMENT["python_sizes"][name])
    if kernel == "mish":
        return mish_source(DOCUMENT["mish"])
    return get_kernel(kernel, DOCUMENT["sizes"][kernel])


def test_digest_file_covers_the_six_registered_pipelines():
    from repro.pipeline import PAPER_PIPELINES

    covered = {pair.split("/", 1)[1] for pair in PAIRS}
    assert covered == set(PAPER_PIPELINES)


@pytest.mark.parametrize("pair", PAIRS)
def test_codegen_matches_pre_refactor_digest(pair):
    kernel, pipeline = pair.split("/", 1)
    code = generate_program(_source(kernel), pipeline).code
    assert _sha256(code) == DOCUMENT["digests"][pair], (
        f"{pair}: generated code diverged from the pre-refactor baseline; "
        "if the change is intentional, regenerate tests/data/pipeline_digests.json"
    )


def test_native_digests_cover_every_bridge_crossing_pair():
    bridged = {pair for pair in PAIRS if resolve_pipeline(pair.split("/", 1)[1]).bridge}
    assert set(NATIVE_PAIRS) == bridged


@pytest.mark.parametrize("pair", NATIVE_PAIRS)
def test_native_codegen_matches_digest(pair):
    kernel, pipeline = pair.split("/", 1)
    spec = resolve_pipeline(pipeline).with_codegen(backend="native")
    generated = generate_program(_source(kernel), spec)
    assert generated.native_code is not None, generated.native_fallback
    assert _sha256(generated.native_code) == DOCUMENT["native_digests"][pair], (
        f"{pair}: generated C diverged from the pinned baseline; if the change "
        "is intentional, regenerate tests/data/pipeline_digests.json"
    )


@pytest.mark.parametrize("kernel", PARALLEL_KERNELS)
def test_parallel_codegen_matches_digest(kernel):
    base = resolve_pipeline("dcir")
    spec = base.with_passes(
        "data", list(base.data_passes) + [("parallelize", {"n_threads": 2})]
    ).with_codegen(backend="native")
    generated = generate_program(_source(kernel), spec)
    # The pins are only worth something if the parallel lowering fired.
    assert "_repro_chunks(" in generated.code
    assert "#pragma omp parallel for" in generated.native_code
    pinned = DOCUMENT["parallel_digests"][kernel]
    assert _sha256(generated.code) == pinned["python"], (
        f"{kernel}: fork/join Python text diverged from the pinned baseline"
    )
    assert _sha256(generated.native_code) == pinned["c"], (
        f"{kernel}: OpenMP C text diverged from the pinned baseline"
    )
