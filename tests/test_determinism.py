"""Codegen determinism regression tests.

The content-addressed compile cache assumes that compiling the same source
through the same pipeline always yields byte-identical generated code —
within one process and across interpreter invocations with different hash
seeds (set iteration order is the classic way this invariant breaks).
These tests lock the invariant in.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import PIPELINES, generate_program
from repro.pipeline import load_runner
from repro.workloads import get_kernel, mish_source

#: Directory holding the ``repro`` package, for child interpreters.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SIZES = {
    "gemm": {"NI": 5, "NJ": 6, "NK": 7},
    "jacobi-2d": {"N": 6, "T": 2},
    "durbin": {"N": 8},
}


def _sources():
    sources = {name: get_kernel(name, sizes) for name, sizes in _SIZES.items()}
    sources["mish"] = mish_source({"N": 32, "REPS": 1})
    return sources


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_recompilation_is_byte_identical(pipeline):
    for name, source in _sources().items():
        first = generate_program(source, pipeline).code
        second = generate_program(source, pipeline).code
        assert first == second, f"{name}/{pipeline}: codegen is not deterministic"


# Child script: compile a (kernel × pipeline) grid and print per-pair SHA-256
# digests of the generated code as JSON.  Run under different PYTHONHASHSEED
# values, the output must be identical.
_CHILD = """
import hashlib, json, sys
from repro import generate_program
from repro.workloads import get_kernel

digests = {}
for name, sizes, pipeline in json.loads(sys.argv[1]):
    code = generate_program(get_kernel(name, sizes), pipeline).code
    digests[f"{name}/{pipeline}"] = hashlib.sha256(code.encode()).hexdigest()
print(json.dumps(digests, sort_keys=True))
"""

_GRID = [
    ["gemm", _SIZES["gemm"], "gcc"],
    ["gemm", _SIZES["gemm"], "dcir"],
    ["jacobi-2d", _SIZES["jacobi-2d"], "dace"],
    ["jacobi-2d", _SIZES["jacobi-2d"], "dcir+vec"],
]


def _digests_under_seed(seed: str, child: str = _CHILD) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in [_SRC_DIR, env.get("PYTHONPATH")] if path
    )
    output = subprocess.run(
        [sys.executable, "-c", child, json.dumps(_GRID)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(output.stdout)


def test_codegen_is_stable_under_hash_seed_variation():
    seed_zero = _digests_under_seed("0")
    seed_other = _digests_under_seed("4242")
    assert seed_zero == seed_other

    # ... and matches this process (whatever its own hash seed was).
    for name, sizes, pipeline in _GRID:
        code = generate_program(get_kernel(name, sizes), pipeline).code
        digest = hashlib.sha256(code.encode()).hexdigest()
        assert seed_zero[f"{name}/{pipeline}"] == digest


# A ``while`` loop whose condition spans several states: with no data-centric
# pass to fuse them, both SDFG code generators raise it with those states
# ahead of the guard, in the same order under every hash seed.
_WHILE_SOURCE = (
    "int f() { int i = 0; int s = 0; while (i * i < 50) {"
    " if (s < 7) { s = s + i; } else { s = s - 1; } i = i + 1; } return s + i; }"
)

_WHILE_CHILD = f"""
import hashlib, json
from repro import PipelineSpec, generate_program

spec = PipelineSpec(bridge=True).with_codegen(backend="native")
program = generate_program({_WHILE_SOURCE!r}, spec)
assert "_state ==" not in program.code and "while True:" in program.code
assert "while (1) {{" in program.native_code
print(json.dumps({{
    "python": hashlib.sha256(program.code.encode()).hexdigest(),
    "c": hashlib.sha256(program.native_code.encode()).hexdigest(),
}}))
"""


def test_raised_while_loops_are_stable_under_hash_seed_variation():
    seed_zero = _digests_under_seed("0", _WHILE_CHILD)
    assert seed_zero == _digests_under_seed("4242", _WHILE_CHILD)

    spec = repro.PipelineSpec(bridge=True).with_codegen(backend="native")
    program = generate_program(_WHILE_SOURCE, spec)
    assert hashlib.sha256(program.code.encode()).hexdigest() == seed_zero["python"]
    assert hashlib.sha256(program.native_code.encode()).hexdigest() == seed_zero["c"]
    assert load_runner(program.code)()["__return"] == 15
    assert program.to_result().run()["__return"] == 15
