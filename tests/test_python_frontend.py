"""Python/NumPy frontend tests.

Three pillars:

* the **differential matrix** — every python-suite kernel, compiled
  through every registered pipeline (and the native backend where a C
  compiler exists), must match its plain-NumPy reference execution;
* **diagnostics** — unsupported constructs raise
  :class:`~repro.errors.FrontendError` naming the offending line, never
  a crash from deep inside lowering;
* **cache identity** — a program's content address depends only on its
  canonical source and size bindings: stable across processes and
  ``PYTHONHASHSEED`` values, changed by rebinding.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import FrontendError, PythonProgram, compile_and_run, program
from repro.frontend_py import as_program, lower_python
from repro.perf import PERF
from repro.pipeline import PAPER_PIPELINES, compile_c, get_pipeline, run_compiled
from repro.service import CompileCache
from repro.service.cache import cache_key
from repro.workloads.python_suite import kernel_names, python_suite

from repro.codegen import have_compiler

requires_cc = pytest.mark.skipif(not have_compiler(), reason="no C compiler on PATH")

#: Directory holding the ``repro`` package, for child interpreters.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SUITE = python_suite()
REFERENCES = {name: prog() for name, prog in SUITE.items()}


def _prog(source: str, name: str, **sizes) -> PythonProgram:
    """Build a program from inline source (line 1 must be the def line)."""
    return PythonProgram(
        name=name, source=textwrap.dedent(source).strip("\n"), sizes=sizes
    )


# ---------------------------------------------------------------------------
# Differential matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pipeline", PAPER_PIPELINES)
@pytest.mark.parametrize("kernel", sorted(SUITE))
def test_differential_interpreted(kernel, pipeline):
    out = compile_and_run(SUITE[kernel], pipeline)
    assert out.return_value == pytest.approx(REFERENCES[kernel], abs=1e-12)


@requires_cc
@pytest.mark.parametrize("kernel", sorted(SUITE))
def test_differential_native(kernel):
    native = get_pipeline("dcir").with_codegen(backend="native")
    result = compile_c(SUITE[kernel], native)
    assert result.backend == "native", result.backend_diagnostic
    out = run_compiled(result)
    assert out.return_value == pytest.approx(REFERENCES[kernel], abs=1e-12)


def test_integer_results_are_exact():
    counter = _prog(
        """
        def count(N=30):
            total = 0
            for i in range(N):
                if i % 3 == 0 or i % 5 == 0:
                    total += i
            return total
        """,
        "count", N=30,
    )
    assert counter() == 195  # Project-Euler-1 style ground truth
    for pipeline in ("gcc", "dcir"):
        assert compile_and_run(counter, pipeline).return_value == 195


def test_python_division_semantics():
    division = _prog(
        """
        def div(N=7):
            t = N / 2
            f = N // 2
            s = 0.0
            for i in range(1, N):
                s += N / i + N // i
            return t + f + s
        """,
        "div", N=7,
    )
    out = compile_and_run(division, "dcir")
    assert out.return_value == pytest.approx(division(), abs=1e-12)


@pytest.mark.parametrize("call", ["abs", "math.fabs", "np.abs", "np.absolute", "np.fabs"])
def test_every_python_name_of_fabs_is_read_as_fabs(call):
    magnitudes = _prog(
        f"""
        def magnitudes(N=4):
            s = 0.0
            for i in range(N):
                s += {call}(i - 2.5)
            return s
        """,
        "magnitudes", N=4,
    )
    assert magnitudes() == 5.0
    assert compile_and_run(magnitudes, "dcir").return_value == 5.0


@pytest.mark.parametrize("call", ["math.sqrtf", "math.abs", "math.absolute", "np.sqrtf"])
def test_a_function_python_lacks_is_refused(call):
    """C's ``sqrtf`` and NumPy's ``abs`` are no ``math`` or ``np`` functions."""
    error = _frontend_error(
        f"""
        def bad(N=4):
            return {call}(2.0)
        """,
        N=4,
    )
    assert "Unsupported" in str(error) and call.split(".")[1] in str(error)


@pytest.mark.parametrize("pipeline", [
    pytest.param("mlir", marks=pytest.mark.xfail(
        strict=True,
        reason="the Python frontend emits arith.divsi / arith.remsi, which mlir truncates",
    )),
    "dace",
    "dcir",
])
def test_floor_division_and_remainder_of_a_negative_operand(pipeline):
    """The traced twin of ``test_c_division_and_remainder_truncate`` (ROADMAP's
    first open item): NumPy rounds down, so the two weighted sums are 42 and
    -14; ``mlir`` never crosses the bridge and returns 6 - 5.  Strict, so the
    fix flips it."""
    floors = _prog(
        """
        def floors(N=8):
            s = 0
            for i in range(N):
                s += ((i - 5) % 3) * (i + 1) + ((i - 5) // 2) * (i + 1)
            return s
        """,
        "floors", N=8,
    )
    assert floors() == 28
    assert compile_and_run(floors, pipeline).return_value == 28


def test_downward_range_and_while():
    loops = _prog(
        """
        def loops(N=12):
            s = 0.0
            for i in range(N - 2, 0, -1):
                s += i * 0.5
            k = 0
            while k * k < N:
                k += 1
            return s + k
        """,
        "loops", N=12,
    )
    for pipeline in ("gcc", "dcir"):
        assert compile_and_run(loops, pipeline).return_value == pytest.approx(
            loops(), abs=1e-12
        )


def test_lower_python_produces_verified_canonical_ir():
    module = lower_python(SUITE["jacobi2d"])
    text = str(module)
    assert "func.func @jacobi2d" in text
    assert "scf.for" in text and "memref.alloca" in text
    assert "scf.while" not in text  # counted loops stay canonical


# ---------------------------------------------------------------------------
# FrontendError diagnostics
# ---------------------------------------------------------------------------

def _frontend_error(source: str, name: str = "bad", **sizes) -> FrontendError:
    with pytest.raises(FrontendError) as excinfo:
        lower_python(_prog(source, name, **sizes))
    return excinfo.value


def test_unsupported_statement_names_the_line():
    error = _frontend_error(
        """
        def bad(N=4):
            s = 0.0
            import os
            return s
        """,
        N=4,
    )
    assert error.line == 3
    assert "Unsupported statement" in str(error)
    assert "import os" in str(error)


def test_unsupported_expression_names_the_line():
    error = _frontend_error(
        """
        def bad(N=4):
            d = {"a": 1}
            return 0.0
        """,
        N=4,
    )
    assert error.line == 2 and "line 2:" in str(error)


def test_early_return_rejected():
    error = _frontend_error(
        """
        def bad(N=4):
            for i in range(N):
                if i == 2:
                    return 1.0
            return 0.0
        """,
        N=4,
    )
    assert error.line == 4 and "final statement" in str(error)


def test_unbound_size_parameter():
    error = _frontend_error(
        """
        def bad(N, M=4):
            return 0.0
        """,
        M=4,
    )
    assert "Unbound size parameter" in str(error) and "'N'" in str(error)


def test_non_range_loop_rejected():
    error = _frontend_error(
        """
        def bad(N=4):
            import_total = 0.0
            for x in [1, 2, 3]:
                import_total += x
            return import_total
        """,
        N=4,
    )
    assert error.line == 3 and "range" in str(error)


def test_undefined_name_and_scope_hint():
    error = _frontend_error(
        """
        def bad(N=4):
            for i in range(N):
                inner = i * 2.0
            return inner
        """,
        N=4,
    )
    assert error.line == 4
    assert "inside a conditional or loop" in str(error)


def test_float_into_int_scalar_rejected():
    error = _frontend_error(
        """
        def bad(N=4):
            s = 0
            for i in range(N):
                s += i * 0.5
            return s
        """,
        N=4,
    )
    assert error.line == 4 and "float literal" in str(error)


def test_allocation_only_as_direct_assignment():
    error = _frontend_error(
        """
        def bad(N=4):
            s = np.sum(np.zeros(N) + 1.0)
            return s
        """,
        N=4,
    )
    assert error.line == 2 and "np.zeros" in str(error)


def test_shape_mismatch_rejected():
    error = _frontend_error(
        """
        def bad(N=6):
            a = np.zeros(N)
            b = np.zeros(N - 1)
            c = a + b
            return np.sum(c)
        """,
        N=6,
    )
    assert error.line == 4 and "Shape mismatch" in str(error)


def test_unresolved_symbolic_shape_names_the_symbol():
    error = _frontend_error(
        """
        def bad(N=4):
            a = np.zeros(M)
            return np.sum(a)
        """,
        N=4,
    )
    assert error.line == 2 and "M" in str(error)


def test_syntax_error_is_a_frontend_error():
    with pytest.raises(FrontendError) as excinfo:
        lower_python(_prog("def bad(N=4):\n    return ((\n", "bad", N=4))
    assert "syntax" in str(excinfo.value).lower()


def test_cli_reports_frontend_errors_cleanly(tmp_path, capsys):
    script = tmp_path / "prog.py"
    script.write_text(
        "import numpy as np\n\n"
        "def bad(N=8):\n"
        "    x = {1: 2}\n"
        "    return 0.0\n"
    )
    from repro.__main__ import main

    code = main(["compile", "--frontend", "python", str(script), "--stats"])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2:" in captured.err and "x = {1: 2}" in captured.err


# ---------------------------------------------------------------------------
# Program construction and coercion
# ---------------------------------------------------------------------------

def test_decorator_and_plain_function_agree():
    from repro.workloads.python_suite import mish as mish_program

    assert isinstance(mish_program, PythonProgram)
    assert mish_program.sizes == {"N": 128}
    # Rebinding is pure: same source, new sizes, new identity.
    rebound = mish_program.bind(N=32)
    assert rebound.source == mish_program.source
    assert rebound.content_id() != mish_program.content_id()


def test_as_program_rejects_non_callables():
    with pytest.raises(FrontendError):
        as_program(42)


def test_non_int_sizes_rejected():
    with pytest.raises(FrontendError):
        PythonProgram(name="p", source="def p():\n    return 0.0",
                      sizes={"N": 2.5})


def test_program_reference_execution_matches_direct_call():
    heat = SUITE["heat1d"]
    assert heat() == pytest.approx(REFERENCES["heat1d"], abs=0.0)
    assert heat(N=24, T=2) != heat()  # overrides rebind, not mutate
    assert heat.sizes == {"N": 48, "T": 6}


# ---------------------------------------------------------------------------
# Cache identity
# ---------------------------------------------------------------------------

def test_content_id_ignores_decorators_and_indentation():
    raw = """
        @program
        def k(N=4):
            s = 0.0
            for i in range(N):
                s += i
            return s
    """
    a = PythonProgram(name="k", source=textwrap.dedent(raw).strip("\n"), sizes={"N": 4})
    # _canonical_source strips the decorator; build via the public path too.
    from repro.frontend_py.program import _canonical_source

    b = PythonProgram(name="k", source=_canonical_source(raw), sizes={"N": 4})
    assert a.source != b.source  # a kept the decorator line...
    assert b.source.startswith("def k")
    assert b.content_id() == PythonProgram(
        name="k", source=_canonical_source("    " + raw), sizes={"N": 4}
    ).content_id()


def test_cache_key_distinguishes_sizes_and_pipelines():
    kernel = SUITE["softmax"]
    base = cache_key(kernel, "dcir")
    assert base == cache_key(kernel, "dcir")
    assert base != cache_key(kernel.bind(N=32), "dcir")
    assert base != cache_key(kernel, "gcc")


def test_warm_cache_does_zero_frontend_work(tmp_path):
    cache = CompileCache(directory=tmp_path, use_env_directory=False)
    kernel = SUITE["silu"]
    cold = cache.get_or_compile(kernel, "dcir")
    assert not cold.cache_hit
    before = PERF.snapshot()
    warm = cache.get_or_compile(kernel, "dcir")
    delta = PERF.delta_since(before)
    assert warm.cache_hit
    assert delta.get("frontend.runs", 0) == 0
    assert not any(key.startswith("passes.") for key in delta)
    assert run_compiled(warm).return_value == pytest.approx(
        REFERENCES["silu"], abs=1e-12
    )


# Child script: print each python-suite kernel's content id plus its dcir
# cache key.  Run under different PYTHONHASHSEED values, the output must be
# byte-identical — content addressing cannot depend on hash randomization.
_CHILD = """
import json
from repro.service.cache import cache_key
from repro.workloads.python_suite import python_suite

out = {}
for name, prog in sorted(python_suite().items()):
    out[name] = {"content_id": prog.content_id(), "key": cache_key(prog, "dcir")}
print(json.dumps(out, sort_keys=True))
"""


def _ids_under_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in [_SRC_DIR, env.get("PYTHONPATH")] if path
    )
    output = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(output.stdout)


def test_content_ids_stable_under_hash_seed_variation():
    seed_zero = _ids_under_seed("0")
    seed_other = _ids_under_seed("1337")
    assert seed_zero == seed_other
    # ... and match this process (whatever its own hash seed was).
    for name in kernel_names():
        assert seed_zero[name]["content_id"] == SUITE[name].content_id()
        assert seed_zero[name]["key"] == cache_key(SUITE[name], "dcir")


# ---------------------------------------------------------------------------
# Batch + tuner integration
# ---------------------------------------------------------------------------

def test_compile_many_accepts_programs():
    from repro.service import compile_many

    outcomes = compile_many(
        [SUITE["mish"], SUITE["gelu"]], executor="process", max_workers=2
    )
    assert [o.error for o in outcomes] == [None, None]
    for outcome, name in zip(outcomes, ("mish", "gelu")):
        run = run_compiled(outcome.result)
        assert run.return_value == pytest.approx(REFERENCES[name], abs=1e-12)


def test_greedy_tune_over_stencil_completes_and_wins():
    from repro.service import Session
    from repro.tuning import SearchSpace, tune
    from repro.tuning.strategy import GreedyStrategy

    base = get_pipeline("dcir")
    report = tune(
        SUITE["heat1d"],
        base=base,
        strategy=GreedyStrategy(budget=12, rounds=1),
        space=SearchSpace(base, include_registered=False),
        session=Session(executor="serial"),
        kernel="heat1d",
        sizes=dict(SUITE["heat1d"].sizes),
    )
    assert report.winner is not None
    base_entries = [e for e in report.ranking if e.candidate.origin == "base"]
    assert base_entries and base_entries[0].ok
    assert report.winner.score <= base_entries[0].score
