"""The four workloads.  Each stresses different layers of the stack:

``cold_compile``  frontends, both pass stacks, bridge, code generators
``native_run``    the quality of the generated C (kernels of 10 ms and more)
``interp_run``    the same transforms through the *other* code generators
``request_path``  toolchain, ``.so`` cache, marshalling and the compile cache

A workload function receives a :class:`Context`, does its set-up, calls
``ctx.ready()`` and then measures in *rounds*: a round visits every program
once, in an order shuffled from the seed, takes one normaliser sample at
each visit and one sample of every pipeline right after it.  A pair's
samples are thus spread over the whole run and each is divided by a
normaliser taken within milliseconds of it.

The same code serves the traced run: ``Context`` then drives each request
stage by stage (see :mod:`staged`) under spans instead of calling the
one-shot public entry points.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

import reference
from measure import (
    Spans, Tally, agree, calib_loop, calib_py, geomean, median, midmean, percentile, quartiles,
    timed, timer_resolution,
)
from staged import same_code, staged_compile

from repro import CompileCache, CompiledNative, compile_c, compile_many, generate_program, get_pipeline
from repro.codegen import movement_score, sdfg_movement_report
from repro.pipeline import load_runner
from repro.service import cache_key
from repro.workloads import get_kernel, get_program

HERE = Path(__file__).resolve().parent

#: Environment variable the toolchain reads its ``.so`` directory from.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE_DIR"

#: Rounds of a traced run (it measures layers, not end-to-end metrics).
TRACE_ROUNDS = 3

#: ``--smoke`` programs: one C kernel and one traced Python program.
SMOKE_PROGRAMS = ("gemm", "softmax")
SMOKE_ROUNDS = 2

#: Threads used where set-up work is independent (``cc`` runs, cache fill).
WORKERS = min(2, len(os.sched_getaffinity(0)))

#: Warm rounds that also visit the interpreted (``mlir``) requests.  Their
#: runs are ms-scale Python and enter no metric; a few rounds check them.
WARM_INTERPRETED_ROUNDS = 3

#: Array-argument programs: an O(1) body, so a call costs what marshalling costs.
ARGS_ELEMENTS = 1 << 20
ARGS_SOURCE = """
double %(name)s(double x[%(n)d], double y[%(n)d]) {
  y[0] = x[0] + 1.0;
  y[%(last)d] = x[%(last)d] * 2.0;
  return y[0] + y[%(last)d];
}
"""


#: What ``Context.calib_cc`` builds: a cold request is half ``cc``, and only
#: another ``cc`` run drifts the way one does.
CALIB_C_SOURCE = """
double calib() {
  double a[64]; double s = 0.0;
  for (int i = 0; i < 64; i++) a[i] = sqrt(i * 0.5);
  for (int i = 0; i < 64; i++) s += a[i];
  return s;
}
"""


def load_sizes() -> Dict:
    return json.loads((HERE / "sizes.json").read_text(encoding="utf-8"))


def load_programs(preset: str, smoke: bool, python: bool = True) -> Dict[str, object]:
    """name → C source or ``PythonProgram`` at the preset's sizes, in name order."""
    programs: Dict[str, object] = {}
    for name, entry in load_sizes()["kernels"].items():
        if smoke and name not in SMOKE_PROGRAMS:
            continue
        if entry["class"] == "python-suite":
            if python:
                programs[name] = get_program(name, entry[preset])
        else:
            programs[name] = get_kernel(name, entry[preset])
    return programs


def native_spec(name: str):
    return get_pipeline(name).with_codegen(backend="native")


def parallel_spec(threads: int):
    """``dcir`` native plus the ``parallelize`` pass — the schedule axis of the tuner."""
    base = native_spec("dcir")
    passes = [(p.name, dict(p.params)) for p in base.data_passes]
    passes.append(("parallelize", {"n_threads": threads}))
    return base.with_passes("data", passes)


class SetupDone(Exception):
    """Raised by ``ready()`` in a process that only does the set-up."""


@dataclass
class Box:
    """Result of one attempted operation."""

    seconds: float = 0.0
    value: object = None


class Context:
    """State of one workload run: seed, budget, tallies, spans and bookkeeping."""

    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path, started: float, setup_only: bool = False):
        self.setup_only = setup_only
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.workdir = workdir
        self.started = started
        self.rng = random.Random(seed)
        self.spans: Optional[Spans] = Spans() if trace else None
        self.tally = Tally()
        self.layer: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.setup_s: Optional[float] = None
        self.measure_start = 0.0
        #: normaliser → its samples (``py``, ``loop``, ``cc``)
        self.calib_samples: Dict[str, List[float]] = {}
        #: pair → sha256 of everything the compile emitted, and its size.
        self.digests: Dict[str, str] = {}
        self.code_sizes: Dict[str, Dict[str, int]] = {}
        #: pair → boundary counts of the staged compile (traced run).
        self.counts: Dict[str, Dict[str, int]] = {}
        #: pair → seconds of ``generate_program`` / of the staged drive.
        self.compile_seconds: Dict[str, List[float]] = {}
        self.staged_seconds: Dict[str, List[float]] = {}
        self.generated: Dict[str, object] = {}
        self.native_loads = 0
        self.so_dirs: List[Path] = []
        #: Background builds: set-up runs ``cc`` on the other core while this
        #: thread compiles.  Shut down by the caller when the workload ends.
        self.pool = ThreadPoolExecutor(max_workers=WORKERS)
        self._building: Dict[str, object] = {}

    # -- phases and rounds -----------------------------------------------------------
    def ready(self) -> None:
        """Set-up is over: everything before this instant is ``setup_s``."""
        self.measure_start = time.perf_counter()
        self.setup_s = self.measure_start - self.started
        if self.setup_only:
            raise SetupDone

    def more_rounds(self, done: int, minimum: int) -> bool:
        if self.smoke:
            return done < SMOKE_ROUNDS
        if self.trace:
            return done < TRACE_ROUNDS
        if done < minimum:
            return True
        elapsed = time.perf_counter() - self.measure_start
        return elapsed + 0.5 * elapsed / done < self.seconds

    def shuffled(self, items) -> List:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def _calib(self, kind: str, sample: float) -> float:
        self.calib_samples.setdefault(kind, []).append(sample)
        return sample

    def calib(self) -> float:
        return self._calib("py", calib_py())

    def calib_loop(self) -> float:
        return self._calib("loop", calib_loop())

    def calib_cc(self) -> float:
        """Seconds the system ``cc`` takes to build a fixed small C file (about 70 ms)."""
        build = timed(reference.build_reference, "calib", CALIB_C_SOURCE, self.workdir / "calib")
        return self._calib("cc", build[0])

    def so_dir(self, name: str) -> Path:
        """Point the toolchain at a fresh, empty ``.so`` directory."""
        path = self.workdir / name
        path.mkdir(parents=True)
        os.environ[NATIVE_CACHE_ENV] = str(path)
        self.so_dirs.append(path)
        return path

    # -- operations -------------------------------------------------------------------
    @contextmanager
    def _request(self, rid: str, box: Box) -> Iterator[None]:
        span = self.spans.span("request", request=rid) if self.spans else nullcontext()
        restore = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            with span:
                yield
            box.seconds = time.perf_counter() - start
        finally:
            if restore:
                gc.enable()

    def attempt(self, rid: str, operation: Callable[[], object]) -> Optional[Box]:
        """Run one operation as a request: timed, GC off, under a span when tracing.

        Every call counts as attempted; an exception makes it a failed
        operation and returns None — samples are never silently dropped.
        """
        self.tally.attempted += 1
        box = Box()
        try:
            with self._request(rid, box):
                box.value = operation()
        except Exception as exc:  # the benchmark's boundary: count it and go on
            self.tally.fail(f"{rid}: {type(exc).__name__}: {exc}")
            return None
        return box

    def expect(self, rid: str, value, wanted) -> bool:
        if agree(value, wanted):
            return True
        self.tally.fail(f"{rid}: got {value!r}, reference says {wanted!r}")
        return False

    def compile(self, pair: str, source, spec):
        """Compile one request: the real entry point, or the staged drive when tracing."""
        start = time.perf_counter()
        if self.spans is None:
            program = generate_program(source, spec)
            self.compile_seconds.setdefault(pair, []).append(time.perf_counter() - start)
        else:
            program = staged_compile(self.spans, source, spec)
            self.staged_seconds.setdefault(pair, []).append(time.perf_counter() - start)
            counts = self.counts.setdefault(pair, program.counts)
            if counts != program.counts:
                self.tally.fail(f"{pair}: pass/IR counts differ between sweeps")
        self.check_compiled(pair, program, spec)
        return program

    def check_compiled(self, pair: str, program, spec) -> None:
        """Determinism and degradation checks on anything that carries emitted code."""
        native = program.native_code or ""
        digest = hashlib.sha256((program.code + "\0" + native).encode("utf-8")).hexdigest()
        if self.digests.setdefault(pair, digest) != digest:
            self.tally.fail(f"{pair}: emitted code differs between two compiles of one run")
        self.code_sizes[pair] = {
            "python": len(program.code.encode("utf-8")), "c": len(native.encode("utf-8")),
        }
        if spec.codegen.backend == "native" and spec.bridge and not native:
            self.tally.degrade(f"{pair}: native backend requested, none emitted")

    def check_staged(self, pair: str, staged, source, spec) -> None:
        """Traced run: the staged drive must reproduce ``generate_program`` byte for byte."""
        if self.spans is None or pair in self.generated:
            return
        self.tally.attempted += 1
        seconds, generated = timed(generate_program, source, spec)  # GC off, like the staged drive
        self.compile_seconds.setdefault(pair, []).append(seconds)
        self.generated[pair] = generated
        if not same_code(staged, generated):
            self.tally.fail(f"{pair}: staged drive and generate_program emit different code")

    def load_native(self, code: str) -> CompiledNative:
        """``cc`` (or ``.so`` cache hit) plus ``dlopen``.

        The traced run loads twice: the first call pays the build, the
        second is a pure ``.so``-cache hit plus ``dlopen`` — the only way to
        time the two apart through the public entry point.
        """
        self.native_loads += 1
        if self.spans is None:
            return CompiledNative.from_code(code)
        with self.spans.span("toolchain.cc"):
            CompiledNative.from_code(code)
        self.native_loads += 1
        with self.spans.span("toolchain.dlopen"):
            return CompiledNative.from_code(code)

    def prebuild(self, code: Optional[str]) -> None:
        """Start building one emitted C source in the background (untraced set-up only).

        The traced run skips this and builds one at a time inside spans.
        """
        if self.spans is None and code and code not in self._building:
            self._building[code] = self.pool.submit(CompiledNative.from_code, code)

    def drain(self) -> None:
        """Wait for the background builds; ``load_native`` reports what failed."""
        for future in self._building.values():
            try:
                future.result()
            except Exception:  # load_native meets the same failure and counts it
                pass
        self._building.clear()

    def run(self, runner: Callable, **inputs):
        if self.spans is None:
            return runner(**inputs)
        with self.spans.span("run"):
            return runner(**inputs)

    # -- references --------------------------------------------------------------------
    def references(self, programs: Dict[str, object], run: bool = True) -> "References":
        """Start building the references; call ``wait()`` on the result before using it."""
        refs = References(self, programs, run)
        if self.spans is not None:
            refs.wait()  # a traced run keeps the other core quiet while spans are open
        return refs

    # -- results ----------------------------------------------------------------------
    def code_bytes(self) -> int:
        return sum(sizes["python"] + sizes["c"] for sizes in self.code_sizes.values())


class References:
    """Reference value of every program, and the reference binaries of the C ones.

    C references build (and, with ``run``, execute once) in the background;
    Python programs are their own reference: calling one runs plain NumPy.
    """

    def __init__(self, ctx: Context, programs: Dict[str, object], run: bool):
        self.ctx = ctx
        self.programs = programs
        self.values: Dict[str, Optional[float]] = {}
        self.binaries: Dict[str, Path] = {}
        self.seconds: Dict[str, List[float]] = {}
        directory = ctx.workdir / "ref"
        self._futures = {
            name: ctx.pool.submit(self._build, name, source, directory, run)
            for name, source in programs.items() if isinstance(source, str)
        }

    @staticmethod
    def _build(name: str, source: str, directory: Path, run: bool):
        binary = reference.build_reference(name, source, directory)
        return binary, reference.run_reference(binary)[1] if run else None

    def wait(self) -> "References":
        for name, source in self.programs.items():
            try:
                if name in self._futures:
                    self.binaries[name], self.values[name] = self._futures[name].result()
                else:
                    self.values[name] = float(source())
            except Exception as exc:  # a missing reference fails every check against it
                self.ctx.tally.note(f"reference {name}: {type(exc).__name__}: {exc}")
                self.values[name] = None
        return self

    def sample(self, name: str) -> Optional[float]:
        """One out-of-process, self-timed rep of the reference binary.

        One call per process, so it first-touches its arrays as the
        in-process kernels do, whose large ``malloc`` blocks are mapped
        afresh on every call.  (Timing a second, warm call instead made the
        ratio repeat three times worse.)
        """
        try:
            (seconds,), self.values[name] = reference.run_reference(self.binaries[name])
        except (KeyError, reference.ReferenceError) as exc:
            self.ctx.tally.note(f"reference {name}: {exc}")
            return None
        self.seconds.setdefault(name, []).append(seconds)
        return seconds


def _per_pair_median(samples: Dict[str, List[float]]) -> Dict[str, float]:
    return {pair: median(values) for pair, values in samples.items() if values}


def _geomean_of(medians: Dict[str, float], label: str) -> float:
    values = [v for pair, v in medians.items() if pair.endswith("|" + label)]
    return geomean(values) if values else 0.0


# -- cold_compile ------------------------------------------------------------------------


def cold_compile(ctx: Context) -> Dict[str, float]:
    programs = load_programs("small", ctx.smoke)
    specs = {"mlir": get_pipeline("mlir"), "dace": native_spec("dace"), "dcir": native_spec("dcir")}

    # Set-up warms the process (interning tables, parser caches, lazy imports):
    # every program once through dcir, which crosses every layer.  Discarded.
    start = time.perf_counter()
    for source in programs.values():
        generate_program(source, specs["dcir"])
    ctx.layer["pipeline.first_sweep_s"] = time.perf_counter() - start
    ctx.ready()

    ratios: Dict[str, List[float]] = {}
    emitted: Dict[str, object] = {}
    rounds = 0
    while ctx.more_rounds(rounds, minimum=3):
        for name in ctx.shuffled(programs):
            calib = ctx.calib()
            for label in ctx.shuffled(specs):
                pair = f"{name}|{label}"
                box = ctx.attempt(
                    f"compile/{pair}#{rounds}",
                    lambda: ctx.compile(pair, programs[name], specs[label]),
                )
                if box is None:
                    continue
                ratios.setdefault(pair, []).append(box.seconds / calib)
                emitted[pair] = box.value
                ctx.check_staged(pair, box.value, programs[name], specs[label])
        rounds += 1
    ctx.info["rounds"] = rounds

    # Nothing was executed while timing.  Now run what the last sweep emitted
    # (interpreted, small sizes) against the independent references.
    refs = ctx.references(programs).wait()
    for pair, program in emitted.items():
        rid = f"check/{pair}"
        box = ctx.attempt(rid, lambda: load_runner(program.code)())
        if box is not None:
            ctx.expect(rid, box.value.get("__return"), refs.values[pair.split("|")[0]])

    per_pair = _per_pair_median(ratios)
    slowest = sorted(per_pair.values())[-10:]
    return {
        "primary_rel": sum(per_pair.values()),
        # the tail a user waits for; ten pairs, because one pair's median of
        # three sweeps alone repeats only to 13 %
        "secondary_rel": sum(slowest) / len(slowest) if slowest else 0.0,
    }


# -- native_run ---------------------------------------------------------------------------


def _compile_all(ctx: Context, programs, specs) -> Dict[str, object]:
    compiled = {}
    for name, source in programs.items():
        for label, spec in specs.items():
            pair = f"{name}|{label}"
            box = ctx.attempt(f"compile/{pair}#0", lambda: ctx.compile(pair, source, spec))
            if box is not None:
                compiled[pair] = box.value
                ctx.check_staged(pair, box.value, source, spec)
                ctx.prebuild(box.value.native_code)
    return compiled


def native_run(ctx: Context) -> Dict[str, float]:
    programs = load_programs("large", ctx.smoke, python=False)
    specs = {"dace": native_spec("dace"), "dcir": native_spec("dcir")}
    if ctx.trace:
        specs["dcir+vec"] = native_spec("dcir+vec")
        specs["dcir+par"] = parallel_spec(2)
    ctx.so_dir("so")

    # The reference's value comes with each of its timed samples, so set-up
    # only builds it; every timed rep is checked, the warm-up call is not.
    refs = ctx.references(programs, run=False)
    compiled = _compile_all(ctx, programs, specs)
    ctx.drain()
    refs.wait()
    natives: Dict[str, CompiledNative] = {}
    allocations = 0
    for pair, program in compiled.items():
        if not program.native_code:
            continue  # already counted as degraded
        rid = f"load/{pair}#0"
        box = ctx.attempt(rid, lambda: ctx.load_native(program.native_code))
        if box is None:
            continue
        natives[pair] = box.value
        box = ctx.attempt(f"warmup/{pair}#0", lambda: ctx.run(natives[pair].run))
        if box is not None and pair.endswith("|dcir"):
            allocations += box.value["__allocations"]
    ctx.ready()

    seconds: Dict[str, List[float]] = {}
    ratios: Dict[str, List[float]] = {}
    rounds = 0
    while ctx.more_rounds(rounds, minimum=3):
        for name in ctx.shuffled(programs):
            ref_seconds = refs.sample(name)
            for label in ctx.shuffled(specs):
                pair = f"{name}|{label}"
                if pair not in natives:
                    continue
                rid = f"run/{pair}#{rounds}"
                box = ctx.attempt(rid, lambda: ctx.run(natives[pair].run))
                if box is None or not ctx.expect(rid, box.value["__return"], refs.values[name]):
                    continue
                seconds.setdefault(pair, []).append(box.seconds)
                if ref_seconds is None:
                    ctx.tally.fail(f"{rid}: no reference sample to normalise by")
                else:
                    ratios.setdefault(pair, []).append(box.seconds / ref_seconds)
        rounds += 1
    ctx.info["rounds"] = rounds
    ctx.info["min_rep_ms"] = 1e3 * min((min(v) for v in seconds.values()), default=0.0)
    if ctx.info["min_rep_ms"] < 10.0 and not ctx.smoke:
        ctx.tally.note("a kernel rep took under 10 ms: run --check-sizes and grow its large preset")

    medians = _per_pair_median(seconds)
    rel = _per_pair_median(ratios)
    if ctx.trace:
        ctx.layer.update({
            "runtime.native_dcir_s": _geomean_of(medians, "dcir"),
            "runtime.native_dace_s": _geomean_of(medians, "dace"),
            "runtime.native_vec_s": _geomean_of(medians, "dcir+vec"),
            "runtime.native_vec_vs_cc": _geomean_of(rel, "dcir+vec"),
            "runtime.ref_cc_s": geomean(median(v) for v in refs.seconds.values()) if refs.seconds else 0.0,
            "runtime.dcir_vs_dace": _ratio_geomean(medians, programs, "dcir", "dace"),
            "runtime.parallel2_vs_seq": (
                _ratio_geomean(medians, programs, "dcir+par", "dcir") if WORKERS >= 2 else 0.0
            ),
            "runtime.allocations": allocations,
            "codegen.cost_rank_agreement": _cost_rank_agreement(ctx, compiled, seconds, programs),
        })
        ctx.info["parallel2_applicable"] = WORKERS >= 2
    return {"primary_rel": _geomean_of(rel, "dcir"), "secondary_rel": _geomean_of(rel, "dace")}


def _ratio_geomean(medians: Dict[str, float], programs, top: str, bottom: str) -> float:
    ratios = [
        medians[f"{name}|{top}"] / medians[f"{name}|{bottom}"] for name in programs
        if f"{name}|{top}" in medians and f"{name}|{bottom}" in medians
    ]
    return geomean(ratios) if ratios else 0.0


def _cost_rank_agreement(ctx: Context, compiled, seconds: Dict[str, List[float]], programs) -> float:
    """Share of pipeline pairs per kernel that ``movement_score`` orders as measured.

    A pair of pipelines whose medians differ by less than either one's
    inter-quartile range, or whose scores tie, is unresolved and not counted.
    """
    labels = ("dace", "dcir", "dcir+vec")
    agreeing = counted = 0
    for name in programs:
        for i, first in enumerate(labels):
            for second in labels[i + 1:]:
                a, b = f"{name}|{first}", f"{name}|{second}"
                if a not in seconds or b not in seconds:
                    continue
                qa, qb = quartiles(seconds[a]), quartiles(seconds[b])
                measured = qa[1] - qb[1]
                predicted = (
                    movement_score(sdfg_movement_report(compiled[a].sdfg))
                    - movement_score(sdfg_movement_report(compiled[b].sdfg))
                )
                if predicted == 0 or abs(measured) < max(qa[2] - qa[0], qb[2] - qb[0]):
                    continue
                counted += 1
                agreeing += (predicted > 0) == (measured > 0)
    ctx.info["cost_rank_pairs_resolved"] = counted
    return agreeing / counted if counted else 0.0


# -- interp_run ---------------------------------------------------------------------------


def interp_run(ctx: Context) -> Dict[str, float]:
    programs = load_programs("medium", ctx.smoke)
    labels = ["dcir", "mlir"] + (["gcc", "dace", "dcir+vec"] if ctx.trace else [])
    specs = {label: get_pipeline(label) for label in labels}

    refs = ctx.references(programs)
    compiled = _compile_all(ctx, programs, specs)
    refs.wait()
    runners: Dict[str, Callable] = {}
    allocations = 0
    for pair, program in compiled.items():
        rid = f"load/{pair}#0"
        # the first call pays the exec of the emitted source, as a lazy runner does
        box = ctx.attempt(rid, lambda: ctx.run(lambda: _load_and_run(runners, pair, program.code)))
        if box is not None and ctx.expect(rid, box.value.get("__return"), refs.values[pair.split("|")[0]]):
            if pair.endswith("|dcir"):
                allocations += box.value.get("__allocations", 0)
    ctx.ready()

    seconds: Dict[str, List[float]] = {}
    ratios: Dict[str, List[float]] = {}
    rounds = 0
    while ctx.more_rounds(rounds, minimum=5):
        for name in ctx.shuffled(programs):
            calib = ctx.calib_loop()
            for label in ctx.shuffled(labels):
                pair = f"{name}|{label}"
                if pair not in runners:
                    continue
                rid = f"run/{pair}#{rounds}"
                box = ctx.attempt(rid, lambda: ctx.run(runners[pair]))
                if box is None or not ctx.expect(rid, box.value.get("__return"), refs.values[name]):
                    continue
                seconds.setdefault(pair, []).append(box.seconds)
                ratios.setdefault(pair, []).append(box.seconds / calib)
        rounds += 1
    ctx.info["rounds"] = rounds

    medians = _per_pair_median(seconds)
    rel = _per_pair_median(ratios)
    if ctx.trace:
        for label in labels:
            ctx.layer[f"runtime.interp_{label.replace('+', '_')}_s"] = _geomean_of(medians, label)
        ctx.layer["runtime.interp_dcir_vs_mlir"] = _ratio_geomean(medians, programs, "dcir", "mlir")
        ctx.layer["runtime.allocations"] = allocations
    return {"primary_rel": _geomean_of(rel, "dcir"), "secondary_rel": _geomean_of(rel, "mlir")}


def _load_and_run(runners: Dict[str, Callable], pair: str, code: str):
    runners[pair] = load_runner(code)
    return runners[pair]()


# -- request_path -------------------------------------------------------------------------


class Request:
    """One (program, pipeline) request with its inputs and the value it must return."""

    def __init__(self, name: str, label: str, source, spec, inputs=None, wanted=None):
        self.name, self.label, self.source, self.spec = name, label, source, spec
        self.inputs: Dict[str, np.ndarray] = inputs or {}
        self.wanted = wanted
        self.pair = f"{name}|{label}"
        self.native = spec.codegen.backend == "native"


def _args_requests(ctx: Context, spec) -> List[Request]:
    """The two array-argument programs; inputs are drawn from the seed.

    ``args_contig`` passes contiguous arrays (marshalling is a pointer);
    ``args_copy`` passes every other element of arrays twice as long, which
    forces a copy in and a copy back out.  The expected value is plain NumPy.
    """
    rng = np.random.default_rng(ctx.seed)
    n = ARGS_ELEMENTS
    requests = []
    for name, step in (("args_contig", 1), ("args_copy", 2)):
        x = rng.uniform(-1.0, 1.0, n * step)[::step]
        y = np.zeros(n * step)[::step]
        source = ARGS_SOURCE % {"name": name, "n": n, "last": n - 1}
        wanted = (x[0] + 1.0) + (x[n - 1] * 2.0)
        requests.append(Request(name, "dcir", source, spec, {"x": x, "y": y}, wanted))
    return requests


def _cold_request(ctx: Context, request: Request):
    """Source → first result with nothing cached."""
    if ctx.spans is None:
        result = compile_c(request.source, request.spec)
        value = result.run(**request.inputs)["__return"]
        ctx.check_compiled("cold/" + request.pair, result, request.spec)
        return value, result.backend == "native", result
    program = ctx.compile("cold/" + request.pair, request.source, request.spec)
    if program.native_code:
        native = ctx.load_native(program.native_code)
        return ctx.run(native.run, **request.inputs)["__return"], True, program
    runner = load_runner(program.code)
    return ctx.run(runner, **request.inputs)["__return"], False, program


def _warm_request(ctx: Context, cache: CompileCache, request: Request):
    """Cache hit → rehydrated result → run."""
    if ctx.spans is None:
        result = cache.get_or_compile(request.source, request.spec)
        return result.run(**request.inputs)["__return"], result.cache_hit, result.backend == "native"
    with ctx.spans.span("service.lookup"):
        result = cache.get_or_compile(request.source, request.spec)
    if result.native_code:
        ctx.native_loads += 1
        with ctx.spans.span("toolchain.dlopen"):
            native = CompiledNative.from_code(result.native_code)
        return ctx.run(native.run, **request.inputs)["__return"], result.cache_hit, True
    return ctx.run(result.run, **request.inputs)["__return"], result.cache_hit, False


def request_path(ctx: Context) -> Dict[str, float]:
    programs = load_programs("small", ctx.smoke)
    dcir, mlir = native_spec("dcir"), get_pipeline("mlir")
    requests = [
        Request(name, label, source, spec)
        for name, source in programs.items() for label, spec in (("dcir", dcir), ("mlir", mlir))
    ]
    requests += _args_requests(ctx, dcir)
    refs = ctx.references(programs)

    # Set-up fills a disk-backed compile cache the way a service would: one
    # batch over a process pool.  Then the .so directory the warm phase uses.
    cache = CompileCache(directory=ctx.workdir / "cache", use_env_directory=False)
    start = time.perf_counter()
    outcomes = compile_many(
        [(r.source, r.spec) for r in requests],
        executor="process", max_workers=WORKERS, cache=cache,
    )
    fill = time.perf_counter() - start
    warm_dir = ctx.so_dir("so-warm")
    for request, outcome in zip(requests, outcomes):
        ctx.tally.attempted += 1
        if not outcome.ok:
            ctx.tally.fail(f"fill/{request.pair}: {outcome.error_type}: {outcome.error}")
        else:
            ctx.check_compiled("cold/" + request.pair, outcome.result, request.spec)
    ctx.layer.update({
        "service.batch_fill_s": fill,
        "service.batch_speedup": sum(o.seconds for o in outcomes) / fill,
        "service.retries": sum(o.attempts - 1 for o in outcomes),
    })
    for outcome in outcomes:
        if outcome.ok:
            ctx.prebuild(outcome.result.native_code)
    ctx.drain()
    refs.wait()
    for request, outcome in zip(requests, outcomes):
        if request.wanted is None:
            request.wanted = refs.values[request.name]
        if outcome.ok:
            rid = f"first/{request.pair}#0"
            box = ctx.attempt(rid, lambda: outcome.result.run(**request.inputs)["__return"])
            if box is not None:
                ctx.expect(rid, box.value, request.wanted)
    ctx.ready()

    # Cold: no compile cache, a fresh .so directory; one pass over every request.
    cold: List[float] = []
    ctx.so_dir("so-cold")
    for request in ctx.shuffled(requests):
        if request.native:
            calib = ctx.calib() + ctx.calib_cc()  # one unit of each kind of work it does
        rid = f"cold/{request.pair}#0"
        box = ctx.attempt(rid, lambda: _cold_request(ctx, request))
        if box is None:
            continue
        value, native, program = box.value
        ctx.check_staged("cold/" + request.pair, program, request.source, request.spec)
        if request.native and not native:
            ctx.tally.degrade(f"{rid}: native request ran interpreted")
        if ctx.expect(rid, value, request.wanted) and request.native:
            cold.append(box.seconds / calib)

    # Warm: hit in the in-memory cache, rehydrate, dlopen the cached .so, run.
    os.environ[NATIVE_CACHE_ENV] = str(warm_dir)
    warm: List[float] = []
    warm_seconds: List[float] = []
    rounds = 0
    while ctx.more_rounds(rounds, minimum=30):
        calib = ctx.calib()
        for request in ctx.shuffled(requests):
            if not request.native and rounds >= WARM_INTERPRETED_ROUNDS:
                continue
            box = _checked_warm(ctx, cache, request, f"warm/{request.pair}#{rounds}")
            if box is not None and request.native:
                warm.append(box.seconds / calib)
                warm_seconds.append(box.seconds)
        rounds += 1
    ctx.info["rounds"] = rounds
    ctx.info["warm_native_requests"] = len(warm)

    # One pass from a fresh cache object on the same directory: disk hits.
    disk = CompileCache(directory=ctx.workdir / "cache", use_env_directory=False)
    for request in requests:
        _checked_warm(ctx, disk, request, f"disk/{request.pair}#0")

    if ctx.trace:
        _trace_stores(ctx, requests)
        spans = ctx.spans
        ctx.layer.update({
            "service.mem_hit_s": spans.per_call_median("service.lookup", "warm/"),
            "service.disk_hit_s": spans.per_call_median("service.lookup", "disk/"),
            "service.store_s": spans.per_call_median("service.store"),
            "service.hits": cache.stats.hits + disk.stats.hits,
            "service.misses": cache.stats.misses + disk.stats.misses,
            "service.warm_request_p95_s": percentile(warm_seconds, 0.95) if warm_seconds else 0.0,
            "toolchain.marshal_contig_s": spans.per_call_median("run", "warm/args_contig|dcir"),
            "toolchain.marshal_copy_s": spans.per_call_median("run", "warm/args_copy|dcir"),
        })
    return {
        "primary_rel": median(warm) if warm else 0.0,
        "secondary_rel": midmean(cold) if cold else 0.0,
    }


def _checked_warm(ctx: Context, cache: CompileCache, request: Request, rid: str) -> Optional[Box]:
    box = ctx.attempt(rid, lambda: _warm_request(ctx, cache, request))
    if box is None:
        return None
    value, hit, native = box.value
    if not hit:
        ctx.tally.fail(f"{rid}: expected a cache hit, the request compiled")
        return None
    if request.native and not native:
        ctx.tally.degrade(f"{rid}: native request ran interpreted")
    return box if ctx.expect(rid, value, request.wanted) else None


def _trace_stores(ctx: Context, requests: List[Request]) -> None:
    """Time ``CompileCache.store`` of every request's payload into a scratch directory."""
    scratch = CompileCache(directory=ctx.workdir / "cache-store", use_env_directory=False)
    for request in requests:
        generated = ctx.generated.get("cold/" + request.pair)
        if generated is None:
            continue
        key, payload = cache_key(request.source, request.spec), generated.to_payload()
        with ctx.spans.span("service.store", request=f"store/{request.pair}#0"):
            scratch.store(key, payload)


WORKLOADS: Dict[str, Callable[[Context], Dict[str, float]]] = {
    "cold_compile": cold_compile,
    "native_run": native_run,
    "interp_run": interp_run,
    "request_path": request_path,
}


# -- layer metrics every workload shares ---------------------------------------------------------


def shared_layer_metrics(ctx: Context) -> Dict[str, float]:
    """Per-layer metrics derived from the spans and counts of a traced run."""
    spans = ctx.spans
    layer = {
        "frontend.c_s": spans.per_pair_sum("frontend"),
        "frontend_py.trace_s": spans.per_pair_sum("frontend_py"),
        "passes.control_s": spans.per_pair_sum("passes"),
        "conversion.bridge_s": spans.per_pair_sum("conversion"),
        "transforms.data_s": spans.per_pair_sum("transforms"),
        "codegen.python_s": spans.per_pair_sum("codegen.python"),
        "codegen.c_s": spans.per_pair_sum("codegen.c"),
        "codegen.mlir_python_s": spans.per_pair_sum("codegen.mlir_python"),
        "toolchain.cc_s": spans.per_call_median("toolchain.cc"),
        "toolchain.dlopen_s": spans.per_call_median("toolchain.dlopen"),
    }
    for key in (
        "frontend.ops", "frontend_py.ops", "passes.applied", "passes.ops_after",
        "conversion.sdfg_nodes", "transforms.applied", "transforms.sdfg_nodes_after",
        "transforms.containers_eliminated", "codegen.python_bytes", "codegen.c_bytes",
        "codegen.native_fallbacks",
    ):
        layer[key] = sum(counts.get(key, 0) for counts in ctx.counts.values())
    libraries = [path for directory in ctx.so_dirs for path in directory.glob("*.so")]
    reference_s = sum(median(v) for v in ctx.compile_seconds.values())
    # generate_program ran once per pair, right after the pair's first staged
    # compile: only those two samples are adjacent and comparable
    staged_s = sum(v[0] for v in ctx.staged_seconds.values())
    layer.update({
        "pipeline.compile_s": reference_s,
        "toolchain.cc_runs": len(libraries),
        "toolchain.so_cache_hits": ctx.native_loads - len(libraries),
        "toolchain.so_bytes": sum(path.stat().st_size for path in libraries),
        "harness.calib_py_s": median(ctx.calib_samples.get("py") or [calib_py()]),
        "harness.calib_loop_s": median(ctx.calib_samples.get("loop") or [calib_loop()]),
        "harness.calib_cc_s": median(ctx.calib_samples.get("cc") or [0.0]),
        "harness.timer_resolution_s": timer_resolution(),
        "harness.trace_overhead": staged_s / reference_s - 1.0 if reference_s else 0.0,
        "harness.request_gap_share": spans.gap_share(),
    })
    return layer
