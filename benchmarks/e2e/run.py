"""One end-to-end benchmark of the repo: four workloads, every metric by name.

    python3 benchmarks/e2e/run.py                      all workloads, untraced
    python3 benchmarks/e2e/run.py --trace -o out.json  plus the traced pass and trace.json
    python3 benchmarks/e2e/run.py --workload native_run --seed 3 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke | --check-sizes

Each workload runs in fresh subprocesses with a pinned environment.  With
``--workload`` the last line of standard output is one JSON object —
``correct``, ``attempted``, ``failed``, ``metrics`` — holding every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer
metric (``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before the heavy imports

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Fresh processes that each do a workload's whole set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3

SCHEMA = "repro-e2e/v1"
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Bound a child may run for; the contract allows 180 s for the whole command.
CHILD_TIMEOUT_S = 170.0


def benchmark_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- child: one process, one workload --------------------------------------------------------


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import loads  # imports repro: part of set-up
    import measure

    workdir = Path(args.workdir)
    if args.child == "check-sizes":
        return check_sizes_child(loads, measure, workdir)

    ctx = loads.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), smoke=args.smoke,
        workdir=workdir, started=STARTED, setup_only=args.child == "setup",
    )
    try:
        headline = loads.WORKLOADS[args.workload](ctx)
    except loads.SetupDone:
        headline = {}
    finally:
        ctx.pool.shutdown()
    document = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "setup_s": ctx.setup_s,
        "attempted": ctx.tally.attempted, "failed": ctx.tally.failed,
        "degraded": ctx.tally.degraded, "messages": ctx.tally.messages, "info": ctx.info,
    }
    if args.child == "measure":
        if ctx.trace:
            layer = loads.shared_layer_metrics(ctx)
            layer.update(ctx.layer)
            document["per_layer"] = layer
            document["spans"] = ctx.spans.records
            if layer["harness.request_gap_share"] > 0.02:
                ctx.tally.fail("request spans leave more than 2 % of their time to no layer")
                document["failed"], document["messages"] = ctx.tally.failed, ctx.tally.messages
        else:
            document["end_to_end"] = {
                **headline, "code_bytes": ctx.code_bytes(), "peak_rss_mb": measure.peak_rss_mb(),
            }
    Path(args.child_out).write_text(json.dumps(document), encoding="utf-8")
    return 0


def check_sizes_child(loads, measure, workdir: Path) -> int:
    """Fail listing every kernel whose dcir median rep is outside its preset's window."""
    from repro import compile_c, get_pipeline
    from repro.workloads import polybench, python_suite_module

    os.environ[loads.NATIVE_CACHE_ENV] = str(workdir / "so")
    sizes = loads.load_sizes()
    problems: List[str] = []
    for name, entry in sizes["kernels"].items():
        module = python_suite_module if entry["class"] == "python-suite" else polybench
        if entry["small"] != module.default_sizes(name):
            problems.append(f"{name}: small {entry['small']} is not the repo default")
    for preset, rule in sizes["presets"].items():
        if rule["window_ms"] is None:
            continue
        low, high = rule["window_ms"]
        spec = get_pipeline("dcir").with_codegen(backend=rule["backend"])
        programs = loads.load_programs(preset, smoke=False, python=rule["backend"] == "python")
        for name, source in programs.items():
            result = compile_c(source, spec)
            result.run()
            reps = sorted(measure.timed(result.run)[0] for _ in range(5))
            verdict = "ok" if low <= 1e3 * reps[2] <= high and result.backend == rule["backend"] else "OUTSIDE"
            print(f"{preset:7s} {name:16s} {1e3 * reps[2]:8.2f} ms  [{low:g}, {high:g}]  {verdict}", flush=True)
            if verdict != "ok":
                problems.append(f"{name}: {preset} rep {1e3 * reps[2]:.2f} ms outside [{low:g}, {high:g}] ms")
    for problem in problems:
        print("check-sizes:", problem)
    return 1 if problems else 0


# -- coordinator ---------------------------------------------------------------------------------


def pinned_environment(workdir: Path) -> Dict[str, str]:
    """The environment every child runs in: nothing of the caller's can tilt a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(SRC),
        "REPRO_NATIVE_CACHE_DIR": str(workdir / "so-default"),
        "TMPDIR": str(workdir),  # the toolchain's feature probes write temporary files
        "REPRO_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
    })
    return env


def spawn_child(mode: str, workload: str, seed: int = 0, seconds: float = 0.0, trace: int = 0,
                smoke: bool = False, tag: str = "") -> Tuple[int, Optional[Dict]]:
    """Run one child in a fresh work directory (removed afterwards).

    Returns its exit code and, when it wrote one, its document.
    """
    workdir = WORK / f"{workload}-{os.getpid()}-{tag}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    out = workdir / "child.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--child-out", str(out),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            command, env=pinned_environment(workdir), cwd=str(ROOT),
            stdout=None if mode == "check-sizes" else subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
        if not out.exists():
            return proc.returncode, None
        return proc.returncode, json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"{workload}: {mode} child exceeded {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> Optional[Dict]:
    """One run of one workload: the measuring child plus, untraced, the extra set-ups."""
    from measure import median

    modes = ["setup"] * (0 if trace or smoke else SETUP_REPEATS - 1) + ["measure"]
    setups: List[float] = []
    for index, mode in enumerate(modes):
        code, document = spawn_child(mode, workload, seed, seconds, trace, smoke, f"{mode}{index}")
        if code != 0 or document is None:
            print(f"{workload}: {mode} child exited with code {code}", file=sys.stderr)
            return None
        setups.append(document["setup_s"])
    if not trace:
        document["setup_samples"] = setups
        document["end_to_end"]["setup_s"] = median(setups)
    return document


def driver_result(document: Dict, spec: Dict) -> Dict:
    """The contract's result object: every declared metric of this pass, by name."""
    declared = spec["per_layer"] if document["trace"] else spec["end_to_end"]
    measured = document["per_layer"] if document["trace"] else document["end_to_end"]
    metrics = {
        # a layer the workload never enters did no work: its time and count are 0
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }
    failed = document["failed"] + document["degraded"]
    return {
        "correct": failed == 0, "attempted": max(1, document["attempted"]),
        "failed": failed, "metrics": metrics,
    }


def print_metrics(document: Dict, spec: Dict) -> None:
    result = driver_result(document, spec)
    kind = "per-layer (traced)" if document["trace"] else "end-to-end"
    print(f"== {document['workload']}  seed {document['seed']}  {kind}  "
          f"attempted {document['attempted']}  failed {document['failed']}  "
          f"degraded {document['degraded']}  {json.dumps(document['info'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for message in document["messages"]:
        print(f"  ! {message}")


def machine() -> Dict:
    sys.path.insert(0, str(SRC))
    from repro.perf.bench import machine_metadata

    return machine_metadata()


# -- documents: write, compare, validate ------------------------------------------------------------------


def add_to_results(results: Dict, document: Dict) -> None:
    entry = results["workloads"].setdefault(document["workload"], {
        "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "degraded": 0, "runs": [],
    })
    section = "per_layer" if document["trace"] else "end_to_end"
    for name, value in document[section].items():
        entry[section].setdefault(name, []).append(value)
    for key in ("attempted", "failed", "degraded"):
        entry[key] += document[key]
    entry["runs"].append({
        k: document.get(k) for k in ("seed", "trace", "info", "messages", "setup_samples")
    })


def compare(path_a: str, path_b: str, spec: Dict) -> int:
    """One row per workload × end-to-end metric; non-zero exit when one regressed."""
    from measure import quartiles

    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    print(f"{'workload':13s} {'metric':14s} {'A q1/med/q3':>34s} {'B q1/med/q3':>34s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    regressed = False
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                qa = quartiles(a[workload["name"]]["end_to_end"][name])
                qb = quartiles(b[workload["name"]]["end_to_end"][name])
            except (KeyError, IndexError):
                print(f"{workload['name']:13s} {name:14s} missing from one document  regressed")
                regressed = True
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print(f"{workload['name']:13s} {name:14s} "
                  f"{qa[0]:>10.5g} {qa[1]:>11.5g} {qa[2]:>11.5g} "
                  f"{qb[0]:>10.5g} {qb[1]:>11.5g} {qb[2]:>11.5g} "
                  f"{worse:>+9.2%} {metric['bound']:>6.2f}  {verdict}")
    for workload in spec["workloads"]:
        for label, doc in (("A", a), ("B", b)):
            entry = doc.get(workload["name"], {})
            if entry.get("failed") or entry.get("degraded"):
                print(f"{workload['name']}: {label} has {entry['failed']} failed and "
                      f"{entry['degraded']} degraded of {entry['attempted']} operations")
                regressed = True
    return 1 if regressed else 0


def validate(results: Dict, spec: Dict) -> List[str]:
    """Every metric a run produced is well named and declared with a unit; nothing declared is absent."""
    problems: List[str] = []
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in spec[section]}
        for name, metric in declared.items():
            if not METRIC_NAME.match(name):
                problems.append(f"{section} metric {name!r}: bad name")
            if not metric.get("unit"):
                problems.append(f"{section} metric {name!r}: no unit")
        seen = set()
        for workload, entry in results["workloads"].items():
            for name in entry[section]:
                seen.add(name)
                if name not in declared:
                    problems.append(f"{workload}: {section} metric {name!r} is not in BENCHMARK.json")
        problems += [f"{section} metric {name!r} was produced by no workload" for name in declared if name not in seen]
    for workload in spec["workloads"]:
        entry = results["workloads"].get(workload["name"])
        if entry is None:
            problems.append(f"workload {workload['name']!r} did not run")
        elif entry["failed"] or entry["degraded"]:
            problems.append(f"{workload['name']}: {entry['failed']} failed, {entry['degraded']} degraded")
    return problems


# -- command line ----------------------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload; the last stdout line is its result object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of a run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced pass: stage-by-stage drive, spans, per-layer metrics")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("-o", "--output", help="write the results document here")
    parser.add_argument("--trace-out", default="trace.json", help="where a traced pass writes its spans")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true", help="2 programs, 2 rounds: validate the document")
    parser.add_argument("--check-sizes", action="store_true")
    parser.add_argument("--child", choices=("measure", "setup", "check-sizes"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run.py: no system to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.check_sizes:
        return spawn_child("check-sizes", "check_sizes")[0]

    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"run.py: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
            return 2
        names = [args.workload]
    # One named workload runs exactly the pass asked for; a sweep with --trace
    # runs the untraced pass (end-to-end metrics) and then the traced one.
    if args.workload:
        passes = [args.trace]
    else:
        passes = [0, 1] if args.trace or args.smoke else [0]
    results = {"schema": SCHEMA, "machine": machine() if args.output else None,
               "seed": args.seed, "seconds": seconds, "workloads": {}}
    traces: Dict[str, List[Dict]] = {}
    last: Optional[Dict] = None
    for name in names:
        for trace in passes:
            for run in range(1 if trace else args.runs):
                document = run_workload(name, args.seed + run, seconds, trace, args.smoke)
                if document is None:
                    return 1
                if trace:
                    traces[name] = document.pop("spans")
                print_metrics(document, spec)
                add_to_results(results, document)
                last = document
    if traces:
        Path(args.trace_out).write_text(
            json.dumps({"schema": SCHEMA + "/trace", "workloads": traces}), encoding="utf-8")
    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=1), encoding="utf-8")
    if args.smoke:
        problems = validate(results, spec)
        for problem in problems:
            print("smoke:", problem)
        print("smoke:", "FAILED" if problems else "ok")
        return 1 if problems else 0
    if args.workload:
        print(json.dumps(driver_result(last, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
