"""Command-line interface: ``python -m repro <subcommand>``.

Mirrors the library's pipeline API:

* ``list-pipelines`` — registered pipeline names (``-v`` adds the spec
  summary: pass counts, bridge, codegen flags);
* ``list-workloads`` — registered workload suites (polybench,
  casestudies, mish, python) and their kernels;
* ``show-pipeline NAME`` — a registered spec as JSON (edit the output and
  feed it back via ``--spec`` to build ablations without writing Python);
* ``compile`` — compile a C file or a named PolyBench kernel through a
  registered pipeline or a spec JSON file, printing the generated code or
  per-stage statistics (``--verbose`` adds per-pass records including the
  pattern engine's match/application counts); ``--frontend python``
  switches the input language to NumPy-style Python (a script file or a
  ``--kernel`` from the python suite) — same flag on ``run``,
  ``transforms match`` and ``tune``;
* ``run`` — compile and execute, printing the return value and timings;
  ``--timeout`` bounds the native toolchain build and ``--degradation
  strict|fallback`` picks whether a failing native backend raises or
  falls back to the interpreted runner;
* ``transforms list`` — registered data-centric passes; pattern-based
  transformations show their drain policy and tunable parameter axes;
* ``transforms match`` — compile a kernel up to the point a transformation
  would run and print its matched sites (``--json`` for machine-readable
  output) — the "what would this rewrite touch" query;
* ``tune`` — auto-tune the pipeline composition for a kernel: search
  ablations/reorderings/codegen variants of a base pipeline
  (``--pipeline``/``--spec``) with a pluggable strategy and evaluator,
  print the ranking and optionally write the ``TuningReport`` JSON
  (``-o``); seeded searches (``--budget N --seed S``) produce the same
  winner digest in every process.

Examples::

    python -m repro list-pipelines
    python -m repro show-pipeline dcir > dcir.json
    python -m repro compile --kernel gemm --size NI=8 NJ=9 NK=10 --spec ablation.json --stats
    python -m repro run kernel.c --pipeline dcir+vec --repetitions 5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import (
    PipelineError,
    PipelineSpec,
    compile_c,
    generate_program,
    get_pipeline,
    list_pipelines,
    run_compiled,
)
from .passbase import cap_suffix, match_suffix
from .service.resilience import DEGRADATION_MODES
from .pipeline.spec import PipelineLike


def _parse_sizes(items: Optional[List[str]]) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not _ or not name:
            raise SystemExit(f"Bad --size {item!r}: expected NAME=INTEGER")
        try:
            sizes[name] = int(value)
        except ValueError:
            raise SystemExit(f"Bad --size {item!r}: {value!r} is not an integer")
    return sizes


def _load_python_file(path: str, function: Optional[str], sizes: Dict[str, int]):
    """Collect the Python-frontend program(s) defined by a script file.

    The file is executed with ``np``/``math``/``program`` pre-bound;
    ``@repro.program``-decorated definitions are collected directly, and
    plain top-level functions are coerced (their int defaults become size
    bindings).  ``--function`` picks one when the file defines several.
    """
    import math
    import types

    import numpy as np

    from .frontend_py import PythonProgram, as_program, program as program_decorator

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemExit(f"Cannot read {path!r}: {exc}")
    namespace: Dict[str, object] = {
        "np": np, "numpy": np, "math": math, "program": program_decorator,
        "__file__": path, "__name__": "__repro_program__",
    }
    try:
        exec(compile(text, path, "exec"), namespace)
    except PipelineError:
        raise
    except Exception as exc:
        raise SystemExit(f"Error executing {path!r}: {exc}")
    programs: Dict[str, PythonProgram] = {}
    for key, value in namespace.items():
        if isinstance(value, PythonProgram):
            programs[value.name] = value
        elif (isinstance(value, types.FunctionType)
              and value.__module__ == "__repro_program__"):
            programs.setdefault(key, as_program(value))
    if not programs:
        raise SystemExit(f"{path!r} defines no Python-frontend programs")
    if function is not None:
        if function not in programs:
            raise SystemExit(
                f"{path!r} defines no program named {function!r} "
                f"(found: {', '.join(sorted(programs))})"
            )
        selected = programs[function]
    elif len(programs) == 1:
        selected = next(iter(programs.values()))
    else:
        raise SystemExit(
            f"{path!r} defines {len(programs)} programs "
            f"({', '.join(sorted(programs))}); pick one with --function"
        )
    return selected.bind(sizes) if sizes else selected


def _load_source(args):
    frontend = getattr(args, "frontend", "c")
    if args.kernel is not None and args.source is not None:
        raise SystemExit("Pass either a source file or --kernel, not both")
    if args.kernel is not None:
        # Unknown kernels raise PipelineError (with suggestions), which
        # main() renders as a clean CLI error.
        if frontend == "python":
            from .workloads.python_suite import get_program

            return get_program(args.kernel, _parse_sizes(args.size) or None)
        from .workloads import get_kernel

        return get_kernel(args.kernel, _parse_sizes(args.size) or None)
    if args.source is None:
        raise SystemExit("Pass a source file or --kernel NAME")
    if frontend == "python":
        if args.source == "-":
            raise SystemExit(
                "--frontend python needs a real file (the frontend recovers "
                "function sources via inspect), not stdin"
            )
        return _load_python_file(args.source, args.function, _parse_sizes(args.size))
    if args.source == "-":
        return sys.stdin.read()
    try:
        with open(args.source, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit(f"Cannot read {args.source!r}: {exc}")


def _load_pipeline(args) -> PipelineLike:
    pipeline: PipelineLike = args.pipeline
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                pipeline = PipelineSpec.from_dict(json.load(handle))
        except OSError as exc:
            raise SystemExit(f"Cannot read spec file {args.spec!r}: {exc}")
        except (ValueError, KeyError, TypeError, PipelineError) as exc:
            raise SystemExit(f"Bad pipeline spec in {args.spec!r}: {exc}")
    backend = getattr(args, "backend", None)
    if backend is not None:
        from .pipeline import resolve_pipeline

        spec = resolve_pipeline(pipeline)
        if spec.codegen.backend != backend:
            # Keep the registered name: --backend selects how the same
            # pipeline executes, it is not an ablation of it.
            pipeline = spec.with_codegen(backend=backend).derive(
                name=spec.name, description=spec.description
            )
    threads = getattr(args, "threads", None)
    if threads is not None:
        from .pipeline import resolve_pipeline

        if threads < 0:
            raise SystemExit(f"--threads must be >= 0 (got {threads})")
        spec = resolve_pipeline(pipeline)
        if not spec.bridge:
            raise SystemExit(
                f"--threads requires a data-centric pipeline (map schedules "
                f"live on the SDFG; {spec.label!r} never builds one)"
            )
        if all(pass_spec.name != "parallelize" for pass_spec in spec.data_passes):
            params = {"n_threads": threads} if threads > 0 else {}
            passes = list(spec.data_passes) + [("parallelize", params)]
            pipeline = spec.with_passes("data", passes).derive(
                name=spec.name, description=spec.description
            )
    return pipeline


def _add_compile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "source", nargs="?",
        help="source file: C ('-' for stdin) or, with --frontend python, a "
        "Python script defining the program",
    )
    parser.add_argument(
        "--frontend", choices=("c", "python"), default="c",
        help="input language: C (default) or NumPy-style Python "
        "(both lower into the same control-centric IR)",
    )
    parser.add_argument(
        "--kernel",
        help="compile a named kernel instead of a file (PolyBench for the C "
        "frontend, the python suite with --frontend python)",
    )
    parser.add_argument(
        "--size", nargs="*", metavar="NAME=VALUE", help="kernel size bindings"
    )
    parser.add_argument("--pipeline", default="dcir", help="registered pipeline name")
    parser.add_argument(
        "--spec", help="JSON file holding a PipelineSpec (overrides --pipeline)"
    )
    parser.add_argument("--function", help="function to compile (defaults to the only one)")
    parser.add_argument(
        "--backend",
        choices=("python", "native"),
        help="execution backend for data-centric pipelines: interpreted "
        "Python (default) or C compiled with the system compiler",
    )
    parser.add_argument(
        "--threads", type=int, metavar="N",
        help="schedule native code's maps in parallel (appends the "
        "'parallelize' pass; interpreted Python runs every map in order): "
        "N > 0 pins the worker count, 0 resolves it at run time from "
        "REPRO_NUM_THREADS or the machine",
    )


def _cmd_list_pipelines(args) -> int:
    for name in list_pipelines():
        if args.verbose:
            spec = get_pipeline(name)
            shape = (
                f"control={len(spec.control_passes)} "
                f"bridge={'yes' if spec.bridge else 'no':<3} "
                f"data={len(spec.data_passes)}"
            )
            print(f"{name:<12} {shape}  {spec.description}")
        else:
            print(name)
    return 0


def _cmd_list_workloads(args) -> int:
    from .workloads import get_suite, list_suites

    for suite in list_suites():
        items = get_suite(suite)
        if args.verbose:
            print(f"{suite} ({len(items)} kernels):")
            for name in sorted(items):
                source = items[name]
                if isinstance(source, str):
                    detail = f"C, {len(source)} bytes"
                else:
                    sizes = ", ".join(
                        f"{k}={v}" for k, v in sorted(source.sizes.items())
                    )
                    detail = f"python, sizes {sizes}"
                print(f"  {name:<16} {detail}")
        else:
            print(f"{suite:<14} {len(items):>2} kernels: {', '.join(sorted(items))}")
    return 0


def _cmd_show_pipeline(args) -> int:
    spec = get_pipeline(args.name)
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    if args.verbose:
        # Per-pass detail on stderr so stdout stays parseable JSON.
        from .passes import CONTROL_PASSES
        from .transforms import DATA_PASSES
        from .transforms.rewrite import Transformation, transformation_parameters

        print("# passes:", file=sys.stderr)
        for stage, registry in (("control", CONTROL_PASSES), ("data", DATA_PASSES)):
            for pass_spec in spec.stage_passes(stage):
                cls = registry.get(pass_spec.name)
                if isinstance(cls, type) and issubclass(cls, Transformation):
                    axes = ", ".join(
                        f"{param}∈{list(presets)}" for param, presets in cls.PARAMS.items()
                    )
                    defaults = transformation_parameters(cls)
                    detail = f"pattern-based (drain {cls.DRAIN})"
                    if axes:
                        detail += f", params: {axes}, defaults {defaults}"
                else:
                    detail = "whole-graph pass"
                params = f" {pass_spec.params}" if pass_spec.params else ""
                print(f"#   {stage:<8} {pass_spec.name:<34}{params} — {detail}",
                      file=sys.stderr)
    return 0


def _counted(program, prefix: str) -> Dict[str, int]:
    """The ``prefix``-ed counters of the program's report, without the prefix."""
    return {
        name[len(prefix):]: count
        for name, count in (program.report.counters if program.report is not None else {}).items()
        if name.startswith(prefix)
    }


def _named(counted: Dict[str, int], stem: str) -> str:
    """`` (a b 2, c 1)``: the counts whose name starts with ``stem``, by the rest."""
    parts = [
        f"{name[len(stem):].replace('_', ' ')} {count}"
        for name, count in sorted(counted.items()) if name.startswith(stem)
    ]
    return f" ({', '.join(parts)})" if parts else ""


def _innermost_maps(program) -> str:
    """How the interpreted emitter wrote the program's innermost maps (those
    in a loop nest run on lists apart), from the ``codegen.python.*``
    counters of its report, and how many map nests
    became one expression, from the ``codegen.python_nests.*`` ones ("" when
    it wrote no map)."""
    counted = _counted(program, "codegen.python.")
    if not counted:
        return ""
    nests = _counted(program, "codegen.python_nests.")
    depths = sorted(
        (int(name[len("array_nests.depth_"):]), count)
        for name, count in nests.items() if name.startswith("array_nests.depth_")
    )
    refused = sum(count for name, count in nests.items() if name.startswith("nest_refused."))
    listed = counted.get("region_maps", 0)
    return (
        f"{counted.get('array_maps', 0)} innermost as array operations"
        + _named(counted, "array_maps.")
        + (f", {listed} on lists" if listed else "")
        + f", {counted.get('loop_maps', 0)} as loops" + _named(counted, "refused.")
        + f"; {nests.get('array_nests', 0)} nests as one expression"
        + (f" ({', '.join(f'{count} of depth {depth}' for depth, count in depths)})"
           if depths else "")
        + (f", {refused} refused" + _named(nests, "nest_refused.") if refused else "")
    )


def _loops_left(program) -> str:
    """The state-machine loops the data stage left, per refusal name, from
    the ``transforms.loops_left.*`` counters ("" without a data stage)."""
    if program.sdfg is None:
        return ""
    counted = _counted(program, "transforms.loops_left.")
    return f"{sum(counted.values())} left" + _named(counted, "")


def _cmd_compile(args) -> int:
    program = generate_program(
        _load_source(args), _load_pipeline(args), function=args.function
    )
    if args.stats or args.verbose:
        print(f"pipeline: {program.pipeline}")
        print(f"compile:  {program.compile_seconds * 1e3:.2f} ms")
        for stage in program.report.stages if program.report is not None else ():
            print(f"  {stage.stage:<10} {stage.seconds * 1e3:8.2f} ms" + cap_suffix(stage))
        print(f"code:     {len(program.code)} bytes")
        maps = _innermost_maps(program)
        if maps:
            print(f"maps:     {maps}")
        loops = _loops_left(program)
        if loops:
            print(f"loops:    {loops}")
        if program.native_code is not None:
            print(f"native:   {len(program.native_code)} bytes of C")
        elif program.native_fallback is not None:
            print(f"native:   fell back to python ({program.native_fallback})")
        if args.verbose and program.report is not None:
            # Per-pass records with the pattern engine's site accounting.
            for stage_report in program.report.stages:
                if not stage_report.records:
                    continue
                print(f"{stage_report.stage} passes:")
                for record in stage_report.records:
                    print(
                        f"  {record.name:<34} changed={record.changed!s:<5} "
                        f"{record.seconds * 1e3:8.2f} ms" + match_suffix(record)
                    )
    elif args.output is None:
        # --backend native prints the C translation unit (the artifact the
        # native backend actually executes); otherwise the Python program.
        sys.stdout.write(program.native_code or program.code)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as output:
                output.write(program.native_code or program.code)
        except OSError as exc:
            raise SystemExit(f"Cannot write {args.output!r}: {exc}")
    return 0


def _cmd_transforms(args) -> int:
    from .transforms import DATA_PASSES
    from .transforms.rewrite import Transformation, transformation_parameters

    if args.transforms_command == "list":
        for name in DATA_PASSES.names():
            cls = DATA_PASSES.get(name)
            if not issubclass(cls, Transformation):
                print(f"{name:<34} whole-graph pass")
                continue
            detail = f"pattern-based  drain={cls.DRAIN:<7}"
            if cls.ADDABLE:
                detail += " addable"
            if args.verbose and cls.PARAMS:
                defaults = transformation_parameters(cls)
                axes = ", ".join(
                    f"{param}={defaults[param]!r} ∈ {list(presets)}"
                    for param, presets in cls.PARAMS.items()
                )
                detail += f"  [{axes}]"
            elif cls.PARAMS:
                detail += "  params: " + ", ".join(cls.PARAMS)
            print(f"{name:<34} {detail}")
        return 0

    # transforms match
    from .pipeline import generate_sdfg

    cls = DATA_PASSES.get(args.name)
    if not issubclass(cls, Transformation):
        raise SystemExit(
            f"{args.name!r} is a whole-graph pass without a match enumeration; "
            "see 'transforms list'"
        )
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _ or not key:
            raise SystemExit(f"Bad --param {item!r}: expected NAME=JSON-VALUE")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    transformation = DATA_PASSES.build(args.name, params)
    sdfg = generate_sdfg(
        _load_source(args), _load_pipeline(args), function=args.function,
        stop_before=args.name,
    )
    matches = transformation.matches(sdfg)
    if args.json:
        print(json.dumps([m.to_dict() for m in matches], indent=2))
    else:
        for m in matches:
            print(f"[{m.index}] {m.describe()}")
        print(f"{len(matches)} match(es) for {args.name!r}")
    return 0


def _cmd_run(args) -> int:
    result = compile_c(_load_source(args), _load_pipeline(args), function=args.function)
    result.degradation = args.degradation
    result.timeout = args.timeout
    # One warm-up rep absorbs first-call costs (for the native backend
    # that includes cc + dlopen) so "run (best)" reflects steady state.
    run = run_compiled(result, repetitions=args.repetitions, warmup=1, disable_gc=True)
    backend = result.backend
    if result.backend_diagnostic is not None:
        backend += f" (native unavailable: {result.backend_diagnostic})"
    print(f"pipeline:     {result.pipeline}")
    print(f"backend:      {backend}")
    print(f"compile:      {result.compile_seconds * 1e3:.2f} ms")
    print(f"run (best):   {run.seconds * 1e3:.4f} ms over {len(run.rep_seconds)} reps")
    print(f"allocations:  {run.allocations}")
    print(f"return value: {run.return_value}")
    return 0


def _cmd_tune(args) -> int:
    from .service import Session
    from .tuning import SearchSpace, get_evaluator, get_strategy, register_winner, tune

    base = _load_pipeline(args)
    if args.strategy == "auto":
        strategy_name = "random" if args.budget is not None else "exhaustive"
    else:
        strategy_name = args.strategy
    # Options that only one strategy consumes are rejected elsewhere rather
    # than silently ignored ("--seed 7" without --budget runs exhaustive).
    if args.seed is not None and strategy_name != "random":
        raise SystemExit(
            f"--seed only applies to the random strategy (got {strategy_name!r}; "
            "pass --budget to select seeded random search)"
        )
    if args.rounds is not None and strategy_name != "greedy":
        raise SystemExit(f"--rounds only applies to the greedy strategy (got {strategy_name!r})")
    if args.repetitions is not None and args.evaluator != "runtime":
        raise SystemExit("--repetitions only applies to the runtime evaluator")

    strategy_options = {"budget": args.budget}
    if strategy_name == "random":
        strategy_options.update(
            budget=args.budget if args.budget is not None else 16,
            seed=args.seed if args.seed is not None else 0,
        )
    elif strategy_name == "greedy" and args.rounds is not None:
        strategy_options["rounds"] = args.rounds
    strategy = get_strategy(strategy_name, **strategy_options)

    evaluator_options = {}
    if args.evaluator == "runtime" and args.repetitions is not None:
        evaluator_options["repetitions"] = args.repetitions
    evaluator = get_evaluator(args.evaluator, **evaluator_options)

    sizes = None
    if args.kernel is not None:
        if args.frontend == "python":
            from .workloads.python_suite import default_sizes
        else:
            from .workloads import default_sizes

        kernel = args.kernel
        sizes = default_sizes(kernel)
        sizes.update(_parse_sizes(args.size))
    else:
        kernel = args.source if args.source not in (None, "-") else "<stdin>"

    report = tune(
        _load_source(args),
        base=base,
        strategy=strategy,
        evaluator=evaluator,
        space=SearchSpace(base, include_registered=not args.no_registered),
        session=Session(executor=args.executor),
        function=args.function,
        kernel=kernel,
        sizes=sizes,
    )
    print(report.table())
    if args.output is not None:
        print(f"wrote {report.write(args.output)}")
    if report.winner is None:
        print("error: no candidate could be scored", file=sys.stderr)
        return 1
    if args.register:
        registered = register_winner(report, args.register, overwrite=True)
        print(f"registered winning spec as {registered.name!r} (this process)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Compile C kernels through declarative DCIR pipelines.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-pipelines", help="list registered pipeline names"
    )
    list_parser.add_argument("-v", "--verbose", action="store_true", help="show spec summaries")
    list_parser.set_defaults(func=_cmd_list_pipelines)

    workloads_parser = subparsers.add_parser(
        "list-workloads", help="list registered workload suites and their kernels"
    )
    workloads_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="show per-kernel detail (frontend, sizes)",
    )
    workloads_parser.set_defaults(func=_cmd_list_workloads)

    show_parser = subparsers.add_parser(
        "show-pipeline", help="print a registered pipeline spec as JSON"
    )
    show_parser.add_argument("name", help="registered pipeline name")
    show_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="add per-pass detail (pattern engine, parameter axes) on stderr",
    )
    show_parser.set_defaults(func=_cmd_show_pipeline)

    compile_parser = subparsers.add_parser(
        "compile", help="compile a kernel, printing generated Python code"
    )
    _add_compile_arguments(compile_parser)
    compile_parser.add_argument("--stats", action="store_true", help="print per-stage statistics")
    compile_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-pass records with pattern match/application counts",
    )
    compile_parser.add_argument("-o", "--output", help="write generated code to a file")
    compile_parser.set_defaults(func=_cmd_compile)

    transforms_parser = subparsers.add_parser(
        "transforms", help="inspect the pattern-based transformation catalog"
    )
    transforms_sub = transforms_parser.add_subparsers(
        dest="transforms_command", required=True
    )
    transforms_list = transforms_sub.add_parser(
        "list", help="list registered data-centric passes and their parameters"
    )
    transforms_list.add_argument(
        "-v", "--verbose", action="store_true", help="show parameter defaults and presets"
    )
    transforms_list.set_defaults(func=_cmd_transforms)
    transforms_match = transforms_sub.add_parser(
        "match",
        help="enumerate a transformation's matched sites on a kernel's SDFG",
    )
    _add_compile_arguments(transforms_match)
    transforms_match.add_argument("name", help="registered transformation name")
    transforms_match.add_argument(
        "--param", nargs="*", metavar="NAME=VALUE",
        help="transformation parameters (JSON values, e.g. tile_size=16)",
    )
    transforms_match.add_argument(
        "--json", action="store_true", help="print matches as JSON"
    )
    transforms_match.set_defaults(func=_cmd_transforms)

    run_parser = subparsers.add_parser("run", help="compile and execute a kernel")
    _add_compile_arguments(run_parser)
    run_parser.add_argument(
        "--repetitions", type=int, default=1, help="best-of-N execution (default 1)"
    )
    run_parser.add_argument(
        "--timeout", type=float,
        help="deadline in seconds for the native toolchain build "
        "(default: REPRO_CC_TIMEOUT or 120)",
    )
    run_parser.add_argument(
        "--degradation", choices=DEGRADATION_MODES, default="fallback",
        help="what a failing native backend does: fall back to the "
        "interpreted runner (default) or fail with the typed error",
    )
    run_parser.set_defaults(func=_cmd_run)

    tune_parser = subparsers.add_parser(
        "tune", help="auto-tune the pipeline composition for a kernel"
    )
    from .tuning import EVALUATORS, STRATEGIES

    _add_compile_arguments(tune_parser)
    tune_parser.add_argument(
        "--strategy", choices=("auto", *STRATEGIES), default="auto",
        help="search strategy (auto: random when --budget is given, else exhaustive)",
    )
    tune_parser.add_argument(
        "--budget", type=int, help="maximum candidate evaluations"
    )
    tune_parser.add_argument(
        "--seed", type=int, help="random-strategy seed (default 0)"
    )
    tune_parser.add_argument(
        "--rounds", type=int, help="greedy-strategy sweep rounds (default 2)"
    )
    tune_parser.add_argument(
        "--evaluator", choices=tuple(EVALUATORS), default="static",
        help="score by the data-movement cost model (deterministic) or measured runtime",
    )
    tune_parser.add_argument(
        "--repetitions", type=int,
        help="best-of-N timing for the runtime evaluator (default 3)",
    )
    tune_parser.add_argument(
        "--no-registered", action="store_true",
        help="search only the base spec's neighbourhood (skip registered-pipeline seeds)",
    )
    tune_parser.add_argument(
        "--executor", choices=("process", "serial"),
        help="how candidate batches compile (default: processes when CPUs allow)",
    )
    tune_parser.add_argument(
        "-o", "--output", help="write the TuningReport JSON to this path"
    )
    tune_parser.add_argument(
        "--register", metavar="NAME",
        help="register the winning spec under this pipeline name (in this process)",
    )
    tune_parser.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
