"""Parallel batch compilation.

Evaluation sweeps compile many independent (kernel × pipeline) pairs; the
compilation stages are pure (no shared mutable state), so they parallelize
naturally.  :func:`compile_many` fans the cold items out over a process
pool when more than one CPU is available, and runs them in-process
otherwise (compilation is CPU-bound pure Python, so threads would never
beat a serial loop under the GIL) — and captures per-item errors so one
failing kernel never aborts a sweep.

Requests name pipelines by registered string *or* carry a full
:class:`~repro.pipeline.PipelineSpec`.  Names are resolved to specs in the
parent before submission — the registry is per-process state, so this is
what lets user-*registered* pipelines work under a process pool: workers
receive the serialized spec, not a name they could not resolve.  The same
caveat applies one level down to *pass* names: a spec referencing a pass
registered at runtime (rather than at ``import repro``) resolves in fork
workers but not under a spawn start method, where the worker re-imports a
registry that never saw the registration — use ``executor="serial"`` for
such specs on spawn platforms.

Workers run only the *pure* stage (:func:`repro.pipeline.generate_program`)
and return the serializable payload; the parent rehydrates results and
warms its compile cache, which is also how results cross process
boundaries without pickling live IR objects.

The batch survives a hostile environment.  Per-request deadlines
(``CompileRequest.timeout``) bound every item; transient failures (see
the taxonomy in :mod:`repro.errors`) are retried under a
:class:`~repro.service.resilience.RetryPolicy` with deterministic
backoff; and a SIGKILL'd or OOM'd pool worker (``BrokenProcessPool``
takes every in-flight future with it) triggers exactly one pool respawn
with only the *lost* requests re-dispatched — if the fresh pool dies
too, the survivors get typed :class:`~repro.errors.WorkerLost` outcomes
instead of the batch crashing.  Every outcome records how many attempts
it consumed and, on failure, its taxonomy kind.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import (
    KIND_WORKER_LOST,
    CompileTimeout,
    PipelineError,
    TransientError,
    failure_kind,
)
from ..faults import active_plan, mark_pool_worker
from ..frontend_py import PythonProgram
from ..perf import PERF
from ..pipeline import CompileResult, generate_program, resolve_pipeline, result_from_payload
from ..pipeline.spec import PipelineLike, pipeline_label
from .cache import CompileCache, cache_key
from .resilience import RetryPolicy


@dataclass(frozen=True)
class CompileRequest:
    """One item of a batch: a (source, pipeline, function) triple.

    ``pipeline`` is a registered pipeline name or a
    :class:`~repro.pipeline.PipelineSpec`.  ``timeout`` is this request's
    deadline in seconds: pure compile stages check it cooperatively (a
    worker reports :class:`~repro.errors.CompileTimeout` when it is
    exceeded), and it is threaded down to the toolchain's hard
    process-group deadline for native builds.
    """

    #: C source text or a Python-frontend program (both are picklable and
    #: content-addressable; see :func:`repro.service.cache.normalize_source`).
    source: object
    pipeline: PipelineLike = "dcir"
    function: Optional[str] = None
    name: Optional[str] = None  # display label; defaults to the pipeline name
    #: Per-request deadline in seconds (None: unbounded pure stages; the
    #: toolchain still enforces its own ``REPRO_CC_TIMEOUT`` default).
    timeout: Optional[float] = None

    @property
    def label(self) -> str:
        return self.name if self.name is not None else pipeline_label(self.pipeline)


@dataclass
class BatchOutcome:
    """Per-item result of :func:`compile_many`: a result or a captured error.

    ``attempts`` counts every dispatch of the request, including ones
    lost to worker death; ``failure_kind`` is the taxonomy bucket of the
    final error (see :func:`repro.errors.failure_kind`) so reports can
    aggregate *classes* of failure instead of string-matching messages.
    """

    request: CompileRequest
    result: Optional[CompileResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    error_traceback: Optional[str] = None
    seconds: float = 0.0
    attempts: int = 1
    failure_kind: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def cache_hit(self) -> bool:
        return bool(self.result is not None and self.result.cache_hit)

    @property
    def degraded(self) -> Optional[str]:
        """Why this item's execution backend degraded, when it did."""
        return self.result.backend_diagnostic if self.result is not None else None


RequestLike = Union[CompileRequest, Tuple, Dict, str, "PythonProgram"]


def as_request(item: RequestLike) -> CompileRequest:
    """Coerce tuples/dicts/strings/Python programs into a :class:`CompileRequest`."""
    if isinstance(item, CompileRequest):
        return item
    if isinstance(item, str):
        return CompileRequest(source=item)
    if isinstance(item, PythonProgram):
        return CompileRequest(source=item, name=item.name)
    if isinstance(item, dict):
        return CompileRequest(**item)
    if isinstance(item, tuple):
        return CompileRequest(*item)
    raise TypeError(f"Cannot interpret {type(item).__name__} as a compile request")


def default_executor() -> str:
    """Executor kind used when none is requested."""
    return "process" if (os.cpu_count() or 1) > 1 else "serial"


def _compile_payload(request: CompileRequest) -> Dict:
    """Worker: run the pure compile stage, returning payload or error info.

    Must stay module-level and return only pickle-friendly data so it works
    identically in a ``ProcessPoolExecutor`` worker (pickled across the
    fork) and in-process.  The request's deadline is enforced
    cooperatively: pure Python stages cannot be preempted, so it is
    checked before starting and after finishing — a blown deadline
    reports :class:`~repro.errors.CompileTimeout` rather than returning
    late work as if nothing happened.
    """
    plan = active_plan()
    if plan is not None:
        plan.maybe_kill_worker()  # no-op outside marked pool workers
    start = time.perf_counter()
    try:
        budget = request.timeout
        if budget is not None and budget <= 0:
            raise CompileTimeout(
                f"request deadline of {budget:g}s was already spent before "
                "compilation started",
                seconds=budget,
            )
        payload = generate_program(
            request.source, request.pipeline, function=request.function
        ).to_payload()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise CompileTimeout(
                f"pure compile stages took {elapsed:.3f}s, past the "
                f"request's {budget:g}s deadline",
                seconds=budget,
            )
        return {"ok": True, "payload": payload, "seconds": elapsed}
    except Exception as exc:  # per-item isolation: a bad kernel must not kill the sweep
        return {
            "ok": False,
            "error": str(exc) or type(exc).__name__,
            "error_type": type(exc).__name__,
            "error_traceback": traceback.format_exc(),
            "failure_kind": failure_kind(exc),
            "transient": isinstance(exc, TransientError),
            "seconds": time.perf_counter() - start,
        }


def compile_many(
    items: Iterable[RequestLike],
    executor: Optional[str] = None,
    max_workers: Optional[int] = None,
    cache: Optional[CompileCache] = None,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
) -> List[BatchOutcome]:
    """Compile a batch of requests, in parallel, with per-item error capture.

    ``executor`` is ``"process"`` or ``"serial"`` (default:
    picked by :func:`default_executor`).  When a ``cache`` is given, hits
    are served without entering the pool and fresh payloads are stored back,
    so a batch both benefits from and warms the cache.  The returned list
    is index-aligned with ``items``; failed items carry the error message,
    type, traceback, attempt count and taxonomy kind instead of a result.

    ``timeout`` is a default per-request deadline applied to requests that
    do not carry their own.  Transient failures are re-dispatched under
    ``retry_policy`` (default: :meth:`RetryPolicy.from_env`) with its
    backoff between waves; permanent failures are never retried.  A dead
    pool worker takes its whole process pool down — the batch respawns
    the pool once and re-dispatches only the requests whose futures were
    lost, so one OOM-killed worker costs one wave, not the sweep.
    """
    requests = [as_request(item) for item in items]
    if timeout is not None:
        requests = [
            request if request.timeout is not None else replace(request, timeout=timeout)
            for request in requests
        ]
    policy = retry_policy if retry_policy is not None else RetryPolicy.from_env()
    outcomes: List[Optional[BatchOutcome]] = [None] * len(requests)

    # Resolve pipeline designators and cache keys up front: unknown names
    # and unserializable specs fail per-item here (not inside a worker, and
    # never aborting the batch), and resolved specs travel to workers by
    # value, so pipelines registered only in this process still batch.
    resolved: List[Optional[CompileRequest]] = [None] * len(requests)
    keys: List[Optional[str]] = [None] * len(requests)
    pending: List[int] = []
    for index, request in enumerate(requests):
        start = time.perf_counter()
        try:
            spec = resolve_pipeline(request.pipeline)
            if cache is not None:
                keys[index] = cache_key(request.source, spec, request.function)
        except (PipelineError, TypeError, ValueError) as exc:
            outcomes[index] = BatchOutcome(
                request=request,
                error=str(exc),
                error_type=type(exc).__name__,
                error_traceback=traceback.format_exc(),
                failure_kind=failure_kind(exc),
            )
            continue
        resolved[index] = replace(request, pipeline=spec)
        if cache is not None:
            payload = cache.lookup(keys[index])
            if payload is not None:
                PERF.increment("compile_cache.hits")
                outcomes[index] = BatchOutcome(
                    request=request,
                    result=result_from_payload(payload),
                    seconds=time.perf_counter() - start,
                )
                continue
            PERF.increment("compile_cache.misses")
        pending.append(index)

    kind = executor or default_executor()
    if kind not in ("process", "serial"):
        raise ValueError(f"Unknown executor {kind!r}; choose 'process' or 'serial'")

    attempts: Dict[int, int] = {index: 0 for index in pending}

    def finish(index: int, report: Dict) -> None:
        request = requests[index]
        if report["ok"]:
            payload = report["payload"]
            if cache is not None:
                cache.store(keys[index], payload)
            result = result_from_payload(payload)
            result.cache_hit = False  # freshly compiled, merely shipped as a payload
            if request.timeout is not None:
                result.timeout = request.timeout
            outcomes[index] = BatchOutcome(
                request=request,
                result=result,
                seconds=report["seconds"],
                attempts=max(1, attempts.get(index, 1)),
            )
        else:
            outcomes[index] = BatchOutcome(
                request=request,
                error=report["error"],
                error_type=report["error_type"],
                error_traceback=report["error_traceback"],
                seconds=report["seconds"],
                attempts=max(1, attempts.get(index, 1)),
                failure_kind=report.get("failure_kind") or failure_kind(report["error_type"]),
            )

    def record_exception(index: int, exc: BaseException) -> None:
        outcomes[index] = BatchOutcome(
            request=requests[index],
            error=str(exc) or type(exc).__name__,
            error_type=type(exc).__name__,
            error_traceback=traceback.format_exc(),
            attempts=max(1, attempts.get(index, 1)),
            failure_kind=failure_kind(exc),
        )

    def record_worker_lost(index: int) -> None:
        outcomes[index] = BatchOutcome(
            request=requests[index],
            error=(
                "process pool worker died (killed or OOM?) and the respawned "
                "pool died as well; request abandoned"
            ),
            error_type="WorkerLost",
            attempts=max(1, attempts.get(index, 1)),
            failure_kind=KIND_WORKER_LOST,
        )

    def wants_retry(index: int, report: Dict) -> bool:
        return (
            not report["ok"]
            and bool(report.get("transient"))
            and attempts[index] < policy.max_attempts
        )

    def serial_item(index: int) -> None:
        """Run one item in-process, honouring the retry policy."""
        while True:
            attempts[index] += 1
            report = _compile_payload(resolved[index])
            if wants_retry(index, report):
                PERF.increment("compile_batch.retries")
                policy.sleep(policy.delay(attempts[index]))
                continue
            finish(index, report)
            return

    if kind == "serial" or len(pending) <= 1:
        for index in pending:
            serial_item(index)
    else:
        workers = max_workers or min(len(pending), os.cpu_count() or 1)

        def make_pool():
            # The initializer marks workers expendable, so injected
            # worker_kill faults only ever fire in pool children.
            return ProcessPoolExecutor(max_workers=max(1, workers), initializer=mark_pool_worker)

        try:
            pool = make_pool()
        except (OSError, PermissionError):
            # Sandboxes without fork/spawn support: degrade to serial.
            for index in pending:
                serial_item(index)
        else:
            respawned = False
            wave = list(pending)
            try:
                while wave:
                    retry_wave: List[int] = []
                    lost: List[int] = []
                    futures = {}
                    degraded = False
                    for index in wave:
                        if not degraded:
                            try:
                                futures[pool.submit(_compile_payload, resolved[index])] = index
                                continue
                            except (OSError, PermissionError, RuntimeError):
                                # Worker creation is lazy: a sandbox that denies
                                # fork/spawn fails here, not at pool construction.
                                # Degrade the rest of the batch to serial.
                                degraded = True
                        serial_item(index)
                    for future, index in futures.items():
                        attempts[index] += 1
                        try:
                            report = future.result()
                        except BrokenProcessPool:
                            # One dead worker breaks the whole pool: every
                            # in-flight future raises.  Collect the losses;
                            # recovery is decided once, below.
                            lost.append(index)
                            continue
                        except Exception as exc:
                            record_exception(index, exc)
                            continue
                        if wants_retry(index, report):
                            PERF.increment("compile_batch.retries")
                            retry_wave.append(index)
                            continue
                        finish(index, report)
                    if lost:
                        PERF.increment("compile_batch.workers_lost")
                        if not respawned:
                            # Respawn once and re-dispatch only the lost
                            # requests; completed outcomes are untouched.
                            respawned = True
                            pool.shutdown(wait=False)
                            try:
                                pool = make_pool()
                            except (OSError, PermissionError):
                                for index in lost:
                                    record_worker_lost(index)
                            else:
                                PERF.increment("compile_batch.pool_respawns")
                                retry_wave.extend(lost)
                        else:
                            for index in lost:
                                record_worker_lost(index)
                    if retry_wave:
                        policy.sleep(max(policy.delay(attempts[i]) for i in retry_wave))
                    wave = retry_wave
            finally:
                pool.shutdown()

    missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
    if missing:  # pragma: no cover - every path above populates its index
        raise RuntimeError(f"compile_many left outcomes unset at indices {missing}")
    return outcomes
