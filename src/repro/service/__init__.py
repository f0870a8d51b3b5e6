"""Compilation service layer: caching, batching, sessions.

The paper's evaluation (§7) compiles the same kernels through six pipelines
over and over; this subsystem makes such sweeps cheap and scalable:

* :class:`CompileCache` — content-addressed memoization (SHA-256 of
  normalized source + the pipeline spec's canonical serialization +
  function + library version, so custom :class:`~repro.PipelineSpec`
  pipelines content-address correctly) with an in-memory LRU and an
  optional on-disk store (``REPRO_CACHE_DIR``), rehydrating results from
  generated code without re-running any pass;
* :func:`compile_many` — batch compilation over a process pool (or
  in-process) with per-item error capture;
* :class:`Session` — a suite runner that compiles and runs whole workload
  sets with cache reuse and returns a structured :class:`SuiteReport`
  (compile/run time, cache hits, movement and allocation statistics,
  cross-pipeline agreement).

The layer is hardened against a hostile environment
(:mod:`repro.service.resilience`): per-request deadlines, bounded
retries with deterministic backoff (:class:`RetryPolicy`), crash-isolated
process pools that survive killed workers, a checksummed self-healing
disk cache that quarantines corrupt entries, and ``strict``/``fallback``
degradation modes — all exercised deterministically by the fault
injection harness in :mod:`repro.faults`.
"""

from .batch import (
    BatchOutcome,
    CompileRequest,
    as_request,
    compile_many,
    default_executor,
)
from .cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT,
    CacheStats,
    CompileCache,
    cache_key,
    normalize_source,
    payload_digest,
)
from .resilience import (
    DEGRADATION_MODES,
    Deadline,
    RetryPolicy,
    validate_degradation,
)
from .session import SUITE_SCHEMA, Session, SuiteEntry, SuiteReport

__all__ = [
    "BatchOutcome",
    "CACHE_DIR_ENV",
    "CACHE_FORMAT",
    "CacheStats",
    "CompileCache",
    "CompileRequest",
    "DEGRADATION_MODES",
    "Deadline",
    "RetryPolicy",
    "SUITE_SCHEMA",
    "Session",
    "SuiteEntry",
    "SuiteReport",
    "as_request",
    "cache_key",
    "compile_many",
    "default_executor",
    "normalize_source",
    "payload_digest",
    "validate_degradation",
]
