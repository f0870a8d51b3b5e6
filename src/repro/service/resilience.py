"""Bounded execution: deadlines, retry policies and degradation modes.

The compile path talks to things that can hang or die — a ``cc`` process,
a pool worker, an on-disk cache written by a process that was killed
mid-write.  This module is the policy layer that bounds every such wait
and decides what happens when it is exceeded:

* :class:`Deadline` — a monotonic per-request budget threaded from
  :class:`~repro.service.batch.CompileRequest` down to
  ``toolchain.compile_shared(timeout=)``;
* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  retrying only :class:`~repro.errors.TransientError` failures.  The
  clock and sleep functions are injectable, so tests drive deterministic
  backoff schedules with a fake clock and zero real sleeping;
* degradation modes — ``"fallback"`` (default: a failed native backend
  degrades to the interpreted one, recording why) vs ``"strict"``
  (failures surface as typed errors); validated by
  :func:`validate_degradation` and carried by ``Session``/CLI.

Environment knobs (all optional)::

    REPRO_MAX_ATTEMPTS   total attempts per transient failure (default 3)
    REPRO_RETRY_BACKOFF  base backoff seconds (default 0.05; doubles per
                         attempt, capped at REPRO_RETRY_BACKOFF_MAX, 2.0)
    REPRO_CC_TIMEOUT     compiler-process deadline seconds (default 120,
                         <=0 disables; read by repro.codegen.toolchain)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

from ..errors import TransientError

#: Environment knobs of the default retry policy.
MAX_ATTEMPTS_ENV = "REPRO_MAX_ATTEMPTS"
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
BACKOFF_MAX_ENV = "REPRO_RETRY_BACKOFF_MAX"

#: The degradation modes a Session (and the CLI) accepts.
DEGRADATION_MODES = ("fallback", "strict")


def validate_degradation(mode: str) -> str:
    """Validate a degradation mode, returning it for chaining."""
    if mode not in DEGRADATION_MODES:
        raise ValueError(
            f"Unknown degradation mode {mode!r}; choose one of "
            + " or ".join(repr(m) for m in DEGRADATION_MODES)
        )
    return mode


@dataclass(frozen=True)
class Deadline:
    """A monotonic time budget for one request.

    Pure-Python compile stages cannot be preempted, so deadlines are
    enforced cooperatively (checked at stage boundaries) for in-process
    work and *hard* (process-group kill) for external processes — the
    toolchain derives its subprocess timeout from :meth:`remaining`.
    """

    seconds: float
    started: float
    clock: Callable[[], float] = field(default=time.monotonic, compare=False)

    @classmethod
    def after(cls, seconds: float, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(seconds=float(seconds), started=clock(), clock=clock)

    def elapsed(self) -> float:
        return self.clock() - self.started

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts *total* attempts (1 = never retry).  Only
    exceptions matching ``retry_on`` (default: the transient taxonomy)
    are retried; permanent failures re-raise immediately.  ``sleep`` and
    ``clock`` are injectable so tests assert the exact backoff schedule
    without real sleeping.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    retry_on: Tuple[Type[BaseException], ...] = (TransientError,)
    sleep: Callable[[float], None] = field(default=time.sleep, compare=False)
    clock: Callable[[], float] = field(default=time.monotonic, compare=False)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @classmethod
    def from_env(cls, environ=None, **overrides) -> "RetryPolicy":
        """The default policy, with ``REPRO_*`` environment overrides."""
        import os

        environ = environ if environ is not None else os.environ
        settings = {}
        if environ.get(MAX_ATTEMPTS_ENV):
            settings["max_attempts"] = max(1, int(environ[MAX_ATTEMPTS_ENV]))
        if environ.get(BACKOFF_ENV):
            settings["backoff_base"] = max(0.0, float(environ[BACKOFF_ENV]))
        if environ.get(BACKOFF_MAX_ENV):
            settings["backoff_max"] = max(0.0, float(environ[BACKOFF_MAX_ENV]))
        settings.update(overrides)
        return cls(**settings)

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single-attempt policy (retries disabled)."""
        return cls(max_attempts=1)

    # -- the schedule -----------------------------------------------------------
    def delay(self, attempt: int) -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * (self.backoff_factor ** (attempt - 1)),
        )

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether ``error`` on (1-based) ``attempt`` warrants another try."""
        return attempt < self.max_attempts and isinstance(error, self.retry_on)

    # -- execution --------------------------------------------------------------
    def run(self, fn: Callable[[], object], describe: str = "operation"):
        """Call ``fn`` under this policy; returns ``(value, attempts)``.

        On exhaustion the last error is re-raised with ``.attempts`` set,
        so callers can record how hard the operation was tried.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn(), attempt
            except BaseException as exc:
                if not self.should_retry(exc, attempt):
                    try:
                        exc.attempts = attempt  # best effort: slots-only excs
                    except AttributeError:
                        pass
                    raise
                self.sleep(self.delay(attempt))


__all__ = [
    "BACKOFF_ENV",
    "BACKOFF_MAX_ENV",
    "DEGRADATION_MODES",
    "Deadline",
    "MAX_ATTEMPTS_ENV",
    "RetryPolicy",
    "validate_degradation",
]
