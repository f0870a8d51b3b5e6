"""Deterministic fault injection for the compilation service.

The robustness layer (timeouts, retries, pool respawn, cache
self-healing) is only trustworthy if it is *exercised*; this module
arms the seams it protects so the chaos tests (``tests/test_resilience.py``)
can prove — deterministically, with a seeded RNG — that every injected
fault degrades into a typed, recorded outcome instead of a crash.

Activation is environment-driven so faults reach worker processes and
subcommands without plumbing::

    REPRO_FAULTS=cc_hang:0.3,cache_corrupt:0.2,worker_kill:1

Each entry is ``name:probability`` with an optional ``:limit`` third
field bounding the total number of firings (``worker_kill:1:1`` kills
exactly one worker).  Known fault classes:

* ``cc_hang`` — the toolchain's compiler invocation hangs; surfaces as
  :class:`~repro.errors.CompileTimeout` at the ``compile_shared`` seam.
* ``cc_crash`` — the compiler dies on a signal; surfaces as
  :class:`~repro.errors.ToolchainCrash`.
* ``cache_corrupt`` — the on-disk compile cache writes a torn (truncated)
  entry, as a writer killed mid-``write`` would leave behind.
* ``worker_kill`` — a process-pool worker SIGKILLs itself before
  compiling, as the OOM killer would (fires only inside pool workers,
  never in the parent).

``REPRO_FAULTS_SEED`` seeds the per-fault RNGs (default 0), so a fault
plan fires at the same decision points in every run.  When a *global*
budget must hold across processes (one kill total, even with N workers
racing), set ``REPRO_FAULTS_DIR`` to a directory: firings then claim
``<dir>/<fault>.<n>`` slots with ``O_EXCL``, which is atomic across
processes; without it limits are per-process.

The fault-free path stays fast: every seam calls :func:`active_plan`,
which is one environment lookup returning ``None`` when ``REPRO_FAULTS``
is unset.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import CompileTimeout, PipelineError, ToolchainCrash
from .perf import PERF

#: Environment variable holding the fault specification string.
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable seeding the fault RNGs (default 0).
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
#: Environment variable naming the cross-process budget directory.
FAULTS_DIR_ENV = "REPRO_FAULTS_DIR"

#: The injectable fault classes.
KNOWN_FAULTS = ("cc_hang", "cc_crash", "cache_corrupt", "worker_kill")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a class name, a firing probability and a budget."""

    name: str
    probability: float
    limit: Optional[int] = None  # None: unlimited firings


def parse_faults(text: str) -> Dict[str, FaultSpec]:
    """Parse a ``name:prob[,name:prob[:limit]]*`` specification string."""
    specs: Dict[str, FaultSpec] = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        fields = item.split(":")
        if len(fields) not in (2, 3):
            raise PipelineError(
                f"Bad {FAULTS_ENV} entry {item!r}: expected name:probability[:limit]"
            )
        name = fields[0]
        if name not in KNOWN_FAULTS:
            raise PipelineError(
                f"Unknown fault class {name!r}; known: {', '.join(KNOWN_FAULTS)}"
            )
        try:
            probability = float(fields[1])
        except ValueError:
            raise PipelineError(f"Bad probability in {FAULTS_ENV} entry {item!r}")
        if not 0.0 <= probability <= 1.0:
            raise PipelineError(
                f"Fault probability must be in [0, 1], got {probability} for {name!r}"
            )
        limit: Optional[int] = None
        if len(fields) == 3:
            try:
                limit = int(fields[2])
            except ValueError:
                raise PipelineError(f"Bad limit in {FAULTS_ENV} entry {item!r}")
        specs[name] = FaultSpec(name=name, probability=probability, limit=limit)
    return specs


#: Set (via :func:`mark_pool_worker`, a pool initializer) in processes
#: that are expendable: ``worker_kill`` only ever fires where this is
#: True, so it can never take down the parent.
_IN_POOL_WORKER = False


def mark_pool_worker() -> None:
    """Declare this process a pool worker (safe to kill under faults)."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


class FaultPlan:
    """A parsed, seeded fault plan with per-fault firing state.

    Decision sequences are deterministic per fault name: fault ``f`` with
    seed ``s`` draws from ``random.Random(f"{s}:{f}")``, so adding or
    reordering *other* faults never shifts its firing pattern.
    """

    def __init__(
        self,
        specs: Dict[str, FaultSpec],
        seed: int = 0,
        budget_dir: Optional[str] = None,
    ):
        self.specs = dict(specs)
        self.seed = int(seed)
        self.budget_dir = budget_dir
        self._rngs = {
            name: random.Random(f"{self.seed}:{name}") for name in self.specs
        }
        self._fired: Dict[str, int] = {name: 0 for name in self.specs}

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["FaultPlan"]:
        """Build the plan armed by ``REPRO_FAULTS`` (None when unset/empty)."""
        text = environ.get(FAULTS_ENV)
        if not text:
            return None
        specs = parse_faults(text)
        if not specs:
            return None
        return cls(
            specs,
            seed=int(environ.get(FAULTS_SEED_ENV) or 0),
            budget_dir=environ.get(FAULTS_DIR_ENV) or None,
        )

    # -- firing decisions -------------------------------------------------------
    def _claim_budget(self, spec: FaultSpec) -> bool:
        """Claim one firing slot; False when the budget is exhausted."""
        if spec.limit is None:
            return True
        if self.budget_dir is not None:
            # Cross-process budget: slot files created O_EXCL are an
            # atomic claim even with N workers racing.
            for slot in range(spec.limit):
                path = os.path.join(self.budget_dir, f"{spec.name}.{slot}")
                try:
                    os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                    return True
                except FileExistsError:
                    continue
                except OSError:
                    return False  # unusable budget dir: fail safe (no firing)
            return False
        return self._fired[spec.name] < spec.limit

    def should_fire(self, name: str) -> bool:
        """Roll the (seeded) dice for one potential firing of ``name``."""
        spec = self.specs.get(name)
        if spec is None or spec.probability <= 0.0:
            return False
        roll = self._rngs[name].random()  # always draw: keeps sequences aligned
        if roll >= spec.probability:
            return False
        if not self._claim_budget(spec):
            return False
        self._fired[name] += 1
        PERF.increment(f"faults.{name}.fired")
        return True

    def fired(self, name: str) -> int:
        """How many times ``name`` has fired in this process."""
        return self._fired.get(name, 0)

    # -- seam hooks -------------------------------------------------------------
    def cc_fault(self, timeout: Optional[float] = None) -> None:
        """Toolchain seam: raise the armed compiler fault, if it fires.

        Called by ``compile_shared`` immediately before spawning the
        compiler; an injected hang is indistinguishable (to every layer
        above) from a real compiler that sat on the CPU until the
        deadline killed it.
        """
        if self.should_fire("cc_hang"):
            budget = timeout if timeout and timeout > 0 else 0.0
            raise CompileTimeout(
                f"injected fault: C compiler hung past its {budget:g}s deadline",
                seconds=budget,
            )
        if self.should_fire("cc_crash"):
            raise ToolchainCrash(
                "injected fault: C compiler killed by SIGSEGV",
                returncode=-signal.SIGSEGV,
            )

    def corrupt_cache_text(self, text: str) -> str:
        """Cache-write seam: return a torn version of ``text``, if armed.

        Truncation at one third simulates a writer killed mid-write with
        a non-atomic store — invalid JSON or a checksum mismatch, both of
        which the reader must quarantine.
        """
        if not self.should_fire("cache_corrupt"):
            return text
        return text[: max(1, len(text) // 3)]

    def maybe_kill_worker(self) -> None:
        """Worker seam: SIGKILL this process, if armed and expendable."""
        if not _IN_POOL_WORKER:
            return
        if self.should_fire("worker_kill"):
            os.kill(os.getpid(), signal.SIGKILL)


#: Cache of the environment-armed plan, keyed by the raw env triple so a
#: changed ``REPRO_FAULTS`` (the chaos tests re-arm it) rebuilds it.
_CACHED: Tuple[Optional[Tuple[Optional[str], Optional[str], Optional[str]]],
               Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The process-wide fault plan, or None when no faults are armed.

    Seams call this on their hot path; when ``REPRO_FAULTS`` is unset the
    cost is a dict lookup and a tuple compare.
    """
    global _CACHED
    key = (
        os.environ.get(FAULTS_ENV),
        os.environ.get(FAULTS_SEED_ENV),
        os.environ.get(FAULTS_DIR_ENV),
    )
    if key == _CACHED[0]:
        return _CACHED[1]
    plan = FaultPlan.from_env() if key[0] else None
    _CACHED = (key, plan)
    return plan


def reset_plan() -> None:
    """Drop the cached plan (tests that re-arm faults mid-process)."""
    global _CACHED
    _CACHED = (None, None)


__all__ = [
    "FAULTS_DIR_ENV",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FaultPlan",
    "FaultSpec",
    "KNOWN_FAULTS",
    "active_plan",
    "mark_pool_worker",
    "parse_faults",
    "reset_plan",
]
