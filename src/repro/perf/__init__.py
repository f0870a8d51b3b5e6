"""Compile-time profiling: process-global counters and cache stats.

The compiler's hot paths (symbolic interning, canonicalizer memo tables,
the expression-parser cache, pass execution, the compile cache) report
into one process-global :class:`PerfCounters` instance, :data:`PERF`.
The service and pipeline layers snapshot it around a compilation and
attach the delta to the
:class:`~repro.passbase.CompilationReport`, so every compile carries an
account of the work it actually performed — and, crucially, of the work
it *skipped* (a compile-cache hit must perform zero frontend/pass work:
``test_cached_compile_does_zero_frontend_or_pass_work`` and
``tests/test_warm_path.py`` hold that invariant).

Counter naming convention (dotted, lowercase):

* ``symbolic.intern.hits`` / ``.misses`` — leaf-node hash-consing;
* ``symbolic.make.hits`` / ``.misses`` — Add/Mul canonicalizer memo;
* ``symbolic.parse.hits`` / ``.misses`` — string-expression parse cache;
* ``frontend.runs`` — C frontend invocations;
* ``passes.runs`` / ``passes.applied`` — pass executions / passes that
  changed their IR;
* ``compile_cache.hits`` / ``.misses`` — content-addressed compile cache.

This module is dependency-free (it must be importable from the symbolic
core without cycles).  Counters are plain dict increments — cheap enough
for hot paths — and are process-local: parallel compilation *worker
processes* accumulate their own counters.  Within one process the
profiler is global, so snapshot/delta attribution (e.g. a
``CompilationReport``'s counters) is exact for compiles that do not
overlap in time — the library's batches never overlap two in one
process: they compile serially or in worker processes.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional


class PerfCounters:
    """Named monotonic counters.

    Increment operations are unsynchronized dict updates: under the GIL
    they are safe, merely approximate if multiple threads race — fine for
    profiling.  Use :meth:`snapshot` + :meth:`delta_since` to attribute
    work to a region of execution.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    # -- counters -------------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> None:
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    # -- snapshots -------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of all counters."""
        return dict(self._counts)

    def delta_since(self, snapshot: Mapping[str, int]) -> Dict[str, int]:
        """Counter increments since ``snapshot`` (zero deltas omitted)."""
        current = self.snapshot()
        delta: Dict[str, int] = {}
        for name, value in current.items():
            change = value - snapshot.get(name, 0)
            if change:
                delta[name] = change
        return delta

    # -- reporting --------------------------------------------------------------
    def hit_rate(self, prefix: str) -> Optional[float]:
        """Hit rate of a ``<prefix>.hits`` / ``<prefix>.misses`` counter pair."""
        hits = self.get(f"{prefix}.hits")
        misses = self.get(f"{prefix}.misses")
        total = hits + misses
        return hits / total if total else None

    def summary(self) -> str:
        lines = []
        for name in sorted(self._counts):
            lines.append(f"{name:<40} {self._counts[name]:>12}")
        return "\n".join(lines)


#: The process-global profiler fed by the compiler's hot paths.
PERF = PerfCounters()

__all__ = ["PERF", "PerfCounters"]
