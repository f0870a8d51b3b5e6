"""Measurement primitives shared by every workload: timing, the Python
normaliser, span recording and order statistics.

Absolute seconds drift 20–30 % between back-to-back runs on the small
shared runners this benchmark targets, while the ratio of a sample to a
normaliser doing the same kind of work taken right next to it holds to a
few percent.  Every end-to-end timing is therefore such a ratio (``_rel``);
absolute seconds are kept for the per-layer breakdown only.
"""

from __future__ import annotations

import ast
import gc
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# -- timing ---------------------------------------------------------------------------


def timed(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Call ``fn`` with the cyclic GC off; return (seconds, result)."""
    restore = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - start, result
    finally:
        if restore:
            gc.enable()


def timer_resolution(samples: int = 2000) -> float:
    """Smallest positive step ``perf_counter`` was seen to take."""
    best = math.inf
    for _ in range(samples):
        a = time.perf_counter()
        b = time.perf_counter()
        while b == a:
            b = time.perf_counter()
        best = min(best, b - a)
    return best


# The normaliser for Python-bound work.  Compiling and interpreting are
# allocation-, dict- and attribute-heavy; a pure arithmetic spin tracked
# compile time only to 7 %, this routine (parse, walk, serialise a fixed
# text) tracks it to 1–3 %.  Stdlib only, so no change to ``src/`` moves it.
_CALIB_TEXT = "\n".join(
    f"def f{i}(a, b=({i}, 'x')):\n"
    f"    t = {{'k{i}': [a * {i} + j for j in range(b[0] % 7)], 'n': None}}\n"
    f"    for k, v in sorted(t.items()):\n"
    f"        if v and k.startswith('k'):\n"
    f"            a += len(v) // 2 - {i}\n"
    f"    return a, t\n"
    for i in range(26)
)


def calib_py() -> float:
    """Seconds one pass of the fixed Python normaliser takes (about 10 ms)."""

    def work() -> int:
        tree = ast.parse(_CALIB_TEXT)
        names: Dict[str, int] = {}
        for node in ast.walk(tree):
            key = type(node).__name__
            names[key] = names.get(key, 0) + 1
        text = json.dumps({"dump": ast.dump(tree), "names": names}, sort_keys=True)
        return len(json.loads(text)["dump"])

    return timed(work)[0]


def calib_loop() -> float:
    """Seconds one pass of the fixed interpreter-loop normaliser takes (about 3 ms).

    Interpreted kernels are bytecode loops over NumPy scalar loads and
    stores, which machine noise hits differently from the parser-heavy
    :func:`calib_py` (their ratio wandered 5 % between processes).  This
    loop nest has the emitted code's instruction mix and tracks it to 1–2 %.
    """

    def work() -> float:
        n = 20
        a = np.empty((n, n), dtype=np.float64)
        b = np.empty((n, n), dtype=np.float64)
        c = np.empty((n, n), dtype=np.float64)
        i = 0
        while i < n:
            j = 0
            while j < n:
                _out = float((i * j + 1) % n)
                a[i, j] = _out / n
                b[i, j] = _out * 0.5
                c[i, j] = 0.0
                j = j + 1
            i = i + 1
        for i in range(0, n, 1):
            for k in range(0, n, 1):
                _in0 = a[i, k]
                for j in range(0, n, 1):
                    _in1 = b[k, j]
                    _out = _in0 * _in1
                    c[i, j] = c[i, j] + _out
        return c[n - 1, n - 1]

    return timed(work)[0]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- order statistics --------------------------------------------------------------------


median = statistics.median


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half: as robust to a stray sample as the median, but
    resting on half the samples instead of one or two."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- spans ---------------------------------------------------------------------------


class Spans:
    """In-memory span log: name, start, end, parent index and request id.

    Spans are recorded from the benchmark's own files around the calls
    into each layer; nothing inside ``src/`` is instrumented.  A span's
    self time is its duration minus its children's.
    """

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Dict]:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.records[parent]["request"]
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "request": request}
        self._stack.append(len(self.records))
        self.records.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, index-aligned with :attr:`records`."""
        own = [r["end"] - r["start"] for r in self.records]
        for record in self.records:
            if record["parent"] is not None:
                own[record["parent"]] -= record["end"] - record["start"]
        return own

    def by_name(self, name: str, prefix: str = "") -> List[Tuple[Dict, float]]:
        """(span, self time) of every span called ``name``.

        ``prefix`` keeps only spans whose request id starts with it (request
        ids look like ``phase/program|pipeline#round``).
        """
        own = self.self_times()
        return [
            (r, own[i]) for i, r in enumerate(self.records)
            if r["name"] == name and str(r["request"]).startswith(prefix)
        ]

    def per_pair_sum(self, name: str, prefix: str = "") -> float:
        """Σ over (program, pipeline) pairs of the median self time over rounds."""
        pairs: Dict[str, List[float]] = {}
        for record, own in self.by_name(name, prefix):
            pairs.setdefault(str(record["request"]).split("#")[0], []).append(own)
        return sum(median(samples) for samples in pairs.values())

    def per_call_median(self, name: str, prefix: str = "") -> float:
        samples = [own for _, own in self.by_name(name, prefix)]
        return median(samples) if samples else 0.0

    def gap_share(self) -> float:
        """Share of request time no child span accounts for.

        Only requests that have children count: a bare ``request`` span
        (a single run) is all self time by construction.
        """
        own = self.self_times()
        parents = {r["parent"] for r in self.records if r["parent"] is not None}
        total = gap = 0.0
        for index, record in enumerate(self.records):
            if record["name"] == "request" and index in parents:
                total += record["end"] - record["start"]
                gap += own[index]
        return gap / total if total else 0.0


class Tally:
    """Operations attempted, failed and degraded — failures are counted, never dropped."""

    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.messages: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.note(message)

    def degrade(self, message: str) -> None:
        """A native request that ran interpreted: right answer, wrong backend."""
        self.degraded += 1
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)


def agree(value, reference) -> bool:
    """Relative 1e-9 agreement of a result with its reference."""
    try:
        return math.isclose(float(value), float(reference), rel_tol=1e-9, abs_tol=1e-12)
    except (TypeError, ValueError):
        return False
