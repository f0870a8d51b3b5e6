"""Content-addressed compilation cache.

Compiling the same kernel through the same pipeline always produces the
same generated code (codegen is deterministic — a regression-tested
invariant), so compilation results can be memoized by content address: the
SHA-256 of the *normalized* C source, the pipeline's canonical spec
serialization, the requested function and the library version.  Keying on
the :meth:`~repro.pipeline.PipelineSpec.cache_basis` rather than a name
means custom (even anonymous) pipeline specs are content-addressed
correctly: a registered name and an equivalent hand-built spec share one
entry, while any change to the pass list, pass options or codegen flags
produces a new address.  Two stores back the cache:

* an in-memory LRU holding serialized payloads (never live objects — every
  hit rehydrates a fresh :class:`~repro.pipeline.CompileResult`, so cached
  results share no mutable state between callers).  A memory hit costs a
  key (one hash over the normalized source and the spec's JSON, which a
  spec — a value — computes once and every later key reuses), a
  dictionary lookup and the rehydration; what the result would only need
  later is built when it is first used — its spec is parsed from the
  payload when first read, and the interpreted source of a native result
  and the shared object are loaded when it is run, from the process-level
  tables of
  :mod:`repro.codegen.loader` and :mod:`repro.codegen.toolchain` (the
  latter hands every hit one read-only ABI);
* an optional on-disk store (one JSON file per key) that survives
  processes, letting consecutive test or benchmark invocations skip
  compilation entirely.  Set the ``REPRO_CACHE_DIR`` environment variable
  to give every default-constructed cache a persistent directory.

The disk store is self-healing.  Entries are envelopes carrying a format
stamp and a SHA-256 checksum of the payload (``CACHE_FORMAT``); writes
are write-to-scratch + atomic rename, so a killed writer can never leave
a torn entry under the real name.  Readers verify everything anyway —
files written by older library versions, truncated by a non-atomic
writer, or garbled by the disk are *quarantined* (moved into a
``quarantine/`` subdirectory, counted under the
``compile_cache.corrupt_evicted`` profiler counter and
``CacheStats.quarantined``) and reported as a miss, never an exception:
a corrupt cache costs a recompile, not a batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from .. import __version__
from ..faults import active_plan
from ..perf import PERF
from ..pipeline import (
    CompileResult,
    generate_program,
    resolve_pipeline,
    result_from_payload,
)
from ..pipeline.pipelines import PAYLOAD_VERSION
from ..pipeline.spec import PipelineLike

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Format stamp of on-disk entries.  Entries are checksummed envelopes:
#: ``{"format": CACHE_FORMAT, "sha256": <hex>, "payload": {...}}``.
#: Bump when the envelope layout changes; payload compatibility is
#: versioned separately (``PAYLOAD_VERSION`` inside the payload).
CACHE_FORMAT = "repro-cache-entry/v2"

#: Subdirectory corrupted/alien entries are moved into (kept, not
#: deleted: quarantined files are forensic evidence of torn writes).
QUARANTINE_DIR = "quarantine"


def payload_digest(payload: Dict) -> str:
    """Canonical content checksum of a payload (sorted-key JSON, SHA-256)."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalize_source(source) -> str:
    """Normalize a program for content addressing.

    For C sources, line endings and per-line trailing whitespace are
    canonicalized and surrounding blank lines dropped — formatting
    variations that cannot change the compiled program.  Anything further
    (comments, internal whitespace) is left alone: the frontend sees
    exactly what we hash.

    Python-frontend programs (``PythonProgram`` or plain functions) hash
    their own canonical digest basis — dedented, decorator-stripped
    source plus sorted size bindings (see
    :meth:`~repro.frontend_py.PythonProgram.cache_source`) — so the same
    function source with the same sizes addresses the same entry in every
    process and under every ``PYTHONHASHSEED``.
    """
    if not isinstance(source, str):
        from ..frontend_py import as_program

        return as_program(source).cache_source()
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join(line.rstrip() for line in lines).strip("\n")


def cache_key(source, pipeline: PipelineLike = "dcir", function: Optional[str] = None) -> str:
    """Content address of one compilation request.

    ``pipeline`` is a registered name or a
    :class:`~repro.pipeline.PipelineSpec`; either way the key is computed
    from the spec's canonical serialization, so equivalent pipelines share
    a key regardless of how (or whether) they are named.  The hashed text
    is ``json.dumps({"function": …, "pipeline": <cache basis>, "source": …,
    "version": …}, sort_keys=True)``; the spec's part of it is its
    :attr:`~repro.pipeline.PipelineSpec.cache_basis_json`, serialized once
    per spec.
    """
    basis = '{"function": %s, "pipeline": %s, "source": %s, "version": %s}' % (
        json.dumps(function),
        resolve_pipeline(pipeline).cache_basis_json,
        json.dumps(normalize_source(source)),
        json.dumps(__version__),
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Counters describing how a cache instance has been used."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    #: Disk entries that failed integrity validation and were moved aside.
    quarantined: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.disk_hits, self.stores,
                          self.evictions, self.quarantined)

    def __str__(self) -> str:
        return (
            f"CacheStats(hits={self.hits} (disk {self.disk_hits}), "
            f"misses={self.misses}, stores={self.stores}, "
            f"evictions={self.evictions}, quarantined={self.quarantined})"
        )


def _valid_payload(payload) -> bool:
    """Whether a deserialized disk entry is a usable, current payload."""
    return (
        isinstance(payload, dict)
        and "code" in payload
        and payload.get("version") == PAYLOAD_VERSION
    )


class CompileCache:
    """In-memory LRU + optional on-disk store of compilation payloads."""

    def __init__(
        self,
        max_entries: int = 256,
        directory: Optional[os.PathLike] = None,
        use_env_directory: bool = True,
    ):
        if directory is None and use_env_directory:
            directory = os.environ.get(CACHE_DIR_ENV) or None
        self.directory = Path(directory) if directory is not None else None
        self.max_entries = max(1, int(max_entries))
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()

    # -- store layers ---------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def _memory_put(self, key: str, payload: Dict) -> None:
        # Caller holds the lock.
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a failed entry aside; corruption costs a recompile, never a crash."""
        PERF.increment("compile_cache.corrupt_evicted")
        with self._lock:
            self.stats.quarantined += 1
            sequence = self.stats.quarantined
        target = path.parent / QUARANTINE_DIR / f"{path.name}.{os.getpid()}.{sequence}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            path.replace(target)
        except OSError:
            try:
                path.unlink()  # quarantine dir unusable: evict in place
            except OSError:
                pass  # racing reader already moved it, or read-only store

    def _read_disk(self, key: str) -> Optional[Dict]:
        """Read and *verify* a disk entry; None for missing/corrupt/stale.

        The single source of truth for disk-entry validity — ``lookup`` and
        ``__contains__`` both route through it, so they can never disagree
        on whether a stale or incompatible entry "exists".  Anything that
        fails verification — unparseable JSON (truncated by a torn
        write), an alien envelope format, a checksum mismatch, a stale
        payload version — is quarantined and reported as a miss; this
        method never raises for bad data.
        """
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None  # absent, unreadable (permissions), racing unlink: plain miss
        try:
            document = json.loads(text)
        except ValueError:
            self._quarantine(path, "unparseable JSON (torn write?)")
            return None
        if not isinstance(document, dict):
            self._quarantine(path, "entry is not a JSON object")
            return None
        if document.get("format") != CACHE_FORMAT:
            self._quarantine(path, f"alien entry format {document.get('format')!r}")
            return None
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self._quarantine(path, "envelope carries no payload object")
            return None
        if document.get("sha256") != payload_digest(payload):
            self._quarantine(path, "payload checksum mismatch")
            return None
        if not _valid_payload(payload):
            self._quarantine(path, "stale or incompatible payload version")
            return None
        return payload

    def lookup(self, key: str) -> Optional[Dict]:
        """Fetch a payload by key, promoting disk entries into memory."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return payload
        payload = self._read_disk(key)
        if payload is not None:
            with self._lock:
                self._memory_put(key, payload)
                self.stats.hits += 1
                self.stats.disk_hits += 1
            return payload
        with self._lock:
            self.stats.misses += 1
        return None

    def store(self, key: str, payload: Dict) -> None:
        """Insert a payload into the memory LRU and (if enabled) the disk store.

        Disk entries are checksummed envelopes written to a scratch file
        and atomically renamed into place: a writer killed at any point
        leaves either the previous entry or a stray scratch file — never
        a torn entry under the real name.
        """
        with self._lock:
            self._memory_put(key, payload)
            self.stats.stores += 1
        path = self._disk_path(key)
        if path is None:
            return
        text = json.dumps(
            {"format": CACHE_FORMAT, "sha256": payload_digest(payload), "payload": payload}
        )
        plan = active_plan()
        if plan is not None:
            # Fault seam: a torn (truncated) write, as a non-atomic writer
            # killed mid-write would produce.  Written under the real name
            # on purpose — it must exercise the reader's quarantine path.
            text = plan.corrupt_cache_text(text)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            scratch.write_text(text, encoding="utf-8")
            scratch.replace(path)  # atomic: concurrent readers see old or new
        except OSError:
            pass  # a read-only or full disk must not fail compilation

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory entries (and optionally the on-disk store)."""
        with self._lock:
            self._memory.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        # Same validation as ``lookup`` (without stats or promotion): a
        # stale or corrupt disk entry is absent, not present.
        return self._read_disk(key) is not None

    def contains_compile(
        self, source, pipeline: PipelineLike = "dcir", function: Optional[str] = None
    ) -> bool:
        """Whether a compilation *request* is already cached (no compile runs).

        Request-level companion of ``key in cache``: computes the content
        address of (source, pipeline, function) and probes both stores
        without touching statistics — lets sweep drivers predict which
        items a batch will get for free without spelling out cache keys.
        """
        return cache_key(source, pipeline, function) in self

    # -- the cached compile entry point ---------------------------------------------
    def get_or_compile(
        self, source, pipeline: PipelineLike = "dcir", function: Optional[str] = None
    ) -> CompileResult:
        """Compile through the cache (``pipeline`` is a name or spec).

        On a hit, a fresh :class:`CompileResult` is rehydrated from the
        stored payload (``cache_hit=True``) without running any compiler
        stage; on a miss the full pipeline runs and its payload is stored.
        """
        spec = resolve_pipeline(pipeline)
        key = cache_key(source, spec, function)
        payload = self.lookup(key)
        if payload is not None:
            PERF.increment("compile_cache.hits")
            return result_from_payload(payload)
        PERF.increment("compile_cache.misses")
        program = generate_program(source, spec, function=function)
        self.store(key, program.to_payload())
        return program.to_result()
