"""System-compiler toolchain for the native SDFG backend.

The native backend splits work the same way the Python backend does: code
*emission* (:mod:`repro.codegen.sdfg_c`) is pure and cacheable, while this
module turns emitted C into a live callable — find a system compiler,
build a shared object, load it through :mod:`ctypes` and wrap it behind
the same ``run(**kwargs) -> dict`` calling convention the interpreted
backend uses, so every consumer (timing loop, differential checks, the
tuner) is backend-agnostic.

Shared objects are cached on disk keyed by the SHA-256 of the C source
(plus compiler identity and flags), so re-running a cached compilation is
pure reuse: no ``cc`` process is spawned.  The ``REPRO_CC`` environment
variable overrides compiler discovery; pointing it at a non-existent
path simulates a machine without a compiler (the graceful-degradation
tests do exactly that).

The process also remembers what it already did.  :func:`find_compiler`
walks ``PATH`` once per ``(REPRO_CC, PATH)`` value, and
:meth:`CompiledNative.from_code` keeps the last
:data:`LOADED_LIBRARY_LIMIT` libraries it ``dlopen``-ed in a lock-guarded
table keyed by ``(code, name, cache directory, compiler)``.  A table hit
costs one ``os.stat`` of the ``.so`` — its (inode, size, mtime) must
still be what was loaded — and shares the library handle, its entry
function and the ABI, nothing mutable: the ABI is frozen once, at load,
into read-only mappings and tuples.  A missing or replaced ``.so``,
another ``REPRO_NATIVE_CACHE_DIR`` or ``REPRO_CACHE_DIR``, or a
``REPRO_CC`` or ``PATH`` that finds another compiler misses the table and
takes the full build / ``dlopen`` / self-heal path below.

Every external wait here is bounded and every failure typed: the
compiler runs in its own process group under a deadline
(``REPRO_CC_TIMEOUT``, default 120s; on expiry the whole group is
SIGKILLed and :class:`~repro.errors.CompileTimeout` raised, so a hung
``cc`` can never wedge a compile), a compiler killed by a signal raises
:class:`~repro.errors.ToolchainCrash` (transient — the source is not at
fault), and transient failures are retried under a
:class:`~repro.service.resilience.RetryPolicy` with deterministic
backoff.  A cached ``.so`` that fails to ``dlopen`` (truncated or
garbled on disk) is quarantined and rebuilt once before
:class:`~repro.errors.CacheCorruption` is raised.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import mmap
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import CacheCorruption, CompileTimeout, ToolchainCrash, ToolchainError
from ..perf import PERF
from ..sdfg.data import DTYPES
from ..symbolic import sympify
from .bounded import BoundedTable

#: Environment variable naming (or stubbing away) the C compiler.
CC_ENV = "REPRO_CC"

#: Environment variable overriding the shared-object cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE_DIR"

#: Environment variable overriding the compiler-process deadline
#: (seconds; values <= 0 disable the timeout entirely).
CC_TIMEOUT_ENV = "REPRO_CC_TIMEOUT"

#: Default compiler-process deadline.  Generous — our translation units
#: compile in milliseconds — because its job is to bound *hangs*, not to
#: race healthy builds.
DEFAULT_CC_TIMEOUT = 120.0

#: Flags used for every native build (part of the .so cache key).
CFLAGS = ("-std=c11", "-O2", "-fPIC", "-shared")

#: Extra flag appended when (and only when) the source contains OpenMP
#: pragmas and the compiler is known to support them.
OPENMP_FLAG = "-fopenmp"

#: Marker line embedding the ABI description in generated C source.
ABI_MARKER = "REPRO-NATIVE-ABI:"

#: Deadline for one-shot feature probes (``--version``, the OpenMP test
#: compile).  Probes are best-effort: expiry or failure records "feature
#: absent" rather than raising.
PROBE_TIMEOUT = 10.0

#: How many loaded shared objects :meth:`CompiledNative.from_code`
#: remembers (least recently used goes first).  An evicted library is
#: simply ``dlopen``-ed again from the on-disk ``.so`` cache.
LOADED_LIBRARY_LIMIT = 256


def cc_timeout() -> Optional[float]:
    """The compiler-process deadline in seconds (None: disabled)."""
    raw = os.environ.get(CC_TIMEOUT_ENV)
    if raw is None or raw == "":
        return DEFAULT_CC_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_CC_TIMEOUT
    return value if value > 0 else None


#: Discovered compilers memoized per ``(REPRO_CC, PATH)`` for the process
#: lifetime, like the feature probes below are per compiler path.  Only
#: successes are remembered: "no compiler" is re-probed on every call.
_COMPILERS: Dict[Tuple[Optional[str], Optional[str]], str] = {}


def find_compiler() -> Optional[str]:
    """Path of the system C compiler, or None when there is none.

    ``REPRO_CC`` wins when set (even if it names a missing file — that is
    the supported way to simulate a compiler-less machine); otherwise the
    first of ``cc``/``gcc``/``clang`` found on PATH.  The walk over PATH
    happens once per distinct ``(REPRO_CC, PATH)`` environment.
    """
    override = os.environ.get(CC_ENV)
    key = (override, os.environ.get("PATH"))
    path = _COMPILERS.get(key)
    if path is not None:
        return path
    if override:
        path = shutil.which(override) or (override if os.access(override, os.X_OK) else None)
    else:
        path = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if path is not None:
        _COMPILERS[key] = path
    return path


def have_compiler() -> bool:
    """Whether a usable system C compiler is available."""
    return find_compiler() is not None


@dataclass(frozen=True)
class CompilerFeatures:
    """Once-per-process feature record for one compiler executable."""

    #: Absolute path of the probed compiler.
    path: str
    #: First line of ``--version`` output (None when the probe failed).
    version: Optional[str]
    #: Whether an OpenMP test compile with ``-fopenmp`` succeeded; None
    #: until something asks for an OpenMP build (the probe is lazy so
    #: plain sequential compiles never spawn extra compiler processes —
    #: fault-injection stubs see exactly the calls they always saw).
    openmp: Optional[bool]


#: Probe results memoized per compiler path for the process lifetime.
_VERSIONS: Dict[str, Optional[str]] = {}
_OPENMP: Dict[str, bool] = {}


def _probe_version(compiler: str) -> Optional[str]:
    PERF.increment("toolchain.feature_probes")
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    lines = (proc.stdout or "").splitlines()
    return lines[0].strip() if lines else None


_OPENMP_PROBE_SOURCE = """\
#ifdef _OPENMP
#include <omp.h>
int main(void) { return omp_get_max_threads() > 0 ? 0 : 1; }
#else
#error OpenMP not enabled
#endif
"""


def _probe_openmp(compiler: str) -> bool:
    PERF.increment("toolchain.feature_probes")
    with tempfile.TemporaryDirectory(prefix="repro-omp-probe-") as scratch:
        source = Path(scratch) / "probe.c"
        binary = Path(scratch) / "probe.bin"
        source.write_text(_OPENMP_PROBE_SOURCE, encoding="utf-8")
        try:
            proc = subprocess.run(
                [compiler, OPENMP_FLAG, str(source), "-o", str(binary)],
                capture_output=True, timeout=PROBE_TIMEOUT,
            )
        except (OSError, subprocess.SubprocessError):
            return False
        return proc.returncode == 0


def compiler_features(
    compiler: Optional[str] = None, probe_openmp: bool = False,
) -> Optional[CompilerFeatures]:
    """Feature record of ``compiler`` (default: the discovered one).

    Each fact is probed at most once per process and per compiler path:
    the version on the first call, OpenMP support on the first call with
    ``probe_openmp=True`` (OpenMP builds ask; plain sequential compiles
    never do).  Returns None without a compiler.
    """
    if compiler is None:
        compiler = find_compiler()
        if compiler is None:
            return None
    if compiler not in _VERSIONS:
        _VERSIONS[compiler] = _probe_version(compiler)
    if probe_openmp and compiler not in _OPENMP:
        supported = _probe_openmp(compiler)
        _OPENMP[compiler] = supported
        if supported:
            PERF.increment("toolchain.openmp_supported")
    return CompilerFeatures(
        path=compiler,
        version=_VERSIONS[compiler],
        openmp=_OPENMP.get(compiler),
    )


def native_cache_dir() -> str:
    """Directory holding compiled shared objects (created on demand).

    A string, not a ``Path``: the loaded-library table keys every hit by it.
    """
    override = os.environ.get(NATIVE_CACHE_ENV)
    if override:
        return override
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return os.path.join(base, "native")
    return os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")


def _source_digest(code: str, compiler: str, flags: tuple = CFLAGS) -> str:
    basis = json.dumps(
        {"code": code, "compiler": os.path.basename(compiler), "flags": flags},
        sort_keys=True,
    )
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


def _run_compiler(command: List[str], timeout: Optional[float]) -> None:
    """Spawn the compiler in its own process group under a deadline.

    ``subprocess.run(timeout=)`` only kills the direct child; compiler
    drivers fork (cc → cc1 → as), so on expiry the whole process group
    is SIGKILLed — a hung compiler can never wedge a compile, and never
    leaks grandchildren either.
    """
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # own process group: killable as a unit
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            proc.kill()
        proc.wait()
        PERF.increment("toolchain.cc_timeouts")
        raise CompileTimeout(
            f"C compiler timed out after {timeout:g}s ({' '.join(command)})",
            seconds=timeout,
        )
    if proc.returncode == 0:
        return
    if proc.returncode < 0:
        # Killed by a signal (OOM, SIGSEGV in the compiler itself): says
        # nothing about the source, so the failure is transient.
        PERF.increment("toolchain.cc_crashes")
        raise ToolchainCrash(
            f"C compiler killed by signal {-proc.returncode} ({' '.join(command)})",
            returncode=proc.returncode,
        )
    raise ToolchainError(
        f"C compiler failed ({' '.join(command)}):\n{(stderr or '').strip()}"
    )


def compile_shared(
    code: str,
    name: str = "program",
    timeout: Optional[float] = None,
    retry: Optional["object"] = None,
) -> Path:
    """Compile C source to a cached shared object; return its path.

    Cache hits (same source, compiler and flags) spawn no compiler
    process — the ``toolchain.so_cache_hits`` profiler counter records
    them, ``toolchain.cc_runs`` records actual builds.

    ``timeout`` bounds the compiler process (default: ``REPRO_CC_TIMEOUT``
    or 120s); expiry kills the compiler's whole process group and raises
    :class:`~repro.errors.CompileTimeout`.  ``retry`` is a
    :class:`~repro.service.resilience.RetryPolicy` applied to transient
    failures only (timeouts, signal-killed compilers — never diagnosed
    compile errors); the default comes from the ``REPRO_MAX_ATTEMPTS``/
    ``REPRO_RETRY_BACKOFF`` environment knobs.
    """
    compiler = find_compiler()
    if compiler is None:
        configured = os.environ.get(CC_ENV)
        detail = (
            f"{CC_ENV}={configured!r} does not name an executable compiler"
            if configured
            else "no 'cc', 'gcc' or 'clang' found on PATH"
        )
        raise ToolchainError(f"No C compiler available ({detail})")
    flags = CFLAGS
    if "#pragma omp" in code:
        # OpenMP build: add -fopenmp only when the (once-per-process)
        # feature probe says the compiler accepts it.  Without support
        # the pragmas compile as no-ops — a clean sequential fallback.
        features = compiler_features(compiler, probe_openmp=True)
        if features is not None and features.openmp:
            flags = CFLAGS + (OPENMP_FLAG,)
    directory = Path(native_cache_dir())
    digest = _source_digest(code, compiler, flags)
    library = directory / f"{name}-{digest[:16]}.so"
    if library.exists():
        PERF.increment("toolchain.so_cache_hits")
        return library
    if timeout is None:
        timeout = cc_timeout()
    if retry is None:
        # Lazy import: codegen must not import the service package at
        # module load (service → pipeline → codegen would cycle).
        from ..service.resilience import RetryPolicy

        retry = RetryPolicy.from_env()

    def build() -> None:
        from ..faults import active_plan

        plan = active_plan()
        if plan is not None:
            plan.cc_fault(timeout)  # injected hang/crash, at the real seam
        PERF.increment("toolchain.cc_runs")
        directory.mkdir(parents=True, exist_ok=True)
        source_path = directory / f".{library.stem}.{os.getpid()}.c"
        scratch = directory / f".{library.name}.{os.getpid()}.tmp"
        try:
            source_path.write_text(code, encoding="utf-8")
            command = [compiler, *flags, "-o", str(scratch), str(source_path), "-lm"]
            _run_compiler(command, timeout)
            scratch.replace(library)  # atomic: concurrent builders see old or new
        finally:
            for leftover in (source_path, scratch):
                try:
                    leftover.unlink()
                except OSError:
                    pass

    _, attempts = retry.run(build, describe=f"native build of {name}")
    if attempts > 1:
        PERF.increment("toolchain.cc_retries", attempts - 1)
    return library


def parse_abi(code: str) -> Dict:
    """Extract the embedded ABI description from generated C source."""
    for line in code.splitlines():
        marker = line.find(ABI_MARKER)
        if marker >= 0:
            text = line[marker + len(ABI_MARKER):].strip().rstrip("*/").strip()
            try:
                return json.loads(text)
            except ValueError as exc:
                raise ToolchainError(f"Malformed native ABI header: {exc}") from exc
    raise ToolchainError("Generated C source carries no native ABI header")


def _freeze(value):
    """A read-only copy of a parsed ABI: mappings for dicts, tuples for lists."""
    if isinstance(value, dict):
        return MappingProxyType({key: _freeze(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _evaluate_shape(dims: Tuple[str, ...], env: Dict[str, float]) -> tuple:
    return tuple(int(sympify(dim).evaluate(dict(env))) for dim in dims)


#: ``MADV_WIPEONFORK`` (Linux 4.14), which the ``mmap`` module does not name.
_MADV_WIPEONFORK = 18


class _Workspace(threading.local):
    """The calling thread's transient storage for native programs.

    One anonymous private mapping per thread, grown to the largest
    ``workspace`` any program this thread ran asked for and kept until the
    thread exits, so a warm call allocates nothing and faults on no page.
    A program finds there whatever the thread's previous program left.

    Private, so a forked child computes in pages of its own
    (``mmap.mmap(-1, n)`` without flags maps *shared*), and wiped on fork,
    so it gets them as fresh zero pages instead of copy-on-write ones:
    otherwise every ``fork`` — a ``subprocess`` with a ``preexec_fn``, a
    pool worker — write-protects the whole block in the parent, whose next
    call then faults on each page again.
    """

    block: Optional[mmap.mmap] = None
    size = 0
    address = 0

    def reserve(self, needed: int) -> int:
        """Address of a block of at least ``needed`` bytes (0 when none are)."""
        if needed > self.size:
            if self.block is not None:
                # Unmapped first: both blocks mapped at once is the process's peak.
                self.block.close()
                self.block, self.size, self.address = None, 0, 0
            try:
                block = mmap.mmap(-1, needed, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            except (OSError, OverflowError, ValueError) as exc:
                raise ToolchainError(
                    f"Cannot map a {needed}-byte workspace for native transients ({exc})"
                ) from exc
            if sys.platform == "linux":
                try:
                    block.madvise(_MADV_WIPEONFORK)
                except OSError:
                    pass  # an older kernel: copy-on-write, right answers, faults after a fork
            # The ctypes view is dropped at once: a live export would forbid close().
            self.address = ctypes.addressof(ctypes.c_char.from_buffer(block))
            self.block, self.size = block, needed
        return self.address


_WORKSPACE = _Workspace()


def _workspace_bytes(declared, env: Dict[str, float]) -> int:
    """Bytes of workspace one call needs, from the ABI header's ``workspace``."""
    value = declared if isinstance(declared, int) else sympify(declared).evaluate(dict(env))
    if value < 0 or value != int(value):
        raise ToolchainError(
            f"Native workspace size {declared!r} evaluates to {value!r} bytes under {env!r}"
        )
    return int(value)


def _stat_signature(path) -> Optional[Tuple[int, int, int]]:
    """What identifies the file a library is loaded from (None: no such file)."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (status.st_ino, status.st_size, status.st_mtime_ns)


#: Libraries this process already has mapped: ``(code, name, cache
#: directory, compiler)`` → ``(stat signature, frozen abi, library, function)``.
_LOADED = BoundedTable(LOADED_LIBRARY_LIMIT)


@dataclass
class CompiledNative:
    """A natively compiled SDFG program behind the interpreted calling convention.

    Like :class:`~repro.codegen.sdfg_python.CompiledSDFG`, the code string
    is the whole artifact: :meth:`from_code` rehydrates a live callable
    from cached C source alone, using the ABI header the code generator
    embedded (interface containers, free symbols, constants) to rebuild
    the ctypes marshalling layer without any IR.
    """

    code: str
    #: The ABI header, frozen: one read-only object shared by every
    #: :class:`CompiledNative` of the same loaded library.
    abi: Mapping
    library: Path
    _function: object = field(repr=False, default=None)

    def __call__(self, **kwargs):
        return self.run(**kwargs)

    @classmethod
    def from_code(
        cls,
        code: str,
        name: str = "program",
        timeout: Optional[float] = None,
        retry: Optional[object] = None,
    ) -> "CompiledNative":
        """Compile (or reuse the cached .so for) generated C and load it.

        A library this process already loaded for the same code, name,
        cache directory and compiler is served from the loaded-library
        table after one ``os.stat`` confirms the ``.so`` on disk is still
        the file that was mapped (``toolchain.so_cache_hits`` ticks as for
        any other reuse); everything else takes the full path.  The ABI is
        parsed and frozen once, when the library is loaded: every
        :class:`CompiledNative` of that library shares the one read-only
        object (mutating it raises), so a hit copies nothing.

        A cached shared object that fails to ``dlopen`` (truncated or
        garbled by a killed writer or a bad disk) is quarantined
        (unlinked, counted under ``toolchain.so_corrupt_evicted``) and
        rebuilt from source once — self-healing, exactly like the
        compile cache.  A rebuild that *still* cannot be loaded raises
        :class:`~repro.errors.CacheCorruption`.
        """
        key = (code, name, native_cache_dir(), find_compiler())
        entry = _LOADED.get(key)
        if entry is not None:
            signature, abi, library, function = entry
            if signature is not None and _stat_signature(library) == signature:
                PERF.increment("toolchain.so_cache_hits")
                return cls(code=code, abi=abi, library=library, _function=function)
            _LOADED.discard(key)

        abi = parse_abi(code)
        if "workspace" not in abi:
            raise ToolchainError(
                "Native ABI header has no 'workspace' key: the C text was generated "
                "before 1.10.0, whose entry point takes the transient workspace as "
                "its last argument; regenerate it"
            )
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", str(abi.get("name") or name))
        handle = None
        for attempt in (1, 2):
            library = compile_shared(code, name=safe, timeout=timeout, retry=retry)
            try:
                # Taken before the load: a file replaced in between fails
                # the next validation instead of passing for what is mapped.
                signature = _stat_signature(library)
                handle = ctypes.CDLL(str(library))
                break
            except OSError as exc:
                PERF.increment("toolchain.so_corrupt_evicted")
                try:
                    library.unlink()  # quarantine: force a rebuild
                except OSError:
                    pass
                if attempt == 2:
                    raise CacheCorruption(
                        f"Shared object {library} cannot be loaded even after a "
                        f"rebuild from source ({exc})"
                    ) from exc
        try:
            function = getattr(handle, abi["entry"])
        except AttributeError as exc:
            raise ToolchainError(
                f"Shared object {library} exports no {abi['entry']!r} symbol"
            ) from exc
        function.restype = None
        if "#pragma omp" in code:
            # Record what the (memoized) feature probe decided for this
            # OpenMP translation unit, so callers can tell a parallel
            # build from a pragma-ignoring sequential fallback.
            features = compiler_features(probe_openmp=True)
            if features is not None:
                abi["toolchain"] = {
                    "compiler": features.path,
                    "version": features.version,
                    "openmp": bool(features.openmp),
                }
        abi = _freeze(abi)
        _LOADED.put(key, (signature, abi, library, function))
        return cls(code=code, abi=abi, library=library, _function=function)

    # -- the interpreted-backend calling convention -----------------------------------
    def run(self, **kwargs) -> Dict:
        """Execute the native program; returns the same dict shape as the
        interpreted backend (``__allocations`` plus every interface
        container), so results are directly comparable.

        An array argument that is C-contiguous and of the container's
        element type is passed as a pointer.  Any other is copied whole into
        a contiguous buffer before the call and whole back after it: for
        two 1 Mi-element ``float64`` arguments that is ~17 ms a call against
        ~20 µs contiguous (2-vCPU Intel Xeon), so convert an array reused
        across calls once with ``np.ascontiguousarray``."""
        abi = self.abi
        symbol_values = {name: int(kwargs[name]) for name in abi["symbols"]}
        env = {**abi.get("constants", {}), **symbol_values}
        argv = []
        arrays = []  # (name, caller object, marshalled buffer)
        cells = []  # (name, dtype, ctypes cell)
        for arg in abi["args"]:
            info = DTYPES[arg["dtype"]]
            if arg["kind"] == "array":
                dtype = np.dtype(info.numpy_name)
                if arg["transient"]:
                    # Wrapper-allocated output (a transient in return_values):
                    # the interpreted backend allocates it inside run().
                    original = buffer = np.empty(_evaluate_shape(arg["shape"], env), dtype)
                else:
                    original = kwargs[arg["name"]]
                    buffer = np.ascontiguousarray(original, dtype=dtype)
                argv.append(ctypes.c_void_p(buffer.ctypes.data))
                arrays.append((arg["name"], original, buffer))
            else:
                default = 0.0 if arg["dtype"].startswith("float") else 0
                initial = 0 if arg["transient"] else kwargs.get(arg["name"], default)
                cell = getattr(ctypes, info.ctypes_name)(initial)
                argv.append(ctypes.byref(cell))
                cells.append((arg["name"], arg["dtype"], cell))
        argv.extend(ctypes.c_int64(symbol_values[name]) for name in abi["symbols"])
        allocations = ctypes.c_int64(0)
        argv.append(ctypes.byref(allocations))
        argv.append(ctypes.c_void_p(_WORKSPACE.reserve(_workspace_bytes(abi["workspace"], env))))
        self._function(*argv)
        outputs: Dict = {"__allocations": int(allocations.value)}
        for name, original, buffer in arrays:
            if buffer is not original and isinstance(original, np.ndarray):
                # The marshalling copy must not hide in-place mutation from
                # the caller (the interpreted backend writes through).
                original[...] = buffer
                outputs[name] = original
            else:
                outputs[name] = buffer
        for name, dtype, cell in cells:
            value = cell.value
            outputs[name] = float(value) if dtype.startswith("float") else int(value)
        return outputs
