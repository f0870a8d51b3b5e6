"""Independent reference for the C workloads: correctness oracle and native normaliser.

The reference is the *unmodified* workload C source compiled by the system
``cc -std=c11 -O2`` together with a ``main`` that times each kernel call
with ``clock_gettime`` and prints the time and the ``%.17g`` checksum.  It
never touches the compiler under test, runs out of process, and keeps its
arrays on the stack like the source says — hence the unlimited stack.
"""

from __future__ import annotations

import re
import resource
import shutil
import subprocess
from pathlib import Path
from typing import List, Tuple

CFLAGS = ("-std=c11", "-O2")

#: Deadline for one reference build or run; generous, it only bounds hangs.
TIMEOUT_S = 60.0

_ENTRY = re.compile(r"^\s*double\s+(\w+)\s*\(\s*\)\s*\{", re.MULTILINE)

_MAIN = """
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
int main(int argc, char **argv) {
  int reps = argc > 1 ? atoi(argv[1]) : 1;
  for (int r = 0; r < reps; r++) {
    struct timespec a, b;
    clock_gettime(CLOCK_MONOTONIC, &a);
    double value = %(entry)s();
    clock_gettime(CLOCK_MONOTONIC, &b);
    printf("%%.9f %%.17g\\n", (b.tv_sec - a.tv_sec) + 1e-9 * (b.tv_nsec - a.tv_nsec), value);
  }
  return 0;
}
"""


class ReferenceError(RuntimeError):
    """The reference could not be built or did not produce a result."""


def system_cc() -> str:
    """The system C compiler — deliberately not ``REPRO_CC``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    raise ReferenceError("no system C compiler (cc/gcc/clang) on PATH")


def build_reference(name: str, source: str, directory: Path) -> Path:
    """Compile ``source`` plus the timing ``main``; return the binary's path."""
    entries = _ENTRY.findall(source)
    if len(entries) != 1:
        raise ReferenceError(f"{name}: expected one 'double f()' kernel, found {entries}")
    directory.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_]", "_", name)
    c_path = directory / f"ref_{safe}.c"
    binary = directory / f"ref_{safe}.bin"
    c_path.write_text(
        "#define _POSIX_C_SOURCE 200809L\n#include <math.h>\n"
        + source + _MAIN % {"entry": entries[0]},
        encoding="utf-8",
    )
    try:
        proc = subprocess.run(
            [system_cc(), *CFLAGS, "-o", str(binary), str(c_path), "-lm"],
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ReferenceError(f"{name}: reference build timed out") from exc
    if proc.returncode != 0:
        raise ReferenceError(f"{name}: reference build failed:\n{proc.stderr.strip()}")
    return binary


def _unlimited_stack() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_STACK)
    resource.setrlimit(resource.RLIMIT_STACK, (hard, hard))


def run_reference(binary: Path, reps: int = 1) -> Tuple[List[float], float]:
    """Run the reference ``reps`` times in one process.

    Returns the self-timed seconds of each kernel call and the checksum
    (identical across calls: the kernels are deterministic).
    """
    try:
        proc = subprocess.run(
            [str(binary), str(reps)], capture_output=True, text=True,
            timeout=TIMEOUT_S, preexec_fn=_unlimited_stack,
        )
    except subprocess.TimeoutExpired as exc:
        raise ReferenceError(f"{binary.name}: reference run timed out") from exc
    lines = proc.stdout.split("\n")[:-1]
    if proc.returncode != 0 or len(lines) != reps:
        raise ReferenceError(
            f"{binary.name}: exit {proc.returncode}, {len(lines)}/{reps} results"
        )
    pairs = [line.split() for line in lines]
    return [float(seconds) for seconds, _ in pairs], float(pairs[-1][1])
