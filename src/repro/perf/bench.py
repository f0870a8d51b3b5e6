"""Provenance of the machine a measurement was taken on.

``benchmarks/e2e/run.py`` stamps :func:`machine_metadata` into every
result document it writes: a timing means nothing without the core count
it was measured with and the compiler that built the native kernels.
"""

from __future__ import annotations

import os
import platform
from typing import Dict


def machine_metadata() -> Dict:
    """Interpreter, platform, CPU counts, thread override and C compiler."""
    from ..codegen import compiler_features
    from ..sdfg.parallelism import NUM_THREADS_ENV

    metadata: Dict = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "threads_env": os.environ.get(NUM_THREADS_ENV) or None,
    }
    try:
        metadata["available_cpus"] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        metadata["available_cpus"] = metadata["cpu_count"]
    features = compiler_features()
    metadata["compiler"] = None if features is None else {
        "path": features.path,
        "version": features.version,
        "openmp": features.openmp,
    }
    return metadata
