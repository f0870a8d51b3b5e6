"""Loading generated Python source into executable objects.

Both code generators emit *self-contained* Python source (imports included)
whose top level defines a ``run(**kwargs)`` function.  That makes the code
string the canonical serializable artifact: the compile cache stores it,
and rehydration is a single ``exec`` — no IR objects required.

Generated code is registered in :mod:`linecache` under a per-artifact
filename (the requested name suffixed with the content hash), so a
traceback raised inside a generated ``run()`` shows the offending
generated source line instead of a blank frame.  The hash suffix matters:
callers reuse display names like ``<cached:dcir>`` for *different*
programs, and keying the cache on the bare name would show one kernel's
source in another kernel's traceback.

Loading the same source again — every compile-cache hit of an interpreted
result does — costs a table lookup and an ``exec``, not a hash or a
``compile``: the immutable code object is kept in a table of the last
:data:`CODE_OBJECT_LIMIT` artifacts, keyed by the source text itself and
the display filename; the content hash is taken only on a miss, for the
per-artifact filename.  Only the code object is shared; each load executes
it into a fresh namespace, so no two loaded programs share globals.
"""

from __future__ import annotations

import hashlib
import linecache
from types import CodeType
from typing import Callable, Dict

from .bounded import BoundedTable

#: How many compiled artifacts :func:`load_entry` remembers (least
#: recently used goes first); an evicted one is simply compiled again.
CODE_OBJECT_LIMIT = 256

#: ``(source, display filename)`` → code object.
_CODE_OBJECTS = BoundedTable(CODE_OBJECT_LIMIT)


class ProgramLoadError(Exception):
    """Raised when generated code does not define the expected entry point."""


def _register_source(code: str, unique: str) -> None:
    """Register ``code`` in linecache under its per-artifact filename."""
    # mtime=None marks the entry as non-file-backed, so
    # ``linecache.checkcache`` never evicts it in favor of the filesystem.
    linecache.cache[unique] = (
        len(code),
        None,
        code.splitlines(keepends=True),
        unique,
    )


def _code_object(code: str, filename: str) -> CodeType:
    """The compiled form of ``code``, from the table when it was seen before."""
    key = (code, filename)
    compiled = _CODE_OBJECTS.get(key)
    if compiled is None:
        digest = hashlib.sha256(code.encode("utf-8")).hexdigest()
        compiled = compile(code, f"<{filename.strip('<>')}#{digest[:12]}>", "exec")
        _CODE_OBJECTS.put(key, compiled)
    if compiled.co_filename not in linecache.cache:  # first load, or cleared since
        _register_source(code, compiled.co_filename)
    return compiled


def load_entry(code: str, entry: str = "run", filename: str = "<generated>") -> Callable:
    """Execute generated source and return its ``entry`` callable."""
    namespace: Dict[str, object] = {}
    exec(_code_object(code, filename), namespace)
    try:
        function = namespace[entry]
    except KeyError:
        raise ProgramLoadError(
            f"Generated code defines no {entry!r} entry point "
            f"(defined names: {sorted(k for k in namespace if not k.startswith('__'))})"
        ) from None
    if not callable(function):
        raise ProgramLoadError(f"Generated name {entry!r} is not callable")
    return function
