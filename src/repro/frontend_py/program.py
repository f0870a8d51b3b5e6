"""The :class:`PythonProgram` unit of compilation for the Python frontend.

A Python program is *self-contained data*, not a live function object: the
canonical (dedented, decorator-stripped) source text of one function plus
its size bindings.  Everything the rest of the stack needs follows from
that choice:

* **Content addressing** — :meth:`PythonProgram.cache_source` is a
  deterministic digest basis (canonical source + function name + sorted
  sizes), so the service cache keys Python programs exactly like C
  sources: same function source and sizes ⇒ same key, in every process
  and under every ``PYTHONHASHSEED``.
* **Process pools** — the object is plain strings and ints, so it pickles
  to :func:`repro.service.compile_many` workers without requiring the
  original function to be importable there.
* **Differential reference** — calling the program executes the *same
  canonical source* under plain Python/NumPy (``exec`` in a namespace
  binding ``np`` and ``math``), which is the reference every backend is
  checked against.  The traced and the reference computation can never
  drift apart because they are one piece of text.

The usual way to build one is the :func:`program` decorator::

    @repro.program
    def axpy(N=128):
        ...

    axpy()                    # plain-NumPy reference execution
    compile_and_run(axpy)     # through any pipeline, any backend
    axpy.bind(N=1024)         # same kernel, another problem size
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import textwrap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Mapping, Optional, Union

from ..errors import FrontendError


def _canonical_source(text: str) -> str:
    """Dedent, strip decorator lines and normalize whitespace/line endings.

    The result is the *identity* of the program (its digest basis), so the
    normalization must be deterministic and version-independent: plain
    text manipulation only, no ``ast`` round-trips (``ast.unparse`` output
    drifts between Python versions).
    """
    lines = textwrap.dedent(text.replace("\r\n", "\n").replace("\r", "\n")).split("\n")
    start = 0
    while start < len(lines) and not lines[start].lstrip().startswith("def "):
        stripped = lines[start].strip()
        if stripped and not stripped.startswith(("@", "#")):
            raise FrontendError(
                "A Python program must be a single function definition "
                f"(optionally decorated); got leading text {stripped!r}"
            )
        start += 1
    if start == len(lines):
        raise FrontendError("No function definition found in the program source")
    return "\n".join(line.rstrip() for line in lines[start:]).strip("\n")


@dataclass(frozen=True)
class PythonProgram:
    """A NumPy-style Python function as a compilable, hashable unit.

    ``source`` is the canonical function source (line 1 is the ``def``
    line — frontend diagnostics use these line numbers); ``sizes`` are the
    bound values of the function's size parameters.  Instances are
    immutable: :meth:`bind` returns a rebound copy.
    """

    name: str
    source: str
    sizes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sizes", dict(self.sizes))
        for key, value in self.sizes.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise FrontendError(
                    f"Size parameter {key!r} must be an int, got {value!r}"
                )

    # -- identity -----------------------------------------------------------------
    def cache_source(self) -> str:
        """Deterministic digest basis: canonical source + name + sizes.

        A program is a value, so the text is built once and kept with it.
        """
        return self._digest_basis

    @cached_property
    def _digest_basis(self) -> str:
        return json.dumps(
            {
                "frontend": "python",
                "function": self.name,
                "source": self.source,
                "sizes": dict(sorted(self.sizes.items())),
            },
            sort_keys=True,
        )

    def content_id(self) -> str:
        """SHA-256 of the digest basis — stable across processes/hash seeds."""
        return hashlib.sha256(self.cache_source().encode("utf-8")).hexdigest()

    # -- rebinding ----------------------------------------------------------------
    def bind(self, sizes: Optional[Mapping[str, int]] = None, **more: int) -> "PythonProgram":
        """A copy with size bindings updated (``bind({'N': 64})`` / ``bind(N=64)``)."""
        merged = dict(self.sizes)
        merged.update(sizes or {})
        merged.update(more)
        return PythonProgram(name=self.name, source=self.source, sizes=merged)

    # -- reference execution -------------------------------------------------------
    def load(self) -> Callable:
        """Materialize the canonical source as a plain Python callable.

        The namespace binds only ``np`` and ``math`` — the exact surface
        the frontend supports — so a program that references anything
        else fails identically here and in tracing.
        """
        import numpy as np

        namespace: Dict[str, object] = {"np": np, "numpy": np, "math": math}
        exec(compile(self.source, f"<python-program:{self.name}>", "exec"), namespace)
        fn = namespace.get(self.name)
        if not callable(fn):
            raise FrontendError(
                f"Program source does not define a function named {self.name!r}"
            )
        return fn

    def __call__(self, **size_overrides: int):
        """Execute the program directly under plain Python/NumPy.

        This is the differential reference for every compiled backend:
        the same canonical source, the same size bindings, interpreted by
        Python itself.
        """
        bound = self.bind(size_overrides) if size_overrides else self
        return bound.load()(**bound.sizes)

    def __str__(self) -> str:
        sizes = ", ".join(f"{k}={v}" for k, v in sorted(self.sizes.items()))
        return f"<PythonProgram {self.name}({sizes})>"


#: What pipeline entry points accept as a Python-frontend source.
ProgramLike = Union[PythonProgram, Callable]


def as_program(source: ProgramLike, sizes: Optional[Mapping[str, int]] = None) -> PythonProgram:
    """Coerce a decorated program or a plain function into a :class:`PythonProgram`.

    Plain functions are canonicalized via :func:`inspect.getsource`; their
    default arguments become the size bindings (overridden by ``sizes``).
    """
    if isinstance(source, PythonProgram):
        return source.bind(sizes) if sizes else source
    if callable(source):
        return program(source).bind(sizes) if sizes else program(source)
    raise FrontendError(
        f"Cannot interpret {type(source).__name__} as a Python program; "
        "pass a @repro.program-decorated function or a plain function"
    )


def _signature_sizes(fn: Callable) -> Dict[str, int]:
    sizes: Dict[str, int] = {}
    for name, parameter in inspect.signature(fn).parameters.items():
        if parameter.kind not in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY):
            raise FrontendError(
                f"Unsupported parameter kind {parameter.kind.name} for {name!r}; "
                "size parameters must be plain keyword-bindable arguments"
            )
        if parameter.default is not inspect.Parameter.empty:
            if not isinstance(parameter.default, int) or isinstance(parameter.default, bool):
                raise FrontendError(
                    f"Default for size parameter {name!r} must be an int, "
                    f"got {parameter.default!r}"
                )
            sizes[name] = parameter.default
    return sizes


def program(fn: Optional[Callable] = None, *, name: Optional[str] = None,
            sizes: Optional[Mapping[str, int]] = None):
    """Decorator turning a NumPy-style function into a :class:`PythonProgram`.

    Bare (``@program``) or parameterized (``@program(sizes={"N": 64})``).
    Size parameters default to the function's own default arguments.
    """
    def wrap(function: Callable) -> PythonProgram:
        try:
            raw = inspect.getsource(function)
        except (OSError, TypeError) as exc:
            raise FrontendError(
                f"Cannot recover the source of {function!r} ({exc}); the Python "
                "frontend parses source text — define the function in a file "
                "or pass the source to PythonProgram directly"
            ) from None
        bindings = _signature_sizes(function)
        bindings.update(sizes or {})
        return PythonProgram(
            name=name or function.__name__,
            source=_canonical_source(raw),
            sizes=bindings,
        )

    return wrap if fn is None else wrap(fn)
