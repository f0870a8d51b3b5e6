"""The indentation-aware source writer shared by every code generator."""

from __future__ import annotations

from typing import List


class SourceWriter:
    """Collects indented source lines for one generated file.

    The target languages differ only in how a nested block is delimited:
    Python (``braces=False``) ends the header in ``:`` and fills a block
    nothing was emitted into with ``pass``; C (``braces=True``) wraps the
    block in braces and needs no filler.
    """

    def __init__(self, braces: bool, indent: int = 0):
        self.lines: List[str] = []
        self.indent = indent
        self.opener, self.closer, self.filler = (" {", "}", None) if braces else (":", None, "pass")

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def block(self, header: str) -> "_Block":
        """Context manager: emit ``header``, indent the body, close the block."""
        return _Block(self, header)

    def fill(self) -> None:
        """Emit the language's no-op statement, if it has one."""
        if self.filler is not None:
            self.emit(self.filler)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Block:
    __slots__ = ("writer", "header", "start")

    def __init__(self, writer: SourceWriter, header: str):
        self.writer = writer
        self.header = header

    def __enter__(self) -> None:
        writer = self.writer
        writer.emit(self.header + writer.opener)
        writer.indent += 1
        self.start = len(writer.lines)

    def __exit__(self, *exc) -> None:
        writer = self.writer
        if len(writer.lines) == self.start:
            writer.fill()
        writer.indent -= 1
        if writer.closer is not None:
            writer.emit(writer.closer)
