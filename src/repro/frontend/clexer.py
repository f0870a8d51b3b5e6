"""Lexer for the C subset accepted by the mini-Polygeist frontend.

Handles the constructs appearing in Polybench-class numerical C code:
identifiers, integer/floating literals, operators (including compound
assignment and increment/decrement), comments, and a tiny preprocessor that
expands object-like ``#define NAME value`` macros and drops other
directives (``#include`` etc.).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

KEYWORDS = {
    "int",
    "long",
    "float",
    "double",
    "char",
    "void",
    "unsigned",
    "signed",
    "const",
    "static",
    "struct",
    "for",
    "while",
    "do",
    "if",
    "else",
    "return",
    "break",
    "continue",
    "sizeof",
}

# Longest-match-first operator list.
OPERATORS = [
    "<<=", ">>=",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=", "&&", "||",
    "<<", ">>", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":",
    "(", ")", "[", "]", "{", "}", ",", ";", ".",
]


@dataclass
class Token:
    """A single lexical token."""

    kind: str  # 'id', 'keyword', 'int', 'float', 'op', 'string', 'eof'
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class CLexerError(Exception):
    """Raised when the source contains characters the lexer cannot handle."""


# One alternation tried in the order float, int, identifier, string,
# operator (longest first); whitespace is skipped, counting newlines.
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<float>\d+\.\d*(?:[eE][+-]?\d+)?[fF]?|\.\d+(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?)"
    r"|(?P<int>0[xX][0-9a-fA-F]+|\d+[uUlL]*)"
    r"|(?P<id>[A-Za-z_][A-Za-z_0-9]*)"
    r'|(?P<string>"(?:\\.|[^"\\])*")'
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")"
)


def preprocess(source: str) -> Tuple[str, Dict[str, str]]:
    """Strip comments, expand ``#define`` macros, drop other directives.

    Returns the cleaned source and the macro table (useful for dataset-size
    introspection in the workload registry).
    """
    # Remove block and line comments (preserve line counts for diagnostics).
    source = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), source, flags=re.S)
    source = re.sub(r"//[^\n]*", "", source)

    defines: Dict[str, str] = {}
    output_lines: List[str] = []
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            match = re.match(r"#\s*define\s+([A-Za-z_][A-Za-z_0-9]*)\s+(.+)", stripped)
            if match and "(" not in match.group(1):
                defines[match.group(1)] = match.group(2).strip()
            output_lines.append("")  # keep line numbering stable
            continue
        output_lines.append(line)
    text = "\n".join(output_lines)

    # Expand object-like macros repeatedly (macros may reference each other).
    for _ in range(8):
        replaced = text
        for name, value in defines.items():
            replaced = re.sub(rf"\b{re.escape(name)}\b", f"({value})", replaced)
        if replaced == text:
            break
        text = replaced
    return text, defines


def tokenize(source: str) -> List[Token]:
    """Tokenize preprocessed C source."""
    tokens: List[Token] = []
    position = 0
    line = 1
    length = len(source)
    while position < length:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise CLexerError(f"Unexpected character {source[position]!r} at line {line}")
        kind = match.lastgroup
        text = match.group()
        position = match.end()
        if kind == "space":
            line += text.count("\n")
            continue
        if kind == "float":
            text = text.rstrip("fF")
        elif kind == "int":
            text = text.rstrip("uUlL")
        elif kind == "id" and text in KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens
