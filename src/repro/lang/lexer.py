"""Lexer for the C subset accepted by the RefinedC front end (§3).

Handles C2x attribute blocks ``[[rc::name("arg", ...)]]`` as first-class
tokens (the annotation payload is kept verbatim for the spec parser),
line/block comments, and the usual C operators and literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


class LexError(Exception):
    pass


@dataclass(frozen=True)
class Token:
    kind: str       # "ident", "number", "string", "punct", "attr", "eof"
    text: str
    line: int
    # For "attr" tokens: the rc:: attribute name and its string arguments.
    attr_name: str = ""
    attr_args: tuple[str, ...] = ()


KEYWORDS = {
    "struct", "union", "typedef", "if", "else", "while", "for", "do",
    "return", "break", "continue", "goto", "switch", "case", "default",
    "void", "int", "char", "short", "long", "unsigned", "signed", "size_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "uintptr_t", "_Bool", "bool", "_Atomic", "static",
    "inline", "const", "volatile", "NULL", "sizeof", "extern",
}

_PUNCTS = [
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "{",
    "}", "(", ")", "[", "]", ";", ",", ".", "+", "-", "*", "/", "%", "<",
    ">", "=", "&", "|", "^", "!", "~", "?", ":",
]

#: One scan per token.  Alternatives are tried in order, so this is the
#: lexer's priority: whitespace and newlines, ``//`` comments, ``/*``,
#: ``#`` lines, ``[[``, identifiers, numbers, strings, punctuators (the
#: longest first, as listed in ``_PUNCTS``).
_TOKEN_RE = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<block>/\*)",
    # Preprocessor lines (includes/defines) are ignored; the case
    # studies are self-contained.
    r"(?P<directive>#[^\n]*)",
    r"(?P<attr>\[\[)",
    r"(?P<ident>[A-Za-z_][A-Za-z_0-9]*)",
    r"(?P<number>0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*)",
    r'"(?P<string>(?:[^"\\]|\\.)*)"',
    "(?P<punct>" + "|".join(map(re.escape, _PUNCTS)) + ")",
]))

#: token kinds whose text is kept
_KEPT = frozenset(("ident", "number", "string", "punct"))


def tokenize(source: str) -> list[Token]:
    """Tokenise a C source file."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    n = len(source)
    while pos < n:
        m = match(source, pos)
        if m is None:
            raise LexError(f"line {line}: cannot lex {source[pos:pos+12]!r}")
        kind = m.lastgroup
        if kind in _KEPT:
            append(Token(kind, m.group(kind), line))
            pos = m.end()
        elif kind == "space":
            line += m.group().count("\n")
            pos = m.end()
        elif kind == "block":
            end = source.find("*/", pos)
            if end < 0:
                raise LexError(f"line {line}: unterminated block comment")
            line += source.count("\n", pos, end)
            pos = end + 2
        elif kind == "attr":
            tok, pos, line = _lex_attribute(source, pos, line)
            append(tok)
        else:                       # a // comment or a # line
            pos = m.end()
    append(Token("eof", "", line))
    return tokens


def _lex_attribute(source: str, pos: int, line: int) -> tuple[Token, int, int]:
    """Lex a ``[[rc::name("arg1", "arg2")]]`` attribute block."""
    start_line = line
    end = source.find("]]", pos)
    if end < 0:
        raise LexError(f"line {line}: unterminated attribute")
    body = source[pos + 2:end]
    line += source.count("\n", pos, end)
    m = re.match(r"\s*rc::([A-Za-z_][A-Za-z_0-9]*)\s*", body)
    if m is None:
        raise LexError(f"line {start_line}: expected rc:: attribute, got "
                       f"{body[:30]!r}")
    name = m.group(1)
    rest = body[m.end():].strip()
    args: list[str] = []
    if rest:
        if not (rest.startswith("(") and rest.endswith(")")):
            raise LexError(f"line {start_line}: malformed attribute args")
        inner = rest[1:-1]
        for sm in re.finditer(r'"((?:[^"\\]|\\.)*)"', inner):
            args.append(sm.group(1).replace('\\"', '"'))
        # Adjacent string literals concatenate (used for long annotations,
        # as in Figure 3 of the paper) unless separated by a comma.
        args = _merge_adjacent(inner, args)
    return (Token("attr", body, start_line, attr_name=name,
                  attr_args=tuple(args)), end + 2, line)


def _merge_adjacent(inner: str, args: list[str]) -> list[str]:
    """Apply C string-literal concatenation: consecutive literals without a
    comma between them merge into one argument."""
    out: list[str] = []
    pieces = re.findall(r'"(?:[^"\\]|\\.)*"|,', inner)
    cur: Optional[str] = None
    for p in pieces:
        if p == ",":
            if cur is not None:
                out.append(cur)
            cur = None
        else:
            lit = p[1:-1].replace('\\"', '"')
            cur = lit if cur is None else cur + lit
    if cur is not None:
        out.append(cur)
    return out
