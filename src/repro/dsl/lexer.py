"""Tokenizer for the event specification language.

The DSL gives scenario authors a compact text form of Eq. 4.5's
composite conditions (see :mod:`repro.dsl.parser` for the grammar).
The lexer produces a flat token stream with line/column positions so
syntax errors point at the offending source location.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.errors import DslSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    """Lexical categories of the DSL."""

    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    OP = "op"            # relational: < <= > >= == !=
    SYMBOL = "symbol"    # ( ) , . : | * = + -
    EOF = "eof"


KEYWORDS = {
    # structure
    "EVENT", "WHEN", "IF", "WINDOW", "COOLDOWN", "EMIT", "ATTR", "GROUP",
    "IN", "RHO",
    # logical
    "AND", "OR", "NOT",
    # temporal operators
    "BEFORE", "AFTER", "DURING", "CONTAINS", "MEETS", "MET_BY", "OVERLAPS",
    "OVERLAPPED_BY", "STARTS", "STARTED_BY", "FINISHES", "FINISHED_BY",
    "EQUALS", "SIMULTANEOUS", "WITHIN", "INTERSECTS", "BEGINS", "ENDS",
    # spatial operators
    "INSIDE", "OUTSIDE", "JOINT", "DISJOINT", "EQUAL_TO",
}
"""Reserved words (case-insensitive in source, canonically upper)."""


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:
        return f"{self.type.value}({self.value!r})@{self.line}:{self.column}"


_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = ("<", ">")
_SYMBOLS = set("(),.:|*=+-")
_DIGITS = frozenset("0123456789")
"""``str.isdigit`` also admits ``²`` or ``①``, which ``float()`` refuses."""


def tokenize(source: str) -> list[Token]:
    """Turn DSL source text into tokens (comments start with ``#``).

    Raises:
        DslSyntaxError: On any character that starts no valid token.
    """
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = column
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenType.OP, two, line, start_col))
            i += 2
            column += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenType.OP, ch, line, start_col))
            i += 1
            column += 1
            continue
        if ch in _DIGITS or (
            ch == "-" and i + 1 < n and source[i + 1] in _DIGITS and _numeric_context(tokens)
        ):
            j = i + 1
            while j < n and (source[j] in _DIGITS or source[j] == "."):
                j += 1
            # Exponent form, so that every finite repr(float) is one
            # token: 1e-05, 1.5e+16.  A bare "1e" stays NUMBER + IDENT.
            if j < n and source[j] in "eE":
                k = j + 2 if source[j + 1 : j + 2] in ("+", "-") else j + 1
                if k < n and source[k] in _DIGITS:
                    j = k + 1
                    while j < n and source[j] in _DIGITS:
                        j += 1
            text = source[i:j]
            if text.count(".") > 1:
                raise DslSyntaxError(f"malformed number {text!r}", line, start_col)
            if math.isinf(float(text)):
                raise DslSyntaxError(
                    f"number {text!r} is out of range", line, start_col
                )
            tokens.append(Token(TokenType.NUMBER, text, line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, line, start_col))
            else:
                tokens.append(Token(TokenType.IDENT, text, line, start_col))
            column += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(TokenType.SYMBOL, ch, line, start_col))
            i += 1
            column += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens


def _numeric_context(tokens: list[Token]) -> bool:
    """Whether a ``-`` starts a negative literal (vs. an offset operator).

    A minus directly after ``(`` ``,`` an operator or a keyword opens a
    number; after an ident/number/``)`` it is the arithmetic symbol.
    """
    if not tokens:
        return True
    previous = tokens[-1]
    if previous.type in (TokenType.OP, TokenType.KEYWORD):
        return True
    return previous.type is TokenType.SYMBOL and previous.value in "(,:=|"
