"""Tokenizer for the Feisu SQL dialect."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.errors import ParseError

KEYWORDS = frozenset(
    {
        "SELECT", "AS", "FROM", "WHERE", "AND", "OR", "NOT",
        "GROUP", "BY", "HAVING", "ORDER", "ASC", "DESC", "LIMIT",
        "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "CROSS", "ON",
        "CONTAINS", "WITHIN", "TRUE", "FALSE",
    }
)


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text == word

    def __str__(self) -> str:  # pragma: no cover - error messages
        return "end of input" if self.type is TokenType.EOF else repr(self.text)


_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = {",", "(", ")", ";", "."}


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text[i : i + 2] == "--":  # line comment
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if ch == "'":
            tok, i = _read_string(text, i)
            tokens.append(tok)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            tok, i = _read_number(text, i)
            tokens.append(tok)
            continue
        if ch.isalpha() or ch == "_":
            tok, i = _read_word(text, i)
            tokens.append(tok)
            continue
        matched = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if matched is not None:
            tokens.append(Token(TokenType.OPERATOR, "!=" if matched == "<>" else matched, i))
            i += len(matched)
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i, text=text)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_string(text: str, start: int):
    """Read a single-quoted string with '' escaping; returns (token, end)."""
    i = start + 1
    parts: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "'":
            if text[i : i + 2] == "''":  # escaped quote
                parts.append("'")
                i += 2
                continue
            return Token(TokenType.STRING, "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise ParseError("unterminated string literal", position=start, text=text)


def _read_number(text: str, start: int):
    i = start
    seen_dot = False
    seen_exp = False
    while i < len(text):
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < len(text) and text[i] in "+-":
                i += 1
        else:
            break
    return Token(TokenType.NUMBER, text[start:i], start), i


def _read_word(text: str, start: int):
    i = start
    while i < len(text) and (text[i].isalnum() or text[i] == "_"):
        i += 1
    word = text[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token(TokenType.KEYWORD, upper, start), i
    return Token(TokenType.IDENTIFIER, word, start), i
