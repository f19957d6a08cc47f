"""The located token stream behind every reader: one regex lexer and one
cursor over (text, line, column) tokens.

The SystemVerilog, IR and rule readers each pass their own token pattern and
error class; every error the cursor raises names the line and column of the
token it is about.
"""

from __future__ import annotations

import re


class ParseError(Exception):
    # message of a read past the last token; a reader's subclass may say
    # what it was reading
    eof = "unexpected end of input"

    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class Tokens:
    """A cursor over (text, line, column) tokens that raises `error`."""

    def __init__(self, items: list[tuple[str, int, int]], error=ParseError):
        self.items = items
        self.i = 0
        self.error = error

    def peek(self) -> str | None:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def loc(self) -> tuple[int, int]:
        """The current token's location; past the end, the last token's,
        and the start of the text when it holds none."""
        if self.i < len(self.items):
            return self.items[self.i][1], self.items[self.i][2]
        if self.items:
            return self.items[-1][1], self.items[-1][2]
        return 1, 1

    def fail(self, msg: str, loc: tuple | None = None):
        """Raise the reader's error at loc, by default the current token."""
        raise self.error(msg, *(loc or self.loc()))

    def next(self) -> str:
        if self.i >= len(self.items):
            self.fail(self.error.eof)
        t = self.items[self.i][0]
        self.i += 1
        return t

    def expect(self, tok: str) -> None:
        loc = self.loc()
        t = self.next()
        if t != tok:
            self.fail(f"expected {tok!r}, got {t!r}", loc)

    def int(self) -> int:
        loc = self.loc()
        t = self.next()
        try:
            return int(t)
        except ValueError:
            pass
        self.fail(f"expected an integer, got {t!r}", loc)


def lex(pattern: re.Pattern, text: str, error=ParseError) -> Tokens:
    """Tokens of text under pattern, whose `ws` group (blanks and comments)
    is dropped; a character no group matches raises `error`."""
    items = []
    pos = 0
    line = 1
    bol = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m:
            raise error(f"unexpected character {text[pos]!r}",
                        line, pos - bol + 1)
        if m.lastgroup != "ws":
            items.append((m.group(), line, pos - bol + 1))
        nl = m.group().count("\n")
        if nl:
            line += nl
            bol = pos + m.group().rindex("\n") + 1
        pos = m.end()
    return Tokens(items, error)
