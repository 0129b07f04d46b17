"""Tokenizer for kernel-style C source.

The lexer understands the lexical grammar of C plus a few kernel-isms
(``//`` comments, GNU attribute tokens are lexed as identifiers and
punctuation).  Preprocessor directives are emitted as dedicated
``DIRECTIVE`` tokens holding the raw directive line so that the
preprocessor can interpret them; everything else is ordinary C tokens.

:func:`tokenize` is one compiled master regex matched in a
``match(text, pos)`` loop: each match is the whitespace/comment gap plus
one token, and line/column come from newline counting between tokens.
Non-ASCII input leaves the fast path for the few branches where the
``str.isalpha``/``str.isdigit`` rules differ from the regex classes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class LexError(Exception):
    """Raised when the input cannot be tokenized."""

    def __init__(self, message: str, filename: str, line: int, column: int):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.filename = filename
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    DIRECTIVE = "directive"
    EOF = "eof"


#: C keywords recognised by the parser.  GNU/kernel extensions that behave
#: like keywords are included so declarations parse naturally.
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
        # GNU / kernel extensions treated as keywords:
        "__inline", "__inline__", "__always_inline", "__attribute__",
        "__volatile__", "__restrict", "_Bool", "__typeof__", "typeof",
    }
)

#: Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = sorted(
    [
        "<<=", ">>=", "...",
        "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
        "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
        "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
    ],
    key=len,
    reverse=True,
)


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source location."""

    kind: TokenKind
    value: str
    filename: str
    line: int
    column: int

    def is_punct(self, value: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == value

    def is_keyword(self, value: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == value

    def is_ident(self, value: str | None = None) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return value is None or self.value == value

    @property
    def location(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


_new_object = object.__new__


def _token(kind: TokenKind, value: str, filename: str, line: int,
           column: int) -> Token:
    """A :class:`Token` built by filling its ``__dict__`` in field order:
    equal, hashing and pickling like ``Token(...)`` at a third of the
    cost of the frozen dataclass's ``__init__``."""
    tok = _new_object(Token)
    attrs = tok.__dict__
    attrs["kind"] = kind
    attrs["value"] = value
    attrs["filename"] = filename
    attrs["line"] = line
    attrs["column"] = column
    return tok


#: The skipped gap between tokens: whitespace, ``\\\n`` and comments.
_GAP = r"(?:[ \t\r\n]+|\\\n|//[^\n]*|/\*(?s:.*?)\*/)*"
#: The gap's pieces, with each real newline (not ``\\\n``, not one inside
#: a comment) a piece of its own.
_GAP_PIECES = re.compile(r"[ \t\r]+|\n|\\\n|//[^\n]*|/\*(?s:.*?)\*/")

_BLOCK_COMMENT_TO_EOF = r"/\*(?s:.*?)(?:\*/|\Z)"
_SINGLE_PUNCT = "".join(re.escape(p) for p in _PUNCTUATORS if len(p) == 1)

#: The gap, then one token.  ``SLOW`` takes what the ASCII fast groups
#: cannot decide: ``#``, an unterminated ``/*`` (the gap eats terminated
#: ones), non-ASCII text, unterminated literals and stray characters.
_MASTER = re.compile(
    f"{_GAP}(?:"
    r"(?P<IDENT>[A-Za-z_]\w*)"
    r"|(?P<NUMBER>0[xX][0-9a-fA-F]*[uUlLfF]*"
    r"|\.?[0-9][0-9.]*(?:[eE][+-]?[0-9]+)?[uUlLfF]*)"
    r'|(?P<STRING>"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*")'
    r"|(?P<CHAR>'[^'\\\n]*(?:\\[^\n][^'\\\n]*)*')"
    rf"|(?P<SLOW>/\*|\.(?=[^\x00-\x7f])|[^{_SINGLE_PUNCT}])"
    r"|(?P<PUNCT>"
    + "|".join(re.escape(p) for p in _PUNCTUATORS if len(p) > 1)
    + f"|[{_SINGLE_PUNCT}])"
    r"|(?P<EOF>\Z))"
)
_FAST_KINDS = {name: TokenKind[name]
               for name in ("IDENT", "NUMBER", "STRING", "CHAR", "PUNCT")}

#: A directive runs to the next real newline or ``//``; ``\\\n`` and
#: ``/* */`` (which may span lines, or run to EOF unterminated) are part
#: of it and read as one space each.
_DIRECTIVE = re.compile(
    r"(?:[^\n\\/]+|\\\n|\\(?!\n)|" + _BLOCK_COMMENT_TO_EOF + r"|/(?![/*]))*"
)
_DIRECTIVE_SPACES = re.compile(r"\\\n|" + _BLOCK_COMMENT_TO_EOF)

_WORD = re.compile(r"\w+")
_LITERAL_BODY = {
    '"': re.compile(r'[^"\\\n]*(?:\\[^\n][^"\\\n]*)*'),
    "'": re.compile(r"[^'\\\n]*(?:\\[^\n][^'\\\n]*)*"),
}
_LITERAL_NAME = {'"': "string literal", "'": "character literal"}


def _error(text: str, filename: str, pos: int, message: str) -> LexError:
    line = text.count("\n", 0, pos) + 1
    return LexError(message, filename, line, pos - text.rfind("\n", 0, pos))


def _number_end(text: str, pos: int) -> int:
    """End of the number at ``pos`` by ``str.isdigit`` rules (Unicode
    digits such as ``²`` count), for numbers next to non-ASCII text."""
    n = len(text)
    if text.startswith(("0x", "0X"), pos):
        pos += 2
        while pos < n and text[pos] in "0123456789abcdefABCDEF":
            pos += 1
    else:
        while pos < n and (text[pos].isdigit() or text[pos] == "."):
            pos += 1
        e, sign, digit = text[pos:pos + 1], text[pos + 1:pos + 2], \
            text[pos + 2:pos + 3]
        if e and e in "eE" and (
            sign.isdigit() or (sign in "+-" and digit.isdigit())
        ):
            pos += 2
            while pos < n and text[pos].isdigit():
                pos += 1
    while pos < n and text[pos] in "uUlLfF":
        pos += 1
    return pos


def _slow_token(text: str, filename: str, gap_start: int,
                start: int) -> tuple[TokenKind, int]:
    """Kind and end of a ``SLOW`` token at ``start``, or its LexError."""
    ch = text[start]
    if ch == "#":
        # A directive needs a line start: the gap begins a line or holds
        # a real newline (not ``\\\n``, not one inside ``/* */``).
        if gap_start == 0 or text[gap_start - 1] == "\n" or any(
            part.group() == "\n"
            for part in _GAP_PIECES.finditer(text, gap_start, start)
        ):
            return TokenKind.DIRECTIVE, _DIRECTIVE.match(text, start).end()
    elif text.startswith("/*", start):
        raise _error(text, filename, len(text), "unterminated block comment")
    elif ch in _LITERAL_BODY:
        stop = _LITERAL_BODY[ch].match(text, start + 1).end()
        if text.startswith("\\", stop):
            stop += 1  # the escaped newline, or EOF
        raise _error(text, filename, stop, f"unterminated {_LITERAL_NAME[ch]}")
    elif ch == "." and not text[start + 1].isdigit():
        return TokenKind.PUNCT, start + 1
    elif ch.isalpha():
        return TokenKind.IDENT, _WORD.match(text, start).end()
    elif ch == "." or ch.isdigit():
        return TokenKind.NUMBER, _number_end(text, start)
    raise _error(text, filename, start, f"unexpected character {ch!r}")


def tokenize(text: str, filename: str = "<source>") -> list[Token]:
    """Tokenize ``text``, returning its tokens plus a final EOF."""
    out: list[Token] = []
    append = out.append
    match = _MASTER.match
    count = text.count
    fast_kinds = _FAST_KINDS
    IDENT, DIRECTIVE = TokenKind.IDENT, TokenKind.DIRECTIVE
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    counted = 0  # the newlines before this offset are in ``line``
    while True:
        m = match(text, pos)
        group = m.lastgroup
        start, end = m.span(group)
        newlines = count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        kind = fast_kinds.get(group)
        if kind is None:
            if group == "EOF":
                append(_token(TokenKind.EOF, "", filename, line, column))
                return out
            kind, end = _slow_token(text, filename, pos, start)
        elif group == "NUMBER" and not text[end:end + 3].isascii():
            end = _number_end(text, start)  # Unicode digits may follow
        value = text[start:end]
        if kind is IDENT:
            if value in KEYWORDS:
                kind = TokenKind.KEYWORD
        elif kind is DIRECTIVE:
            value = _DIRECTIVE_SPACES.sub(" ", value).strip()
        append(_token(kind, value, filename, line, column))
        pos = end
