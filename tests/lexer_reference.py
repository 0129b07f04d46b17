"""The char-at-a-time C lexer, kept as the differential oracle for
:func:`repro.cparse.lexer.tokenize`.

This is the lexer the master-regex tokenizer replaced, unchanged except
that it shares ``Token``/``TokenKind``/``LexError``/``KEYWORDS`` with the
production module (so tokens compare equal).  It is test-only.
"""

from __future__ import annotations

from repro.cparse.lexer import KEYWORDS, LexError, Token, TokenKind

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


class Lexer:
    """Streaming tokenizer over a single translation unit's text."""

    def __init__(self, text: str, filename: str = "<source>"):
        self._text = text
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, returning tokens plus a final EOF."""
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    # -- internals ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self._pos + offset
        return self._text[idx] if idx < len(self._text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._text):
                return
            if self._text[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self._filename, self._line, self._col)

    def _make(self, kind: TokenKind, value: str, line: int, col: int) -> Token:
        return Token(kind, value, self._filename, line, col)

    def _skip_whitespace_and_comments(self) -> bool:
        """Skip spaces and comments; return True if at a line start after
        only whitespace (used to recognise preprocessor directives)."""
        at_line_start = self._col == 1
        while self._pos < len(self._text):
            ch = self._peek()
            if ch in " \t\r":
                self._advance()
            elif ch == "\n":
                self._advance()
                at_line_start = True
            elif ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
            elif ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated block comment")
            else:
                return at_line_start
        return at_line_start

    def _next_token(self) -> Token:
        at_line_start = self._skip_whitespace_and_comments()
        line, col = self._line, self._col
        if self._pos >= len(self._text):
            return self._make(TokenKind.EOF, "", line, col)

        ch = self._peek()

        if ch == "#" and at_line_start:
            return self._lex_directive(line, col)
        if ch.isalpha() or ch == "_":
            return self._lex_ident(line, col)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(line, col)
        if ch == '"':
            return self._lex_string(line, col)
        if ch == "'":
            return self._lex_char(line, col)
        for punct in _PUNCTUATORS:
            if self._text.startswith(punct, self._pos):
                self._advance(len(punct))
                return self._make(TokenKind.PUNCT, punct, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def _lex_directive(self, line: int, col: int) -> Token:
        """Consume a full preprocessor line (with continuations)."""
        chars: list[str] = []
        while self._pos < len(self._text):
            ch = self._peek()
            if ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
                chars.append(" ")
                continue
            if ch == "\n":
                break
            # Strip comments inside directives.
            if ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                chars.append(" ")
                continue
            if ch == "/" and self._peek(1) == "/":
                while self._pos < len(self._text) and self._peek() != "\n":
                    self._advance()
                break
            chars.append(ch)
            self._advance()
        return self._make(TokenKind.DIRECTIVE, "".join(chars).strip(), line, col)

    def _lex_ident(self, line: int, col: int) -> Token:
        start = self._pos
        while self._pos < len(self._text) and (
            self._peek().isalnum() or self._peek() == "_"
        ):
            self._advance()
        value = self._text[start:self._pos]
        kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
        return self._make(kind, value, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self._pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._pos < len(self._text) and (
                self._peek() in "0123456789abcdefABCDEF"
            ):
                self._advance()
        else:
            while self._pos < len(self._text) and (
                self._peek().isdigit() or self._peek() == "."
            ):
                self._advance()
            if self._peek() and self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                self._advance(2)
                while self._pos < len(self._text) and self._peek().isdigit():
                    self._advance()
        # Integer suffixes (u, l, ul, ull, ...).
        while self._pos < len(self._text) and self._peek() in "uUlLfF":
            self._advance()
        return self._make(TokenKind.NUMBER, self._text[start:self._pos], line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        start = self._pos
        self._advance()  # opening quote
        while self._pos < len(self._text) and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            if self._peek() == "\n":
                raise self._error("unterminated string literal")
            self._advance()
        if self._pos >= len(self._text):
            raise self._error("unterminated string literal")
        self._advance()  # closing quote
        return self._make(TokenKind.STRING, self._text[start:self._pos], line, col)

    def _lex_char(self, line: int, col: int) -> Token:
        start = self._pos
        self._advance()  # opening quote
        while self._pos < len(self._text) and self._peek() != "'":
            if self._peek() == "\\":
                self._advance()
            if self._peek() == "\n":
                raise self._error("unterminated character literal")
            self._advance()
        if self._pos >= len(self._text):
            raise self._error("unterminated character literal")
        self._advance()  # closing quote
        return self._make(TokenKind.CHAR, self._text[start:self._pos], line, col)


def reference_tokenize(text: str, filename: str = "<source>") -> list[Token]:
    """Tokenize ``text`` with the reference lexer."""
    return Lexer(text, filename).tokens()
