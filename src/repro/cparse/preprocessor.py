"""A lightweight C preprocessor.

Supports the directive subset that kernel concurrency code needs:

* ``#define NAME value`` — object-like macros,
* ``#define NAME(args) body`` — function-like macros,
* ``#undef NAME``,
* ``#include "file"`` / ``#include <file>`` resolved against a caller-supplied
  include resolver (the synthetic corpus provides its headers this way),
* ``#if`` / ``#ifdef`` / ``#ifndef`` / ``#elif`` / ``#else`` / ``#endif`` with
  a constant-expression evaluator understanding ``defined(X)``, integers,
  ``!``, ``&&``, ``||``, comparisons and parentheses.

The preprocessor operates on the token stream produced by
:mod:`repro.cparse.lexer` and returns a flat token stream ready for the
parser.  Macro expansion is recursive with self-reference protection, as in
real C preprocessors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cparse.lexer import Token, TokenKind, tokenize


class PreprocessorError(Exception):
    """Raised on malformed directives or unresolvable includes."""


@dataclass
class Macro:
    """A macro definition (object-like when ``params`` is None)."""

    name: str
    body: Sequence[Token]
    params: list[str] | None = None
    variadic: bool = False

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


IncludeResolver = Callable[[str, bool], "str | None"]


@functools.lru_cache(maxsize=512)
def _shared_tokens(text: str, filename: str) -> tuple[Token, ...]:
    """``tokenize(text, filename)`` memoized as an immutable tuple.

    For headers and ``#define``/CONFIG values, which every includer of a
    tree lexes again.  The main file is never memoized: it is lexed once,
    and keeping every file's tokens alive costs more in GC than it saves.
    A paper-scale corpus tree needs 14 entries (13 headers, one CONFIG
    value); the bound leaves room for real trees' headers and defines
    while capping the memo at about 12 MB of corpus-sized headers.
    """
    return tuple(tokenize(text, filename))


def _is_macro_name(tok: Token, macros: dict[str, Macro]) -> bool:
    """True when ``tok`` names a defined macro.

    Preprocessing happens before keyword classification in C, so a macro
    may shadow a keyword (``#define if ...``); the lexer has already
    tagged such tokens ``KEYWORD``, so both kinds must be checked.
    """
    return (
        tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD)
        and tok.value in macros
    )


@dataclass
class Preprocessor:
    """Expands a token stream.

    Parameters
    ----------
    defines:
        Initial macro table, e.g. ``CONFIG_*`` options from the kernel
        config model.  Values are raw replacement strings.
    include_resolver:
        ``resolver(name, is_system) -> source text or None``.  ``None``
        means "header unavailable"; the include is then skipped, matching
        how static analyses tolerate missing kernel headers.
    """

    defines: dict[str, str] = field(default_factory=dict)
    include_resolver: IncludeResolver | None = None
    max_include_depth: int = 32

    def __post_init__(self) -> None:
        self._macros: dict[str, Macro] = {}
        for name, value in self.defines.items():
            self._macros[name] = Macro(
                name, _shared_tokens(value, "<source>")[:-1]
            )
        self._included: set[str] = set()

    # -- public API --------------------------------------------------------

    def preprocess(self, text: str, filename: str = "<source>") -> list[Token]:
        """Preprocess ``text`` and return the expanded token stream + EOF."""
        tokens = tokenize(text, filename)
        out = self._process(tokens[:-1], depth=0)
        out.append(tokens[-1])  # keep the original EOF for location info
        return out

    def is_defined(self, name: str) -> bool:
        return name in self._macros

    # -- directive handling ------------------------------------------------

    def _process(self, tokens: Sequence[Token], depth: int) -> list[Token]:
        if depth > self.max_include_depth:
            raise PreprocessorError("maximum include depth exceeded")
        out: list[Token] = []
        # Conditional-inclusion stack: each entry is (taking, taken_before).
        cond_stack: list[list[bool]] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok.kind is TokenKind.DIRECTIVE:
                i += 1
                self._handle_directive(tok, cond_stack, out, depth)
                continue
            if cond_stack and not all(entry[0] for entry in cond_stack):
                i += 1
                continue
            if _is_macro_name(tok, self._macros):
                expanded, consumed = self._expand_macro(tokens, i, set())
                out.extend(expanded)
                i += consumed
                continue
            out.append(tok)
            i += 1
        if cond_stack:
            raise PreprocessorError("unterminated #if block")
        return out

    def _handle_directive(
        self,
        tok: Token,
        cond_stack: list[list[bool]],
        out: list[Token],
        depth: int,
    ) -> None:
        text = tok.value.lstrip("#").strip()
        if not text:
            return
        parts = text.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        active = not cond_stack or all(entry[0] for entry in cond_stack)

        if name == "ifdef":
            taking = active and self.is_defined(rest.strip())
            cond_stack.append([taking, taking])
        elif name == "ifndef":
            taking = active and not self.is_defined(rest.strip())
            cond_stack.append([taking, taking])
        elif name == "if":
            taking = active and bool(self._eval_condition(rest, tok))
            cond_stack.append([taking, taking])
        elif name == "elif":
            if not cond_stack:
                raise PreprocessorError(f"{tok.location}: #elif without #if")
            entry = cond_stack[-1]
            parent_active = len(cond_stack) == 1 or all(
                e[0] for e in cond_stack[:-1]
            )
            taking = (
                parent_active
                and not entry[1]
                and bool(self._eval_condition(rest, tok))
            )
            entry[0] = taking
            entry[1] = entry[1] or taking
        elif name == "else":
            if not cond_stack:
                raise PreprocessorError(f"{tok.location}: #else without #if")
            entry = cond_stack[-1]
            parent_active = len(cond_stack) == 1 or all(
                e[0] for e in cond_stack[:-1]
            )
            entry[0] = parent_active and not entry[1]
            entry[1] = True
        elif name == "endif":
            if not cond_stack:
                raise PreprocessorError(f"{tok.location}: #endif without #if")
            cond_stack.pop()
        elif not active:
            return
        elif name == "define":
            self._define(rest, tok)
        elif name == "undef":
            self._macros.pop(rest.strip(), None)
        elif name == "include":
            self._include(rest, tok, out, depth)
        elif name in ("pragma", "error", "warning", "line"):
            pass  # tolerated and ignored
        else:
            raise PreprocessorError(f"{tok.location}: unknown directive #{name}")

    def _define(self, rest: str, tok: Token) -> None:
        rest = rest.strip()
        if not rest:
            raise PreprocessorError(f"{tok.location}: empty #define")
        # Function-like only when '(' immediately follows the name.
        name_end = 0
        while name_end < len(rest) and (
            rest[name_end].isalnum() or rest[name_end] == "_"
        ):
            name_end += 1
        name = rest[:name_end]
        if not name:
            raise PreprocessorError(f"{tok.location}: malformed #define")
        if name_end < len(rest) and rest[name_end] == "(":
            close = rest.index(")", name_end)
            param_text = rest[name_end + 1:close].strip()
            variadic = False
            params: list[str] = []
            if param_text:
                for p in param_text.split(","):
                    p = p.strip()
                    if p == "...":
                        variadic = True
                    else:
                        params.append(p)
            body = rest[close + 1:].strip()
            self._macros[name] = Macro(
                name, _shared_tokens(body, tok.filename)[:-1], params,
                variadic,
            )
        else:
            body = rest[name_end:].strip()
            self._macros[name] = Macro(
                name, _shared_tokens(body, tok.filename)[:-1]
            )

    def _include(
        self, rest: str, tok: Token, out: list[Token], depth: int
    ) -> None:
        rest = rest.strip()
        if rest.startswith('"') and rest.endswith('"'):
            name, is_system = rest[1:-1], False
        elif rest.startswith("<") and rest.endswith(">"):
            name, is_system = rest[1:-1], True
        else:
            raise PreprocessorError(f"{tok.location}: malformed #include {rest!r}")
        if self.include_resolver is None:
            return
        if name in self._included:
            return  # simple multiple-inclusion guard
        source = self.include_resolver(name, is_system)
        if source is None:
            return
        self._included.add(name)
        sub = _shared_tokens(source, name)
        out.extend(self._process(sub[:-1], depth + 1))

    # -- #if condition evaluation -------------------------------------------

    def _eval_condition(self, text: str, tok: Token) -> int:
        """Evaluate a ``#if`` constant expression.

        ``defined(X)`` / ``defined X`` are resolved first, then macros are
        expanded, remaining identifiers become 0, and the result is
        evaluated with a small recursive-descent evaluator.
        """
        tokens = tokenize(text, tok.filename)[:-1]
        resolved: list[Token] = []
        i = 0
        while i < len(tokens):
            t = tokens[i]
            if t.is_ident("defined"):
                if i + 1 < len(tokens) and tokens[i + 1].is_punct("("):
                    if i + 3 >= len(tokens) or not tokens[i + 3].is_punct(")"):
                        raise PreprocessorError(
                            f"{tok.location}: malformed defined()"
                        )
                    name = tokens[i + 2].value
                    i += 4
                else:
                    name = tokens[i + 1].value
                    i += 2
                value = "1" if self.is_defined(name) else "0"
                resolved.append(
                    Token(TokenKind.NUMBER, value, t.filename, t.line, t.column)
                )
                continue
            resolved.append(t)
            i += 1
        expanded = self._rescan(resolved, set(), tok)
        final = [
            Token(TokenKind.NUMBER, "0", t.filename, t.line, t.column)
            if t.kind is TokenKind.IDENT
            else t
            for t in expanded
        ]
        return _ConditionEvaluator(final, tok).evaluate()

    # -- macro expansion ----------------------------------------------------

    def _expand_macro(
        self, tokens: Sequence[Token], index: int, hide: set[str]
    ) -> tuple[list[Token], int]:
        """Expand the macro at ``tokens[index]``.

        Returns the expansion and the number of input tokens consumed.
        """
        tok = tokens[index]
        macro = self._macros[tok.value]
        if macro.name in hide:
            return [tok], 1
        if not macro.is_function_like:
            return self._rescan(macro.body, hide | {macro.name}, tok), 1
        # Function-like: require '(' as the next token, else leave alone.
        if index + 1 >= len(tokens) or not tokens[index + 1].is_punct("("):
            return [tok], 1
        args, consumed = self._collect_args(tokens, index + 1, tok)
        # Arguments are macro-expanded before substitution (as in real C
        # preprocessors) — the macro's own hide-set does not apply to them.
        args = [self._rescan(arg, hide, tok) for arg in args]
        params = macro.params or []
        if macro.variadic:
            fixed, rest = args[: len(params)], args[len(params):]
            va_args: list[Token] = []
            for j, arg in enumerate(rest):
                if j:
                    va_args.append(
                        Token(TokenKind.PUNCT, ",", tok.filename, tok.line, tok.column)
                    )
                va_args.extend(arg)
            binding = dict(zip(params, fixed))
            binding["__VA_ARGS__"] = va_args
        else:
            if len(args) == 1 and not args[0] and not params:
                args = []
            if len(args) != len(params):
                raise PreprocessorError(
                    f"{tok.location}: macro {macro.name} expects "
                    f"{len(params)} args, got {len(args)}"
                )
            binding = dict(zip(params, args))
        substituted: list[Token] = []
        for body_tok in macro.body:
            if body_tok.kind is TokenKind.IDENT and body_tok.value in binding:
                substituted.extend(binding[body_tok.value])
            else:
                substituted.append(body_tok)
        return (
            self._rescan(substituted, hide | {macro.name}, tok),
            1 + consumed,
        )

    def _collect_args(
        self, tokens: Sequence[Token], open_index: int, tok: Token
    ) -> tuple[list[list[Token]], int]:
        """Collect macro call arguments; ``open_index`` is at '('."""
        args: list[list[Token]] = []
        current: list[Token] = []
        nesting = 0
        i = open_index
        while i < len(tokens):
            t = tokens[i]
            if t.is_punct("("):
                nesting += 1
                if nesting > 1:
                    current.append(t)
            elif t.is_punct(")"):
                nesting -= 1
                if nesting == 0:
                    args.append(current)
                    return args, i - open_index + 1
                current.append(t)
            elif t.is_punct(",") and nesting == 1:
                args.append(current)
                current = []
            elif t.kind is TokenKind.EOF:
                break
            else:
                current.append(t)
            i += 1
        raise PreprocessorError(f"{tok.location}: unterminated macro call")

    def _rescan(
        self, tokens: Sequence[Token], hide: set[str], origin: Token
    ) -> list[Token]:
        """Re-scan a replacement list for further macro expansion."""
        out: list[Token] = []
        i = 0
        while i < len(tokens):
            t = tokens[i]
            if _is_macro_name(t, self._macros):
                expanded, consumed = self._expand_macro(tokens, i, hide)
                out.extend(expanded)
                i += consumed
            else:
                out.append(t)
                i += 1
        return out


class _ConditionEvaluator:
    """Recursive-descent evaluator for ``#if`` constant expressions."""

    def __init__(self, tokens: list[Token], origin: Token):
        self._tokens = tokens
        self._origin = origin
        self._pos = 0

    def evaluate(self) -> int:
        if not self._tokens:
            raise PreprocessorError(f"{self._origin.location}: empty #if")
        value = self._ternary()
        if self._pos != len(self._tokens):
            raise PreprocessorError(
                f"{self._origin.location}: trailing tokens in #if expression"
            )
        return value

    def _peek(self) -> Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _accept(self, *values: str) -> str | None:
        tok = self._peek()
        if tok is not None and tok.kind is TokenKind.PUNCT and tok.value in values:
            self._pos += 1
            return tok.value
        return None

    def _ternary(self) -> int:
        cond = self._logical_or()
        if self._accept("?"):
            then = self._ternary()
            if not self._accept(":"):
                raise PreprocessorError(
                    f"{self._origin.location}: expected ':' in #if ternary"
                )
            other = self._ternary()
            return then if cond else other
        return cond

    def _logical_or(self) -> int:
        value = self._logical_and()
        while self._accept("||"):
            rhs = self._logical_and()
            value = 1 if (value or rhs) else 0
        return value

    def _logical_and(self) -> int:
        value = self._equality()
        while self._accept("&&"):
            rhs = self._equality()
            value = 1 if (value and rhs) else 0
        return value

    def _equality(self) -> int:
        value = self._relational()
        while True:
            op = self._accept("==", "!=")
            if op is None:
                return value
            rhs = self._relational()
            value = int(value == rhs) if op == "==" else int(value != rhs)

    def _relational(self) -> int:
        value = self._additive()
        while True:
            op = self._accept("<=", ">=", "<", ">")
            if op is None:
                return value
            rhs = self._additive()
            value = int(
                {"<": value < rhs, ">": value > rhs,
                 "<=": value <= rhs, ">=": value >= rhs}[op]
            )

    def _additive(self) -> int:
        value = self._multiplicative()
        while True:
            op = self._accept("+", "-")
            if op is None:
                return value
            rhs = self._multiplicative()
            value = value + rhs if op == "+" else value - rhs

    def _multiplicative(self) -> int:
        value = self._unary()
        while True:
            op = self._accept("*", "/", "%")
            if op is None:
                return value
            rhs = self._unary()
            if op == "*":
                value = value * rhs
            elif rhs == 0:
                raise PreprocessorError(
                    f"{self._origin.location}: division by zero in #if"
                )
            elif op == "/":
                value = value // rhs
            else:
                value = value % rhs

    def _unary(self) -> int:
        if self._accept("!"):
            return 0 if self._unary() else 1
        if self._accept("-"):
            return -self._unary()
        if self._accept("+"):
            return self._unary()
        if self._accept("~"):
            return ~self._unary()
        return self._primary()

    def _primary(self) -> int:
        tok = self._peek()
        if tok is None:
            raise PreprocessorError(
                f"{self._origin.location}: unexpected end of #if expression"
            )
        if tok.kind is TokenKind.NUMBER:
            self._pos += 1
            return _parse_int(tok.value)
        if tok.kind is TokenKind.CHAR:
            self._pos += 1
            body = tok.value[1:-1]
            return ord(body[-1]) if body else 0
        if self._accept("("):
            value = self._ternary()
            if not self._accept(")"):
                raise PreprocessorError(
                    f"{self._origin.location}: missing ')' in #if expression"
                )
            return value
        raise PreprocessorError(
            f"{self._origin.location}: unexpected token {tok.value!r} in #if"
        )


def _parse_int(text: str) -> int:
    """Parse a C integer literal, ignoring suffixes."""
    text = text.rstrip("uUlL")
    try:
        return int(text, 0)
    except ValueError:
        return 0
