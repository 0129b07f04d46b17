"""Unit tests for the C lexer."""

import os
import random

import pytest

from repro.corpus import CorpusSpec, generate_corpus
from repro.cparse.lexer import LexError, Token, TokenKind, tokenize
from repro.fuzz.generate import generate_case
from tests.lexer_reference import reference_tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.value == "hello"

    def test_identifier_with_underscore_and_digits(self):
        assert values("__foo_42 _x") == ["__foo_42", "_x"]

    def test_keyword_classification(self):
        toks = tokenize("struct int while")[:-1]
        assert all(t.kind is TokenKind.KEYWORD for t in toks)

    def test_non_keyword_identifier(self):
        (tok,) = tokenize("structure")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_kernel_extension_keywords(self):
        toks = tokenize("__attribute__ typeof __always_inline")[:-1]
        assert all(t.kind is TokenKind.KEYWORD for t in toks)


class TestNumbers:
    def test_decimal(self):
        assert values("42") == ["42"]

    def test_hex(self):
        assert values("0xdeadBEEF") == ["0xdeadBEEF"]

    def test_octal_zero(self):
        assert values("0755") == ["0755"]

    def test_suffixes(self):
        assert values("1UL 2ull 3u 4L") == ["1UL", "2ull", "3u", "4L"]

    def test_float(self):
        assert values("3.14 1e9 2.5e-3") == ["3.14", "1e9", "2.5e-3"]

    def test_number_at_end_of_input_terminates(self):
        # Regression: the suffix scan used to loop forever on EOF.
        assert values("1") == ["1"]

    def test_hex_at_end_of_input(self):
        assert values("0xff") == ["0xff"]

    def test_number_kind(self):
        assert kinds("123") == [TokenKind.NUMBER]


class TestStringsAndChars:
    def test_string(self):
        assert values('"hello world"') == ['"hello world"']

    def test_string_with_escapes(self):
        assert values(r'"a\"b\\c"') == [r'"a\"b\\c"']

    def test_char(self):
        assert values("'x'") == ["'x'"]

    def test_char_escape(self):
        assert values(r"'\n'") == [r"'\n'"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_string_at_newline_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'x")


class TestPunctuators:
    def test_arrow_vs_minus(self):
        assert values("a->b - c") == ["a", "->", "b", "-", "c"]

    def test_shift_assign_maximal_munch(self):
        assert values("a <<= 2") == ["a", "<<=", "2"]

    def test_increment_vs_plus(self):
        assert values("a+++b") == ["a", "++", "+", "b"]

    def test_ellipsis(self):
        assert values("f(...)") == ["f", "(", "...", ")"]

    def test_all_compound_assignments(self):
        ops = ["+=", "-=", "*=", "/=", "%=", "&=", "^=", "|="]
        assert values(" ".join(ops)) == ops

    def test_logical_operators(self):
        assert values("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert values("a /* 1\n2\n3 */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_comment_does_not_nest(self):
        assert values("/* a /* b */ c") == ["c"]


class TestDirectives:
    def test_directive_token(self):
        toks = tokenize("#define FOO 1\nint a;")
        assert toks[0].kind is TokenKind.DIRECTIVE
        assert toks[0].value == "#define FOO 1"

    def test_directive_only_at_line_start(self):
        # '#' mid-line is not valid C anyway; we only recognize directives
        # at line starts, so a leading int token keeps the line literal.
        toks = tokenize("#include <a.h>")
        assert toks[0].kind is TokenKind.DIRECTIVE

    def test_directive_with_continuation(self):
        toks = tokenize("#define F(x) \\\n  (x + 1)\nint a;")
        assert toks[0].kind is TokenKind.DIRECTIVE
        assert "(x + 1)" in toks[0].value

    def test_directive_strips_block_comment(self):
        toks = tokenize("#define A /* hidden */ 3\n")
        assert "hidden" not in toks[0].value
        assert toks[0].value.endswith("3")

    def test_directive_strips_line_comment(self):
        toks = tokenize("#define A 3 // tail\n")
        assert toks[0].value.endswith("3")


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")[:-1]
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_filename_recorded(self):
        (tok,) = tokenize("x", filename="foo.c")[:-1]
        assert tok.filename == "foo.c"
        assert tok.location == "foo.c:1:1"

    def test_line_continuation_in_code(self):
        toks = tokenize("a\\\nb")[:-1]
        # Backslash-newline acts as whitespace between tokens.
        assert [t.value for t in toks] == ["a", "b"]

    def test_unexpected_character_raises_with_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("a @ b", filename="bad.c")
        assert "bad.c" in str(exc.value)


class TestTokenHelpers:
    def test_is_punct(self):
        tok = Token(TokenKind.PUNCT, ";", "f.c", 1, 1)
        assert tok.is_punct(";")
        assert not tok.is_punct(",")

    def test_is_keyword(self):
        tok = Token(TokenKind.KEYWORD, "if", "f.c", 1, 1)
        assert tok.is_keyword("if")
        assert not tok.is_keyword("while")

    def test_is_ident_with_and_without_value(self):
        tok = Token(TokenKind.IDENT, "foo", "f.c", 1, 1)
        assert tok.is_ident()
        assert tok.is_ident("foo")
        assert not tok.is_ident("bar")


class TestKernelSnippets:
    def test_listing1_reader(self):
        src = "if(!a->init) return; read_barrier(); f(a->y);"
        assert "->" in values(src)

    def test_barrier_call(self):
        assert values("smp_wmb();") == ["smp_wmb", "(", ")", ";"]

    def test_complex_kernel_line(self):
        src = "seqcount_t *s = &per_cpu(xt_recseq, cpu);"
        vals = values(src)
        assert vals[0] == "seqcount_t"
        assert "&" in vals


# ---------------------------------------------------------------------------
# Differential: the master-regex tokenizer against the char-at-a-time oracle
# ---------------------------------------------------------------------------

#: Characters whose handling differs between lexer branches: directive
#: and comment starts, continuations, quotes, characters that must raise,
#: Unicode letters/digits (``isalpha``/``isdigit`` rules) and number parts.
_MUTANT_ALPHABET = list("#/*\\\n\"'\t\r\f$@é²٣019xXeE+-.uUlL")

_REGRESSIONS = [
    "9E²", "9E٣", "1e+5", "1e+²", ".5f", ".²", "0x", "0", '"a\\\nb"',
    "a /*\n*/ #x", "x;\n /* c */ #define A 1\n",
    "#define A /* one\n two */ 3\nint a;", "#define A /* open",
    '#define A "//" 1\n', "a\\\n#x", "\\\n#x", "'a\\", "\\", "½",
    "é9 x.٣ a.é ..5",
]


def _outcome(lex, text):
    try:
        return lex(text, "diff.c")
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


def _assert_same(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text), \
        repr(text)


def _diff_seeds():
    return int(os.environ.get("LEXER_DIFF_SEEDS", "50"))


@pytest.fixture(scope="module")
def paper_texts():
    source = generate_corpus(CorpusSpec.paper()).source
    return list(source.files.values()) + list(source.headers.values())


class TestDifferential:
    def test_paper_corpus_files_and_headers(self, paper_texts):
        for text in paper_texts:
            _assert_same(text)

    def test_fuzz_cases(self):
        for seed in range(_diff_seeds()):
            case = generate_case(seed)
            for text in [*case.files.values(), *case.headers.values()]:
                _assert_same(text)

    def test_splice_mutants(self, paper_texts):
        rng = random.Random(15)
        for _ in range(40 * _diff_seeds()):
            base = rng.choice(paper_texts)
            at = rng.randrange(len(base) + 1)
            chars = list(base[max(0, at - rng.randint(0, 80)):
                              at + rng.randint(0, 80)])
            for _ in range(rng.randint(1, 6)):
                chars.insert(rng.randint(0, len(chars)),
                             rng.choice(_MUTANT_ALPHABET))
            _assert_same("".join(chars))

    @pytest.mark.parametrize("text", _REGRESSIONS)
    def test_regressions(self, text):
        _assert_same(text)
