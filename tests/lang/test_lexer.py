"""Lexer tests: C tokens and [[rc::...]] attribute blocks."""

import pytest

from repro.lang.lexer import LexError, Token, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


class TestBasicTokens:
    def test_identifiers_and_punct(self):
        toks = kinds("size_t x = a + b;")
        assert ("ident", "size_t") in toks
        assert ("punct", "+") in toks
        assert ("punct", ";") in toks

    def test_numbers(self):
        toks = tokenize("42 0x1F 7u 100UL")
        assert [t.text for t in toks[:-1]] == ["42", "0x1F", "7u", "100UL"]

    def test_multichar_puncts(self):
        toks = kinds("a->b <= c == d != e && f")
        texts = [t for _, t in toks]
        assert "->" in texts and "<=" in texts and "==" in texts
        assert "!=" in texts and "&&" in texts

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        lines = {t.text: t.line for t in toks if t.kind == "ident"}
        assert lines == {"a": 1, "b": 2, "c": 4}

    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_preprocessor_lines_skipped(self):
        assert kinds("#include <stddef.h>\nx") == [("ident", "x")]

    def test_unknown_char(self):
        with pytest.raises(LexError):
            tokenize("a ` b")


class TestAttributes:
    def test_simple_attribute(self):
        toks = tokenize('[[rc::parameters("a: nat")]] void f();')
        attr = toks[0]
        assert attr.kind == "attr"
        assert attr.attr_name == "parameters"
        assert attr.attr_args == ("a: nat",)

    def test_multiple_args(self):
        toks = tokenize('[[rc::parameters("a: nat", "n: nat", "p: loc")]]')
        assert toks[0].attr_args == ("a: nat", "n: nat", "p: loc")

    def test_no_args(self):
        toks = tokenize("[[rc::trusted]]")
        assert toks[0].attr_name == "trusted"
        assert toks[0].attr_args == ()

    def test_string_concatenation(self):
        # Figure 3 splits long annotations across string literals.
        toks = tokenize('[[rc::ptr_type("chunks_t:"\n'
                        '              "{s != 0} @ optional<x, null>")]]')
        assert toks[0].attr_args == \
            ("chunks_t:{s != 0} @ optional<x, null>",)

    def test_concatenation_and_commas(self):
        toks = tokenize('[[rc::constraints("a" "b", "c")]]')
        assert toks[0].attr_args == ("ab", "c")

    def test_unicode_payload(self):
        toks = tokenize('[[rc::constraints("{s = {[n]} ⊎ tail}")]]')
        assert toks[0].attr_args == ("{s = {[n]} ⊎ tail}",)

    def test_unterminated_attribute(self):
        with pytest.raises(LexError):
            tokenize("[[rc::field(")

    def test_non_rc_attribute_rejected(self):
        with pytest.raises(LexError):
            tokenize("[[nodiscard]]")


class TestScanPriority:
    """The lexer scans each token with one pattern whose alternatives are
    tried in priority order; these pin the choices that order makes."""

    def test_longest_punctuators_win(self):
        assert kinds("a <<= b ... c -> d >>= e") == [
            ("ident", "a"), ("punct", "<<="), ("ident", "b"),
            ("punct", "..."), ("ident", "c"), ("punct", "->"),
            ("ident", "d"), ("punct", ">>="), ("ident", "e")]

    def test_hex_and_suffixed_numbers(self):
        assert kinds("0xff 0X1aUL 12u 7LL 3 12abc") == [
            ("number", "0xff"), ("number", "0X1aUL"), ("number", "12u"),
            ("number", "7LL"), ("number", "3"), ("number", "12"),
            ("ident", "abc")]

    def test_string_literal_text(self):
        assert kinds('"a\\"b" c') == [("string", 'a\\"b'), ("ident", "c")]

    def test_lines_after_multiline_block_comment(self):
        toks = tokenize("a /* one\ntwo\nthree */ b\nc")
        assert [(t.text, t.line) for t in toks] == [
            ("a", 1), ("b", 3), ("c", 4), ("", 4)]

    def test_lines_after_multiline_attribute(self):
        toks = tokenize('x\n[[rc::args("a",\n  "b")]]\nint y;')
        assert [(t.kind, t.line) for t in toks] == [
            ("ident", 1), ("attr", 2), ("ident", 4), ("ident", 4),
            ("punct", 4), ("eof", 4)]
        assert toks[1].attr_args == ("a", "b")

    def test_hash_lines_are_skipped_to_the_newline(self):
        toks = tokenize("#define N 4\n# include <x.h>\nint n;")
        assert [(t.text, t.line) for t in toks] == [
            ("int", 3), ("n", 3), (";", 3), ("", 3)]

    @pytest.mark.parametrize("source, message", [
        ("a\n@", "line 2: cannot lex '@'"),
        ('x = "abc', "line 1: cannot lex '\"abc'"),
        ("a\n/* never\nclosed", "line 2: unterminated block comment"),
        ('\n[[rc::args("a")', "line 2: unterminated attribute"),
    ])
    def test_error_text(self, source, message):
        with pytest.raises(LexError) as err:
            tokenize(source)
        assert str(err.value) == message
