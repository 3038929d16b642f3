import pathlib
import warnings

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svassess import textprep
from svassess.porter import porter_stem
from svassess.textprep import (
    code_line_mask,
    default_stopwords,
    preprocess_text,
    scan_code,
    scan_lines,
    tokenize_code,
)

DATA = pathlib.Path(__file__).parent / "data"


def load_porter_pairs():
    pairs = []
    for line in (DATA / "porter_pairs.txt").read_text().splitlines():
        if line.strip():
            word, stem = line.split()
            pairs.append((word, stem))
    return pairs


def test_porter_fixture_has_100_pairs():
    assert len(load_porter_pairs()) == 100


@pytest.mark.parametrize("word,expected", load_porter_pairs())
def test_porter_reference_vocabulary(word, expected):
    assert porter_stem(word) == expected


def test_porter_named_examples():
    assert porter_stem("caresses") == "caress"
    assert porter_stem("ponies") == "poni"
    assert porter_stem("sky") == "sky"


def test_preprocess_basic_examples():
    assert preprocess_text("allows") == ["allow"]
    assert preprocess_text("input.c is vulnerable") == ["input.c", "vulner"]
    assert preprocess_text("Hello, World.") == ["hello", "world"]


def test_preprocess_empty_text():
    assert preprocess_text("") == []
    assert preprocess_text("   \n  ") == []


def test_preprocess_keeps_inner_punctuation():
    toks = preprocess_text("a man-in-the-middle attack on input.c")
    assert "man-in-the-middle" in toks
    assert "input.c" in toks


def test_preprocess_trailing_punct_to_fixpoint():
    assert preprocess_text("overflow...") == ["overflow"]
    assert preprocess_text("(see notes)") == ["(see", "note"]


def test_preprocess_stopword_created_by_stemming_dropped():
    # willing stems to will, which is a stopword
    assert preprocess_text("willing") == []


def test_preprocess_stems_each_distinct_word_once(monkeypatch):
    stemmed = []

    def counted(word):
        stemmed.append(word)
        return porter_stem(word)

    monkeypatch.setattr(textprep, "porter_stem", counted)
    textprep._stem_fixpoint.cache_clear()
    try:
        text = "parsing overflows parsing Overflows parsing"
        assert preprocess_text(text) == ["par", "overflow"] * 2 + ["par"]
    finally:
        textprep._stem_fixpoint.cache_clear()
    # each distinct word until its stem is stable: parsing -> pars -> par
    assert stemmed == ["parsing", "pars", "par", "overflows", "overflow"]


def test_default_stopwords_lowercase():
    words = default_stopwords()
    assert "the" in words and "is" in words
    assert all(w == w.lower() for w in words)


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
def test_preprocess_idempotent(text):
    once = preprocess_text(text)
    again = preprocess_text(" ".join(once))
    assert again == once


def test_tokenize_code_examples():
    assert tokenize_code("var++") == ["var", "++"]
    assert tokenize_code("int a=1;") == ["int", "a", "=", "1", ";"]
    assert tokenize_code("") == []


def test_tokenize_code_operators_maximal_munch():
    assert tokenize_code("a>>>=b") == ["a", ">>>=", "b"]
    assert tokenize_code("x<<=1; y>>>2") == ["x", "<<=", "1", ";", "y", ">>>", "2"]
    assert tokenize_code("a==b!=c") == ["a", "==", "b", "!=", "c"]


def test_tokenize_code_string_literal_single_token():
    assert tokenize_code('sb.append("a b");') == [
        "sb", ".", "append", "(", '"a b"', ")", ";",
    ]
    # escaped quote stays inside the literal
    assert tokenize_code('x = "a\\"b";')[2] == '"a\\"b"'


def test_tokenize_code_char_literal():
    assert tokenize_code("c = 'x';") == ["c", "=", "'x'", ";"]


def test_tokenize_code_comments_skipped():
    assert tokenize_code("a; // trailing\nb;") == ["a", ";", "b", ";"]
    assert tokenize_code("a; /* mid */ b;") == ["a", ";", "b", ";"]


def test_tokenize_code_unterminated_string_warns():
    with pytest.warns(UserWarning):
        toks = tokenize_code('x = "oops\ny;')
    assert '"oops' in toks
    assert toks[-2:] == ["y", ";"]


def test_tokenize_code_case_preserved():
    assert tokenize_code("MyVar") == ["MyVar"]


@settings(max_examples=200)
@given(
    st.lists(
        st.sampled_from(["foo", "x", "12", "++", ";", "==", "bar_3", '"s t"', "'c'"]),
        max_size=12,
    )
)
def test_tokenize_code_concatenation_stable(parts):
    # splitting at whitespace outside literals never changes the stream
    joined = " ".join(parts)
    expect = []
    for p in parts:
        expect.extend(tokenize_code(p))
    assert tokenize_code(joined) == expect


def test_code_line_mask_blank_and_line_comment():
    assert code_line_mask(["", "// c", "x=1;"]) == [False, False, True]


def test_code_line_mask_all_comments():
    assert code_line_mask(["// a", "/* b */", ""]) == [False, False, False]


def test_code_line_mask_multiline_comment():
    lines = ["int a;", "/* one", "   two", "   three */", "int b;"]
    assert code_line_mask(lines) == [True, False, False, False, True]


def test_code_line_mask_string_shields_comment_markers():
    mask = code_line_mask(['s = "/* not a comment */";', "x;"])
    assert mask == [True, True]


def test_code_line_mask_code_before_block_comment():
    mask = code_line_mask(["x=1; /* start", "middle", "end */ y=2;"])
    assert mask == [True, False, True]


def test_code_line_mask_literal_over_escaped_newline_marks_both_lines():
    # the literal "a\<newline>/* b */" continues onto the second line
    with pytest.warns(UserWarning):
        assert code_line_mask(['s = "a\\', '/* b */']) == [True, True]
    assert code_line_mask(['s = "a\\', 'b";', "// c"]) == [True, True, False]


def test_scan_code_lines():
    tokens, lines = scan_code('a /* x\n y */ b\n"c\\\nd" e\n\n f')
    assert tokens == ["a", "b", '"c\\\nd"', "e", "f"]
    assert lines == [1, 2, 3, 4, 6]
    assert scan_code("") == ([], [])


def test_scan_code_comment_separates_tokens():
    assert tokenize_code("a/**/b") == ["a", "b"]
    assert tokenize_code("x-/* */-y") == ["x", "-", "-", "y"]


def test_scan_code_non_decimal_digit_starts_a_number():
    assert tokenize_code("x=\u00b2ab.c+1") == ["x", "=", "\u00b2ab.c", "+", "1"]
    assert tokenize_code("\u00e9x") == ["\u00e9", "x"]


def test_scan_lines_splits_one_scan_per_line():
    # the comment opened on line 1 hides "b = a;" on line 2
    assert scan_lines(["x; /* c", "b = a; */ y;", "", '"s"']) == (
        [["x", ";"], ["y", ";"], [], ['"s"']],
        [True, True, False, True],
    )
    assert scan_lines([]) == ([], [])


def test_scan_lines_keeps_a_line_holding_line_breaks_whole():
    assert scan_lines(["a;", "use(b);\n// c\nmore(d);", "e;"]) == (
        [["a", ";"], ["use", "(", "b", ")", ";", "more", "(", "d", ")", ";"], ["e", ";"]],
        [True, True, True],
    )
    assert code_line_mask(["a;", "\n// b", "c;"]) == [True, False, True]


# pieces that meet every lexing rule when concatenated without separators
LEX_PIECES = [
    "foo", "x1", "$v", "_", "12", "0x1F", "3.5e", "\u00b2", "\u00e9",
    '"', "'", "\\", "//", "/*", "*/", "/", "*",
    "{", "}", "(", ")", ";", ".", "...", ",",
    "=", "==", "!", ">", ">>>=", "<", "-", "->", "--", "+", "&", "|", ":",
    " ", "\t", "\n", "\r",
]


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=30))
def test_property_tokenize_code_matches_reference_lexer(pieces):
    text = "".join(pieces)
    assert _with_warnings(tokenize_code, text) == _with_warnings(oracles.tokenize_code, text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=30))
def test_property_code_line_mask_matches_reference(pieces):
    text = "".join(pieces)
    # a literal continued over an escaped newline now marks each line it spans
    assume("\\\n" not in text)
    lines = text.split("\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert code_line_mask(lines) == oracles.code_line_mask(lines)
