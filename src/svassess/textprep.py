"""Text preprocessing for SV descriptions and code-aware tokenization.

Natural-language side: stopword removal, the followed-by-space punctuation
rule (keeps tokens like "input.c" and "man-in-the-middle" intact),
lowercasing and Porter stemming.

Code side: `scan_code` is the one Java-flavoured lexer; `tokenize_code`,
`code_line_mask` and the scope parser all read its tokens.  Its rule:
comments are dropped and separate the tokens on either side; a literal
ends at its closing quote or before the end of its line, quotes
included; a backslash escapes the next character, a newline included; an
unterminated literal runs to the end of its line with a warning;
operators are matched by maximal munch.  A line holds code iff a token
lies on it.
"""

from __future__ import annotations

import re
import string
import warnings
from functools import lru_cache
from importlib import resources

from .porter import porter_stem

_PUNCT = frozenset(string.punctuation)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """Bundled English stopword list (one token per line, UTF-8)."""
    text = resources.files("svassess").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


@lru_cache(maxsize=1 << 16)
def _stem_fixpoint(word: str) -> str:
    # Stemming is applied until stable so preprocessing is idempotent
    # (a single Porter pass can expose a further strippable suffix).
    # Memoised: a corpus repeats few distinct words many times.
    while True:
        stemmed = porter_stem(word)
        if stemmed == word:
            return word
        word = stemmed


def preprocess_text(text: str) -> list[str]:
    """Text -> cleaned token sequence.

    Punctuation is removed only where it trails a whitespace-delimited
    chunk (i.e. is followed by whitespace or ends the text), applied to a
    fixpoint; interior punctuation survives.  Chunks are lowercased, and
    alphabetic ASCII ones stemmed.  Stopwords are dropped both before and
    after stemming (a stem can itself be a stopword, e.g. willing -> will).
    Each distinct word is stemmed once per process (a bounded memo).
    """
    stopwords = default_stopwords()
    out: list[str] = []
    for chunk in text.split():
        while chunk and chunk[-1] in _PUNCT:
            chunk = chunk[:-1]
        chunk = chunk.lower()
        if not chunk or chunk in stopwords:
            continue
        if chunk.isascii() and chunk.isalpha():
            chunk = _stem_fixpoint(chunk)
            if chunk in stopwords:
                continue
        out.append(chunk)
    return out


# ---------------------------------------------------------------------------
# Code tokenization.
# ---------------------------------------------------------------------------

# maximal-munch operator table, longest first
_OPERATORS = (
    ">>>=",
    "<<=", ">>=", ">>>", "...",
    "++", "--", "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "->", "::",
)

# One match per token or per run of whitespace and comments.  Alternatives
# are tried in order, so comments win over "/", a quote always starts a
# literal, and operators are matched longest first.
_TOKEN_RE = re.compile(
    r"""(?P<skip>(?:\s+|//[^\n]*|/\*[\s\S]*?(?:\*/|\Z))+)
    |(?P<literal>"(?:[^"\\\n]|\\[\s\S])*"|'(?:[^'\\\n]|\\[\s\S])*')
    |(?P<open>"(?:[^"\\\n]|\\[\s\S]?)*|'(?:[^'\\\n]|\\[\s\S]?)*)
    |(?P<code>[A-Za-z_$][A-Za-z0-9_$]*|\d[A-Za-z0-9_.]*|{ops}|[\x00-\x7f])
    |(?P<other>[\s\S])""".replace("{ops}", "|".join(map(re.escape, _OPERATORS))),
    re.VERBOSE,
)
# the rest of a number whose first digit is a digit but not a decimal one
# (e.g. "\u00b2"): `\d` matches only decimal digits, str.isdigit() both
_NUMBER_TAIL_RE = re.compile(r"[A-Za-z0-9_.]*")


def scan_code(text: str) -> tuple[list[str], list[int]]:
    """Source text -> (code tokens, 1-based line of each token).

    The one lexer for code (rule in the module docstring): identifiers,
    numbers, literals and operators, case preserved.  A literal continued
    over an escaped newline is one token, on the line it starts on.
    """
    tokens: list[str] = []
    lines: list[int] = []
    line = 1
    pos = 0
    n = len(text)
    match = _TOKEN_RE.match
    while pos < n:
        m = match(text, pos)
        kind = m.lastgroup
        token = m.group()
        pos = m.end()
        if kind == "skip":
            line += token.count("\n")
            continue
        if kind == "open":
            warnings.warn(f"unterminated {token[0]}-literal tokenized to end of line")
        elif kind == "other" and token.isdigit():
            tail = _NUMBER_TAIL_RE.match(text, pos)
            token += tail.group()
            pos = tail.end()
        tokens.append(token)
        lines.append(line)
        if kind != "code":
            line += token.count("\n")
    return tokens, lines


def tokenize_code(text: str) -> list[str]:
    """Source text -> the tokens of `scan_code`."""
    return scan_code(text)[0]


def scan_lines(lines) -> tuple[list[list[str]], list[bool]]:
    """One `scan_code` of the lines joined by newlines, split back per line:
    (each line's tokens, code mask).

    A line holds code iff a token lies on it, so blank and comment-only
    lines are False; a literal continued over escaped newlines lies on
    every line it spans.  A line that itself holds line breaks gets the
    tokens of all its text lines.
    """
    tokens, token_lines = scan_code("\n".join(lines))
    # the line each text line of the joined text belongs to
    owner = [i for i, line in enumerate(lines) for _ in range(line.count("\n") + 1)]
    per_line: list[list[str]] = [[] for _ in lines]
    mask = [False] * len(lines)
    for token, line in zip(tokens, token_lines):
        per_line[owner[line - 1]].append(token)
        mask[owner[line - 1]] = True
        if "\n" in token:
            for spanned in range(line, line + token.count("\n")):
                mask[owner[spanned]] = True
    return per_line, mask


def code_line_mask(lines: list[str]) -> list[bool]:
    """True per line iff the line holds code (not blank or comment-only)."""
    return scan_lines(lines)[1]

