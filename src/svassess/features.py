"""Word/char n-gram vocabularies, char-word feature aggregation, and
sparse document transforms under the eight standard NLP configurations.

The aggregation step mirrors the fitted char+word pipeline: char grams are
generated over space-joined tokens (so boundary grams exist), trimmed to
single-token multi-char terms, deduplicated against the word vocabulary,
and both parts are concatenated column-wise.  `build_char_vocab` and
`trim_char_terms` spell that out; `fit_configs` reads the same kept terms
straight off the distinct high-df tokens (`kept_char_terms`).

Count rows are flat (indptr, indices, counts) arrays, each row's items in
order of first occurrence, word items before char items.  Weighing
multiplies by the idf, then divides each row by its L2 norm, whose
squares are summed strictly left to right in that order.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np
from scipy import sparse

from .corpus import check_value, from_fields, require_keys

_WHITESPACE = re.compile(r"\s")  # what `str.split` splits on


@dataclass(frozen=True)
class NlpConfig:
    word_ngram_min: int = 1
    word_ngram_max: int = 1
    weighting: str = "tf"  # tf | tfidf
    word_min_doc_fraction: float = 0.001
    char_min: int = 2
    char_max: int = 6
    char_word_doc_fraction: float = 0.10
    l2_normalize: bool | None = None  # None -> on exactly for tfidf

    def __post_init__(self):
        if not (1 <= self.word_ngram_min <= self.word_ngram_max <= 4):
            raise ValueError("word n-gram range must satisfy 1 <= min <= max <= 4")
        if self.weighting not in ("tf", "tfidf"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if not (0 < self.word_min_doc_fraction <= 1):
            raise ValueError("word_min_doc_fraction must be in (0, 1]")
        if not (0 < self.char_word_doc_fraction <= 1):
            raise ValueError("char_word_doc_fraction must be in (0, 1]")
        if not (1 <= self.char_min <= self.char_max):
            raise ValueError("char range must satisfy 1 <= min <= max")

    @property
    def normalize(self) -> bool:
        if self.l2_normalize is None:
            return self.weighting == "tfidf"
        return self.l2_normalize

    def to_dict(self) -> dict:
        return asdict(self)


def standard_configs() -> tuple[NlpConfig, ...]:
    """The eight word-model configurations: n-gram range x tf/tf-idf."""
    ranges = [(1, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 2), (1, 3), (1, 4)]
    tfidf = [False, True, False, False, False, True, True, True]
    return tuple(
        NlpConfig(word_ngram_min=lo, word_ngram_max=hi,
                  weighting="tfidf" if w else "tf")
        for (lo, hi), w in zip(ranges, tfidf)
    )


@dataclass
class Vocabulary:
    index: dict[str, int]
    df: dict[str, int]

    @classmethod
    def from_df(cls, df: dict[str, int]) -> "Vocabulary":
        terms = sorted(df)
        return cls(index={t: i for i, t in enumerate(terms)}, df=dict(df))

    def terms(self) -> list[str]:
        out = [""] * len(self.index)
        for term, i in self.index.items():
            out[i] = term
        return out

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def vectors_to_csr(rows: list[sparse.spmatrix]) -> sparse.csr_matrix:
    """Stack sparse rows of equal width into one CSR matrix."""
    if not rows:
        raise ValueError("no vectors to stack")
    width = rows[0].shape[1]
    if any(r.shape[1] != width for r in rows):
        raise ValueError("vectors differ in width")
    return sparse.vstack(rows, format="csr")


def _word_ngrams(tokens, lo: int, hi: int):
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


def build_word_vocab(docs: list[list[str]], config: NlpConfig) -> Vocabulary:
    """Word n-grams kept when df/N strictly exceeds word_min_doc_fraction."""
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    n_docs = len(docs)
    df: Counter[str] = Counter()
    for tokens in docs:
        df.update(set(_word_ngrams(tokens, config.word_ngram_min, config.word_ngram_max)))
    kept = {t: c for t, c in df.items() if c / n_docs > config.word_min_doc_fraction}
    return Vocabulary.from_df(kept)


def _high_df_tokens(docs: list[list[str]], config: NlpConfig) -> set[str]:
    """Tokens whose df/N strictly exceeds char_word_doc_fraction."""
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    word_df: Counter[str] = Counter()
    for tokens in docs:
        word_df.update(set(tokens))
    return {t for t, c in word_df.items() if c / len(docs) > config.char_word_doc_fraction}


def build_char_vocab(docs: list[list[str]], config: NlpConfig) -> Vocabulary:
    """Char n-grams (boundary spaces included, pre-trim) of high-df words.

    Source words are those whose df/N strictly exceeds
    char_word_doc_fraction; each doc contributes grams over its own
    high-df words joined by single spaces, n in [char_min, char_max].  A
    gram of only spaces carries nothing and is dropped.
    """
    high = _high_df_tokens(docs, config)
    lo, hi = config.char_min, config.char_max
    df: Counter[str] = Counter()
    for tokens in docs:
        joined = " ".join(t for t in tokens if t in high)
        df.update(
            {joined[i : i + n] for n in range(lo, hi + 1) for i in range(len(joined) - n + 1)}
        )
    for gram in [g for g in df if not g.strip()]:
        del df[gram]
    return Vocabulary.from_df(df)


def kept_char_terms(docs: list[list[str]], config: NlpConfig) -> set[str]:
    """The char terms `trim_char_terms(build_char_vocab(docs, config),
    config.char_min, config.char_max)` keeps, read off the distinct
    high-df tokens: every substring, `max(2, char_min)` to `char_max`
    chars long, of a whitespace-free piece (`str.split`) of one.

    A kept term holds no whitespace, so it lies inside one such piece, and
    every substring of a piece is a window of the joined text.
    """
    pieces = {piece for tok in _high_df_tokens(docs, config) for piece in tok.split()}
    lo, hi = max(2, config.char_min), config.char_max
    return {
        piece[i : i + n]
        for piece in pieces
        for n in range(lo, min(hi, len(piece)) + 1)
        for i in range(len(piece) - n + 1)
    }


@dataclass
class FeatureModel:
    word_vocab: Vocabulary
    char_vocab: Vocabulary
    config: NlpConfig
    idf: np.ndarray | None = None  # aligned to concatenated columns

    @property
    def width(self) -> int:
        return len(self.word_vocab) + len(self.char_vocab)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "word_vocab": self.word_vocab.terms(),
            "char_vocab": self.char_vocab.terms(),
            "idf": None if self.idf is None else [float(x) for x in self.idf],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict, where: str = "feature model") -> "FeatureModel":
        """Rebuild a model, rejecting a missing or unknown key, a value of
        the wrong type, and an idf that does not fit its columns or its
        weighting."""
        require_keys(obj, ("config", "word_vocab", "char_vocab", "idf"), where, exact=True)
        config = from_fields(NlpConfig, obj["config"], f"{where}, key 'config'")
        word_where, char_where = f"{where}, key 'word_vocab'", f"{where}, key 'char_vocab'"
        word_terms = check_value(obj["word_vocab"], tuple[str, ...], word_where)
        char_terms = check_value(obj["char_vocab"], tuple[str, ...], char_where)
        # what `trim_char_terms` keeps, and what the char counter relies on
        lo, hi = max(2, config.char_min), config.char_max
        spaced = _WHITESPACE.search("".join(char_terms))
        if spaced or not set(map(len, char_terms)) <= set(range(lo, hi + 1)):
            bad = next(t for t in char_terms if t.split() != [t] or not lo <= len(t) <= hi)
            raise ValueError(
                f"{char_where}: term {bad!r} is not {lo} to {hi} chars without whitespace"
            )
        word = Vocabulary(index=_term_index(word_terms, word_where), df={})
        char = Vocabulary(index=_term_index(char_terms, char_where), df={})
        idf = check_value(obj["idf"], np.ndarray | None, f"{where}, key 'idf'")
        if (idf is not None) != (config.weighting == "tfidf"):
            state = "has" if idf is not None else "lacks"
            raise ValueError(f"{where} with {config.weighting} weighting {state} an idf")
        model = cls(word_vocab=word, char_vocab=char, config=config, idf=idf)
        if idf is not None and idf.shape != (model.width,):
            raise ValueError(
                f"{where}: idf of shape {idf.shape} does not match feature width {model.width}"
            )
        return model

    @classmethod
    def from_json(cls, text: str) -> "FeatureModel":
        return cls.from_dict(json.loads(text))


def _term_index(terms: tuple[str, ...], where: str) -> dict[str, int]:
    """Column of each term, rejecting a term listed twice (it would shift
    every later column)."""
    index = {t: i for i, t in enumerate(terms)}
    if len(index) < len(terms):
        repeated = next(t for t, n in Counter(terms).items() if n > 1)
        raise ValueError(f"{where}: duplicate term {repeated!r}")
    return index


def _smoothed_idf(n_docs: int, df: int) -> float:
    return math.log((1 + n_docs) / (1 + df)) + 1.0


def trim_char_terms(char_vocab: Vocabulary, char_min: int, char_max: int) -> set[str]:
    """Keep grams that are a single token longer than one char, stripped.

    Terms whose stripped length falls outside [char_min, char_max] could
    never be matched by the transform's sliding windows and are dropped.
    """
    kept: set[str] = set()
    for gram in char_vocab.index:
        parts = gram.split()
        if len(parts) == 1 and len(parts[0]) > 1:
            term = gram.strip()
            if char_min <= len(term) <= char_max:
                kept.add(term)
    return kept


def _flat_rows(rows):
    """Per-row {column: count} mappings as flat (indptr, indices, counts)
    int64 arrays, each row's items in insertion order.  The rows are read
    once, so a generator of rows is never held whole."""
    indptr, indices, counts = array("q", [0]), array("q"), array("q")
    for row in rows:
        indices.extend(row)
        counts.extend(row.values())
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices), np.array(counts)


def _take_rows(rows, start: int, stop: int):
    """Rows `start` to `stop` of flat count rows."""
    indptr, indices, counts = rows
    lo, hi = indptr[start], indptr[stop]
    return indptr[start : stop + 1] - lo, indices[lo:hi], counts[lo:hi]


def _word_rows(word_index: dict[str, int], lo: int, hi: int, docs):
    """Per doc, the counts of its word n-grams in `word_index`, in order
    of first occurrence, as flat rows."""
    get = word_index.get
    return _flat_rows(
        Counter(c for g in _word_ngrams(tokens, lo, hi) if (c := get(g)) is not None)
        for tokens in docs
    )


def _char_rows(char_index: dict[str, int], docs):
    """Per doc, the counts of the overlapping occurrences of each term of
    `char_index` in the doc's space-joined tokens, as flat rows.

    A term holds no whitespace (`trim_char_terms`, `FeatureModel.from_dict`),
    so no occurrence spans two tokens: each distinct token's hits are
    found once per length, for this call only.  Hits are merged length
    first (as the set of term lengths iterates), then token, then
    position: the order of a scan over the joined text, so each row's
    item order, and with it the L2 sum's, is that scan's.
    """
    lengths = {len(t) for t in char_index}
    get = char_index.get
    hits: dict[str, list[list[int]]] = {}  # token -> its hit columns per length

    def counts(tokens):
        for tok in tokens:
            if tok not in hits:
                hits[tok] = [
                    [c for i in range(len(tok) - n + 1) if (c := get(tok[i : i + n])) is not None]
                    for n in lengths
                ]
        per_token = [hits[tok] for tok in tokens]
        return Counter(chain.from_iterable(
            h[k] for k in range(len(lengths)) for h in per_token
        ))

    return _flat_rows(counts(tokens) for tokens in docs)


def _row_sums_of_squares(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, added strictly left to right (`np.sum`
    adds pairwise, which rounds differently)."""
    squares = data * data
    bounds = indptr.tolist()
    return np.array([
        np.add.accumulate(squares[lo:hi])[-1] if hi > lo else 0.0
        for lo, hi in zip(bounds, bounds[1:])
    ])


def _weighted_csr(model: FeatureModel, word_rows, char_rows) -> sparse.csr_matrix:
    """Each doc's word counts, then its char counts moved past the word
    columns, weighed by `model`: tf-idf multiplies by the idf, and the L2
    norm divides each row by the root of its left-to-right sum of squares.
    One CSR, columns sorted and zeros dropped."""
    word_ptr, word_cols, word_counts = word_rows
    char_ptr, char_cols, char_counts = char_rows
    indptr = word_ptr + char_ptr
    # output slot of each word item (its row's char items come after)
    word_at = np.arange(len(word_cols)) + np.repeat(char_ptr[:-1], np.diff(word_ptr))
    char_at = np.arange(len(char_cols)) + np.repeat(word_ptr[1:], np.diff(char_ptr))
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    indices[word_at], indices[char_at] = word_cols, char_cols + len(model.word_vocab)
    data[word_at], data[char_at] = word_counts, char_counts
    if model.config.weighting == "tfidf" and model.idf is not None:
        data *= model.idf[indices]
    if model.config.normalize:
        norms = np.sqrt(_row_sums_of_squares(data, indptr))
        norms[norms == 0] = 1.0
        data /= np.repeat(norms, np.diff(indptr))
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, model.width))
    matrix.sort_indices()
    matrix.eliminate_zeros()
    return matrix


def _trimmed_char_part(kept: set[str], docs, n_fit: int):
    """The model's char vocabulary (the kept terms, df over the first
    `n_fit` docs) and every doc's char count rows."""
    final_char = Vocabulary.from_df(dict.fromkeys(kept, 0))
    rows = _char_rows(final_char.index, docs)
    indptr, indices, _ = rows
    char_df = np.bincount(indices[: indptr[n_fit]], minlength=len(final_char)).tolist()
    final_char.df = {t: char_df[col] for t, col in final_char.index.items()}
    return final_char, rows


def _word_part(word_vocab: Vocabulary, final_char: Vocabulary, lo: int, hi: int, docs):
    """The model's word vocabulary (the terms no char term shadows) and
    every doc's word count rows."""
    final_word = Vocabulary.from_df(
        {t: word_vocab.df.get(t, 1) for t in word_vocab.index if t not in final_char.index}
    )
    return final_word, _word_rows(final_word.index, lo, hi, docs)


def _weighted_model(final_word, final_char, config: NlpConfig, n_docs: int) -> FeatureModel:
    """The model over both vocabularies, with its smoothed idf under tf-idf."""
    model = FeatureModel(word_vocab=final_word, char_vocab=final_char, config=config)
    if config.weighting == "tfidf":
        offset = len(final_word)
        idf = np.empty(model.width)
        for term, col in final_word.index.items():
            idf[col] = _smoothed_idf(n_docs, final_word.df.get(term, 0))
        for term, col in final_char.index.items():
            idf[offset + col] = _smoothed_idf(n_docs, final_char.df[term])
        model.idf = idf
    return model


def aggregate_char_word(
    docs: list[list[str]],
    word_vocab: Vocabulary,
    char_vocab: Vocabulary,
    char_min: int,
    char_max: int,
    config: NlpConfig,
) -> tuple[FeatureModel, sparse.csr_matrix]:
    """Trim char grams, drop word terms they duplicate, transform docs.

    Output columns are the word part then the char part, each ordered
    lexicographically.  A char term's document frequency is the number of
    docs whose space-joined text contains it as a substring (the
    fixed-vocabulary re-vectorization view), so idf matches the
    transform's counting rule.  It is read off the support of the raw
    count pass: a term is a substring exactly when some window equals it.
    """
    if not (1 <= char_min <= char_max):
        raise ValueError("inconsistent char range for aggregation")
    kept = trim_char_terms(char_vocab, char_min, char_max)
    final_char, char_rows = _trimmed_char_part(kept, docs, len(docs))
    final_word, word_rows = _word_part(
        word_vocab, final_char, config.word_ngram_min, config.word_ngram_max, docs
    )
    config = replace(config, char_min=char_min, char_max=char_max)
    model = _weighted_model(final_word, final_char, config, len(docs))
    return model, _weighted_csr(model, word_rows, char_rows)


def fit_configs(docs: list[list[str]], configs, val_docs=()):
    """For each config in order, fit a feature model on `docs` and yield
    (model, CSR of `docs`, CSR of `val_docs` under the model), or the
    `ValueError` fitting it raised.  The model and the `docs` matrix are
    those of `aggregate_char_word` over the config's own vocabularies.

    Configs share what they have in common, for this call only: the kept
    char terms (`kept_char_terms`, from the distinct high-df tokens) and
    every doc's char counts once per char settings, the word vocabulary
    once per word settings and the word counts once per (word, char)
    settings pair.  Each config then only merges and weighs the shared
    flat count rows, in array passes.  Every result equals fitting its
    config alone bit for bit.  The generator holds no yielded matrix, so a
    caller that drops each result before asking for the next keeps one
    config's matrices alive.
    """
    all_docs = [*docs, *val_docs]
    n_fit, n_all = len(docs), len(all_docs)
    char_parts: dict[tuple, tuple] = {}  # char settings -> (char vocab, rows)
    word_vocabs: dict[tuple, Vocabulary] = {}  # word settings -> word vocab
    word_parts: dict[tuple, tuple] = {}  # (word, char settings) -> (word vocab, word rows)
    for config in configs:
        char_key = (config.char_min, config.char_max, config.char_word_doc_fraction)
        word_key = (config.word_ngram_min, config.word_ngram_max, config.word_min_doc_fraction)
        try:
            if char_key not in char_parts:
                char_parts[char_key] = _trimmed_char_part(
                    kept_char_terms(docs, config), all_docs, n_fit
                )
            final_char, char_rows = char_parts[char_key]
            if word_key not in word_vocabs:
                word_vocabs[word_key] = build_word_vocab(docs, config)
            if (word_key, char_key) not in word_parts:
                word_parts[word_key, char_key] = _word_part(
                    word_vocabs[word_key], final_char, config.word_ngram_min,
                    config.word_ngram_max, all_docs,
                )
        except ValueError as exc:
            yield exc
            continue
        final_word, word_rows = word_parts[word_key, char_key]
        model = _weighted_model(final_word, final_char, config, n_fit)
        yield (
            model,
            _weighted_csr(model, _take_rows(word_rows, 0, n_fit), _take_rows(char_rows, 0, n_fit)),
            _weighted_csr(
                model, _take_rows(word_rows, n_fit, n_all), _take_rows(char_rows, n_fit, n_all)
            ),
        )


def transform_many(model: FeatureModel, docs: list[list[str]]) -> sparse.csr_matrix:
    """Doc token lists -> one CSR row each of counts (or tf-idf) over the
    model's columns."""
    config = model.config
    word_rows = _word_rows(
        model.word_vocab.index, config.word_ngram_min, config.word_ngram_max, docs
    )
    return _weighted_csr(model, word_rows, _char_rows(model.char_vocab.index, docs))


def transform(model: FeatureModel, tokens: list[str]) -> sparse.csr_matrix:
    """One document as a one-row CSR; see `transform_many`."""
    return transform_many(model, [tokens])
