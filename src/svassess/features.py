"""Word/char n-gram vocabularies, char-word feature aggregation, and
sparse document transforms under the eight standard NLP configurations.

The aggregation step mirrors the fitted char+word pipeline: char grams are
generated over space-joined tokens (so boundary grams exist), trimmed to
single-token multi-char terms, deduplicated against the word vocabulary,
and both parts are concatenated column-wise.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import sparse

from .corpus import check_value, from_fields, require_keys


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
    kind: str  # word | char | subtoken

    @classmethod
    def from_df(cls, df: dict[str, int], kind: str) -> "Vocabulary":
        terms = sorted(df)
        return cls(index={t: i for i, t in enumerate(terms)}, df=dict(df), kind=kind)

    def terms(self) -> list[str]:
        out = [""] * len(self.index)
        for term, i in self.index.items():
            out[i] = term
        return out

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, term: str) -> bool:
        return term in self.index


def _rows_to_csr(rows, width: int) -> sparse.csr_matrix:
    """One CSR over per-row {column: value} dicts: each row's non-zero
    items in column order, zero values dropped."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for counts in rows:
        items = sorted((i, v) for i, v in counts.items() if v != 0.0)
        indices.extend(i for i, _ in items)
        data.extend(v for _, v in items)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, width),
    )


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
    df: dict[str, int] = {}
    for tokens in docs:
        for gram in set(_word_ngrams(tokens, config.word_ngram_min, config.word_ngram_max)):
            df[gram] = df.get(gram, 0) + 1
    kept = {t: c for t, c in df.items() if c / n_docs > config.word_min_doc_fraction}
    return Vocabulary.from_df(kept, "word")


def _char_grams(joined: str, lo: int, hi: int):
    for n in range(lo, hi + 1):
        for i in range(len(joined) - n + 1):
            gram = joined[i : i + n]
            if gram.strip():  # a gram of only spaces carries nothing
                yield gram


def build_char_vocab(docs: list[list[str]], config: NlpConfig) -> Vocabulary:
    """Char n-grams (boundary spaces included, pre-trim) of high-df words.

    Source words are those whose df/N strictly exceeds
    char_word_doc_fraction; each doc contributes grams over its own
    high-df words joined by single spaces, n in [char_min, char_max].
    """
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    n_docs = len(docs)
    word_df: dict[str, int] = {}
    for tokens in docs:
        for tok in set(tokens):
            word_df[tok] = word_df.get(tok, 0) + 1
    high = {t for t, c in word_df.items() if c / n_docs > config.char_word_doc_fraction}
    df: dict[str, int] = {}
    for tokens in docs:
        joined = " ".join(t for t in tokens if t in high)
        for gram in set(_char_grams(joined, config.char_min, config.char_max)):
            df[gram] = df.get(gram, 0) + 1
    return Vocabulary.from_df(df, "char")


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
        word_terms = check_value(obj["word_vocab"], tuple[str, ...], f"{where}, key 'word_vocab'")
        char_terms = check_value(obj["char_vocab"], tuple[str, ...], f"{where}, key 'char_vocab'")
        word = Vocabulary(index={t: i for i, t in enumerate(word_terms)}, df={}, kind="word")
        char = Vocabulary(index={t: i for i, t in enumerate(char_terms)}, df={}, kind="char")
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


def _count(model: FeatureModel, tokens: list[str], char_lengths: set[int]) -> dict[int, float]:
    """Word part: n-gram occurrence counts.  Char part: overlapping
    substring occurrences of each stored term (whose lengths are
    `char_lengths`) over the space-joined token stream.  Unseen terms
    contribute nothing."""
    config = model.config
    counts: dict[int, float] = {}
    word_index = model.word_vocab.index
    for gram in _word_ngrams(tokens, config.word_ngram_min, config.word_ngram_max):
        col = word_index.get(gram)
        if col is not None:
            counts[col] = counts.get(col, 0.0) + 1.0
    if char_lengths:
        offset = len(model.word_vocab)
        char_index = model.char_vocab.index
        joined = " ".join(tokens)
        for length in char_lengths:
            for i in range(len(joined) - length + 1):
                col = char_index.get(joined[i : i + length])
                if col is not None:
                    counts[offset + col] = counts.get(offset + col, 0.0) + 1.0
    return counts


def _weigh(model: FeatureModel, counts: dict[int, float]) -> dict[int, float]:
    """tf-idf weighting, then the L2 norm, as the model's config asks."""
    if model.config.weighting == "tfidf" and model.idf is not None:
        counts = {i: v * float(model.idf[i]) for i, v in counts.items()}
    if model.config.normalize and counts:
        norm = math.sqrt(sum(v * v for v in counts.values()))
        if norm > 0:
            counts = {i: v / norm for i, v in counts.items()}
    return counts


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
    slt_chars = trim_char_terms(char_vocab, char_min, char_max)
    diff_words = {
        t: word_vocab.df.get(t, 1) for t in word_vocab.index if t not in slt_chars
    }
    final_word = Vocabulary.from_df(diff_words, "word")
    final_char = Vocabulary.from_df(dict.fromkeys(slt_chars, 0), "char")  # df below
    model = FeatureModel(
        word_vocab=final_word,
        char_vocab=final_char,
        config=replace(config, char_min=char_min, char_max=char_max),
    )
    char_lengths = {len(t) for t in final_char.index}
    counts = [_count(model, tokens, char_lengths) for tokens in docs]
    offset = len(final_word)
    char_df = Counter(col for row in counts for col in row if col >= offset)
    final_char.df = {t: char_df[offset + col] for t, col in final_char.index.items()}

    if config.weighting == "tfidf":
        n_docs = len(docs)
        idf = np.empty(model.width)
        for term, col in final_word.index.items():
            idf[col] = _smoothed_idf(n_docs, final_word.df.get(term, 0))
        for term, col in final_char.index.items():
            idf[offset + col] = _smoothed_idf(n_docs, final_char.df[term])
        model.idf = idf
    return model, _rows_to_csr((_weigh(model, row) for row in counts), model.width)


def transform_many(model: FeatureModel, docs: list[list[str]]) -> sparse.csr_matrix:
    """Doc token lists -> one CSR row each of counts (or tf-idf) over the
    model's columns."""
    char_lengths = {len(t) for t in model.char_vocab.index}
    return _rows_to_csr(
        (_weigh(model, _count(model, t, char_lengths)) for t in docs), model.width
    )


def transform(model: FeatureModel, tokens: list[str]) -> sparse.csr_matrix:
    """One document as a one-row CSR; see `transform_many`."""
    return transform_many(model, [tokens])


# ---------------------------------------------------------------------------
# Subtoken features for code inputs.
# ---------------------------------------------------------------------------

def _subtokens(token: str, lo: int, hi: int):
    for n in range(lo, hi + 1):
        for i in range(len(token) - n + 1):
            yield token[i : i + n]


def build_subtoken_vocab(
    docs: list[list[str]], min_len: int = 2, max_len: int = 6
) -> Vocabulary:
    """Vocabulary of contiguous character subsequences of code tokens."""
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    df: dict[str, int] = {}
    for tokens in docs:
        seen = set()
        for tok in tokens:
            seen.update(_subtokens(tok, min_len, max_len))
        for sub in seen:
            df[sub] = df.get(sub, 0) + 1
    return Vocabulary.from_df(df, "subtoken")


def bag_of_subtokens(
    tokens: list[str], vocab: Vocabulary, min_len: int = 2, max_len: int = 6
) -> sparse.csr_matrix:
    """One-row CSR of the counts (with multiplicity) of each token's
    subtokens in the vocab."""
    counts: dict[int, float] = {}
    for tok in tokens:
        for sub in _subtokens(tok, min_len, max_len):
            col = vocab.index.get(sub)
            if col is not None:
                counts[col] = counts.get(col, 0.0) + 1.0
    return _rows_to_csr([counts], len(vocab))


def bag_of_tokens(tokens: list[str], vocab: Vocabulary) -> sparse.csr_matrix:
    """One-row CSR of whole-token counts over a word-kind vocabulary of
    code tokens."""
    counts: dict[int, float] = {}
    for tok in tokens:
        col = vocab.index.get(tok)
        if col is not None:
            counts[col] = counts.get(col, 0.0) + 1.0
    return _rows_to_csr([counts], len(vocab))
