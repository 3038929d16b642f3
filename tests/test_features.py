import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from svassess.features import (
    FeatureModel,
    NlpConfig,
    Vocabulary,
    aggregate_char_word,
    build_char_vocab,
    build_word_vocab,
    fit_configs,
    standard_configs,
    transform,
    transform_many,
    trim_char_terms,
    vectors_to_csr,
)

import oracles

HELLO_DOC = ["Hello", "World"]


def assert_csr_identical(got, expected):
    """Same shape and bit-identical data, indices and indptr."""
    assert sparse.isspmatrix_csr(got)
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def char_config(lo, hi, **kw):
    return NlpConfig(char_min=lo, char_max=hi, **kw)


def test_hello_world_char_bigrams():
    vocab = build_char_vocab([HELLO_DOC], char_config(2, 2))
    assert set(vocab.index) == {"He", "el", "ll", "lo", "o ", " W", "Wo", "or", "rl", "ld"}


def test_hello_world_char_unigrams_have_no_bare_space():
    vocab = build_char_vocab([HELLO_DOC], char_config(1, 1))
    assert set(vocab.index) == {"H", "e", "l", "o", "W", "r", "d"}


def test_trim_drops_boundary_and_single_char_grams():
    vocab = build_char_vocab([HELLO_DOC], char_config(2, 2))
    kept = trim_char_terms(vocab, 2, 2)
    assert kept == {"He", "el", "ll", "lo", "Wo", "or", "rl", "ld"}


def test_char_vocab_source_words_need_high_df():
    # "rare" appears in 1/10 docs: not strictly above the 0.10 cutoff.
    docs = [["common"] for _ in range(9)] + [["common", "rare"]]
    vocab = build_char_vocab(docs, char_config(2, 2))
    assert "ra" not in vocab.index
    assert "co" in vocab.index


def test_word_vocab_doc_fraction_is_strict():
    docs = [["hello", "world"], ["hello", "there"]]
    loose = build_word_vocab(docs, NlpConfig(word_min_doc_fraction=0.4))
    assert set(loose.index) == {"hello", "world", "there"}
    tight = build_word_vocab(docs, NlpConfig(word_min_doc_fraction=0.6))
    assert set(tight.index) == {"hello"}


def test_word_vocab_counts_ngrams_up_to_max():
    docs = [["a", "b", "c"]]
    vocab = build_word_vocab(docs, NlpConfig(word_ngram_max=2))
    assert set(vocab.index) == {"a", "b", "c", "a b", "b c"}


def test_empty_corpus_errors():
    with pytest.raises(ValueError):
        build_word_vocab([], NlpConfig())
    with pytest.raises(ValueError):
        build_char_vocab([], NlpConfig())


def test_aggregate_hello_world_keeps_expected_columns():
    docs = [HELLO_DOC]
    config = char_config(2, 2)
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    model, vectors = aggregate_char_word(docs, word_vocab, char_vocab, 2, 2, config)
    assert set(model.char_vocab.index) == {"He", "el", "ll", "lo", "Wo", "or", "rl", "ld"}
    assert set(model.word_vocab.index) == {"Hello", "World"}
    assert model.width == 10
    assert vectors.shape == (1, 10)


def test_aggregate_removes_word_terms_shadowed_by_char_terms():
    # The word "ab" and the trimmed char gram "ab" collide; the word copy goes.
    docs = [["ab"], ["ab"], ["ab", "xy"]]
    config = char_config(2, 2)
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    assert "ab" in word_vocab.index and "ab" in char_vocab.index
    model, _ = aggregate_char_word(docs, word_vocab, char_vocab, 2, 2, config)
    assert "ab" not in model.word_vocab.index
    assert "ab" in model.char_vocab.index
    assert set(model.word_vocab.index) & set(model.char_vocab.index) == set()


def test_aggregate_rejects_inverted_char_range():
    docs = [HELLO_DOC]
    config = char_config(2, 2)
    vocab = build_word_vocab(docs, config)
    cvocab = build_char_vocab(docs, config)
    with pytest.raises(ValueError):
        aggregate_char_word(docs, vocab, cvocab, 3, 2, config)


def test_aggregate_wider_transform_range_keeps_short_trimmed_terms():
    # Built at 3..3 the gram "ab " trims to "ab"; a 2..6 transform range keeps it.
    docs = [["ab", "cd"]]
    config = char_config(3, 3)
    char_vocab = build_char_vocab(docs, config)
    assert "ab " in char_vocab.index
    kept = trim_char_terms(char_vocab, 2, 6)
    assert "ab" in kept
    assert trim_char_terms(char_vocab, 3, 6) == set()


def test_transform_counts_words_and_overlapping_chars():
    config = char_config(2, 2)
    docs = [["aba", "aba"]]
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    model, _ = aggregate_char_word(docs, word_vocab, char_vocab, 2, 2, config)
    vec = transform(model, ["aba", "aba"])
    assert vec.shape == (1, model.width)
    dense = vec.toarray()[0]
    cols = model.word_vocab.index
    offset = len(model.word_vocab)
    assert dense[cols["aba"]] == 2.0
    # "aba aba": "ab" at 0 and 4, "ba" at 1 and 5.
    assert dense[offset + model.char_vocab.index["ab"]] == 2.0
    assert dense[offset + model.char_vocab.index["ba"]] == 2.0


def test_transform_all_oov_is_empty():
    config = NlpConfig()
    vocab = build_word_vocab([["known"]], config)
    model = FeatureModel(word_vocab=vocab, char_vocab=Vocabulary({}, {}), config=config)
    vec = transform(model, ["unseen", "tokens"])
    assert vec.shape == (1, model.width)
    assert vec.nnz == 0 and len(vec.indices) == 0 and len(vec.data) == 0


def test_idf_two_docs_single_df():
    config = NlpConfig(weighting="tfidf")
    docs = [["apple", "pear"], ["apple", "plum"]]
    word_vocab = build_word_vocab(docs, config)
    model, _ = aggregate_char_word(docs, word_vocab, Vocabulary({}, {}), 2, 6, config)
    col = model.word_vocab.index["pear"]
    assert model.idf[col] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    assert model.idf[model.word_vocab.index["apple"]] == pytest.approx(1.0)


def test_tfidf_transform_is_l2_normalized():
    config = NlpConfig(weighting="tfidf")
    docs = [["apple", "pear"], ["apple", "plum"]]
    word_vocab = build_word_vocab(docs, config)
    model, vectors = aggregate_char_word(docs, word_vocab, Vocabulary({}, {}), 2, 6, config)
    assert vectors.shape[0] == len(docs)
    for vec in vectors:
        assert np.linalg.norm(vec.data) == pytest.approx(1.0, abs=1e-12)


def test_tf_transform_keeps_raw_counts_by_default():
    config = NlpConfig()
    docs = [["a", "a", "b"]]
    word_vocab = build_word_vocab(docs, config)
    model, vectors = aggregate_char_word(docs, word_vocab, Vocabulary({}, {}), 2, 6, config)
    dense = vectors.toarray()[0]
    assert dense[model.word_vocab.index["a"]] == 2.0
    assert dense[model.word_vocab.index["b"]] == 1.0


def test_explicit_l2_flag_overrides_weighting_default():
    assert NlpConfig().normalize is False
    assert NlpConfig(weighting="tfidf").normalize is True
    assert NlpConfig(l2_normalize=True).normalize is True
    assert NlpConfig(weighting="tfidf", l2_normalize=False).normalize is False


def test_char_df_recounted_by_substring_presence():
    # "lo" occurs inside "love" even though "love" never sourced char grams.
    config = char_config(2, 2, weighting="tfidf")
    docs = [["lost", "lane"], ["lost", "love"]]
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    model, _ = aggregate_char_word(docs, word_vocab, char_vocab, 2, 2, config)
    col = len(model.word_vocab) + model.char_vocab.index["lo"]
    assert model.idf[col] == pytest.approx(math.log(3 / 3) + 1)


def test_standard_configs_table():
    configs = standard_configs()
    assert len(configs) == 8
    ranges = [(c.word_ngram_min, c.word_ngram_max) for c in configs]
    assert ranges == [(1, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 2), (1, 3), (1, 4)]
    weightings = [c.weighting for c in configs]
    assert weightings == ["tf", "tfidf", "tf", "tf", "tf", "tfidf", "tfidf", "tfidf"]


def test_config_validation():
    with pytest.raises(ValueError):
        NlpConfig(word_ngram_min=2, word_ngram_max=1)
    with pytest.raises(ValueError):
        NlpConfig(word_ngram_max=5)
    with pytest.raises(ValueError):
        NlpConfig(weighting="binary")
    with pytest.raises(ValueError):
        NlpConfig(char_min=0)
    with pytest.raises(ValueError):
        NlpConfig(word_min_doc_fraction=0.0)


def test_model_json_round_trip_preserves_transform():
    config = char_config(2, 3, weighting="tfidf")
    docs = [["alpha", "beta"], ["alpha", "gamma"], ["beta", "gamma"]]
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    model, _ = aggregate_char_word(docs, word_vocab, char_vocab, 2, 3, config)
    reloaded = FeatureModel.from_json(model.to_json())
    assert reloaded.word_vocab.terms() == model.word_vocab.terms()
    assert reloaded.char_vocab.terms() == model.char_vocab.terms()
    probe = ["alpha", "gamma", "alpha"]
    assert_csr_identical(transform(reloaded, probe), transform(model, probe))
    # Serialized payload carries arrays in column order.
    obj = json.loads(model.to_json())
    assert obj["word_vocab"] == sorted(obj["word_vocab"])
    assert obj["char_vocab"] == sorted(obj["char_vocab"])
    assert len(obj["idf"]) == model.width


def test_vectors_to_csr_round_trip():
    vecs = [
        sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 2.0, 0.0]])),
        sparse.csr_matrix((1, 5)),
        sparse.csr_matrix(np.array([[0.0, 0.0, 0.0, 0.0, -1.5]])),
    ]
    mat = vectors_to_csr(vecs)
    assert sparse.isspmatrix_csr(mat)
    assert mat.shape == (3, 5)
    assert np.array_equal(mat.toarray(), np.vstack([v.toarray() for v in vecs]))
    with pytest.raises(ValueError):
        vectors_to_csr([])
    with pytest.raises(ValueError):
        vectors_to_csr([vecs[0], sparse.csr_matrix((1, 4))])


token_strategy = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "code", "run"]),
    min_size=1,
    max_size=8,
)


@settings(max_examples=50, deadline=None)
@given(docs=st.lists(token_strategy, min_size=2, max_size=8))
def test_property_tfidf_norm_and_disjoint_vocabs(docs):
    config = char_config(2, 3, weighting="tfidf")
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    model, vectors = aggregate_char_word(docs, word_vocab, char_vocab, 2, 3, config)
    assert set(model.word_vocab.index).isdisjoint(model.char_vocab.index)
    assert model.width == len(model.word_vocab) + len(model.char_vocab)
    assert vectors.shape == (len(docs), model.width)
    for vec in vectors:
        if vec.nnz:
            assert np.linalg.norm(vec.data) == pytest.approx(1.0, abs=1e-9)
        assert all(0 <= i < model.width for i in vec.indices)


@settings(max_examples=50, deadline=None)
@given(docs=st.lists(token_strategy, min_size=1, max_size=6), probe=token_strategy)
def test_property_transform_width_and_determinism(docs, probe):
    config = NlpConfig(word_ngram_max=2)
    vocab = build_word_vocab(docs, config)
    model, _ = aggregate_char_word(docs, vocab, Vocabulary({}, {}), 2, 6, config)
    first = transform(model, probe)
    second = transform(model, probe)
    assert_csr_identical(first, second)
    assert first.shape == (1, model.width)


word_strategy = st.text(alphabet="abcde", min_size=1, max_size=5)
corpus_strategy = st.lists(st.lists(word_strategy, max_size=7), min_size=1, max_size=10)


def _fit(docs, index):
    config = standard_configs()[index]
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    return aggregate_char_word(
        docs, word_vocab, char_vocab, config.char_min, config.char_max, config
    ), (word_vocab, char_vocab, config)


@settings(max_examples=60, deadline=None)
@given(docs=corpus_strategy, index=st.integers(0, 7))
def test_property_aggregate_matches_reference(docs, index):
    (model, matrix), (word_vocab, char_vocab, config) = _fit(docs, index)
    assert model.to_json() == oracles.reference_aggregate_json(
        docs, word_vocab, char_vocab, config.char_min, config.char_max, config
    )
    rows = [oracles.reference_transform_row(model, tokens) for tokens in docs]
    assert_csr_identical(matrix, oracles.reference_stack(rows, model.width))
    terms = model.char_vocab.terms()
    assert [model.char_vocab.df[t] for t in terms] == [
        oracles.reference_char_df(docs, terms)[t] for t in terms
    ]


@settings(max_examples=60, deadline=None)
@given(docs=corpus_strategy, probes=corpus_strategy, index=st.integers(0, 7))
def test_property_transform_many_matches_stacked_reference_rows(docs, probes, index):
    (model, _), _ = _fit(docs, index)
    rows = [oracles.reference_transform_row(model, tokens) for tokens in probes]
    expected = oracles.reference_stack(rows, model.width)
    assert_csr_identical(transform_many(model, probes), expected)
    for tokens, row in zip(probes, rows):
        assert_csr_identical(transform(model, tokens), oracles.reference_stack([row], model.width))


def _tfidf_model():
    config = char_config(2, 3, weighting="tfidf")
    docs = [["alpha", "beta"], ["alpha", "gamma"], ["beta", "gamma"]]
    word_vocab = build_word_vocab(docs, config)
    char_vocab = build_char_vocab(docs, config)
    model, _ = aggregate_char_word(docs, word_vocab, char_vocab, 2, 3, config)
    return model


def test_model_load_rejects_idf_not_matching_width():
    obj = _tfidf_model().to_dict()
    obj["idf"] = obj["idf"][:-1]
    with pytest.raises(ValueError, match="width"):
        FeatureModel.from_dict(obj)


def test_model_load_rejects_idf_without_tfidf_weighting():
    obj = _tfidf_model().to_dict()
    obj["config"]["weighting"] = "tf"
    with pytest.raises(ValueError, match="idf"):
        FeatureModel.from_dict(obj)


def test_model_load_rejects_tfidf_weighting_without_idf():
    obj = _tfidf_model().to_dict()
    obj["idf"] = None
    with pytest.raises(ValueError, match="idf"):
        FeatureModel.from_dict(obj)


@settings(max_examples=40, deadline=None)
@given(docs=corpus_strategy, index=st.integers(0, 7))
def test_property_dict_round_trip_is_byte_identical(docs, index):
    (model, _), _ = _fit(docs, index)
    assert FeatureModel.from_dict(model.to_dict()).to_json() == model.to_json()


@pytest.mark.parametrize("key", ["word_vocab", "char_vocab"])
def test_model_load_rejects_duplicate_term(key):
    obj = _tfidf_model().to_dict()
    obj[key] = obj[key][:2] + obj[key][1:]
    obj["idf"] = obj["idf"] + [1.0]  # the width the repeated term claims
    with pytest.raises(ValueError, match=f"key '{key}': duplicate term {obj[key][1]!r}"):
        FeatureModel.from_dict(obj)


@pytest.mark.parametrize("term", ["a b", " ab", "ab\t", "a", "abcd"])
def test_model_load_rejects_char_term_the_trim_never_keeps(term):
    # the model's char range is 2..3; trimmed terms hold no whitespace
    obj = _tfidf_model().to_dict()
    obj["char_vocab"] = sorted(obj["char_vocab"][1:] + [term])
    with pytest.raises(ValueError, match=f"key 'char_vocab': term {re.escape(repr(term))}"):
        FeatureModel.from_dict(obj)


def test_model_load_char_length_floor_is_two():
    obj = _tfidf_model().to_dict()
    obj["config"]["char_min"] = 1
    assert FeatureModel.from_dict(obj).to_json() == json.dumps(obj, sort_keys=True)
    obj["char_vocab"] = sorted(obj["char_vocab"][1:] + ["q"])
    with pytest.raises(ValueError, match="term 'q' is not 2 to 3 chars"):
        FeatureModel.from_dict(obj)


# tokens from a small alphabet repeat; they may be one char long or hold
# spaces (as code string literals do), and docs may be empty
spaced_token = st.text(alphabet="abc d", min_size=1, max_size=5)
spaced_corpus = st.lists(st.lists(spaced_token, max_size=7), min_size=1, max_size=10)
RANGE_PAIRS = [(0, 1), (2, 5), (3, 6), (4, 7)]  # standard configs of one n-gram range


@st.composite
def mixed_config_subsets(draw):
    """Indices of standard configs, in any order: two of one n-gram range,
    one of another, and any others."""
    pair = draw(st.sampled_from(RANGE_PAIRS))
    other = draw(st.sampled_from([i for i in range(8) if i not in pair]))
    extra = draw(st.lists(st.integers(0, 7), max_size=4))
    return draw(st.permutations(sorted({*pair, other, *extra})))


@settings(max_examples=60, deadline=None)
@given(docs=spaced_corpus, val_docs=spaced_corpus, indices=mixed_config_subsets())
def test_property_shared_fit_matches_each_config_alone(docs, val_docs, indices):
    configs = [standard_configs()[i] for i in indices]
    fitted = list(fit_configs(docs, configs, val_docs))
    assert len(fitted) == len(configs)
    for config, (model, train, val) in zip(configs, fitted):
        word_vocab = build_word_vocab(docs, config)
        char_vocab = build_char_vocab(docs, config)
        assert model.to_json() == oracles.reference_aggregate_json(
            docs, word_vocab, char_vocab, config.char_min, config.char_max, config
        )
        for matrix, rows in ((train, docs), (val, val_docs)):
            expected = [oracles.reference_transform_row(model, tokens) for tokens in rows]
            assert_csr_identical(matrix, oracles.reference_stack(expected, model.width))
        terms = model.char_vocab.terms()
        char_df = oracles.reference_char_df(docs, terms)
        assert [model.char_vocab.df[t] for t in terms] == [char_df[t] for t in terms]


def test_fit_configs_yields_the_error_of_each_config_it_cannot_fit():
    fitted = list(fit_configs([], standard_configs()[:2]))
    assert [type(f) for f in fitted] == [ValueError, ValueError]
    assert "empty corpus" in str(fitted[0])
