import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svassess.drift import (
    DriftReport,
    char_coverage,
    drift_report,
    find_all_zero_cases,
    new_terms_by_year,
)
from svassess.features import (
    FeatureModel,
    NlpConfig,
    Vocabulary,
    aggregate_char_word,
    build_char_vocab,
    build_word_vocab,
    fit_configs,
    standard_configs,
    transform_many,
)

import oracles


def word_model(docs, **kw):
    config = NlpConfig(**kw)
    vocab = build_word_vocab(docs, config)
    model, _ = aggregate_char_word(docs, vocab, Vocabulary({}, {}), 2, 6, config)
    return model


def char_model(docs, lo, hi):
    config = NlpConfig(char_min=lo, char_max=hi)
    cvocab = build_char_vocab(docs, config)
    model, _ = aggregate_char_word(docs, Vocabulary({}, {}), cvocab, lo, hi, config)
    return model


def test_new_terms_counts_first_appearances_only():
    docs = [(2000, ["a", "b"]), (2001, ["b", "c"])]
    assert new_terms_by_year(docs) == {2001: 1}


def test_new_terms_single_year_empty():
    assert new_terms_by_year([(2005, ["a", "b", "c"])]) == {}
    assert new_terms_by_year([]) == {}


def test_new_terms_reappearance_not_recounted():
    docs = [(2000, ["a"]), (2001, ["b"]), (2002, ["b", "a", "c"])]
    assert new_terms_by_year(docs) == {2001: 1, 2002: 1}


def test_new_terms_years_with_nothing_new_report_zero():
    docs = [(2000, ["a"]), (2001, ["a"]), (2002, ["z"])]
    assert new_terms_by_year(docs) == {2001: 0, 2002: 1}


def test_new_terms_order_of_docs_is_irrelevant():
    docs = [(2002, ["x", "a"]), (2000, ["a"]), (2001, ["y"])]
    assert new_terms_by_year(docs) == {2001: 1, 2002: 1}


def test_all_zero_detection():
    model = word_model([["alpha", "beta"], ["alpha", "gamma"]])
    docs = [
        ("hit", ["alpha", "zzz"]),
        ("miss", ["zzz", "qqq"]),
        ("empty", []),
    ]
    assert find_all_zero_cases(model, docs) == ["miss", "empty"]


def test_all_zero_disjoint_from_covered():
    model = word_model([["one", "two"], ["one", "three"]])
    docs = [("a", ["one"]), ("b", ["seven"]), ("c", ["two", "seven"])]
    zero = set(find_all_zero_cases(model, docs))
    covered = {rid for rid, toks in docs if set(toks) & set(model.word_vocab.index)}
    assert zero & covered == set()


def test_vocab_growth_never_grows_zero_set():
    small = word_model([["one", "two"], ["one", "two"]])
    big = word_model([["one", "two"], ["one", "two"], ["three", "four"],
                      ["three", "four"], ["five", "six"], ["five", "six"]])
    docs = [("a", ["three"]), ("b", ["five", "one"]), ("c", ["nine"])]
    small_zero = set(find_all_zero_cases(small, docs))
    big_zero = set(find_all_zero_cases(big, docs))
    assert big_zero <= small_zero


def test_char_coverage_full_and_partial():
    model = char_model([["shared", "words"], ["shared", "words"]], 2, 3)
    assert char_coverage(model, [["shared"], ["words"], ["sha"]]) == 1.0
    # Greek-only doc shares no 2-grams with the latin corpus
    partial = char_coverage(model, [["shared"], ["ψψψ"]])
    assert partial == 0.5
    with pytest.raises(ValueError):
        char_coverage(model, [])


def test_drift_report_bundles_everything():
    corpus = [["vuln", "overflow"], ["vuln", "crash"]]
    model = word_model(corpus)
    dated = [
        ("r1", 2010, ["vuln", "new"]),
        ("r2", 2011, ["fresh", "overflow"]),
        ("r3", 2012, ["nothing", "matches"]),
    ]
    support = np.diff(transform_many(model, [tokens for _, _, tokens in dated]).indptr)
    report = drift_report(dated, support)
    assert report.new_terms == {2011: 2, 2012: 2}
    assert report.all_zero_ids == ["r3"]
    assert report.coverage_by_year == {2010: 1.0, 2011: 1.0, 2012: 0.0}
    payload = json.loads(report.to_json())
    assert payload["new_terms"] == {"2011": 2, "2012": 2}
    assert report.new_terms_csv().startswith("year,new_terms\n2011,2\n")


def test_drift_report_rejects_support_of_another_length():
    with pytest.raises(ValueError, match="support has 1 entries for 2 docs"):
        drift_report([("r1", 2010, ["a"]), ("r2", 2011, ["b"])], [1])


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.tuples(
            st.integers(2000, 2005),
            st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5),
        ),
        max_size=20,
    )
)
def test_property_new_term_counts_bounded_by_vocabulary(docs):
    counts = new_terms_by_year(docs)
    assert all(c >= 0 for c in counts.values())
    distinct = {t for _, tokens in docs for t in tokens}
    assert sum(counts.values()) <= len(distinct)
    if docs:
        assert min({y for y, _ in docs}, default=None) not in counts


@settings(max_examples=50, deadline=None)
@given(
    train=st.lists(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), max_size=5),
        min_size=1,
        max_size=8,
    ),
    dated=st.lists(
        st.tuples(
            st.integers(2000, 2003),
            st.lists(st.text(alphabet="abcdxy", min_size=1, max_size=4), max_size=5),
        ),
        max_size=12,
    ),
    index=st.integers(0, 7),
)
def test_property_drift_report_agrees_with_per_doc_diagnostics(train, dated, index):
    # the support of the validation matrix of the fit, as `drift` reads it
    config = standard_configs()[index]
    triples = [(f"r{i}", year, tokens) for i, (year, tokens) in enumerate(dated)]
    [(model, _, held_out)] = fit_configs(train, [config], [tokens for _, tokens in dated])
    report = drift_report(triples, np.diff(held_out.indptr))
    pairs = [(rid, tokens) for rid, _, tokens in triples]
    assert report.all_zero_ids == find_all_zero_cases(model, pairs)
    assert report.all_zero_ids == [
        rid for rid, tokens in pairs if not oracles.reference_transform_row(model, tokens)[0]
    ]
    years = sorted({year for _, year, _ in triples})
    assert list(report.coverage_by_year) == years
    for year in years:
        docs = [tokens for _, y, tokens in triples if y == year]
        assert report.coverage_by_year[year] == char_coverage(model, docs)
