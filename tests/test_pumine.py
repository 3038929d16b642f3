import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from svassess.corpus import QaPost
from svassess.models import ClassifierSpec
from svassess.pumine import (
    ContentFilterConfig,
    KeywordSet,
    PuConfig,
    assign_topics,
    content_filter,
    content_filter_jsonl,
    cosine_distance,
    keyword_metrics,
    load_keywords,
    load_theta_csv,
    pu_predict,
    pu_train,
    reliable_negatives,
    specific_expertise,
    topic_share,
    update_centroid,
)


def make_post(text, post_id="p1", site="SO", label="unlabeled"):
    return QaPost(
        id=post_id,
        site=site,
        title=text,
        body="",
        answers="",
        tags=frozenset(),
        label=label,
    )


SECURITY_KWS = KeywordSet(frozenset({"inject", "xss", "overflow"}))


# ---------------------------------------------------------------------------
# Keywords and filtering
# ---------------------------------------------------------------------------

def test_keyword_set_validation():
    with pytest.raises(ValueError):
        KeywordSet(frozenset())
    with pytest.raises(ValueError):
        KeywordSet(frozenset({"XSS"}))
    with pytest.raises(ValueError):
        KeywordSet(frozenset({""}))


def test_load_keywords_stems_and_lowercases():
    kws = load_keywords(["Injection", "overflow", "", "  attacks  "])
    assert kws.keywords == frozenset({"inject", "overflow", "attack"})


def test_keyword_metrics_formula():
    text = " ".join(["word"] * 97 + ["inject", "xss", "overflow"])
    count, ratio = keyword_metrics(text, SECURITY_KWS)
    assert (count, ratio) == (3, 0.03)


def test_long_keyword_matches_substring():
    count, _ = keyword_metrics("avoid sql-injection here", SECURITY_KWS)
    assert count == 1


def test_three_char_keyword_is_exact():
    count, _ = keyword_metrics("xssless is not xss", SECURITY_KWS)
    assert count == 1  # only the standalone token


def test_position_matched_by_two_keywords_counts_once():
    kws = KeywordSet(frozenset({"inject", "sql"}))
    count, ratio = keyword_metrics("sql-injection bug", kws)
    assert count == 1
    assert ratio == 0.5


def test_keyword_metrics_empty_post_errors():
    with pytest.raises(ValueError):
        keyword_metrics("   ", SECURITY_KWS)


def test_filter_defaults_match_threshold_table():
    cfg = ContentFilterConfig()
    assert cfg.lookup("SO", 1) == (1, 0.011)
    assert cfg.lookup("SO", 2) == (3, 0.017)
    assert cfg.lookup("SSE", 1) == (2, 0.017)
    assert cfg.lookup("SSE", 2) == (3, 0.025)
    assert cfg.to_dict() == {
        "SO": {"1": [1, 0.011], "2": [3, 0.017]},
        "SSE": {"1": [2, 0.017], "2": [3, 0.025]},
    }


def test_filter_boundary_is_inclusive():
    # exactly (1, 0.011): 11 matches in 1000 words
    text = " ".join(["pad"] * 989 + ["xss"] * 11)
    post = make_post(text)
    count, ratio = keyword_metrics(post.text, SECURITY_KWS)
    assert (count, ratio) == (11, 0.011)
    kept = content_filter([post], "SO", 1, ContentFilterConfig(), SECURITY_KWS)
    assert kept == [post]


def test_filter_drops_on_count_and_on_ratio():
    no_match = make_post("plain words only here")
    diluted = make_post(" ".join(["pad"] * 4995 + ["xss"] * 5))  # ratio 0.001
    kept = content_filter(
        [no_match, diluted], "SO", 1, ContentFilterConfig(), SECURITY_KWS
    )
    assert kept == []


def test_filter_unknown_site_or_step():
    cfg = ContentFilterConfig()
    with pytest.raises(ValueError):
        content_filter([], "SX", 1, cfg, SECURITY_KWS)
    with pytest.raises(ValueError):
        content_filter([], "SO", 3, cfg, SECURITY_KWS)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        ContentFilterConfig({("SO", 1): (-1, 0.5)})
    with pytest.raises(ValueError):
        ContentFilterConfig({("SO", 1): (1, 1.5)})
    with pytest.raises(ValueError):
        ContentFilterConfig({("XX", 1): (1, 0.5)})


def test_filter_jsonl_annotations():
    import json

    post = make_post("fix the xss now", post_id="q7")
    text = content_filter_jsonl([post], "SO", 1, ContentFilterConfig(), SECURITY_KWS)
    row = json.loads(text.strip())
    assert row == {"id": "q7", "site": "SO", "kw_count": 1, "kw_ratio": 0.25}


def test_filter_jsonl_scores_each_post_once(monkeypatch):
    import json

    import svassess.pumine as pumine

    texts = []
    real = pumine.keyword_metrics

    def counting(text, keywords):
        texts.append(text)
        return real(text, keywords)

    monkeypatch.setattr(pumine, "keyword_metrics", counting)
    posts = [make_post("fix the xss now", post_id="q1"), make_post("plain words", post_id="q2")]
    text = content_filter_jsonl(posts, "SO", 1, ContentFilterConfig(), SECURITY_KWS)
    assert [json.loads(line)["id"] for line in text.splitlines()] == ["q1"]
    assert texts == [post.text for post in posts]


# ---------------------------------------------------------------------------
# Stage-1 PU: reliable negatives
# ---------------------------------------------------------------------------

def test_cosine_distance_range_and_extremes():
    x = np.array([1.0, 2.0, -3.0])
    assert cosine_distance(x, x) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(x, -x) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        cosine_distance(x, np.zeros(3))


def test_reliable_negatives_hand_example():
    p = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    u = [
        np.array([-0.9, 0.1]),
        np.array([-1.1, -0.1]),
        np.array([0.9, 0.1]),
        np.array([-0.9, -0.1]),
    ]
    assert reliable_negatives(p, u, alpha=1.0) == [0, 1, 3]


def test_alpha_zero_selects_nothing():
    p = [np.array([1.0, 0.0])]
    u = [np.array([-1.0, 0.0]), np.array([0.5, 0.5])]
    assert reliable_negatives(p, u, alpha=0.0) == []


def test_vector_on_unlabeled_centroid_is_selected():
    p = [np.array([1.0, 0.0])]
    u = [np.array([-2.0, 0.0]), np.array([-4.0, 0.0])]
    # both u vectors point exactly along the centroid: d(x, c_U) = 0
    assert reliable_negatives(p, u, alpha=0.5) == [0, 1]


def test_zero_norm_vector_error_names_record():
    p = [np.array([1.0, 0.0])]
    u = [np.array([1.0, 1.0]), np.zeros(2)]
    with pytest.raises(ValueError, match=r"U\[1\]"):
        reliable_negatives(p, u, alpha=1.0)
    with pytest.raises(ValueError, match=r"P\[0\]"):
        reliable_negatives([np.zeros(2)], u[:1], alpha=1.0)


def test_reliable_negatives_condition_recheckable():
    rng = np.random.default_rng(5)
    p = rng.normal(1.0, 1.0, size=(20, 6))
    u = rng.normal(-0.5, 1.5, size=(30, 6))
    alpha = 0.8
    rn = reliable_negatives(list(p), list(u), alpha)
    c_p = p.mean(axis=0)
    c_u = u.mean(axis=0)
    for i in range(len(u)):
        holds = cosine_distance(u[i], c_u) < alpha * cosine_distance(u[i], c_p)
        assert (i in rn) == holds


@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_reliable_negatives_monotone_in_alpha(seed, a1, a2):
    lo, hi = sorted((a1, a2))
    rng = np.random.default_rng(seed)
    p = rng.normal(0.5, 1.0, size=(5, 4))
    u = rng.normal(-0.5, 1.0, size=(8, 4))
    if (np.linalg.norm(p, axis=1) == 0).any() or (np.linalg.norm(u, axis=1) == 0).any():
        return
    assert set(reliable_negatives(list(p), list(u), lo)) <= set(
        reliable_negatives(list(p), list(u), hi)
    )


# ---------------------------------------------------------------------------
# Incremental centroid
# ---------------------------------------------------------------------------

def test_update_centroid_example():
    out = update_centroid(np.array([1.0, 1.0]), 2, [np.array([4.0, 4.0])])
    np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-12)


def test_update_centroid_empty_batch_unchanged():
    old = np.array([3.0, -1.0])
    np.testing.assert_array_equal(update_centroid(old, 5, []), old)


def test_update_centroid_dimension_mismatch():
    with pytest.raises(ValueError):
        update_centroid(np.zeros(2), 1, [np.zeros(3)])
    with pytest.raises(ValueError):
        update_centroid(np.zeros(2), 0, [np.zeros(2)])


def test_incremental_centroid_tracks_batch_mean():
    rng = np.random.default_rng(11)
    seen = [rng.normal(size=4)]
    centroid = seen[0].copy()
    for _ in range(400):
        batch = [rng.normal(size=4) for _ in range(rng.integers(1, 4))]
        centroid = update_centroid(centroid, len(seen), batch)
        seen.extend(batch)
        np.testing.assert_allclose(
            centroid, oracles.batch_centroid(seen), atol=1e-9
        )


# ---------------------------------------------------------------------------
# Stage-2 PU training
# ---------------------------------------------------------------------------

def mirrored_clusters(rng, n_pos=40, n_u_pos=20, n_u_neg=40, dim=6):
    pos = rng.normal(3.0, 1.0, size=(n_pos, dim))
    u_pos = rng.normal(3.0, 1.0, size=(n_u_pos, dim))
    u_neg = rng.normal(-3.0, 1.0, size=(n_u_neg, dim))
    u = np.vstack([u_pos, u_neg])
    return pos, u


def pu_config(alpha=1.0):
    return PuConfig(
        alpha=alpha,
        embedding_tag="lsa-tfidf",
        stage2=ClassifierSpec(kind="logistic_regression", c=1.0),
    )


def test_pu_train_separates_held_out_positives():
    rng = np.random.default_rng(3)
    pos, u = mirrored_clusters(rng)
    held_out = rng.normal(3.0, 1.0, size=(30, 6))
    model = pu_train(list(pos), list(u), pu_config(alpha=1.0))
    preds = pu_predict(model, held_out)
    recall = sum(p == "positive" for p in preds) / len(preds)
    assert recall >= 0.9
    assert model.alpha == 1.0
    assert model.embedding_tag == "lsa-tfidf"


def test_pu_train_empty_rn_advises_larger_alpha():
    rng = np.random.default_rng(4)
    pos, u = mirrored_clusters(rng)
    with pytest.raises(ValueError, match="increase alpha"):
        pu_train(list(pos), list(u), pu_config(alpha=0.0))


def test_huge_alpha_sweeps_in_unlabeled_positives():
    rng = np.random.default_rng(6)
    pos, u = mirrored_clusters(rng)
    tight = set(reliable_negatives(list(pos), list(u), 1.0))
    loose = set(reliable_negatives(list(pos), list(u), 50.0))
    assert tight <= loose
    # the permissive alpha absorbs unlabeled positives (indices < 20)
    assert len(loose & set(range(20))) > len(tight & set(range(20)))


def test_pu_config_validation():
    with pytest.raises(ValueError):
        pu_config(alpha=-1.0)
    with pytest.raises(ValueError):
        pu_config(alpha=float("nan"))


# ---------------------------------------------------------------------------
# Topic aggregation
# ---------------------------------------------------------------------------

def test_topic_share_example():
    theta = np.array([[0.6, 0.4], [0.2, 0.8]])
    np.testing.assert_allclose(topic_share(theta), [0.4, 0.6], atol=1e-12)


def test_topic_share_single_post_is_its_row():
    row = np.array([[0.25, 0.75]])
    np.testing.assert_allclose(topic_share(row), row[0], atol=1e-12)


def test_topic_share_is_probability_vector():
    rng = np.random.default_rng(8)
    theta = rng.dirichlet(np.ones(5), size=30)
    share = topic_share(theta)
    assert abs(share.sum() - 1.0) <= 1e-9
    assert (share >= 0).all()


def test_topic_share_rejects_bad_rows():
    with pytest.raises(ValueError):
        topic_share(np.array([[0.7, 0.2]]))  # does not sum to 1
    with pytest.raises(ValueError):
        topic_share(np.array([[1.2, -0.2]]))  # negative entry


def test_specific_expertise_single_post():
    q = np.array([[1.0, 0.0]])
    k = np.array([[0.3, 0.7]])
    np.testing.assert_allclose(
        specific_expertise(q, k, {0: 0}), [0.3, 0.0], atol=1e-12
    )


def test_specific_expertise_uniform():
    q = np.array([[0.5, 0.5]])
    k = np.array([[0.5, 0.5]])
    np.testing.assert_allclose(
        specific_expertise(q, k, {0: 0}), [0.25, 0.25], atol=1e-12
    )


def test_specific_expertise_additive_over_posts():
    q = np.array([[0.4, 0.6], [0.4, 0.6]])
    k = np.array([[0.9, 0.1]])
    single = specific_expertise(q[:1], k, {0: 0})
    double = specific_expertise(q, k, {0: 0, 1: 0})
    np.testing.assert_allclose(double, 2 * single, atol=1e-12)


def test_specific_expertise_skips_missing_answerer_with_warning():
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[0.3, 0.7]])
    with pytest.warns(UserWarning, match="1 post"):
        score = specific_expertise(q, k, {0: 0, 1: 5})
    np.testing.assert_allclose(score, [0.3, 0.0], atol=1e-12)


def test_assign_topics_threshold():
    assert assign_topics(np.array([0.95, 0.05])) == {0}
    assert assign_topics(np.array([0.5, 0.5])) == {0, 1}
    assert assign_topics(np.full(12, 1 / 12)) == set()
    assert assign_topics(np.array([0.1, 0.9])) == {0, 1}  # inclusive


def test_load_theta_csv():
    ids, theta = load_theta_csv("post,t0,t1\nq1,0.6,0.4\nq2,0.2,0.8\n")
    assert ids == ["q1", "q2"]
    np.testing.assert_allclose(theta, [[0.6, 0.4], [0.2, 0.8]])
    with pytest.raises(ValueError, match="line 2"):
        load_theta_csv("post,t0\nq1,oops\n")
    with pytest.raises(ValueError):
        load_theta_csv("")
