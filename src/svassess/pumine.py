"""Security Q&A mining stack: keyword content filtering with per-site
thresholds, centroid-based two-stage positive/unlabeled learning over
document embeddings, and topic-matrix aggregation (shares, expertise
scores, topic assignment).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import QA_SITES
from .models import ClassifierSpec, TrainedModel, predict, train_classifier
from .porter import porter_stem

FILTER_STEPS = (1, 2)
EXACT_MATCH_MAX_LEN = 3
TOPIC_THRESHOLD = 0.1

DEFAULT_FILTER_THRESHOLDS = {
    ("SO", 1): (1, 0.011),
    ("SO", 2): (3, 0.017),
    ("SSE", 1): (2, 0.017),
    ("SSE", 2): (3, 0.025),
}


@dataclass(frozen=True)
class KeywordSet:
    """Lowercase keywords; match mode follows keyword length: up to 3
    characters require an exact token match, longer keywords match as
    substrings of a token."""

    keywords: frozenset[str]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("keyword set must not be empty")
        for kw in self.keywords:
            if not kw or kw != kw.lower():
                raise ValueError(f"keyword {kw!r} must be non-empty lowercase")

    def matches(self, token: str) -> bool:
        for kw in self.keywords:
            if len(kw) <= EXACT_MATCH_MAX_LEN:
                if token == kw:
                    return True
            elif kw in token:
                return True
        return False


def load_keywords(lines) -> KeywordSet:
    """One keyword per line, lowercased and stemmed; blank lines skipped."""
    kws = set()
    for line in lines:
        word = line.strip().lower()
        if word:
            kws.add(porter_stem(word))
    return KeywordSet(frozenset(kws))


@dataclass(frozen=True)
class ContentFilterConfig:
    thresholds: dict[tuple[str, int], tuple[int, float]] = field(
        default_factory=lambda: dict(DEFAULT_FILTER_THRESHOLDS)
    )

    def __post_init__(self):
        for key, (a, b) in self.thresholds.items():
            if key[0] not in QA_SITES or key[1] not in FILTER_STEPS:
                raise ValueError(f"unknown site/step pair {key!r}")
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"{key}: min count must be a non-negative integer")
            if not (0.0 <= b <= 1.0):
                raise ValueError(f"{key}: min ratio must lie in [0, 1]")

    def lookup(self, site: str, step: int) -> tuple[int, float]:
        try:
            return self.thresholds[(site, step)]
        except KeyError:
            raise ValueError(f"no thresholds for site {site!r} step {step!r}") from None

    def to_dict(self) -> dict:
        out: dict[str, dict[str, list]] = {}
        for (site, step), (a, b) in sorted(self.thresholds.items()):
            out.setdefault(site, {})[str(step)] = [a, b]
        return out


def keyword_metrics(text: str, keywords: KeywordSet) -> tuple[int, float]:
    """(matched word positions, matched / total words) for one post.

    Tokenization is a whitespace split of the lowercased text; a position
    matched by several keywords still counts once.
    """
    tokens = text.lower().split()
    if not tokens:
        raise ValueError("post has no words")
    count = sum(1 for tok in tokens if keywords.matches(tok))
    return count, count / len(tokens)


def _kept_with_metrics(posts, site, step, config, keywords):
    """(post, count, ratio) for each post passing both thresholds
    (inclusive) for the site and step."""
    min_count, min_ratio = config.lookup(site, step)
    for post in posts:
        count, ratio = keyword_metrics(post.text, keywords)
        if count >= min_count and ratio >= min_ratio:
            yield post, count, ratio


def content_filter(posts, site: str, step: int, config: ContentFilterConfig, keywords: KeywordSet):
    """Posts passing both thresholds (inclusive) for the site and step."""
    return [post for post, _, _ in _kept_with_metrics(posts, site, step, config, keywords)]


def content_filter_jsonl(posts, site, step, config, keywords) -> str:
    """JSONL of the kept posts, annotated with their keyword metrics."""
    lines = []
    for post, count, ratio in _kept_with_metrics(posts, site, step, config, keywords):
        lines.append(
            json.dumps(
                {"id": post.id, "site": post.site, "kw_count": count, "kw_ratio": ratio},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Two-stage positive/unlabeled learning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PuConfig:
    alpha: float
    embedding_tag: str
    stage2: ClassifierSpec

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and non-negative")


def cosine_distance(x: np.ndarray, y: np.ndarray, name: str = "vector") -> float:
    """1 - cosine similarity, in [0, 2]; zero-norm input is an error."""
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError(f"{name}: zero-norm vector has no direction")
    return 1.0 - float(np.dot(x, y)) / (nx * ny)


def _stack(vectors, label: str) -> np.ndarray:
    arr = np.asarray([np.asarray(v, dtype=float) for v in vectors])
    if arr.ndim != 2:
        raise ValueError(f"{label}: vectors must share one length")
    norms = np.linalg.norm(arr, axis=1)
    for i in np.flatnonzero(norms == 0.0):
        raise ValueError(f"{label}[{int(i)}]: zero-norm vector has no direction")
    return arr


def reliable_negatives(p_vectors, u_vectors, alpha: float):
    """Indices of unlabeled vectors closer (in cosine distance, scaled by
    alpha) to the unlabeled centroid than to the positive one.

    Centroids are plain arithmetic means.  Only unlabeled records are
    eligible, and the condition d(x, c_U) < alpha * d(x, c_P) is strict,
    so alpha = 0 selects nothing.
    """
    if len(p_vectors) == 0 or len(u_vectors) == 0:
        raise ValueError("need non-empty positive and unlabeled sets")
    p = _stack(p_vectors, "P")
    u = _stack(u_vectors, "U")
    if p.shape[1] != u.shape[1]:
        raise ValueError("positive and unlabeled vectors differ in length")
    centroid_p = p.mean(axis=0)
    centroid_u = u.mean(axis=0)
    out = []
    for i, x in enumerate(u):
        d_u = cosine_distance(x, centroid_u, name=f"centroid of U vs U[{i}]")
        d_p = cosine_distance(x, centroid_p, name=f"centroid of P vs U[{i}]")
        if d_u < alpha * d_p:
            out.append(i)
    return out


def update_centroid(old: np.ndarray, n: int, new_vectors) -> np.ndarray:
    """Incremental mean: (old*n + sum(new)) / (n + len(new))."""
    if n < 1:
        raise ValueError("existing count must be at least 1")
    old = np.asarray(old, dtype=float)
    new_list = [np.asarray(v, dtype=float) for v in new_vectors]
    if not new_list:
        return old.copy()
    for v in new_list:
        if v.shape != old.shape:
            raise ValueError(
                f"vector of shape {v.shape} cannot update centroid of shape {old.shape}"
            )
    total = old * n + np.sum(new_list, axis=0)
    return total / (n + len(new_list))


@dataclass
class PuModel:
    model: TrainedModel
    alpha: float
    embedding_tag: str
    rn_indices: list[int]


def pu_train(p_vectors, u_vectors, config: PuConfig) -> PuModel:
    """Stage 1 picks reliable negatives by the centroid rule; stage 2
    trains the configured binary classifier on positives vs those."""
    rn = reliable_negatives(p_vectors, u_vectors, config.alpha)
    if not rn:
        raise ValueError(
            f"no reliable negatives at alpha={config.alpha}; increase alpha"
        )
    u = [np.asarray(u_vectors[i], dtype=float) for i in rn]
    p = [np.asarray(v, dtype=float) for v in p_vectors]
    features = np.asarray(p + u)
    labels = ["positive"] * len(p) + ["negative"] * len(u)
    model = train_classifier(config.stage2, features, labels)
    return PuModel(
        model=model, alpha=config.alpha, embedding_tag=config.embedding_tag, rn_indices=rn
    )


def pu_predict(pu_model: PuModel, vectors) -> list[str]:
    labels, _ = predict(pu_model.model, np.asarray(vectors, dtype=float))
    return labels


# ---------------------------------------------------------------------------
# Topic-matrix aggregation
# ---------------------------------------------------------------------------


def _check_theta(theta: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.size == 0:
        raise ValueError("theta must be a non-empty post x topic matrix")
    if (theta < 0).any():
        raise ValueError("theta entries must be non-negative")
    sums = theta.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
    if bad.size:
        raise ValueError(f"theta row {int(bad[0])} sums to {sums[bad[0]]!r}, not 1")
    return theta


def topic_share(theta) -> np.ndarray:
    """Per-topic mean probability over posts (column means)."""
    return _check_theta(theta).mean(axis=0)


def specific_expertise(question_theta, knowledge_theta, answerer_of: dict) -> np.ndarray:
    """Per-topic score: sum over posts of the question row times the
    accepted answerer's knowledge row, topic-wise.

    Posts without a usable answerer row are skipped; one warning reports
    how many were dropped.
    """
    q = _check_theta(question_theta)
    k = _check_theta(knowledge_theta)
    if q.shape[1] != k.shape[1]:
        raise ValueError("question and knowledge matrices differ in topic count")
    score = np.zeros(q.shape[1])
    skipped = 0
    for p in range(q.shape[0]):
        a = answerer_of.get(p)
        if a is None or not (0 <= a < k.shape[0]):
            skipped += 1
            continue
        score += q[p] * k[a]
    if skipped:
        warnings.warn(f"skipped {skipped} post(s) without an answerer row")
    return score


def assign_topics(theta_row, threshold: float = TOPIC_THRESHOLD) -> set[int]:
    """Topics whose probability reaches the threshold (inclusive)."""
    row = np.asarray(theta_row, dtype=float)
    if row.ndim != 1:
        raise ValueError("expected a single theta row")
    return {int(i) for i in np.flatnonzero(row >= threshold)}


def load_theta_csv(text: str) -> tuple[list[str], np.ndarray]:
    """CSV with a leading post-id column; remaining columns are topic
    probabilities.  Returns (ids, matrix)."""
    ids = []
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty theta CSV")
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: need an id and at least one topic")
        ids.append(parts[0])
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric topic value") from None
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("inconsistent topic counts across rows")
    return ids, np.asarray(rows, dtype=float)
