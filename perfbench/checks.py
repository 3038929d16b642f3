"""Correctness checks on the program's outputs.

Every check recomputes its expectation apart from the program (from the
generated inputs, or from a property the method must have) and returns
a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import svds

SCORE_TOL = 1e-12
SVD_REL_TOL = 1e-6
ORTHO_TOL = 1e-10
GRAD_REL_TOL = 1e-4


def _scores_from_confusion(conf: list[list[int]]) -> dict[str, float]:
    """Accuracy, macro/weighted F1 and multi-class MCC of a confusion
    matrix (rows gold, columns predicted)."""
    m = len(conf)
    n = sum(map(sum, conf))
    gold = [sum(conf[i]) for i in range(m)]
    pred = [sum(conf[r][i] for r in range(m)) for i in range(m)]
    diag = [conf[i][i] for i in range(m)]
    f1 = []
    for i in range(m):
        p = diag[i] / pred[i] if pred[i] else 0.0
        r = diag[i] / gold[i] if gold[i] else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    c = sum(diag)
    cov = c * n - sum(p * t for p, t in zip(pred, gold))
    den = math.sqrt((n * n - sum(p * p for p in pred)) * (n * n - sum(t * t for t in gold)))
    return {
        "accuracy": c / n,
        "macro_f1": sum(f1) / m,
        "weighted_f1": sum(f * g for f, g in zip(f1, gold)) / n,
        "mcc": cov / den if den else 0.0,
    }


def _val_years(records: list[dict], k: int) -> list[int]:
    return sorted({int(r["date"][:4]) for r in records})[-k:]


def fold_supports_and_scores(out: Path, records: list[dict], k: int) -> list[str]:
    """metrics.json: each fold's confusion rows sum to the validation
    year's class counts, and its scores follow from its confusion."""
    problems = []
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    years = _val_years(records, k)
    for task, entry in metrics.items():
        if len(entry["folds"]) != k:
            problems.append(f"{task}: {len(entry['folds'])} folds, expected {k}")
            continue
        for year, fold in zip(years, entry["folds"]):
            counts = Counter(r["labels"][task] for r in records if int(r["date"][:4]) == year)
            rows = dict(zip(fold["classes"], map(sum, fold["confusion"])))
            for cls in set(rows) | set(counts):
                if rows.get(cls, 0) != counts.get(cls, 0):
                    problems.append(f"{task} {year}: support of {cls} is {rows.get(cls, 0)}, expected {counts.get(cls, 0)}")
            for key, value in _scores_from_confusion(fold["confusion"]).items():
                if abs(fold[key] - value) > SCORE_TOL:
                    problems.append(f"{task} {year}: {key} {fold[key]!r} != recomputed {value!r}")
    return problems


def only_planted_misclassified(out: Path, records: list[dict], k: int, planted: set[str]) -> list[str]:
    """Each fold's confusion is exactly: every record right, except the
    planted ones, whose all-zero vectors naive Bayes must give the class
    with the largest training prior (ties to the first class name)."""
    problems = []
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    for i, year in enumerate(_val_years(records, k)):
        train = [r for r in records if int(r["date"][:4]) < year]
        val = [r for r in records if int(r["date"][:4]) == year]
        for task, entry in metrics.items():
            prior = Counter(r["labels"][task] for r in train)
            fallback = min(prior, key=lambda c: (-prior[c], c))
            pairs = [
                (r["labels"][task], fallback if r["id"] in planted else r["labels"][task])
                for r in val
            ]
            classes = sorted({c for pair in pairs for c in pair})
            expected = [[0] * len(classes) for _ in classes]
            for g, p in pairs:
                expected[classes.index(g)][classes.index(p)] += 1
            fold = entry["folds"][i]
            if fold["classes"] != classes or fold["confusion"] != expected:
                problems.append(f"{task} {year}: confusion {fold['confusion']} over {fold['classes']}, "
                                f"expected {expected} over {classes}")
    return problems


def grid_has_no_errors(out: Path, k: int) -> list[str]:
    problems = []
    paths = sorted(out.glob("grid_*.csv"))
    if not paths:
        problems.append("no grid tables written")
    for path in paths:
        for row in csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))):
            if row["error"] or int(row["n_folds"]) != k:
                problems.append(f"{path.name}: {row['config']} failed: {row['error']!r}")
    return problems


def drift_matches(out: Path, records: list[dict], token_docs: dict[str, list[str]], planted: list[str]) -> list[str]:
    """new_terms from first-seen years of the tokens; all-zero ids are
    exactly the planted records; coverage x records = records - all-zero."""
    problems = []
    report = json.loads((out / "drift.json").read_text(encoding="utf-8"))
    first_seen: dict[str, int] = {}
    for r in records:  # records are in date order
        for term in token_docs[r["id"]]:
            first_seen.setdefault(term, int(r["date"][:4]))
    start = min(first_seen.values())
    years = sorted({int(r["date"][:4]) for r in records})
    expected = {str(y): 0 for y in years if y > start}
    for year in first_seen.values():
        if year > start:
            expected[str(year)] += 1
    if report["new_terms"] != expected:
        problems.append(f"new_terms {report['new_terms']} != {expected}")
    zero = report["all_zero_ids"]
    if len(zero) != len(set(zero)) or set(zero) != set(planted):
        problems.append(f"all_zero_ids {zero} != planted {planted}")
    per_year = Counter(int(r["date"][:4]) for r in records)
    zero_year = Counter(int(r["date"][:4]) for r in records if r["id"] in set(zero))
    for year, n in per_year.items():
        covered = report["coverage_by_year"][str(year)] * n
        if abs(covered - (n - zero_year[year])) > 1e-9 * n:
            problems.append(f"{year}: coverage x records = {covered}, expected {n - zero_year[year]}")
    return problems


def lsa_is_sound(model, projected: np.ndarray, mat) -> list[str]:
    """Orthonormal components, non-increasing singular values that agree
    with scipy's svds, and projections equal to X @ components."""
    problems = []
    c = model.components
    gram_err = np.abs(c.T @ c - np.eye(model.k)).max()
    if gram_err > ORTHO_TOL:
        problems.append(f"components not orthonormal: max |C'C - I| = {gram_err:.3e}")
    s = model.singular_values
    if np.any(np.diff(s) > 0):
        problems.append(f"singular values increase: {s}")
    reference = np.sort(svds(mat.astype(float), k=model.k, random_state=0)[1])[::-1]
    rel = np.abs(s - reference) / reference
    if rel.max() > SVD_REL_TOL:
        problems.append(f"singular values differ from svds by {rel.max():.3e} (relative)")
    if not np.allclose(projected, mat @ c, rtol=1e-12, atol=1e-12):
        problems.append("lsa_transform_many differs from X @ components")
    return problems


def gradients_agree(neural, params, config, samples, rng, entries_per_block: int = 3) -> list[str]:
    """Central differences of the summed cross-entropy against backward,
    on sampled entries of every parameter block."""
    problems = []
    h = 1e-5

    def loss(inp, gold):
        _, cache = neural.forward(params, config, inp)
        return -sum(math.log(cache["probs"][t][gold[t]]) for t in gold)

    for inp, gold in samples:
        _, cache = neural.forward(params, config, inp)
        grads = neural.backward(params, config, cache, gold)
        used = np.unique(np.concatenate(inp.sequences()))
        for name in params.names():
            arr = params.data[name]
            flat = arr.reshape(-1)
            if name == "embedding":
                rows = rng.choice(used, size=entries_per_block)
                picks = rows * arr.shape[1] + rng.integers(arr.shape[1], size=entries_per_block)
            else:
                picks = rng.integers(flat.size, size=entries_per_block)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + h
                up = loss(inp, gold)
                flat[i] = orig - h
                down = loss(inp, gold)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[name].reshape(-1)[i]
                # components that are ~0 are compared absolutely, since
                # central differences carry ~1e-11 of float64 roundoff
                err = abs(analytic - numeric) / max(1e-6, abs(analytic) + abs(numeric))
                if err > GRAD_REL_TOL:
                    problems.append(f"{name}[{i}]: backward {analytic:.6e} vs numeric {numeric:.6e}")
    return problems


def beats_majority(gold: list[dict], predicted: list[dict]) -> list[str]:
    problems = []
    for task in gold[0]:
        g = [x[task] for x in gold]
        acc = sum(p[task] == y for p, y in zip(predicted, g)) / len(g)
        majority = Counter(g).most_common(1)[0][1] / len(g)
        if not acc > majority:
            problems.append(f"{task}: held-out accuracy {acc:.3f} does not beat majority rate {majority:.3f}")
    return problems
