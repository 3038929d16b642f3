"""Time-aware data splitting, multi-class metrics, and grid ranking with
explicit model-selection policies.

Split protocols: per-year expanding-window validation, twelve
date-ordered folds with a sliding train/val/test frontier, and ten
shuffled folds with wrap-around val/test assignment.
"""

from __future__ import annotations

import datetime
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

PROTOCOLS = ("time_kfold", "rounds12", "rounds10_wrap")
POLICIES = ("ch3", "mcc")


@dataclass(frozen=True)
class SplitTuple:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...] | None = None


@dataclass
class SplitPlan:
    protocol: str
    tuples: list[SplitTuple]

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)


def _id_and_date(record) -> tuple[str, datetime.date]:
    if isinstance(record, tuple):
        rid, raw = record
    else:
        rid = record.id
        raw = getattr(record, "date", None)
        if raw is None:
            raw = record.published_date
    if isinstance(raw, str):
        raw = datetime.date.fromisoformat(raw)
    return str(rid), raw


def _sorted_by_date(records) -> list[tuple[str, datetime.date]]:
    pairs = [_id_and_date(r) for r in records]
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def time_kfold_splits(records, k: int) -> SplitPlan:
    """Each of the last k years validates once; training is every
    strictly earlier year.  The plan is chronological and independent of
    input order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    pairs = _sorted_by_date(records)
    years = sorted({d.year for _, d in pairs})
    if len(years) < k + 1:
        raise ValueError(
            f"need at least {k + 1} distinct years, found {len(years)}"
        )
    tuples = []
    for val_year in years[-k:]:
        train = tuple(rid for rid, d in pairs if d.year < val_year)
        val = tuple(rid for rid, d in pairs if d.year == val_year)
        tuples.append(SplitTuple(train_ids=train, val_ids=val))
    return SplitPlan(protocol="time_kfold", tuples=tuples)


def _near_equal_folds(n_items: int, n_folds: int) -> list[tuple[int, int]]:
    """Contiguous (start, end) ranges; the remainder goes to the latest
    folds so early folds are never the larger ones.
    """
    base, rem = divmod(n_items, n_folds)
    ranges = []
    start = 0
    for i in range(n_folds):
        size = base + (1 if i >= n_folds - rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def rounds12_splits(records) -> SplitPlan:
    """Sort by date (ties by id), cut twelve near-equal folds, then run
    ten rounds: train on folds 1..i, validate on i+1, test on i+2.
    """
    pairs = _sorted_by_date(records)
    if len(pairs) < 12:
        raise ValueError(f"need at least 12 records, found {len(pairs)}")
    ids = [rid for rid, _ in pairs]
    ranges = _near_equal_folds(len(ids), 12)
    folds = [tuple(ids[a:b]) for a, b in ranges]
    tuples = []
    for i in range(1, 11):
        train = tuple(x for f in folds[:i] for x in f)
        tuples.append(
            SplitTuple(train_ids=train, val_ids=folds[i], test_ids=folds[i + 1])
        )
    return SplitPlan(protocol="rounds12", tuples=tuples)


def rounds10_wrap_splits(records, seed: int = 0) -> SplitPlan:
    """Seeded shuffle into ten folds; round i validates on fold i+1 and
    tests on fold i+2, wrapping past the last fold; training is the rest.
    """
    pairs = _sorted_by_date(records)
    if len(pairs) < 10:
        raise ValueError(f"need at least 10 records, found {len(pairs)}")
    ids = [rid for rid, _ in pairs]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    ranges = _near_equal_folds(len(shuffled), 10)
    folds = [tuple(shuffled[a:b]) for a, b in ranges]
    tuples = []
    for i in range(10):
        val_idx = (i + 1) % 10
        test_idx = (i + 2) % 10
        train = tuple(
            x
            for j, f in enumerate(folds)
            if j not in (val_idx, test_idx)
            for x in f
        )
        tuples.append(
            SplitTuple(train_ids=train, val_ids=folds[val_idx], test_ids=folds[test_idx])
        )
    return SplitPlan(protocol="rounds10_wrap", tuples=tuples)


def check_temporal_order(plan: SplitPlan, records) -> list[str]:
    """Violation messages for tuples whose training dates do not strictly
    precede validation dates (and validation ≤ test).  Empty when clean.
    """
    dates = {rid: d for rid, d in (_id_and_date(r) for r in records)}
    problems = []
    for i, t in enumerate(plan.tuples, 1):
        if not t.train_ids or not t.val_ids:
            continue
        max_train = max(dates[r] for r in t.train_ids)
        min_val = min(dates[r] for r in t.val_ids)
        if not max_train < min_val:
            problems.append(f"tuple {i}: train reaches {max_train}, val starts {min_val}")
        if t.test_ids:
            min_test = min(dates[r] for r in t.test_ids)
            if not min_val <= min_test:
                problems.append(f"tuple {i}: val starts {min_val} after test {min_test}")
    return problems


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    accuracy: float
    macro_f1: float
    weighted_f1: float
    mcc: float
    classes: tuple[str, ...]
    per_class: dict[str, dict[str, float]]  # precision/recall/f1/support
    confusion: tuple[tuple[int, ...], ...]  # rows gold, cols predicted

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(gold: Sequence[str], predicted: Sequence[str]) -> MetricReport:
    """Accuracy, macro/weighted F1 and the multi-class correlation
    coefficient from the full confusion matrix.

    The class set is the union of gold and predicted labels, sorted; a
    class absent from gold still contributes a zero F1 to the macro
    average.  Degenerate ratios (0/0) and a zero correlation denominator
    resolve to 0.
    """
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold has {len(gold)} labels but predictions have {len(predicted)}"
        )
    if not gold:
        raise ValueError("cannot score an empty sample")
    classes = tuple(sorted(set(gold) | set(predicted)))
    idx = {c: i for i, c in enumerate(classes)}
    m = len(classes)
    confusion = [[0] * m for _ in range(m)]
    for g, p in zip(gold, predicted):
        confusion[idx[g]][idx[p]] += 1
    n = len(gold)
    correct = sum(confusion[i][i] for i in range(m))
    accuracy = correct / n

    per_class = {}
    f1_sum = 0.0
    weighted_sum = 0.0
    for i, cls in enumerate(classes):
        tp = confusion[i][i]
        gold_count = sum(confusion[i])
        pred_count = sum(confusion[r][i] for r in range(m))
        precision = tp / pred_count if pred_count else 0.0
        recall = tp / gold_count if gold_count else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_class[cls] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": gold_count,
        }
        f1_sum += f1
        weighted_sum += f1 * gold_count

    gold_counts = [sum(confusion[i]) for i in range(m)]
    pred_counts = [sum(confusion[r][i] for r in range(m)) for i in range(m)]
    cov = correct * n - sum(p * t for p, t in zip(pred_counts, gold_counts))
    denom_p = n * n - sum(p * p for p in pred_counts)
    denom_t = n * n - sum(t * t for t in gold_counts)
    denom = (denom_p * denom_t) ** 0.5
    mcc = cov / denom if denom else 0.0

    return MetricReport(
        accuracy=accuracy,
        macro_f1=f1_sum / m,
        weighted_f1=weighted_sum / n,
        mcc=mcc,
        classes=classes,
        per_class=per_class,
        confusion=tuple(tuple(row) for row in confusion),
    )


def mean_report_scores(reports: Sequence[MetricReport]) -> dict[str, float]:
    """Plain means of the four headline scores across fold reports."""
    if not reports:
        raise ValueError("no reports to average")
    return {
        "accuracy": sum(r.accuracy for r in reports) / len(reports),
        "macro_f1": sum(r.macro_f1 for r in reports) / len(reports),
        "weighted_f1": sum(r.weighted_f1 for r in reports) / len(reports),
        "mcc": sum(r.mcc for r in reports) / len(reports),
    }


# ---------------------------------------------------------------------------
# Grid search.
# ---------------------------------------------------------------------------

@dataclass
class GridResult:
    spec: object  # has describe() and n_hyperparameters
    mean_scores: dict[str, float] | None
    n_folds: int
    train_cost: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _policy_key(policy: str, result: GridResult, position: int):
    s = result.mean_scores
    simplicity = result.spec.n_hyperparameters
    if policy == "ch3":
        return (
            -s["accuracy"],
            -s["macro_f1"],
            -s["weighted_f1"],
            simplicity,
            result.train_cost,
            position,
        )
    return (-s["mcc"], simplicity, result.train_cost, position)


def grid_search(table: Sequence[GridResult], policy: str) -> GridResult:
    """The best viable row of a scored grid table under a policy.

    Failed rows - a grid point that met a data condition on some fold -
    are skipped; if every row failed the ranking raises `ValueError`
    with the first error.  `ch3` orders by accuracy then macro F1,
    breaking ties by weighted F1, then fewer tuned hyperparameters, then
    lower (deterministic) training cost, then table position; `mcc`
    ranks by mean correlation with the same final tie-breaks.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if not table:
        raise ValueError("empty grid")
    viable = [(i, r) for i, r in enumerate(table) if not r.failed]
    if not viable:
        raise ValueError(
            "every grid configuration failed; first error: " + table[0].error
        )
    return min(viable, key=lambda ir: _policy_key(policy, ir[1], ir[0]))[1]


def grid_table_csv(table: Sequence[GridResult]) -> str:
    """Stable CSV rendering of a grid-search table (no wall-clock data)."""
    lines = [
        "config,n_folds,accuracy,macro_f1,weighted_f1,mcc,hyperparameters,train_cost,error"
    ]
    for r in table:
        desc = r.spec.describe()
        if r.failed:
            scores = ",,,"
        else:
            s = r.mean_scores
            scores = (
                f"{s['accuracy']:.6f},{s['macro_f1']:.6f},"
                f"{s['weighted_f1']:.6f},{s['mcc']:.6f}"
            )
        simplicity = r.spec.n_hyperparameters
        err = (r.error or "").replace(",", ";")
        lines.append(
            f"{desc},{r.n_folds},{scores},{simplicity},{r.train_cost:.0f},{err}"
        )
    return "\n".join(lines) + "\n"
