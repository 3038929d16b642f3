import datetime
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svassess.evaluation import (
    GridResult,
    MetricReport,
    SplitPlan,
    SplitTuple,
    check_temporal_order,
    compute_metrics,
    grid_search,
    grid_table_csv,
    mean_report_scores,
    rounds10_wrap_splits,
    rounds12_splits,
    time_kfold_splits,
)

from oracles import metrics_oracle


def dated(n_per_year, years):
    out = []
    for year in years:
        for i in range(n_per_year):
            out.append((f"r{year}-{i:03d}", f"{year}-{1 + i % 12:02d}-05"))
    return out


def test_time_kfold_year_holdouts():
    records = dated(3, range(2010, 2016))
    plan = time_kfold_splits(records, 5)
    assert plan.protocol == "time_kfold" and len(plan) == 5
    first = plan.tuples[0]
    assert all(rid.startswith("r2010") for rid in first.train_ids)
    assert all(rid.startswith("r2011") for rid in first.val_ids)
    last = plan.tuples[-1]
    assert all(not rid.startswith("r2015") for rid in last.train_ids)
    assert len(last.train_ids) == 15
    assert all(rid.startswith("r2015") for rid in last.val_ids)


def test_time_kfold_k1_and_order_independence():
    records = dated(2, [2018, 2019, 2020])
    plan = time_kfold_splits(records, 1)
    assert len(plan) == 1
    assert set(plan.tuples[0].val_ids) == {"r2020-000", "r2020-001"}
    shuffled = list(reversed(records))
    assert time_kfold_splits(shuffled, 2).tuples == time_kfold_splits(records, 2).tuples


def test_time_kfold_needs_enough_years():
    with pytest.raises(ValueError, match="distinct years"):
        time_kfold_splits(dated(4, [2019, 2020]), 2)
    with pytest.raises(ValueError):
        time_kfold_splits(dated(2, [2019]), 0)


def test_rounds12_fold_sizes_and_rounds():
    records = [(f"c{i:02d}", f"2015-{1 + i % 12:02d}-{1 + i // 12:02d}") for i in range(24)]
    plan = rounds12_splits(records)
    assert plan.protocol == "rounds12" and len(plan) == 10
    first = plan.tuples[0]
    assert len(first.train_ids) == 2 and len(first.val_ids) == 2 and len(first.test_ids) == 2
    last = plan.tuples[-1]
    assert len(last.train_ids) == 20  # folds 1..10


def test_rounds12_remainder_goes_to_latest_folds():
    records = [(f"c{i:02d}", f"2015-01-{1 + i:02d}") for i in range(26)]
    plan = rounds12_splits(records)
    # 26 = 12*2 + 2: the last two folds carry 3 records.
    assert len(plan.tuples[0].val_ids) == 2
    assert len(plan.tuples[-1].val_ids) == 3
    assert len(plan.tuples[-1].test_ids) == 3


def test_rounds12_sorts_by_date_then_id():
    records = [("b", "2020-01-01"), ("a", "2020-01-01")] + [
        (f"x{i}", f"2020-02-{i + 1:02d}") for i in range(10)
    ]
    plan = rounds12_splits(records)
    assert plan.tuples[0].train_ids == ("a",)
    assert plan.tuples[0].val_ids == ("b",)


def test_rounds12_minimum_size():
    with pytest.raises(ValueError, match="12"):
        rounds12_splits([(f"c{i}", "2020-01-01") for i in range(11)])


def test_rounds10_wrap_arithmetic():
    records = [(f"c{i:02d}", f"2019-{1 + i % 12:02d}-01") for i in range(30)]
    plan = rounds10_wrap_splits(records, seed=4)
    assert plan.protocol == "rounds10_wrap" and len(plan) == 10
    # final round wraps: val lands on fold 1, test on fold 2
    assert plan.tuples[9].val_ids == plan.tuples[8].test_ids
    assert plan.tuples[9].test_ids == plan.tuples[0].val_ids
    # each fold serves exactly once as test: tests partition the ids
    all_test = [rid for t in plan.tuples for rid in t.test_ids]
    assert sorted(all_test) == sorted(rid for rid, _ in records)
    for t in plan.tuples:
        assert set(t.train_ids).isdisjoint(t.val_ids)
        assert set(t.train_ids).isdisjoint(t.test_ids)
        assert set(t.val_ids).isdisjoint(t.test_ids)
        assert len(t.train_ids) + len(t.val_ids) + len(t.test_ids) == 30


def test_rounds10_wrap_seed_controls_shuffle():
    records = [(f"c{i:02d}", "2020-06-01") for i in range(20)]
    one = rounds10_wrap_splits(records, seed=1)
    two = rounds10_wrap_splits(records, seed=1)
    other = rounds10_wrap_splits(records, seed=2)
    assert one.tuples == two.tuples
    assert one.tuples != other.tuples
    with pytest.raises(ValueError):
        rounds10_wrap_splits(records[:9], seed=0)


def test_check_temporal_order_flags_leakage():
    records = dated(2, [2011, 2012, 2013])
    plan = time_kfold_splits(records, 2)
    assert check_temporal_order(plan, records) == []
    leaky = SplitPlan(
        protocol="time_kfold",
        tuples=[SplitTuple(train_ids=("r2013-000",), val_ids=("r2011-000",))],
    )
    assert check_temporal_order(leaky, records)


def test_metrics_perfect_prediction():
    report = compute_metrics(["a", "b", "c"], ["a", "b", "c"])
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.weighted_f1 == 1.0
    assert report.mcc == 1.0
    assert report.confusion == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_metrics_balanced_binary_coin_flip():
    # TP=FP=TN=FN=1
    gold = ["p", "p", "n", "n"]
    pred = ["p", "n", "p", "n"]
    report = compute_metrics(gold, pred)
    assert report.accuracy == 0.5
    assert report.mcc == 0.0


def test_metrics_absent_class_gets_zero_f1():
    # prediction invents class "c": macro average spans 3 classes
    report = compute_metrics(["a", "a", "b"], ["a", "c", "b"])
    assert report.per_class["c"]["f1"] == 0.0
    assert report.per_class["c"]["support"] == 0
    per = [report.per_class[c]["f1"] for c in report.classes]
    assert report.macro_f1 == pytest.approx(sum(per) / 3)


def test_metrics_errors():
    with pytest.raises(ValueError):
        compute_metrics(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        compute_metrics([], [])


def test_metrics_confusion_rows_are_gold_supports():
    gold = ["a", "b", "b", "c", "c", "c"]
    pred = ["b", "b", "c", "c", "a", "c"]
    report = compute_metrics(gold, pred)
    for i, cls in enumerate(report.classes):
        assert sum(report.confusion[i]) == gold.count(cls)


def test_metrics_match_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 201))
        classes = [f"k{j}" for j in range(m)]
        gold = [classes[int(i)] for i in rng.integers(0, m, n)]
        pred = [classes[int(i)] for i in rng.integers(0, m, n)]
        report = compute_metrics(gold, pred)
        oracle = metrics_oracle(gold, pred)
        assert abs(report.accuracy - oracle["accuracy"]) < 1e-12
        assert abs(report.macro_f1 - oracle["macro_f1"]) < 1e-12
        assert abs(report.weighted_f1 - oracle["weighted_f1"]) < 1e-12
        assert abs(report.mcc - oracle["mcc"]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
        min_size=1,
        max_size=40,
    )
)
def test_property_metrics_invariant_under_relabeling(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    base = compute_metrics(gold, pred)
    mapping = {"a": "zz", "b": "mm", "c": "aa"}
    renamed = compute_metrics([mapping[g] for g in gold], [mapping[p] for p in pred])
    assert renamed.accuracy == pytest.approx(base.accuracy, abs=1e-12)
    assert renamed.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)
    assert renamed.weighted_f1 == pytest.approx(base.weighted_f1, abs=1e-12)
    assert renamed.mcc == pytest.approx(base.mcc, abs=1e-12)
    for old, new in mapping.items():
        if old in base.per_class:
            assert renamed.per_class[new] == pytest.approx(base.per_class[old])


@dataclass(frozen=True)
class FakeSpec:
    name: str
    n_hyperparameters: int = 0

    def describe(self):
        return self.name


def report_with(accuracy, macro=0.5, weighted=0.5, mcc=0.0):
    return MetricReport(
        accuracy=accuracy,
        macro_f1=macro,
        weighted_f1=weighted,
        mcc=mcc,
        classes=("a", "b"),
        per_class={},
        confusion=((1, 0), (0, 1)),
    )


def scored(spec, report=None, cost=0.0, error=None):
    """A grid-table row: one fold scored as `report`, or failed with `error`."""
    if error is not None:
        return GridResult(spec=spec, mean_scores=None, n_folds=0, train_cost=cost, error=error)
    return GridResult(
        spec=spec, mean_scores=mean_report_scores([report]), n_folds=1, train_cost=cost
    )


def test_grid_search_single_config_trivial():
    spec = FakeSpec("only")
    table = [scored(spec, report_with(0.9))]
    best = grid_search(table, "ch3")
    assert best.spec is spec and len(table) == 1


def test_grid_search_weighted_f1_breaks_primary_tie():
    table = [
        scored(FakeSpec("low"), report_with(0.8, macro=0.7, weighted=0.60)),
        scored(FakeSpec("high"), report_with(0.8, macro=0.7, weighted=0.65)),
    ]
    assert grid_search(table, "ch3").spec.name == "high"


def test_grid_search_simplicity_breaks_full_tie():
    table = [
        scored(FakeSpec("complex", 3), report_with(0.8)),
        scored(FakeSpec("simple", 0), report_with(0.8)),
    ]
    assert grid_search(table, "ch3").spec.name == "simple"


def test_grid_search_cost_then_position_break_remaining_ties():
    table = [
        scored(FakeSpec("slow"), report_with(0.8), cost=100.0),
        scored(FakeSpec("fast"), report_with(0.8), cost=1.0),
    ]
    assert grid_search(table, "ch3").spec.name == "fast"
    table = [
        scored(FakeSpec("first"), report_with(0.8)),
        scored(FakeSpec("second"), report_with(0.8)),
    ]
    assert grid_search(table, "ch3").spec.name == "first"


def test_grid_search_mcc_policy():
    table = [
        scored(FakeSpec("weak"), report_with(0.9, mcc=0.1)),
        scored(FakeSpec("strong"), report_with(0.5, mcc=0.6)),
    ]
    assert grid_search(table, "mcc").spec.name == "strong"


def test_grid_search_skips_failures_and_errors_when_all_fail():
    bad = scored(FakeSpec("bad"), error="ValueError: boom")
    table = [bad, scored(FakeSpec("good"), report_with(0.7))]
    assert grid_search(table, "ch3").spec.name == "good"
    assert table[0].failed and "boom" in table[0].error
    with pytest.raises(ValueError, match="every grid configuration failed.*boom"):
        grid_search([bad], "ch3")
    with pytest.raises(ValueError):
        grid_search([], "ch3")
    with pytest.raises(ValueError):
        grid_search([scored(FakeSpec("x"), report_with(0.7))], "best")


def test_grid_table_csv_is_stable():
    table = [
        GridResult(
            spec=FakeSpec("nb"),
            mean_scores={"accuracy": 0.5, "macro_f1": 0.25, "weighted_f1": 0.4, "mcc": 0.1},
            n_folds=3,
            train_cost=10.0,
        ),
        GridResult(spec=FakeSpec("bad"), mean_scores=None, n_folds=0, train_cost=0.0,
                   error="ValueError: nope, bad"),
    ]
    text = grid_table_csv(table)
    assert text == grid_table_csv(table)
    lines = text.strip().split("\n")
    assert lines[0].startswith("config,")
    assert lines[1].startswith("nb,3,0.500000,0.250000,0.400000,0.100000,0,10,")
    assert "ValueError: nope; bad" in lines[2]


def test_mean_report_scores():
    reports = [report_with(0.4, mcc=0.2), report_with(0.6, mcc=0.4)]
    means = mean_report_scores(reports)
    assert means["accuracy"] == pytest.approx(0.5)
    assert means["mcc"] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        mean_report_scores([])
