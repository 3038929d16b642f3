import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from svassess import cli, models
from svassess.corpus import CVSS_TASKS
from svassess.models import ClassifierSpec, train_classifier
from svassess.pumine import ContentFilterConfig

DATA = Path(__file__).parent / "data" / "synthetic_reports.jsonl"


@pytest.fixture(scope="module")
def small_reports(tmp_path_factory):
    # first 60 records = three full years of the bundled corpus
    lines = DATA.read_text(encoding="utf-8").splitlines()[:60]
    path = tmp_path_factory.mktemp("data") / "reports.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_config(tmp_path, dataset, out, **extra):
    cfg = {
        "dataset": str(dataset),
        "out": str(out),
        "protocol": "time_kfold",
        "time_k": 2,
        "policy": "ch3",
        "seed": 0,
        "feature_configs": [1],
        "classifiers": ["naive_bayes"],
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(small_reports, tmp_path_factory):
    # one shared train run; later tests read its artifacts
    tmp = tmp_path_factory.mktemp("trained")
    out = tmp / "run"
    config = write_config(tmp, small_reports, out)
    assert cli.main(["train", "--config", str(config)]) == 0
    return config, out


# -- exit-code contract ------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert cli.main(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert cli.main(["ingest", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_config_file_exits_one(capsys):
    assert cli.main(["ingest", "--config", "/nonexistent/cfg.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    # "workers" was once accepted but never read
    for raw in ({"tempo": "presto"}, {"workers": 2}, {"command": "train"}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        assert cli.main(["ingest", "--config", str(bad)]) == 1
        assert "unknown config keys" in capsys.readouterr().err


def test_missing_dataset_path_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert (
        cli.main(["ingest", "--dataset", str(tmp_path / "gone.jsonl"), "--out", str(out)])
        == 1
    )
    assert "does not exist" in capsys.readouterr().err


def test_bad_protocol_in_config_exits_one(tmp_path, small_reports, capsys):
    config = write_config(tmp_path, small_reports, tmp_path / "out", protocol="psychic")
    assert cli.main(["ingest", "--config", str(config)]) == 1
    assert "protocol" in capsys.readouterr().err


def test_error_names_where_its_value_came_from(tmp_path, small_reports, capsys):
    gone = tmp_path / "gone.jsonl"
    config = write_config(tmp_path, small_reports, tmp_path / "out")
    assert cli.main(["train", "--config", str(config), "--dataset", str(gone)]) == 1
    err = capsys.readouterr().err
    assert f"command line: dataset path does not exist: {gone}" in err
    assert str(config) not in err
    config = write_config(tmp_path, gone, tmp_path / "out")
    assert cli.main(["train", "--config", str(config), "--seed", "3"]) == 1
    assert f"{config}: dataset path does not exist: {gone}" in capsys.readouterr().err


def test_ingest_without_dataset_exits_one(tmp_path, capsys):
    assert cli.main(["ingest", "--out", str(tmp_path / "out")]) == 1
    assert "needs a dataset" in capsys.readouterr().err


def test_missing_dataset_names_where_the_key_was_left_out(tmp_path, small_reports, capsys):
    assert cli.main(["train", "--out", str(tmp_path / "out")]) == 1
    assert "command line, key 'dataset': train needs a dataset" in capsys.readouterr().err
    config = write_config(tmp_path, small_reports, tmp_path / "out")
    config.write_text(json.dumps({**json.loads(config.read_text()), "dataset": None}))
    assert cli.main(["train", "--config", str(config)]) == 1
    assert f"{config}, key 'dataset': train needs a dataset" in capsys.readouterr().err


# -- manifest ----------------------------------------------------------------


def test_manifest_written_even_when_command_fails(tmp_path, small_reports, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out)
    # evaluate before train fails, but the manifest must still appear
    assert cli.main(["evaluate", "--config", str(config)]) == 1
    assert "train subcommand first" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["dataset"] == str(small_reports)
    assert manifest["seed"] == 0
    assert "svassess" in manifest["versions"]
    assert "numpy" in manifest["versions"]
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_manifest_has_no_timestamps(tmp_path, small_reports):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out)
    cli.main(["ingest", "--config", str(config)])
    text = (out / "manifest.json").read_text(encoding="utf-8")
    for needle in ("time", "date", "stamp"):
        assert needle not in json.loads(text), needle
    keys = set(json.loads(text))
    assert keys == {"config", "config_sha256", "seed", "versions"}


def test_flags_override_config_file(tmp_path, small_reports):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out, seed=5)
    assert cli.main(["ingest", "--config", str(config), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seed"] == 9
    # untouched config-file values survive
    assert manifest["config"]["time_k"] == 2


def test_effective_config_coerces_tuples(tmp_path, small_reports):
    config = write_config(
        tmp_path,
        small_reports,
        tmp_path / "out",
        feature_configs=[2, 3],
        classifiers=["knn", "naive_bayes"],
    )
    ns = cli.build_parser().parse_args(["train", "--config", str(config)])
    cfg = cli.effective_config(ns)
    assert cfg.feature_configs == (2, 3)
    assert cfg.classifiers == ("knn", "naive_bayes")


# -- ingest / featurize ------------------------------------------------------


def test_ingest_summary(tmp_path, small_reports, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out)
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert "ingested 60" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["records"] == 60
    assert summary["tasks"] == list(CVSS_TASKS)
    assert summary["date_min"].startswith("2010")
    assert summary["date_max"].startswith("2012")
    severity = summary["label_counts"]["Severity"]
    assert sum(severity.values()) == 60


def test_featurize_rejects_more_than_one_feature_config(tmp_path, small_reports, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out, feature_configs=[1, 8])
    assert cli.main(["featurize", "--config", str(config)]) == 1
    assert f"{config}, key 'feature_configs': featurize fits one" in capsys.readouterr().err
    assert not (out / "feature_model.json").exists()


def test_featurize_artifacts(tmp_path, small_reports):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out)
    assert cli.main(["featurize", "--config", str(config)]) == 0
    stats = json.loads((out / "feature_stats.json").read_text(encoding="utf-8"))
    assert stats["feature_config"] == 1
    assert stats["width"] == stats["word_terms"] + stats["char_terms"]
    assert stats["nonzeros"] > 0
    model = json.loads((out / "feature_model.json").read_text(encoding="utf-8"))
    assert len(model["word_vocab"]) == stats["word_terms"]


# -- train / evaluate --------------------------------------------------------


def test_train_artifacts(trained, capsys):
    _, out = trained
    selected = json.loads((out / "selected.json").read_text(encoding="utf-8"))
    assert set(selected) == set(CVSS_TASKS)
    assert [p.name for p in (out / "models").iterdir()] == ["bundle.json"]
    bundle = json.loads((out / "models" / "bundle.json").read_text(encoding="utf-8"))
    assert bundle["granularity"] == "report"
    assert set(bundle["feature_models"]) == {"1"}
    assert set(bundle["tasks"]) == set(CVSS_TASKS)
    for task, choice in selected.items():
        assert choice["feature_config"] == 1
        assert choice["classifier_spec"]["kind"] == "naive_bayes"
        assert choice["n_folds"] == 2
        assert 0.0 <= choice["mean_scores"]["accuracy"] <= 1.0
        slug = task.lower().replace(" ", "_")
        assert (out / f"grid_{slug}.csv").exists()
        entry = bundle["tasks"][task]
        assert entry["feature_config"] == 1
        assert entry["classifier"]["spec"] == choice["classifier_spec"]


def test_train_programming_error_exits_two(tmp_path, small_reports, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("bad argument")

    monkeypatch.setattr(cli, "fit_many", broken)
    config = write_config(tmp_path, small_reports, tmp_path / "out")
    assert cli.main(["train", "--config", str(config)]) == 2
    assert "TypeError: bad argument" in capsys.readouterr().err


def _constant_label_reports(small_reports, tmp_path, task):
    path = tmp_path / "constant.jsonl"
    lines = []
    for line in small_reports.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj["labels"][task] = "Low"
        lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_train_grid_with_every_point_failed_exits_one(tmp_path, small_reports, capsys):
    # one class in the whole dataset: a data condition, not a bug
    dataset = _constant_label_reports(small_reports, tmp_path, "Severity")
    config = write_config(tmp_path, dataset, tmp_path / "out")
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "'Severity'" in err and "every grid configuration failed" in err
    assert "training needs at least two distinct classes" in err


def test_failed_grid_points_are_logged_once(tmp_path, small_reports, caplog, capsys):
    out = tmp_path / "out"
    # the first fold trains on 20 records, so kNN with k above 20 fails
    config = write_config(tmp_path, small_reports, out, classifiers=["naive_bayes", "knn"])
    with caplog.at_level(logging.WARNING, logger="svassess"):
        assert cli.main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    logged = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    expected = []
    for task in CVSS_TASKS:
        slug = task.lower().replace(" ", "_")
        for row in (out / f"grid_{slug}.csv").read_text(encoding="utf-8").splitlines()[1:]:
            point, *_, error = row.rsplit(",", 8)  # the point's name holds commas
            if error:
                expected.append((task, point, error))
    assert expected and len(logged) == len(expected)
    for task, point, error in expected:
        matches = [m for m in logged if f"task {task!r}, {point} failed" in m]
        assert len(matches) == 1, (task, point)
        assert error in matches[0].replace(",", ";")


def test_fit_features_once_per_config_and_fold(tmp_path, small_reports, monkeypatch, capsys):
    calls = []
    fit_features = cli._fit_features

    def counted(docs, nlp_config):
        calls.append(nlp_config)
        return fit_features(docs, nlp_config)

    monkeypatch.setattr(cli, "_fit_features", counted)
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out, feature_configs=[1, 2])
    assert cli.main(["train", "--config", str(config)]) == 0
    selected = json.loads((out / "selected.json").read_text(encoding="utf-8"))
    winners = {choice["feature_config"] for choice in selected.values()}
    # 2 configs x 2 folds, then one full fit per distinct winning config
    assert len(calls) == 2 * 2 + len(winners)
    calls.clear()
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    capsys.readouterr()
    assert len(calls) == len(winners) * 2


def _train_stack_widths(tmp_path, small_reports, monkeypatch, classifiers):
    """Train on configs 1 and 2; the group count of every stacked SGD
    pass in call order, and each winning config's linear winner count."""
    widths = []
    stack = models.train_linear_stack

    def counted(features, groups, seed):
        widths.append(len(groups))
        return stack(features, groups, seed)

    monkeypatch.setattr(models, "train_linear_stack", counted)
    out = tmp_path / "out"
    config = write_config(
        tmp_path, small_reports, out, feature_configs=[1, 2], classifiers=classifiers
    )
    assert cli.main(["train", "--config", str(config)]) == 0
    selected = json.loads((out / "selected.json").read_text(encoding="utf-8"))
    linear_winners = {}
    for choice in selected.values():
        if choice["classifier_spec"]["kind"] == "logistic_regression":
            fc = choice["feature_config"]
            linear_winners[fc] = linear_winners.get(fc, 0) + 1
    return widths, linear_winners


def test_linear_points_train_in_one_pass_per_config_and_fold(
    tmp_path, small_reports, monkeypatch, capsys
):
    widths, linear_winners = _train_stack_widths(
        tmp_path, small_reports, monkeypatch, ["naive_bayes", "logistic_regression"]
    )
    capsys.readouterr()
    # 2 configs x 2 folds, each pass fitting 7 tasks x 5 C values, then
    # one refit pass per winning config for all of its linear winners
    assert widths[:4] == [len(CVSS_TASKS) * 5] * 4
    assert sorted(widths[4:]) == sorted(linear_winners.values())


def test_linear_winners_refit_in_one_pass_per_config(
    tmp_path, small_reports, monkeypatch, capsys
):
    widths, linear_winners = _train_stack_widths(
        tmp_path, small_reports, monkeypatch, ["logistic_regression"]
    )
    capsys.readouterr()
    assert sum(linear_winners.values()) == len(CVSS_TASKS)
    assert widths[:4] == [len(CVSS_TASKS) * 5] * 4
    assert sorted(widths[4:]) == sorted(linear_winners.values())


def test_linear_point_on_single_class_fold_fails_alone(small_reports, caplog):
    cfg = cli.PipelineConfig(command="train", dataset=str(small_reports))
    ds, docs, labels = cli._load_corpus(cfg)
    plan = cli._split_plan(cfg, ds.records)
    first = next(iter(plan)).train_ids
    labels["Severity"].update({i: "Low" for i in first})  # one class on fold 1 only
    assert len(set(labels["Severity"].values())) > 1
    points = [cli.GridPoint(1, ClassifierSpec(kind="naive_bayes"))] + [
        cli.GridPoint(1, ClassifierSpec(kind=kind, c=c))
        for kind in ("logistic_regression", "linear_svm")
        for c in (0.1, 10.0)
    ]
    with pytest.raises(ValueError) as alone_error:
        train_classifier(points[1].classifier, [[1.0]] * len(first), ["Low"] * len(first))
    with caplog.at_level(logging.WARNING, logger="svassess"):
        scored = cli._score_folds(
            docs, labels, plan, {"Severity": points, "Integrity": points}, seed=0
        )
    for point in points:
        assert scored["Severity", point] == f"ValueError: {alone_error.value}"
        alone = cli._score_folds(docs, labels, plan, {"Integrity": [point]}, seed=0)
        assert scored["Integrity", point] == alone["Integrity", point]
        assert len(alone["Integrity", point]) == len(plan)
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == len(points)
    assert all(m.startswith("task 'Severity'") for m in warned)


def test_grid_csv_lists_every_point(trained):
    _, out = trained
    text = (out / "grid_severity.csv").read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    # naive Bayes alone with one feature config: a single grid row
    assert len(lines) == 2
    assert "nlp1|" in lines[1]


def test_evaluate_artifacts(trained, capsys):
    config, out = trained
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    printed = capsys.readouterr().out
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert set(metrics) == set(CVSS_TASKS)
    for task, entry in metrics.items():
        assert entry["config"].startswith("nlp1|")
        assert len(entry["folds"]) == 2
        assert set(entry["mean"]) == {"accuracy", "macro_f1", "weighted_f1", "mcc"}
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert report in printed or printed.endswith(report)
    lines = report.splitlines()
    assert lines[0].split()[0] == "task"
    assert len(lines) == 1 + len(CVSS_TASKS) + 1  # header, tasks, average
    assert lines[-1].startswith("average")


def test_assess_record(trained, tmp_path, capsys):
    config, out = trained
    record = tmp_path / "record.json"
    record.write_text(
        json.dumps({"id": "SV-X", "description": "A parser bug dumps wholly crash halt"}),
        encoding="utf-8",
    )
    patched = json.loads(Path(config).read_text(encoding="utf-8"))
    patched["record"] = str(record)
    config2 = tmp_path / "assess.json"
    config2.write_text(json.dumps(patched), encoding="utf-8")
    assert cli.main(["assess", "--config", str(config2)]) == 0
    payload = json.loads((out / "assessment.json").read_text(encoding="utf-8"))
    assert payload["id"] == "SV-X"
    assert set(payload["labels"]) == set(CVSS_TASKS)
    assert json.loads(capsys.readouterr().out.strip()) == payload


def test_assess_rejects_blank_description(trained, tmp_path, capsys):
    config, _ = trained
    record = tmp_path / "record.json"
    patched = json.loads(Path(config).read_text(encoding="utf-8"))
    patched["record"] = str(record)
    config2 = tmp_path / "assess.json"
    config2.write_text(json.dumps(patched), encoding="utf-8")
    # a blank description, and valid JSON that is not an object
    for content, named in (
        (json.dumps({"id": "SV-X", "description": "   "}), "description"),
        ("[]", str(record)),
        ('"x"', str(record)),
    ):
        record.write_text(content, encoding="utf-8")
        assert cli.main(["assess", "--config", str(config2)]) == 1, content
        assert named in capsys.readouterr().err, content


def test_assess_without_models_exits_one(tmp_path, small_reports, capsys):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"id": "X", "description": "crash"}), encoding="utf-8")
    config = write_config(
        tmp_path, small_reports, tmp_path / "out", record=str(record)
    )
    assert cli.main(["assess", "--config", str(config)]) == 1
    assert "train subcommand first" in capsys.readouterr().err
    # a per-task file without bundle.json is not a bundle either
    (tmp_path / "out" / "models").mkdir()
    (tmp_path / "out" / "models" / "severity.json").write_text("{}", encoding="utf-8")
    assert cli.main(["assess", "--config", str(config)]) == 1
    assert "train subcommand first" in capsys.readouterr().err


def _assess_with_bundle(trained, tmp_path, edit):
    """Run assess against an edited copy of the trained bundle."""
    config, out = trained
    bundle = json.loads((out / "models" / "bundle.json").read_text(encoding="utf-8"))
    edit(bundle)
    models = tmp_path / "models"
    models.mkdir()
    (models / "bundle.json").write_text(json.dumps(bundle), encoding="utf-8")
    record = tmp_path / "record.json"
    record.write_text(
        json.dumps({"id": "SV-X", "description": "A parser bug dumps wholly crash halt"}),
        encoding="utf-8",
    )
    patched = json.loads(Path(config).read_text(encoding="utf-8"))
    patched.update(record=str(record), models=str(models), out=str(tmp_path / "out"))
    config2 = tmp_path / "assess.json"
    config2.write_text(json.dumps(patched), encoding="utf-8")
    return cli.main(["assess", "--config", str(config2)]), tmp_path / "out"


def test_assess_rejects_bundle_of_other_granularity(trained, tmp_path, capsys):
    def edit(bundle):
        bundle["granularity"] = "function"

    code, _ = _assess_with_bundle(trained, tmp_path, edit)
    assert code == 1
    assert "'function'" in capsys.readouterr().err


def test_assess_rejection_names_the_task(trained, tmp_path, capsys):
    def edit(bundle):
        classifier = bundle["tasks"]["Severity"]["classifier"]
        classifier["feature_log_prob"] = classifier["feature_log_prob"][:-1]

    code, _ = _assess_with_bundle(trained, tmp_path, edit)
    assert code == 1
    err = capsys.readouterr().err
    assert "'Severity'" in err and "feature_log_prob" in err


def test_assess_transforms_once_per_feature_config(trained, tmp_path, monkeypatch, capsys):
    calls = []
    transform = cli.transform

    def counted(model, tokens):
        calls.append(model)
        return transform(model, tokens)

    monkeypatch.setattr(cli, "transform", counted)

    def edit(bundle):
        # a second config entry (a copy of the first) used by two tasks
        bundle["feature_models"]["2"] = bundle["feature_models"]["1"]
        for task in ("Integrity", "Severity"):
            bundle["tasks"][task]["feature_config"] = 2

    code, run = _assess_with_bundle(trained, tmp_path, edit)
    assert code == 0
    assert len(calls) == 2  # configs 1 and 2, for seven tasks
    capsys.readouterr()
    # the copy predicts what the original does
    reference = tmp_path / "reference"
    reference.mkdir()
    code, ref_run = _assess_with_bundle(trained, reference, lambda bundle: None)
    assert code == 0
    assert len(calls) == 3
    assert (run / "assessment.json").read_bytes() == (ref_run / "assessment.json").read_bytes()


def _key_paths(obj, prefix=()):
    """Every path of dict keys in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))


def _delete(path):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]

    return edit


@pytest.mark.parametrize(
    "path",
    [
        ("granularity",),
        ("feature_models",),
        ("tasks",),
        ("tasks", "Severity", "feature_config"),
        ("tasks", "Severity", "classifier"),
        ("tasks", "Severity", "classifier", "kind"),
        ("tasks", "Severity", "classifier", "spec", "kind"),
        ("feature_models", "1"),
        ("feature_models", "1", "word_vocab"),
        ("feature_models", "1", "config", "weighting"),
    ],
)
def test_assess_rejects_bundle_missing_key(trained, tmp_path, capsys, path):
    code, _ = _assess_with_bundle(trained, tmp_path, _delete(path))
    assert code == 1
    err = capsys.readouterr().err
    assert "bundle.json" in err and f"missing key {path[-1]!r}" in err
    if path[0] == "tasks" and len(path) > 2:
        assert "'Severity'" in err


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_bundle_missing_any_key_never_exits_two(trained, data):
    _, out = trained
    bundle = json.loads((out / "models" / "bundle.json").read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(sorted(_key_paths(bundle))))
    # a task may be left out of a bundle; every other key train writes is required
    required = not (path[0] == "tasks" and len(path) == 2)
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        code, _ = _assess_with_bundle(trained, Path(tmp), _delete(path))
    assert code in (0, 1)
    if required:
        assert code == 1 and f"missing key {path[-1]!r}" in err.getvalue()


@pytest.mark.parametrize("target", ["config", "selected", "bundle", "record"])
def test_invalid_json_names_the_file(trained, tmp_path, capsys, target):
    config, out = trained
    models = tmp_path / "models"
    shutil.copytree(out / "models", models)
    shutil.copy(out / "selected.json", models / "selected.json")
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"id": "SV-X", "description": "crash"}), encoding="utf-8")
    patched = json.loads(Path(config).read_text(encoding="utf-8"))
    patched.update(record=str(record), models=str(models), out=str(tmp_path / "out"))
    run = tmp_path / "run.json"
    run.write_text(json.dumps(patched), encoding="utf-8")
    broken = {
        "config": run,
        "selected": models / "selected.json",
        "bundle": models / "bundle.json",
        "record": record,
    }[target]
    text = broken.read_text(encoding="utf-8")
    broken.write_text(text[: len(text) // 2], encoding="utf-8")  # truncated
    command = "evaluate" if target == "selected" else "assess"
    assert cli.main([command, "--config", str(run)]) == 1
    assert f"{broken}: invalid JSON: " in capsys.readouterr().err


def _evaluate_with_selection(trained, tmp_path, edit):
    """Run evaluate against an edited copy of the trained selection."""
    config, out = trained
    selected = json.loads((out / "selected.json").read_text(encoding="utf-8"))
    edit(selected)
    models = tmp_path / "models"
    models.mkdir()
    (models / "selected.json").write_text(json.dumps(selected), encoding="utf-8")
    patched = json.loads(Path(config).read_text(encoding="utf-8"))
    patched.update(models=str(models), out=str(tmp_path / "out"))
    config2 = tmp_path / "evaluate.json"
    config2.write_text(json.dumps(patched), encoding="utf-8")
    return cli.main(["evaluate", "--config", str(config2)])


@pytest.mark.parametrize(
    "path",
    [
        ("Severity",),
        ("Severity", "feature_config"),
        ("Severity", "classifier_spec"),
        ("Severity", "classifier_spec", "kind"),
    ],
)
def test_evaluate_rejects_selection_missing_key(trained, tmp_path, capsys, path):
    assert _evaluate_with_selection(trained, tmp_path, _delete(path)) == 1
    err = capsys.readouterr().err
    assert "selected.json" in err and f"missing key {path[-1]!r}" in err
    if len(path) > 1:
        assert "'Severity'" in err


@pytest.mark.parametrize("config", [0, 9, "1", True, 1.0])
def test_evaluate_rejects_selection_of_unknown_feature_config(trained, tmp_path, capsys, config):
    def edit(selected):
        selected["Severity"]["feature_config"] = config

    assert _evaluate_with_selection(trained, tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert "'Severity'" in err and f"feature_config {config!r}" in err


def _set(path, value):
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return edit


def _train_with_config(trained, tmp_path, edit):
    """Run train on an edited copy of the trained config."""
    config, _ = trained
    obj = json.loads(Path(config).read_text(encoding="utf-8"))
    obj["out"] = str(tmp_path / "out")
    edit(obj)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(obj), encoding="utf-8")
    return cli.main(["train", "--config", str(edited)])


# each JSON input the CLI reads: the run that reads an edited copy, the
# copy's file name, and where the trained original lies
EDITED_INPUTS = {
    "config": (_train_with_config, "edited.json", lambda config, out: Path(config)),
    "selection": (
        _evaluate_with_selection,
        "selected.json",
        lambda config, out: out / "selected.json",
    ),
    "bundle": (
        lambda *args: _assess_with_bundle(*args)[0],
        "bundle.json",
        lambda config, out: out / "models" / "bundle.json",
    ),
}


@pytest.mark.parametrize(
    "target,path,value,named",
    [
        ("config", ("time_k",), 2.5, "'time_k'"),
        ("config", ("seed",), "x", "'seed'"),
        ("config", ("seed",), 1.5, "'seed'"),
        ("config", ("feature_configs",), [True], "'feature_configs'"),
        ("config", ("time_k",), "2", "'time_k'"),
        ("selection", ("Severity", "classifier_spec", "c"), "x", "'c'"),
        ("selection", ("Severity", "classifier_spec", "foo"), 1, "'foo'"),
        ("selection", ("Severity", "feature_config"), True, "feature_config True"),
        ("bundle", ("feature_models", "1", "config", "foo"), 1, "'foo'"),
        ("bundle", ("tasks", "Severity", "classifier", "spec", "c"), "x", "'c'"),
        ("bundle", ("tasks", "Severity", "classifier", "labels"), 5, "'labels'"),
        ("bundle", ("feature_models", "1", "word_vocab"), 7, "'word_vocab'"),
        ("bundle", ("tasks", "Severity", "classifier", "foo"), 1, "'foo'"),
        # a classifier whose kind no longer fits its spec and arrays
        ("bundle", ("tasks", "Severity", "classifier", "kind"), "logistic_regression", "'spec'"),
        # keys train never writes, outside the typed objects too
        ("bundle", ("note",), 1, "'note'"),
        ("bundle", ("tasks", "Severity", "note"), 1, "'note'"),
        ("bundle", ("feature_models", "1", "extra"), 1, "'extra'"),
    ],
)
def test_mistyped_value_or_unknown_key_exits_one_naming_file_and_key(
    trained, tmp_path, capsys, target, path, value, named
):
    run, file_name, _ = EDITED_INPUTS[target]
    assert run(trained, tmp_path, _set(path, value)) == 1
    err = capsys.readouterr().err
    assert file_name in err and named in err
    if "Severity" in path:
        assert "'Severity'" in err


OTHER_TYPED_VALUES = ("x", 1.5, True, None, [], {})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_input_value_of_another_type_never_exits_two(trained, data):
    run, file_name, source = EDITED_INPUTS[data.draw(st.sampled_from(sorted(EDITED_INPUTS)))]
    original = json.loads(source(*trained).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(sorted(_key_paths(original))))
    value = original
    for key in path:
        value = value[key]
    others = [v for v in OTHER_TYPED_VALUES if type(v) is not type(value)]
    other = data.draw(st.sampled_from(others))
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
        code = run(trained, Path(tmp), _set(path, other))
    assert code in (0, 1)
    if code == 1:
        assert file_name in err.getvalue()


def test_evaluate_accepts_selection_spec_with_default_keys(trained, tmp_path, capsys):
    def edit(selected):
        for choice in selected.values():
            choice["classifier_spec"] = {"kind": "naive_bayes"}

    assert _evaluate_with_selection(trained, tmp_path, edit) == 0
    capsys.readouterr()


def test_evaluate_failed_point_exits_one_naming_the_task(trained, tmp_path, capsys):
    def edit(selected):
        # k above the first fold's 20 training records
        selected["Severity"]["classifier_spec"].update(kind="knn", knn_k=51)

    assert _evaluate_with_selection(trained, tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert "'Severity'" in err and "knn k=51 exceeds" in err


def test_byte_identical_rerun(small_reports, tmp_path, capsys):
    out = tmp_path / "run"
    config = write_config(tmp_path, small_reports, out)

    def snapshot():
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    first = snapshot()
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    capsys.readouterr()
    second = snapshot()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed across reruns"


# -- drift -------------------------------------------------------------------


def test_drift_outputs(tmp_path, small_reports, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, small_reports, out)
    assert cli.main(["drift", "--config", str(config)]) == 0
    report = json.loads((out / "drift.json").read_text(encoding="utf-8"))
    assert set(report["coverage_by_year"]) == {"2010", "2011", "2012"}
    csv_text = (out / "new_terms.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "year,new_terms"
    printed = capsys.readouterr().out
    assert "2012:" in printed
    assert "all-zero records:" in printed


# -- context -----------------------------------------------------------------


FUNCTION_LINES = [
    "int scale(int a) {",
    "    int b = a + 1;",
    "    if (b > 0) {",
    "        b = b - 1;",
    "    }",
    "    return b;",
    "}",
]


@pytest.fixture()
def function_dataset(tmp_path):
    rows = []
    for i, vuln in enumerate(([3], [1, 3])):
        rows.append(
            {
                "id": f"fn-{i}",
                "lines": FUNCTION_LINES,
                "vuln_idx": vuln,
                "date": f"2015-0{i + 1}-01",
                "labels": {"Severity": "Low" if i else "High"},
            }
        )
    path = tmp_path / "functions.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    return path


def test_context_outputs(tmp_path, function_dataset, capsys):
    out = tmp_path / "out"
    config = write_config(
        tmp_path, function_dataset, out, granularity="function", mode="vuln_only"
    )
    assert cli.main(["context", "--config", str(config)]) == 0
    lines = (out / "contexts.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["id"] == "fn-0"
    assert first["mode"] == "vuln_only"
    assert first["vulnerable"] == [3]
    assert first["context"] == []
    assert first["tokens"]  # code tokens from the flagged line
    assert "extracted vuln_only context for 2 functions" in capsys.readouterr().out


def test_context_requires_function_granularity(tmp_path, small_reports, capsys):
    config = write_config(tmp_path, small_reports, tmp_path / "out")
    assert cli.main(["context", "--config", str(config)]) == 1
    assert "granularity function" in capsys.readouterr().err


# -- mine --------------------------------------------------------------------


@pytest.fixture()
def posts_dataset(tmp_path):
    rows = [
        {
            "id": "q1",
            "site": "SO",
            "title": "sql injection in login form",
            "body": "my query allows injection of raw text " * 3,
            "answers": "use prepared statements",
            "tags": ["sql"],
            "label": "unlabeled",
        },
        {
            "id": "q2",
            "site": "SO",
            "title": "how to center a div",
            "body": "plain layout question with no security words at all",
            "answers": "use flexbox",
            "tags": ["css"],
            "label": "unlabeled",
        },
        {
            "id": "q3",
            "site": "SSE",
            "title": "buffer overflow basics",
            "body": "stack smashing question",
            "answers": "bounds checking",
            "tags": ["memory"],
            "label": "positive",
        },
    ]
    path = tmp_path / "posts.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def test_mine_outputs(tmp_path, posts_dataset, capsys):
    keywords = tmp_path / "keywords.txt"
    keywords.write_text("injection\noverflow\nxss\n", encoding="utf-8")
    out = tmp_path / "out"
    config = write_config(
        tmp_path, posts_dataset, out, keywords=str(keywords), site="SO", step=1
    )
    assert cli.main(["mine", "--config", str(config)]) == 0
    mined = [
        json.loads(ln)
        for ln in (out / "mined.jsonl").read_text(encoding="utf-8").splitlines()
        if ln
    ]
    assert [m["id"] for m in mined] == ["q1"]  # q2 has no keyword, q3 is SSE
    assert mined[0]["kw_count"] >= 1
    emitted = json.loads((out / "filter_config.json").read_text(encoding="utf-8"))
    assert emitted == ContentFilterConfig().to_dict()
    assert "kept 1 of 2 SO posts at step 1" in capsys.readouterr().out


def test_mine_without_keywords_exits_one(tmp_path, posts_dataset, capsys):
    config = write_config(tmp_path, posts_dataset, tmp_path / "out")
    assert cli.main(["mine", "--config", str(config)]) == 1
    assert "keyword" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("step", 3), ("site", "XX")])
def test_mine_unknown_site_or_step_exits_one_naming_config(
    tmp_path, posts_dataset, capsys, key, value
):
    keywords = tmp_path / "keywords.txt"
    keywords.write_text("injection\n", encoding="utf-8")
    config = write_config(
        tmp_path, posts_dataset, tmp_path / "out", keywords=str(keywords), **{key: value}
    )
    assert cli.main(["mine", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{config}: {key} must be one of" in err


# -- gradcheck ---------------------------------------------------------------


def test_gradcheck_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["gradcheck", "--out", str(out), "--seed", "0"]) == 0
    payload = json.loads((out / "gradcheck.json").read_text(encoding="utf-8"))
    assert payload["passed"] is True
    assert all(v < 1e-4 for v in payload["max_relative_error"].values())
    assert "gradcheck PASSED" in capsys.readouterr().out


# -- console entry point -----------------------------------------------------


def test_module_invocation_exit_code():
    # the child process imports the same svassess as this test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "svassess.cli"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr
