"""Command-line driver: ingest -> featurize -> train -> evaluate plus
assessment, drift, context-extraction, mining, and gradient-check
subcommands.

Every run writes a manifest (effective config, its hash, seed, library
versions) into the output directory right after config parsing, so even
failed runs leave a record.  With a fixed config and seed every emitted
artifact is byte-identical across reruns: nothing here embeds
timestamps or wall-clock measurements.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .corpus import (
    QA_SITES,
    SchemaError,
    check_value,
    from_fields,
    load_dataset,
    require_keys,
    utf8_lines,
)
from .drift import drift_report
from .evaluation import (
    POLICIES,
    GridResult,
    compute_metrics,
    grid_search,
    grid_table_csv,
    mean_report_scores,
    rounds12_splits,
    rounds10_wrap_splits,
    time_kfold_splits,
)
from .features import FeatureModel, fit_configs, standard_configs, transform
from .models import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    TrainedModel,
    fit_many,
    predict,
    standard_classifier_grid,
)
from .neural import (
    AcGruConfig,
    CommitInput,
    backward,
    forward,
    init_parameters,
    multitask_loss,
)
from .pumine import FILTER_STEPS, ContentFilterConfig, content_filter_jsonl, load_keywords
from .scopes import CONTEXT_MODES, ContextConfig, context_indices, input_tokens
from .textprep import preprocess_text, tokenize_code

logger = logging.getLogger("svassess")

GRANULARITIES = ("report", "function", "commit")
CLI_PROTOCOLS = ("time_kfold", "rounds12", "rounds10")
# the one file `train` writes under models/ and `assess` reads
BUNDLE_FILE = "bundle.json"
SUBCOMMANDS = (
    "ingest",
    "featurize",
    "train",
    "evaluate",
    "assess",
    "drift",
    "context",
    "mine",
    "gradcheck",
)
# deterministic stand-in for training expense, used only to break ranking
# ties: relative fit cost per record by classifier kind
COST_PER_RECORD = {
    "naive_bayes": 1,
    "logistic_regression": 100,
    "linear_svm": 100,
    "knn": 0,
}


class UsageError(Exception):
    pass


class ConfigValueError(ValueError):
    """A config value the subcommand cannot use; `main` reports it against
    its key and the config file or command line it came from."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(f"{message}\n{self.format_usage()}")


@dataclass(frozen=True)
class PipelineConfig:
    command: str
    dataset: str | None = None
    granularity: str = "report"
    protocol: str = "time_kfold"
    policy: str = "ch3"
    seed: int = 0
    out: str = "assess_out"
    mode: str = "vuln_only"
    time_k: int = 2
    feature_configs: tuple[int, ...] = (1,)
    classifiers: tuple[str, ...] = ("naive_bayes",)
    record: str | None = None
    models: str | None = None
    keywords: str | None = None
    site: str = "SO"
    step: int = 1

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.protocol not in CLI_PROTOCOLS:
            raise ValueError(f"protocol must be one of {CLI_PROTOCOLS}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.mode not in CONTEXT_MODES:
            raise ValueError(f"mode must be one of {CONTEXT_MODES}")
        if self.time_k < 1:
            raise ValueError("time_k must be at least 1")
        if self.site not in QA_SITES:
            raise ValueError(f"site must be one of {QA_SITES}")
        if self.step not in FILTER_STEPS:
            raise ValueError(f"step must be one of {FILTER_STEPS}")
        n_feature_configs = len(standard_configs())
        if not self.feature_configs or any(
            not (1 <= i <= n_feature_configs) for i in self.feature_configs
        ):
            raise ValueError(
                f"feature_configs must be indices in 1..{n_feature_configs}"
            )
        if not self.classifiers or any(
            kind not in CLASSIFIER_KINDS for kind in self.classifiers
        ):
            raise ValueError(f"classifiers must come from {CLASSIFIER_KINDS}")
        for attr in ("dataset", "record", "keywords"):
            path = getattr(self, attr)
            if path is not None and not Path(path).exists():
                raise ValueError(f"{attr} path does not exist: {path}")
            if path is not None and not Path(path).is_file():
                raise ValueError(f"{attr} path is not a file: {path}")

    def to_dict(self) -> dict:
        return asdict(self)


def build_parser() -> _Parser:
    parser = _Parser(prog="assess", description="vulnerability assessment workbench")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--dataset", help="input JSONL dataset")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--granularity", choices=GRANULARITIES)
        sp.add_argument("--mode", choices=CONTEXT_MODES)
        sp.add_argument("--protocol", choices=CLI_PROTOCOLS)
        sp.add_argument("--policy", choices=POLICIES)
    return parser


def _read_json_object(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    require_keys(obj, (), str(path))
    return obj


def effective_config(ns: argparse.Namespace) -> PipelineConfig:
    """JSON config file first, command-line flags on top.

    The flags are checked alone before the merge, so an error names the
    command line or the file, whichever its value came from.
    """
    # the flags given, the subcommand among them, override the file
    flags = {k: v for k, v in vars(ns).items() if v is not None and k != "config"}
    cfg = from_fields(PipelineConfig, flags, "command line", partial=True)
    if not ns.config:
        return cfg
    raw = _read_json_object(ns.config)
    if "command" in raw:  # the subcommand comes from the command line only
        raise SchemaError(f"{ns.config}: unknown config keys ['command']")
    return from_fields(PipelineConfig, {**raw, **flags}, ns.config, partial=True)


def write_manifest(cfg: PipelineConfig) -> None:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    config_dict = cfg.to_dict()
    digest = hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()
    manifest = {
        "config": config_dict,
        "config_sha256": digest,
        "seed": cfg.seed,
        "versions": {
            "svassess": __version__,
            "numpy": np.version.version,
            "scipy": scipy.__version__,
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _require_dataset(cfg: PipelineConfig) -> str:
    if not cfg.dataset:
        raise ConfigValueError("dataset", f"{cfg.command} needs a dataset (--dataset or config)")
    return cfg.dataset


def _tokenize(record, granularity: str) -> list[str]:
    if granularity == "report":
        return preprocess_text(record.description)
    if granularity == "function":
        return tokenize_code("\n".join(record.lines))
    return tokenize_code(record.diff_text)


def _split_plan(cfg: PipelineConfig, records):
    if cfg.protocol == "time_kfold":
        return time_kfold_splits(records, cfg.time_k)
    if cfg.protocol == "rounds12":
        return rounds12_splits(records)
    return rounds10_wrap_splits(records, seed=cfg.seed)


def _fit_one(docs, nlp_config):
    """One feature config's model and the matrix of the docs it was fitted on."""
    fitted = next(fit_configs(docs, [nlp_config]))
    if isinstance(fitted, ValueError):
        raise fitted
    model, matrix, _ = fitted
    return model, matrix


@dataclass(frozen=True)
class GridPoint:
    """One grid cell: a text-feature recipe paired with a classifier."""

    feature_config: int
    classifier: ClassifierSpec

    @property
    def n_hyperparameters(self) -> int:
        return self.classifier.n_hyperparameters

    def describe(self) -> str:
        return f"nlp{self.feature_config}|{self.classifier.describe()}"


def _grid_points(cfg: PipelineConfig) -> list[GridPoint]:
    points = []
    for idx in cfg.feature_configs:
        for spec in standard_classifier_grid():
            if spec.kind in cfg.classifiers:
                points.append(GridPoint(feature_config=idx, classifier=spec))
    return points


def emit_report(rows: list[tuple[str, dict]]) -> str:
    """Aligned per-task table plus an average row."""
    keys = ("accuracy", "macro_f1", "weighted_f1", "mcc")
    body = [*rows, ("average", {k: sum(s[k] for _, s in rows) / len(rows) for k in keys})]
    name_width = max(len("task"), *(len(name) for name, _ in body))
    widths = [max(len(k), 11) for k in keys]
    lines = ["task".ljust(name_width) + "".join("  " + k.rjust(w) for k, w in zip(keys, widths))]
    for name, scores in body:
        cells = "".join("  " + f"{scores[k]:.4f}".rjust(w) for k, w in zip(keys, widths))
        lines.append(name.ljust(name_width) + cells)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_ingest(cfg: PipelineConfig) -> int:
    ds = load_dataset(_require_dataset(cfg), cfg.granularity)
    label_counts: dict[str, dict[str, int]] = {}
    dates = []
    for record in ds:
        dates.append(record.date)
        for task, cls in record.labels.items():
            label_counts.setdefault(task, {}).setdefault(cls, 0)
            label_counts[task][cls] += 1
    summary = {
        "records": len(ds),
        "granularity": cfg.granularity,
        "tasks": list(ds.tasks),
        "label_counts": label_counts,
        "date_min": min(dates).isoformat(),
        "date_max": max(dates).isoformat(),
    }
    (Path(cfg.out) / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"ingested {len(ds)} {cfg.granularity} records, {len(ds.tasks)} tasks")
    return 0


def _cmd_featurize(cfg: PipelineConfig) -> int:
    if len(cfg.feature_configs) > 1:
        raise ConfigValueError(
            "feature_configs",
            f"featurize fits one feature config, got {list(cfg.feature_configs)}",
        )
    ds = load_dataset(_require_dataset(cfg), cfg.granularity)
    docs = [_tokenize(r, cfg.granularity) for r in ds]
    nlp = standard_configs()[cfg.feature_configs[0] - 1]
    model, matrix = _fit_one(docs, nlp)
    out = Path(cfg.out)
    (out / "feature_model.json").write_text(model.to_json() + "\n", encoding="utf-8")
    stats = {
        "feature_config": cfg.feature_configs[0],
        "width": model.width,
        "word_terms": len(model.word_vocab),
        "char_terms": len(model.char_vocab),
        "nonzeros": int(matrix.nnz),
    }
    (out / "feature_stats.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"feature width {model.width} over {len(docs)} docs")
    return 0


def _load_corpus(cfg: PipelineConfig):
    ds = load_dataset(_require_dataset(cfg), cfg.granularity)
    docs = {r.id: _tokenize(r, cfg.granularity) for r in ds}
    labels = {
        task: {r.id: r.labels[task] for r in ds} for task in ds.tasks
    }
    return ds, docs, labels


def _score_folds(docs, labels, plan, points_by_task, seed: int) -> dict:
    """Fold reports of every (task, grid point) in fold order, or the
    error text of the point's first failing fold.

    Each fold's feature configs are fitted in one shared pass
    (`fit_configs`); a config's matrices serve every task and classifier
    on it in one `fit_many` call, then are dropped before the next config
    is weighed.  A `ValueError` (a data condition: a single-class fold, k
    above the sample count) fails the point and skips its later folds -
    raised by featurizing, every live point of the config; a config
    without live points is not featurized.  Other exceptions are bugs and
    propagate.
    """
    results = {
        (task, point): [] for task, points in points_by_task.items() for point in points
    }
    by_config: dict[int, list] = {}
    for key in results:
        by_config.setdefault(key[1].feature_config, []).append(key)

    def fail(key, exc):
        results[key] = f"{type(exc).__name__}: {exc}"
        logger.warning("task %r, %s failed: %s", key[0], key[1].describe(), results[key])

    def score(fold, live, train, val):
        jobs = [
            (point.classifier, [labels[task][i] for i in fold.train_ids]) for task, point in live
        ]
        for key, clf in zip(live, fit_many(train, jobs, seed)):
            try:
                if isinstance(clf, ValueError):
                    raise clf
                gold = [labels[key[0]][i] for i in fold.val_ids]
                results[key].append(compute_metrics(gold, predict(clf, val)[0]))
            except ValueError as exc:
                fail(key, exc)

    for fold in plan:
        live_by_config = {}
        for config, keys in by_config.items():
            live = [key for key in keys if isinstance(results[key], list)]
            if live:
                live_by_config[config] = live
        if not live_by_config:
            break
        fitted_configs = fit_configs(
            [docs[i] for i in fold.train_ids],
            [standard_configs()[config - 1] for config in live_by_config],
            [docs[i] for i in fold.val_ids],
        )
        for live, fitted in zip(live_by_config.values(), fitted_configs):
            if isinstance(fitted, ValueError):
                for key in live:
                    fail(key, fitted)
                continue
            score(fold, live, fitted[1], fitted[2])
            del fitted  # drop this config's matrices before the next is weighed
    return results


def _grid_row(point: GridPoint, scored, cost: float) -> GridResult:
    if isinstance(scored, str):  # the error text of its first failing fold
        return GridResult(point, None, 0, cost, error=scored)
    return GridResult(point, mean_report_scores(scored), len(scored), cost)


def _cmd_train(cfg: PipelineConfig) -> int:
    ds, docs, labels = _load_corpus(cfg)
    plan = _split_plan(cfg, ds.records)
    grid = _grid_points(cfg)
    scores = _score_folds(docs, labels, plan, {task: grid for task in ds.tasks}, cfg.seed)
    out = Path(cfg.out)
    winners = {}  # feature config -> [(task, winning grid result)]
    selected = {}
    for task in ds.tasks:
        table = [
            _grid_row(point, scores[task, point], COST_PER_RECORD[point.classifier.kind] * len(ds))
            for point in grid
        ]
        try:
            best = grid_search(table, cfg.policy)
        except ValueError as exc:
            raise ValueError(f"task {task!r}: {exc}") from exc
        winners.setdefault(best.spec.feature_config, []).append((task, best))
        slug = task.lower().replace(" ", "_")
        (out / f"grid_{slug}.csv").write_text(grid_table_csv(table), encoding="utf-8")
        selected[task] = {
            "feature_config": best.spec.feature_config,
            "classifier_spec": best.spec.classifier.to_dict(),
            "mean_scores": best.mean_scores,
            "n_folds": best.n_folds,
        }
        print(f"{task}: {best.spec.describe()} acc={best.mean_scores['accuracy']:.4f}")
    # refit the winners on every record: one shared feature pass over the
    # winning configs, one `fit_many` call for all winners of each
    feature_models = {}
    tasks = {}
    fitted_configs = fit_configs(
        list(docs.values()), [standard_configs()[config - 1] for config in winners]
    )
    for (config, bests), fitted in zip(winners.items(), fitted_configs):
        if isinstance(fitted, ValueError):
            raise fitted
        model, matrix, _ = fitted
        feature_models[str(config)] = model.to_dict()
        jobs = [(best.spec.classifier, list(labels[task].values())) for task, best in bests]
        for (task, _), clf in zip(bests, fit_many(matrix, jobs, cfg.seed)):
            if isinstance(clf, ValueError):
                raise ValueError(f"task {task!r}: {clf}") from clf
            tasks[task] = {"feature_config": config, "classifier": clf.to_dict()}
        del fitted, matrix  # drop this config's matrix before the next is weighed
    bundle = {"granularity": cfg.granularity, "feature_models": feature_models, "tasks": tasks}
    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    (models_dir / BUNDLE_FILE).write_text(
        json.dumps(bundle, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "selected.json").write_text(
        json.dumps(selected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def _selected_points(selected: dict, path, tasks) -> dict[str, GridPoint]:
    """Each task's selected grid point, rejecting a selection that lacks
    the task, its feature config or its classifier spec, or whose spec
    does not load (its defaulted keys may be left out), naming the file,
    the task and the key."""
    points = {}
    for task in tasks:
        require_keys(selected, (task,), str(path))
        where = f"{path}, task {task!r}"
        entry = selected[task]
        require_keys(entry, ("feature_config", "classifier_spec"), where)
        config = entry["feature_config"]
        if type(config) is not int or config not in range(1, len(standard_configs()) + 1):
            raise ValueError(f"{where}: feature_config {config!r} is not a standard config")
        spec = from_fields(
            ClassifierSpec, entry["classifier_spec"], f"{where}, classifier_spec", partial=True
        )
        points[task] = GridPoint(config, spec)
    return points


def _cmd_evaluate(cfg: PipelineConfig) -> int:
    out = Path(cfg.out)
    selected_path = Path(cfg.models) if cfg.models else out / "selected.json"
    if selected_path.is_dir():
        selected_path = selected_path / "selected.json"
    if not selected_path.exists():
        raise ValueError(f"no selection at {selected_path}; run the train subcommand first")
    selected = _read_json_object(selected_path)
    ds, docs, labels = _load_corpus(cfg)
    plan = _split_plan(cfg, ds.records)
    points = _selected_points(selected, selected_path, ds.tasks)
    scores = _score_folds(
        docs, labels, plan, {task: [point] for task, point in points.items()}, cfg.seed
    )
    metrics = {}
    rows = []
    for task, point in points.items():
        reports = scores[task, point]
        if isinstance(reports, str):
            raise ValueError(f"task {task!r}: {point.describe()} failed: {reports}")
        mean = mean_report_scores(reports)
        folds = [r.to_dict() for r in reports]
        metrics[task] = {"config": point.describe(), "folds": folds, "mean": mean}
        rows.append((task, mean))
    (out / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    report = emit_report(rows)
    (out / "report.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return 0


def _cmd_assess(cfg: PipelineConfig) -> int:
    if not cfg.record:
        raise ValueError("assess needs a record JSON file (config key: record)")
    obj = _read_json_object(cfg.record)
    description = obj.get("description")
    if not isinstance(description, str) or not description.strip():
        raise ValueError("record file needs a non-empty 'description'")
    models_dir = Path(cfg.models) if cfg.models else Path(cfg.out) / "models"
    bundle_path = models_dir / BUNDLE_FILE
    if not bundle_path.exists():
        raise ValueError(f"no model bundle in {models_dir}; run the train subcommand first")
    bundle = _read_json_object(bundle_path)
    require_keys(bundle, ("granularity", "feature_models", "tasks"), str(bundle_path), exact=True)
    if bundle["granularity"] != "report":
        raise ValueError(
            f"{bundle_path} was trained on granularity {bundle['granularity']!r};"
            " assess labels report descriptions"
        )
    require_keys(bundle["tasks"], (), f"{bundle_path}, tasks")
    feature_models = bundle["feature_models"]
    tokens = preprocess_text(description)
    rows = {}  # one transform per distinct feature config
    assessment = {}
    for task, entry in bundle["tasks"].items():
        where = f"{bundle_path}, task {task!r}"
        require_keys(entry, ("feature_config", "classifier"), where, exact=True)
        try:
            key = str(check_value(entry["feature_config"], int, "key 'feature_config'"))
            if key not in rows:
                require_keys(feature_models, (key,), "feature_models")
                model = FeatureModel.from_dict(feature_models[key], f"feature model {key}")
                rows[key] = transform(model, tokens)
            classifier = TrainedModel.from_dict(entry["classifier"], "classifier")
            predicted, _ = predict(classifier, rows[key])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        assessment[task] = predicted[0]
    payload = {"id": obj.get("id"), "labels": assessment}
    (Path(cfg.out) / "assessment.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_drift(cfg: PipelineConfig) -> int:
    ds = load_dataset(_require_dataset(cfg), cfg.granularity)
    dated = [(r.id, r.date.year, _tokenize(r, cfg.granularity)) for r in ds]
    last_year = max(year for _, year, _ in dated)
    train_docs = [tokens for _, year, tokens in dated if year < last_year]
    if not train_docs:  # single-year corpus: no held-out year to contrast
        train_docs = [tokens for _, _, tokens in dated]
    nlp = standard_configs()[cfg.feature_configs[0] - 1]
    model, _ = _fit_one(train_docs, nlp)
    report = drift_report(model, dated)
    out = Path(cfg.out)
    (out / "drift.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "new_terms.csv").write_text(report.new_terms_csv(), encoding="utf-8")
    for year in sorted(report.coverage_by_year):
        new = report.new_terms.get(year, 0)
        print(
            f"{year}: new_terms={new} coverage={report.coverage_by_year[year]:.4f}"
        )
    print(f"all-zero records: {len(report.all_zero_ids)}")
    return 0


def _cmd_context(cfg: PipelineConfig) -> int:
    if cfg.granularity != "function":
        raise ValueError("context extraction works on --granularity function")
    ds = load_dataset(_require_dataset(cfg), cfg.granularity)
    context_cfg = ContextConfig()
    lines = []
    for record in ds:
        vuln, ctx = context_indices(record, cfg.mode, context_cfg, seed=cfg.seed)
        tokens = input_tokens(record, cfg.mode, vuln, ctx)
        lines.append(
            json.dumps(
                {
                    "id": record.id,
                    "mode": cfg.mode,
                    "vulnerable": sorted(vuln),
                    "context": sorted(ctx),
                    "tokens": tokens,
                },
                sort_keys=True,
            )
        )
    (Path(cfg.out) / "contexts.jsonl").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    print(f"extracted {cfg.mode} context for {len(lines)} functions")
    return 0


def _cmd_mine(cfg: PipelineConfig) -> int:
    if not cfg.keywords:
        raise ValueError("mine needs a keyword list (config key: keywords)")
    ds = load_dataset(_require_dataset(cfg), "post")
    keywords = load_keywords(utf8_lines(cfg.keywords))
    posts = [p for p in ds if p.site == cfg.site]
    filter_config = ContentFilterConfig()
    out = Path(cfg.out)
    kept = content_filter_jsonl(posts, cfg.site, cfg.step, filter_config, keywords)
    (out / "mined.jsonl").write_text(kept, encoding="utf-8")
    (out / "filter_config.json").write_text(
        json.dumps(filter_config.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    n_kept = len([ln for ln in kept.splitlines() if ln])
    print(f"kept {n_kept} of {len(posts)} {cfg.site} posts at step {cfg.step}")
    return 0


def _numeric_gradient(fn, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def _cmd_gradcheck(cfg: PipelineConfig) -> int:
    net_cfg = AcGruConfig(
        vocab_size=50,
        input_len=12,
        embed_dim=8,
        filter_sizes=(1, 3, 5),
        filters_per_size=4,
        gru_hidden=6,
        attention_hidden=6,
        tasks=(("task_a", 3), ("task_b", 2)),
        dropout=0.0,
        seed=cfg.seed,
    )
    params = init_parameters(net_cfg)
    rng = np.random.default_rng(cfg.seed)
    inp = CommitInput(
        *[rng.integers(0, net_cfg.vocab_size, size=net_cfg.input_len) for _ in range(4)]
    )
    gold = {"task_a": 1, "task_b": 0}
    _, cache = forward(params, net_cfg, inp)
    analytic = backward(params, net_cfg, cache, gold)

    def loss_now():
        _, c = forward(params, net_cfg, inp)
        return multitask_loss(c["probs"], gold)

    results = {}
    worst = 0.0
    for name in params.names():
        numeric = _numeric_gradient(loss_now, params.data[name])
        a = analytic[name].reshape(-1)
        n = numeric.reshape(-1)
        # near-zero components are compared absolutely (floor 1e-6) since
        # h=1e-5 central differences carry ~1e-11 of float64 roundoff
        rel = np.abs(a - n) / np.maximum(1e-6, np.abs(a) + np.abs(n))
        results[name] = float(rel.max())
        worst = max(worst, results[name])
    passed = worst < 1e-4
    (Path(cfg.out) / "gradcheck.json").write_text(
        json.dumps(
            {"max_relative_error": results, "passed": passed}, indent=2, sort_keys=True
        )
        + "\n",
        encoding="utf-8",
    )
    for name in sorted(results):
        print(f"{name}: {results[name]:.3e}")
    print(f"gradcheck {'PASSED' if passed else 'FAILED'} (worst {worst:.3e})")
    return 0 if passed else 2


_COMMANDS = {
    "ingest": _cmd_ingest,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "assess": _cmd_assess,
    "drift": _cmd_drift,
    "context": _cmd_context,
    "mine": _cmd_mine,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("ASSESS_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        ns = parser.parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not ns.command:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    try:
        cfg = effective_config(ns)
    except (ValueError, TypeError, OSError) as exc:
        logger.error("invalid configuration: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        write_manifest(cfg)
    except OSError as exc:
        print(f"error: cannot write manifest: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, FileNotFoundError) as exc:
        message = str(exc)
        if isinstance(exc, ConfigValueError):
            from_file = ns.config and getattr(ns, exc.key, None) is None
            where = ns.config if from_file else "command line"
            message = f"{where}, key {exc.key!r}: {message}"
        logger.error("%s failed: %s", cfg.command, message)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("%s crashed", cfg.command)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
