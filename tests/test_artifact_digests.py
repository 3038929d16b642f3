"""CLI artifacts on the bundled set, pinned by sha256.

`data/feature_digests.txt` lists `<sha256>  nlp<config>/<file>` of the
`featurize` and `drift` artifacts for feature configs 1 and 8.  Any change
to the feature layer that moves a vocabulary term, an idf bit, a count or
a drift figure changes a digest.

`data/train_digests.txt` lists `<sha256>  <file>` of the `ingest train
evaluate` artifacts for config 1 with logistic regression and linear SVM,
so both SGD losses run and C = 0.01 zeroes the weights at the first step.
Any change to the SGD that moves a coefficient bit changes a digest.

`manifest.json` is left out: it records library versions and the output
path.
"""

import hashlib
import json
from pathlib import Path

import pytest

from svassess import cli

DATA = Path(__file__).parent / "data"
PINNED = ("feature_model.json", "feature_stats.json", "drift.json", "new_terms.csv")


def _listing(name: str) -> dict[str, str]:
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    return {path: digest for digest, path in (line.split("  ") for line in lines)}


def _pinned(config: int) -> dict[str, str]:
    prefix = f"nlp{config}/"
    return {
        path[len(prefix):]: digest
        for path, digest in _listing("feature_digests.txt").items()
        if path.startswith(prefix)
    }


def _digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("config", [1, 8])
def test_featurize_and_drift_artifacts_match_pinned_digests(tmp_path, capsys, config):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({
            "dataset": str(DATA / "synthetic_reports.jsonl"),
            "out": str(out),
            "feature_configs": [config],
        }),
        encoding="utf-8",
    )
    for sub in ("featurize", "drift"):
        assert cli.main([sub, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert _digests(out, PINNED) == _pinned(config)


def test_train_and_evaluate_artifacts_match_pinned_digests(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({
            "dataset": str(DATA / "synthetic_reports.jsonl"),
            "out": str(out),
            "feature_configs": [1],
            "classifiers": ["logistic_regression", "linear_svm"],
        }),
        encoding="utf-8",
    )
    for sub in ("ingest", "train", "evaluate"):
        assert cli.main([sub, "--config", str(cfg)]) == 0
    capsys.readouterr()
    pinned = _listing("train_digests.txt")
    assert _digests(out, pinned) == pinned
