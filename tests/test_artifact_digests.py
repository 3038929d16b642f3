"""`featurize` and `drift` artifacts on the bundled set, pinned by sha256.

`data/feature_digests.txt` lists `<sha256>  nlp<config>/<file>` for
feature configs 1 and 8.  Any change to the feature layer that moves a
vocabulary term, an idf bit, a count or a drift figure changes a digest.
`manifest.json` is left out: it records library versions.
"""

import hashlib
import json
from pathlib import Path

import pytest

from svassess import cli

DATA = Path(__file__).parent / "data"
PINNED = ("feature_model.json", "feature_stats.json", "drift.json", "new_terms.csv")


def _pinned(config: int) -> dict[str, str]:
    lines = (DATA / "feature_digests.txt").read_text(encoding="utf-8").splitlines()
    pairs = (line.split("  ") for line in lines)
    prefix = f"nlp{config}/"
    return {path[len(prefix):]: digest for digest, path in pairs if path.startswith(prefix)}


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
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == _pinned(config)
