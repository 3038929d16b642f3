"""The three workloads.  Each builds its inputs from the seed in
`setup()` (which also runs one untimed warm-up pass), runs one round of
fixed operations in `round()`, and checks the outputs in `check()`.

STAGES maps each timed end-to-end metric to its stage; the metric is
the median time of one call of the stage over the run.  Stages that
take only milliseconds are called several times a round (the *_CALLS
attributes), so that the median rests on more samples.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np

import checks
from gen_commits import make_commits
from gen_reports import TASK_CLASSES, ReportGenerator, write_jsonl

END_TO_END = (
    ("setup_s", "s"),
    ("featurize_s", "s"),
    ("train_s", "s"),
    ("evaluate_s", "s"),
    ("drift_s", "s"),
    ("lsa_s", "s"),
    ("assess_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("bundle_kb", "kB"),
)
STAGES = {
    "featurize_s": "featurize",
    "train_s": "train",
    "evaluate_s": "evaluate",
    "drift_s": "drift",
    "lsa_s": "lsa",
    "assess_ms": "assess",
}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _lsa(vectors, k: int, seed: int):
    import svassess.reduce as reduce

    model = reduce.lsa_fit(vectors, k, seed=seed)
    return model, reduce.lsa_transform_many(model, vectors)


def _dir_kb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1024.0


class ReportWorkload:
    """CLI ingest -> featurize -> train -> evaluate -> drift, LSA on the
    featurized corpus, then CLI assess once per held-out record."""

    TIME_K = 2
    LSA_K = 8
    HELD_OUT = 6
    FEATURIZE_CALLS = DRIFT_CALLS = 1
    LSA_CALLS = 5

    def __init__(self, bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.bundle_kb: list[float] = []
        self.assessed: list[tuple[dict, dict]] = []  # (record, labels from assess)

    def generator(self) -> ReportGenerator:
        raise NotImplementedError

    def setup(self) -> None:
        import svassess.features as features

        work = self.bench.work
        gen = self.generator()
        self.records, self.planted = gen.records()
        self.held_out = gen.held_out(self.HELD_OUT)
        self.dataset = work / "reports.jsonl"
        write_jsonl(self.dataset, self.records)
        self.out = work / "run"
        base = {
            "dataset": str(self.dataset), "out": str(self.out), "granularity": "report",
            "protocol": "time_kfold", "time_k": self.TIME_K, "policy": "ch3",
            "seed": self.seed, "classifiers": self.CLASSIFIERS,
        }
        # ingest, featurize and drift read the first feature config only
        self.cfg = _write_json(work / "fit.json", {**base, "feature_configs": self.FIT_CONFIGS})
        self.feat_cfg = _write_json(work / "featurize.json",
                                    {**base, "feature_configs": self.FEATURIZE_CONFIG})
        self.eval_cfg = self.cfg
        self.assess_cfgs = [
            self._assess_cfg(f"held_out_{i}", rec, self.out / "models")
            for i, rec in enumerate(self.held_out)
        ]
        self._warm_up()
        from svassess.textprep import preprocess_text

        model = features.FeatureModel.from_json(
            (self.out / "feature_model.json").read_text(encoding="utf-8"))
        self.tokens = {r["id"]: preprocess_text(r["description"]) for r in self.records}
        self.vectors = [features.transform(model, self.tokens[r["id"]]) for r in self.records]
        self.matrix = features.vectors_to_csr(self.vectors)
        self.bench.attempted = self.bench.failed = 0

    def _assess_cfg(self, name: str, record: dict, models: Path) -> str:
        work = self.bench.work
        return _write_json(work / f"{name}.cfg.json", {
            "record": _write_json(work / f"{name}.json", record),
            "models": str(models), "out": str(work / "assess"),
        })

    def _warm_up(self) -> None:
        """Every stage once, untimed: the fits on the first three years
        with naive Bayes only, featurize on the whole corpus."""
        b, work = self.bench, self.bench.work
        first = sorted({r["date"][:4] for r in self.records})[:3]
        write_jsonl(work / "warm.jsonl", [r for r in self.records if r["date"][:4] in first])
        cfg = json.loads(Path(self.cfg).read_text(encoding="utf-8"))
        cfg.update(dataset=str(work / "warm.jsonl"), out=str(work / "warm"),
                   classifiers=["naive_bayes"])
        warm = _write_json(work / "warm.cfg.json", cfg)
        for cmd in ("ingest", "train", "evaluate", "drift"):
            b.cli(None, cmd, "--config", warm)
        b.cli(None, "assess", "--config",
              self._assess_cfg("warm_record", self.held_out[0], work / "warm" / "models"))
        b.cli(None, "featurize", "--config", self.feat_cfg)

    def round(self) -> None:
        b = self.bench
        b.cli(None, "ingest", "--config", self.feat_cfg)
        for _ in range(self.FEATURIZE_CALLS):
            b.cli("featurize", "featurize", "--config", self.feat_cfg)
        b.cli("train", "train", "--config", self.cfg)
        self.bundle_kb.append(_dir_kb(self.out / "models"))
        b.cli("evaluate", "evaluate", "--config", self.eval_cfg)
        for _ in range(self.DRIFT_CALLS):
            b.cli("drift", "drift", "--config", self.feat_cfg)
        for _ in range(self.LSA_CALLS):
            with b.op("lsa"):
                self.lsa = _lsa(self.vectors, self.LSA_K, self.seed)
        for rec, cfg in zip(self.held_out, self.assess_cfgs):
            text = b.cli("assess", "assess", "--config", cfg)
            if text:
                self.assessed.append((rec, json.loads(text.splitlines()[-1])["labels"]))

    def check(self) -> list[str]:
        problems = checks.grid_has_no_errors(self.out, self.TIME_K)
        problems += checks.fold_supports_and_scores(self.out, self.records, self.TIME_K)
        problems += checks.lsa_is_sound(*self.lsa, self.matrix)
        if len(self.assessed) != len(self.held_out) * len(self.bench.rounds):
            problems.append("an assess call returned no labels")
        for rec, labels in self.assessed:
            if set(labels) != set(TASK_CLASSES) or any(
                labels[t] not in TASK_CLASSES[t] for t in TASK_CLASSES
            ):
                problems.append(f"assess {rec['id']}: malformed labels {labels}")
        return problems


class ReportGrid(ReportWorkload):
    """The criterion-12 configuration on a corpus with the bundled
    set's make-up (fixed filler list, short markers), cut to three
    years of six records so that one train fits in a round.

    On six records per year the winning model of a task flips between
    naive Bayes and logistic regression from one corpus to the next, and
    evaluate refits only the winners.  So the corpus is the same for
    every seed (the seed drives the fits), and evaluate scores a fixed
    selection, logistic regression with C = 1 on config 1 for every task,
    whose cost does not follow what train picked."""

    CLASSIFIERS = ["naive_bayes", "logistic_regression"]
    FIT_CONFIGS = [1, 2]
    FEATURIZE_CONFIG = [1]
    FEATURIZE_CALLS = DRIFT_CALLS = 5  # 20-30 ms each on 18 records
    CORPUS_SEED = 0
    EVALUATED = {"feature_config": 1, "classifier_spec": {"kind": "logistic_regression", "c": 1.0}}

    def generator(self):
        return ReportGenerator(self.CORPUS_SEED, range(2017, 2020), per_year=6, base_words=10,
                               new_words_per_year=0, fillers_per_record=2)

    def setup(self) -> None:
        super().setup()
        selection = _write_json(self.bench.work / "evaluated.json",
                                {task: self.EVALUATED for task in TASK_CLASSES})
        cfg = json.loads(Path(self.cfg).read_text(encoding="utf-8"))
        self.eval_cfg = _write_json(self.bench.work / "evaluate.json", {**cfg, "models": selection})


class ReportScale(ReportWorkload):
    """Ten years with a wide, growing lexicon and planted all-OOV records
    in the final year; naive Bayes only, so feature work dominates."""

    CLASSIFIERS = ["naive_bayes"]
    # config 1 first: naive Bayes on it classifies every unplanted record,
    # so it wins every task on ties and the selection does not depend on
    # the seed; config 8 (1-4 grams, tf-idf) is still fitted on every fold
    FIT_CONFIGS = [1, 8]
    FEATURIZE_CONFIG = [8]
    LSA_K = 10
    HELD_OUT = 10
    PLANTED = 4

    def generator(self):
        return ReportGenerator(self.seed, range(2010, 2020), per_year=20, base_words=200,
                               new_words_per_year=40, fillers_per_record=10,
                               planted=self.PLANTED)

    def check(self) -> list[str]:
        problems = super().check()
        problems += checks.only_planted_misclassified(self.out, self.records, self.TIME_K, set(self.planted))
        problems += checks.drift_matches(self.out, self.records, self.tokens, self.planted)
        for rec, labels in self.assessed:
            if labels != rec["labels"]:
                problems.append(f"assess {rec['id']}: {labels} != generated {rec['labels']}")
        return problems


class CommitAcgru:
    """Generated commits through scopes and tokenization into ACGRU
    inputs, a fixed-epoch ACGRU fit and held-out prediction, CLI drift
    and LSA over the commits' code tokens, and one-commit assessment."""

    YEARS = range(2015, 2020)
    PER_YEAR = 24
    N_TRAIN, N_VAL = 48, 12
    INPUT_LEN = 16
    EPOCHS = 6
    VOCAB = 300
    LSA_K = 10
    LSA_CALLS = 5
    ASSESSED = 10

    def __init__(self, bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.bundle_kb: list[float] = []

    def setup(self) -> None:
        import svassess.features as features
        import svassess.neural as neural
        from svassess.textprep import tokenize_code

        work = self.bench.work
        self.commits = make_commits(self.seed, self.YEARS, self.PER_YEAR)
        self.dataset = work / "commits.jsonl"
        write_jsonl(self.dataset, [c.record() for c in self.commits])
        self.lines = {c.id: json.dumps(c.record()) for c in self.commits}
        self.sources = work / "sources"
        self.sources.mkdir()
        for c in self.commits:
            (self.sources / f"{c.id}.java").write_text(c.pre, encoding="utf-8")
        self.bundle = work / "acgru.json"
        self.tasks = tuple((t, len(cls)) for t, cls in TASK_CLASSES.items())
        self.gold = [{t: TASK_CLASSES[t].index(c.labels[t]) for t in TASK_CLASSES} for c in self.commits]
        self.cfg = _write_json(work / "commits.cfg.json", {
            "dataset": str(self.dataset), "out": str(work / "run"), "granularity": "commit",
            "feature_configs": [1], "seed": self.seed,
        })
        b = self.bench
        # warm-up: every stage once, untimed, with a one-epoch fit
        with b.op():
            self._featurize()
            self._train(epochs=1)
            self._predict()
            neural.save_parameters(self.params, self.net, self.bundle)
            self._assess(self.commits[-1])
        b.cli(None, "drift", "--config", self.cfg)
        b.cli(None, "featurize", "--config", self.cfg)
        text = (work / "run" / "feature_model.json").read_text(encoding="utf-8")
        model = features.FeatureModel.from_json(text)
        self.vectors = [features.transform(model, tokenize_code(c.diff)) for c in self.commits]
        self.matrix = features.vectors_to_csr(self.vectors)
        b.attempted = b.failed = 0

    def _sequences(self, change, pre: str):
        """The four code inputs of one file change, as token lists."""
        from svassess.corpus import apply_hunks
        from svassess.scopes import extract_commit_ces, parse_scopes
        from svassess.textprep import tokenize_code

        post = apply_hunks(pre, change.hunks)
        pre_ces = extract_commit_ces(parse_scopes(pre), [h.pre_range() for h in change.hunks])
        post_ces = extract_commit_ces(
            parse_scopes(post),
            [(h.post_start, h.post_start + h.post_len - 1) for h in change.hunks],
        )
        pre_lines, post_lines = pre.split("\n"), post.split("\n")

        def span(lines, nodes):
            return tokenize_code("\n".join(
                line for n in nodes for line in lines[n.start_line - 1 : n.end_line]
            ))

        seqs = (
            tokenize_code("\n".join(l for h in change.hunks for l in h.deleted)),
            tokenize_code("\n".join(l for h in change.hunks for l in h.added)),
            span(pre_lines, pre_ces),
            span(post_lines, post_ces),
        )
        return seqs, post, pre_ces

    def _input(self, seqs):
        from svassess.neural import make_commit_input

        return make_commit_input([[self.vocab.get(t, 1) for t in s] for s in seqs], self.INPUT_LEN)

    def _featurize(self) -> None:
        from svassess.corpus import load_dataset

        ds = load_dataset(self.dataset, "commit")
        self.posts, self.ces, seqs = [], [], []
        for rec in ds:
            pre = (self.sources / f"{rec.id}.java").read_text(encoding="utf-8")
            s, post, ces = self._sequences(rec.files[0], pre)
            seqs.append(s)
            self.posts.append(post)
            self.ces.append([(n.kind, n.start_line, n.end_line) for n in ces])
        counts = Counter(t for s in seqs[: self.N_TRAIN] for q in s for t in q)
        # ids 0 and 1 are padding and unknown
        self.vocab = {t: i + 2 for i, (t, _) in enumerate(counts.most_common(self.VOCAB))}
        self.inputs = [self._input(s) for s in seqs]

    def _train(self, epochs: int) -> None:
        from svassess.neural import AcGruConfig, train_acgru

        self.net = AcGruConfig(
            vocab_size=len(self.vocab) + 2, input_len=self.INPUT_LEN, embed_dim=8,
            filter_sizes=(1, 3), filters_per_size=8, gru_hidden=8, attention_hidden=8,
            tasks=self.tasks, dropout=0.0, lr=0.05, batch=4, epochs=epochs,
            patience=epochs, seed=self.seed,
        )
        n, v = self.N_TRAIN, self.N_VAL
        pairs = list(zip(self.inputs, self.gold))
        self.params, _ = train_acgru(self.net, pairs[:n], pairs[n : n + v])

    def _predict(self) -> None:
        from svassess.neural import predict_acgru

        held = self.inputs[self.N_TRAIN + self.N_VAL :]
        self.predicted = [predict_acgru(self.params, self.net, inp)[0] for inp in held]

    def _assess(self, commit) -> dict:
        """One commit from its JSONL line and pre-source to labels, with
        the model loaded from its bundle."""
        import svassess.neural as neural
        from svassess.corpus import parse_unified_diff

        params, net = neural.load_parameters(self.bundle)
        change = parse_unified_diff(json.loads(self.lines[commit.id])["diff"])[0]
        pre = (self.sources / f"{commit.id}.java").read_text(encoding="utf-8")
        seqs, _, _ = self._sequences(change, pre)
        picks, _ = neural.predict_acgru(params, net, self._input(seqs))
        return picks

    def round(self) -> None:
        import svassess.neural as neural

        b = self.bench
        with b.op("featurize"):
            self._featurize()
        with b.op("train"):
            self._train(self.EPOCHS)
        with b.op("evaluate"):
            self._predict()
        with b.op():
            neural.save_parameters(self.params, self.net, self.bundle)
            self.bundle_kb.append(self.bundle.stat().st_size / 1024.0)
        b.cli("drift", "drift", "--config", self.cfg)
        for _ in range(self.LSA_CALLS):
            with b.op("lsa"):
                self.lsa = _lsa(self.vectors, self.LSA_K, self.seed)
        held = self.commits[self.N_TRAIN + self.N_VAL :]
        self.assessed = []
        for c in held[: self.ASSESSED]:
            with b.op("assess"):
                self.assessed.append(self._assess(c))

    def check(self) -> list[str]:
        import svassess.neural as neural

        problems = []
        for c, post, ces in zip(self.commits, self.posts, self.ces):
            if post != c.post:
                problems.append(f"{c.id}: apply_hunks does not reproduce the post-source")
            if ces != c.scopes:
                problems.append(f"{c.id}: enclosing scopes {ces} != generated {c.scopes}")
        rng = random.Random(self.seed)
        samples = [(self.inputs[i], self.gold[i]) for i in rng.sample(range(self.N_TRAIN), 2)]
        problems += checks.gradients_agree(neural, self.params, self.net, samples,
                                           np.random.default_rng(self.seed))
        start = self.N_TRAIN + self.N_VAL
        problems += checks.beats_majority(self.gold[start:], self.predicted)
        if self.assessed != self.predicted[: self.ASSESSED]:
            problems.append("one-commit assessment differs from batch prediction")
        problems += checks.lsa_is_sound(*self.lsa, self.matrix)
        return problems


WORKLOADS = {
    "report-grid": ReportGrid,
    "report-scale": ReportScale,
    "commit-acgru": CommitAcgru,
}
