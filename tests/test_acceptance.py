"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test prints a single `criterion N: PASS` line on success (visible
with pytest -s); a failing criterion fails its test.  Tolerances and
runtime budgets are asserted exactly as stated, never loosened.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from svassess.corpus import CVSS_TASKS
from svassess.evaluation import (
    check_temporal_order,
    compute_metrics,
    rounds12_splits,
    rounds10_wrap_splits,
    time_kfold_splits,
)
from svassess.features import (
    NlpConfig,
    aggregate_char_word,
    build_char_vocab,
    build_word_vocab,
    transform,
)
from svassess.neural import (
    AcGruConfig,
    CommitInput,
    backward,
    forward,
    init_parameters,
    make_commit_input,
    multitask_loss,
    predict_acgru,
    train_acgru,
)
from svassess.pumine import (
    ContentFilterConfig,
    KeywordSet,
    PuConfig,
    keyword_metrics,
    pu_predict,
    pu_train,
    reliable_negatives,
    update_centroid,
)
from svassess.reduce import lsa_fit
from svassess.scopes import extract_ces, extract_commit_ces, parse_scopes
from svassess import cli
from svassess.models import ClassifierSpec

DATA = Path(__file__).parent / "data" / "synthetic_reports.jsonl"


def _ok(n: int, note: str) -> None:
    print(f"criterion {n}: PASS - {note}")


# --------------------------------------------------------------------------
# 1. n-gram generation and aggregation on the two-word greeting corpus
# --------------------------------------------------------------------------


def test_criterion_01_ngram_fixture_sets():
    started = time.perf_counter()
    raw_doc = ["Hello", "World"]
    config = NlpConfig(word_ngram_max=2, char_min=2, char_max=2,
                       word_min_doc_fraction=0.5, char_word_doc_fraction=0.5)

    word_vocab = build_word_vocab([["hello", "world"]], config)
    assert set(word_vocab.index) == {"hello", "world", "hello world"}

    char2 = build_char_vocab([raw_doc], config)
    assert set(char2.index) == {
        "He", "el", "ll", "lo", "o ", " W", "Wo", "or", "rl", "ld"
    }
    char1 = build_char_vocab([raw_doc], NlpConfig(char_min=1, char_max=1))
    assert set(char1.index) == {"H", "e", "l", "o", "W", "r", "d"}

    raw_word_vocab = build_word_vocab([raw_doc], config)
    model, vectors = aggregate_char_word([raw_doc], raw_word_vocab, char2, 2, 2, config)
    assert set(model.char_vocab.index) == {"He", "el", "ll", "lo", "Wo", "or", "rl", "ld"}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert vectors.shape[0] == 1 and vectors.nnz > 0
    _ok(1, f"n-gram sets exact, aggregation keeps the 8 char grams ({elapsed:.3f}s)")


# --------------------------------------------------------------------------
# 2. character features keep unseen words transformable
# --------------------------------------------------------------------------

SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ka", "le", "mi",
    "no", "pu", "ra", "se", "ti", "vo", "wu",
)


def test_criterion_02_char_model_covers_novel_words():
    rng = np.random.default_rng(11)
    # closed 20-word training inventory: every word a syllable pair, so
    # each full word recurs in well over the 10% of docs the char
    # vocabulary requires of its source words
    inventory = []
    while len(inventory) < 20:
        word = "".join(rng.choice(SYLLABLES, size=2))
        if word not in inventory:
            inventory.append(word)
    train_docs = [
        [inventory[(i + j) % 20] for j in range(8)] for i in range(100)
    ]
    config = NlpConfig(char_min=2, char_max=3, word_min_doc_fraction=0.05)
    word_vocab = build_word_vocab(train_docs, config)
    char_vocab = build_char_vocab(train_docs, config)
    model, _ = aggregate_char_word(train_docs, word_vocab, char_vocab, 2, 3, config)

    empty = 0
    for _ in range(1000):
        # novel words recombine the same syllable alphabet
        doc = [
            "".join(rng.choice(SYLLABLES, size=int(k)))
            for k in rng.integers(2, 5, size=4)
        ]
        vec = transform(model, doc)
        if vec.nnz == 0:
            empty += 1
    assert empty == 0
    _ok(2, "1000/1000 held-out docs map to non-empty vectors")


# --------------------------------------------------------------------------
# 3. split protocols never leak time
# --------------------------------------------------------------------------


def _random_dated_records(rng) -> list[tuple[str, str]]:
    n = int(rng.integers(24, 61))
    # distinct dates drawn across ten years; at least four distinct years
    while True:
        days = rng.choice(3650, size=n, replace=False)
        dates = [
            (np.datetime64("2010-01-01") + int(d)).astype("datetime64[D]")
            for d in days
        ]
        if len({str(d)[:4] for d in dates}) >= 4:
            break
    return [(f"r{i}", str(d)) for i, d in enumerate(dates)]


def test_criterion_03_temporal_splits_over_500_datasets():
    rng = np.random.default_rng(23)
    for trial in range(500):
        records = _random_dated_records(rng)
        plan = time_kfold_splits(records, 2)
        assert check_temporal_order(plan, records) == [], f"trial {trial}"

        plan12 = rounds12_splits(records)
        assert len(plan12.tuples) == 10
        assert check_temporal_order(plan12, records) == [], f"trial {trial}"
        fold_sets = [set(t.val_ids) for t in plan12.tuples] + [
            set(plan12.tuples[-1].test_ids)
        ]
        assert len(plan12.tuples[0].train_ids) + sum(len(s) for s in fold_sets) == len(
            records
        )

        plan10 = rounds10_wrap_splits(records, seed=trial)
        assert len(plan10.tuples) == 10
        everything = {rid for rid, _ in records}
        for i, t in enumerate(plan10.tuples):
            train, val, test = set(t.train_ids), set(t.val_ids), set(t.test_ids)
            assert not train & val and not train & test and not val & test
            assert train | val | test == everything
            # wrap arithmetic: this round's test fold validates next round
            assert t.test_ids == plan10.tuples[(i + 1) % 10].val_ids
    _ok(3, "500 datasets: ordering strict, rounds12 = 10 rounds, wrap clean")


# --------------------------------------------------------------------------
# 4. metrics equal a brute-force confusion-matrix oracle
# --------------------------------------------------------------------------


def test_criterion_04_metric_oracle_equivalence():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 201))
        classes = [f"c{j}" for j in range(n_classes)]
        gold = [classes[k] for k in rng.integers(0, n_classes, size=n)]
        pred = [classes[k] for k in rng.integers(0, n_classes, size=n)]
        report = compute_metrics(gold, pred)
        expected = oracles.metrics_oracle(gold, pred, labels=report.classes)
        for mine, theirs in (
            (report.accuracy, expected["accuracy"]),
            (report.macro_f1, expected["macro_f1"]),
            (report.weighted_f1, expected["weighted_f1"]),
            (report.mcc, expected["mcc"]),
        ):
            assert abs(mine - theirs) < 1e-12, f"trial {trial}"
    _ok(4, "1000 instances match the oracle within 1e-12")


# --------------------------------------------------------------------------
# 5. analytic gradients agree with central differences
# --------------------------------------------------------------------------


def test_criterion_05_gradient_check():
    started = time.perf_counter()
    config = AcGruConfig(
        vocab_size=50,
        input_len=12,
        embed_dim=8,
        filter_sizes=(1, 3, 5),
        filters_per_size=4,
        gru_hidden=6,
        attention_hidden=6,
        tasks=(("task_a", 3), ("task_b", 2)),
        dropout=0.0,
        seed=5,
    )
    params = init_parameters(config)
    rng = np.random.default_rng(5)
    inp = CommitInput(
        *[rng.integers(0, config.vocab_size, size=config.input_len) for _ in range(4)]
    )
    gold = {"task_a": 2, "task_b": 1}
    _, cache = forward(params, config, inp)
    analytic = backward(params, config, cache, gold)

    def loss_now():
        _, c = forward(params, config, inp)
        return multitask_loss(c["probs"], gold)

    for name in params.names():
        numeric = oracles.numerical_gradient(loss_now, params.data[name], h=1e-5)
        # floor 1e-6: components near zero are judged absolutely at 1e-10,
        # below which h=1e-5 central differences are pure float64 roundoff
        rel = oracles.relative_errors(analytic[name], numeric, floor=1e-6)
        assert rel.max() < 1e-4, f"{name}: {rel.max():.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(5, f"all parameter blocks under 1e-4 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 6. the network memorizes a small multi-task dataset
# --------------------------------------------------------------------------

OVERFIT_TASKS = (
    ("Confidentiality", 3),
    ("Integrity", 3),
    ("Availability", 3),
    ("Access Vector", 2),
    ("Access Complexity", 3),
    ("Authentication", 2),
    ("Severity", 3),
)


def _overfit_sample(rng, config):
    labels = {
        name: int(rng.integers(0, n_classes)) for name, n_classes in OVERFIT_TASKS
    }
    # one marker token per task/class pair, repeated across sequences
    markers = [
        10 * (t + 1) + labels[name] for t, (name, _) in enumerate(OVERFIT_TASKS)
    ]
    seqs = []
    for _ in range(4):
        noise = rng.integers(100, config.vocab_size, size=3).tolist()
        seqs.append(markers + noise)
    return make_commit_input(seqs, config.input_len), labels


def test_criterion_06_toy_overfit():
    started = time.perf_counter()
    config = AcGruConfig(
        vocab_size=120,
        input_len=10,
        embed_dim=8,
        filter_sizes=(1, 3),
        filters_per_size=4,
        gru_hidden=8,
        attention_hidden=8,
        tasks=OVERFIT_TASKS,
        dropout=0.0,
        lr=0.005,
        batch=8,
        epochs=200,
        patience=999,
        seed=13,
    )
    rng = np.random.default_rng(29)
    train_set = [_overfit_sample(rng, config) for _ in range(40)]
    best_params, history = train_acgru(config, train_set, train_set)
    assert len(history) <= 200

    correct = {name: 0 for name, _ in OVERFIT_TASKS}
    for inp, labels in train_set:
        picks, _ = predict_acgru(best_params, config, inp)
        for name, _ in OVERFIT_TASKS:
            correct[name] += picks[name] == labels[name]
    for name, hits in correct.items():
        assert hits / len(train_set) >= 0.95, f"{name}: {hits}/40"

    losses = [loss for _, loss, _ in history]
    assert all(loss > 0.0 for loss in losses)
    if len(losses) >= 10:
        window_best = [min(losses[i : i + 10]) for i in range(len(losses) - 9)]
        for earlier, later in zip(window_best, window_best[1:]):
            assert later <= earlier
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    worst = min(correct.values())
    _ok(6, f"per-task train accuracy >= {worst}/40, loss windows descend ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 7. reliable-negative mining obeys its distance contract
# --------------------------------------------------------------------------


def _cosine(x, y):
    return 1.0 - float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))


def test_criterion_07_stage1_contract_and_centroid():
    rng = np.random.default_rng(41)
    p_vectors = rng.normal(1.0, 0.6, size=(40, 8))
    u_vectors = rng.normal(-0.4, 1.1, size=(60, 8))
    c_p = p_vectors.mean(axis=0)
    c_u = u_vectors.mean(axis=0)

    previous: set[int] = set()
    for alpha in (0.5, 0.8, 1.0, 1.3, 2.0):
        rn = reliable_negatives(p_vectors, u_vectors, alpha)
        expected = {
            i
            for i, x in enumerate(u_vectors)
            if _cosine(x, c_u) < alpha * _cosine(x, c_p)
        }
        assert set(rn) == expected
        assert previous <= set(rn)  # monotone in alpha
        previous = set(rn)

    # incremental centroid vs batch mean over 10,000 single-vector updates
    dim = 6
    store = np.empty((10_003, dim))
    store[:3] = rng.normal(size=(3, dim))
    centroid = store[:3].mean(axis=0)
    n = 3
    for step in range(10_000):
        new = rng.normal(size=(1, dim))
        store[n] = new[0]
        centroid = update_centroid(centroid, n, new)
        n += 1
        reference = oracles.batch_centroid(store[:n])
        assert np.max(np.abs(centroid - reference)) < 1e-9, f"update {step}"
    _ok(7, "distance contract exact, RN monotone, centroid drift < 1e-9")


# --------------------------------------------------------------------------
# 8. two-stage PU learning recovers held-out positives
# --------------------------------------------------------------------------


def test_criterion_08_pu_end_to_end_recall():
    rng = np.random.default_rng(59)
    dim = 6
    positive = rng.normal(3.0, 1.0, size=(80, dim))
    p_train, p_held = positive[:40], positive[40:]
    u_pos = rng.normal(3.0, 1.0, size=(30, dim))
    u_neg = rng.normal(-3.0, 1.0, size=(30, dim))
    unlabeled = np.vstack([u_pos, u_neg])

    config = PuConfig(
        alpha=1.0,
        embedding_tag="gaussian-toy",
        stage2=ClassifierSpec(kind="logistic_regression", c=1.0),
    )
    model = pu_train(p_train, unlabeled, config)
    predicted = pu_predict(model, p_held)
    recall = sum(label == "positive" for label in predicted) / len(predicted)
    assert recall >= 0.9
    _ok(8, f"held-out positive recall {recall:.2f} at alpha=1")


# --------------------------------------------------------------------------
# 9. content-filter defaults and the match-ratio rational
# --------------------------------------------------------------------------


def test_criterion_09_filter_defaults_bit_exact():
    emitted = ContentFilterConfig().to_dict()
    assert emitted == {
        "SO": {"1": [1, 0.011], "2": [3, 0.017]},
        "SSE": {"1": [2, 0.017], "2": [3, 0.025]},
    }
    # serialization keeps the exact decimal literals
    text = json.dumps(emitted, sort_keys=True)
    for literal in ("0.011", "0.017", "0.025"):
        assert literal in text

    keywords = KeywordSet(frozenset({"xss", "inject"}))
    words = ["xss", "inject", "xss"] + ["filler"] * 97
    count, ratio = keyword_metrics(" ".join(words), keywords)
    assert count == 3
    assert ratio == 0.03
    _ok(9, "thresholds bit-exact, 3 matches in 100 words -> 0.03")


# --------------------------------------------------------------------------
# 10. closest-enclosing-scope fixtures
# --------------------------------------------------------------------------

SCOPE_FIXTURES = [
    (
        "method body",
        [
            "class Register {",
            "    int total;",
            "    void add(int amount) {",
            "        total += amount;",
            "        log(amount);",
            "    }",
            "}",
        ],
        (4, 5),
        ("method", 3, 6),
    ),
    (
        "if nested in loop",
        [
            "class Walker {",
            "    void scan(int[] xs) {",
            "        for (int i = 0; i < xs.length; i++) {",
            "            if (xs[i] < 0) {",
            "                flip(i);",
            "            }",
            "        }",
            "    }",
            "}",
        ],
        (5, 5),
        ("if_else", 4, 6),
    ),
    (
        "field declaration between methods",
        [
            "class Config {",
            "    void load() {",
            "        read();",
            "    }",
            "    int retries = 3;",
            "    void save() {",
            "        write();",
            "    }",
            "}",
        ],
        (5, 5),
        ("type_decl", 1, 9),
    ),
    (
        "whole-file hunk",
        [
            "import util.Log;",
            "class Tiny {",
            "    void f() {",
            "        g();",
            "    }",
            "}",
        ],
        (1, 6),
        ("file_root", 1, 6),
    ),
    (
        "braces inside a string literal",
        [
            "class Render {",
            "    String wrap(String body) {",
            "        String tpl = \"if (x) { nope }\";",
            "        return tpl + body;",
            "    }",
            "}",
        ],
        (3, 4),
        ("method", 2, 5),
    ),
    (
        "catch block",
        [
            "class Loader {",
            "    void pull() {",
            "        try {",
            "            fetch();",
            "        } catch (Error e) {",
            "            retry();",
            "        }",
            "    }",
            "}",
        ],
        (6, 6),
        ("try_catch", 5, 7),
    ),
    (
        "switch case",
        [
            "class Dispatch {",
            "    void route(int kind) {",
            "        switch (kind) {",
            "        case 1:",
            "            north();",
            "            break;",
            "        default:",
            "            south();",
            "        }",
            "    }",
            "}",
        ],
        (5, 6),
        ("switch", 3, 9),
    ),
    (
        "hunk on the loop header itself",
        [
            "class Spin {",
            "    void hold(Flag flag) {",
            "        while (flag.up()) {",
            "            pause();",
            "        }",
            "    }",
            "}",
        ],
        (3, 3),
        ("loop", 3, 5),
    ),
    (
        "anonymous class dissolves, inner method kept",
        [
            "class Sched {",
            "    void arm() {",
            "        Runnable r = new Runnable() {",
            "            public void run() {",
            "                fire();",
            "            }",
            "        };",
            "        cancelOld();",
            "    }",
            "}",
        ],
        (5, 5),
        ("method", 4, 6),
    ),
    (
        "hunk spanning two sibling methods",
        [
            "class Pair {",
            "    void first() {",
            "        a();",
            "    }",
            "    void second() {",
            "        b();",
            "    }",
            "}",
        ],
        (3, 6),
        ("type_decl", 1, 8),
    ),
    (
        "else branch",
        [
            "class Gate {",
            "    void pass(boolean ok) {",
            "        if (ok) {",
            "            open();",
            "        } else {",
            "            alarm();",
            "        }",
            "    }",
            "}",
        ],
        (6, 6),
        ("if_else", 5, 7),
    ),
    (
        "comment-shielded brace",
        [
            "class Note {",
            "    void jot() {",
            "        // brace in prose: { ignore",
            "        append();",
            "    }",
            "}",
        ],
        (4, 4),
        ("method", 2, 5),
    ),
]


def test_criterion_10_scope_fixtures():
    assert len(SCOPE_FIXTURES) == 12
    for name, lines, (h_start, h_end), (kind, start, end) in SCOPE_FIXTURES:
        tree = parse_scopes("\n".join(lines))
        node = extract_ces(tree, h_start, h_end)
        assert (node.kind, node.start_line, node.end_line) == (kind, start, end), name

    # multi-hunk extraction dedups scopes per span
    tree = parse_scopes("\n".join(SCOPE_FIXTURES[0][1]))
    nodes = extract_commit_ces(tree, [(4, 4), (5, 5), (2, 2)])
    assert [(n.kind, n.start_line, n.end_line) for n in nodes] == [
        ("method", 3, 6),
        ("type_decl", 1, 7),
    ]
    _ok(10, "12 fixtures match hand-derived scopes")


# --------------------------------------------------------------------------
# 11. latent projection error equals the dense oracle
# --------------------------------------------------------------------------


def test_criterion_11_lsa_vs_dense_oracle():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=(20, 15))
        model = lsa_fit(a, k=4, seed=seed)
        projected = (a @ model.components) @ model.components.T
        mine = float(np.sqrt(((a - projected) ** 2).sum()))
        reference = oracles.rank_k_reconstruction_error(a, 4)
        assert abs(mine - reference) < 1e-6, f"seed {seed}"
    _ok(11, "10 random 20x15 matrices within 1e-6 of the Jacobi oracle")


# --------------------------------------------------------------------------
# 12. command-line pipeline: fast, complete, reproducible
# --------------------------------------------------------------------------


def test_criterion_12_cli_pipeline(tmp_path, capsys):
    out = tmp_path / "run"
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "dataset": str(DATA),
                "out": str(out),
                "granularity": "report",
                "protocol": "time_kfold",
                "time_k": 2,
                "policy": "ch3",
                "seed": 0,
                "feature_configs": [1, 2],
                "classifiers": ["naive_bayes", "logistic_regression"],
            }
        ),
        encoding="utf-8",
    )

    started = time.perf_counter()
    assert cli.main(["ingest", "--config", str(config_path)]) == 0
    assert cli.main(["train", "--config", str(config_path)]) == 0
    assert cli.main(["evaluate", "--config", str(config_path)]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert elapsed < 60.0

    report = (out / "report.txt").read_text(encoding="utf-8")
    lines = report.splitlines()
    assert len(lines) == 1 + len(CVSS_TASKS) + 1
    for task in CVSS_TASKS:
        assert any(line.startswith(task) for line in lines[1:]), task
    assert lines[-1].startswith("average")
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert set(metrics) == set(CVSS_TASKS)

    snapshot = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert cli.main(["ingest", "--config", str(config_path)]) == 0
    assert cli.main(["train", "--config", str(config_path)]) == 0
    assert cli.main(["evaluate", "--config", str(config_path)]) == 0
    capsys.readouterr()
    rerun = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert snapshot.keys() == rerun.keys()
    for name in snapshot:
        assert snapshot[name] == rerun[name], f"{name} differs across reruns"
    _ok(12, f"pipeline in {elapsed:.1f}s, 7-task report, byte-identical rerun")
