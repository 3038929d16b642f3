import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import svassess.neural as neural
from svassess.neural import (
    AcGruConfig,
    AdamState,
    CommitInput,
    adam_step,
    backward,
    backward_batch,
    forward,
    forward_batch,
    init_parameters,
    load_parameters,
    make_commit_input,
    multitask_loss,
    predict_acgru,
    save_parameters,
    softmax,
    train_acgru,
)


def toy_config(**over):
    base = dict(
        vocab_size=50,
        input_len=12,
        embed_dim=8,
        filter_sizes=(1, 3, 5),
        filters_per_size=4,
        gru_hidden=6,
        attention_hidden=6,
        tasks=(("alpha", 3), ("beta", 2)),
        dropout=0.0,
        lr=0.001,
        batch=4,
        epochs=5,
        patience=2,
        seed=7,
    )
    base.update(over)
    return AcGruConfig(**base)


def random_input(config, rng):
    seqs = [rng.integers(0, config.vocab_size, size=config.input_len) for _ in range(4)]
    return CommitInput(*[np.asarray(s, dtype=np.int64) for s in seqs])


# ---------------------------------------------------------------------------
# Config and input plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(vocab_size=0)
    with pytest.raises(ValueError):
        toy_config(filter_sizes=(1, 13))  # longer than input_len
    with pytest.raises(ValueError):
        toy_config(filter_sizes=())
    with pytest.raises(ValueError):
        toy_config(tasks=())
    with pytest.raises(ValueError):
        toy_config(tasks=(("alpha", 1),))
    with pytest.raises(ValueError):
        toy_config(dropout=1.0)


def test_commit_width():
    cfg = toy_config()
    assert cfg.commit_width == 4 * 3 * 6


def test_make_commit_input_pads_and_truncates():
    inp = make_commit_input([[5, 6], [1] * 20, [], [9]], input_len=8)
    assert inp.pre_hunk.tolist() == [5, 6, 0, 0, 0, 0, 0, 0]
    assert inp.post_hunk.tolist() == [1] * 8
    assert inp.pre_ces.tolist() == [0] * 8
    assert len(inp.post_ces) == 8


def test_forward_rejects_out_of_range_ids():
    cfg = toy_config()
    params = init_parameters(cfg)
    bad = make_commit_input([[cfg.vocab_size], [0], [0], [0]], cfg.input_len)
    with pytest.raises(ValueError):
        forward(params, cfg, bad)
    neg = make_commit_input([[0], [0], [0], [0]], cfg.input_len)
    neg.pre_hunk[0] = -1
    with pytest.raises(ValueError):
        forward(params, cfg, neg)


def test_forward_rejects_wrong_length():
    cfg = toy_config()
    params = init_parameters(cfg)
    short = CommitInput(*[np.zeros(5, dtype=np.int64) for _ in range(4)])
    with pytest.raises(ValueError):
        forward(params, cfg, short)


# ---------------------------------------------------------------------------
# Forward pass structure
# ---------------------------------------------------------------------------

def test_conv_feature_map_shapes():
    cfg = toy_config()
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(0))
    _, cache = forward(params, cfg, inp)
    assert len(cache["branches"]) == len(cfg.filter_sizes)
    # time-major: (steps, the input's 4 sequences, filters)
    for branch, k in zip(cache["branches"], cfg.filter_sizes):
        assert branch["x"].shape == (cfg.input_len - k + 1, 4, cfg.filters_per_size)


def test_commit_vector_width():
    cfg = toy_config()
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(1))
    _, cache = forward(params, cfg, inp)
    assert cache["commit_dropped"].shape == (1, 4 * 3 * cfg.gru_hidden)


def test_zero_gru_weights_give_zero_states():
    cfg = toy_config(filter_sizes=(2,))
    params = init_parameters(cfg)
    for gate in ("z", "r", "h"):
        params.data[f"gru2_w{gate}"][:] = 0.0
        params.data[f"gru2_u{gate}"][:] = 0.0
        params.data[f"gru2_b{gate}"][:] = 0.0
    inp = random_input(cfg, np.random.default_rng(2))
    _, cache = forward(params, cfg, inp)
    branch = cache["branches"][0]
    assert np.all(branch["h"] == 0.0)
    assert np.all(branch["z"] == 0.5)
    assert np.all(cache["commit_dropped"] == 0.0)


def test_single_step_attention_returns_that_state():
    # filter as long as the input -> one feature-map row -> one GRU state
    cfg = toy_config(filter_sizes=(12,))
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(3))
    _, cache = forward(params, cfg, inp)
    branch = cache["branches"][0]
    assert branch["weights"].tolist() == [[1.0] * 4]
    # one filter size: the commit vector is each sequence's one state in turn
    np.testing.assert_array_equal(cache["commit_dropped"].reshape(4, cfg.gru_hidden), branch["h"][1])


def test_equal_logits_give_half_half():
    assert softmax(np.zeros(2)).tolist() == [0.5, 0.5]


def test_eval_mode_is_deterministic_and_mask_free():
    cfg = toy_config(dropout=0.5)
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(4))
    l1, c1 = forward(params, cfg, inp, train_mode=False)
    l2, c2 = forward(params, cfg, inp, train_mode=False)
    for name, _ in cfg.tasks:
        np.testing.assert_array_equal(l1[name], l2[name])
        assert np.all(c1["tasks"][name]["mask"] == 1.0)
    assert np.all(c1["commit_mask"] == 1.0)


def test_train_mode_requires_rng_and_masks_vary():
    cfg = toy_config(dropout=0.5)
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(5))
    with pytest.raises(ValueError):
        forward(params, cfg, inp, train_mode=True)
    rng = np.random.default_rng(6)
    _, c1 = forward(params, cfg, inp, train_mode=True, rng=rng)
    _, c2 = forward(params, cfg, inp, train_mode=True, rng=rng)
    assert not np.array_equal(c1["commit_mask"], c2["commit_mask"])
    assert set(np.round(np.unique(c1["commit_mask"]), 6)) <= {0.0, 2.0}


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_loss_uniform_seven_tasks_three_classes():
    probs = {f"t{i}": np.full(3, 1.0 / 3.0) for i in range(7)}
    gold = {f"t{i}": i % 3 for i in range(7)}
    assert multitask_loss(probs, gold) == pytest.approx(7 * np.log(3), abs=1e-12)


def test_loss_perfect_prediction_is_zero():
    probs = {"a": np.array([0.0, 1.0]), "b": np.array([1.0, 0.0, 0.0])}
    assert multitask_loss(probs, {"a": 1, "b": 0}) == 0.0


def test_loss_single_task_half():
    assert multitask_loss({"a": np.array([0.5, 0.5])}, {"a": 0}) == pytest.approx(
        np.log(2), abs=1e-12
    )


def test_loss_clamps_zero_probability_with_warning():
    probs = {"a": np.array([1.0, 0.0])}
    with pytest.warns(UserWarning):
        loss = multitask_loss(probs, {"a": 1})
    assert loss == pytest.approx(-np.log(1e-12))


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8), st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    x = np.array(logits)
    p = softmax(x)
    assert abs(p.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(p, softmax(x + shift), atol=1e-9)


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_loss_nonnegative(logits):
    p = softmax(np.array(logits))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # extreme logits may hit the clamp
        assert multitask_loss({"a": p}, {"a": 0}) >= 0.0


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def test_head_bias_gradient_is_probs_minus_onehot():
    cfg = toy_config()
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(8))
    _, cache = forward(params, cfg, inp)
    gold = {"alpha": 2, "beta": 0}
    grads = backward(params, cfg, cache, gold)
    expected = cache["probs"]["alpha"].copy()
    expected[2] -= 1.0
    np.testing.assert_allclose(grads["head_alpha_b"], expected, atol=1e-12)


def test_zero_loss_gives_all_zero_gradients():
    cfg = toy_config()
    params = init_parameters(cfg)
    for name, nlabels in cfg.tasks:
        params.data[f"head_{name}_w"][:] = 0.0
        bias = np.full(nlabels, -800.0)
        bias[0] = 800.0
        params.data[f"head_{name}_b"] = bias
    inp = random_input(cfg, np.random.default_rng(9))
    _, cache = forward(params, cfg, inp)
    gold = {"alpha": 0, "beta": 0}
    assert multitask_loss(cache["probs"], gold) == 0.0
    grads = backward(params, cfg, cache, gold)
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_stale_cache_rejected():
    cfg = toy_config()
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(10))
    _, cache = forward(params, cfg, inp)
    state = AdamState.for_params(params)
    adam_step(params, {k: np.zeros_like(v) for k, v in params.data.items()}, state, 0.001)
    with pytest.raises(ValueError):
        backward(params, cfg, cache, {"alpha": 0, "beta": 0})


def test_gradients_match_finite_differences():
    cfg = toy_config()
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(11))
    gold = {"alpha": 1, "beta": 0}
    _, cache = forward(params, cfg, inp)
    analytic = backward(params, cfg, cache, gold)

    def loss_now():
        _, c = forward(params, cfg, inp)
        return multitask_loss(c["probs"], gold)

    # floor 1e-6: components whose true gradient is ~1e-8 are measured
    # essentially absolutely (tolerance 1e-10), because central differences
    # at h=1e-5 carry ~1e-11 of float64 roundoff; a genuinely wrong term
    # would still miss by the component's own magnitude and fail.
    for name in params.names():
        numeric = oracles.numerical_gradient(loss_now, params.data[name], h=1e-5)
        errs = oracles.relative_errors(analytic[name], numeric, floor=1e-6)
        assert errs.max() < 1e-4, f"{name}: max rel err {errs.max():.3e}"


def test_dropout_masks_flow_through_backward():
    cfg = toy_config(dropout=0.5)
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(12))
    gold = {"alpha": 0, "beta": 1}
    rng = np.random.default_rng(13)
    _, cache = forward(params, cfg, inp, train_mode=True, rng=rng)
    grads = backward(params, cfg, cache, gold)
    # gradients through a dropped commit coordinate must vanish for task weights
    dropped = cache["commit_mask"][0] == 0.0
    assert np.all(grads["task_alpha_w"][dropped] == 0.0)


# ---------------------------------------------------------------------------
# Batched forward/backward
# ---------------------------------------------------------------------------

@given(
    n=st.integers(1, 6),
    input_len=st.integers(1, 6),
    mid_k=st.integers(1, 6),
    dropout=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_batched_gradients_equal_summed_per_sample_gradients(n, input_len, mid_k, dropout, seed):
    # the filter sizes always include k = input_len: one GRU step per sequence
    sizes = tuple(sorted({1, min(mid_k, input_len), input_len}))
    cfg = toy_config(input_len=input_len, filter_sizes=sizes, dropout=dropout)
    params = init_parameters(cfg, np.random.default_rng(seed))
    data_rng = np.random.default_rng(seed + 1)
    inputs = [random_input(cfg, data_rng) for _ in range(n)]
    golds = [
        {"alpha": int(data_rng.integers(3)), "beta": int(data_rng.integers(2))}
        for _ in range(n)
    ]
    train = dropout > 0.0
    # equal seeds: the batch draws each input's masks in per-input order
    batch_rng = np.random.default_rng(seed + 2) if train else None
    one_rng = np.random.default_rng(seed + 2) if train else None
    logits, cache = forward_batch(params, cfg, inputs, train_mode=train, rng=batch_rng)
    batched = backward_batch(params, cfg, cache, golds)

    summed = {name: np.zeros_like(arr) for name, arr in params.data.items()}
    for row, (inp, gold) in enumerate(zip(inputs, golds)):
        one_logits, one = forward(params, cfg, inp, train_mode=train, rng=one_rng)
        np.testing.assert_array_equal(cache["commit_mask"][row], one["commit_mask"][0])
        for name, _ in cfg.tasks:
            np.testing.assert_array_equal(cache["tasks"][name]["mask"][row], one["tasks"][name]["mask"][0])
            np.testing.assert_allclose(logits[name][row], one_logits[name], rtol=1e-12, atol=1e-15)
        for name, g in backward(params, cfg, one, gold).items():
            summed[name] += g
    # relative to the whole gradient: a block like att_ba sums attention
    # terms that cancel by construction, so its own size sets no scale
    scale = max(np.abs(g).max() for g in summed.values())
    for name in params.names():
        err = np.abs(batched[name] - summed[name]).max()
        assert err <= 1e-12 * scale, (name, err / scale)


def test_one_input_batch_equals_forward():
    cfg = toy_config(dropout=0.5)
    params = init_parameters(cfg)
    inp = random_input(cfg, np.random.default_rng(15))
    for train in (False, True):
        rngs = [np.random.default_rng(16) if train else None for _ in range(2)]
        logits, cache = forward(params, cfg, inp, train_mode=train, rng=rngs[0])
        batch_logits, batch_cache = forward_batch(params, cfg, [inp], train_mode=train, rng=rngs[1])
        for name, nlabels in cfg.tasks:
            assert logits[name].shape == cache["probs"][name].shape == (nlabels,)
            assert batch_logits[name].shape == batch_cache["probs"][name].shape == (1, nlabels)
            np.testing.assert_array_equal(batch_logits[name][0], logits[name])
            np.testing.assert_array_equal(batch_cache["probs"][name][0], cache["probs"][name])


def test_backward_batch_rejects_wrong_number_of_golds():
    cfg = toy_config()
    params = init_parameters(cfg)
    rng = np.random.default_rng(17)
    _, cache = forward_batch(params, cfg, [random_input(cfg, rng) for _ in range(2)])
    with pytest.raises(ValueError):
        backward_batch(params, cfg, cache, [{"alpha": 0, "beta": 0}])


def test_forward_batch_rejects_empty_batch():
    cfg = toy_config()
    with pytest.raises(ValueError):
        forward_batch(init_parameters(cfg), cfg, [])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    cfg = toy_config()
    params = init_parameters(cfg)
    before = {k: v.copy() for k, v in params.data.items()}
    state = AdamState.for_params(params)
    adam_step(params, {k: np.zeros_like(v) for k, v in params.data.items()}, state, 0.01)
    for name, arr in params.data.items():
        np.testing.assert_array_equal(arr, before[name])


def test_adam_first_step_moves_by_lr():
    cfg = toy_config()
    params = init_parameters(cfg)
    before = {k: v.copy() for k, v in params.data.items()}
    state = AdamState.for_params(params)
    lr = 0.003
    adam_step(params, {k: np.ones_like(v) for k, v in params.data.items()}, state, lr)
    for name, arr in params.data.items():
        delta = np.abs(arr - before[name])
        assert np.max(np.abs(delta - lr)) < 1e-6, name


def test_adam_opposed_gradients_stay_bounded():
    params_holder = np.zeros(4)
    fake = init_parameters(toy_config())
    fake.data = {"w": params_holder}
    start = params_holder.copy()
    state = AdamState.for_params(fake)
    g = np.ones(4)
    adam_step(fake, {"w": g}, state, 0.01)
    adam_step(fake, {"w": -g}, state, 0.01)
    assert np.all(np.abs(fake.data["w"] - start) < 2 * 0.01)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def labeled_sample(cfg, rng, alpha_cls, beta_cls):
    # class identity is carried by dedicated marker tokens, so the net
    # only has to learn a lookup
    seqs = []
    for base in (10, 20, 30, 40):
        tok = base + alpha_cls if base in (10, 30) else base + beta_cls
        seqs.append([tok] * cfg.input_len)
    return make_commit_input(seqs, cfg.input_len), {"alpha": alpha_cls, "beta": beta_cls}


def test_train_rejects_empty_sets():
    cfg = toy_config()
    with pytest.raises(ValueError):
        train_acgru(cfg, [], [])
    sample = labeled_sample(cfg, None, 0, 0)
    with pytest.raises(ValueError):
        train_acgru(cfg, [sample], [])


def test_training_memorizes_marker_tokens():
    cfg = toy_config(
        input_len=10, epochs=60, batch=4, lr=0.01, patience=999, seed=3
    )
    rng = np.random.default_rng(0)
    data = [
        labeled_sample(cfg, rng, a, b) for a in range(3) for b in range(2)
    ] * 2
    params, history = train_acgru(cfg, data, data)
    correct = {"alpha": 0, "beta": 0}
    for inp, labels in data:
        picks, _ = predict_acgru(params, cfg, inp)
        for task in correct:
            correct[task] += picks[task] == labels[task]
    for task, n_ok in correct.items():
        assert n_ok >= len(data) - 1, (task, n_ok, len(data))
    assert all(loss > 0.0 for _, loss, _ in history)


def test_patience_zero_stops_after_first_non_improvement():
    cfg = toy_config(epochs=10, patience=0, seed=1)
    rng = np.random.default_rng(2)
    data = [labeled_sample(cfg, rng, a % 3, a % 2) for a in range(6)]
    # single-class validation gold pins MCC at 0 for every epoch
    flat_val = [
        (inp, {"alpha": 0, "beta": 0}) for inp, _ in data[:3]
    ]
    _, history = train_acgru(cfg, data, flat_val)
    assert len(history) == 2


def test_training_is_bitwise_deterministic():
    cfg = toy_config(epochs=3, dropout=0.2, seed=11)
    rng = np.random.default_rng(4)
    data = [labeled_sample(cfg, rng, a % 3, a % 2) for a in range(6)]
    p1, h1 = train_acgru(cfg, data, data)
    p2, h2 = train_acgru(cfg, data, data)
    assert h1 == h2
    for name in p1.names():
        np.testing.assert_array_equal(p1[name], p2[name])


def test_training_makes_one_forward_per_minibatch_and_validation_pass(monkeypatch):
    cfg = toy_config(epochs=3, batch=4, patience=999)
    rng = np.random.default_rng(5)
    data = [labeled_sample(cfg, rng, a % 3, a % 2) for a in range(10)]
    sizes = []
    real = neural.forward_batch

    def counting(params, config, inputs, *args, **kwargs):
        sizes.append(len(inputs))
        return real(params, config, inputs, *args, **kwargs)

    def per_sample(*args, **kwargs):
        raise AssertionError("training ran a per-sample forward")

    monkeypatch.setattr(neural, "forward_batch", counting)
    monkeypatch.setattr(neural, "forward", per_sample)
    train_acgru(cfg, data, data[:3])
    # per epoch: minibatches of 4, 4 and 2, then the 3-sample validation pass
    assert sizes == [4, 4, 2, 3] * 3


@pytest.mark.parametrize(
    "which, index, labels, task",
    [
        ("train", 1, {"alpha": -1, "beta": 0}, "alpha"),
        ("train", 1, {"alpha": 3, "beta": 0}, "alpha"),
        ("train", 1, {"alpha": 0, "beta": 1.0}, "beta"),
        ("train", 1, {"alpha": True, "beta": 0}, "alpha"),
        ("train", 1, {"alpha": 0}, "beta"),
        ("train", 1, {"alpha": 0, "beta": 0, "gamma": 0}, "gamma"),
        ("val", 0, {"alpha": 0, "beta": 2}, "beta"),
        ("val", 0, {"alpha": "1", "beta": 0}, "alpha"),
    ],
)
def test_train_rejects_bad_labels_naming_set_sample_and_task(which, index, labels, task):
    cfg = toy_config(epochs=1)
    good = [labeled_sample(cfg, None, a, a % 2) for a in range(3)]
    train, val = list(good), list(good)
    target = train if which == "train" else val
    target[index] = (target[index][0], labels)
    with pytest.raises(ValueError, match=rf"{which} sample {index}, task '{task}'"):
        train_acgru(cfg, train, val)


def test_train_accepts_numpy_integer_labels():
    cfg = toy_config(epochs=1)
    data = [
        (inp, {name: np.int64(y) for name, y in labels.items()})
        for inp, labels in (labeled_sample(cfg, None, a, a % 2) for a in range(3))
    ]
    _, history = train_acgru(cfg, data, data)
    assert len(history) == 1


def test_prediction_tie_breaks_to_lowest_index():
    cfg = toy_config()
    params = init_parameters(cfg)
    for name, _ in cfg.tasks:
        params.data[f"head_{name}_w"][:] = 0.0
        params.data[f"head_{name}_b"][:] = 0.0
    inp = random_input(cfg, np.random.default_rng(14))
    picks, probs = predict_acgru(params, cfg, inp)
    assert picks == {"alpha": 0, "beta": 0}
    np.testing.assert_allclose(probs["beta"], [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_parameter_bundle_round_trip(tmp_path):
    cfg = toy_config()
    params = init_parameters(cfg)
    path = tmp_path / "model.json"
    save_parameters(params, cfg, path)
    loaded, loaded_cfg = load_parameters(path)
    assert loaded_cfg == cfg
    assert loaded.names() == params.names()
    for name in params.names():
        np.testing.assert_array_equal(loaded[name], params[name])


def test_parameter_bundle_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"version": 99, "config": {}, "arrays": {}}')
    with pytest.raises(ValueError):
        load_parameters(path)


def _bundle_payload(tmp_path):
    cfg = toy_config()
    path = tmp_path / "model.json"
    save_parameters(init_parameters(cfg), cfg, path)
    return path, json.loads(path.read_text())


def _edit_missing_and_unknown_array(payload):
    payload["arrays"]["att_wb"] = payload["arrays"].pop("att_wa")
    return "att_wa"


def _edit_short_embedding(payload):
    payload["arrays"]["embedding"] = payload["arrays"]["embedding"][:-1]
    return "embedding"


def _edit_wide_head(payload):
    payload["arrays"]["head_beta_w"] = [row + [0.0] for row in payload["arrays"]["head_beta_w"]]
    return "head_beta_w"


def _edit_ragged_conv(payload):
    payload["arrays"]["conv3_w"][0] = payload["arrays"]["conv3_w"][0][:-1]
    return "conv3_w"


def _edit_text_bias(payload):
    payload["arrays"]["conv1_b"] = ["0"] * len(payload["arrays"]["conv1_b"])
    return "conv1_b"


def _edit_unknown_array(payload):
    payload["arrays"]["gru9_wz"] = [[0.0]]
    return "gru9_wz"


def _edit_missing_config(payload):
    del payload["config"]
    return "config"


@pytest.mark.parametrize(
    "edit",
    [
        _edit_missing_and_unknown_array,
        _edit_short_embedding,
        _edit_wide_head,
        _edit_ragged_conv,
        _edit_text_bias,
        _edit_unknown_array,
        _edit_missing_config,
    ],
)
def test_parameter_bundle_rejects_arrays_the_config_does_not_give(tmp_path, edit):
    path, payload = _bundle_payload(tmp_path)
    name = edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}.*{name}"):
        load_parameters(path)


@pytest.mark.parametrize("payload", [[], "model", 1, None])
def test_parameter_bundle_rejects_non_object(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_parameters(path)
