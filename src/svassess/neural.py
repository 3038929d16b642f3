"""Multi-task attention-conv-GRU commit classifier, built directly on
numpy: shared token embedding, one convolution + GRU + attention branch
per filter size applied to each of four code inputs, task-specific
ReLU blocks and softmax heads, summed cross-entropy loss, analytic
backpropagation, and bias-corrected Adam.

A minibatch runs as one pass: the four inputs of every sample share the
branch weights, so per filter size all their sequences go through one
convolution, one GRU recurrence and one attention step together, and
backward sums the parameter gradients over them with matrix products.

Everything is float64 and seeded; training twice with one seed produces
bit-identical parameters and history.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import SchemaError, check_value, from_fields, require_keys

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PROB_FLOOR = 1e-12
INPUT_NAMES = ("pre_hunk", "post_hunk", "pre_ces", "post_ces")


@dataclass(frozen=True)
class AcGruConfig:
    vocab_size: int = 10000
    input_len: int = 1024
    embed_dim: int = 300
    filter_sizes: tuple[int, ...] = (1, 3, 5)
    filters_per_size: int = 128
    gru_hidden: int = 128
    attention_hidden: int = 128
    tasks: tuple[tuple[str, int], ...] = ()
    dropout: float = 0.2
    lr: float = 0.001
    batch: int = 32
    epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        dims = (
            self.vocab_size,
            self.input_len,
            self.embed_dim,
            self.filters_per_size,
            self.gru_hidden,
            self.attention_hidden,
        )
        if any(d < 1 for d in dims):
            raise ValueError("all dimensions must be at least 1")
        if not self.filter_sizes:
            raise ValueError("need at least one filter size")
        if any(k < 1 or k > self.input_len for k in self.filter_sizes):
            raise ValueError("filter sizes must lie in [1, input_len]")
        if not self.tasks:
            raise ValueError("task list must not be empty")
        if any(n < 2 for _, n in self.tasks):
            raise ValueError("every task needs at least 2 labels")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def commit_width(self) -> int:
        return 4 * len(self.filter_sizes) * self.gru_hidden

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CommitInput:
    pre_hunk: np.ndarray
    post_hunk: np.ndarray
    pre_ces: np.ndarray
    post_ces: np.ndarray

    def sequences(self) -> tuple[np.ndarray, ...]:
        return (self.pre_hunk, self.post_hunk, self.pre_ces, self.post_ces)


def make_commit_input(sequences, input_len: int) -> CommitInput:
    """Pad (id 0 at the end) or truncate four id sequences to input_len."""
    if len(sequences) != 4:
        raise ValueError("a commit input needs exactly 4 sequences")
    fixed = []
    for seq in sequences:
        arr = np.asarray(list(seq[:input_len]), dtype=np.int64)
        if arr.size < input_len:
            arr = np.concatenate([arr, np.zeros(input_len - arr.size, dtype=np.int64)])
        fixed.append(arr)
    return CommitInput(*fixed)


@dataclass
class Parameters:
    data: dict[str, np.ndarray]
    revision: int = 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def names(self) -> list[str]:
        return sorted(self.data)

    def copy(self) -> "Parameters":
        return Parameters(
            data={k: v.copy() for k, v in self.data.items()}, revision=self.revision
        )


def _glorot(rng, shape) -> np.ndarray:
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def parameter_shapes(config: AcGruConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter array's name and shape, in the order
    `init_parameters` draws them."""
    l, f, h, a = (
        config.embed_dim,
        config.filters_per_size,
        config.gru_hidden,
        config.attention_hidden,
    )
    shapes: dict[str, tuple[int, ...]] = {"embedding": (config.vocab_size, l)}
    for k in config.filter_sizes:
        shapes[f"conv{k}_w"] = (k * l, f)
        shapes[f"conv{k}_b"] = (f,)
        for gate in ("z", "r", "h"):
            shapes[f"gru{k}_w{gate}"] = (f, h)
            shapes[f"gru{k}_u{gate}"] = (h, h)
            shapes[f"gru{k}_b{gate}"] = (h,)
    shapes["att_wa"] = (h, a)
    shapes["att_ba"] = (a,)
    shapes["att_ws"] = (a,)
    for name, nlabels in config.tasks:
        shapes[f"task_{name}_w"] = (config.commit_width, h)
        shapes[f"task_{name}_b"] = (h,)
        shapes[f"head_{name}_w"] = (h, nlabels)
        shapes[f"head_{name}_b"] = (nlabels,)
    return shapes


def init_parameters(config: AcGruConfig, rng=None) -> Parameters:
    """Embedding U(-0.05, 0.05), Glorot-uniform weights, zero biases.

    Arrays are created in a fixed name order so the rng stream - and
    therefore the whole training run - is reproducible.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    data: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if name == "embedding":
            data[name] = rng.uniform(-0.05, 0.05, size=shape)
        elif name.rsplit("_", 1)[1].startswith("b"):  # conv{k}_b, gru{k}_bz, att_ba, ...
            data[name] = np.zeros(shape)
        else:
            data[name] = _glorot(rng, shape)
    return Parameters(data=data)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def _rows(a: np.ndarray) -> np.ndarray:
    """`a` with every axis but the last flattened into rows."""
    return a.reshape(-1, a.shape[-1])


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b over the last axis of x, as one matrix product."""
    return (_rows(x) @ w + b).reshape(*x.shape[:-1], w.shape[1])


def _branch_forward(params: Parameters, emb: np.ndarray, k: int):
    """conv(k)+ReLU over the embedding rows of every sequence, one GRU
    recurrence over all their feature maps, and each sequence's
    attention-weighted sum of its hidden states.

    `emb` is time-major, (input_len, sequences, embed_dim), and so is
    every cached array: time first, sequence second."""
    t_steps = emb.shape[0] - k + 1
    windows = np.concatenate([emb[off : off + t_steps] for off in range(k)], axis=2)
    conv_pre = _affine(windows, params[f"conv{k}_w"], params[f"conv{k}_b"])
    x = np.maximum(conv_pre, 0.0)

    uz, ur, uh = params[f"gru{k}_uz"], params[f"gru{k}_ur"], params[f"gru{k}_uh"]
    xz = _affine(x, params[f"gru{k}_wz"], params[f"gru{k}_bz"])
    xr = _affine(x, params[f"gru{k}_wr"], params[f"gru{k}_br"])
    xh = _affine(x, params[f"gru{k}_wh"], params[f"gru{k}_bh"])
    h = np.zeros((t_steps + 1,) + xz.shape[1:])
    z = np.empty_like(xz)
    r = np.empty_like(xr)
    hhat = np.empty_like(xh)
    for t in range(t_steps):
        prev = h[t]
        z[t] = _sigmoid(xz[t] + prev @ uz)
        r[t] = _sigmoid(xr[t] + prev @ ur)
        hhat[t] = np.tanh(xh[t] + (r[t] * prev) @ uh)
        h[t + 1] = (1.0 - z[t]) * prev + z[t] * hhat[t]

    states = h[1:]
    a_tanh = np.tanh(_affine(states, params["att_wa"], params["att_ba"]))
    weights = softmax(a_tanh @ params["att_ws"], axis=0)
    att_out = np.einsum("ts,tsh->sh", weights, states)
    return att_out, {
        "k": k,
        "windows": windows,
        "conv_pre": conv_pre,
        "x": x,
        "h": h,
        "z": z,
        "r": r,
        "hhat": hhat,
        "a_tanh": a_tanh,
        "weights": weights,
    }


def _stack_ids(config: AcGruConfig, inputs) -> np.ndarray:
    """The inputs' token ids as one (4 * len(inputs), input_len) array;
    row 4*b + i is code input i of sample b."""
    if not inputs:
        raise ValueError("forward needs at least one input")
    rows = []
    for inp in inputs:
        for seq in inp.sequences():
            ids = np.asarray(seq, dtype=np.int64)
            if ids.shape != (config.input_len,):
                raise ValueError(
                    f"input length {ids.shape} does not match ({config.input_len},)"
                )
            rows.append(ids)
    ids = np.stack(rows)
    lo, hi = ids.min(), ids.max()
    if lo < 0 or hi >= config.vocab_size:
        raise ValueError(
            f"token id out of range [0, {config.vocab_size}): {int(lo if lo < 0 else hi)}"
        )
    return ids


def forward_batch(
    params: Parameters,
    config: AcGruConfig,
    inputs,
    train_mode: bool = False,
    rng=None,
):
    """Per-task logits, one row per input, plus the cache `backward_batch`
    needs.

    All 4 * len(inputs) code sequences share the branch weights, so each
    filter size runs one convolution, one GRU recurrence and one attention
    step over all of them.  Dropout masks are drawn only in train mode (rng
    required then), per input in order: the commit mask, then each task's
    mask.  Eval mode is deterministic.  Token ids outside [0, vocab_size)
    error.
    """
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout")
    ids = _stack_ids(config, inputs)
    n = len(inputs)
    emb = params["embedding"][ids.T]
    outputs, branch_caches = [], []
    for k in config.filter_sizes:
        out, cache = _branch_forward(params, emb, k)
        outputs.append(out)
        branch_caches.append(cache)
    # (sequence, filter size, hidden) -> per input: sequence, then filter size
    commit = np.stack(outputs, axis=1).reshape(n, config.commit_width)

    keep = 1.0 - config.dropout
    commit_mask = np.ones_like(commit)
    task_masks = {name: np.ones((n, config.gru_hidden)) for name, _ in config.tasks}
    if train_mode and config.dropout > 0.0:
        for row in range(n):
            commit_mask[row] = (rng.random(config.commit_width) < keep) / keep
            for name, _ in config.tasks:
                task_masks[name][row] = (rng.random(config.gru_hidden) < keep) / keep
    commit_dropped = commit * commit_mask

    logits_by_task = {}
    probs_by_task = {}
    task_caches = {}
    for name, _ in config.tasks:
        u = commit_dropped @ params[f"task_{name}_w"] + params[f"task_{name}_b"]
        mask = task_masks[name]
        act_dropped = np.maximum(u, 0.0) * mask
        logits = act_dropped @ params[f"head_{name}_w"] + params[f"head_{name}_b"]
        logits_by_task[name] = logits
        probs_by_task[name] = softmax(logits)
        task_caches[name] = {"u": u, "act_dropped": act_dropped, "mask": mask}
    cache = {
        "revision": params.revision,
        "ids": ids,
        "emb": emb,
        "branches": branch_caches,
        "commit_dropped": commit_dropped,
        "commit_mask": commit_mask,
        "tasks": task_caches,
        "probs": probs_by_task,
    }
    return logits_by_task, cache


def forward(
    params: Parameters,
    config: AcGruConfig,
    inp: CommitInput,
    train_mode: bool = False,
    rng=None,
):
    """`forward_batch` of one input: per-task logits and `cache["probs"]`
    are vectors; the other cached arrays keep their batch axis."""
    logits, cache = forward_batch(params, config, [inp], train_mode, rng)
    cache["probs"] = {name: p[0] for name, p in cache["probs"].items()}
    return {name: v[0] for name, v in logits.items()}, cache


def multitask_loss(probs_by_task: dict[str, np.ndarray], gold: dict[str, int]) -> float:
    """Sum of per-task cross-entropies -ln p[y]; zero probabilities are
    clamped at 1e-12 with a warning."""
    total = 0.0
    for name, probs in probs_by_task.items():
        p = float(probs[gold[name]])
        if p < PROB_FLOOR:
            warnings.warn(
                f"task {name}: clamping probability {p:.3e} at {PROB_FLOOR}"
            )
            p = PROB_FLOOR
        total -= np.log(p)
    return float(total)


def _branch_backward(params: Parameters, cache: dict, datt_out: np.ndarray, grads, demb):
    """Backward through one `_branch_forward`: `datt_out` is the loss
    gradient of its (sequences, hidden) output.  Adds into `grads` and into
    the time-major embedding gradient `demb`."""
    k = cache["k"]
    h, z, r, hhat = cache["h"], cache["z"], cache["r"], cache["hhat"]
    states = h[1:]
    weights = cache["weights"]
    a_tanh = cache["a_tanh"]

    # attention
    dw = np.einsum("tsh,sh->ts", states, datt_out)
    dh_steps = weights[:, :, None] * datt_out
    du = weights * (dw - (weights * dw).sum(axis=0))
    grads["att_ws"] += _rows(a_tanh).T @ du.reshape(-1)
    da = du[:, :, None] * params["att_ws"] * (1.0 - a_tanh**2)
    grads["att_wa"] += _rows(states).T @ _rows(da)
    grads["att_ba"] += _rows(da).sum(axis=0)
    dh_steps += da @ params["att_wa"].T

    # GRU backward through time, every sequence at once
    uz, ur, uh = params[f"gru{k}_uz"], params[f"gru{k}_ur"], params[f"gru{k}_uh"]
    d_zpre = np.empty_like(z)
    d_rpre = np.empty_like(r)
    d_q = np.empty_like(hhat)
    dh_next = np.zeros_like(h[0])
    for t in range(z.shape[0] - 1, -1, -1):
        dh = dh_steps[t] + dh_next
        prev = h[t]
        dz = dh * (hhat[t] - prev)
        dhh = dh * z[t]
        dprev = dh * (1.0 - z[t])
        dq = dhh * (1.0 - hhat[t] ** 2)
        d_q[t] = dq
        drh = dq @ uh.T
        dr = drh * prev
        dprev += drh * r[t]
        dzp = dz * z[t] * (1.0 - z[t])
        d_zpre[t] = dzp
        dprev += dzp @ uz.T
        drp = dr * r[t] * (1.0 - r[t])
        d_rpre[t] = drp
        dprev += drp @ ur.T
        dh_next = dprev

    x = _rows(cache["x"])
    prev_states = _rows(h[:-1])
    d_zpre, d_rpre, d_q = _rows(d_zpre), _rows(d_rpre), _rows(d_q)
    grads[f"gru{k}_wz"] += x.T @ d_zpre
    grads[f"gru{k}_wr"] += x.T @ d_rpre
    grads[f"gru{k}_wh"] += x.T @ d_q
    grads[f"gru{k}_uz"] += prev_states.T @ d_zpre
    grads[f"gru{k}_ur"] += prev_states.T @ d_rpre
    grads[f"gru{k}_uh"] += (_rows(r) * prev_states).T @ d_q
    grads[f"gru{k}_bz"] += d_zpre.sum(axis=0)
    grads[f"gru{k}_br"] += d_rpre.sum(axis=0)
    grads[f"gru{k}_bh"] += d_q.sum(axis=0)

    dx = (
        d_q @ params[f"gru{k}_wh"].T
        + d_zpre @ params[f"gru{k}_wz"].T
        + d_rpre @ params[f"gru{k}_wr"].T
    )
    dpre = dx * (_rows(cache["conv_pre"]) > 0)
    grads[f"conv{k}_w"] += _rows(cache["windows"]).T @ dpre
    grads[f"conv{k}_b"] += dpre.sum(axis=0)
    dwindows = (dpre @ params[f"conv{k}_w"].T).reshape(cache["windows"].shape)
    t_len = dwindows.shape[0]
    l = demb.shape[2]
    for off in range(k):
        demb[off : off + t_len] += dwindows[:, :, off * l : (off + 1) * l]


def backward_batch(
    params: Parameters, config: AcGruConfig, cache: dict, golds
) -> dict[str, np.ndarray]:
    """Exact gradients of the summed cross-entropy over every input of a
    `forward_batch`, one gold label dict per input, for every parameter.

    The cache must come from a forward pass against the same parameter
    revision; anything else is stale and rejected.  (The probability
    clamp in the loss applies to the reported value only - gradients
    follow the softmax-CE identity.)
    """
    if cache["revision"] != params.revision:
        raise ValueError("stale cache: parameters changed since this forward pass")
    n = cache["commit_dropped"].shape[0]
    if len(golds) != n:
        raise ValueError(f"{len(golds)} gold label sets for a batch of {n}")
    grads = {name: np.zeros_like(arr) for name, arr in params.data.items()}
    rows = np.arange(n)
    dcommit_dropped = np.zeros_like(cache["commit_dropped"])
    for name, _ in config.tasks:
        tc = cache["tasks"][name]
        # a one-input forward keeps its probs as a vector
        dlogits = cache["probs"][name].reshape(n, -1).copy()
        dlogits[rows, [gold[name] for gold in golds]] -= 1.0
        grads[f"head_{name}_w"] += tc["act_dropped"].T @ dlogits
        grads[f"head_{name}_b"] += dlogits.sum(axis=0)
        dact = (dlogits @ params[f"head_{name}_w"].T) * tc["mask"]
        du = dact * (tc["u"] > 0)
        grads[f"task_{name}_w"] += cache["commit_dropped"].T @ du
        grads[f"task_{name}_b"] += du.sum(axis=0)
        dcommit_dropped += du @ params[f"task_{name}_w"].T
    dcommit = dcommit_dropped * cache["commit_mask"]
    # per input: sequence, then filter size -> (sequence, filter size, hidden)
    dcommit = dcommit.reshape(4 * n, len(config.filter_sizes), config.gru_hidden)
    demb = np.zeros_like(cache["emb"])
    for j, branch in enumerate(cache["branches"]):
        _branch_backward(params, branch, dcommit[:, j], grads, demb)
    np.add.at(grads["embedding"], cache["ids"].T, demb)
    return grads


def backward(
    params: Parameters, config: AcGruConfig, cache: dict, gold: dict[str, int]
) -> dict[str, np.ndarray]:
    """`backward_batch` of a one-input `forward`."""
    return backward_batch(params, config, cache, [gold])


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: Parameters) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.data.items()},
            v={k: np.zeros_like(a) for k, a in params.data.items()},
        )


def adam_step(
    params: Parameters,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """In-place bias-corrected Adam; bumps the parameter revision."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        params.data[name] -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
    params.revision += 1


def predict_acgru(
    params: Parameters, config: AcGruConfig, inp: CommitInput
) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    """Eval-mode argmax per task; ties resolve to the lowest index."""
    logits, cache = forward(params, config, inp, train_mode=False)
    picks = {name: int(np.argmax(logits[name])) for name, _ in config.tasks}
    return picks, cache["probs"]


def _mean_val_mcc(params: Parameters, config: AcGruConfig, val_set) -> float:
    """Mean over tasks of the validation MCC, from one eval-mode
    `forward_batch` over the whole set."""
    from .evaluation import compute_metrics

    logits, _ = forward_batch(params, config, [inp for inp, _ in val_set])
    per_task = [
        compute_metrics(
            [str(labels[name]) for _, labels in val_set],
            [str(pick) for pick in np.argmax(logits[name], axis=1)],
        ).mcc
        for name, _ in config.tasks
    ]
    return float(sum(per_task) / len(per_task))


def _check_labels(config: AcGruConfig, samples, which: str) -> None:
    """Every sample's labels hold exactly the config's tasks, each a
    non-bool int in [0, n_labels)."""
    tasks = dict(config.tasks)
    for i, (_, labels) in enumerate(samples):
        where = f"{which} sample {i}"
        if not isinstance(labels, dict):
            raise ValueError(f"{where}: labels must map task name to label, got {labels!r}")
        for name in labels:
            if name not in tasks:
                raise ValueError(f"{where}, task {name!r}: not a task of the config")
        for name, n_labels in config.tasks:
            if name not in labels:
                raise ValueError(f"{where}, task {name!r}: label missing")
            y = labels[name]
            if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or not 0 <= y < n_labels:
                raise ValueError(
                    f"{where}, task {name!r}: label {y!r} is not an int in [0, {n_labels})"
                )


def train_acgru(
    config: AcGruConfig, train_set, val_set
) -> tuple[Parameters, list[tuple[int, float, float]]]:
    """Minibatch Adam with early stopping on mean validation MCC.

    Each minibatch is one `forward_batch` and one `backward_batch`.
    Snapshots the best-validation parameters and returns them with the
    (epoch, train_loss, val_mcc) history.  Stops once the epochs since
    the best score exceed the patience.  Bitwise deterministic per seed.
    """
    if not train_set:
        raise ValueError("empty training set")
    if not val_set:
        raise ValueError("empty validation set")
    _check_labels(config, train_set, "train")
    _check_labels(config, val_set, "val")
    rng = np.random.default_rng(config.seed)
    params = init_parameters(config, rng)
    state = AdamState.for_params(params)
    history: list[tuple[int, float, float]] = []
    best_mcc = -np.inf
    best_params = params.copy()
    since_best = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch):
            batch = [train_set[idx] for idx in order[start : start + config.batch]]
            golds = [labels for _, labels in batch]
            _, cache = forward_batch(
                params, config, [inp for inp, _ in batch], train_mode=True, rng=rng
            )
            for row, labels in enumerate(golds):
                probs = {name: p[row] for name, p in cache["probs"].items()}
                epoch_loss += multitask_loss(probs, labels)
            grads = backward_batch(params, config, cache, golds)
            for g in grads.values():
                g /= len(batch)
            adam_step(params, grads, state, config.lr)
        train_loss = epoch_loss / len(train_set)
        val_mcc = _mean_val_mcc(params, config, val_set)
        history.append((epoch, float(train_loss), val_mcc))
        if val_mcc > best_mcc:
            best_mcc = val_mcc
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break
    return best_params, history


# ---------------------------------------------------------------------------
# Persistence: versioned JSON bundle of named arrays.
# ---------------------------------------------------------------------------

BUNDLE_VERSION = 1


def save_parameters(params: Parameters, config: AcGruConfig, path) -> None:
    payload = {
        "version": BUNDLE_VERSION,
        "config": config.to_dict(),
        "arrays": {name: params.data[name].tolist() for name in params.names()},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_parameters(path) -> tuple[Parameters, AcGruConfig]:
    """A bundle written by `save_parameters`.  Raises `ValueError` naming
    the file, and the key or array, for anything else: another version, a
    missing or unknown key, a missing or unknown array, or an array whose
    shape the config does not give it."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    require_keys(payload, ("version",), str(path))
    if payload["version"] != BUNDLE_VERSION:
        raise ValueError(f"{path}: unsupported bundle version {payload['version']!r}")
    require_keys(payload, ("version", "config", "arrays"), str(path), exact=True)
    config = from_fields(AcGruConfig, payload["config"], f"{path}, key 'config'")
    shapes = parameter_shapes(config)
    arrays = payload["arrays"]
    require_keys(arrays, shapes, f"{path}, key 'arrays'", exact=True)
    data = {}
    for name, shape in shapes.items():
        where = f"{path}, array {name!r}"
        data[name] = check_value(arrays[name], np.ndarray, where)
        if data[name].shape != shape:
            raise SchemaError(f"{where}: shape {data[name].shape}, the config needs {shape}")
    return Parameters(data=data), config
