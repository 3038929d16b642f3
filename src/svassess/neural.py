"""Multi-task attention-conv-GRU commit classifier, built directly on
numpy: shared token embedding, one convolution + GRU + attention branch
per filter size applied to each of four code inputs, task-specific
ReLU blocks and softmax heads, summed cross-entropy loss, analytic
backpropagation, and bias-corrected Adam.

Everything is float64 and seeded; training twice with one seed produces
bit-identical parameters and history.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import from_fields

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


def init_parameters(config: AcGruConfig, rng=None) -> Parameters:
    """Embedding U(-0.05, 0.05), Glorot-uniform weights, zero biases.

    Arrays are created in a fixed name order so the rng stream - and
    therefore the whole training run - is reproducible.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    l, f, h, a = (
        config.embed_dim,
        config.filters_per_size,
        config.gru_hidden,
        config.attention_hidden,
    )
    data: dict[str, np.ndarray] = {}
    data["embedding"] = rng.uniform(-0.05, 0.05, size=(config.vocab_size, l))
    for k in config.filter_sizes:
        data[f"conv{k}_w"] = _glorot(rng, (k * l, f))
        data[f"conv{k}_b"] = np.zeros(f)
        for gate in ("z", "r", "h"):
            data[f"gru{k}_w{gate}"] = _glorot(rng, (f, h))
            data[f"gru{k}_u{gate}"] = _glorot(rng, (h, h))
            data[f"gru{k}_b{gate}"] = np.zeros(h)
    data["att_wa"] = _glorot(rng, (h, a))
    data["att_ba"] = np.zeros(a)
    data["att_ws"] = _glorot(rng, (a,))
    width = config.commit_width
    for name, nlabels in config.tasks:
        data[f"task_{name}_w"] = _glorot(rng, (width, h))
        data[f"task_{name}_b"] = np.zeros(h)
        data[f"head_{name}_w"] = _glorot(rng, (h, nlabels))
        data[f"head_{name}_b"] = np.zeros(nlabels)
    return Parameters(data=data)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    ex = np.exp(shifted)
    return ex / ex.sum()


def _branch_forward(params: Parameters, emb: np.ndarray, k: int):
    """conv(k)+ReLU over embedding rows, GRU over the feature map,
    attention-weighted sum of hidden states."""
    n = emb.shape[0]
    t_steps = n - k + 1
    windows = np.concatenate([emb[off : off + t_steps] for off in range(k)], axis=1)
    conv_pre = windows @ params[f"conv{k}_w"] + params[f"conv{k}_b"]
    x = np.maximum(conv_pre, 0.0)

    wz, wr, wh = params[f"gru{k}_wz"], params[f"gru{k}_wr"], params[f"gru{k}_wh"]
    uz, ur, uh = params[f"gru{k}_uz"], params[f"gru{k}_ur"], params[f"gru{k}_uh"]
    bz, br, bh = params[f"gru{k}_bz"], params[f"gru{k}_br"], params[f"gru{k}_bh"]
    xz = x @ wz + bz
    xr = x @ wr + br
    xh = x @ wh + bh
    hidden = wz.shape[1]
    h = np.zeros((t_steps + 1, hidden))
    z = np.empty((t_steps, hidden))
    r = np.empty((t_steps, hidden))
    hhat = np.empty((t_steps, hidden))
    for t in range(t_steps):
        prev = h[t]
        z[t] = _sigmoid(xz[t] + prev @ uz)
        r[t] = _sigmoid(xr[t] + prev @ ur)
        hhat[t] = np.tanh(xh[t] + (r[t] * prev) @ uh)
        h[t + 1] = (1.0 - z[t]) * prev + z[t] * hhat[t]

    states = h[1:]
    a_tanh = np.tanh(states @ params["att_wa"] + params["att_ba"])
    scores = a_tanh @ params["att_ws"]
    weights = softmax(scores)
    att_out = weights @ states
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


def forward(
    params: Parameters,
    config: AcGruConfig,
    inp: CommitInput,
    train_mode: bool = False,
    rng=None,
):
    """Per-task logits plus the cache backward needs.

    Dropout masks are drawn only in train mode (rng required then); eval
    mode is deterministic.  Token ids outside [0, vocab_size) error.
    """
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout")
    branch_caches = []
    branch_outputs = []
    embeddings = []
    for seq in inp.sequences():
        ids = np.asarray(seq, dtype=np.int64)
        if ids.shape != (config.input_len,):
            raise ValueError(
                f"input length {ids.shape} does not match ({config.input_len},)"
            )
        if ids.min() < 0 or ids.max() >= config.vocab_size:
            raise ValueError(
                f"token id out of range [0, {config.vocab_size}): "
                f"{int(ids.min() if ids.min() < 0 else ids.max())}"
            )
        emb = params["embedding"][ids]
        embeddings.append((ids, emb))
        per_input = []
        for k in config.filter_sizes:
            out, cache = _branch_forward(params, emb, k)
            per_input.append(out)
            branch_caches.append(cache)
        branch_outputs.append(np.concatenate(per_input))
    commit = np.concatenate(branch_outputs)

    keep = 1.0 - config.dropout
    if train_mode and config.dropout > 0.0:
        commit_mask = (rng.random(commit.shape) < keep) / keep
    else:
        commit_mask = np.ones_like(commit)
    commit_dropped = commit * commit_mask

    logits_by_task = {}
    probs_by_task = {}
    task_caches = {}
    for name, _ in config.tasks:
        u = commit_dropped @ params[f"task_{name}_w"] + params[f"task_{name}_b"]
        act = np.maximum(u, 0.0)
        if train_mode and config.dropout > 0.0:
            mask = (rng.random(act.shape) < keep) / keep
        else:
            mask = np.ones_like(act)
        act_dropped = act * mask
        logits = act_dropped @ params[f"head_{name}_w"] + params[f"head_{name}_b"]
        logits_by_task[name] = logits
        probs_by_task[name] = softmax(logits)
        task_caches[name] = {"u": u, "act_dropped": act_dropped, "mask": mask}
    cache = {
        "revision": params.revision,
        "embeddings": embeddings,
        "branches": branch_caches,
        "commit_dropped": commit_dropped,
        "commit_mask": commit_mask,
        "tasks": task_caches,
        "probs": probs_by_task,
    }
    return logits_by_task, cache


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
    k = cache["k"]
    h, z, r, hhat = cache["h"], cache["z"], cache["r"], cache["hhat"]
    states = h[1:]
    weights = cache["weights"]
    a_tanh = cache["a_tanh"]

    # attention
    dw = states @ datt_out
    dh_steps = np.outer(weights, datt_out)
    du = weights * (dw - weights @ dw)
    grads["att_ws"] += a_tanh.T @ du
    da = np.outer(du, params["att_ws"]) * (1.0 - a_tanh**2)
    grads["att_wa"] += states.T @ da
    grads["att_ba"] += da.sum(axis=0)
    dh_steps += da @ params["att_wa"].T

    # GRU backward through time
    t_steps = z.shape[0]
    uz, ur, uh = params[f"gru{k}_uz"], params[f"gru{k}_ur"], params[f"gru{k}_uh"]
    d_zpre = np.empty_like(z)
    d_rpre = np.empty_like(r)
    d_q = np.empty_like(hhat)
    dh_next = np.zeros(z.shape[1])
    for t in range(t_steps - 1, -1, -1):
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

    x = cache["x"]
    prev_states = h[:-1]
    grads[f"gru{k}_wz"] += x.T @ d_zpre
    grads[f"gru{k}_wr"] += x.T @ d_rpre
    grads[f"gru{k}_wh"] += x.T @ d_q
    grads[f"gru{k}_uz"] += prev_states.T @ d_zpre
    grads[f"gru{k}_ur"] += prev_states.T @ d_rpre
    grads[f"gru{k}_uh"] += (r * prev_states).T @ d_q
    grads[f"gru{k}_bz"] += d_zpre.sum(axis=0)
    grads[f"gru{k}_br"] += d_rpre.sum(axis=0)
    grads[f"gru{k}_bh"] += d_q.sum(axis=0)

    dx = (
        d_q @ params[f"gru{k}_wh"].T
        + d_zpre @ params[f"gru{k}_wz"].T
        + d_rpre @ params[f"gru{k}_wr"].T
    )
    dpre = dx * (cache["conv_pre"] > 0)
    grads[f"conv{k}_w"] += cache["windows"].T @ dpre
    grads[f"conv{k}_b"] += dpre.sum(axis=0)
    dwindows = dpre @ params[f"conv{k}_w"].T
    t_len = dwindows.shape[0]
    l = demb.shape[1]
    for off in range(k):
        demb[off : off + t_len] += dwindows[:, off * l : (off + 1) * l]


def backward(
    params: Parameters, config: AcGruConfig, cache: dict, gold: dict[str, int]
) -> dict[str, np.ndarray]:
    """Exact gradients of the summed cross-entropy for every parameter.

    The cache must come from a forward pass against the same parameter
    revision; anything else is stale and rejected.  (The probability
    clamp in the loss applies to the reported value only - gradients
    follow the softmax-CE identity.)
    """
    if cache["revision"] != params.revision:
        raise ValueError("stale cache: parameters changed since this forward pass")
    grads = {name: np.zeros_like(arr) for name, arr in params.data.items()}
    dcommit_dropped = np.zeros_like(cache["commit_dropped"])
    for name, _ in config.tasks:
        tc = cache["tasks"][name]
        probs = cache["probs"][name]
        dlogits = probs.copy()
        dlogits[gold[name]] -= 1.0
        grads[f"head_{name}_w"] += np.outer(tc["act_dropped"], dlogits)
        grads[f"head_{name}_b"] += dlogits
        dact = (params[f"head_{name}_w"] @ dlogits) * tc["mask"]
        du = dact * (tc["u"] > 0)
        grads[f"task_{name}_w"] += np.outer(cache["commit_dropped"], du)
        grads[f"task_{name}_b"] += du
        dcommit_dropped += params[f"task_{name}_w"] @ du
    dcommit = dcommit_dropped * cache["commit_mask"]

    h = config.gru_hidden
    n_branches = len(config.filter_sizes)
    branch_iter = iter(cache["branches"])
    for i, (ids, emb) in enumerate(cache["embeddings"]):
        demb = np.zeros_like(emb)
        base = i * n_branches * h
        for j in range(n_branches):
            seg = dcommit[base + j * h : base + (j + 1) * h]
            _branch_backward(params, next(branch_iter), seg, grads, demb)
        np.add.at(grads["embedding"], ids, demb)
    return grads


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
    from .evaluation import compute_metrics

    gold_by_task: dict[str, list[str]] = {name: [] for name, _ in config.tasks}
    pred_by_task: dict[str, list[str]] = {name: [] for name, _ in config.tasks}
    for inp, labels in val_set:
        picks, _ = predict_acgru(params, config, inp)
        for name, _ in config.tasks:
            gold_by_task[name].append(str(labels[name]))
            pred_by_task[name].append(str(picks[name]))
    per_task = [
        compute_metrics(gold_by_task[name], pred_by_task[name]).mcc
        for name, _ in config.tasks
    ]
    return float(sum(per_task) / len(per_task))


def train_acgru(
    config: AcGruConfig, train_set, val_set
) -> tuple[Parameters, list[tuple[int, float, float]]]:
    """Minibatch Adam with early stopping on mean validation MCC.

    Snapshots the best-validation parameters and returns them with the
    (epoch, train_loss, val_mcc) history.  Stops once the epochs since
    the best score exceed the patience.  Bitwise deterministic per seed.
    """
    if not train_set:
        raise ValueError("empty training set")
    if not val_set:
        raise ValueError("empty validation set")
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
            batch = order[start : start + config.batch]
            grads_sum: dict[str, np.ndarray] | None = None
            for idx in batch:
                inp, labels = train_set[idx]
                _, cache = forward(params, config, inp, train_mode=True, rng=rng)
                epoch_loss += multitask_loss(cache["probs"], labels)
                grads = backward(params, config, cache, labels)
                if grads_sum is None:
                    grads_sum = grads
                else:
                    for name in grads_sum:
                        grads_sum[name] += grads[name]
            for name in grads_sum:
                grads_sum[name] /= len(batch)
            adam_step(params, grads_sum, state, config.lr)
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


def history_csv(history) -> str:
    lines = ["epoch,train_loss,val_mcc"]
    for epoch, loss, mcc in history:
        lines.append(f"{epoch},{loss!r},{mcc!r}")
    return "\n".join(lines) + "\n"


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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("version") != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported bundle version {payload.get('version')!r}"
        )
    config = from_fields(AcGruConfig, payload["config"], f"{path}, key 'config'")
    data = {name: np.array(arr, dtype=float) for name, arr in payload["arrays"].items()}
    return Parameters(data=data), config
