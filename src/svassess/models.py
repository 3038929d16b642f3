"""Classical learners for assessment tasks: multinomial naive Bayes,
one-vs-rest linear models trained by seeded SGD, k-nearest neighbours,
k-means clustering with majority-vote cluster labelling, and label
concatenation for single-model multi-task prediction.

The SGD schedule (log or hinge loss, L2 strength 1/C, 100 epochs,
learning rate 0.01 with 1/t decay over the global update counter) is
part of the contract: two runs with one seed are bit-identical.  Each
step makes two calls into the compiled kernels behind scipy's own
`csr @ dense`, from the private module `scipy.sparse._sparsetools`:
`csr_matvecs` gives the sample's margins (its row times the weights) and
`csc_matvecs` adds the update (the row's values times the step vector)
into the weights in place.  Both add each rounded product to its output
in support order, whatever the number of columns, where a BLAS product
would change its summation order with the number of columns; so fits
that share rows and seed train in one pass (`train_linear_stack`), and
each comes out bit for bit as if it had trained alone.  The kernels do
not check their indices, so `_as_csr` checks every matrix first.
`tests/test_models.py` pins both calls, bit for bit, to the numpy
expressions they replaced, so a scipy release or a platform whose kernel
fuses multiply and add fails there instead of moving model bundles; only
x86-64 is verified.  `fit_many` is the one entry point for fitting many
classifiers of any kind on one matrix; it alone decides which stack.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .corpus import from_fields

CLASSIFIER_KINDS = ("naive_bayes", "logistic_regression", "linear_svm", "knn")
LINEAR_KINDS = ("logistic_regression", "linear_svm")
# the arrays a model of each kind uses, with their number of dimensions
KIND_ARRAYS = {
    "naive_bayes": {"class_log_prior": 1, "feature_log_prob": 2},
    "logistic_regression": {"coef": 2, "intercept": 1},
    "linear_svm": {"coef": 2, "intercept": 1},
    "knn": {"neighbors_x": 2, "neighbors_y": 1},
    "kmeans": {"centroids": 2},
}
C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
KNN_K_GRID = (5, 11, 31, 51)
KNN_WEIGHTS = ("uniform", "distance")
KNN_NORMS = (1, 2)
CLUSTER_GRID = tuple(range(2, 11)) + (15, 20, 25, 30, 35, 40, 45, 50)

SGD_EPOCHS = 100
SGD_BASE_LR = 0.01


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    c: float = 1.0
    knn_k: int = 5
    knn_weight: str = "uniform"
    knn_norm: int = 2

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.c <= 0:
            raise ValueError("regularization C must be positive")
        if self.kind == "knn":
            if self.knn_k < 1:
                raise ValueError("knn k must be at least 1")
            if self.knn_weight not in KNN_WEIGHTS:
                raise ValueError(f"unknown knn weight {self.knn_weight!r}")
            if self.knn_norm not in KNN_NORMS:
                raise ValueError(f"knn norm must be one of {KNN_NORMS}")

    @property
    def n_hyperparameters(self) -> int:
        """Tuned-knob count, used as the simplicity tie-break."""
        return {"naive_bayes": 0, "logistic_regression": 1, "linear_svm": 1, "knn": 3}[
            self.kind
        ]

    def describe(self) -> str:
        if self.kind in ("logistic_regression", "linear_svm"):
            return f"{self.kind}(C={self.c:g})"
        if self.kind == "knn":
            return (
                f"knn(k={self.knn_k},weight={self.knn_weight},norm={self.knn_norm})"
            )
        return self.kind

    def to_dict(self) -> dict:
        return asdict(self)


def standard_classifier_grid() -> list[ClassifierSpec]:
    """The full declared search space: 1 NB + 5 LR + 5 SVM + 16 KNN."""
    grid = [ClassifierSpec(kind="naive_bayes")]
    for kind in ("logistic_regression", "linear_svm"):
        grid.extend(ClassifierSpec(kind=kind, c=c) for c in C_GRID)
    for k in KNN_K_GRID:
        for weight in KNN_WEIGHTS:
            for norm in KNN_NORMS:
                grid.append(
                    ClassifierSpec(kind="knn", knn_k=k, knn_weight=weight, knn_norm=norm)
                )
    return grid


@dataclass
class TrainedModel:
    kind: str
    labels: tuple[str, ...]
    spec: ClassifierSpec | None = None
    seed: int = 0
    # naive_bayes
    class_log_prior: np.ndarray | None = None
    feature_log_prob: np.ndarray | None = None
    # linear one-vs-rest
    coef: np.ndarray | None = None  # n_classes x width
    intercept: np.ndarray | None = None
    # knn
    neighbors_x: np.ndarray | None = None
    neighbors_y: np.ndarray | None = None
    # kmeans
    centroids: np.ndarray | None = None
    inertia_history: tuple[float, ...] = field(default_factory=tuple)

    @property
    def width(self) -> int:
        for arr in (self.feature_log_prob, self.coef, self.neighbors_x, self.centroids):
            if arr is not None:
                return arr.shape[1]
        raise ValueError("model holds no fitted arrays")

    @property
    def inertia(self) -> float:
        if not self.inertia_history:
            raise ValueError("not a clustering model")
        return self.inertia_history[-1]

    def to_dict(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj.update(
            labels=list(self.labels),
            spec=None if self.spec is None else self.spec.to_dict(),
            inertia_history=list(self.inertia_history),
        )
        for key, value in obj.items():
            if isinstance(value, np.ndarray):
                obj[key] = value.tolist()
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict, where: str = "model") -> "TrainedModel":
        """Rebuild a model, rejecting a key or value that does not fit its
        fields, an unknown kind, a classifier without a spec of its kind,
        and a missing or misshapen array of its kind: per-class arrays must
        match the labels, neighbours their label indices."""
        model = from_fields(cls, obj, where)
        kind, spec, n = model.kind, model.spec, len(model.labels)
        if kind not in KIND_ARRAYS:
            raise ValueError(f"{where}: unknown model kind {kind!r}")
        if kind in CLASSIFIER_KINDS and (spec is None or spec.kind != kind):
            raise ValueError(f"{where}, key 'spec': a {kind} model needs a {kind} spec")
        for key, ndim in KIND_ARRAYS[kind].items():
            a = getattr(model, key)
            if a is None or a.ndim != ndim:
                raise ValueError(f"{where}, key {key!r}: a {kind} model needs a {ndim}-d array")
            if kind not in ("knn", "kmeans") and len(a) != n:
                raise ValueError(f"{where}: {key} of shape {a.shape} does not match {n} labels")
        if kind == "knn":
            x, y = model.neighbors_x, model.neighbors_y
            model.neighbors_y = y.astype(np.int64)
            if len(x) != len(y):
                raise ValueError(f"{where}: neighbors_x rows do not match neighbors_y")
            if not ((model.neighbors_y == y) & (0 <= y) & (y < n)).all():
                raise ValueError(f"{where}: neighbors_y must hold indices of the {n} labels")
        return model

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        return cls.from_dict(json.loads(text))


def _as_csr(features) -> sparse.csr_matrix:
    """`features` as a float CSR that the unchecked compiled kernels may
    index: `indptr` starts at 0 and never decreases, and every column index
    lies in [0, width).  Raises `ValueError` otherwise, or on a non-finite
    value.  A row that repeats a column (or leaves its columns unsorted) is
    replaced, on a copy, by its canonical form, with the repeats summed."""
    if sparse.issparse(features):
        mat = features.tocsr()
    else:
        mat = sparse.csr_matrix(np.asarray(features, dtype=float))
    n, width = mat.shape
    ptr = mat.indptr
    nnz = ptr[-1]
    if ptr[0] != 0 or (ptr[1:] < ptr[:-1]).any() or nnz > min(len(mat.indices), len(mat.data)):
        raise ValueError("CSR indptr must start at 0, never decrease and end within the entries")
    idx = mat.indices[:nnz]
    if nnz and not 0 <= idx.min() <= idx.max() < width:
        raise ValueError(f"CSR column index outside [0, {width})")
    if nnz and not np.isfinite(mat.data[:nnz]).all():
        raise ValueError("features contain NaN or infinite values")
    mat = mat.astype(float, copy=False)
    if not _sparsetools.csr_has_canonical_format(n, mat.indptr, mat.indices):
        mat = mat.copy()  # fresh format flags, and the caller's arrays untouched
        mat.sum_duplicates()
    return mat


def _encode_labels(labels: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    classes = tuple(sorted(set(labels)))
    lookup = {c: i for i, c in enumerate(classes)}
    return classes, np.array([lookup[y] for y in labels], dtype=np.int64)


def training_set(features, labels: Sequence[str]):
    """The checked matrix, the sorted classes and each row's class index
    of one fit; raises `ValueError` on a non-finite feature, a row count
    that differs from the labels' or fewer than two classes."""
    mat = _as_csr(features)
    if mat.shape[0] != len(labels):
        raise ValueError("feature rows and labels differ in length")
    classes, y = _encode_labels(labels)
    if len(classes) < 2:
        raise ValueError("training needs at least two distinct classes")
    return mat, classes, y


def fit_many(
    features, jobs: Sequence[tuple[ClassifierSpec, Sequence[str]]], seed: int = 0
) -> list[TrainedModel | ValueError]:
    """Every (spec, labels) job fitted on one matrix: each job's model, or
    the `ValueError` its data raises (see `training_set`; naive Bayes on a
    negative feature; kNN with k above the rows).  Other exceptions
    propagate.

    Each job is checked alone; the linear jobs then train together in one
    `train_linear_stack` pass, and every kNN model stores the one dense
    copy of the matrix.  Each model equals `train_classifier` of its job
    bit for bit.
    """
    fitted: list = [None] * len(jobs)
    linear = {}  # job index -> (spec, classes, y)
    dense = None
    for j, (spec, labels) in enumerate(jobs):
        try:
            mat, classes, y = training_set(features, labels)
            if spec.kind == "naive_bayes":
                fitted[j] = _train_naive_bayes(spec, mat, classes, y, seed)
            elif spec.kind in LINEAR_KINDS:
                linear[j] = (spec, classes, y)
            elif spec.knn_k > mat.shape[0]:
                raise ValueError(f"knn k={spec.knn_k} exceeds {mat.shape[0]} stored samples")
            else:
                if dense is None:
                    dense = np.asarray(mat.todense())
                fitted[j] = TrainedModel(
                    kind="knn",
                    labels=classes,
                    spec=spec,
                    seed=seed,
                    neighbors_x=dense,
                    neighbors_y=y,
                )
        except ValueError as exc:
            fitted[j] = exc
    if linear:
        for j, model in zip(linear, train_linear_stack(features, list(linear.values()), seed)):
            fitted[j] = model
    return fitted


def train_classifier(
    spec: ClassifierSpec, features, labels: Sequence[str], seed: int = 0
) -> TrainedModel:
    """One fit, the one-job case of `fit_many`; raises its `ValueError`."""
    (model,) = fit_many(features, [(spec, labels)], seed)
    if isinstance(model, ValueError):
        raise model
    return model


def _train_naive_bayes(spec, mat, classes, y, seed) -> TrainedModel:
    if mat.nnz and mat.data.min() < 0:
        raise ValueError("multinomial naive Bayes needs non-negative features")
    n_classes, width = len(classes), mat.shape[1]
    counts = np.zeros((n_classes, width))
    class_counts = np.zeros(n_classes)
    for c in range(n_classes):
        rows = mat[y == c]
        counts[c] = np.asarray(rows.sum(axis=0)).ravel()
        class_counts[c] = rows.shape[0]
    log_prior = np.log(class_counts / class_counts.sum())
    smoothed = counts + 1.0  # Laplace
    log_prob = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    return TrainedModel(
        kind="naive_bayes",
        labels=classes,
        spec=spec,
        seed=seed,
        class_log_prior=log_prior,
        feature_log_prob=log_prob,
    )


def _support_dots(row, v: np.ndarray, out: np.ndarray) -> None:
    """`out` = the (ptr, cols, vals) row times `v`: out[j] is the sum, over
    the support in order, of vals[k] * v[cols[k], j], each product rounded
    and then added to a running sum that starts at +0.0.  `v` must be
    C-contiguous."""
    ptr, cols, vals = row
    out.fill(0.0)
    _sparsetools.csr_matvecs(1, v.shape[0], v.shape[1], ptr, cols, vals, v.reshape(-1), out)


def _support_add(row, step: np.ndarray, v: np.ndarray) -> None:
    """v[cols[k], j] += vals[k] * step[j] in place, over the support in
    order, each product rounded before the add.  `v` must be C-contiguous,
    so that its flat view is `v` itself."""
    ptr, cols, vals = row
    _sparsetools.csc_matvecs(v.shape[0], 1, v.shape[1], ptr, cols, vals, step, v.reshape(-1))


def train_linear_stack(
    features, groups: Sequence[tuple[ClassifierSpec, tuple[str, ...], np.ndarray]], seed: int = 0
) -> list[TrainedModel]:
    """One-vs-rest linear models of many (spec, classes, y) groups over
    one matrix, trained together in one seeded SGD pass.

    `y` holds each row's class index, as `training_set` returns it.  Every
    group sees the rows in the same `default_rng(seed)` order, so the
    groups' columns stack side by side and each trains as it would alone:
    every column keeps its own L2 strength 1/C and scale (W = s*V, so the
    decay never touches more than the sample's support), and a group with
    a zero gradient in a step where another's is not adds exact zeros.
    The bias is unregularized.  Log-loss columns come first, hinge columns
    after them, so `exp` never runs on a hinge column.

    A step costs two compiled calls over the sample's support, one C loop
    each: `_support_dots` for the margins and `_support_add` for the
    update, both in support order (see the module docstring).  Column
    rescales are in-place ops on `v`, which stays C-contiguous, and the
    rates and decay factors of an epoch are computed in one pass each.
    """
    mat = _as_csr(features)
    n, width = mat.shape
    hinge = [spec.kind == "linear_svm" for spec, _, _ in groups]
    order = sorted(range(len(groups)), key=hinge.__getitem__)
    starts = np.cumsum([0] + [len(groups[k][1]) for k in order])
    n_cols = int(starts[-1])
    n_log = int(starts[hinge.count(False)])
    lam = np.empty(n_cols)
    sign = np.full((n, n_cols), -1.0)
    for k, lo, hi in zip(order, starts[:-1], starts[1:]):
        spec, _, y = groups[k]
        lam[lo:hi] = 1.0 / spec.c
        sign[np.arange(n), lo + y] = 1.0
    lam_max = lam.max(initial=0.0)
    v = np.zeros((width, n_cols))
    bias = np.zeros(n_cols)
    scale = np.ones(n_cols)
    g = np.empty(n_cols)
    dots = np.empty(n_cols)
    rows = [
        (np.array([0, hi - lo], dtype=mat.indices.dtype), mat.indices[lo:hi], mat.data[lo:hi])
        for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:])
    ]
    rng = np.random.default_rng(seed)
    for epoch in range(SGD_EPOCHS):
        # each step's rate 0.01/t and decay 1 - eta*lam, a whole epoch at once
        etas = SGD_BASE_LR / np.arange(epoch * n + 1, epoch * n + n + 1)
        factors = 1.0 - etas[:, None] * lam
        renorms = 1.0 - etas * lam_max <= 1e-12
        for i, eta, factor, renorm in zip(rng.permutation(n), etas.tolist(), factors, renorms):
            row = rows[i]
            _support_dots(row, v, dots)
            margins = scale * dots + bias
            ys = sign[i]
            ym = ys * margins
            if n_log:
                g[:n_log] = ys[:n_log] / (1.0 + np.exp(ym[:n_log]))
            if n_log < n_cols:
                g[n_log:] = ys[n_log:] * (ym[n_log:] < 1.0)
            if renorm:
                low = factor <= 1e-12
                v[:, low] *= scale[low] * factor[low]
                scale = np.where(low, 1.0, scale * factor)
            else:
                scale *= factor
            if g.any():
                _support_add(row, g * (eta / scale), v)
            bias += eta * g
            if scale.min() < 1e-9:
                tiny = scale < 1e-9
                v[:, tiny] *= scale[tiny]
                scale[tiny] = 1.0
    models = [None] * len(groups)
    for k, lo, hi in zip(order, starts[:-1], starts[1:]):
        spec, classes, _ = groups[k]
        models[k] = TrainedModel(
            kind=spec.kind,
            labels=classes,
            spec=spec,
            seed=seed,
            coef=np.ascontiguousarray((scale[lo:hi] * v[:, lo:hi]).T),
            intercept=bias[lo:hi].copy(),
        )
    return models


def _scores(model: TrainedModel, mat: sparse.csr_matrix) -> np.ndarray:
    if model.kind == "naive_bayes":
        joint = mat @ model.feature_log_prob.T + model.class_log_prior
        # normalized posteriors so symmetric inputs score exactly 1/2
        shifted = joint - joint.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        return expd / expd.sum(axis=1, keepdims=True)
    if model.kind in LINEAR_KINDS:
        return np.asarray(mat @ model.coef.T + model.intercept)
    if model.kind == "knn":
        return _knn_votes(model, np.asarray(mat.todense()))
    raise ValueError(f"predict is undefined for kind {model.kind!r}")


def _knn_votes(model: TrainedModel, dense: np.ndarray) -> np.ndarray:
    spec = model.spec
    stored = model.neighbors_x
    votes = np.zeros((dense.shape[0], len(model.labels)))
    for r, x in enumerate(dense):
        diff = stored - x
        if spec.knn_norm == 1:
            dist = np.abs(diff).sum(axis=1)
        else:
            dist = np.sqrt((diff * diff).sum(axis=1))
        order = np.argsort(dist, kind="stable")[: spec.knn_k]
        ndist = dist[order]
        nlab = model.neighbors_y[order]
        if spec.knn_weight == "uniform":
            weights = np.ones(len(order))
        else:
            exact = ndist < 1e-12
            if exact.any():  # an exact match outweighs any finite vote
                weights = exact.astype(float)
            else:
                weights = 1.0 / ndist
        for lab, w in zip(nlab, weights):
            votes[r, lab] += w
    return votes


def predict(model: TrainedModel, features) -> tuple[list[str], np.ndarray]:
    """Per-class scores plus argmax labels; ties go to the lowest index.

    Labels are kept sorted, so the lowest index is also the
    lexicographically-first class name.
    """
    mat = _as_csr(features)
    if mat.shape[1] != model.width:
        raise ValueError(
            f"feature width {mat.shape[1]} does not match model width {model.width}"
        )
    scores = _scores(model, mat)
    picks = scores.argmax(axis=1)
    return [model.labels[i] for i in picks], scores


# ---------------------------------------------------------------------------
# Clustering and cluster-majority assessment.
# ---------------------------------------------------------------------------

def _dense(features) -> np.ndarray:
    mat = _as_csr(features)
    return np.asarray(mat.todense())


def kmeans_fit(features, k: int, seed: int = 0) -> TrainedModel:
    """k-means++ seeding then Lloyd iterations to a 1e-6 inertia plateau."""
    x = _dense(features)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds {n} samples")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)
    history: list[float] = []
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(300):
        dist2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = dist2.argmin(axis=1)
        inertia = float(dist2[np.arange(n), assign].sum())
        for c in range(k):
            members = x[assign == c]
            if len(members):  # an emptied cluster keeps its centroid
                centroids[c] = members.mean(axis=0)
        if history and history[-1] - inertia < 1e-6:
            history.append(inertia)
            break
        history.append(inertia)
    return TrainedModel(
        kind="kmeans",
        labels=(),
        seed=seed,
        centroids=centroids,
        inertia_history=tuple(history),
    )


def _kmeans_pp_init(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def kmeans_assign(model: TrainedModel, features) -> np.ndarray:
    """Nearest-centroid index per row; equidistant rows go to the lowest."""
    if model.centroids is None:
        raise ValueError("not a clustering model")
    x = _dense(features)
    if x.shape[1] != model.centroids.shape[1]:
        raise ValueError("feature width does not match centroid width")
    dist2 = ((x[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    return dist2.argmin(axis=1)


def cluster_label_table(
    assignments: Sequence[int], task_labels: Sequence[dict], k: int
) -> dict[int, dict[str, dict[str, int]]]:
    """Per-cluster, per-task class frequency counts from training labels."""
    if len(assignments) != len(task_labels):
        raise ValueError("assignments and labels differ in length")
    table: dict[int, dict[str, dict[str, int]]] = {c: {} for c in range(k)}
    for cluster, labels in zip(assignments, task_labels):
        for task, cls in labels.items():
            per_task = table[int(cluster)].setdefault(task, {})
            per_task[cls] = per_task.get(cls, 0) + 1
    return table


def _modal(freq: dict[str, int]) -> str:
    best, best_count = None, -1
    for cls in sorted(freq):
        if freq[cls] > best_count:
            best, best_count = cls, freq[cls]
    return best


def ucva_assign(
    model: TrainedModel,
    table: dict[int, dict[str, dict[str, int]]],
    vector,
) -> dict[str, str]:
    """Nearest cluster's most frequent class per task.

    A cluster with no training members for a task falls back to the
    global modal class; class ties break lexicographically-first.
    """
    x = np.atleast_2d(_dense(vector))
    cluster = int(kmeans_assign(model, x)[0])
    tasks: set[str] = set()
    for per_cluster in table.values():
        tasks.update(per_cluster)
    global_freq: dict[str, dict[str, int]] = {t: {} for t in tasks}
    for per_cluster in table.values():
        for task, freq in per_cluster.items():
            for cls, count in freq.items():
                global_freq[task][cls] = global_freq[task].get(cls, 0) + count
    out = {}
    for task in sorted(tasks):
        freq = table.get(cluster, {}).get(task, {})
        out[task] = _modal(freq) if freq else _modal(global_freq[task])
    return out


# ---------------------------------------------------------------------------
# Label concatenation and rebalancing.
# ---------------------------------------------------------------------------

def xcva_encode(labels_by_task: dict[str, str], tasks: Sequence[str]) -> str:
    """Join per-task labels as 'task=class|...' in the declared task order."""
    missing = [t for t in tasks if t not in labels_by_task]
    if missing:
        raise ValueError(f"missing labels for tasks: {missing}")
    extra = [t for t in labels_by_task if t not in tasks]
    if extra:
        raise ValueError(f"labels for undeclared tasks: {extra}")
    return "|".join(f"{t}={labels_by_task[t]}" for t in tasks)


def xcva_decode(encoded: str, tasks: Sequence[str]) -> dict[str, str]:
    parts = encoded.split("|")
    if len(parts) != len(tasks):
        raise ValueError(
            f"expected {len(tasks)} task=class segments, got {len(parts)}"
        )
    out = {}
    for expected, part in zip(tasks, parts):
        task, eq, cls = part.partition("=")
        if not eq or not task or not cls:
            raise ValueError(f"malformed segment {part!r}")
        if task != expected:
            raise ValueError(f"segment {part!r} out of order; expected task {expected!r}")
        out[task] = cls
    return out

