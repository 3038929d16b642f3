import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from svassess.features import (
    aggregate_char_word,
    build_char_vocab,
    build_word_vocab,
    standard_configs,
)
from svassess.models import (
    C_GRID,
    SGD_BASE_LR,
    SGD_EPOCHS,
    ClassifierSpec,
    TrainedModel,
    cluster_label_table,
    fit_many,
    kmeans_assign,
    kmeans_fit,
    predict,
    standard_classifier_grid,
    train_classifier,
    train_linear_stack,
    training_set,
    ucva_assign,
    xcva_decode,
    xcva_encode,
)

SEP_X = np.array([[-2.0, 0.1], [-2.2, -0.1], [-1.8, 0.3], [2.0, 0.0], [2.1, 0.2], [1.9, -0.2]])
SEP_Y = ["left", "left", "left", "right", "right", "right"]


def test_spec_validation_and_hyperparameter_counts():
    assert ClassifierSpec(kind="naive_bayes").n_hyperparameters == 0
    assert ClassifierSpec(kind="logistic_regression").n_hyperparameters == 1
    assert ClassifierSpec(kind="linear_svm").n_hyperparameters == 1
    assert ClassifierSpec(kind="knn").n_hyperparameters == 3
    with pytest.raises(ValueError):
        ClassifierSpec(kind="forest")
    with pytest.raises(ValueError):
        ClassifierSpec(kind="linear_svm", c=0)
    with pytest.raises(ValueError):
        ClassifierSpec(kind="knn", knn_weight="cosine")
    with pytest.raises(ValueError):
        ClassifierSpec(kind="knn", knn_norm=3)


def test_standard_grid_covers_declared_sets():
    grid = standard_classifier_grid()
    assert len(grid) == 1 + 5 + 5 + 16
    kinds = [s.kind for s in grid]
    assert kinds.count("naive_bayes") == 1
    assert kinds.count("logistic_regression") == 5
    assert kinds.count("knn") == 16
    cs = sorted({s.c for s in grid if s.kind == "linear_svm"})
    assert cs == [0.01, 0.1, 1.0, 10.0, 100.0]


def test_nb_symmetric_classes_score_half():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    y = ["a", "b", "b", "a"]  # each class saw both rows once
    model = train_classifier(ClassifierSpec(kind="naive_bayes"), x, y)
    _, scores = predict(model, np.array([[1.0, 1.0]]))
    assert scores[0][0] == pytest.approx(0.5, abs=1e-12)
    assert scores[0][1] == pytest.approx(0.5, abs=1e-12)


def test_nb_empty_support_decided_by_priors():
    x = sparse.csr_matrix(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    y = ["a", "a", "b"]
    model = train_classifier(ClassifierSpec(kind="naive_bayes"), x, y)
    labels, scores = predict(model, sparse.csr_matrix((1, 3)))
    # joint log prob of an empty doc is just the prior: 2/3 vs 1/3
    assert labels == ["a"]
    assert scores[0][0] == pytest.approx(2 / 3, abs=1e-12)
    assert scores[0][1] == pytest.approx(1 / 3, abs=1e-12)


def test_nb_laplace_smoothing_hand_check():
    x = np.array([[2.0, 0.0], [0.0, 1.0]])
    model = train_classifier(ClassifierSpec(kind="naive_bayes"), x, ["a", "b"])
    col_a = model.labels.index("a")
    # class a counts (2,0) -> smoothed (3,1)/4
    assert model.feature_log_prob[col_a][0] == pytest.approx(math.log(3 / 4))
    assert model.feature_log_prob[col_a][1] == pytest.approx(math.log(1 / 4))


def test_nb_rejects_negative_features():
    with pytest.raises(ValueError):
        train_classifier(
            ClassifierSpec(kind="naive_bayes"), np.array([[1.0], [-1.0]]), ["a", "b"]
        )


@pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm"])
def test_linear_separable_toy_reaches_full_accuracy(kind):
    model = train_classifier(ClassifierSpec(kind=kind, c=1.0), SEP_X, SEP_Y, seed=3)
    labels, _ = predict(model, SEP_X)
    assert labels == SEP_Y


def test_linear_training_deterministic_per_seed():
    spec = ClassifierSpec(kind="logistic_regression", c=0.1)
    one = train_classifier(spec, SEP_X, SEP_Y, seed=7)
    two = train_classifier(spec, SEP_X, SEP_Y, seed=7)
    assert np.array_equal(one.coef, two.coef)
    assert np.array_equal(one.intercept, two.intercept)


def test_linear_small_c_regularizes_harder():
    # The very first update of the C=0.01 schedule zeroes the weights
    # (factor 1 - 0.01*100 = 0); training must survive that cleanly.
    model = train_classifier(
        ClassifierSpec(kind="linear_svm", c=0.01), SEP_X, SEP_Y, seed=0
    )
    assert np.all(np.isfinite(model.coef))
    loose = train_classifier(
        ClassifierSpec(kind="linear_svm", c=100.0), SEP_X, SEP_Y, seed=0
    )
    assert np.linalg.norm(model.coef) < np.linalg.norm(loose.coef)


def _reference_sgd(spec, x, labels, seed):
    """The documented SGD schedule, one class column and one row at a
    time, with plain (unscaled) weights."""
    classes = sorted(set(labels))
    x = np.asarray(x, dtype=float)
    coef = np.zeros((len(classes), x.shape[1]))
    bias = np.zeros(len(classes))
    order = np.random.default_rng(seed)
    t = 0
    for _ in range(SGD_EPOCHS):
        for i in order.permutation(len(x)):
            t += 1
            eta = SGD_BASE_LR / t
            for c, cls in enumerate(classes):
                ys = 1.0 if labels[i] == cls else -1.0
                margin = coef[c] @ x[i] + bias[c]
                if spec.kind == "linear_svm":
                    g = ys if ys * margin < 1.0 else 0.0
                else:
                    g = ys / (1.0 + math.exp(ys * margin))
                coef[c] = coef[c] * (1.0 - eta / spec.c) + eta * g * x[i]
                bias[c] += eta * g
    return coef, bias


@pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm"])
@pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
def test_linear_fit_follows_the_reference_schedule(kind, c):
    x = np.abs(SEP_X) * 30.0  # large enough that margins pass the hinge
    labels = ["a", "b", "c", "a", "b", "c"]
    model = train_classifier(ClassifierSpec(kind=kind, c=c), x, labels, seed=4)
    coef, bias = _reference_sgd(model.spec, x, labels, seed=4)
    assert np.allclose(model.coef, coef, rtol=1e-9, atol=1e-12)
    assert np.allclose(model.intercept, bias, rtol=1e-9, atol=1e-12)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_stacked_groups_train_as_they_would_alone(data):
    n = data.draw(st.integers(4, 12), label="rows")
    width = data.draw(st.integers(1, 6), label="width")
    cells = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(-3, 3, allow_nan=False, width=32)),
            min_size=n * width,
            max_size=n * width,
        )
    )
    x = sparse.csr_matrix(np.array(cells, dtype=float).reshape(n, width))
    seed = data.draw(st.integers(0, 3), label="seed")
    groups, labelings = [], []
    for _ in range(data.draw(st.integers(1, 4), label="groups")):
        kind = data.draw(st.sampled_from(["logistic_regression", "linear_svm"]))
        # C=0.01 zeroes the weights at t=1, C=100 barely decays them
        spec = ClassifierSpec(kind=kind, c=data.draw(st.sampled_from(C_GRID)))
        names = "pqrs"[: data.draw(st.integers(2, 4))]
        labels = list(names[:2]) + data.draw(
            st.lists(st.sampled_from(names), min_size=n - 2, max_size=n - 2)
        )
        groups.append((spec, *training_set(x, labels)[1:]))
        labelings.append(labels)
    stacked = train_linear_stack(x, groups, seed)
    for (spec, classes, _), labels, model in zip(groups, labelings, stacked):
        alone = train_classifier(spec, x, labels, seed=seed)
        assert model.spec == spec and model.labels == classes == alone.labels
        assert _bitwise_equal(model.coef, alone.coef)
        assert _bitwise_equal(model.intercept, alone.intercept)


def _same_model(a: TrainedModel, b: TrainedModel) -> bool:
    for f in dataclasses.fields(TrainedModel):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or x.dtype != y.dtype or not _bitwise_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_fit_many_equals_each_job_fitted_alone(data):
    n = data.draw(st.integers(3, 12), label="rows")
    width = data.draw(st.integers(1, 5), label="width")
    low = data.draw(st.sampled_from([0.0, -3.0]), label="lowest value")  # < 0 fails NB
    cells = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(low, 3, allow_nan=False, width=32)),
            min_size=n * width,
            max_size=n * width,
        )
    )
    x = sparse.csr_matrix(np.array(cells, dtype=float).reshape(n, width))
    seed = data.draw(st.integers(0, 3), label="seed")
    # k from 1 up to above the row count; some labelings hold one class
    specs = st.one_of(
        st.builds(ClassifierSpec, kind=st.just("naive_bayes")),
        st.builds(
            ClassifierSpec,
            kind=st.sampled_from(["logistic_regression", "linear_svm"]),
            c=st.sampled_from(C_GRID),
        ),
        st.builds(
            ClassifierSpec,
            kind=st.just("knn"),
            knn_k=st.integers(1, 14),
            knn_weight=st.sampled_from(["uniform", "distance"]),
            knn_norm=st.sampled_from([1, 2]),
        ),
    )
    jobs = data.draw(
        st.lists(
            st.tuples(specs, st.lists(st.sampled_from("pqr"), min_size=n, max_size=n)),
            min_size=1,
            max_size=8,
        )
    )
    for (spec, labels), fitted in zip(jobs, fit_many(x, jobs, seed)):
        try:
            alone = train_classifier(spec, x, labels, seed=seed)
        except ValueError as exc:
            assert isinstance(fitted, ValueError) and str(fitted) == str(exc)
        else:
            assert isinstance(fitted, TrainedModel) and _same_model(fitted, alone)


def test_fit_many_knn_models_share_one_dense_matrix():
    x = sparse.csr_matrix(np.abs(SEP_X))
    other = ["a", "b", "a", "b", "a", "b"]
    jobs = [(ClassifierSpec(kind="naive_bayes"), SEP_Y)] + [
        (ClassifierSpec(kind="knn", knn_k=k, knn_norm=norm), labels)
        for k in (1, 3)
        for norm in (1, 2)
        for labels in (SEP_Y, other)
    ]
    fitted = fit_many(x, jobs)
    knn = [model for model in fitted if model.kind == "knn"]
    assert len(knn) == 8
    assert all(model.neighbors_x is knn[0].neighbors_x for model in knn)
    assert np.array_equal(knn[0].neighbors_x, x.toarray())


def test_prediction_tie_breaks_to_lexicographically_first():
    model = TrainedModel(
        kind="linear_svm",
        labels=("alpha", "beta"),
        spec=ClassifierSpec(kind="linear_svm"),
        coef=np.zeros((2, 2)),
        intercept=np.zeros(2),
    )
    labels, _ = predict(model, np.array([[5.0, -3.0]]))
    assert labels == ["alpha"]


def test_ovr_argmax_invariant_under_positive_scaling():
    model = train_classifier(
        ClassifierSpec(kind="linear_svm", c=10.0), SEP_X, SEP_Y, seed=1
    )
    scaled = TrainedModel(
        kind=model.kind,
        labels=model.labels,
        spec=model.spec,
        coef=model.coef * 3.5,
        intercept=model.intercept * 3.5,
    )
    base_labels, _ = predict(model, SEP_X)
    scaled_labels, _ = predict(scaled, SEP_X)
    assert base_labels == scaled_labels


@pytest.mark.parametrize("weight", ["uniform", "distance"])
def test_knn_k1_memorizes_training_points(weight):
    spec = ClassifierSpec(kind="knn", knn_k=1, knn_weight=weight)
    model = train_classifier(spec, SEP_X, SEP_Y)
    labels, _ = predict(model, SEP_X)
    assert labels == SEP_Y


def test_knn_norm_changes_neighbourhoods():
    x = np.array([[0.0, 0.0], [3.0, 0.0], [2.2, 2.2]])
    y = ["a", "b", "c"]
    probe = np.array([[1.6, 1.2]])
    # L1 distances: a=2.8, b=2.6, c=1.6 ; L2: a=2.0, b=1.84, c=1.16
    l1 = train_classifier(ClassifierSpec(kind="knn", knn_k=1, knn_norm=1), x, y)
    l2 = train_classifier(ClassifierSpec(kind="knn", knn_k=1, knn_norm=2), x, y)
    assert predict(l1, probe)[0] == ["c"]
    assert predict(l2, probe)[0] == ["c"]
    # distance-weighted votes differ between norms for k=3
    _, v1 = predict(
        train_classifier(
            ClassifierSpec(kind="knn", knn_k=3, knn_weight="distance", knn_norm=1), x, y
        ),
        probe,
    )
    _, v2 = predict(
        train_classifier(
            ClassifierSpec(kind="knn", knn_k=3, knn_weight="distance", knn_norm=2), x, y
        ),
        probe,
    )
    assert not np.allclose(v1, v2)


def test_knn_k_exceeding_samples_errors():
    with pytest.raises(ValueError):
        train_classifier(
            ClassifierSpec(kind="knn", knn_k=5), np.eye(3), ["a", "b", "a"]
        )


def test_training_input_validation():
    with pytest.raises(ValueError):
        train_classifier(ClassifierSpec(kind="naive_bayes"), np.eye(2), ["a", "a"])
    with pytest.raises(ValueError):
        train_classifier(
            ClassifierSpec(kind="logistic_regression"),
            np.array([[1.0, float("nan")], [0.0, 1.0]]),
            ["a", "b"],
        )
    with pytest.raises(ValueError):
        train_classifier(ClassifierSpec(kind="naive_bayes"), np.eye(3), ["a", "b"])


def test_predict_width_mismatch_errors():
    model = train_classifier(ClassifierSpec(kind="naive_bayes"), np.eye(2), ["a", "b"])
    with pytest.raises(ValueError):
        predict(model, np.ones((1, 3)))


def test_model_json_round_trip_preserves_predictions():
    for spec in (
        ClassifierSpec(kind="naive_bayes"),
        ClassifierSpec(kind="logistic_regression", c=0.1),
        ClassifierSpec(kind="knn", knn_k=1),
    ):
        model = train_classifier(spec, np.abs(SEP_X), SEP_Y, seed=2)
        reloaded = TrainedModel.from_json(model.to_json())
        before, s_before = predict(model, np.abs(SEP_X))
        after, s_after = predict(reloaded, np.abs(SEP_X))
        assert before == after
        assert np.allclose(s_before, s_after)


def test_kmeans_two_blobs_recovers_means():
    rng = np.random.default_rng(0)
    blob_a = rng.normal([0.0, 0.0], 0.05, size=(30, 2))
    blob_b = rng.normal([5.0, 5.0], 0.05, size=(30, 2))
    x = np.vstack([blob_a, blob_b])
    model = kmeans_fit(x, 2, seed=1)
    means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)], key=lambda m: m[0])
    found = sorted(model.centroids.tolist(), key=lambda m: m[0])
    for got, want in zip(found, means):
        assert np.linalg.norm(np.array(got) - want) < 0.1


def test_kmeans_k_equal_rows_zero_inertia():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    model = kmeans_fit(x, 3, seed=0)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_duplicates_k1_centroid_is_mean():
    x = np.array([[2.0, 2.0]] * 5)
    model = kmeans_fit(x, 1, seed=0)
    assert np.allclose(model.centroids[0], [2.0, 2.0])


def test_kmeans_inertia_non_increasing_and_k_validation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3))
    model = kmeans_fit(x, 4, seed=2)
    hist = model.inertia_history
    assert all(hist[i] >= hist[i + 1] - 1e-9 for i in range(len(hist) - 1))
    with pytest.raises(ValueError):
        kmeans_fit(x, 41)
    with pytest.raises(ValueError):
        kmeans_fit(x, 0)


def test_ucva_assign_modal_and_tie_rules():
    model = TrainedModel(
        kind="kmeans",
        labels=(),
        centroids=np.array([[0.0, 0.0], [2.0, 0.0]]),
        inertia_history=(0.0,),
    )
    table = {
        0: {"Severity": {"High": 3, "Low": 1}, "Integrity": {"Partial": 2, "None": 2}},
        1: {"Severity": {"Low": 5}, "Integrity": {"None": 4}},
    }
    at_first = ucva_assign(model, table, np.array([0.1, 0.0]))
    assert at_first == {"Severity": "High", "Integrity": "None"}  # None ties Partial
    equidistant = ucva_assign(model, table, np.array([1.0, 0.0]))
    assert equidistant["Severity"] == "High"  # lowest-index cluster wins


def test_ucva_empty_cluster_falls_back_to_global_mode():
    model = TrainedModel(
        kind="kmeans",
        labels=(),
        centroids=np.array([[0.0, 0.0], [10.0, 0.0]]),
        inertia_history=(0.0,),
    )
    table = {0: {"Severity": {"Medium": 4, "High": 1}}, 1: {}}
    near_empty = ucva_assign(model, table, np.array([9.9, 0.0]))
    assert near_empty == {"Severity": "Medium"}


def test_xcva_round_trip_and_canonical_order():
    tasks = ("Confidentiality", "Integrity")
    encoded = xcva_encode({"Integrity": "None", "Confidentiality": "Partial"}, tasks)
    assert encoded == "Confidentiality=Partial|Integrity=None"
    assert xcva_decode(encoded, tasks) == {
        "Confidentiality": "Partial",
        "Integrity": "None",
    }


def test_xcva_errors():
    tasks = ("A", "B")
    with pytest.raises(ValueError):
        xcva_encode({"A": "x"}, tasks)
    with pytest.raises(ValueError):
        xcva_encode({"A": "x", "B": "y", "C": "z"}, tasks)
    with pytest.raises(ValueError):
        xcva_decode("A=x", tasks)
    with pytest.raises(ValueError):
        xcva_decode("A=x|Boom", tasks)
    with pytest.raises(ValueError):
        xcva_decode("B=y|A=x", tasks)


# -- load-time checks --------------------------------------------------------

THREE_X = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [0.5, 0.5], [0.4, 0.6]])
THREE_Y = ["a", "a", "b", "b", "c", "c"]


def _fitted_dict(kind, **spec):
    return train_classifier(ClassifierSpec(kind=kind, **spec), THREE_X, THREE_Y).to_dict()


def test_model_load_rejects_unknown_kind():
    obj = _fitted_dict("naive_bayes")
    obj["kind"] = "forest"
    with pytest.raises(ValueError, match="forest"):
        TrainedModel.from_dict(obj)


@pytest.mark.parametrize(
    "kind,key",
    [
        ("naive_bayes", "class_log_prior"),
        ("naive_bayes", "feature_log_prob"),
        ("logistic_regression", "coef"),
        ("linear_svm", "intercept"),
    ],
)
def test_model_load_rejects_per_class_arrays_not_matching_labels(kind, key):
    obj = _fitted_dict(kind)
    TrainedModel.from_dict(obj)  # the intact model loads
    obj[key] = obj[key][:-1]
    with pytest.raises(ValueError, match=key):
        TrainedModel.from_dict(obj)


def test_model_load_rejects_neighbors_not_matching_labels():
    obj = _fitted_dict("knn", knn_k=1)
    TrainedModel.from_dict(obj)
    obj["neighbors_y"] = obj["neighbors_y"][:-1]
    with pytest.raises(ValueError, match="neighbors"):
        TrainedModel.from_dict(obj)


def _replace(**changes):
    def edit(obj):
        obj.update(changes)

    return edit


@pytest.mark.parametrize(
    "kind,edit,named",
    [
        # a classifier whose kind changed keeps the other kind's arrays and spec
        ("naive_bayes", _replace(kind="logistic_regression"), "'spec'"),
        ("logistic_regression", _replace(kind="knn"), "'spec'"),
        ("knn", _replace(spec=None), "'spec'"),
        ("naive_bayes", _replace(spec=ClassifierSpec("linear_svm").to_dict()), "'spec'"),
        ("naive_bayes", _replace(class_log_prior=None), "'class_log_prior'"),
        ("naive_bayes", _replace(feature_log_prob=None), "'feature_log_prob'"),
        ("naive_bayes", _replace(feature_log_prob=[0.0, 0.0, 0.0]), "'feature_log_prob'"),
        ("logistic_regression", _replace(coef=None), "'coef'"),
        ("linear_svm", _replace(intercept=None), "'intercept'"),
        ("knn", _replace(neighbors_x=None), "'neighbors_x'"),
        ("knn", _replace(neighbors_y=None), "'neighbors_y'"),
        ("knn", _replace(neighbors_y=[0, 0, 1, 1, 2, 3]), "neighbors_y"),
        ("knn", _replace(neighbors_y=[0, 0, 1, 1, 2, 1.5]), "neighbors_y"),
        ("kmeans", _replace(centroids=None), "'centroids'"),
    ],
)
def test_model_load_rejects_arrays_or_spec_not_fitting_the_kind(kind, edit, named):
    if kind == "kmeans":
        obj = kmeans_fit(THREE_X, 3, seed=0).to_dict()
    else:
        obj = _fitted_dict(kind, **({"knn_k": 1} if kind == "knn" else {}))
    TrainedModel.from_dict(obj)  # the intact model loads
    edit(obj)
    with pytest.raises(ValueError, match=named):
        TrainedModel.from_dict(obj)


def test_model_load_keeps_kmeans_without_labels():
    model = kmeans_fit(THREE_X, 3, seed=0)
    reloaded = TrainedModel.from_dict(model.to_dict())
    assert reloaded.labels == ()
    assert reloaded.to_json() == model.to_json()


_word = st.text(alphabet="abcde", min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(
    docs=st.lists(st.lists(_word, min_size=1, max_size=6), min_size=4, max_size=8),
    data=st.data(),
)
def test_property_dict_round_trip_is_byte_identical(docs, data):
    config = standard_configs()[data.draw(st.integers(0, 7))]
    model, matrix = aggregate_char_word(
        docs,
        build_word_vocab(docs, config),
        build_char_vocab(docs, config),
        config.char_min,
        config.char_max,
        config,
    )
    labels = ["x", "y"] + data.draw(
        st.lists(st.sampled_from("xyz"), min_size=len(docs) - 2, max_size=len(docs) - 2)
    )
    fitted = [kmeans_fit(matrix, 2, seed=0)]
    for spec in (
        ClassifierSpec(kind="naive_bayes"),
        ClassifierSpec(kind="logistic_regression", c=0.1),
        ClassifierSpec(kind="linear_svm", c=10.0),
        ClassifierSpec(kind="knn", knn_k=1),
    ):
        fitted.append(train_classifier(spec, matrix, labels, seed=1))
    for m in fitted:
        assert type(m).from_dict(m.to_dict()).to_json() == m.to_json()
