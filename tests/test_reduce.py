import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from svassess.reduce import lsa_fit, lsa_transform_many

from oracles import jacobi_svd, rank_k_reconstruction_error


def dense_rows(mat):
    """One one-row CSR per dense row."""
    return [sparse.csr_matrix(row[None, :]) for row in mat]


def test_identity_singular_values_all_one():
    model = lsa_fit(np.eye(3), 3)
    assert np.allclose(model.singular_values, [1.0, 1.0, 1.0], atol=1e-10)
    assert np.allclose(model.components.T @ model.components, np.eye(3), atol=1e-8)


def test_reconstruction_error_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 15))
    model = lsa_fit(a, 4, seed=1)
    approx = a @ model.components @ model.components.T
    err = np.linalg.norm(a - approx)
    assert err == pytest.approx(rank_k_reconstruction_error(a, 4), abs=1e-6)


def test_singular_values_match_oracle_and_order():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 9))
    model = lsa_fit(a, 5, seed=0)
    _, s_oracle, _ = jacobi_svd(a)
    assert np.allclose(model.singular_values, s_oracle[:5], atol=1e-8)
    assert all(
        model.singular_values[i] >= model.singular_values[i + 1] - 1e-12
        for i in range(4)
    )


def test_energy_never_exceeds_frobenius_norm():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((10, 8))
    model = lsa_fit(a, 3)
    assert np.sum(model.singular_values**2) <= np.sum(a**2) + 1e-9


def test_k_larger_than_min_dim_errors():
    with pytest.raises(ValueError):
        lsa_fit(np.eye(3), 4)
    with pytest.raises(ValueError):
        lsa_fit(np.zeros((2, 5)), 3)
    with pytest.raises(ValueError):
        lsa_fit(np.eye(3), 0)


def test_fit_accepts_sparse_vector_list():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    from_dense = lsa_fit(a, 2, seed=5)
    from_sparse = lsa_fit(dense_rows(a), 2, seed=5)
    assert np.allclose(from_dense.components, from_sparse.components, atol=1e-10)
    assert np.allclose(
        from_dense.singular_values, from_sparse.singular_values, atol=1e-10
    )


def test_transform_is_projection_onto_components():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 6))
    model = lsa_fit(a, 3)
    dense = np.array([1.0, 0.0, -2.0, 0.0, 0.0, 0.5])
    expect = dense @ model.components
    projected = lsa_transform_many(model, sparse.csr_matrix(dense[None, :]))
    assert projected.shape == (1, 3)
    assert np.allclose(projected[0], expect, atol=1e-12)


def test_transform_width_mismatch_errors():
    model = lsa_fit(np.eye(4), 2)
    narrow = sparse.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        lsa_transform_many(model, narrow)
    with pytest.raises(ValueError):
        lsa_transform_many(model, [narrow])


def test_transform_many_matches_single():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, 5))
    model = lsa_fit(a, 2)
    vecs = dense_rows(a[:3])
    batch = lsa_transform_many(model, vecs)
    for row, vec in zip(batch, vecs):
        assert np.allclose(row, lsa_transform_many(model, vec)[0], atol=1e-12)
    assert np.allclose(batch, lsa_transform_many(model, sparse.vstack(vecs)), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
)
def test_property_transform_linearity(alpha, beta):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 5))
    model = lsa_fit(a, 3)
    x = np.array([1.0, 0.0, 2.0, -1.0, 0.5])
    y = np.array([0.0, 1.0, -1.0, 3.0, 0.0])

    def project(arr):
        return lsa_transform_many(model, sparse.csr_matrix(arr[None, :]))[0]

    combo = alpha * x + beta * y
    left = project(combo)
    right = alpha * project(x) + beta * project(y)
    assert np.allclose(left, right, atol=1e-9)


def test_fit_is_deterministic_per_seed():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((9, 7))
    one = lsa_fit(a, 3, seed=42)
    two = lsa_fit(a, 3, seed=42)
    assert np.array_equal(one.components, two.components)
    assert np.array_equal(one.singular_values, two.singular_values)

