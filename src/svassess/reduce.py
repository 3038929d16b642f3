"""Latent semantic projection via randomized truncated SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .features import vectors_to_csr

POWER_ITERATIONS = 10
OVERSAMPLE = 8


@dataclass
class LsaModel:
    components: np.ndarray  # width x k, orthonormal columns
    singular_values: np.ndarray  # length k, non-increasing
    k: int

    @property
    def width(self) -> int:
        return self.components.shape[0]


def _as_matrix(data) -> sparse.csr_matrix:
    if isinstance(data, list):
        return vectors_to_csr(data)
    if sparse.issparse(data):
        return data.tocsr()
    return sparse.csr_matrix(np.asarray(data, dtype=float))


def lsa_fit(data, k: int, seed: int = 0) -> LsaModel:
    """Randomized range-finder SVD keeping the top-k right singular basis.

    Subspace iteration with QR re-orthonormalization keeps the power
    steps numerically stable; the small projected matrix is then solved
    densely.  Deterministic for a fixed seed.
    """
    mat = _as_matrix(data)
    n_rows, width = mat.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > min(n_rows, width):
        raise ValueError(
            f"k={k} exceeds min(rows, width)={min(n_rows, width)}"
        )
    rng = np.random.default_rng(seed)
    p = min(k + OVERSAMPLE, min(n_rows, width))
    omega = rng.standard_normal((width, p))
    y = mat @ omega
    q, _ = np.linalg.qr(y)
    for _ in range(POWER_ITERATIONS):
        z = mat.T @ q
        qz, _ = np.linalg.qr(z)
        y = mat @ qz
        q, _ = np.linalg.qr(y)
    b = q.T @ mat
    b = np.asarray(b.todense()) if sparse.issparse(b) else np.asarray(b)
    _, s, vt = np.linalg.svd(b, full_matrices=False)
    return LsaModel(
        components=np.ascontiguousarray(vt[:k].T),
        singular_values=np.ascontiguousarray(s[:k]),
        k=k,
    )


def lsa_transform_many(model: LsaModel, data) -> np.ndarray:
    """Project sparse document rows (one row for a single document) onto
    the latent basis."""
    mat = _as_matrix(data)
    if mat.shape[1] != model.width:
        raise ValueError(
            f"matrix width {mat.shape[1]} does not match model width {model.width}"
        )
    return np.asarray(mat @ model.components)

