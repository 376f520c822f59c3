"""Cosine similarity kernels shared by the clustering algorithms.

Everything downstream assumes **unit-norm rows**; :func:`normalize_rows`
is the single place that normalisation happens.  With unit rows, cosine
similarity is a plain dot product, and per-cluster statistics reduce to
norms of composite (summed) vectors — the trick CLUTO uses to compute
ISIM/ESIM without materialising the n×n similarity matrix.

Sparse input (a scipy.sparse matrix or array) is accepted without
importing scipy: it is recognised, and handled, through its own
``tocsr``/``toarray``/``multiply`` methods.
"""

from __future__ import annotations

import numpy as np


def is_sparse(matrix) -> bool:
    """Whether ``matrix`` is a sparse matrix (it has a ``tocsr`` method)."""
    return hasattr(matrix, "tocsr")


def as_float_array(matrix):
    """Coerce input to a float64 dense ndarray or a CSR sparse matrix."""
    if is_sparse(matrix):
        return matrix.tocsr().astype(np.float64)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def normalize_rows(matrix):
    """Return a copy of ``matrix`` with L2-normalised rows (zero rows kept)."""
    matrix = as_float_array(matrix)
    if is_sparse(matrix):
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        norms[norms == 0.0] = 1.0
        return matrix.multiply((1.0 / norms)[:, None]).tocsr()
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    return matrix / norms[:, None]


def cosine_similarity_matrix(matrix) -> np.ndarray:
    """Dense n×n cosine similarity of the rows of ``matrix``."""
    unit = normalize_rows(matrix)
    product = unit @ unit.T
    sims = product.toarray() if is_sparse(product) else product
    return np.clip(sims, -1.0, 1.0)


def composite_vector(matrix, indices: np.ndarray) -> np.ndarray:
    """Sum of the selected rows as a dense 1-D vector (CLUTO's D_i)."""
    rows = matrix[indices]
    if is_sparse(rows):
        return np.asarray(rows.sum(axis=0)).ravel()
    return rows.sum(axis=0)


def isim_esim(matrix, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster (sizes, ISIM, ESIM) of a clustering of ``matrix``.

    Rows are L2-normalised internally, then (CLUTO conventions,
    self-pairs included):

    * ``ISIM_i`` — average pairwise cosine similarity among the objects of
      cluster i: ``‖D_i‖² / n_i²`` where ``D_i`` is the cluster's composite
      vector;
    * ``ESIM_i`` — average similarity between cluster-i objects and all
      objects outside the cluster: ``D_i · (D − D_i) / (n_i (N − n_i))``
      (0 when the cluster holds the entire collection).

    Returns arrays aligned with cluster ids ``0..k-1``.
    """
    matrix = normalize_rows(as_float_array(matrix))
    labels = np.asarray(labels)
    n = matrix.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"labels length {labels.shape[0]} != n rows {n}")
    k = int(labels.max()) + 1 if n else 0
    total = composite_vector(matrix, np.arange(n))
    sizes = np.zeros(k, dtype=np.int64)
    isim = np.zeros(k, dtype=np.float64)
    esim = np.zeros(k, dtype=np.float64)
    for i in range(k):
        members = np.where(labels == i)[0]
        n_i = members.size
        sizes[i] = n_i
        if n_i == 0:
            continue
        d_i = composite_vector(matrix, members)
        isim[i] = float(d_i @ d_i) / (n_i * n_i)
        outside = n - n_i
        if outside > 0:
            esim[i] = float(d_i @ (total - d_i)) / (n_i * outside)
    return sizes, isim, esim
