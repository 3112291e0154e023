"""The sparse-matrix handle, vectorization, and spectral routines.

Nothing here draws at random; the solvers rely on that for reproducible
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp


def vec(x):
    """Column-major vectorization of a matrix."""
    return np.asarray(x, dtype=float).ravel(order="F")


def unvec(x, rows, cols):
    """Inverse of :func:`vec`."""
    x = np.asarray(x, dtype=float)
    if x.size != rows * cols:
        raise ValueError(f"cannot reshape length-{x.size} vector to {rows}x{cols}")
    return x.reshape((rows, cols), order="F")


class SparseMatrix:
    """Immutable handle on one canonical ``scipy.sparse.csr_matrix``.

    ``a`` is anything ``csr_matrix`` accepts: a sparse matrix, a dense array,
    a ``(data, (row, col))`` triplet, ``(data, indices, indptr)`` or a shape.
    The input is copied and checked in full (every index in range, offsets
    non-decreasing), duplicates are summed, indices sorted, and non-finite
    values rejected.  The adjoint view and the Gram matrix ``A^T A`` are built
    on first use and cached, so the matrix must not change afterwards.
    """

    def __init__(self, a, shape=None):
        csr = sp.csr_matrix(a, shape=shape, dtype=float, copy=True)
        # full_check is what rejects column indices outside [0, n_cols)
        csr.check_format(full_check=True)
        csr.sum_duplicates()
        csr.sort_indices()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("non-finite value in sparse matrix")
        self._csr = csr
        self.shape = csr.shape
        self.n_rows, self.n_cols = csr.shape

    @property
    def nnz(self):
        return int(self._csr.nnz)

    @cached_property
    def _adjoint(self):
        # CSC view sharing the CSR arrays; converting it to CSR is slower on
        # the large scs lifts, so spmv_t keeps the view.
        return self._csr.T

    @cached_property
    def gram(self) -> SparseMatrix:
        """``A^T A`` as a SparseMatrix, built on first use."""
        return SparseMatrix(self._adjoint @ self._csr)

    def to_scipy(self):
        return self._csr

    def to_dense(self):
        return self._csr.toarray()


def spmv(a: SparseMatrix, x):
    """Sparse matrix-vector product ``a @ x``."""
    return a.to_scipy() @ np.asarray(x, dtype=float)


def spmv_t(a: SparseMatrix, y):
    """Adjoint product ``a.T @ y``, through the matrix's cached CSC view."""
    return a._adjoint @ np.asarray(y, dtype=float)


def dense_svd(a):
    """Full SVD of a dense matrix, returned as (U, s, Vt).

    Thin wrapper over LAPACK; kept behind one name so the dense path is easy
    to audit.  Raises on non-finite input.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in matrix passed to dense_svd")
    return np.linalg.svd(a, full_matrices=False)


def _wide_core(a):
    """k x k lower-triangular L with ``a = L Q^T``, for a with k <= N columns.

    L keeps the singular values and left singular vectors of a, so spectral
    work on a wide k x N matrix shrinks to k x k.  It is the transposed R of
    a Householder QR of ``a^T``, which is backward stable and never forms Q.
    Raises on non-finite input.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in dense matrix")
    return np.linalg.qr(a.T, mode="r").T


def singular_values(a):
    """All singular values of a dense matrix, descending, from its short side."""
    a = np.asarray(a, dtype=float)
    return np.linalg.svd(_wide_core(a if a.shape[0] <= a.shape[1] else a.T),
                         compute_uv=False)


@dataclass
class TopSingularPair:
    sigma: float
    u: np.ndarray
    v: np.ndarray
    converged: bool
    degenerate: bool = False
    iterations: int = 0


def top_singular_pair(a):
    """Leading singular triplet of a dense matrix, from its short-side Gram.

    With s the short side of ``a`` (``a`` or its transpose) and k its row
    count, the top eigenvector w of the k x k Gram ``s s^T`` is the
    short-side singular vector; ``s^T w`` is sigma times the long-side one.
    Only one eigenpair of a k x k matrix is computed; ``a`` itself is never
    decomposed.  ``converged`` is always True, and ``iterations`` counts the
    two products with ``a``: the Gram and ``s^T w``.  A zero matrix gives
    ``degenerate``, ``sigma`` 0 and unit vectors.  Raises on non-finite
    input.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m <= 0 or n <= 0:
        raise ValueError("matrix must have positive dimensions")
    peak = float(np.max(np.abs(a)))
    if not np.isfinite(peak):
        raise ValueError("non-finite entries in matrix passed to top_singular_pair")
    # The Gram squares entries, so bring the largest to [1, 2) first: a
    # power of two is exact and changes no result where nothing overflows.
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
    left = m <= n
    s = (a if left else a.T) / scale
    k = min(m, n)
    _, w = scipy.linalg.eigh(s @ s.T, subset_by_index=[k - 1, k - 1])
    w = w[:, 0]
    x = s.T @ w
    norm = float(np.linalg.norm(x))
    degenerate = norm == 0.0
    x = np.eye(1, max(m, n))[0] if degenerate else x / norm
    u, v = (w, x) if left else (x, w)
    return TopSingularPair(float(scale) * norm, u, v, converged=True,
                           degenerate=degenerate, iterations=2)
