"""The sparse-matrix handle, vectorization, and spectral routines on the Gram
of a matrix's short side.  Nothing here draws at random; the solvers rely on
that for reproducible traces.
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


# A short side whose peak p lies in [2^-100, 2^101) is used as it is.  Its
# Gram's largest entry, between p^2 and N p^2, then stays inside
# [2^-485, 2^255], where LAPACK's symmetric eigensolvers do not rescale
# (for any N < 2^53), and a row of entries at eps p still has normal
# squares (2^-304 and up), so no row that counts at rounding underflows.
UNSCALED_MAX_EXPONENT = 100


def _short_side(a, name):
    """``(s, scale, left)``: the short side of ``a`` (``a`` if ``left``, else
    ``a.T``) over ``scale``, an exact power of two.  Inside the window of
    ``UNSCALED_MAX_EXPONENT`` s is a view of ``a`` and scale is 1.0, so the
    caller must not write into it; outside, s is a scaled copy with its peak
    in [1, 2), whose Gram cannot overflow.  Raises on an empty or non-finite
    ``a``."""
    a = np.asarray(a, dtype=float)
    if not a.size:
        raise ValueError("matrix must have positive dimensions")
    peak = max(float(a.max()), -float(a.min()))
    if not np.isfinite(peak):
        raise ValueError(f"non-finite entries in matrix passed to {name}")
    exponent = int(np.frexp(peak)[1]) - 1
    left = a.shape[0] <= a.shape[1]
    s = a if left else a.T
    if abs(exponent) <= UNSCALED_MAX_EXPONENT:
        return s, 1.0, left
    return np.ldexp(s, -exponent), float(np.ldexp(1.0, exponent)), left


def short_side_svd(a):
    """``(u, sigma, w)`` with ``s == u @ w``; s is ``a`` or ``a.T``, k x N, k <= N.

    u holds the eigenvectors of the Gram ``s s^T`` from one ``eigh``, the rows
    of ``w = u^T s`` are sigma times the right singular vectors, and sigma,
    descending, are their norms: near 1e-15 sigma_max at a zero singular
    value, where the eigenvalues' roots read ~1e-8.  Only a peak outside the
    window of ``_short_side`` is rescaled, and w and sigma scaled back; ``a``
    is never written.  Raises on non-finite input.
    """
    s, scale, _ = _short_side(a, "short_side_svd")
    u, sigma, w = _gram_svd(s)
    if np.any(sigma[1:] > sigma[:-1]):  # rounding swapped two rows
        order = np.argsort(sigma)[::-1]
        u, sigma, w = u[:, order], sigma[order], w[order]
    if scale != 1.0:
        w *= scale
        sigma = scale * sigma
    return u, sigma, w


def _gram_svd(s, floor=None):
    # Rows in descending eigenvalue order.  Eigenvectors are exact to
    # eps sigma_max^2 / gap, so a norm below 1e-3 sigma_max can be off by
    # eps sigma_max^2 / sigma_i; those rows, unless at rounding (floor), recur.
    u = np.linalg.eigh(s @ s.T)[1][:, ::-1]
    w = u.T @ s
    sigma = np.sqrt(np.einsum("ij,ij->i", w, w))
    floor = np.finfo(float).eps * sigma.max() if floor is None else floor
    cut = int(np.count_nonzero(sigma >= 1e-3 * sigma.max()))
    if cut < sigma.size and sigma[cut:].max() > floor:
        u_tail, sigma[cut:], w[cut:] = _gram_svd(w[cut:], floor)
        u[:, cut:] = u[:, cut:] @ u_tail
    return u, sigma, w


def singular_values(a):
    """All singular values of a dense matrix, descending.  Under 4,096 entries
    one LAPACK call (12 x 16: 24 us) beats the Gram route of ``short_side_svd``
    (40 us), which wins above (36 x 676: 0.23 against 0.51 ms; best of 7 on
    2 cores, OpenBLAS at 1 thread).  Both read an unscaled short side as a
    view (``_short_side``)."""
    s, scale, _ = _short_side(a, "singular_values")
    sigma = np.linalg.svd(s, compute_uv=False) if s.size < 4096 else _gram_svd(s)[1]
    return scale * np.sort(sigma)[::-1]


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

    The top eigenvector w of the k x k Gram ``s s^T`` of the short side s is
    the short-side singular vector, and ``s^T w`` is sigma times the other.
    ``converged`` is always True; ``iterations`` counts the two products
    with ``a``.  A zero matrix gives ``degenerate``, ``sigma`` 0 and unit
    vectors.  Raises on non-finite input.
    """
    s, scale, left = _short_side(a, "top_singular_pair")
    k, n = s.shape
    _, w = scipy.linalg.eigh(s @ s.T, subset_by_index=[k - 1, k - 1])
    w = w[:, 0]
    x = s.T @ w
    norm = float(np.linalg.norm(x))
    degenerate = norm == 0.0
    x = np.eye(1, n)[0] if degenerate else x / norm
    u, v = (w, x) if left else (x, w)
    return TopSingularPair(scale * norm, u, v, converged=True,
                           degenerate=degenerate, iterations=2)
