"""The sparse-matrix handle, vectorization, and spectral routines on the Gram
of a matrix's short side.  Nothing here draws at random; the solvers rely on
that for reproducible traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import (dgeqrf, dgeqrf_lwork, dgesdd, dgesdd_lwork,
                                 dorgqr, dsyevr, dsyevr_lwork)


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


@cache
def _lwork(routine, m, n):
    # LAPACK's optimal workspace for routine on an m x n input, queried once
    # per shape; numpy's and scipy's wrappers query it on every call.  A
    # smaller one can change the blocking, and with it the last bits.
    # dsyevr (n x n) also needs an integer workspace.
    if routine == "dsyevr":
        work, iwork, info = dsyevr_lwork(n, lower=True)
        _check(info, routine)
        return int(work), int(iwork)
    if routine == "dorgqr":  # scipy has no dorgqr_lwork; dorgqr answers lwork=-1
        _, work, info = dorgqr(np.zeros((m, n), order="F"), np.zeros(n), lwork=-1)
        work = work[0]
    elif routine == "dgeqrf":
        work, info = dgeqrf_lwork(m, n)
    else:  # "dgesdd", or "dgesdd_n" for the singular values alone
        work, info = dgesdd_lwork(m, n, compute_uv=routine == "dgesdd",
                                  full_matrices=False)
    _check(info, routine)
    return int(work)


def _check(info, routine):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info {info})")


# The kernels below call LAPACK through scipy.linalg.lapack, without the
# numpy or scipy wrapper around it: on the desk lift (12 x 16) the wrapper
# costs more than the factorization.  Each makes the wrapper's call with its
# workspace and returns its memory order, so results and the BLAS paths of
# later products are the wrapper's.  scipy links an OpenBLAS apart from
# numpy's, and once LAPACK runs threaded BLAS in it, its idle workers spin
# against numpy's: at 2 threads on 2 cores a numpy product right after a
# direct QR of 1,600 x 8, or an SVD of 42 x 42, took 13-24 times as long.
# So _thin_qr and _svd go direct only up to DIRECT_LAPACK_MAX_ENTRIES, where
# no call threads; above, numpy's wrapper is a small share of the call.
DIRECT_LAPACK_MAX_ENTRIES = 1024
# top_singular_pair's direct dsyevr is bounded by the short side k.  At
# 2 threads on 2 cores a 300 x 300 numpy product right after it read 1.0x
# its time alone at k = 12, 36 and 63, but 6.7-8.5x at k = 64, 65 and 100
# (median of 60, one process per k); after numpy's eigh it read 1.0x at
# every k.  The bound is 64, scs-101's short side, so that solve keeps its
# bits: acceptance 11's error there sits near its bound.
TOP_PAIR_DIRECT_MAX_SIDE = 64


def _thin_qr(a):
    """``np.linalg.qr(a)``: q (m x k) and r (k x n), k = min(m, n), in C
    order, from one dgeqrf and one dorgqr.  ``a`` is not written."""
    if a.size > DIRECT_LAPACK_MAX_ENTRIES:
        return np.linalg.qr(a)
    m, n = a.shape
    k = min(m, n)
    qr, tau, _, info = dgeqrf(a, lwork=_lwork("dgeqrf", m, n))
    _check(info, "dgeqrf")
    r = np.triu(qr[:k])
    q, _, info = dorgqr(qr[:, :k], tau, lwork=_lwork("dorgqr", m, k),
                        overwrite_a=True)
    _check(info, "dorgqr")
    return np.ascontiguousarray(q), np.ascontiguousarray(r)


def _svd(a, compute_uv=True):
    """``np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)`` from
    one dgesdd: (u, s, vt) with u and vt in C order, or s alone.  ``a`` is
    not written."""
    if a.size > DIRECT_LAPACK_MAX_ENTRIES:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    m, n = a.shape
    routine = "dgesdd" if compute_uv else "dgesdd_n"
    u, s, vt, info = dgesdd(a, compute_uv=compute_uv, full_matrices=False,
                            lwork=_lwork(routine, m, n))
    _check(info, routine)
    if not compute_uv:
        return s
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


def singular_values(a):
    """All singular values of a dense matrix, descending.  Under 4,096 entries
    one LAPACK SVD (12 x 16: 24 us) beats the Gram route of ``short_side_svd``
    (40 us), which wins above (36 x 676: 0.23 against 0.51 ms; best of 7 on
    2 cores, OpenBLAS at 1 thread).  Up to 1,024 entries that SVD is one
    direct dgesdd (``_svd``; 12 x 16: 21 against 23 us through numpy's
    wrapper, best of 3 processes).  Both routes read an unscaled short side
    as a view (``_short_side``)."""
    s, scale, _ = _short_side(a, "singular_values")
    sigma = _svd(s, compute_uv=False) if s.size < 4096 else _gram_svd(s)[1]
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
    Up to ``TOP_PAIR_DIRECT_MAX_SIDE`` w comes from one direct dsyevr for
    the top index, the call and workspace of
    ``scipy.linalg.eigh(subset_by_index=...)`` without its wrapper: 23
    against 36 us at 12 x 16, with the same bits (best of 3 processes on
    2 cores, OpenBLAS at 1 thread).  Above, it is the last column of
    numpy's ``eigh``.
    ``converged`` is always True; ``iterations`` counts the two products
    with ``a``.  A zero matrix gives ``degenerate``, ``sigma`` 0 and unit
    vectors.  Raises on non-finite input.
    """
    s, scale, left = _short_side(a, "top_singular_pair")
    k, n = s.shape
    if k <= TOP_PAIR_DIRECT_MAX_SIDE:
        lwork, liwork = _lwork("dsyevr", k, k)
        _, w, _, _, info = dsyevr(s @ s.T, range="I", il=k, iu=k, lower=True,
                                  lwork=lwork, liwork=liwork)
        _check(info, "dsyevr")
        w = w[:, 0]
    else:
        w = np.linalg.eigh(s @ s.T)[1][:, -1]
    x = s.T @ w
    norm = float(np.linalg.norm(x))
    degenerate = norm == 0.0
    x = np.eye(1, n)[0] if degenerate else x / norm
    u, v = (w, x) if left else (x, w)
    return TopSingularPair(scale * norm, u, v, converged=True,
                           degenerate=degenerate, iterations=2)
