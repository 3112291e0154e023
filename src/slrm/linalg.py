"""Sparse matrices, operator views, and iterative spectral routines.

Everything here is deterministic given an integer seed; the solvers rely on
that for reproducible traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                 aslinearoperator, svds)


def vec(x):
    """Column-major vectorization of a matrix."""
    return np.asarray(x, dtype=float).ravel(order="F")


def unvec(x, rows, cols):
    """Inverse of :func:`vec`."""
    x = np.asarray(x, dtype=float)
    if x.size != rows * cols:
        raise ValueError(f"cannot reshape length-{x.size} vector to {rows}x{cols}")
    return x.reshape((rows, cols), order="F")


@dataclass(eq=False)
class SparseMatrix:
    """CSR matrix with explicit offset/index/value arrays.

    Invariants: ``row_offsets`` is non-decreasing with ``row_offsets[0] == 0``
    and ``row_offsets[-1] == len(values)``; column indices are strictly
    increasing within each row; all values are finite.

    Immutable once built: the scipy CSR form, its adjoint view and the Gram
    matrix ``A^T A`` are each built on first use and cached, so changing the
    arrays afterwards would leave those stale.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        self.validate()

    def validate(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative dimensions")
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.values.size:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if self.col_indices.shape != self.values.shape:
            raise ValueError("col_indices and values must have equal length")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strict increase inside every row; boundaries may reset.  Empty
            # rows put offsets at 0 or nnz, which bound no adjacent pair.
            inc = np.diff(self.col_indices) <= 0
            inner = np.ones(self.col_indices.size - 1, dtype=bool)
            cuts = self.row_offsets[1:-1]
            inner[cuts[(cuts > 0) & (cuts < self.values.size)] - 1] = False
            if np.any(inc & inner):
                raise ValueError("column indices must strictly increase within a row")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite value in sparse matrix")

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return int(self.values.size)

    @cached_property
    def _csr(self):
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    @cached_property
    def _adjoint(self):
        # CSC view sharing the CSR arrays; converting it to CSR is slower on
        # the large scs lifts, so spmv_t keeps the view.
        return self._csr.T

    @cached_property
    def gram(self) -> SparseMatrix:
        """``A^T A`` as a CSR SparseMatrix, built on first use."""
        return SparseMatrix.from_scipy(self._adjoint @ self._csr)

    @classmethod
    def from_scipy(cls, a):
        a = sp.csr_matrix(a)
        a.sum_duplicates()
        a.sort_indices()
        return cls(a.shape[0], a.shape[1], a.indptr, a.indices, a.data)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        coo = sp.coo_matrix((vals, (rows, cols)), shape=shape)
        return cls.from_scipy(coo)

    @classmethod
    def from_dense(cls, a):
        return cls.from_scipy(sp.csr_matrix(np.asarray(a, dtype=float)))

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


def sparse_matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions do not match")
    return SparseMatrix.from_scipy(a.to_scipy() @ b.to_scipy())


def as_operator(a):
    """Scipy ``LinearOperator`` view of an ndarray, SparseMatrix or operator."""
    if isinstance(a, SparseMatrix):
        a = a.to_scipy()
    return aslinearoperator(a)


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


def top_singular_pair(a, tol=1e-8, max_iter=500, seed=0):
    """Leading singular triplet of an operator, by ARPACK ``svds(k=1)``.

    ``tol`` and ``max_iter`` are svds's ``tol`` and ``maxiter``.  The start
    vector is drawn from ``seed``, so the result is deterministic, and
    ``iterations`` counts products with the operator or its adjoint.  When
    the budget runs out, ``converged`` is False and ``sigma`` is the norm of
    the first product, with the unit start vector: a lower bound.  A zero
    operator gives ``degenerate``, ``sigma`` 0 and arbitrary unit vectors.
    """
    a = as_operator(a)
    m, n = a.shape
    if m <= 0 or n <= 0:
        raise ValueError("operator must have positive dimensions")
    products = 0

    def counted(apply):
        def run(x):
            nonlocal products
            products += 1
            return apply(x)
        return run

    op = LinearOperator(a.shape, matvec=counted(a.matvec),
                        rmatvec=counted(a.rmatvec), dtype=float)
    # svds starts on the shorter side.  One product there detects the zero
    # operator, on which ARPACK fails, and solves a single row or column,
    # which svds rejects (it needs k < min(m, n)).
    left = m < n
    start = np.random.default_rng(seed).standard_normal(min(m, n))
    start /= np.linalg.norm(start)
    w = op.rmatvec(start) if left else op.matvec(start)
    sigma = float(np.linalg.norm(w))
    degenerate = sigma == 0.0
    converged = True
    if not degenerate and min(m, n) > 1:
        try:
            u, s, vt = svds(op, k=1, tol=tol, maxiter=max_iter, v0=start,
                            solver="arpack")
        except ArpackNoConvergence:
            converged = False
        else:
            return TopSingularPair(float(s[0]), u[:, 0], vt[0], converged=True,
                                   iterations=products)
    other = np.eye(1, max(m, n))[0] if degenerate else w / sigma
    u, v = (start, other) if left else (other, start)
    return TopSingularPair(sigma, u, v, converged, degenerate=degenerate,
                           iterations=products)
