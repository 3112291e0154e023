"""Linear matrix structures and their constraint / recovery encodings.

A structure maps a parameter vector y to an M x N matrix Q(y) by writing
y[k] at every position of the k-th support (disjoint supports, optional
forced-zero positions).  A spec is one index map, the supports' positions
and sizes; from it we write, as CSR, a constraint matrix B with
``B @ vec(X) == 0`` exactly on structured matrices and a recovery matrix C
with ``C @ vec(Q(y)) == y``.  Vectorization is column-major throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import SparseMatrix, spmv, unvec, vec


class RecoveryMode(Enum):
    """How C reads parameters back off a structured matrix."""

    PROJECTION = "projection"  # averages every occurrence; C @ vec realizes a projection
    SPARSE = "sparse"          # picks the first occurrence only


@dataclass(frozen=True, eq=False)
class StructureSpec:
    """Index map of a linear structure on an M x N matrix.

    ``support_positions`` lists the supports' column-major positions in
    parameter order, ``support_sizes[k]`` of them for parameter k; each
    support is non-empty and strictly ascending.  Positions in
    ``zero_positions`` are forced to zero and lie in no support.  The spec
    keeps read-only int64 copies of the three arrays, so it is immutable.
    """

    rows: int
    cols: int
    support_positions: np.ndarray
    support_sizes: np.ndarray
    zero_positions: np.ndarray = ()

    def __post_init__(self):
        for name in ("support_positions", "support_sizes", "zero_positions"):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):  # a NaN fails the test below
                arr = given.astype(np.int64)
            if arr.ndim != 1 or np.any(arr != given):
                raise ValueError(f"{name} must be a 1-D array of integers")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.validate()

    def validate(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("structure needs positive dimensions")
        size = self.rows * self.cols
        pos, sizes = self.support_positions, self.support_sizes
        if np.any(sizes < 0) or sizes.sum() != pos.size:
            raise ValueError("support sizes must be non-negative and add up "
                             "to the number of positions")
        # the first support that is empty or, within itself, not ascending;
        # a drop from one support to the next is legal
        owner = np.repeat(np.arange(sizes.size), sizes)
        drops = (np.diff(pos) <= 0) & (owner[1:] == owner[:-1])
        bad = sizes == 0
        bad[owner[1:][drops]] = True
        if bad.any():
            k = int(np.argmax(bad))
            if sizes[k] == 0:
                raise ValueError(f"support {k} is empty")
            raise ValueError(f"support {k} is not sorted strictly ascending")
        all_pos = np.concatenate([pos, self.zero_positions])
        if all_pos.size:
            if all_pos.min() < 0 or all_pos.max() >= size:
                raise ValueError("position out of range")
            if np.bincount(all_pos, minlength=size).max() > 1:
                raise ValueError("supports / zero positions overlap")

    @property
    def n_params(self):
        return self.support_sizes.size

    @property
    def shape(self):
        return (self.rows, self.cols)


def _spec_from_param_grid(param_of_position, rows, cols, n_params):
    """Group the column-major positions of an M x N grid by parameter id.

    ``param_of_position`` is an M x N integer array; every value in
    ``range(n_params)`` must occur at least once.
    """
    flat = param_of_position.ravel(order="F")
    # stable keeps positions ascending per group; on uint16 keys numpy's
    # stable sort is a linear-time radix sort
    keys = flat.astype(np.uint16) if n_params <= 1 << 16 else flat
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(flat, minlength=n_params)
    if np.any(counts == 0):
        raise ValueError("every parameter must appear in the grid")
    return StructureSpec(rows, cols, order, counts)


def hankel_spec(j, k):
    """Hankel structure: Q(y) is j x k with Q[r, c] = y[r + c]."""
    if j <= 0 or k <= 0:
        raise ValueError("hankel_spec needs positive dimensions")
    r = np.arange(j)[:, None]
    c = np.arange(k)[None, :]
    return _spec_from_param_grid(r + c, j, k, j + k - 1)


def block_hankel_spec(m, n, j, k):
    """Block-Hankel structure with j x k blocks of size m x n.

    Parameters are the scalars of the j+k-1 distinct blocks, flattened
    block-wise (column-major inside each block):
    ``p = t*m*n + b*m + a`` for entry (a, b) of block t.
    """
    if min(m, n, j, k) <= 0:
        raise ValueError("block_hankel_spec needs positive dimensions")
    rows, cols = m * j, n * k
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    t = r // m + c // n
    a = r % m
    b = c % n
    grid = t * (m * n) + b * m + a
    return _spec_from_param_grid(grid, rows, cols, m * n * (j + k - 1))


def two_fold_hankel_spec(n1, n2, k1, k2):
    """Two-fold Hankel structure of an n1 x n2 parameter grid Y.

    The structured matrix is block-Hankel in the rows of Y with k1 block
    rows, and each block is the k2 x (n2-k2+1) Hankel matrix of one row.
    Parameter (l, t) of Y sits at flat index ``t*n1 + l`` (column-major).
    """
    if min(n1, n2, k1, k2) <= 0:
        raise ValueError("two_fold_hankel_spec needs positive dimensions")
    if k1 > n1 or k2 > n2:
        raise ValueError("window exceeds grid dimensions")
    rows = k1 * k2
    cols = (n1 - k1 + 1) * (n2 - k2 + 1)
    w2 = n2 - k2 + 1
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    l = r // k2 + c // w2
    t = r % k2 + c % w2
    grid = t * n1 + l
    return _spec_from_param_grid(grid, rows, cols, n1 * n2)


def build_B(spec: StructureSpec) -> SparseMatrix:
    """Sparse constraint matrix with kernel equal to the structured image.

    One +1/-1 row per consecutive pair within a support (rows ordered by
    parameter then pair), then one single-entry row per forced-zero
    position.
    """
    pos = spec.support_positions
    # every neighbour pair in the concatenation except those across two supports
    within = np.ones(max(pos.size - 1, 0), dtype=bool)
    within[np.cumsum(spec.support_sizes)[:-1] - 1] = False
    heads, tails = pos[:-1][within], pos[1:][within]
    n_pairs, n_zeros = heads.size, spec.zero_positions.size
    indices = np.concatenate([np.stack([heads, tails], axis=1).ravel(),
                              spec.zero_positions])
    data = np.concatenate([np.tile([1.0, -1.0], n_pairs), np.ones(n_zeros)])
    indptr = np.concatenate([np.arange(0, 2 * n_pairs, 2),
                             2 * n_pairs + np.arange(n_zeros + 1)])
    return SparseMatrix((data, indices, indptr),
                        shape=(n_pairs + n_zeros, spec.rows * spec.cols))


def constraint_gram_norm(spec: StructureSpec) -> float:
    """Largest eigenvalue of B^T B for ``B = build_B(spec)``, in closed form.

    B^T B is block diagonal: the Laplacian of a path over each support's
    positions, and the identity on the forced zeros.  A path on n nodes
    has top eigenvalue 2 + 2 cos(pi / n).
    """
    sizes = spec.support_sizes[spec.support_sizes > 1]
    top = float(np.max(2.0 + 2.0 * np.cos(np.pi / sizes))) if sizes.size else 0.0
    return max(top, 1.0) if spec.zero_positions.size else top


def build_C(spec: StructureSpec, mode: RecoveryMode = RecoveryMode.PROJECTION) -> SparseMatrix:
    """Sparse recovery matrix with ``C @ vec(Q(y)) == y``.

    Projection mode averages all occurrences of a parameter, so applying
    Q after C orthogonally projects onto the structured image; sparse mode
    reads the first occurrence only.
    """
    sizes = spec.support_sizes
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    if mode is RecoveryMode.PROJECTION:
        data = np.repeat(1.0 / sizes, sizes)
        indices = spec.support_positions
    elif mode is RecoveryMode.SPARSE:
        data = np.ones(sizes.size)
        indices = spec.support_positions[indptr[:-1]]
        indptr = np.arange(sizes.size + 1)
    else:
        raise ValueError(f"unknown recovery mode: {mode!r}")
    return SparseMatrix((data, indices, indptr), shape=(sizes.size, spec.rows * spec.cols))


def apply_structure(spec: StructureSpec, y) -> np.ndarray:
    """Materialize Q(y) as a dense M x N matrix."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got shape {y.shape}")
    flat = np.zeros(spec.rows * spec.cols)
    flat[spec.support_positions] = np.repeat(y, spec.support_sizes)
    return unvec(flat, spec.rows, spec.cols)


def project_to_image(spec: StructureSpec, x) -> np.ndarray:
    """Orthogonal projection of a dense matrix onto the structured image.

    It is Q(C x) with the averaging C of ``build_C``, the map the solvers use.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.rows, spec.cols):
        raise ValueError(f"expected shape {(spec.rows, spec.cols)}, got {x.shape}")
    return apply_structure(spec, spmv(build_C(spec), vec(x)))
