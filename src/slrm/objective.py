"""Penalized least-squares objective over a lifted structured matrix.

The smooth part is f(x) = 0.5*|AC x - b|^2 + (lam/2)*|B x|^2 on the
column-major vectorization x of an M x N matrix X; the full objective adds
mu times the nuclear norm of X.  Iterates are kept in factored form
X = U @ V, which also yields the variational surrogate
tau = (|U|_F^2 + |V|_F^2) / 2 >= |X|_*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SparseMatrix, sparse_matmul, spmv, spmv_t, unvec, vec
from .structure import RecoveryMode, StructureSpec, build_B, build_C


class UnboundedDirectionError(RuntimeError):
    """Raised when the objective is unbounded below along a search ray."""


@dataclass
class FactorPair:
    """Low-rank factors U (M x r) and V (r x N); r = 0 encodes X = 0."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.atleast_2d(np.asarray(self.U, dtype=float))
        self.V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if self.U.shape[1] != self.V.shape[0]:
            raise ValueError("inner factor dimensions differ")

    @property
    def rank(self):
        return self.U.shape[1]

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[1])

    def product(self):
        return self.U @ self.V

    def norms_sq(self):
        return float(np.sum(self.U * self.U)), float(np.sum(self.V * self.V))

    def surrogate(self):
        """Variational upper bound on the nuclear norm of U @ V."""
        nu, nv = self.norms_sq()
        return 0.5 * (nu + nv)

    def scaled(self, c):
        return FactorPair(c * self.U, c * self.V)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(np.zeros((rows, 0)), np.zeros((0, cols)))

    @classmethod
    def ones(cls, rows, cols):
        return cls(np.ones((rows, 1)), np.ones((1, cols)))


@dataclass(frozen=True, eq=False)
class PenaltyProblem:
    """Assembled problem data; treat as immutable once constructed."""

    rows: int
    cols: int
    observation: SparseMatrix  # S, maps parameters to observed scalars
    target: np.ndarray         # b
    B: SparseMatrix
    C: SparseMatrix
    AC: SparseMatrix           # precomputed S @ C
    lam: float
    mu: float
    spec: StructureSpec

    @property
    def size(self):
        return self.rows * self.cols


def assemble(spec: StructureSpec, observation: SparseMatrix, target, lam, mu,
             recovery: RecoveryMode = RecoveryMode.PROJECTION) -> PenaltyProblem:
    """Build a PenaltyProblem from a structure, an observation map, and data.

    ``observation`` has one row per observed scalar and ``spec.n_params``
    columns.  The product AC = S @ C is formed once and checked against the
    two-step application on a handful of random probes.
    """
    target = np.asarray(target, dtype=float)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if observation.n_cols != spec.n_params:
        raise ValueError("observation width must match the parameter count")
    if target.shape != (observation.n_rows,):
        raise ValueError("target length must match the observation rows")
    b_mat = build_B(spec)
    c_mat = build_C(spec, recovery)
    ac = sparse_matmul(observation, c_mat)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(c_mat.n_cols)
        direct = spmv(ac, x)
        two_step = spmv(observation, spmv(c_mat, x))
        scale = max(1.0, float(np.linalg.norm(two_step)))
        if np.linalg.norm(direct - two_step) > 1e-12 * scale:
            raise AssertionError("AC product disagrees with S @ (C x) on a probe")
    return PenaltyProblem(spec.rows, spec.cols, observation, target,
                          b_mat, c_mat, ac, float(lam), float(mu), spec)


def smooth_terms(prob: PenaltyProblem, x):
    """(f, square loss, structure penalty) at a vectorized point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.size,):
        raise ValueError(f"expected vector of length {prob.size}")
    resid = spmv(prob.AC, x) - prob.target
    sqloss = 0.5 * float(resid @ resid)
    bx = spmv(prob.B, x)
    pen = 0.5 * prob.lam * float(bx @ bx)
    return sqloss + pen, sqloss, pen


def f_value(prob: PenaltyProblem, x):
    return smooth_terms(prob, x)[0]


def _grad_vec(prob: PenaltyProblem, x):
    # AC^T (AC x - b) + lam B^T B x on vec space
    g = spmv_t(prob.AC, spmv(prob.AC, x) - prob.target)
    if prob.B.n_rows:
        g = g + prob.lam * spmv_t(prob.B, spmv(prob.B, x))
    return g


def _hess_vec(prob: PenaltyProblem, x):
    # (AC^T AC + lam B^T B) x on vec space
    out = spmv_t(prob.AC, spmv(prob.AC, x))
    if prob.B.n_rows:
        out = out + prob.lam * spmv_t(prob.B, spmv(prob.B, x))
    return out


def grad_f(prob: PenaltyProblem, factors: FactorPair):
    """Dense M x N gradient of f at X = U @ V.

    Cost is O(M N r) for the product plus the sparse work; the result is
    dense because the top-singular-pair subproblem consumes it directly.
    """
    return unvec(_grad_vec(prob, vec(factors.product())), prob.rows, prob.cols)


def factor_svd(factors: FactorPair):
    """Thin SVD (L, s, Rt) of U @ V without forming the product.

    QR on both factors reduces the problem to an r x r core.
    """
    if factors.rank == 0:
        m, n = factors.shape
        return np.zeros((m, 0)), np.zeros(0), np.zeros((0, n))
    qu, ru = np.linalg.qr(factors.U)
    qv, rv = np.linalg.qr(factors.V.T)
    uc, s, vct = np.linalg.svd(ru @ rv.T, full_matrices=False)
    return qu @ uc, s, vct @ qv.T


def factor_nuclear_norm(factors: FactorPair):
    if factors.rank == 0:
        return 0.0
    _, ru = np.linalg.qr(factors.U)
    _, rv = np.linalg.qr(factors.V.T)
    return float(np.linalg.svd(ru @ rv.T, compute_uv=False).sum())


def psi_value(prob: PenaltyProblem, factors: FactorPair):
    """f(UV) plus mu times the variational surrogate; what local search descends."""
    return f_value(prob, vec(factors.product())) + prob.mu * factors.surrogate()


def phi_value(prob: PenaltyProblem, factors: FactorPair):
    """True objective f(UV) + mu * |UV|_* (nuclear norm via the factor SVD)."""
    return f_value(prob, vec(factors.product())) + prob.mu * factor_nuclear_norm(factors)


@dataclass(frozen=True)
class LineSearchInputs:
    """Quadratic model of h along the new atom: slope and curvature at theta=0."""

    eta: float
    slope: float      # <Z, grad f((1-eta) X)>
    curvature: float  # |AC vec(Z)|^2 + lam |B vec(Z)|^2


def line_search_inputs(prob: PenaltyProblem, shrunk: FactorPair, z_u, z_v, eta):
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    g = grad_f(prob, shrunk)
    slope = float(z_u @ g @ z_v)
    zf = vec(np.outer(z_u, z_v))
    acz = spmv(prob.AC, zf)
    q = float(acz @ acz)
    if prob.B.n_rows:
        bz = spmv(prob.B, zf)
        q += prob.lam * float(bz @ bz)
    return LineSearchInputs(float(eta), slope, q)


def line_search_theta(prob: PenaltyProblem, shrunk: FactorPair, z_u, z_v, eta):
    """Exact minimizer of the upper model h over theta >= 0.

    ``shrunk`` must already be scaled by sqrt(1 - eta).  h(theta) is the
    smooth part at (1-eta)X + theta Z plus mu times the shrunk surrogate
    plus mu*theta; since f is quadratic the minimizer is closed form.
    Returns (theta, h(theta)).
    """
    inp = line_search_inputs(prob, shrunk, z_u, z_v, eta)
    drift = inp.slope + prob.mu
    if inp.curvature == 0.0:
        if drift < 0.0:
            raise UnboundedDirectionError(
                "h decreases without bound along the new atom")
        theta = 0.0
    else:
        theta = max(0.0, -drift / inp.curvature)
    f_shrunk = f_value(prob, vec(shrunk.product()))
    h_min = (f_shrunk + theta * drift + 0.5 * theta * theta * inp.curvature
             + prob.mu * shrunk.surrogate())
    return theta, h_min
