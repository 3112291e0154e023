"""Penalized least-squares objective over a lifted structured matrix.

The smooth part is f(x) = 0.5*|AC x - b|^2 + (lam/2)*|B x|^2 on the
column-major vectorization x of an M x N matrix X; the full objective adds
mu times the nuclear norm of X.  Iterates are kept in factored form
X = U @ V, which also yields the variational surrogate
tau = (|U|_F^2 + |V|_F^2) / 2 >= |X|_*.
f, its gradient and the step model read a point's ``affine_terms``, so B
enters only through its Gram.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import SparseMatrix, _svd, _thin_qr, spmv, spmv_t, unvec, vec
from .structure import StructureSpec, build_B, build_C


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

    def surrogate(self):
        """Variational upper bound on the nuclear norm of U @ V."""
        return 0.5 * (float(np.sum(self.U * self.U)) + float(np.sum(self.V * self.V)))

    def scaled(self, c):
        return FactorPair(c * self.U, c * self.V)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(np.zeros((rows, 0)), np.zeros((0, cols)))

    @classmethod
    def ones(cls, rows, cols):
        return cls(np.ones((rows, 1)), np.ones((1, cols)))


# The largest lift (M N entries) whose dense MN x MN matrices are built:
# 2 MB each at 512.  gcg solves a block exactly only up to it.
EXACT_LIFT_MAX_ENTRIES = 512
# The lam-free values a stage of another lam shares (``PenaltyProblem.at_lam``)
LAM_FREE = ("acac", "bb_positions", "adjoint_target", "half_target_sq")


@dataclass(frozen=True, eq=False)
class PenaltyProblem:
    """Assembled problem data; treat as immutable once constructed.

    Derived values are built on first use and cached on the object, so they
    are freed with it; ``at_lam`` makes a stage at another lam that shares
    the lam-free ones.
    """

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

    def at_lam(self, lam):
        """This problem at structure weight lam, sharing every lam-free value
        built so far (``LAM_FREE``); itself if lam is its own."""
        if lam == self.lam:
            return self
        stage = replace(self, lam=float(lam))
        built = vars(self)
        vars(stage).update({name: built[name] for name in LAM_FREE if name in built})
        return stage

    @cached_property
    def adjoint_target(self):
        """mat(AC^T b), read-only; shared by every local search on this problem."""
        return _read_only(unvec(spmv_t(self.AC, self.target), self.rows, self.cols))

    @cached_property
    def half_target_sq(self):
        """|b|^2 / 2, f at x = 0."""
        return 0.5 * float(self.target @ self.target)

    @cached_property
    def acac(self):
        """Dense ``AC^T AC`` (MN x MN), read-only: AC^T times AC's dense form,
        so AC's sparse Gram is never built.  Raises ValueError on a lift
        above ``EXACT_LIFT_MAX_ENTRIES``, before it allocates."""
        if self.size > EXACT_LIFT_MAX_ENTRIES:  # 4.7 GB on the scs-31 lift
            raise ValueError(f"no dense MN x MN matrix on a lift of {self.size} "
                             f"entries (at most {EXACT_LIFT_MAX_ENTRIES})")
        return _read_only(spmv_t(self.AC, self.AC.to_dense()))

    @cached_property
    def bb_positions(self):
        """Flat positions in an MN x MN array of the entries B's Gram stores."""
        gram = self.B.gram.to_scipy()
        rows = np.repeat(np.arange(self.size) * self.size, np.diff(gram.indptr))
        return rows + gram.indices

    @cached_property
    def hessian(self):
        """Dense ``AC^T AC + lam B^T B`` (MN x MN), exactly symmetric and
        read-only, for ``gcg._block_normal``: one copy of ``acac`` per lam
        stage, with lam times B's Gram added at its stored entries.  That is
        ``acac + lam * B.gram.to_dense()`` bit for bit, with no dense B^T B:
        B's Gram stores 464 of the desk's 36,864 entries.  Raises ValueError
        on a lift above ``EXACT_LIFT_MAX_ENTRIES``."""
        out = self.acac.copy()
        out.ravel()[self.bb_positions] += self.lam * self.B.gram.to_scipy().data
        return _read_only(out)


def _read_only(a):
    a.flags.writeable = False
    return a


def assemble(spec: StructureSpec, observation: SparseMatrix, target, lam,
             mu) -> PenaltyProblem:
    """Build a PenaltyProblem from a structure, an observation map, and data.

    ``observation`` has one row per observed scalar and ``spec.n_params``
    columns.  C is the averaging recovery matrix, and the product
    AC = S @ C is formed once.
    """
    target = np.asarray(target, dtype=float)
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be non-negative and finite")
    if not 0 < mu < np.inf:
        raise ValueError("mu must be positive and finite")
    if observation.n_cols != spec.n_params:
        raise ValueError("observation width must match the parameter count")
    if target.shape != (observation.n_rows,):
        raise ValueError("target length must match the observation rows")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    b_mat = build_B(spec)
    c_mat = build_C(spec)
    ac = SparseMatrix(observation.to_scipy() @ c_mat.to_scipy())
    return PenaltyProblem(spec.rows, spec.cols, observation, target,
                          b_mat, c_mat, ac, float(lam), float(mu), spec)


def smooth_terms(prob: PenaltyProblem, x):
    """(f, square loss, structure penalty) at a vectorized point, from its
    ``affine_terms``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.size,):
        raise ValueError(f"expected vector of length {prob.size}")
    return smooth_terms_from(prob, x, *affine_terms(prob, x))


def affine_terms(prob: PenaltyProblem, x):
    """``(AC x - b, B^T B x)`` at a vectorized point, from AC and B's Gram.

    f is read from these two (``smooth_terms_from``), and its gradient is
    ``AC^T r + lam B^T B x``.  Both terms are affine in x, so the terms of a
    combination of points are the same combination of theirs.  A B without
    rows has a zero Gram, so its term is 0.
    """
    return spmv(prob.AC, x) - prob.target, spmv(prob.B.gram, x)


def smooth_terms_from(prob: PenaltyProblem, x, resid, gram_x):
    """``smooth_terms`` at x from its ``affine_terms``, with no sparse product.

    The penalty is read as ``(lam/2) <x, B^T B x>``, equal to
    ``(lam/2) |B x|^2`` up to rounding.
    """
    sqloss = 0.5 * float(resid @ resid)
    pen = 0.5 * prob.lam * float(x @ gram_x)
    return sqloss + pen, sqloss, pen


def f_value(prob: PenaltyProblem, x):
    return smooth_terms(prob, x)[0]


def _iterate_terms(prob: PenaltyProblem, factors: FactorPair):
    # (x, AC x - b, B^T B x) at x = vec(U V)
    x = vec(factors.product())
    return (x, *affine_terms(prob, x))


def _grad_from(prob: PenaltyProblem, resid, gram_x):
    # AC^T r + lam B^T B x on vec space, from the point's affine_terms
    return spmv_t(prob.AC, resid) + prob.lam * gram_x


def _hess_vec(prob: PenaltyProblem, x):
    """``(AC^T AC + lam B^T B) x`` on vec space, x one vector or columns.

    Products with AC, AC^T and B's Gram; AC's Gram is never built.  Each
    CG step of a local-search block applies it to one vector; exact blocks
    read the dense ``PenaltyProblem.hessian`` instead.
    """
    return spmv_t(prob.AC, spmv(prob.AC, x)) + prob.lam * spmv(prob.B.gram, x)


def grad_f(prob: PenaltyProblem, factors: FactorPair, terms=None):
    """Dense M x N gradient of f at X = U @ V, for the top singular pair.

    ``terms``, the iterate's ``(x, AC x - b, B^T B x)`` with x = vec(U V),
    leaves one AC^T product; without it they are evaluated first.
    """
    _, resid, gram_x = _iterate_terms(prob, factors) if terms is None else terms
    return unvec(_grad_from(prob, resid, gram_x), prob.rows, prob.cols)


def factor_svd(factors: FactorPair):
    """Thin SVD (L, s, Rt) of U @ V without forming the product.

    QR on both factors reduces the problem to an r x r core.  The QRs and
    the core's SVD call LAPACK directly (``linalg._thin_qr``, ``_svd``) up
    to 1,024 entries, with numpy's results bit for bit: 30 against 47 us at
    12 x 4 and 4 x 16 (best of 3 processes on 2 cores, OpenBLAS at 1 thread).
    """
    if factors.rank == 0:
        m, n = factors.shape
        return np.zeros((m, 0)), np.zeros(0), np.zeros((0, n))
    qu, ru = _thin_qr(factors.U)
    qv, rv = _thin_qr(factors.V.T)
    uc, s, vct = _svd(ru @ rv.T)
    return qu @ uc, s, vct @ qv.T


def psi_value(prob: PenaltyProblem, factors: FactorPair):
    """f(UV) plus mu times the variational surrogate; what local search descends."""
    return f_value(prob, vec(factors.product())) + prob.mu * factors.surrogate()


@dataclass(frozen=True)
class StepModel:
    """psi of the step candidate as an exact quadratic in (a, theta).

    The candidate joins the shrunk factors sqrt(a) (U, V) with the atom
    sqrt(theta) (z_u, z_v) for unit z_u, z_v; its product is a X + theta Z
    and its surrogate a tau + theta, so with f quadratic psi(a, theta) is a
    convex quadratic.  It is stored as its value, gradient and Hessian at
    the current point (a, theta) = (1, 0).
    """

    psi0: float
    grad_a: float
    grad_theta: float
    h_aa: float
    h_at: float
    h_tt: float

    def value(self, a, theta):
        d = a - 1.0
        return (self.psi0 + self.grad_a * d + self.grad_theta * theta
                + 0.5 * (self.h_aa * d * d + 2.0 * self.h_at * d * theta
                         + self.h_tt * theta * theta))

    def theta_at(self, a):
        """Best atom weight theta >= 0 at a fixed shrink a."""
        drift = self.grad_theta + self.h_at * (a - 1.0)
        if self.h_tt == 0.0:
            if drift < 0.0:
                raise UnboundedDirectionError(
                    "psi decreases without bound along the new atom")
            return 0.0
        return max(0.0, -drift / self.h_tt)

    def minimize(self):
        """(a, theta, psi) minimizing the model over a in [0, 1], theta >= 0.

        The best of the interior stationary point and the optima on the
        edges theta = 0, a = 1 and a = 0.  (1, 0) lies on the box, so the
        result never exceeds psi0.
        """
        if self.h_aa > 0.0:
            d = min(0.0, max(-1.0, -self.grad_a / self.h_aa))
        else:
            d = -1.0 if self.grad_a > 0.0 else 0.0
        points = [(1.0 + d, 0.0), (1.0, self.theta_at(1.0)),
                  (0.0, self.theta_at(0.0))]
        det = self.h_aa * self.h_tt - self.h_at * self.h_at
        if det > 0.0:
            d = (self.h_at * self.grad_theta - self.h_tt * self.grad_a) / det
            theta = (self.h_at * self.grad_a - self.h_aa * self.grad_theta) / det
            if -1.0 <= d <= 0.0 and theta >= 0.0:
                points.append((1.0 + d, theta))
        a, theta = min(points, key=lambda pt: self.value(*pt))
        return a, theta, self.value(a, theta)


def step_model(prob: PenaltyProblem, factors: FactorPair, z_u, z_v, terms=None):
    """The StepModel of ``factors`` joined by the unit atom z_u z_v^T.

    ``terms`` is optional, as for ``grad_f``.  With z = vec(z_u z_v^T),
    <Bx, Bx>, <Bx, Bz> and <Bz, Bz> are read as <x, B^T B x>, <B^T B x, z>
    and <z, B^T B z>: one AC and one Gram product for the atom, none with B.
    """
    x, resid, gram_x = _iterate_terms(prob, factors) if terms is None else terms
    z = vec(np.outer(z_u, z_v))
    p = resid + prob.target  # AC x
    q = spmv(prob.AC, z)
    ss = prob.lam * float(x @ gram_x)
    st = prob.lam * float(gram_x @ z)
    tt = prob.lam * float(z @ spmv(prob.B.gram, z))
    f0 = 0.5 * float(resid @ resid) + 0.5 * ss
    tau = prob.mu * factors.surrogate()
    return StepModel(f0 + tau, float(resid @ p) + ss + tau,
                     float(resid @ q) + st + prob.mu,
                     float(p @ p) + ss, float(p @ q) + st, float(q @ q) + tt)
