"""Conditional-gradient solver over factored low-rank iterates.

Each iteration linearizes the smooth part and takes the leading singular
pair of the negated gradient as the new rank-one atom.  One exact step then
picks the shrink a of the current factors and the weight theta of the atom
together: psi is a convex quadratic in (a, theta), minimized in closed form
over a in [0, 1], theta >= 0.  A few sweeps of alternating ridge solves,
started from the psi that step returns, improve the factors, one
``_block_step`` per factor: a block of few unknowns on a small lift is
solved exactly from its reduced normal matrix (two GEMMs on the dense
``hessian``, one Cholesky), any other by a few steps of scipy's conjugate
gradient on sparse products with AC and B's Gram.  A sweep whose V block
was solved exactly reads its psi off that solve, with no sparse product.
No move raises the surrogate objective psi beyond rounding.

Each candidate, and a cold start, settles through one thin SVD and one
evaluation (``_settled``) to a ``Settled`` iterate, in every configuration.
The SVD re-balances the factors (``compress``), which puts the surrogate on
the nuclear norm, so the row's phi equals its psi; its singular values give
a rank column read from sigma(U V).  A step's one psi test holds a
candidate whose settled psi rises past the last row's beyond rounding: its
row repeats the last one and ends the stage on tol_x.  The row, the next
``grad_f`` and ``step_model`` read the ``affine_terms`` of x = vec(U V),
and the tol_x step is |x_k - x_{k-1}|.  No product is taken with B itself,
only with its Gram.  No part of a Settled iterate depends on lam, so each
continuation stage starts from the one the last stage ended at, as it is,
and shares its lam-free data (``PenaltyProblem.at_lam``).

Both this solver and the proximal baseline record their iterates through
``SolveTrace.append`` and read the structured rank through
``structured_rank``; ``cli`` writes the rows to trace.csv.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.sparse.linalg import LinearOperator, cg

from .linalg import singular_values, spmv, top_singular_pair, unvec, vec
from .objective import (EXACT_LIFT_MAX_ENTRIES, FactorPair, PenaltyProblem,
                        _hess_vec, _iterate_terms, factor_svd, grad_f,
                        psi_value, smooth_terms_from, step_model)
from .structure import apply_structure

PSI_SLACK = 1e-12
# _exact_block's limit on the unknowns of a block; the lift's is objective's
EXACT_BLOCK_MAX_UNKNOWNS = 120
BLOCK_CG_MAX_ITER = 10


class DivergedError(RuntimeError):
    """Non-finite objective; carries the partial trace for post-mortems."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class SolverConfig:
    """Settings both solvers share: iteration cap, stop rule, seed, continuation.

    Neither solver draws at random, so ``seed`` changes no result.
    """

    max_iter: int = 100
    tol_x: float = 1e-3            # stop when |X_k - X_{k-1}|_F drops below
    tol_obj: float = 1e-3          # stop on relative phi change
    seed: int = 0
    # Continuation (the *_homotopy solves only): re-solve at geometrically
    # growing structure weights lam, lam*lam_growth, ... capped at lam_max,
    # warm starting each stage.  A plain solve always uses the problem's lam.
    lam_growth: float = 10.0
    lam_max: float = 100.0

    def validate(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (self.tol_x > 0 and self.tol_obj > 0):
            raise ValueError("tolerances must be positive")
        if not self.lam_growth >= 1.0:
            raise ValueError("lam_growth must be at least 1 (1 disables continuation)")
        if not np.isfinite(self.lam_max):
            raise ValueError("lam_max must be finite")

    def stop_reason(self, dx, phi, phi_prev):
        """Why to stop after a step of size dx that took phi_prev to phi.

        "tol_x" is tested before "tol_obj"; "" means go on.  With no
        previous phi (None) only tol_x can fire.
        """
        if dx < self.tol_x:
            return "tol_x"
        if phi_prev is None:
            return ""
        denom = abs(min(phi, phi_prev))
        rel_obj = abs(phi - phi_prev) / denom if denom > 0 else abs(phi - phi_prev)
        return "tol_obj" if rel_obj < self.tol_obj else ""


@dataclass
class GcgConfig(SolverConfig):
    """Conditional-gradient settings.

    The rest is fixed: atoms are the exact top singular pair of -grad f;
    the local search solves a block exactly where ``_exact_block`` allows
    it and by at most 10 steps of scipy's ``cg`` elsewhere, and stops below
    a 1e-4 relative improvement; the rank column counts values above 1e-3,
    recompression drops values at or below 1e-10, and a step that would
    raise psi past rounding is held, which ends the stage on tol_x.  Each
    row takes one thin SVD of the factors: the recompress, which makes phi
    equal psi, or without it the singular values that give |X|_*.  A rank
    column from sigma(UV) reads the values that SVD kept.
    """

    local_search_max_steps: int = 5      # alternating sweeps per iteration
    track_structured_rank: bool = True   # rank column from Q(C x); else from sigma(UV)
    recompress: bool = True              # re-factor through the thin SVD every iteration

    def validate(self):
        super().validate()
        if self.local_search_max_steps < 0:
            raise ValueError("local search budget must be non-negative")


@dataclass
class TraceRecord:
    iteration: int
    time_s: float
    phi: float
    f_smooth: float
    square_loss: float
    psi: float
    theta: float
    sigma_top: float
    rank: int
    factor_rank: int


@dataclass
class SolveTrace:
    """Rows, stop reason and wall time of one solve, timed from t0 (creation).

    Both solvers write every row through ``append``, so they share phi, its
    finiteness rule and the row numbering.
    """

    records: list = field(default_factory=list)
    converged_reason: str = "max_iter"
    wall_time_s: float = 0.0
    t0: float = field(default_factory=time.perf_counter)
    # what a next continuation stage starts from: GCG's last Settled
    # iterate, APG's last iterate
    warm_start: object = None

    def append(self, prob: PenaltyProblem, terms, nuclear, **row):
        """Record an iterate from its smooth terms and |X|_* = nuclear; returns phi.

        ``terms`` is ``(f, square loss, penalty)`` at the iterate, as
        ``smooth_terms`` returns them; phi = f + mu * nuclear.  ``row`` holds
        the other columns, psi defaults to phi.  A non-finite phi adds no row
        and raises ``diverged``.  GCG takes nuclear from the row's one thin
        SVD, so the recompress makes phi equal psi.
        """
        f_smooth, sqloss, _ = terms
        phi = f_smooth + prob.mu * nuclear
        k = len(self.records) + 1
        if not np.isfinite(phi):
            raise self.diverged(f"non-finite objective at iteration {k}")
        row.setdefault("psi", phi)
        self.records.append(TraceRecord(k, time.perf_counter() - self.t0, phi,
                                        f_smooth, sqloss, **row))
        return phi

    def stop(self, reason):
        """Record a non-empty stop reason; returns whether there was one."""
        if reason:
            self.converged_reason = reason
        return bool(reason)

    def finish(self):
        """Stamp the wall time since t0."""
        self.wall_time_s = time.perf_counter() - self.t0

    def diverged(self, message):
        """Mark the run diverged and stamp its wall time; the error to raise."""
        self.converged_reason = "diverged"
        self.finish()
        return DivergedError(message, self)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def summary(self, solver, seed):
        last = self.records[-1] if self.records else None
        return {
            "solver": solver,
            "iters": len(self.records),
            "final_phi": float(last.phi) if last else None,
            "final_sqloss": float(last.square_loss) if last else None,
            "final_rank": int(last.rank) if last else 0,
            "wall_time_s": float(self.wall_time_s),
            "converged_reason": self.converged_reason,
            "seed": int(seed),
        }


def rank_estimate(singular_values, threshold=1e-3):
    """Number of singular values strictly above the (absolute) threshold."""
    return int(np.sum(np.asarray(singular_values, dtype=float) > threshold))


def recover_y(prob: PenaltyProblem, factors: FactorPair):
    """Parameters C @ vec(U V)."""
    return spmv(prob.C, vec(factors.product()))


def structured_rank(prob: PenaltyProblem, x):
    """Rank of Q(C x), x a vectorized iterate: its singular values above 1e-3."""
    return rank_estimate(singular_values(apply_structure(prob.spec, spmv(prob.C, x))))


def compress(factors: FactorPair, tol=1e-10):
    """Re-factor through the thin SVD, dropping singular values <= tol.

    Returns the balanced factors, whose surrogate is |X|_*, and the values kept.
    """
    left, s, right = factor_svd(factors)
    keep = s > tol
    root = np.sqrt(s[keep])
    return FactorPair(left[:, keep] * root, root[:, None] * right[keep, :]), s[keep]


class Settled(NamedTuple):
    """An iterate as GCG carries it: factors, terms (x, AC x - b, B^T B x),
    |X|_* and sigma, the singular values of its one thin SVD.  None of them
    depends on lam, so a stage at another lam of the same problem starts
    from it as it is (``solve``); ``_psi`` reads its psi at a lam."""

    factors: FactorPair
    terms: tuple
    nuclear: float
    sigma: np.ndarray


def _settled(prob: PenaltyProblem, factors: FactorPair, recompress):
    # The Settled iterate of finite factors, after one thin SVD, whose values
    # are sigma, and one evaluation (_iterate_terms): their compress(), |X|_*
    # its surrogate, or without the recompress the factors themselves, |X|_*
    # the sum of sigma.
    if recompress:
        packed, sigma = compress(factors)
        return Settled(packed, _iterate_terms(prob, packed), packed.surrogate(), sigma)
    sigma = factor_svd(factors)[1]
    return Settled(factors, _iterate_terms(prob, factors), float(sigma.sum()), sigma)


def _psi(prob: PenaltyProblem, s: Settled):
    # psi at a Settled iterate: f read off its terms plus mu times the surrogate
    return smooth_terms_from(prob, *s.terms)[0] + prob.mu * s.factors.surrogate()


def _block_normal(prob: PenaltyProblem, u, v, side):
    """Reduced normal matrix ``K = P^T H P + mu I`` of one local-search block.

    ``P`` maps the free block's vec to vec(U V) with the other factor held:
    ``P = V^T kron I_M`` for U (d = M r), ``I_N kron U`` for V (d = r N).
    H is the problem's dense ``hessian``.  K takes two GEMMs on reshaped
    views, with P never formed: H P from H and V (through H's symmetry) or
    U, then the contraction of its rows with V or U^T.
    """
    m, n = prob.rows, prob.cols
    r = u.shape[1]
    h = prob.hessian
    if side == "u":
        hp = (v @ h.reshape(n, m * m * n)).reshape(m * r, m * n).T
        k = (v @ hp.reshape(n, m * m * r)).reshape(m * r, m * r)
    else:
        hp = (h.reshape(m * n * n, m) @ u).reshape(m * n, n * r)
        k = np.matmul(u.T, hp.reshape(n, m, r * n)).reshape(r * n, r * n)
    k.flat[::k.shape[0] + 1] += prob.mu
    return k


def _exact_block(prob: PenaltyProblem, d):
    """Whether a local-search block of d unknowns is solved exactly.

    True for at most ``EXACT_BLOCK_MAX_UNKNOWNS`` unknowns, up to which
    ``dposv`` stays cheap at default threads, on a lift of at most
    ``EXACT_LIFT_MAX_ENTRIES`` entries, whose dense ``hessian`` (2 MB at
    512) stays small; a larger lift never builds it.  One block solve from
    a random start over ranks 1-10, exact against 10 CG steps, in us (best
    of 5 x 50, 2 cores, OpenBLAS at 1 thread):

        12 x 16   19-184 / 259-637     24 x 24   136-472 / 384-546
        16 x 20   46-232 / 535-630     24 x 32   238-659 / 340-410
        20 x 24  104-431 / 553-622     4 x 200   258-613 / 149-711
        16 x 32  130-406 / 398-688     2 x 1000  1463-3205 / 280-599

    On the desk lift (12 x 16) U is exact through rank 10 (d = 120), V
    through rank 7 (d = 112).
    """
    return prob.size <= EXACT_LIFT_MAX_ENTRIES and d <= EXACT_BLOCK_MAX_UNKNOWNS


def _cholesky_solve(k, rhs, x0):
    """``K^{-1} rhs`` for the block shaped like ``x0``, by one LAPACK Cholesky.

    K is overwritten.  If it is not numerically positive definite the block
    ``x0`` is returned unmoved, so psi cannot rise.
    """
    # K is symmetric, so its transpose is the same matrix in Fortran order
    _, x, info = dposv(k.T, vec(rhs), overwrite_a=True)
    if info != 0:
        return x0
    return unvec(x, *x0.shape)


def _block_cg(apply_mat, rhs, x0, max_iter=BLOCK_CG_MAX_ITER):
    """Approximate ``K^{-1} rhs`` by scipy's ``cg`` warm started at ``x0``.

    ``apply_mat`` applies K to a block shaped like ``x0``.  One apply gives
    the start residual and each of at most ``max_iter`` steps makes one more;
    cg stops once ``|r| <= 1e-5 max(1, |rhs|)``.  ``x0`` is not modified.
    """
    shape = x0.shape
    op = LinearOperator((x0.size,) * 2, dtype=float,
                        matvec=lambda x: apply_mat(x.reshape(shape)).ravel())
    x, _ = cg(op, rhs.ravel(), x0=x0.ravel(), atol=1e-5, maxiter=max_iter)
    return x.reshape(shape)


def _block_step(prob: PenaltyProblem, u, v, side):
    """``(block, rhs)``: the block of U (side "u") or V that minimizes psi
    with the other held, and the right-hand side of its normal equations
    when it solves them exactly, else None.

    psi is a strongly convex quadratic in the block.  ``lift`` is P, the map
    from the block into U V, and ``fold`` is P^T, so rhs = P^T vec(AC^T b).
    A small block (``_exact_block``) is solved from K = P^T H P + mu I
    (``_block_normal``) by one Cholesky factorization; any other by at most
    10 steps of scipy's ``cg`` on ``_hess_vec`` (``_block_cg``) warm started
    at the block, stopping once ``|r| <= 1e-5 max(1, |rhs|)``.  Neither
    input is modified.
    """
    if side == "u":
        block, lift, fold = u, (lambda b: b @ v), (lambda w: w @ v.T)
    else:
        block, lift, fold = v, (lambda b: u @ b), (lambda w: u.T @ w)
    rhs = fold(prob.adjoint_target)
    if _exact_block(prob, block.size):
        out = _cholesky_solve(_block_normal(prob, u, v, side), rhs, block)
        # a K that is not positive definite returns the block itself, unsolved
        return out, (None if out is block else rhs)
    m, n = prob.rows, prob.cols
    return _block_cg(lambda b: fold(unvec(_hess_vec(prob, vec(lift(b))), m, n))
                     + prob.mu * b, rhs, block), None


def _solved_psi(prob: PenaltyProblem, u, v, rhs):
    # psi at (U, V) with V the exact minimizer for U held, K vec(V) = rhs:
    # psi = |b|^2/2 - <rhs, V>/2 + mu |U|_F^2 / 2, with no product by AC
    return (prob.half_target_sq - 0.5 * float(np.vdot(rhs, v))
            + 0.5 * prob.mu * float(np.vdot(u, u)))


def local_search(prob: PenaltyProblem, factors, psi, budget, rel_floor=1e-4):
    """Alternating ridge solves on U and V from factors at psi; returns both.

    ``psi`` is that of ``factors``: for the step candidate, the value
    ``StepModel.minimize`` returned.  Each sweep takes one ``_block_step`` on
    U, one on V with the new U, and one psi for the stop test.  After an
    exact V solve that psi is read from the solve itself (``_solved_psi``,
    as in softImpute-ALS's alternating ridge); after a CG one, or a K that
    was not positive definite, it is ``psi_value``.  The returned psi is
    that of the last sweep, or the given one if none ran; ``solve`` reads
    it only to test that the factors are finite.  Every CG step started at
    the block lowers its quadratic, so a CG block that stops early still
    descends.  Never returns a point with psi above the given one beyond
    rounding; stops on the sweep budget, which a rank-0 pair skips, or a
    relative improvement below rel_floor.
    """
    u, v = factors.U, factors.V
    for _ in range(budget if factors.rank else 0):
        psi_sweep = psi
        u, _ = _block_step(prob, u, v, "u")
        v, rhs = _block_step(prob, u, v, "v")
        psi = (psi_value(prob, FactorPair(u, v)) if rhs is None
               else _solved_psi(prob, u, v, rhs))
        if psi_sweep - psi <= rel_floor * max(1e-30, abs(psi)):
            break
    return FactorPair(u, v), psi


def _augment(shrunk: FactorPair, z_u, z_v, theta):
    if theta > 0.0:
        u = np.hstack([shrunk.U, np.sqrt(theta) * z_u[:, None]])
        v = np.vstack([shrunk.V, np.sqrt(theta) * z_v[None, :]])
    else:
        u, v = shrunk.U, shrunk.V
    if u.shape[1]:
        # a == 0 zeroes the old block; drop exactly-zero column/row pairs
        dead = np.all(u == 0.0, axis=0) & np.all(v == 0.0, axis=1)
        if np.any(dead):
            u = u[:, ~dead]
            v = v[~dead, :]
    return FactorPair(u, v)


def solve(prob: PenaltyProblem, config: GcgConfig | None = None, init=None):
    """Run the conditional-gradient iteration; returns (factors, trace).

    ``init`` is a FactorPair, by default the rank-one factorization of the
    all-ones matrix, which settles first (``_settled``), or the ``Settled``
    iterate a stage of the same problem at another lam ended at
    (``trace.warm_start``, which ``_continuation`` passes on).  That one
    starts as it is, with psi and phi read off its terms at this lam.  A
    held step's row repeats the last one with theta 0 and a step of 0, so
    it ends the stage on tol_x.  Raises DivergedError (carrying the partial
    trace) if the objective goes non-finite: the start's psi at this lam (a
    cold start's surrogate before its SVD), or a candidate's before the hold.
    """
    if config is None:
        config = GcgConfig()
    config.validate()
    trace = SolveTrace()
    if isinstance(init, Settled):
        start = init
    else:
        factors = init if init is not None else FactorPair.ones(prob.rows, prob.cols)
        if factors.shape != (prob.rows, prob.cols):
            raise ValueError("initializer shape does not match the problem")
        if not np.isfinite(factors.surrogate()):  # it bounds the SVD core's entries
            raise trace.diverged("non-finite objective at the initial point")
        start = _settled(prob, factors, config.recompress)
    factors, terms, nuclear, sigma = start
    psi_prev = _psi(prob, start)
    if not np.isfinite(psi_prev):  # cold data that overflow, or a warm lam
        raise trace.diverged("non-finite objective at the initial point")
    phi_prev = smooth_terms_from(prob, *terms)[0] + prob.mu * nuclear

    for k in range(1, config.max_iter + 1):
        g = grad_f(prob, factors, terms)
        pair = top_singular_pair(-g)
        a, theta, psi_cand = step_model(prob, factors, pair.u, pair.v, terms).minimize()
        cand = _augment(factors.scaled(np.sqrt(a)), pair.u, pair.v, theta)
        cand, psi_cand = local_search(prob, cand, psi_cand, config.local_search_max_steps)
        if not np.isfinite(psi_cand):  # before the settle's SVD
            raise trace.diverged(f"non-finite objective at iteration {k}")
        settled = _settled(prob, cand, config.recompress)
        psi = _psi(prob, settled)
        if not np.isfinite(psi):  # the sweep's psi can be finite where this overflows
            raise trace.diverged(f"non-finite objective at iteration {k}")
        if psi > psi_prev + PSI_SLACK:
            theta = dx = 0.0  # only rounding gets here; the row repeats the last one
        else:
            dx = np.linalg.norm(settled.terms[0] - terms[0])  # |X_k - X_{k-1}|_F
            psi_prev, (factors, terms, nuclear, sigma) = psi, settled

        if config.track_structured_rank:
            rank = structured_rank(prob, terms[0])
        else:
            rank = rank_estimate(sigma)
        phi = trace.append(prob, smooth_terms_from(prob, *terms), nuclear,
                           psi=psi_prev, theta=theta, sigma_top=pair.sigma,
                           rank=rank, factor_rank=factors.rank)
        reason = config.stop_reason(dx, phi, phi_prev)
        phi_prev = phi
        if trace.stop(reason):
            break

    trace.warm_start = Settled(factors, terms, nuclear, sigma)
    trace.finish()
    return factors, trace


def lam_stages(lam, growth, lam_max):
    """Geometric continuation weights from lam up to at most lam_max.

    lam = 0 never grows, so it is a single stage.
    """
    stages = [float(lam)]
    while growth > 1.0 and 0.0 < stages[-1] < lam_max:
        stages.append(min(stages[-1] * growth, float(lam_max)))
    return stages


def solve_homotopy(prob: PenaltyProblem, config: GcgConfig | None = None,
                   init=None):
    """Continuation: re-solve while geometrically increasing the weight lam.

    Each stage warm starts from the previous factors, pushing the iterate
    toward image(Q) as the penalty tightens; returns the terminal stage's
    factors and trace (with wall_time_s covering all stages).  With
    lam_max <= prob.lam this is a single plain solve.
    """
    if config is None:
        config = GcgConfig()
    return _continuation(solve, prob, config, init)


def _continuation(solve_fn, prob: PenaltyProblem, config, init):
    # One solve_fn(stage, config, init=...) per lam_stages weight.  Each
    # stage is the last one's at_lam, so its lam-free data (objective's
    # LAM_FREE) is built once, and warm starts from the last one's
    # trace.warm_start.  The terminal trace's wall_time_s covers all stages,
    # also when that stage diverged.
    stage, start, trace = prob, init, None
    total = 0.0
    for lam in lam_stages(prob.lam, config.lam_growth, config.lam_max):
        stage = stage.at_lam(lam)
        try:
            result, trace = solve_fn(stage, config, init=start)
        except DivergedError as exc:  # every raise carries its stage's trace
            exc.trace.wall_time_s += total
            raise
        start = trace.warm_start
        total += trace.wall_time_s
    trace.wall_time_s = total
    return result, trace
