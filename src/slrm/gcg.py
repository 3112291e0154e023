"""Conditional-gradient solver over factored low-rank iterates.

Each iteration linearizes the smooth part and takes the leading singular
pair of the negated gradient as the new rank-one atom.  One exact step then
picks the shrink a of the current factors and the weight theta of the atom
together: psi is a convex quadratic in (a, theta), minimized in closed form
over a in [0, 1], theta >= 0.  A few sweeps of alternating ridge solves,
started from the psi that step returns, improve the factors, one
``_block_step`` per factor: a block of few unknowns on a small lift is
solved exactly from its reduced normal matrix by one Cholesky
factorization, any other block by a few steps of scipy's conjugate
gradient.  Both apply the Hessian as the same sparse products with AC and
B's Gram.  No move raises the surrogate objective psi beyond rounding.

Each accepted iterate, and the start, settles through one thin SVD and one
evaluation (``_settled``).  The SVD re-balances the factors (``compress``),
which puts the surrogate on the nuclear norm, so a kept compress gives
|X|_* as the surrogate and the row's phi equals its psi.  The row, the next
``grad_f`` and ``step_model`` read the ``affine_terms`` of x = vec(U V),
and the tol_x step is |x_k - x_{k-1}|.  No product is taken with B
itself, only with its Gram.

Both this solver and the proximal baseline record their iterates through
``SolveTrace.append`` and read the structured rank through
``structured_rank``; ``cli`` writes the rows to trace.csv.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.sparse.linalg import LinearOperator, cg

from .linalg import singular_values, spmv, top_singular_pair, unvec, vec
from .objective import (FactorPair, PenaltyProblem, _hess_vec, _iterate_terms,
                        factor_svd, grad_f, psi_value, smooth_terms_from,
                        step_model)
from .structure import apply_structure

PSI_SLACK = 1e-12
# A local-search block of d unknowns is solved exactly (_exact_block) while
# prob.size * d, the entries of its columns of vec(U V), is at most this.
EXACT_BLOCK_MAX_ENTRIES = 24_000
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
    raise psi past rounding is always held.  Each row takes one thin SVD of
    the factors: the recompress, whose kept result makes phi equal psi, or
    without it the singular values that give |X|_*.  A rank column from
    sigma(UV) reads those same values, and takes one more thin SVD only
    after a kept recompress.
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

    def append(self, prob: PenaltyProblem, terms, nuclear, **row):
        """Record an iterate from its smooth terms and |X|_* = nuclear; returns phi.

        ``terms`` is ``(f, square loss, penalty)`` at the iterate, as
        ``smooth_terms`` returns them; phi = f + mu * nuclear.  ``row`` holds
        the other columns, psi defaults to phi.  A non-finite phi adds no row
        and raises ``diverged``.  GCG takes nuclear from the row's one thin
        SVD, so a kept recompress makes phi equal psi.
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

    The result is balanced, so its surrogate equals the nuclear norm.
    """
    left, s, right = factor_svd(factors)
    keep = s > tol
    root = np.sqrt(s[keep])
    return FactorPair(left[:, keep] * root, root[:, None] * right[keep, :])


def _settled(prob: PenaltyProblem, factors: FactorPair, psi, recompress):
    # (factors, psi, terms, |X|_*, sigma) of the iterate that factors at a
    # finite psi settle to: their compress() unless psi rises past rounding
    # (balanced factors sit on the nuclear norm already, where a drop of rank
    # can go either way by rounding), evaluated once by _iterate_terms.  A
    # kept compress reads psi from those terms and |X|_* as its surrogate,
    # and sigma is None: its SVD was of the factors before.  Else sigma is
    # factor_svd's singular values of the returned factors, |X|_* their sum.
    if recompress:
        packed = compress(factors)
        terms = _iterate_terms(prob, packed)
        nuclear = packed.surrogate()
        psi_packed = smooth_terms_from(prob, *terms)[0] + prob.mu * nuclear
        if psi_packed <= psi + PSI_SLACK:
            return packed, psi_packed, terms, nuclear, None
    sigma = factor_svd(factors)[1]
    return factors, psi, _iterate_terms(prob, factors), float(sigma.sum()), sigma


def _block_normal(prob: PenaltyProblem, u, v, side):
    """Reduced normal matrix ``K = P^T H P + mu I`` of one local-search block.

    ``P`` maps the free block's vec to vec(U V) with the other factor held:
    ``P = V^T kron I_M`` for U (d = M r), ``I_N kron U`` for V (d = r N).  K
    takes one Hessian apply ``_hess_vec`` on the d columns of P and one
    contraction of its rows with V (or U^T); P is written through its
    nonzero pattern, not by ``np.kron``.
    """
    m, n = prob.rows, prob.cols
    r = u.shape[1]
    if side == "u":
        p = np.zeros((n, m, r, m))
        i = np.arange(m)
        p[:, i, :, i] = v.T
        hp = _hess_vec(prob, p.reshape(m * n, m * r))
        k = (v @ hp.reshape(n, m * m * r)).reshape(m * r, m * r)
    else:
        p = np.zeros((n, m, n, r))
        j = np.arange(n)
        p[j, :, j, :] = u
        hp = _hess_vec(prob, p.reshape(m * n, r * n))
        k = np.matmul(u.T, hp.reshape(n, m, r * n)).reshape(r * n, r * n)
    k.flat[::k.shape[0] + 1] += prob.mu
    return k


def _exact_block(prob: PenaltyProblem, d):
    """Whether a local-search block of d unknowns is solved exactly.

    True while P, the block's d columns of vec(U V), holds at most
    ``EXACT_BLOCK_MAX_ENTRIES`` entries (``prob.size * d``).  That one count
    caps P's memory (192 kB) and the work of ``H @ P`` and of its
    contraction with V or U^T.  It sits below the measured crossover with at
    most 10 CG steps: one block solve from a random start on ssr lifts from
    12 x 16 to 40 x 48 (2 cores, OpenBLAS at 1 thread, best of 15) favoured
    the exact solve up to 25,600 entries (16 x 20, d = 80: 131 against
    320 us) and CG from 27,648 (12 x 16, d = 144: 882 against 516 us).  On
    the desk lift (12 x 16) U is exact through rank 10 (d = 120) and V
    through rank 7 (d = 112).
    """
    return prob.size * d <= EXACT_BLOCK_MAX_ENTRIES


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
    """The block of U (side "u") or V that minimizes psi with the other held.

    psi is a strongly convex quadratic in the block.  ``lift`` is P, the map
    from the block into U V, and ``fold`` is P^T.  A small block
    (``_exact_block``) is solved from K = P^T H P + mu I (``_block_normal``)
    by one Cholesky factorization; any other by at most 10 steps of scipy's
    ``cg`` (``_block_cg``) warm started at the block, stopping once
    ``|r| <= 1e-5 max(1, |rhs|)``.  Neither input is modified.
    """
    if side == "u":
        block, lift, fold = u, (lambda b: b @ v), (lambda w: w @ v.T)
    else:
        block, lift, fold = v, (lambda b: u @ b), (lambda w: u.T @ w)
    rhs = fold(prob.adjoint_target)
    if _exact_block(prob, block.size):
        return _cholesky_solve(_block_normal(prob, u, v, side), rhs, block)
    m, n = prob.rows, prob.cols
    return _block_cg(lambda b: fold(unvec(_hess_vec(prob, vec(lift(b))), m, n))
                     + prob.mu * b, rhs, block)


def local_search(prob: PenaltyProblem, factors, psi, budget, rel_floor=1e-4):
    """Alternating ridge solves on U and V from factors at psi; returns both.

    ``psi`` is that of ``factors``: for the step candidate, the value
    ``StepModel.minimize`` returned.  Each sweep takes one ``_block_step`` on
    U, one on V with the new U, and one psi.  Every CG step started at the
    block lowers its quadratic, so a CG block that stops early still
    descends.  Never returns a point with psi above the given one beyond
    rounding; stops on the sweep budget, which a rank-0 pair skips, or a
    relative improvement below rel_floor.
    """
    u, v = factors.U, factors.V
    for _ in range(budget if factors.rank else 0):
        psi_sweep = psi
        u = _block_step(prob, u, v, "u")
        v = _block_step(prob, u, v, "v")
        psi = psi_value(prob, FactorPair(u, v))
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

    ``init`` defaults to the rank-one factorization of the all-ones matrix.
    Raises DivergedError (carrying the partial trace) if the objective goes
    non-finite.
    """
    if config is None:
        config = GcgConfig()
    config.validate()
    trace = SolveTrace()
    factors = init if init is not None else FactorPair.ones(prob.rows, prob.cols)
    if factors.shape != (prob.rows, prob.cols):
        raise ValueError("initializer shape does not match the problem")
    psi_prev = psi_value(prob, factors)
    if not np.isfinite(psi_prev):  # before the settle, whose SVD needs finite factors
        raise trace.diverged("non-finite objective at the initial point")
    factors, psi_prev, terms, nuclear, sigma = _settled(prob, factors, psi_prev,
                                                        config.recompress)
    phi_prev = smooth_terms_from(prob, *terms)[0] + prob.mu * nuclear

    for k in range(1, config.max_iter + 1):
        g = grad_f(prob, factors, terms)
        pair = top_singular_pair(-g)
        a, theta, psi_cand = step_model(prob, factors, pair.u, pair.v, terms).minimize()
        cand = _augment(factors.scaled(np.sqrt(a)), pair.u, pair.v, theta)
        cand, psi_cand = local_search(prob, cand, psi_cand, config.local_search_max_steps)
        if not np.isfinite(psi_cand):  # before the settle and the hold
            raise trace.diverged(f"non-finite objective at iteration {k}")
        settled = _settled(prob, cand, psi_cand, config.recompress)
        held = settled[1] > psi_prev + PSI_SLACK
        if held:
            theta = 0.0  # only rounding gets here; the row repeats the last one
        else:
            dx = np.linalg.norm(settled[2][0] - terms[0])  # |X_k - X_{k-1}|_F
            factors, psi_prev, terms, nuclear, sigma = settled

        if config.track_structured_rank:
            rank = structured_rank(prob, terms[0])
        else:
            rank = rank_estimate(factor_svd(factors)[1] if sigma is None else sigma)
        phi = trace.append(prob, smooth_terms_from(prob, *terms), nuclear,
                           psi=psi_prev, theta=theta, sigma_top=pair.sigma,
                           rank=rank, factor_rank=factors.rank)
        # a held step is not convergence, only zero motion
        reason = "" if held else config.stop_reason(dx, phi, phi_prev)
        phi_prev = phi
        if trace.stop(reason):
            break

    trace.finish()
    return factors, trace


def lam_stages(lam, growth=10.0, lam_max=100.0):
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
    # One solve_fn(stage, config, init=...) per lam_stages weight, each warm
    # started from the last; the terminal trace's wall_time_s covers all.
    result, trace = init, None
    total = 0.0
    for lam in lam_stages(prob.lam, config.lam_growth, config.lam_max):
        stage = replace(prob, lam=lam) if lam != prob.lam else prob
        result, trace = solve_fn(stage, config, init=result)
        total += trace.wall_time_s
    trace.wall_time_s = total
    return result, trace
