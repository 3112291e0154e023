"""Conditional-gradient solver over factored low-rank iterates.

Each iteration linearizes the smooth part, takes the leading singular pair
of the negated gradient as the new rank-one atom, combines it with the
shrunk iterate through an exact line search on an upper model, and then
improves the factors by a few sweeps of alternating ridge solves.  Only
descent of the surrogate objective psi is ever required of the local
search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import spmv, top_singular_pair, unvec, vec
from .objective import (FactorPair, PenaltyProblem, _hess_vec,
                        factor_nuclear_norm, factor_svd, grad_f,
                        line_search_theta, phi_value, psi_value, smooth_terms)
from .structure import apply_structure

PSI_SLACK = 1e-12
CSV_HEADER = "iter,time_s,phi,f,sqloss,psi,theta,sigma_top,rank,factor_rank"


class DivergedError(RuntimeError):
    """Non-finite objective; carries the partial trace for post-mortems."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class GcgConfig:
    max_iter: int = 100
    tol_x: float = 1e-3            # stop when |X_k - X_{k-1}|_F drops below
    tol_obj: float = 1e-3          # stop on relative phi change
    local_search_max_steps: int = 5      # alternating sweeps per iteration
    local_search_rel_floor: float = 1e-4
    local_search_cg_iters: int = 10      # CG cap inside each block solve
    enforce_monotone_psi: bool = True
    lanczos_tol: float = 1e-8
    lanczos_max_iter: int = 500
    seed: int = 0
    track_structured_rank: bool = True   # rank column from Q(C x); else from sigma(UV)
    rank_threshold: float = 1e-3
    recompress_every: int = 10           # 0 disables factor re-compression
    recompress_tol: float = 1e-10
    # Continuation (solve_homotopy only): re-solve at geometrically growing
    # structure weights lam, lam*lam_growth, ... capped at lam_max, warm
    # starting each stage.  solve() itself always uses the problem's lam.
    lam_growth: float = 10.0
    lam_max: float = 100.0

    def validate(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol_x <= 0 or self.tol_obj <= 0:
            raise ValueError("tolerances must be positive")
        if self.local_search_max_steps < 0:
            raise ValueError("local search budget must be non-negative")
        if self.local_search_cg_iters < 1:
            raise ValueError("local_search_cg_iters must be at least 1")
        if self.lam_growth < 1.0:
            raise ValueError("lam_growth must be at least 1 (1 disables continuation)")


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
    records: list = field(default_factory=list)
    converged_reason: str = ""
    wall_time_s: float = 0.0

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self):
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(",".join([
                str(r.iteration),
                repr(float(r.time_s)),
                repr(float(r.phi)),
                repr(float(r.f_smooth)),
                repr(float(r.square_loss)),
                repr(float(r.psi)),
                repr(float(r.theta)),
                repr(float(r.sigma_top)),
                str(int(r.rank)),
                str(int(r.factor_rank)),
            ]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def summary(self, solver, seed):
        last = self.records[-1] if self.records else None
        return {
            "solver": solver,
            "iters": len(self.records),
            "final_phi": float(last.phi) if last else float("nan"),
            "final_sqloss": float(last.square_loss) if last else float("nan"),
            "final_rank": int(last.rank) if last else 0,
            "wall_time_s": float(self.wall_time_s),
            "converged_reason": self.converged_reason,
            "seed": int(seed),
        }


def rank_estimate(singular_values, threshold=1e-3, relative=False):
    """Number of singular values strictly above the threshold.

    The threshold is absolute by default; ``relative=True`` rescales it by
    the largest singular value instead.
    """
    s = np.asarray(singular_values, dtype=float)
    if relative and s.size:
        threshold = threshold * float(s.max())
    return int(np.sum(s > threshold))


def recover_y(prob: PenaltyProblem, factors: FactorPair):
    """Parameters C @ vec(U V), gathered entry-wise when the rank is small."""
    r = factors.rank
    n_y = prob.C.n_rows
    if r == 0:
        return np.zeros(n_y)
    if r <= 8 or prob.C.nnz * r <= prob.size:
        idx = prob.C.col_indices
        pos_r = idx % prob.rows
        pos_c = idx // prob.rows
        entries = np.einsum("nr,rn->n", factors.U[pos_r, :], factors.V[:, pos_c])
        row_ids = np.repeat(np.arange(n_y), np.diff(prob.C.row_offsets))
        return np.bincount(row_ids, weights=prob.C.values * entries, minlength=n_y)
    return spmv(prob.C, vec(factors.product()))


def structured_rank(prob: PenaltyProblem, factors: FactorPair, threshold=1e-3):
    """Rank of the structured matrix Q(C x) at the given threshold."""
    h = apply_structure(prob.spec, recover_y(prob, factors))
    return rank_estimate(np.linalg.svd(h, compute_uv=False), threshold)


def compress(factors: FactorPair, tol=1e-10):
    """Re-factor through the thin SVD, dropping singular values <= tol.

    The result is balanced, so its surrogate equals the nuclear norm.
    """
    left, s, right = factor_svd(factors)
    keep = s > tol
    if not np.any(keep):
        m, n = factors.shape
        return FactorPair.zeros(m, n)
    root = np.sqrt(s[keep])
    return FactorPair(left[:, keep] * root, root[:, None] * right[keep, :])


def _block_cg(apply_mat, rhs, x0, max_iter, tol=1e-10):
    """CG for an SPD block system, warm started at the current block.

    Started from the current factor block, every CG step decreases the
    block quadratic, i.e. psi; stopping early therefore never breaks the
    descent contract of the local search.
    """
    x = x0.copy()
    r = rhs - apply_mat(x)
    p = r.copy()
    rs = float(np.sum(r * r))
    floor = tol * max(1.0, float(np.sum(rhs * rhs)))
    for _ in range(max_iter):
        if rs <= floor:
            break
        ap = apply_mat(p)
        denom = float(np.sum(p * ap))
        if denom <= 0.0:
            break
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def local_search(prob: PenaltyProblem, u_init, v_init, budget,
                 rel_floor=1e-4, cg_iters=50, return_history=False):
    """Alternating ridge solves on U and V (block minimization of psi).

    With one factor held fixed psi is a strongly convex quadratic in the
    other, minimized by warm-started conjugate gradients.  Never returns a
    point with psi above the initializer; stops on the sweep budget, a
    vanishing block gradient, or a relative improvement below rel_floor.
    """
    u = np.array(u_init, dtype=float, copy=True)
    v = np.array(v_init, dtype=float, copy=True)
    factors = FactorPair(u, v)
    psi_cur = psi_value(prob, factors)
    history = [psi_cur]
    if budget <= 0 or factors.rank == 0:
        return (factors, history) if return_history else factors
    m, n = factors.shape
    rhs_full = prob.adjoint_target  # mat(AC^T b)
    gtol2 = (1e-10 * max(1.0, abs(psi_cur))) ** 2

    for _ in range(budget):
        psi_sweep = psi_cur
        for side in ("u", "v"):
            if side == "u":
                def apply_mat(ub, _v=v):
                    w = _hess_vec(prob, vec(ub @ _v))
                    return unvec(w, m, n) @ _v.T + prob.mu * ub

                rhs = rhs_full @ v.T
                grad = apply_mat(u) - rhs
                if float(np.sum(grad * grad)) > gtol2:
                    u = _block_cg(apply_mat, rhs, u, cg_iters)
            else:
                def apply_mat(vb, _u=u):
                    w = _hess_vec(prob, vec(_u @ vb))
                    return _u.T @ unvec(w, m, n) + prob.mu * vb

                rhs = u.T @ rhs_full
                grad = apply_mat(v) - rhs
                if float(np.sum(grad * grad)) > gtol2:
                    v = _block_cg(apply_mat, rhs, v, cg_iters)
            history.append(psi_value(prob, FactorPair(u, v)))
        psi_cur = history[-1]
        if psi_sweep - psi_cur <= rel_floor * max(1e-30, abs(psi_cur)):
            break
    out = FactorPair(u, v)
    if return_history:
        return out, history
    return out


def _augment(shrunk: FactorPair, z_u, z_v, theta):
    if theta > 0.0:
        u = np.hstack([shrunk.U, np.sqrt(theta) * z_u[:, None]])
        v = np.vstack([shrunk.V, np.sqrt(theta) * z_v[None, :]])
    else:
        u, v = shrunk.U, shrunk.V
    if u.shape[1]:
        # eta == 1 zeroes the old block; drop exactly-zero column/row pairs
        dead = np.all(u == 0.0, axis=0) & np.all(v == 0.0, axis=1)
        if np.any(dead):
            u = u[:, ~dead]
            v = v[~dead, :]
    return FactorPair(u, v)


def _frob_dist(a: FactorPair, b: FactorPair):
    # |UaVa - UbVb|_F via r x r Gram products
    taa = float(np.sum((a.U.T @ a.U) * (a.V @ a.V.T)))
    tbb = float(np.sum((b.U.T @ b.U) * (b.V @ b.V.T)))
    tab = float(np.sum((a.U.T @ b.U) * (a.V @ b.V.T)))
    return float(np.sqrt(max(0.0, taa + tbb - 2.0 * tab)))


def _iteration_seed(seed, k):
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(1)[0])


def solve(prob: PenaltyProblem, config: GcgConfig | None = None, init=None):
    """Run the conditional-gradient iteration; returns (factors, trace).

    ``init`` defaults to the rank-one factorization of the all-ones matrix.
    Raises DivergedError (carrying the partial trace) if the objective goes
    non-finite.
    """
    if config is None:
        config = GcgConfig()
    config.validate()
    t0 = time.perf_counter()
    factors = init if init is not None else FactorPair.ones(prob.rows, prob.cols)
    if factors.shape != (prob.rows, prob.cols):
        raise ValueError("initializer shape does not match the problem")
    trace = SolveTrace()
    psi_prev = psi_value(prob, factors)
    if not np.isfinite(psi_prev):  # checked before phi: its SVD needs finite factors
        raise DivergedError("non-finite objective at the initial point", trace)
    phi_prev = phi_value(prob, factors)
    trace.converged_reason = "max_iter"

    for k in range(1, config.max_iter + 1):
        g = grad_f(prob, factors)
        pair = top_singular_pair(-g, tol=config.lanczos_tol,
                                 max_iter=config.lanczos_max_iter,
                                 seed=_iteration_seed(config.seed, k))
        sigma_top = pair.sigma
        eta_base = 2.0 / (k + 1.0)

        accepted = None
        theta = 0.0
        for attempt in range(5):
            eta = eta_base * 0.5 ** attempt
            shrunk = factors.scaled(np.sqrt(1.0 - eta))
            theta, _ = line_search_theta(prob, shrunk, pair.u, pair.v, eta)
            cand = _augment(shrunk, pair.u, pair.v, theta)
            cand = local_search(prob, cand.U, cand.V,
                                budget=config.local_search_max_steps,
                                rel_floor=config.local_search_rel_floor,
                                cg_iters=config.local_search_cg_iters)
            psi_cand = psi_value(prob, cand)
            if not config.enforce_monotone_psi or psi_cand <= psi_prev + PSI_SLACK:
                accepted = (cand, psi_cand, theta)
                break
        held = accepted is None
        if held:
            # every damped eta still increased psi; hold the iterate this round
            accepted = (factors, psi_prev, 0.0)
        cand, psi_cand, theta = accepted
        if not np.isfinite(psi_cand):
            trace.wall_time_s = time.perf_counter() - t0
            raise DivergedError(f"non-finite objective at iteration {k}", trace)

        if (config.recompress_every and k % config.recompress_every == 0
                and cand.rank > 0):
            packed = compress(cand, config.recompress_tol)
            psi_packed = psi_value(prob, packed)
            if psi_packed <= psi_cand:
                cand, psi_cand = packed, psi_packed

        x = vec(cand.product())
        f_smooth, sqloss, _ = smooth_terms(prob, x)
        phi = f_smooth + prob.mu * factor_nuclear_norm(cand)
        if not np.isfinite(phi) or not np.isfinite(psi_cand):
            trace.wall_time_s = time.perf_counter() - t0
            raise DivergedError(f"non-finite objective at iteration {k}", trace)
        if config.track_structured_rank:
            rank = structured_rank(prob, cand, config.rank_threshold)
        else:
            rank = rank_estimate(factor_svd(cand)[1], config.rank_threshold)
        dx = _frob_dist(cand, factors)
        trace.records.append(TraceRecord(
            iteration=k,
            time_s=time.perf_counter() - t0,
            phi=phi,
            f_smooth=f_smooth,
            square_loss=sqloss,
            psi=psi_cand,
            theta=theta,
            sigma_top=sigma_top,
            rank=rank,
            factor_rank=cand.rank,
        ))
        denom = abs(min(phi, phi_prev))
        rel_obj = abs(phi - phi_prev) / denom if denom > 0 else abs(phi - phi_prev)
        factors, psi_prev, phi_prev = cand, psi_cand, phi
        if held:
            continue  # a rejected step is not convergence, only zero motion
        if dx < config.tol_x:
            trace.converged_reason = "tol_x"
            break
        if rel_obj < config.tol_obj:
            trace.converged_reason = "tol_obj"
            break

    trace.wall_time_s = time.perf_counter() - t0
    return factors, trace


def lam_stages(lam, growth=10.0, lam_max=100.0):
    """Geometric continuation weights from lam up to at most lam_max."""
    stages = [float(lam)]
    while growth > 1.0 and stages[-1] < lam_max:
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
