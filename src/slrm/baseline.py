"""Accelerated proximal gradient baseline with singular value thresholding.

Solves the same penalized objective as the conditional-gradient solver but
keeps a dense iterate and computes all of its singular values every
iteration, which is the cost profile the factored solver is meant to avoid.
The thresholding takes all singular values from one eigensolve of the k x k
Gram of the short side (k = min(M, N)) and never normalizes a right singular
vector; the step size comes in closed form from the problem data.  Each
accepted iterate is evaluated once, as its residual AC x - b and its Gram
term B^T B x: the trace row's f comes from them, with the penalty read as
<x, B^T B x>, and the gradient at the extrapolated point by linearity, so an
iteration makes three sparse products (AC, AC^T and B's Gram).  The
momentum restarts whenever phi rises (O'Donoghue & Candes, Found. Comput.
Math. 2015): FISTA's extrapolation overshoots near the optimum, and the row's
phi, already computed, decides the restart by one comparison.  With a long
iteration budget it doubles as the reference optimum for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcg import SolverConfig, SolveTrace, _continuation, structured_rank
from .linalg import short_side_svd, spmv_t, unvec, vec
from .objective import PenaltyProblem, affine_terms, smooth_terms_from
from .structure import constraint_gram_norm


@dataclass
class ApgConfig(SolverConfig):
    """Proximal-gradient settings: only the ones both solvers share.

    The step is 1 / ``lipschitz_estimate``, and the rank column is read once
    per solve (see ``solve_apg``).  APG draws nothing at random: ``seed``
    changes no result and is kept so one set of arguments fits both solvers.
    """

    @classmethod
    def oracle(cls, max_iter=5000, **kw):
        """Long run used as a phi* reference: tol_x = tol_obj = 1e-300.

        Stopping is not off.  tol_obj fires when phi repeats bit for bit
        (its relative change is then 0), and tol_x when the step is 0, so a
        run that reaches its floating-point fixed point ends there, before
        ``max_iter``.
        """
        return cls(max_iter=max_iter, tol_x=1e-300, tol_obj=1e-300, **kw)


def lipschitz_estimate(prob: PenaltyProblem):
    """Step-size bound L >= lambda_max of the Hessian, for the FISTA step 1/L.

    The averaging C confines AC^T AC to the structured image, which B
    annihilates, so the two Hessian blocks have orthogonal ranges and
    lambda_max is the larger of their top eigenvalues.  For the data block
    |AC|_1 |AC|_inf is exact when each observed row selects one parameter,
    and an upper bound, still a valid step, for any other observation map.
    """
    ac = abs(prob.AC.to_scipy())
    data = float(ac.sum(axis=0).max() * ac.sum(axis=1).max()) if ac.nnz else 0.0
    return max(data, prob.lam * constraint_gram_norm(prob.spec))


def svt(x, tau):
    """Proximal map of tau * |X|_* (tau >= 0): soft-threshold the singular values."""
    if not tau >= 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return _svt_with_values(x, tau)[0]


def _svt_with_values(x, tau):
    # Row i of w is sigma_i v_i^T, so scaling it by shrunk_i / sigma_i
    # thresholds it; no right singular vector is normalized.
    x = np.asarray(x, dtype=float)
    u, s, w = short_side_svd(x)
    shrunk = np.maximum(s - tau, 0.0)
    scale = np.divide(shrunk, s, out=np.zeros_like(s), where=shrunk > 0.0)
    out = w.T @ (u * scale).T  # transposed, so a wide result is column-major as vec reads it
    return (out.T if x.shape[0] <= x.shape[1] else out), shrunk


def solve_apg(prob: PenaltyProblem, config: ApgConfig | None = None, init=None):
    """Restarted FISTA on f + mu * nuclear norm; returns (dense X, trace).

    Each accepted iterate x_k, and x_0, is evaluated once by
    ``affine_terms``: r_k = AC x_k - b and q_k = B^T B x_k (one AC and one
    Gram product).  Its row's f is ``smooth_terms_from`` them, the penalty
    read as (lam/2) <x_k, q_k>.  The gradient at y = x_k + beta (x_k -
    x_{k-1}) is AC^T r_y + lam q_y, with r_y and q_y the same combination
    of the carried terms, so the step takes one AC^T product: three sparse
    products per iteration, none with B itself.  A B without rows has a
    zero Gram, and lam = 0 zeroes its term.

    Momentum restart: when a row's phi is above the previous row's, t is
    reset to 1 before the next momentum weight is taken, so beta = 0 and
    the next step is a plain prox-gradient step from x_k, which with step
    1/L, L >= lambda_max of the Hessian, does not raise phi.  The rule costs
    one comparison of values the trace computes anyway: no product and no
    evaluation.

    Rows go through the conditional-gradient ``SolveTrace.append``; here psi
    equals phi, theta is 0, sigma_top is the iterate's largest singular
    value, and factor_rank counts the singular values surviving the
    threshold.  The structured rank of Q(C x) (``structured_rank``) is a
    read-out, not part of the iteration: it is taken once, for the returned
    iterate, and stored on the final row; earlier rows read -1 (not read).
    """
    if config is None:
        config = ApgConfig()
    config.validate()
    trace = SolveTrace()
    lip = lipschitz_estimate(prob)
    if lip <= 0.0:
        lip = 1.0  # no curvature: any step works, prox does everything
    step = 1.0 / lip
    tau = prob.mu * step

    x_prev = np.asarray(init, dtype=float).copy() if init is not None \
        else np.ones((prob.rows, prob.cols))
    if x_prev.shape != (prob.rows, prob.cols):
        raise ValueError("initializer shape does not match the problem")
    # x_pen = x - step lam q, x moved by the penalty part of its gradient
    # step, extrapolates like x and q, so z = y - step grad f(y) is the
    # extrapolated x_pen less step AC^T r_y.
    resid, gram_x = affine_terms(prob, vec(x_prev))
    x_pen = x_prev - (step * prob.lam) * unvec(gram_x, prob.rows, prob.cols)
    resid_prev, x_pen_prev = resid, x_pen
    beta = 0.0
    t_mom = 1.0
    phi_prev = None

    for k in range(1, config.max_iter + 1):
        resid_y = resid + beta * (resid - resid_prev)
        z = x_pen + beta * (x_pen - x_pen_prev)
        z -= unvec(spmv_t(prob.AC, step * resid_y), prob.rows, prob.cols)
        try:
            x_new, s_vals = _svt_with_values(z, tau)
        except ValueError as exc:  # the prox rejects a non-finite gradient step
            raise trace.diverged(f"non-finite gradient step at iteration {k}") from exc
        step_x = x_new - x_prev

        x = vec(x_new)
        resid_prev, x_pen_prev = resid, x_pen
        resid, gram_x = affine_terms(prob, x)
        x_pen = x_new - (step * prob.lam) * unvec(gram_x, prob.rows, prob.cols)
        phi = trace.append(prob, smooth_terms_from(prob, x, resid, gram_x),
                           float(s_vals.sum()), theta=0.0,
                           sigma_top=float(s_vals[0]) if s_vals.size else 0.0,
                           rank=-1,  # not read; the final row's is set after the loop
                           factor_rank=int(np.sum(s_vals > 0.0)))
        if phi_prev is not None and phi > phi_prev:
            t_mom = 1.0  # restart: beta = 0, the next step is a prox step from x_k
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_new
        dx = float(np.linalg.norm(step_x))
        reason = config.stop_reason(dx, phi, phi_prev)  # no tol_obj at k = 1
        x_prev, t_mom, phi_prev = x_new, t_new, phi
        if trace.stop(reason):
            break

    trace.records[-1].rank = structured_rank(prob, vec(x_prev))
    trace.warm_start = x_prev
    trace.finish()
    return x_prev, trace


def solve_apg_homotopy(prob: PenaltyProblem, config: ApgConfig | None = None,
                       init=None):
    """Continuation twin of the conditional-gradient solve_homotopy.

    Solves at the same geometric weight stages, warm starting each stage
    with the previous dense iterate; returns the terminal stage's result
    and trace, with wall_time_s covering all stages.
    """
    if config is None:
        config = ApgConfig()
    return _continuation(solve_apg, prob, config, init)
