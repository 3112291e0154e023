"""The benchmark's workloads: instance set-up, the solver call, and output checks.

Every workload is a closed loop: one caller issues its next solve only after
the previous one returns.  Instance ``i`` of a run with workload seed ``s``
is generated from seed ``s + i``, so the default seeds reproduce the
instances the acceptance suite runs.  Calls into ``slrm`` go through module
attributes (``gcg.solve_homotopy``, not a name bound at import), so the
wrappers the tracer installs see them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from slrm import apps, baseline, gcg, structure

MU = 0.1
LAM = 1.0
PSI_RISE_MAX = 1e-12      # acceptance 08's bound on psi increases
ORDER_RANK_THRESHOLD = 1e-3

DESK_SSR = dict(n=2, r=2, j=6, k=8, T=2000, sigma=0.05)
SCS_31 = dict(n1=31, n2=31, r=3, k1=6, k2=6, obs_fraction=0.4, snr=10.0)
SCS_101 = dict(n1=101, n2=101, r=6, k1=8, k2=8, obs_fraction=0.2, snr=10.0)


@dataclass
class Instance:
    cfg: object
    data: object
    prob: object


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    instances: int         # instance set solved in every pass of a run
    why: str
    setup: Callable[[int], Instance]
    config: Callable[[int], object]   # solver config for an instance seed
    gcg: bool              # GCG solver (else APG); the psi check applies
    reference: str         # reference kernel that scales the timings
    rel_error_max: float | None = None   # output check on the scs grid error

    def solve(self, inst: Instance, cfg):
        """The timed call: one solver run on one instance, (iterate, trace)."""
        if self.gcg:
            return gcg.solve_homotopy(inst.prob, cfg)
        return baseline.solve_apg_homotopy(inst.prob, cfg)

    def check(self, inst: Instance, cfg, iterate, trace):
        """Quality figures of one solve and the list of its failed output checks."""
        records = trace.records
        if not records:
            return {}, ["empty trace"]
        phi = np.array([r.phi for r in records])
        psi = np.array([r.psi for r in records])
        failures = []
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
            failures.append("non-finite phi or psi")
        if self.gcg and psi.size > 1 and float(np.diff(psi).max()) > PSI_RISE_MAX:
            failures.append(f"psi rose by {float(np.diff(psi).max()):.3e}")
        x = iterate.U @ iterate.V if self.gcg else iterate
        lam_final = gcg.lam_stages(inst.prob.lam, cfg.lam_growth, cfg.lam_max)[-1]
        prob = replace(inst.prob, lam=lam_final)
        quality = {
            "final_phi": float(phi[-1]),
            "opt_ratio": gradient_ratio(prob, x),
            "factor_rank_max": int(max(r.factor_rank for r in records)) if self.gcg else 0,
        }
        y = prob.C.to_scipy() @ x.ravel(order="F")
        if isinstance(inst.cfg, apps.ScsConfig):
            grid = y.reshape(inst.cfg.n1, inst.cfg.n2, order="F")
            signal = inst.data.signal
            err = float(np.linalg.norm(grid - signal) / np.linalg.norm(signal))
            quality["rel_error"] = err
            if self.rel_error_max is not None and not err <= self.rel_error_max:
                failures.append(f"rel_error {err:.3f} above {self.rel_error_max}")
        else:
            s = np.linalg.svd(structure.apply_structure(prob.spec, y), compute_uv=False)
            quality["order_hit"] = int(np.sum(s > ORDER_RANK_THRESHOLD)) == inst.cfg.r
        return quality, failures


def _setup_ssr(seed):
    cfg = apps.SsrConfig(seed=seed, **DESK_SSR)
    data = apps.ssr_generate(cfg)
    return Instance(cfg, data, apps.ssr_problem(cfg, data, mu=MU, lam=LAM))


def _setup_scs(params, instance_seed=None):
    def setup(seed):
        cfg = apps.ScsConfig(seed=seed if instance_seed is None else instance_seed,
                             **params)
        data = apps.scs_generate(cfg)
        return Instance(cfg, data, apps.scs_problem(cfg, data, mu=MU, lam=LAM))
    return setup


WORKLOADS = {w.name: w for w in [
    Workload(
        "ssr-desk", 7, 40,
        "Desk ssr (lift 12x16), lambda ladder 1->10->100, default stop. Many "
        "tiny solves: call overhead, not data volume, sets the time.",
        _setup_ssr, lambda s: gcg.GcgConfig(seed=s), gcg=True, reference="python"),
    # Not in BENCHMARK.json: even with the instance fixed, its best-of-run
    # time moved 18% between runs on a shared 2-core VM.  Run it by name.
    # The instance is fixed because its 40 iterations cost 14k to 18k
    # local-search products depending on the instance seed; the workload
    # seed seeds the solver.
    Workload(
        "scs-31", 3, 1,
        "scs 31x31 seed 3 (lift 36x676), tol_obj=1e-6, capped at 40 iterations, "
        "which it reaches. Local search dominates and the factor rank passes the "
        "36 rows.",
        _setup_scs(SCS_31, instance_seed=3),
        lambda s: gcg.GcgConfig(seed=s, tol_obj=1e-6, max_iter=40, lam_growth=1.0),
        gcg=True, reference="sparse", rel_error_max=0.25),
    Workload(
        "apg-31", 3, 3,
        "APG/SVT on the scs-31 instance, stopping off, 300 iterations. The only "
        "workload that runs baseline.py and dense_svd.",
        _setup_scs(SCS_31),
        lambda s: baseline.ApgConfig.oracle(300, seed=s, lam_growth=1.0),
        gcg=False, reference="dense", rel_error_max=0.25),
    # Not in BENCHMARK.json: one solve takes about 100 s, more than a driven
    # run may spend.  Run it by name for the data-volume profile.
    Workload(
        "scs-101", 0, 1,
        "scs 101x101 (lift 64x8836), CLI defaults. The data-volume workload: "
        "local search is over 90% of the time.",
        _setup_scs(SCS_101), lambda s: gcg.GcgConfig(seed=s, lam_growth=1.0),
        gcg=True, reference="sparse", rel_error_max=0.5),
]}


def gradient_ratio(prob, x):
    """sigma_max(grad f(X)) / mu, from scipy products and a dense SVD.

    Computed independently of the solver; a value of at most 1 is the
    first-order optimality condition of f + mu * nuclear norm.
    """
    xv = x.ravel(order="F")
    ac, b = prob.AC.to_scipy(), prob.B.to_scipy()
    g = ac.T @ (ac @ xv - prob.target)
    if b.shape[0]:
        g = g + prob.lam * (b.T @ (b @ xv))
    sigma = np.linalg.svd(g.reshape(prob.rows, prob.cols, order="F"),
                          compute_uv=False)[0]
    return float(sigma / prob.mu)
