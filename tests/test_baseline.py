"""Proximal-gradient baseline: thresholding, Lipschitz bound, agreement."""

import numpy as np
import pytest
from dataclasses import asdict, replace
from functools import partial
from scipy.sparse.linalg import LinearOperator, eigsh

from slrm import apps, baseline, cli, objective
from slrm.baseline import (ApgConfig, _svt_with_values, lipschitz_estimate,
                           solve_apg, solve_apg_homotopy, svt)
from slrm.gcg import (DivergedError, GcgConfig, SolveTrace, _continuation, solve,
                      structured_rank)
from slrm.linalg import SparseMatrix, spmv, spmv_t, unvec, vec
from slrm.objective import (_grad_from, _hess_vec, affine_terms, assemble,
                            smooth_terms, smooth_terms_from)
from slrm.structure import hankel_spec

from conftest import (assorted_specs, dense_smooth_terms, observed_problems,
                      random_hankel_problem, spectral_test_matrices)


def test_apg_config_validation():
    ApgConfig().validate()
    with pytest.raises(ValueError):
        ApgConfig(max_iter=0).validate()
    with pytest.raises(ValueError):
        ApgConfig(tol_obj=-1.0).validate()
    with pytest.raises(ValueError):
        ApgConfig(lam_growth=0.0).validate()
    oracle = ApgConfig.oracle(123)
    assert oracle.max_iter == 123
    assert oracle.tol_x < 1e-100 and oracle.tol_obj < 1e-100


def test_svt_on_a_diagonal_matrix():
    x = np.diag([3.0, 1.0, 0.2])
    np.testing.assert_allclose(svt(x, 0.5), np.diag([2.5, 0.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(svt(np.zeros((2, 3)), 0.7), np.zeros((2, 3)))


@pytest.mark.parametrize("tau_share", [0.0, 0.3, 1.0, 1.5])
def test_svt_matches_the_full_svd_reference(rng, tau_share):
    # tau as a share of sigma_max: at 1.5 every value is thresholded away
    for name, x in spectral_test_matrices(rng).items():
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        top = float(s[0])
        tau = tau_share * top
        want = (u * np.maximum(s - tau, 0.0)) @ vt
        got, shrunk = _svt_with_values(x, tau)
        assert got.shape == x.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * top, err_msg=name)
        np.testing.assert_allclose(shrunk, np.maximum(s - tau, 0.0), rtol=0,
                                   atol=1e-12 * top, err_msg=name)
        assert np.array_equal(svt(x, tau), got), name
        if tau_share > 1.0:
            assert not np.any(got) and not np.any(shrunk), name


@pytest.mark.parametrize("seed", [3, 100])
def test_svt_matches_the_full_svd_on_apg_31_iterates(monkeypatch, seed):
    # every point the apg-31 benchmark thresholds (scs-31, 300 iterations),
    # against the dense SVD: the head's sigma from the Gram's eigenvalues,
    # and the tail's (below 1e-3 sigma_max) from its own route
    points = []

    def spy(z, tau):
        points.append((np.array(z), tau))
        return _svt_with_values(z, tau)

    monkeypatch.setattr(baseline, "_svt_with_values", spy)
    cfg = apps.ScsConfig(n1=31, n2=31, r=3, k1=6, k2=6, obs_fraction=0.4,
                         snr=10.0, seed=seed)
    prob = apps.scs_problem(cfg, apps.scs_generate(cfg), mu=0.1, lam=1.0)
    solve_apg(prob, ApgConfig.oracle(300))
    monkeypatch.undo()
    assert len(points) == 300
    tails = 0
    for i, (z, tau) in enumerate(points):
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        top = float(s[0])
        tails += bool(s[-1] < 1e-3 * top)
        want = np.maximum(s - tau, 0.0)
        got, shrunk = _svt_with_values(z, tau)
        np.testing.assert_allclose(got, (u * want) @ vt, rtol=0, atol=1e-12 * top,
                                   err_msg=f"step {i}")
        np.testing.assert_allclose(shrunk, want, rtol=0, atol=1e-12 * top,
                                   err_msg=f"step {i}")
    assert tails > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
def test_svt_rejects_nonfinite(bad, shape):
    x = np.ones(shape)
    x[1, 2] = bad
    with pytest.raises(ValueError):
        svt(x, 0.1)


@pytest.mark.parametrize("tau", [-1.0, np.nan])
def test_svt_rejects_a_negative_or_nan_tau(tau):
    # a negative tau would grow the singular values: svt(I, -1) = 2 I
    with pytest.raises(ValueError):
        svt(np.eye(3), tau)


def test_svt_is_the_nuclear_prox(rng):
    # prox objective at the candidate beats random perturbations
    z = rng.standard_normal((5, 4))
    tau = 0.6

    def prox_obj(x):
        return (0.5 * np.linalg.norm(x - z) ** 2
                + tau * np.linalg.svd(x, compute_uv=False).sum())

    x_star = svt(z, tau)
    base = prox_obj(x_star)
    for _ in range(25):
        delta = rng.standard_normal((5, 4))
        delta *= rng.uniform(1e-3, 0.3) / np.linalg.norm(delta)
        assert prox_obj(x_star + delta) >= base - 1e-12


def _dense_hessian_top(prob):
    ac = prob.AC.to_dense()
    bm = prob.B.to_dense()
    return np.linalg.eigvalsh(ac.T @ ac + prob.lam * bm.T @ bm)[-1]


@pytest.mark.parametrize("lam", [0.0, 0.8, 100.0])
def test_lipschitz_estimate_is_the_hessian_top_eigenvalue(rng, lam):
    # full, partial and empty selections on every kind of structure; the
    # absolute floor only matters where the Hessian is zero
    for name, spec in assorted_specs().items():
        n = spec.n_params
        partial = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        for idx in (np.arange(n), partial, np.empty(0, dtype=np.int64)):
            prob = assemble(spec, apps._selection_matrix(idx, n),
                            rng.standard_normal(idx.size), lam=lam, mu=0.3)
            np.testing.assert_allclose(
                lipschitz_estimate(prob), _dense_hessian_top(prob), rtol=1e-12,
                atol=1e-14, err_msg=f"{name}, {idx.size} of {n} observed")


def test_lipschitz_estimate_on_scs_31_matches_arpack():
    # scs 31x31 (lift 36x676): too large for a dense eigensolver
    cfg = apps.ScsConfig(n1=31, n2=31, r=3, k1=6, k2=6, obs_fraction=0.4,
                         snr=10.0, seed=3)
    prob = apps.scs_problem(cfg, apps.scs_generate(cfg), mu=0.1)
    hess = LinearOperator((prob.size, prob.size), dtype=float,
                          matvec=lambda x: _hess_vec(prob, x))
    top = float(eigsh(hess, k=1, return_eigenvectors=False)[0])
    assert lipschitz_estimate(prob) == pytest.approx(top, rel=1e-12)


def test_lipschitz_estimate_bounds_a_weighted_observation(rng):
    # two random weights per observed row: the data block's norm product is
    # an upper bound, no longer exact
    spec = hankel_spec(4, 5)
    n_obs, n = 6, spec.n_params
    cols = np.concatenate([np.sort(rng.choice(n, size=2, replace=False))
                           for _ in range(n_obs)])
    obs = SparseMatrix((rng.standard_normal(2 * n_obs),
                        (np.repeat(np.arange(n_obs), 2), cols)), shape=(n_obs, n))
    for lam in (0.0, 0.8, 100.0):
        prob = assemble(spec, obs, rng.standard_normal(n_obs), lam=lam, mu=0.3)
        assert lipschitz_estimate(prob) >= _dense_hessian_top(prob) * (1.0 - 1e-12)


def test_apg_without_data_or_structure_weight_takes_unit_steps():
    # no observed entries and lam = 0: the Hessian is zero, the closed
    # form reads lambda_max = 0, and solve_apg falls back to step 1
    spec = hankel_spec(3, 4)
    prob = assemble(spec, apps._selection_matrix([], spec.n_params),
                    np.zeros(0), lam=0.0, mu=0.3)
    assert lipschitz_estimate(prob) == 0.0
    _, trace = solve_apg(prob, ApgConfig(max_iter=5))
    assert len(trace.records) >= 1
    for name in ("phi", "f_smooth", "square_loss", "psi", "sigma_top"):
        assert np.all(np.isfinite(trace.column(name))), name
    # with step 1 the first prox lowers the all-ones start's single
    # singular value sqrt(M N) by exactly mu
    first = trace.records[0]
    assert first.sigma_top == pytest.approx(np.sqrt(prob.size) - prob.mu, rel=1e-12)
    assert first.phi == pytest.approx(prob.mu * first.sigma_top, rel=1e-12)


def test_apg_descends_and_is_deterministic(rng):
    prob = random_hankel_problem(rng, j=4, k=5, mu=0.2)
    x1, tr1 = solve_apg(prob, ApgConfig(max_iter=60))
    x2, tr2 = solve_apg(prob, ApgConfig(max_iter=60))
    np.testing.assert_array_equal(x1, x2)
    assert [r.phi for r in tr1.records] == [r.phi for r in tr2.records]
    phis = tr1.column("phi")
    assert phis[-1] < phis[0]
    f, sq, _ = smooth_terms(prob, vec(x1))
    assert tr1.records[-1].square_loss == pytest.approx(sq)


def test_apg_oracle_runs_the_full_budget(rng):
    prob = random_hankel_problem(rng, j=3, k=3, mu=0.3)
    _, trace = solve_apg(prob, ApgConfig.oracle(40))
    assert len(trace.records) == 40
    assert trace.converged_reason == "max_iter"


def test_apg_agrees_with_the_factored_solver(rng):
    # two very different algorithms on the same convex objective
    prob = random_hankel_problem(rng, j=4, k=5, lam=1.0, mu=0.3)
    _, apg = solve_apg(prob, ApgConfig.oracle(3000))
    _, gcg = solve(prob, GcgConfig(max_iter=60, tol_x=1e-9, tol_obj=1e-9, seed=0))
    ref = apg.records[-1].phi
    assert abs(gcg.records[-1].phi - ref) <= 5e-3 * abs(ref)


def test_apg_rejects_bad_init(rng):
    prob = random_hankel_problem(rng, j=3, k=3)
    with pytest.raises(ValueError):
        solve_apg(prob, init=np.zeros((2, 2)))
    # 1.7e308 is finite, but its gradient step overflows before the prox
    for big in (1e200, 1e300, 1.7e308):
        with np.errstate(all="ignore"), pytest.raises(DivergedError) as exc:
            solve_apg(prob, init=np.full((3, 3), big))
        assert exc.value.trace.converged_reason == "diverged", big
        assert exc.value.trace.wall_time_s > 0.0, big


class _NumpyWrites:
    """numpy as baseline sees it, keeping every array baseline allocates
    with ``empty_like`` or writes through a ufunc's ``out``."""

    def __init__(self):
        self.written = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name != "empty_like" and not isinstance(fn, np.ufunc):
            return fn

        def spied(*args, **kw):
            result = fn(*args, **kw)
            self.written.append(result if name == "empty_like" else kw.get("out"))
            return result
        return spied


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_apg_buffers_share_no_memory_with_its_results(rng, monkeypatch, lam):
    # solve_apg writes z and the x_pen pair into three buffers it reuses
    # every iteration (a step whose exact norm is needed is formed in z):
    # init is never written, and the returned iterate and warm start share
    # no memory with any array the loop writes, so a second solve of the
    # same problem leaves them as they were
    spy = _NumpyWrites()
    monkeypatch.setattr(baseline, "np", spy)
    for name, prob in observed_problems(rng, lam):
        init = rng.standard_normal((prob.rows, prob.cols))
        kept = init.copy()
        spy.written.clear()
        x, trace = solve_apg(prob, ApgConfig(max_iter=30), init=init)
        written = [a for a in spy.written if isinstance(a, np.ndarray)]
        assert sum(a.shape == init.shape for a in written) >= 4, name
        assert len({id(a) for a in written if a.shape == init.shape}) == 3, name
        for a in written:
            for got in (x, trace.warm_start, init):
                assert not np.shares_memory(got, a), name
        first = x.copy()
        again, _ = solve_apg(prob, ApgConfig(max_iter=30), init=init)
        for got in (x, trace.warm_start, again):
            np.testing.assert_array_equal(got, first, err_msg=name)
        np.testing.assert_array_equal(init, kept, err_msg=name)


def test_apg_homotopy_matches_manual_stages(rng, monkeypatch):
    prob = random_hankel_problem(rng, j=3, k=4, lam=1.0, mu=0.2)
    cfg = ApgConfig(max_iter=50, lam_growth=10.0, lam_max=100.0)
    stage_times = []

    def timed_solve(*args, **kwargs):
        x, trace = solve_apg(*args, **kwargs)
        stage_times.append(trace.wall_time_s)
        return x, trace

    monkeypatch.setattr(baseline, "solve_apg", timed_solve)
    x_h, tr_h = solve_apg_homotopy(prob, cfg)
    monkeypatch.undo()
    x_m = None
    for lam in (1.0, 10.0, 100.0):
        x_m, tr_m = solve_apg(replace(prob, lam=lam), cfg, init=x_m)
    np.testing.assert_array_equal(x_h, x_m)
    assert [r.phi for r in tr_h.records] == [r.phi for r in tr_m.records]
    # wall_time_s covers all three stages: their times, added in stage order
    assert len(stage_times) == 3
    total = 0.0
    for t in stage_times:
        total += t
    assert tr_h.wall_time_s == total


def test_trace_schema_matches_factored_solver(rng):
    prob = random_hankel_problem(rng, j=3, k=3, mu=0.4)
    _, trace = solve_apg(prob, ApgConfig(max_iter=5))
    rec = trace.records[0]
    assert rec.psi == rec.phi          # no surrogate gap for a dense iterate
    assert rec.theta == 0.0
    assert rec.sigma_top >= 0.0


def test_row_times_rise_to_at_most_the_wall_time(rng):
    prob = random_hankel_problem(rng, j=4, k=5, mu=0.3)
    gcg_cfg = GcgConfig(max_iter=15, tol_x=1e-12, tol_obj=1e-12)
    for run in (lambda: solve(prob, gcg_cfg),
                lambda: solve_apg(prob, ApgConfig.oracle(15))):
        _, trace = run()
        t = trace.column("time_s")
        assert t.size > 1 and np.all(np.diff(t) >= 0.0)
        assert 0.0 < t[0] and t[-1] <= trace.wall_time_s


def test_apg_reads_the_structured_rank_once(monkeypatch, tmp_path):
    # the rank is a read-out of the returned iterate, not part of an
    # iteration: one call per solve_apg, so one per continuation stage
    cfg = apps.SsrConfig(n=2, r=2, j=6, k=8, T=2000, sigma=0.05, seed=7)
    prob = apps.ssr_problem(cfg, apps.ssr_generate(cfg), mu=0.1, lam=1.0)
    calls = []

    def spy(p, x):
        calls.append(x)
        return structured_rank(p, x)

    monkeypatch.setattr(baseline, "structured_rank", spy)
    x, trace = solve_apg_homotopy(prob, ApgConfig.oracle(40))
    assert len(calls) == 3                     # lam = 1, 10, 100
    np.testing.assert_array_equal(calls[-1], vec(x))
    assert trace.records[-1].rank == structured_rank(prob, vec(x))
    assert trace.records[-1].rank > 0
    cli._write_trace(tmp_path / "trace.csv", trace)
    header, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    col = header.split(",").index("rank")
    ranks = [row.split(",")[col] for row in rows]
    assert ranks == ["-1"] * 39 + [str(trace.records[-1].rank)]


def _spy_iterates(monkeypatch):
    # every iterate solve_apg thresholds, in order
    iterates = []

    def spy(z, tau):
        out = _svt_with_values(z, tau)
        iterates.append(out[0].copy())
        return out

    monkeypatch.setattr(baseline, "_svt_with_values", spy)
    return iterates


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_apg_makes_three_sparse_products_per_iteration(rng, monkeypatch, lam):
    # the residuals of the accepted iterates are carried: one AC^T, one AC
    # and one Gram product per step, after one AC and one Gram at x_0, and
    # no product with B itself
    calls = []
    for module, kind, fn in ((objective, "spmv", spmv), (objective, "spmv_t", spmv_t),
                             (baseline, "spmv_t", spmv_t)):
        monkeypatch.setattr(module, kind,
                            lambda a, x, kind=kind, fn=fn: calls.append((kind, a)) or fn(a, x))
    for name, prob in observed_problems(rng, lam):
        calls.clear()
        _, trace = solve_apg(prob, ApgConfig.oracle(7))
        ac, gram = prob.AC, prob.B.gram
        step = [("spmv_t", ac), ("spmv", ac), ("spmv", gram)]
        want = [("spmv", ac), ("spmv", gram)] + len(trace.records) * step
        assert len(calls) == len(want), name
        assert all(k == wk and a is wa for (k, a), (wk, wa) in zip(calls, want)), name


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_apg_rows_match_smooth_terms_at_their_iterates(rng, monkeypatch, lam):
    iterates = _spy_iterates(monkeypatch)
    for name, prob in observed_problems(rng, lam):
        iterates.clear()
        _, trace = solve_apg(prob, ApgConfig.oracle(25))
        assert len(iterates) == len(trace.records), name
        for x, row in zip(iterates, trace.records):
            f, sq, _ = dense_smooth_terms(prob, vec(x))
            phi = f + prob.mu * np.linalg.svd(x, compute_uv=False).sum()
            got = (row.f_smooth, row.square_loss, row.phi)
            np.testing.assert_allclose(got, (f, sq, phi), rtol=1e-12, atol=0,
                                       err_msg=f"{name}, row {row.iteration}")


def _dense_phi(prob, x):
    return (dense_smooth_terms(prob, vec(x))[0]
            + prob.mu * np.linalg.svd(x, compute_uv=False).sum())


def _direct_gradient_apg(prob, iters, restart=True):
    # FISTA with the gradient taken at every extrapolated point y; with
    # restart, the momentum resets when the dense phi of an iterate rises
    lip = lipschitz_estimate(prob)
    step = 1.0 / lip if lip > 0.0 else 1.0
    x_prev = np.ones((prob.rows, prob.cols))
    y, t_mom, phi_prev, out = x_prev, 1.0, None, []
    for _ in range(iters):
        grad = _grad_from(prob, *affine_terms(prob, vec(y)))
        z = y - step * unvec(grad, prob.rows, prob.cols)
        x_new = svt(z, prob.mu * step)
        phi = _dense_phi(prob, x_new)
        if restart and phi_prev is not None and phi > phi_prev:
            t_mom = 1.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x_new + ((t_mom - 1.0) / t_new) * (x_new - x_prev)
        x_prev, t_mom, phi_prev = x_new, t_new, phi
        out.append(x_new)
    return out


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_apg_iterates_match_a_direct_gradient_loop(rng, monkeypatch, lam):
    iterates = _spy_iterates(monkeypatch)
    # the oracle's stop rule still fires where phi stops moving exactly
    monkeypatch.setattr(ApgConfig, "stop_reason", lambda self, *args: "")
    for name, prob in observed_problems(rng, lam):
        want = _direct_gradient_apg(prob, 60)
        iterates.clear()
        x, _ = solve_apg(prob, ApgConfig(max_iter=60))
        assert len(iterates) == 60, name
        for k, (got, ref) in enumerate(zip(iterates, want), 1):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10,
                                       err_msg=f"{name}, iterate {k}")
        np.testing.assert_array_equal(x, iterates[-1])


def _phi_rises(trace):
    # rows (counted from 1) whose phi is above the previous row's
    return [k for k in range(2, len(trace.records) + 1)
            if trace.records[k - 1].phi > trace.records[k - 2].phi]


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_apg_iterates_match_plain_fista_up_to_the_first_rise(rng, monkeypatch, lam):
    # plain FISTA's momentum until phi first rises; the next iterate is
    # where the restart departs from it
    iterates = _spy_iterates(monkeypatch)
    monkeypatch.setattr(ApgConfig, "stop_reason", lambda self, *args: "")
    departed = 0
    for name, prob in observed_problems(rng, lam):
        want = _direct_gradient_apg(prob, 60, restart=False)
        iterates.clear()
        _, trace = solve_apg(prob, ApgConfig(max_iter=60))
        rises = _phi_rises(trace)
        first = rises[0] if rises else 60
        for k in range(1, first + 1):
            np.testing.assert_allclose(iterates[k - 1], want[k - 1], rtol=0, atol=1e-10,
                                       err_msg=f"{name}, iterate {k}")
        if first < 60:
            departed += 1
            assert np.abs(iterates[first] - want[first]).max() > 1e-10, name
    assert departed > 0


def _scs_31_apg_problem():
    # the apg-31 benchmark workload's first instance
    cfg = apps.ScsConfig(n1=31, n2=31, r=3, k1=6, k2=6, obs_fraction=0.4,
                         snr=10.0, seed=3)
    return "scs-31 seed 3", apps.scs_problem(cfg, apps.scs_generate(cfg), mu=0.1,
                                             lam=1.0)


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_a_rise_in_phi_is_followed_by_a_prox_gradient_step(rng, monkeypatch, lam):
    # the restart zeroes the momentum, so the step after a rise is the
    # prox-gradient step from the risen iterate; with step 1/L, L >= the
    # Hessian's lambda_max, that step does not raise phi
    iterates = _spy_iterates(monkeypatch)
    problems = list(observed_problems(rng, lam))
    if lam:  # the apg-31 instance once, at its own lam = 1 (restarts at row 213)
        problems.append(_scs_31_apg_problem())
    restarts = 0
    for name, prob in problems:
        iterates.clear()
        _, trace = solve_apg(prob, ApgConfig.oracle(300))
        step = 1.0 / lipschitz_estimate(prob)
        for k in _phi_rises(trace):
            if k == len(trace.records):
                continue
            restarts += 1
            risen, after = trace.records[k - 1].phi, trace.records[k].phi
            assert after <= risen + 1e-12 * abs(risen), f"{name}, row {k + 1}"
            x_k = iterates[k - 1]
            grad = unvec(_grad_from(prob, *affine_terms(prob, vec(x_k))),
                         prob.rows, prob.cols)
            want = svt(x_k - step * grad, prob.mu * step)
            scale = max(1.0, np.abs(want).max())
            np.testing.assert_allclose(iterates[k], want, rtol=0, atol=1e-10 * scale,
                                       err_msg=f"{name}, iterate {k + 1}")
        if name.startswith("scs-31"):
            assert _phi_rises(trace), name
    assert restarts > 0


def test_an_oracle_stage_stops_on_tol_obj_when_phi_repeats(rng):
    # tol_obj = 1e-300 fires only on a relative change below 1e-300, that
    # is when phi repeats bit for bit
    stopped = 0
    for lam in (0.0, 1.3):
        for name, prob in observed_problems(rng, lam):
            _, trace = solve_apg(prob, ApgConfig.oracle(300))
            if trace.converged_reason == "tol_obj":
                stopped += 1
                assert trace.records[-1].phi == trace.records[-2].phi, name
    assert stopped > 0


def _exact_step_apg(prob, config, init=None, *, steps):
    # solve_apg's loop with no step bound: the same arithmetic on the same
    # F-order buffers, and stop_reason given the exact |x_k - x_{k-1}|_F on
    # every step (appended to steps)
    trace = SolveTrace()
    lip = lipschitz_estimate(prob)
    step = 1.0 / lip if lip > 0.0 else 1.0
    tau = prob.mu * step
    x_prev = np.ones((prob.rows, prob.cols)) if init is None else init
    z, x_pen, x_pen_prev, step_x = (np.empty_like(x_prev, order="F") for _ in range(4))

    def penalty_step(x, gram_x, out):
        np.multiply(unvec(gram_x, prob.rows, prob.cols), step * prob.lam, out=out)
        np.subtract(x, out, out=out)

    resid, gram_x = affine_terms(prob, vec(x_prev))
    penalty_step(x_prev, gram_x, x_pen)
    x_pen_prev[...] = x_pen
    resid_prev, beta, t_mom, phi_prev = resid, 0.0, 1.0, None
    for _ in range(config.max_iter):
        resid_y = resid + beta * (resid - resid_prev)
        np.subtract(x_pen, x_pen_prev, out=z)
        z *= beta
        z += x_pen
        z -= unvec(spmv_t(prob.AC, step * resid_y), prob.rows, prob.cols)
        x_new, s_vals = _svt_with_values(z, tau)
        x = vec(x_new)
        resid_prev, x_pen_prev, x_pen = resid, x_pen, x_pen_prev
        resid, gram_x = affine_terms(prob, x)
        penalty_step(x_new, gram_x, x_pen)
        phi = trace.append(prob, smooth_terms_from(prob, x, resid, gram_x),
                           float(s_vals.sum()), theta=0.0, sigma_top=float(s_vals[0]),
                           rank=-1, factor_rank=int(np.sum(s_vals > 0.0)))
        if phi_prev is not None and phi > phi_prev:
            t_mom = 1.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_new
        np.subtract(x_new, x_prev, out=step_x)
        steps.append(float(np.linalg.norm(step_x)))
        reason = config.stop_reason(steps[-1], phi, phi_prev)
        x_prev, t_mom, phi_prev = x_new, t_new, phi
        if trace.stop(reason):
            break
    trace.records[-1].rank = structured_rank(prob, vec(x_prev))
    trace.warm_start = x_prev
    trace.finish()
    return x_prev, trace


def _spy_stop_steps(monkeypatch):
    # every dx solve_apg hands to stop_reason, in order
    steps = []
    stop_reason = ApgConfig.stop_reason

    def spy(self, dx, phi, phi_prev):
        steps.append(dx)
        return stop_reason(self, dx, phi, phi_prev)

    monkeypatch.setattr(ApgConfig, "stop_reason", spy)
    return steps


def _rows(trace):
    return [{k: v for k, v in asdict(r).items() if k != "time_s"}
            for r in trace.records]


def _assert_same_run(got, want, dxs, exact, tol_x, name):
    # the same iterates, rows and stop reason; each dx stop_reason received
    # is the exact step, or a lower bound on it that lies above tol_x
    (x, trace), (x_ref, ref) = got, want
    np.testing.assert_array_equal(x, x_ref, err_msg=name)
    np.testing.assert_array_equal(trace.warm_start, ref.warm_start, err_msg=name)
    assert _rows(trace) == _rows(ref), name
    assert trace.converged_reason == ref.converged_reason, name
    assert len(dxs) == len(exact), name
    for k, (dx, ex) in enumerate(zip(dxs, exact), 1):
        assert dx == ex or tol_x < dx <= ex, f"{name}, step {k}: {dx} vs {ex}"


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_apg_stops_as_the_exact_step_loop_does(rng, monkeypatch, lam):
    # at ApgConfig(), and at a tol_x set to the median exact step of a first
    # run, so that steps fall on both sides of it
    bounded = fallbacks = 0
    for name, prob in observed_problems(rng, lam):
        first = []
        _exact_step_apg(prob, ApgConfig.oracle(60), steps=first)
        median = replace(ApgConfig.oracle(60), tol_x=float(np.median(first)))
        for cfg in (ApgConfig(), median):
            exact = []
            want = _exact_step_apg(prob, cfg, steps=exact)
            dxs = _spy_stop_steps(monkeypatch)
            got = solve_apg(prob, cfg)
            monkeypatch.undo()
            _assert_same_run(got, want, dxs, exact, cfg.tol_x, name)
            bounded += sum(dx < ex for dx, ex in zip(dxs, exact))
            fallbacks += sum(dx == ex for dx, ex in zip(dxs[1:], exact[1:]))
    assert bounded > 0 and fallbacks > 0


def test_apg_homotopy_stops_as_the_exact_step_loop_does(rng, monkeypatch):
    # each warm-started stage's first step takes the exact norm again
    prob = random_hankel_problem(rng, j=4, k=5, lam=1.0, mu=0.2)
    cfg = ApgConfig(max_iter=80, lam_growth=10.0, lam_max=100.0)
    exact = []
    want = _continuation(partial(_exact_step_apg, steps=exact), prob, cfg, None)
    dxs = _spy_stop_steps(monkeypatch)
    got = solve_apg_homotopy(prob, cfg)
    _assert_same_run(got, want, dxs, exact, cfg.tol_x, "homotopy")


def test_apg_31_stops_as_the_exact_step_loop_does(monkeypatch):
    name, prob = _scs_31_apg_problem()
    cfg = ApgConfig.oracle(300)
    exact = []
    want = _exact_step_apg(prob, cfg, steps=exact)
    dxs = _spy_stop_steps(monkeypatch)
    got = solve_apg(prob, cfg)
    _assert_same_run(got, want, dxs, exact, cfg.tol_x, name)
    assert len(dxs) == 300


def _step_bound(a, b, tau_a, tau_b, size):
    # |s_a - s_b|_2 less both margins: solve_apg's lower bound on |X_a - X_b|_F
    (_, s_a), (_, s_b) = a, b
    margin = baseline.VALUES_MARGIN * np.sqrt(size)
    return (np.linalg.norm(s_a - s_b) - margin * (s_a[0] + tau_a)
            - margin * (s_b[0] + tau_b))


def _graded(rng, shape, rank=None, decades=8.0):
    # a random matrix with singular values graded over `decades` decades
    k = min(shape) if rank is None else rank
    u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    return (u * np.logspace(0.0, -decades, k)) @ v.T


@pytest.mark.parametrize("exponent", [0, 150, -150])
def test_the_shrunk_values_bound_the_step_from_below(rng, exponent):
    # pairs of thresholds a scaling or a random perturbation apart, graded
    # full-rank spectra and low-rank inputs (the tail route), rescaled by
    # 2^exponent; a scaling by 1 + eps moves X by exactly |s_a - s_b|
    scale = 2.0 ** exponent
    cases = {f"graded {shape}": _graded(rng, shape)
             for shape in ((36, 676), (676, 36), (12, 16), (7, 19))}
    cases.update({f"rank {r} {shape}": _graded(rng, shape, rank=r, decades=1.0)
                  for shape, r in (((12, 16), 2), ((36, 676), 3), ((19, 7), 1))})
    positive = 0
    for name, z in cases.items():
        z = z * scale
        for tau_share in (0.0, 1e-3, 0.3):
            tau = tau_share * scale
            a = _svt_with_values(z, tau)
            for eps in (1e-3, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12):
                noise = rng.standard_normal(z.shape)
                noise *= eps * np.linalg.norm(z) / np.linalg.norm(noise)
                for z_b in (z * (1.0 + eps), z + noise):
                    b = _svt_with_values(z_b, tau)
                    bound = _step_bound(a, b, tau, tau, z.size)
                    step = np.linalg.norm(a[0] - b[0])
                    assert bound <= step, f"{name}, tau {tau_share}, eps {eps}"
                    positive += bound > 0.0
    assert positive > 0


def test_the_shrunk_values_bound_apg_31_steps_from_below(monkeypatch):
    # consecutive thresholds of the apg-31 instance, 300 iterations
    outs = []

    def spy(z, tau):
        out = _svt_with_values(z, tau)
        outs.append((out[0].copy(), out[1].copy()))
        return out

    monkeypatch.setattr(baseline, "_svt_with_values", spy)
    _, prob = _scs_31_apg_problem()
    solve_apg(prob, ApgConfig.oracle(300))
    tau = prob.mu / lipschitz_estimate(prob)
    for k in range(1, len(outs)):
        bound = _step_bound(outs[k], outs[k - 1], tau, tau, prob.size)
        step = np.linalg.norm(outs[k][0] - outs[k - 1][0])
        assert 0.0 < bound <= step, f"step {k + 1}"


def test_apg_31_forms_the_exact_step_once_per_solve(monkeypatch):
    # only the first step, from x_0 (no threshold output), is formed: every
    # later bound clears the oracle's tol_x
    calls = []
    step_norm = baseline._step_norm

    def spy(x_new, x_prev, out):
        calls.append(x_prev)
        return step_norm(x_new, x_prev, out)

    monkeypatch.setattr(baseline, "_step_norm", spy)
    _, prob = _scs_31_apg_problem()
    init = np.ones((prob.rows, prob.cols))
    _, trace = solve_apg(prob, ApgConfig.oracle(300), init=init)
    assert len(trace.records) == 300
    assert len(calls) == 1 and calls[0] is init
