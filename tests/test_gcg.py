"""Conditional-gradient solver: atoms, local search, traces, continuation."""

import numpy as np
import pytest
from dataclasses import fields, replace

from slrm import apps, gcg, objective
from slrm.gcg import (PSI_SLACK, DivergedError, GcgConfig, SolveTrace,
                      TraceRecord, _augment, _block_cg, _settled, compress,
                      lam_stages, local_search, rank_estimate, recover_y,
                      solve, solve_homotopy, structured_rank)
from slrm.linalg import SparseMatrix, spmv, spmv_t, top_singular_pair, unvec, vec
from slrm.objective import (FactorPair, _iterate_terms, factor_svd, psi_value,
                            smooth_terms, step_model)

from conftest import dense_smooth_terms, observed_problems, random_hankel_problem


def _search(prob, u, v, budget, **kwargs):
    # local_search from the factors (u, v) at their own psi
    factors = FactorPair(u, v)
    return local_search(prob, factors, psi_value(prob, factors), budget, **kwargs)


def test_config_validation():
    GcgConfig().validate()
    with pytest.raises(ValueError):
        GcgConfig(max_iter=0).validate()
    with pytest.raises(ValueError):
        GcgConfig(tol_x=0.0).validate()
    with pytest.raises(ValueError):
        GcgConfig(local_search_max_steps=-1).validate()
    with pytest.raises(ValueError):
        GcgConfig(lam_growth=0.5).validate()
    for bad in (dict(lam_max=np.inf), dict(lam_max=np.nan), dict(lam_growth=np.nan),
                dict(tol_x=np.nan), dict(tol_obj=np.nan)):
        with pytest.raises(ValueError):
            GcgConfig(**bad).validate()


def test_rank_estimate_counts_strictly_above():
    s = np.array([2.0, 1e-3, 5e-4, 0.0])
    assert rank_estimate(s) == 1            # 1e-3 is not strictly above
    assert rank_estimate(s, 4e-4) == 3
    assert rank_estimate([], 1e-3) == 0


def test_recover_y_matches_sparse_product(rng):
    prob = random_hankel_problem(rng, j=4, k=5)
    for r in (0, 1, 3, 10):
        fac = (FactorPair.zeros(4, 5) if r == 0 else
               FactorPair(rng.standard_normal((4, r)), rng.standard_normal((r, 5))))
        want = prob.C.to_scipy() @ vec(fac.product())
        np.testing.assert_allclose(recover_y(prob, fac), want, atol=1e-12)


def test_structured_rank_on_an_exact_structure(rng):
    prob = random_hankel_problem(rng, j=4, k=4, mu=0.1)
    fac = FactorPair(np.ones((4, 1)), np.ones((1, 4)))  # constant Hankel, rank 1
    assert structured_rank(prob, vec(fac.product())) == 1
    assert structured_rank(prob, np.zeros(16)) == 0


def test_compress_preserves_product(rng):
    for r in (1, 4, 16):  # 16 exceeds both dimensions of a 6 x 4 matrix
        fac = FactorPair(rng.standard_normal((6, r)), rng.standard_normal((r, 4)))
        packed = compress(fac)
        np.testing.assert_allclose(packed.product(), fac.product(), atol=1e-10)
        assert packed.rank <= min(6, 4)
        # balanced factors: the surrogate collapses onto the nuclear norm
        nuc = np.linalg.svd(fac.product(), compute_uv=False).sum()
        assert packed.surrogate() == pytest.approx(nuc, abs=1e-9)
    zero = compress(FactorPair(np.zeros((3, 2)), np.zeros((2, 5))))
    assert zero.rank == 0 and zero.shape == (3, 5)


def test_local_search_descends_psi(rng, monkeypatch):
    # psi after every block that _block_step returns, spied on, never rises,
    # whether solved exactly (4 x 5 lift) or by CG (46 x 45); the search
    # returns its last value and leaves the given factors as they were
    blocks = []
    block_step = gcg._block_step

    def spied(*args):
        blocks.append(block_step(*args))
        return blocks[-1]

    monkeypatch.setattr(gcg, "_block_step", spied)
    for j, k, r in ((4, 5, 2), (46, 45, 1)):
        prob = random_hankel_problem(rng, j=j, k=k, lam=2.0, mu=0.4)
        u = rng.standard_normal((j, r))
        v = rng.standard_normal((r, k))
        blocks.clear()
        start = u.copy(), v.copy()
        out, psi = _search(prob, u, v, budget=6)
        for given, was in zip((u, v), start):  # the search copies neither input
            np.testing.assert_array_equal(given, was)
        history = [psi_value(prob, FactorPair(u, v))]
        for block in blocks:
            if block.shape == u.shape:
                u = block
            else:
                v = block
            history.append(psi_value(prob, FactorPair(u, v)))
        assert len(blocks) >= 4, (j, k)
        assert all(b <= a + 1e-10 for a, b in zip(history, history[1:])), (j, k)
        np.testing.assert_array_equal(out.product(), u @ v)
        assert psi == history[-1] == psi_value(prob, out)
        assert psi < history[0]  # random start leaves room to move


def test_local_search_respects_zero_budget(rng):
    # without a sweep the factors and the given psi come back as they are;
    # a rank-0 pair takes no sweep under any budget
    prob = random_hankel_problem(rng, j=3, k=3)
    u = rng.standard_normal((3, 2))
    v = rng.standard_normal((2, 3))
    out, psi = _search(prob, u, v, budget=0)
    np.testing.assert_array_equal(out.U, u)
    np.testing.assert_array_equal(out.V, v)
    assert psi == psi_value(prob, out)
    zero, psi = local_search(prob, FactorPair.zeros(3, 3), 1.25, budget=5)
    assert zero.rank == 0 and zero.shape == (3, 3) and psi == 1.25


def test_local_search_stops_at_the_improvement_floor(rng):
    # a restarted search finds only floor-sized improvements left over
    prob = random_hankel_problem(rng, j=4, k=4, lam=1.5, mu=0.3)
    u = rng.standard_normal((4, 2))
    v = rng.standard_normal((2, 4))
    out, _ = _search(prob, u, v, budget=30)
    again, _ = _search(prob, out.U, out.V, budget=30)
    drop = psi_value(prob, out) - psi_value(prob, again)
    assert drop >= -1e-12
    assert drop <= 3e-4 * (1 + abs(psi_value(prob, out)))
    # with the floor disabled it digs to block stationarity instead
    deep, _ = _search(prob, u, v, budget=300, rel_floor=1e-15)
    deeper, _ = _search(prob, deep.U, deep.V, budget=20, rel_floor=1e-15)
    assert psi_value(prob, deep) - psi_value(prob, deeper) <= 1e-9 * (
        1 + abs(psi_value(prob, deep)))
    # psi stops falling while the factors are still about sqrt(eps) from
    # block stationarity; every call sweeps at least once, so single sweeps
    # go on to it.  There each exact block solve returns its own block up to
    # rounding: psi does not rise and the factors barely move.
    for _ in range(200):
        deep, _ = _search(prob, deep.U, deep.V, budget=1)
    still, psi = _search(prob, deep.U, deep.V, budget=30)
    psi_deep = psi_value(prob, deep)
    assert psi - psi_deep <= 1e-12 * max(1.0, abs(psi_deep))
    for got, was in ((still.U, deep.U), (still.V, deep.V)):
        np.testing.assert_allclose(got, was, rtol=0, atol=1e-12 * np.abs(was).max())


@pytest.mark.parametrize("max_iter", [1, 3, 8])
def test_block_cg_makes_at_most_max_iter_applies(rng, max_iter):
    g = rng.standard_normal((8, 8))
    h = g @ g.T + 0.5 * np.eye(8)
    rhs = rng.standard_normal((8, 2))
    x0 = rng.standard_normal((8, 2))
    applies = 0

    def apply_mat(x):
        nonlocal applies
        applies += 1
        return h @ x

    start = x0.copy()
    x = _block_cg(apply_mat, rhs, x0, max_iter)
    assert applies <= max_iter + 1  # the start residual, then one per step
    np.testing.assert_array_equal(x0, start)  # the start block is not touched

    def quad(z):
        return 0.5 * float(np.sum(z * (h @ z))) - float(np.sum(rhs * z))

    assert quad(x) < quad(x0)
    if max_iter == 8:  # 8 steps solve each 8-dimensional column system
        np.testing.assert_allclose(x, np.linalg.solve(h, rhs), rtol=1e-8)


def test_cg_block_solves_above_the_size_cutoff(rng, monkeypatch):
    # A 2 x 7000 Hankel lift (14,000 entries) solves every block by scipy's
    # cg, even U with 2 unknowns: it lands on its normal-equation solution,
    # a block costs at most 11 Hessian applies (the first residual and 10
    # steps), and cg leaves the start block as it was.
    prob = random_hankel_problem(rng, j=2, k=7000, lam=1.3, frac=0.6)
    assert not gcg._exact_block(prob, 2)
    u = rng.standard_normal((2, 1))
    v = rng.standard_normal((1, 7000))
    applies, per_block, solutions = [0], [], []
    hess_vec, cg = gcg._hess_vec, gcg.cg

    def counted_hess_vec(*args):
        applies[0] += 1
        return hess_vec(*args)

    def spied_cg(op, rhs, x0, **kwargs):
        start, before = x0.copy(), applies[0]
        out = cg(op, rhs, x0=x0, **kwargs)
        np.testing.assert_array_equal(x0, start)
        per_block.append(applies[0] - before)
        solutions.append(out[0].copy())
        return out

    monkeypatch.setattr(gcg, "_hess_vec", counted_hess_vec)
    monkeypatch.setattr(gcg, "cg", spied_cg)
    _search(prob, u, v, budget=3, rel_floor=0.0)
    assert len(per_block) == 6 and max(per_block) <= 11
    assert sum(per_block) == applies[0]
    ac, b = prob.AC.to_scipy(), prob.B.to_scipy()
    p = np.kron(v.T, np.eye(2))
    k = p.T @ (ac.T @ (ac @ p) + prob.lam * (b.T @ (b @ p))) + prob.mu * np.eye(2)
    want = np.linalg.solve(k, p.T @ (ac.T @ prob.target))
    assert np.linalg.norm(solutions[0] - want) <= 1e-10 * np.linalg.norm(want)


def test_a_zero_step_drops_the_old_block(rng):
    # an iterate pointing away from the data: the step discards it whole
    prob = random_hankel_problem(rng, j=4, k=5, lam=0.7, mu=0.3)
    u, _, vt = np.linalg.svd(unvec(spmv_t(prob.AC, prob.target), 4, 5))
    fac = FactorPair(-2.0 * u[:, :2], vt[:2] * np.array([[1.0], [0.3]]))
    zu, zv = u[:, 0], vt[0]
    a, theta, psi = step_model(prob, fac, zu, zv).minimize()
    assert a == 0.0 and theta > 0.0
    cand = _augment(fac.scaled(np.sqrt(a)), zu, zv, theta)
    assert cand.rank == 1
    np.testing.assert_allclose(cand.product(), theta * np.outer(zu, zv), atol=1e-14)
    assert psi_value(prob, cand) == pytest.approx(psi, rel=1e-12)
    assert psi < psi_value(prob, fac)


def _desk_problem():
    cfg = apps.SsrConfig(n=2, r=2, j=6, k=8, T=2000, sigma=0.05, seed=7)
    return apps.ssr_problem(cfg, apps.ssr_generate(cfg), mu=0.1, lam=1.0)


def test_solve_runs_one_local_search_per_iteration_and_never_holds(monkeypatch):
    # The first _settled call packs the initializer; each later one returns
    # an iteration's candidate psi, which a hold would reject for rising past
    # the previous row's psi.  theta = 0 is no sign of a hold:
    # near sigma_top = mu it is the step model's own optimum.
    prob = _desk_problem()
    calls = []
    packed_psi = []

    def counted(*args, **kwargs):
        calls.append(1)
        return local_search(*args, **kwargs)

    def spied(*args, **kwargs):
        out = _settled(*args, **kwargs)
        packed_psi.append(out[1])
        return out

    monkeypatch.setattr(gcg, "local_search", counted)
    monkeypatch.setattr(gcg, "_settled", spied)
    for cfg in (GcgConfig(seed=7), GcgConfig(seed=7, max_iter=30, tol_obj=1e-300,
                                             tol_x=1e-300)):
        calls.clear()
        packed_psi.clear()
        _, trace = solve(prob, cfg)
        psi = trace.column("psi")
        assert len(calls) == len(trace.records) > 1
        assert len(packed_psi) == len(trace.records) + 1
        previous = np.concatenate([packed_psi[:1], psi[:-1]])
        assert np.all(np.array(packed_psi[1:]) <= previous + PSI_SLACK)
        assert np.all(np.diff(psi) <= PSI_SLACK)


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_gcg_evaluates_each_accepted_iterate_once(rng, monkeypatch, lam):
    # Outside local_search an iteration takes one QR pair, forms U V once and
    # makes 2 AC, 1 AC^T, 2 Gram and 1 C products: AC^T for the gradient, AC
    # and the Gram on the atom for the step model, the QR pair of the
    # candidate's thin SVD, AC and the Gram on the accepted iterate, C for
    # its rank.  Before the loop, psi at the initializer, then the start's
    # QR pair and evaluation.  A zero iterate (factor rank 0, as on
    # zeros_and_singletons) has no QR to take, and a rank-0 candidate no
    # product inside local_search.  No product anywhere in the solve is
    # with B.
    outside, inside, depth = [], [], [0]

    def log(kind, a):
        (inside if depth[0] else outside).append((kind, a))

    for module, kind, fn in ((objective, "spmv", spmv), (objective, "spmv_t", spmv_t),
                             (gcg, "spmv", spmv)):
        monkeypatch.setattr(module, kind,
                            lambda a, x, kind=kind, fn=fn: log(kind, a) or fn(a, x))
    product, qr = FactorPair.product, objective._thin_qr
    monkeypatch.setattr(FactorPair, "product", lambda self: log("UV", None) or product(self))
    monkeypatch.setattr(objective, "_thin_qr", lambda a: log("QR", None) or qr(a))

    def counted_inside(*args, **kwargs):
        depth[0] += 1
        try:
            return local_search(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(gcg, "local_search", counted_inside)
    for name, prob in observed_problems(rng, lam):
        outside.clear()
        inside.clear()
        _, trace = solve(prob, GcgConfig(max_iter=6))
        ac, gram = prob.AC, prob.B.gram
        evaluation = [("UV", None), ("spmv", ac), ("spmv", gram)]
        want = evaluation + 2 * [("QR", None)] + evaluation
        for row in trace.records:
            want += [("spmv_t", ac), ("spmv", ac), ("spmv", gram)]
            want += 2 * [("QR", None)] * (row.factor_rank > 0) + evaluation
            want += [("spmv", prob.C)]
        assert len(outside) == len(want), name
        assert all(k == wk and a is wa for (k, a), (wk, wa) in zip(outside, want)), name
        assert inside or not any(row.factor_rank for row in trace.records), name
        assert not any(a is prob.B for _, a in outside + inside), name
        assert ("QR", None) not in inside, name


@pytest.mark.parametrize("lam, settings", [
    pytest.param(lam, settings, id=f"{lam}{suffix}")
    for suffix, settings in (("", {}), ("-unbalanced", dict(
        recompress=False, track_structured_rank=False)))
    for lam in (0.0, 1.3)])
def test_gcg_rows_match_a_dense_evaluation_at_their_iterates(rng, lam, settings):
    # A solve is deterministic, so the one capped at k iterations returns
    # row k's iterate.  Its f, square loss and phi are formed from the dense
    # AC and B and the nuclear norm of a full SVD.  Without the recompress
    # (acceptance 12's settings) the factors are not balanced, and |X|_*
    # comes from their thin SVD.
    config = dict(tol_x=1e-300, tol_obj=1e-300, **settings)
    for name, prob in observed_problems(rng, lam):
        _, trace = solve(prob, GcgConfig(max_iter=8, **config))
        for row in trace.records:
            fac, _ = solve(prob, GcgConfig(max_iter=row.iteration, **config))
            x = fac.product()
            f, sq, _ = dense_smooth_terms(prob, vec(x))
            phi = f + prob.mu * np.linalg.svd(x, compute_uv=False).sum()
            np.testing.assert_allclose((row.f_smooth, row.square_loss, row.phi),
                                       (f, sq, phi), rtol=1e-12, atol=0,
                                       err_msg=f"{name}, row {row.iteration}")


def _inflated_from_the_third_call(calls):
    # local_search, but from its third call (counted in calls) on it returns
    # its result scaled by sqrt(10) with that point's psi, which rises
    def inflated(p, factors, psi, budget):
        calls.append(1)
        out, psi = local_search(p, factors, psi, budget)
        if len(calls) < 3:
            return out, psi
        out = out.scaled(np.sqrt(10.0))
        return out, psi_value(p, out)
    return inflated


def test_a_held_step_repeats_the_previous_row(rng, monkeypatch):
    # From the third call on the local search returns its result scaled by
    # sqrt(10) with that point's psi, which rises: every later step is held.
    # A held row repeats the previous iterate, its evaluation and its
    # |X|_*, with theta 0, and the solve returns that iterate.  A zero
    # iterate (zeros_and_singletons) scales to itself: it is not held but
    # stops on tol_x, its step being exactly 0.
    calls = []
    monkeypatch.setattr(gcg, "local_search", _inflated_from_the_third_call(calls))
    config = dict(tol_x=1e-300, tol_obj=1e-300)
    held = 0
    for name, prob in observed_problems(rng, 1.3):
        calls.clear()
        fac, trace = solve(prob, GcgConfig(max_iter=5, **config))
        calls.clear()
        fac_2, _ = solve(prob, GcgConfig(max_iter=2, **config))
        second = trace.records[1]
        if second.factor_rank == 0:
            assert trace.converged_reason == "tol_x" and len(trace.records) == 2, name
            continue
        held += 1
        assert len(trace.records) == 5, name
        for row in trace.records[2:]:
            assert row.theta == 0.0, (name, row.iteration)
            for col in ("phi", "f_smooth", "square_loss", "psi", "rank", "factor_rank"):
                assert getattr(row, col) == getattr(second, col), (name, row.iteration, col)
        np.testing.assert_array_equal(fac.product(), fac_2.product(), err_msg=name)
    assert held == 5


def test_unbalanced_rows_read_their_rank_from_the_settles_svd(rng, monkeypatch):
    # Without the recompress and the structured rank (acceptance 12's
    # settings) each settle takes one thin SVD, a QR pair unless the iterate
    # is zero, and the row's rank column reads its singular values: no
    # second SVD.  The inflated local search holds rows 3-5 (as in the test
    # above), which read the singular values of row 2's iterate, not of their
    # candidate.
    svd_ranks, qrs, sigmas, calls = [], [], [], []
    svd, qr, estimate = gcg.factor_svd, objective._thin_qr, gcg.rank_estimate
    monkeypatch.setattr(gcg, "factor_svd", lambda f: svd_ranks.append(f.rank) or svd(f))
    monkeypatch.setattr(objective, "_thin_qr", lambda a: qrs.append(1) or qr(a))
    monkeypatch.setattr(gcg, "rank_estimate", lambda s: sigmas.append(s) or estimate(s))
    monkeypatch.setattr(gcg, "local_search", _inflated_from_the_third_call(calls))
    config = GcgConfig(max_iter=5, tol_x=1e-300, tol_obj=1e-300, recompress=False,
                       track_structured_rank=False)
    held = 0
    for name, prob in observed_problems(rng, 1.3):
        svd_ranks.clear()
        qrs.clear()
        sigmas.clear()
        calls.clear()
        _, trace = solve(prob, config)
        rows = trace.records
        assert len(svd_ranks) == len(rows) + 1 and len(sigmas) == len(rows), name
        assert len(qrs) == 2 * sum(r > 0 for r in svd_ranks), name
        assert [row.rank for row in rows] == [estimate(s) for s in sigmas], name
        if rows[1].factor_rank == 0:  # a zero iterate is not held (see above)
            continue
        held += 1
        assert len(rows) == 5 and all(row.theta == 0.0 for row in rows[2:]), name
        assert all(s is sigmas[1] for s in sigmas[2:]), name
    assert held == 5


def test_a_rejected_or_skipped_compress_keeps_the_factors(rng):
    # Unbalanced factors settle to themselves when their compress would raise
    # psi past rounding, and without the recompress: the same object, its
    # own evaluation, and |X|_* from the thin SVD rather than the surrogate.
    prob = random_hankel_problem(rng, j=4, k=5, lam=0.9, mu=0.3)
    fac = FactorPair(rng.standard_normal((4, 3)), 3.0 * rng.standard_normal((3, 5)))
    nuclear = np.linalg.svd(fac.product(), compute_uv=False).sum()
    assert fac.surrogate() > 1.1 * nuclear
    below_packed = psi_value(prob, compress(fac)) - 1e-9
    for psi, recompress in ((below_packed, True), (psi_value(prob, fac), False)):
        out, psi_out, terms, got, sigma = _settled(prob, fac, psi, recompress)
        assert out is fac and psi_out == psi, recompress
        for part, want in zip(terms, _iterate_terms(prob, fac), strict=True):
            np.testing.assert_array_equal(part, want)
        assert abs(got - nuclear) <= 1e-12 * nuclear, recompress
        np.testing.assert_array_equal(sigma, factor_svd(fac)[1])
        assert got == float(sigma.sum()), recompress
    packed, *_, sigma = _settled(prob, fac, psi_value(prob, fac), True)
    assert packed is not fac and sigma is None  # a kept compress: its SVD was of fac


def test_unconverged_atoms_cannot_raise_psi(rng, monkeypatch):
    # every atom is the exact pair tilted toward a seeded random direction,
    # so the step sees an inexact atom at every iteration
    noise = np.random.default_rng(5)
    tilts = []

    def spied(a):
        pair = top_singular_pair(a)
        u = pair.u + 0.3 * noise.standard_normal(pair.u.size) / np.sqrt(pair.u.size)
        v = pair.v + 0.3 * noise.standard_normal(pair.v.size) / np.sqrt(pair.v.size)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        tilts.append(np.linalg.norm(np.outer(u, v) - np.outer(pair.u, pair.v)))
        return replace(pair, sigma=float(u @ a @ v), u=u, v=v, converged=False)

    monkeypatch.setattr(gcg, "top_singular_pair", spied)
    for j, k in ((30, 35), (25, 40)):
        prob = random_hankel_problem(rng, j=j, k=k, mu=0.2, frac=0.5)
        _, trace = solve(prob, GcgConfig(max_iter=20, seed=3, tol_obj=1e-300,
                                         tol_x=1e-300))
        assert np.all(np.diff(trace.column("psi")) <= PSI_SLACK)
    assert len(tilts) >= 2 and min(tilts) > 1e-3


def test_seed_changes_no_result():
    # GCG draws nothing at random: the seed is recorded, never used
    prob = _desk_problem()
    names = [f.name for f in fields(TraceRecord) if f.name != "time_s"]
    tables = []
    for seed in (0, 12345):
        _, trace = solve_homotopy(prob, GcgConfig(seed=seed))
        tables.append({name: trace.column(name).tolist() for name in names})
    assert len(tables[0]["phi"]) > 1
    assert tables[0] == tables[1]


def test_factor_rank_stays_within_the_short_side(rng):
    prob = random_hankel_problem(rng, j=3, k=6, mu=0.05)
    _, trace = solve(prob, GcgConfig(max_iter=25, seed=2, tol_obj=1e-300,
                                     tol_x=1e-300))
    assert trace.column("factor_rank").max() <= 3


def test_the_tol_x_step_is_the_distance_of_consecutive_iterates(rng, monkeypatch):
    # stop_reason receives dx = |X_k - X_{k-1}|_F of consecutive accepted
    # iterates.  They are the start and the candidates _settled returns that
    # do not raise psi past rounding (a hold makes no stop test).
    settles, steps = [], []
    settled, stop_reason = gcg._settled, GcgConfig.stop_reason
    monkeypatch.setattr(gcg, "_settled",
                        lambda *args: settles.append(settled(*args)) or settles[-1])
    monkeypatch.setattr(GcgConfig, "stop_reason",
                        lambda cfg, dx, *args: steps.append(dx) or stop_reason(cfg, dx, *args))
    for name, prob in observed_problems(rng, 1.3):
        settles.clear()
        steps.clear()
        solve(prob, GcgConfig(max_iter=8, tol_x=1e-300, tol_obj=1e-300))
        accepted = [settles[0]]
        for cand in settles[1:]:
            if cand[1] <= accepted[-1][1] + PSI_SLACK:
                accepted.append(cand)
        want = [np.linalg.norm(b[0].product() - a[0].product())
                for a, b in zip(accepted, accepted[1:])]
        assert len(steps) == len(want) > 0, name
        np.testing.assert_allclose(steps, want, rtol=1e-12, atol=0, err_msg=name)


def test_stopping_off_ends_no_stage_on_tol_x():
    # Acceptance 09's desk run with stopping off, stage by stage.  A step
    # formed from factor Gram products cancels to 0 below about sqrt(eps)
    # |X|, which would end the lam = 1 and lam = 10 stages on tol_x.
    prob = _desk_problem()
    cfg = GcgConfig(max_iter=60, tol_x=1e-300, tol_obj=1e-300)
    factors, reasons = None, []
    for lam in lam_stages(prob.lam, cfg.lam_growth, cfg.lam_max):
        factors, trace = solve(replace(prob, lam=lam), cfg, init=factors)
        reasons.append((lam, trace.converged_reason, len(trace.records)))
    assert len(reasons) == 3
    assert all(reason != "tol_x" for _, reason, _ in reasons), reasons


def test_solve_is_deterministic(rng):
    prob = random_hankel_problem(rng, j=4, k=6, mu=0.2)
    cfg = GcgConfig(max_iter=15, seed=11)
    _, tr1 = solve(prob, cfg)
    _, tr2 = solve(prob, cfg)
    assert [r.phi for r in tr1.records] == [r.phi for r in tr2.records]
    assert [r.psi for r in tr1.records] == [r.psi for r in tr2.records]


def test_solve_psi_column_is_monotone(rng):
    for _ in range(3):
        prob = random_hankel_problem(rng, mu=0.2, lam=1.0)
        _, trace = solve(prob, GcgConfig(max_iter=25, seed=2))
        psi = trace.column("psi")
        assert np.all(np.diff(psi) <= 1e-12)


def test_solve_reduces_phi_from_the_start(rng):
    prob = random_hankel_problem(rng, j=5, k=5, mu=0.3)
    init = FactorPair.ones(5, 5)
    f0, _, _ = dense_smooth_terms(prob, vec(init.product()))
    phi0 = f0 + prob.mu * np.linalg.svd(init.product(), compute_uv=False).sum()
    fac, trace = solve(prob, GcgConfig(max_iter=20, seed=0), init=init)
    assert trace.records[-1].phi < phi0
    assert trace.converged_reason in {"tol_x", "tol_obj", "max_iter"}


def test_large_mu_keeps_the_zero_solution(rng):
    prob = random_hankel_problem(rng, j=4, k=5)
    atb = unvec(spmv_t(prob.AC, prob.target), prob.rows, prob.cols)
    # mu at or above |mat(AC^T b)|_2 makes X = 0 optimal from a zero start
    prob = replace(prob, mu=float(np.linalg.norm(atb, 2)) * 1.01)
    factors, trace = solve(prob, GcgConfig(seed=0),
                           init=FactorPair.zeros(prob.rows, prob.cols))
    np.testing.assert_allclose(factors.product(), 0.0, atol=1e-14)
    want = 0.5 * float(prob.target @ prob.target)
    assert trace.records[-1].phi == pytest.approx(want, rel=1e-12)
    assert trace.records[0].theta == 0.0


def test_zero_data_zero_init_converges_immediately(rng):
    prob = random_hankel_problem(rng, j=4, k=5)
    prob = replace(prob, target=np.zeros_like(prob.target))
    factors, trace = solve(prob, GcgConfig(seed=0),
                           init=FactorPair.zeros(prob.rows, prob.cols))
    assert len(trace.records) == 1
    assert trace.records[-1].phi == 0.0


def test_solve_rejects_bad_init(rng):
    prob = random_hankel_problem(rng, j=3, k=3)
    with pytest.raises(ValueError):
        solve(prob, init=FactorPair.ones(4, 3))
    with pytest.raises(DivergedError) as exc:
        solve(prob, init=FactorPair(np.full((3, 1), np.nan), np.ones((1, 3))))
    assert exc.value.trace.converged_reason == "diverged"
    assert exc.value.trace.records == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_local_search_diverges(rng, monkeypatch, bad):
    # from the third iteration on the local search returns non-finite
    # factors; the step must not be held at the previous psi, which would
    # run out the budget as "max_iter"
    prob = random_hankel_problem(rng, j=4, k=5, mu=0.2)
    calls = []

    def poisoned(p, factors, psi, budget):
        calls.append(1)
        if len(calls) < 3:
            return local_search(p, factors, psi, budget)
        factors = FactorPair(np.full_like(factors.U, bad), np.full_like(factors.V, bad))
        return factors, psi_value(p, factors)

    monkeypatch.setattr(gcg, "local_search", poisoned)
    with np.errstate(all="ignore"), pytest.raises(DivergedError,
                                                  match="at iteration 3") as exc:
        solve(prob, GcgConfig(max_iter=50, tol_x=1e-300, tol_obj=1e-300))
    trace = exc.value.trace
    assert trace.converged_reason == "diverged" and trace.wall_time_s > 0.0
    assert [r.iteration for r in trace.records] == [1, 2]
    assert np.all(np.isfinite(trace.column("phi")))


def test_solve_without_local_search_still_descends(rng):
    prob = random_hankel_problem(rng, j=4, k=4, mu=0.2)
    cfg = GcgConfig(max_iter=30, seed=1, local_search_max_steps=0)
    _, trace = solve(prob, cfg)
    psi = trace.column("psi")
    assert np.all(np.diff(psi) <= 1e-12)


def test_factor_rank_column_with_recompression(rng):
    prob = random_hankel_problem(rng, j=4, k=5, mu=0.5)
    for recompress in (True, False):
        cfg = GcgConfig(max_iter=12, seed=3, recompress=recompress,
                        track_structured_rank=False)
        fac, trace = solve(prob, cfg)
        assert all(r.factor_rank >= 0 for r in trace.records)
        assert all(r.rank <= min(prob.rows, prob.cols) for r in trace.records)


def test_trace_append_numbers_rows_and_rejects_a_nonfinite_phi(rng):
    prob = random_hankel_problem(rng, j=3, k=4, mu=0.5)
    terms = smooth_terms(prob, rng.standard_normal(prob.size))
    f_smooth, sqloss, _ = terms
    row = dict(theta=0.0, sigma_top=1.0, rank=2, factor_rank=3)
    trace = SolveTrace()
    phi = trace.append(prob, terms, 2.0, **row)
    assert phi == f_smooth + prob.mu * 2.0
    assert trace.append(prob, terms, 2.0, psi=7.0, **row) == phi
    first, second = trace.records
    assert (first.iteration, second.iteration) == (1, 2)
    assert first.psi == phi and second.psi == 7.0    # psi defaults to phi
    assert (first.f_smooth, first.square_loss) == (f_smooth, sqloss)
    assert 0.0 < first.time_s <= second.time_s
    for bad in (np.nan, np.inf):
        with pytest.raises(DivergedError, match="at iteration 3") as exc:
            trace.append(prob, terms, bad, **row)
        assert exc.value.trace is trace
        assert trace.converged_reason == "diverged" and trace.wall_time_s > 0.0
        assert len(trace.records) == 2


def test_lam_stages():
    assert lam_stages(1.0, 10.0, 100.0) == [1.0, 10.0, 100.0]
    assert lam_stages(1.0, 10.0, 50.0) == [1.0, 10.0, 50.0]
    assert lam_stages(2.0, 3.0, 10.0) == [2.0, 6.0, 10.0]
    assert lam_stages(5.0, 1.0, 100.0) == [5.0]       # growth 1 disables
    assert lam_stages(200.0, 10.0, 100.0) == [200.0]  # already past the cap
    assert lam_stages(0.0, 10.0, 100.0) == [0.0]      # zero never grows


def test_solve_homotopy_matches_manual_stages(rng, monkeypatch):
    prob = random_hankel_problem(rng, j=4, k=5, lam=1.0, mu=0.2)
    cfg = GcgConfig(max_iter=20, seed=4, lam_growth=10.0, lam_max=100.0)
    stage_times = []

    def timed_solve(*args, **kwargs):
        fac, trace = solve(*args, **kwargs)
        stage_times.append(trace.wall_time_s)
        return fac, trace

    monkeypatch.setattr(gcg, "solve", timed_solve)
    fac_h, tr_h = solve_homotopy(prob, cfg)
    monkeypatch.undo()

    fac_m = None
    for lam in (1.0, 10.0, 100.0):
        stage = replace(prob, lam=lam)
        fac_m, tr_m = solve(stage, cfg, init=fac_m)
    np.testing.assert_array_equal(fac_h.product(), fac_m.product())
    assert [r.phi for r in tr_h.records] == [r.phi for r in tr_m.records]
    # wall_time_s covers all three stages: their times, added in stage order
    assert len(stage_times) == 3
    total = 0.0
    for t in stage_times:
        total += t
    assert tr_h.wall_time_s == total


@pytest.mark.parametrize("lam", [0.0, 1.0, 30.0, "no B rows"])
def test_exact_block_solves_match_the_dense_normal_equations(rng, lam):
    # One sweep on the desk lift is two exact block solves, U with V held and
    # then V with the new U; each is pinned to np.linalg.solve of its normal
    # equations P^T H P + mu I built from the dense AC and B.
    prob = _desk_problem()
    if lam == "no B rows":
        prob = replace(prob, B=SparseMatrix((0, prob.size)))
    else:
        prob = replace(prob, lam=lam)
    m, n, r = prob.rows, prob.cols, 3
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((r, n))
    assert gcg._exact_block(prob, m * r) and gcg._exact_block(prob, r * n)
    ac, bm = prob.AC.to_dense(), prob.B.to_dense()
    hess = ac.T @ ac + prob.lam * bm.T @ bm

    def block_minimizer(p):
        k = p.T @ hess @ p + prob.mu * np.eye(p.shape[1])
        return np.linalg.solve(k, p.T @ (ac.T @ prob.target))

    u_ref = unvec(block_minimizer(np.kron(v.T, np.eye(m))), m, r)
    v_ref = unvec(block_minimizer(np.kron(np.eye(n), u_ref)), r, n)
    out, _ = _search(prob, u, v, budget=1)
    for got, want in ((out.U, u_ref), (out.V, v_ref)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_block_solve_on_either_side_of_the_exact_gate(rng, monkeypatch):
    # On the desk lift (12 x 16) U is solved exactly through rank 10
    # (d = 120) and V through rank 7 (d = 112); U at rank 11 and V at rank 8
    # take CG.  The exact solves apply the separate Hessian products, so
    # AC's Gram is never built.  On the 46 x 45 lift every block takes CG.
    prob = _desk_problem()
    paths = []

    def spy(name, fn):
        def spied(*args, **kwargs):
            out = fn(*args, **kwargs)
            paths.append((name, np.size(out[0] if name == "cg" else out)))
            return out
        monkeypatch.setattr(gcg, fn.__name__, spied)

    spy("exact", gcg._cholesky_solve)
    spy("cg", gcg.cg)
    for r, want in ((7, [("exact", 84), ("exact", 112)]),
                    (8, [("exact", 96), ("cg", 128)]),
                    (10, [("exact", 120), ("cg", 160)]),
                    (11, [("cg", 132), ("cg", 176)])):
        paths.clear()
        _search(prob, rng.standard_normal((12, r)), rng.standard_normal((r, 16)), budget=1)
        assert paths == want, r
    assert "gram" not in vars(prob.AC)
    big = random_hankel_problem(rng, j=46, k=45, lam=1.3, frac=0.6)
    paths.clear()
    _search(big, rng.standard_normal((46, 1)), rng.standard_normal((1, 45)), budget=1)
    assert paths == [("cg", 46), ("cg", 45)]


def test_a_block_that_is_not_positive_definite_stays_unmoved(rng):
    g = rng.standard_normal((6, 6))
    indefinite = g + g.T - 20.0 * np.eye(6)
    x0 = rng.standard_normal((3, 2))
    assert gcg._cholesky_solve(indefinite.copy(), rng.standard_normal((3, 2)), x0) is x0
    spd = g @ g.T + np.eye(6)
    rhs = rng.standard_normal((3, 2))
    np.testing.assert_allclose(vec(gcg._cholesky_solve(spd.copy(), rhs, x0)),
                               np.linalg.solve(spd, vec(rhs)), rtol=1e-10)


def test_solve_homotopy_single_stage_is_plain_solve(rng):
    prob = random_hankel_problem(rng, j=3, k=4, lam=1.0, mu=0.3)
    cfg = GcgConfig(max_iter=10, seed=5, lam_growth=1.0)
    fac_h, tr_h = solve_homotopy(prob, cfg)
    fac_p, tr_p = solve(prob, cfg)
    np.testing.assert_array_equal(fac_h.product(), fac_p.product())
    assert [r.phi for r in tr_h.records] == [r.phi for r in tr_p.records]
