"""Penalized objective: factored values, gradients, and the atom step model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slrm import objective
from slrm.apps import _selection_matrix
from slrm.linalg import SparseMatrix, spmv_t, unvec, vec
from slrm.objective import (FactorPair, PenaltyProblem, UnboundedDirectionError,
                            _grad_from, _hess_vec, affine_terms, assemble,
                            f_value, factor_svd, grad_f, psi_value, smooth_terms,
                            smooth_terms_from, step_model)
from slrm.structure import apply_structure, build_B, build_C, hankel_spec

from conftest import observed_problems, random_hankel_problem


def test_factor_pair_basics():
    z = FactorPair.zeros(3, 4)
    assert z.rank == 0 and z.shape == (3, 4)
    np.testing.assert_array_equal(z.product(), np.zeros((3, 4)))
    assert z.surrogate() == 0.0

    o = FactorPair.ones(2, 3)
    assert o.rank == 1
    np.testing.assert_array_equal(o.product(), np.ones((2, 3)))

    with pytest.raises(ValueError):
        FactorPair(np.ones((2, 3)), np.ones((2, 3)))

    s = o.scaled(2.0)
    np.testing.assert_array_equal(s.product(), 4.0 * np.ones((2, 3)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6))
def test_surrogate_dominates_nuclear_norm(seed, r):
    rng = np.random.default_rng(seed)
    fac = FactorPair(rng.standard_normal((5, r)), rng.standard_normal((r, 7)))
    nuc = np.linalg.svd(fac.product(), compute_uv=False).sum()
    assert fac.surrogate() >= nuc - 1e-10


def test_factor_svd_matches_dense(rng):
    for r in (1, 3, 9):  # r = 9 exceeds min(m, n)
        fac = FactorPair(rng.standard_normal((6, r)), rng.standard_normal((r, 4)))
        left, s, right = factor_svd(fac)
        np.testing.assert_allclose((left * s) @ right, fac.product(), atol=1e-12)
        want = np.linalg.svd(fac.product(), compute_uv=False)
        np.testing.assert_allclose(s, want[: s.size], atol=1e-10)
        assert np.all(want[s.size:] <= 1e-10)
    left, s, right = factor_svd(FactorPair.zeros(3, 4))
    assert s.size == 0 and left.shape == (3, 0) and right.shape == (0, 4)


def test_assemble_validation(rng):
    spec = hankel_spec(3, 3)
    sel = _selection_matrix(np.arange(spec.n_params), spec.n_params)
    y = rng.standard_normal(spec.n_params)
    for lam, mu in ((-1.0, 0.1), (1.0, 0.0), (np.nan, 0.1), (np.inf, 0.1),
                    (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            assemble(spec, sel, y, lam=lam, mu=mu)
    with pytest.raises(ValueError):
        assemble(spec, sel, y[:-1], lam=1.0, mu=0.1)
    for value in (np.nan, np.inf, -np.inf):
        y_bad = y.copy()
        y_bad[2] = value
        with pytest.raises(ValueError, match="finite"):
            assemble(spec, sel, y_bad, lam=1.0, mu=0.1)
    bad = _selection_matrix(np.arange(3), spec.n_params - 1)
    with pytest.raises(ValueError):
        assemble(spec, bad, rng.standard_normal(3), lam=1.0, mu=0.1)


def test_assemble_wires_the_pieces(rng):
    spec = hankel_spec(3, 4)
    idx = np.array([0, 2, 5])
    sel = _selection_matrix(idx, spec.n_params)
    y = rng.standard_normal(3)
    prob = assemble(spec, sel, y, lam=0.5, mu=0.2)
    np.testing.assert_array_equal(prob.target, y)
    np.testing.assert_array_equal(prob.B.to_dense(), build_B(spec).to_dense())
    np.testing.assert_array_equal(prob.C.to_dense(), build_C(spec).to_dense())
    np.testing.assert_allclose(
        prob.AC.to_dense(), sel.to_dense() @ prob.C.to_dense(), atol=1e-14)
    assert prob.size == spec.rows * spec.cols


def test_smooth_terms_against_dense(rng):
    prob = random_hankel_problem(rng, j=3, k=4, lam=0.8, mu=0.3, frac=0.6)
    x = rng.standard_normal(prob.size)
    ac = prob.AC.to_dense()
    b_mat = prob.B.to_dense()
    resid = ac @ x - prob.target
    want_sq = 0.5 * resid @ resid
    want_pen = 0.5 * prob.lam * float((b_mat @ x) @ (b_mat @ x))
    f, sq, pen = smooth_terms(prob, x)
    assert abs(sq - want_sq) <= 1e-12 * (1 + abs(want_sq))
    assert abs(pen - want_pen) <= 1e-12 * (1 + abs(want_pen))
    assert abs(f - (want_sq + want_pen)) <= 1e-12 * (1 + abs(f))
    assert f_value(prob, x) == f
    with pytest.raises(ValueError):
        smooth_terms(prob, x[:-1])


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_terms_from_the_affine_products(rng, lam):
    # the penalty read as <x, B^T B x> is |B x|^2 at rounding, and exactly 0
    # at a structured point, which B annihilates; f and the gradient
    # AC^T r + lam B^T B x read from (r, B^T B x) = (AC x - b, B^T B x)
    # match 0.5 |AC x - b|^2 + (lam/2) |B x|^2 and its gradient, formed
    # from the dense AC and B
    for name, prob in observed_problems(rng, lam):
        x = rng.standard_normal(prob.size)
        resid, gram_x = affine_terms(prob, x)
        ac, bm = prob.AC.to_dense(), prob.B.to_dense()
        dense_resid, bx = ac @ x - prob.target, bm @ x
        assert abs(float(x @ gram_x) - float(bx @ bx)) <= 1e-14 * (x @ x), name
        sq = 0.5 * float(dense_resid @ dense_resid)
        pen = 0.5 * prob.lam * float(bx @ bx)
        terms = smooth_terms_from(prob, x, resid, gram_x)
        np.testing.assert_allclose(terms, (sq + pen, sq, pen), rtol=1e-13,
                                   atol=1e-14 * (x @ x), err_msg=name)
        grad = spmv_t(prob.AC, resid) + prob.lam * gram_x
        np.testing.assert_allclose(grad, ac.T @ dense_resid + prob.lam * (bm.T @ bx),
                                   rtol=0, atol=1e-13 * np.linalg.norm(x),
                                   err_msg=name)
        y = rng.standard_normal(prob.spec.n_params)
        structured = vec(apply_structure(prob.spec, y))
        resid, gram_x = affine_terms(prob, structured)
        assert not np.any(gram_x), name
        assert smooth_terms_from(prob, structured, resid, gram_x)[2] == 0.0, name


def test_grad_matches_finite_differences(rng):
    prob = random_hankel_problem(rng, j=3, k=3, lam=0.6, mu=0.2, frac=0.8)
    fac = FactorPair(rng.standard_normal((3, 2)), rng.standard_normal((2, 3)))
    g = vec(grad_f(prob, fac))
    x0 = vec(fac.product())
    h = 1e-6
    num = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy(); xp[i] += h
        xm = x0.copy(); xm[i] -= h
        num[i] = (f_value(prob, xp) - f_value(prob, xm)) / (2 * h)
    assert np.linalg.norm(num - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


@pytest.mark.parametrize("lam", [0.0, 1.3, 100.0, "no B rows"])
def test_grad_and_hess_vec_match_dense(rng, lam):
    # the Gram-based products against H = AC^T AC + lam B^T B formed densely;
    # on an (MN x d) block the Hessian is the same products column by column.
    # The problem's dense hessian is H, exactly symmetric and read-only, and
    # a stage at another lam builds its own.
    prob = random_hankel_problem(rng, j=3, k=4, lam=1.3, frac=0.6)
    if lam == "no B rows":
        prob = replace(prob, B=SparseMatrix((0, prob.size)))
    else:
        prob = replace(prob, lam=lam)
    ac = prob.AC.to_dense()
    bm = prob.B.to_dense()
    hess = ac.T @ ac + prob.lam * bm.T @ bm
    x = rng.standard_normal(prob.size)
    scale = np.linalg.norm(hess @ x) + np.linalg.norm(ac.T @ prob.target)
    np.testing.assert_allclose(_hess_vec(prob, x), hess @ x, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(_grad_from(prob, *affine_terms(prob, x)),
                               hess @ x - ac.T @ prob.target, rtol=0, atol=1e-12 * scale)
    block = rng.standard_normal((prob.size, 5))
    want = np.column_stack([_hess_vec(prob, col) for col in block.T])
    np.testing.assert_array_equal(_hess_vec(prob, block), want)
    np.testing.assert_allclose(prob.hessian, hess, rtol=0, atol=1e-12 * np.abs(hess).max())
    np.testing.assert_array_equal(prob.hessian, prob.hessian.T)
    assert not prob.hessian.flags.writeable
    stage_hess = hess + 2.0 * bm.T @ bm
    np.testing.assert_allclose(replace(prob, lam=prob.lam + 2.0).hessian, stage_hess,
                               rtol=0, atol=1e-12 * np.abs(stage_hess).max())
    assert "gram" not in vars(prob.AC)


def test_stages_share_the_lam_free_data(rng):
    # at_lam shares every lam-free value built so far with the stage, as the
    # same objects; each stage builds its own hessian from them, bit for bit
    # the sum that forms it from AC's dense form and B's Gram
    prob = random_hankel_problem(rng, j=4, k=5, lam=1.0, frac=0.6)
    for name in ("hessian", "adjoint_target", "half_target_sq"):  # the first stage's
        getattr(prob, name)
    assert prob.at_lam(prob.lam) is prob
    stages = [prob]
    for lam in (10.0, 100.0):
        stages.append(stages[-1].at_lam(lam))
    for stage in stages:
        for name in objective.LAM_FREE:
            assert vars(stage)[name] is vars(prob)[name], name
        want = spmv_t(stage.AC, stage.AC.to_dense()) + stage.lam * stage.B.gram.to_dense()
        np.testing.assert_array_equal(stage.hessian, want)
        assert not stage.hessian.flags.writeable
    no_rows = replace(prob, B=SparseMatrix((0, prob.size)))
    np.testing.assert_array_equal(no_rows.hessian, prob.acac)
    assert [s.lam for s in stages] == [1.0, 10.0, 100.0]
    assert len({id(s.hessian) for s in stages}) == 3
    assert prob.half_target_sq == 0.5 * float(prob.target @ prob.target)
    # nothing is shared that was not built
    fresh = random_hankel_problem(rng, j=4, k=5, lam=1.0)
    assert not set(objective.LAM_FREE) & set(vars(fresh.at_lam(3.0)))


def test_dense_lift_matrices_stop_at_the_exact_lift_limit(rng):
    # a 16 x 32 lift (512 entries) builds its hessian; a 17 x 31 one (527),
    # like the scs-31 lift, raises before any MN x MN allocation
    assert random_hankel_problem(rng, j=16, k=32).hessian.shape == (512, 512)
    prob = random_hankel_problem(rng, j=17, k=31)
    assert prob.size > objective.EXACT_LIFT_MAX_ENTRIES
    for name in ("hessian", "acac"):
        with pytest.raises(ValueError, match="lift of 527 entries"):
            getattr(prob, name)
    assert not {"hessian", "acac"} & set(vars(prob))


def test_adjoint_target_is_cached_and_read_only(rng):
    prob = random_hankel_problem(rng, j=3, k=4)
    rhs = prob.adjoint_target
    ac = prob.AC.to_dense()
    np.testing.assert_allclose(vec(rhs), ac.T @ prob.target, atol=1e-13)
    assert prob.adjoint_target is rhs and not rhs.flags.writeable


def test_psi_and_phi_relationship(rng):
    prob = random_hankel_problem(rng, j=4, k=4, lam=0.4, mu=0.5)
    fac = FactorPair(rng.standard_normal((4, 3)), rng.standard_normal((3, 4)))
    f = f_value(prob, vec(fac.product()))
    phi = f + prob.mu * np.linalg.svd(fac.product(), compute_uv=False).sum()
    assert psi_value(prob, fac) == pytest.approx(f + prob.mu * fac.surrogate())
    assert psi_value(prob, fac) >= phi - 1e-10


def test_line_search_inputs_against_dense(rng):
    prob = random_hankel_problem(rng, j=3, k=4, lam=0.9, mu=0.3)
    fac = FactorPair(rng.standard_normal((3, 2)), rng.standard_normal((2, 4)))
    eta = 0.4
    shrunk = fac.scaled(np.sqrt(1.0 - eta))
    zu = rng.standard_normal(3)
    zu /= np.linalg.norm(zu)
    zv = rng.standard_normal(4)
    zv /= np.linalg.norm(zv)
    model = step_model(prob, shrunk, zu, zv)
    z = np.outer(zu, zv)
    want_slope = float(np.sum(z * grad_f(prob, shrunk)))
    ac = prob.AC.to_dense()
    bm = prob.B.to_dense()
    want_q = float(np.sum((ac @ vec(z)) ** 2) + prob.lam * np.sum((bm @ vec(z)) ** 2))
    assert model.grad_theta - prob.mu == pytest.approx(want_slope, abs=1e-12)
    assert model.h_tt == pytest.approx(want_q, abs=1e-12)


def _h_direct(prob, shrunk, zu, zv, theta):
    point = shrunk.product() + theta * np.outer(zu, zv)
    return f_value(prob, vec(point)) + prob.mu * (shrunk.surrogate() + theta)


def test_line_search_theta_minimizes(rng):
    for _ in range(5):
        prob = random_hankel_problem(rng)
        m, n = prob.rows, prob.cols
        fac = FactorPair(rng.standard_normal((m, 2)), rng.standard_normal((2, n)))
        eta = float(rng.uniform(0.05, 1.0))
        shrunk = fac.scaled(np.sqrt(1.0 - eta))
        zu = rng.standard_normal(m)
        zu /= np.linalg.norm(zu)
        zv = rng.standard_normal(n)
        zv /= np.linalg.norm(zv)
        model = step_model(prob, shrunk, zu, zv)
        theta = model.theta_at(1.0)
        h_min = model.value(1.0, theta)
        assert theta >= 0.0
        assert h_min == pytest.approx(_h_direct(prob, shrunk, zu, zv, theta), abs=1e-9)
        # a scan over the ray never beats the closed form
        for t in np.linspace(0.0, 2.0 * theta + 1.0, 25):
            assert _h_direct(prob, shrunk, zu, zv, t) >= h_min - 1e-9


def test_line_search_zero_slope_atom(rng):
    # along a direction the smooth part cannot see, only mu*theta remains
    prob = random_hankel_problem(rng, j=2, k=2, frac=1.0)
    shrunk = FactorPair.zeros(2, 2).scaled(1.0)
    zu = np.array([0.0, 1.0])
    zv = np.array([0.0, 1.0])
    theta = step_model(prob, FactorPair.zeros(2, 2), zu, zv).theta_at(1.0)
    assert theta >= 0.0


def _joined(fac, zu, zv, a, theta):
    # the step candidate: sqrt(a) (U, V) joined by sqrt(theta) (z_u, z_v)
    return FactorPair(np.hstack([np.sqrt(a) * fac.U, np.sqrt(theta) * zu[:, None]]),
                      np.vstack([np.sqrt(a) * fac.V, np.sqrt(theta) * zv[None, :]]))


def test_step_model_minimizes_psi_over_the_box(rng):
    kinds = set()
    for trial in range(20):
        prob = random_hankel_problem(rng, lam=float(rng.uniform(0.1, 2.0)),
                                     mu=float(rng.uniform(0.05, 1.0)),
                                     frac=float(rng.uniform(0.4, 1.0)))
        m, n = prob.rows, prob.cols
        # a rough fit of the data, so that every kind of minimizer turns up
        r = int(rng.integers(1, min(m, n) + 1))
        lu, ls, lvt = np.linalg.svd(unvec(spmv_t(prob.AC, prob.target), m, n))
        root = np.sqrt(rng.uniform(0.2, 1.5) * ls[:r])
        fac = FactorPair(lu[:, :r] * root + 0.1 * rng.standard_normal((m, r)),
                         root[:, None] * lvt[:r] + 0.1 * rng.standard_normal((r, n)))
        if trial % 2:  # the solver's atom
            gu, _, gvt = np.linalg.svd(-grad_f(prob, fac))
            zu, zv = gu[:, 0], gvt[0]
        else:
            zu = rng.standard_normal(m)
            zu /= np.linalg.norm(zu)
            zv = rng.standard_normal(n)
            zv /= np.linalg.norm(zv)
        a_star, theta_star, psi_star = step_model(prob, fac, zu, zv).minimize()
        assert 0.0 <= a_star <= 1.0 and theta_star >= 0.0
        kinds.add("a=0" if a_star == 0.0 else "a=1" if a_star == 1.0
                  else "theta=0" if theta_star == 0.0 else "interior")
        tol = 1e-10 * max(1.0, abs(psi_star))
        built = psi_value(prob, _joined(fac, zu, zv, a_star, theta_star))
        assert abs(built - psi_star) <= tol
        assert psi_star <= psi_value(prob, fac) + tol
        for a in np.linspace(0.0, 1.0, 41):
            for theta in np.linspace(0.0, 2.0 * theta_star + 1.0, 41):
                assert psi_value(prob, _joined(fac, zu, zv, a, theta)) >= psi_star - tol
    assert kinds == {"a=0", "a=1", "theta=0", "interior"}


def _two_by_two_hankel(observed, target, mu=0.3):
    # 2 x 2 Hankel: X[1, 1] is parameter 2 and alone on its anti-diagonal
    spec = hankel_spec(2, 2)
    return assemble(spec, _selection_matrix(np.array(observed), spec.n_params),
                    np.asarray(target, dtype=float), 0.8, mu)


def test_step_model_keeps_theta_zero_for_an_atom_orthogonal_to_the_residual():
    prob = _two_by_two_hankel([0, 1, 2], [1.0, 0.5, 0.0])
    fac = FactorPair(np.array([[1.0], [0.0]]), np.array([[1.0, 1.0]]))
    zu = zv = np.array([0.0, 1.0])  # reads parameter 2, where X and b are 0
    model = step_model(prob, fac, zu, zv)
    assert model.grad_theta == prob.mu and model.h_at == 0.0
    a, theta, psi = model.minimize()
    assert theta == 0.0 and 0.0 < a <= 1.0
    assert psi == pytest.approx(psi_value(prob, fac.scaled(np.sqrt(a))), abs=1e-14)
    assert psi <= psi_value(prob, fac)


def test_step_model_rejects_an_unbounded_atom():
    # parameter 2 is unobserved and X[1, 1] has no structure partner, so the
    # atom has zero curvature; only mu < 0 gives it a negative drift
    prob = _two_by_two_hankel([0, 1], [1.0, 0.5])
    zu = zv = np.array([0.0, 1.0])
    zero = FactorPair.zeros(2, 2)
    assert step_model(prob, zero, zu, zv).h_tt == 0.0
    assert step_model(prob, zero, zu, zv).minimize()[1] == 0.0
    bad = replace(prob, mu=-0.2)
    with pytest.raises(UnboundedDirectionError):
        step_model(bad, zero, zu, zv).minimize()
    with pytest.raises(UnboundedDirectionError):
        step_model(bad, zero, zu, zv).theta_at(1.0)
