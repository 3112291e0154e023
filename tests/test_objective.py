"""Penalized objective: factored values, gradients, and the atom line search."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slrm.apps import _selection_matrix
from slrm.linalg import SparseMatrix, vec
from slrm.objective import (FactorPair, PenaltyProblem, _grad_vec, _hess_vec,
                            assemble, f_value,
                            factor_nuclear_norm, factor_svd, grad_f,
                            line_search_inputs, line_search_theta, phi_value,
                            psi_value, smooth_terms)
from slrm.structure import RecoveryMode, build_B, build_C, hankel_spec

from conftest import random_hankel_problem


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
        assert abs(factor_nuclear_norm(fac) - want.sum()) <= 1e-10
    assert factor_nuclear_norm(FactorPair.zeros(3, 3)) == 0.0
    left, s, right = factor_svd(FactorPair.zeros(3, 4))
    assert s.size == 0 and left.shape == (3, 0) and right.shape == (0, 4)


def test_assemble_validation(rng):
    spec = hankel_spec(3, 3)
    sel = _selection_matrix(np.arange(spec.n_params), spec.n_params)
    y = rng.standard_normal(spec.n_params)
    with pytest.raises(ValueError):
        assemble(spec, sel, y, lam=-1.0, mu=0.1)
    with pytest.raises(ValueError):
        assemble(spec, sel, y, lam=1.0, mu=0.0)
    with pytest.raises(ValueError):
        assemble(spec, sel, y[:-1], lam=1.0, mu=0.1)
    bad = _selection_matrix(np.arange(3), spec.n_params - 1)
    with pytest.raises(ValueError):
        assemble(spec, bad, rng.standard_normal(3), lam=1.0, mu=0.1)


def test_assemble_wires_the_pieces(rng):
    spec = hankel_spec(3, 4)
    idx = np.array([0, 2, 5])
    sel = _selection_matrix(idx, spec.n_params)
    y = rng.standard_normal(3)
    prob = assemble(spec, sel, y, lam=0.5, mu=0.2, recovery=RecoveryMode.SPARSE)
    np.testing.assert_array_equal(prob.target, y)
    np.testing.assert_array_equal(prob.B.to_dense(), build_B(spec).to_dense())
    np.testing.assert_array_equal(
        prob.C.to_dense(), build_C(spec, RecoveryMode.SPARSE).to_dense())
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
    # the Gram-based products against H = AC^T AC + lam B^T B formed densely
    prob = random_hankel_problem(rng, j=3, k=4, lam=1.3, frac=0.6)
    if lam == "no B rows":
        prob = replace(prob, B=SparseMatrix(0, prob.size, [0], [], []))
    else:
        prob = replace(prob, lam=lam)
    ac = prob.AC.to_dense()
    bm = prob.B.to_dense()
    hess = ac.T @ ac + prob.lam * bm.T @ bm
    x = rng.standard_normal(prob.size)
    scale = np.linalg.norm(hess @ x) + np.linalg.norm(ac.T @ prob.target)
    np.testing.assert_allclose(_hess_vec(prob, x), hess @ x, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(_grad_vec(prob, x), hess @ x - ac.T @ prob.target,
                               rtol=0, atol=1e-12 * scale)


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
    assert psi_value(prob, fac) == pytest.approx(f + prob.mu * fac.surrogate())
    assert phi_value(prob, fac) == pytest.approx(
        f + prob.mu * np.linalg.svd(fac.product(), compute_uv=False).sum())
    assert psi_value(prob, fac) >= phi_value(prob, fac) - 1e-10


def test_line_search_inputs_against_dense(rng):
    prob = random_hankel_problem(rng, j=3, k=4, lam=0.9, mu=0.3)
    fac = FactorPair(rng.standard_normal((3, 2)), rng.standard_normal((2, 4)))
    eta = 0.4
    shrunk = fac.scaled(np.sqrt(1.0 - eta))
    zu = rng.standard_normal(3)
    zu /= np.linalg.norm(zu)
    zv = rng.standard_normal(4)
    zv /= np.linalg.norm(zv)
    inp = line_search_inputs(prob, shrunk, zu, zv, eta)
    z = np.outer(zu, zv)
    want_slope = float(np.sum(z * grad_f(prob, shrunk)))
    ac = prob.AC.to_dense()
    bm = prob.B.to_dense()
    want_q = float(np.sum((ac @ vec(z)) ** 2) + prob.lam * np.sum((bm @ vec(z)) ** 2))
    assert inp.slope == pytest.approx(want_slope, abs=1e-12)
    assert inp.curvature == pytest.approx(want_q, abs=1e-12)
    with pytest.raises(ValueError):
        line_search_inputs(prob, shrunk, zu, zv, 0.0)


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
        theta, h_min = line_search_theta(prob, shrunk, zu, zv, eta)
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
    theta, _ = line_search_theta(prob, FactorPair.zeros(2, 2), zu, zv, 1.0)
    assert theta >= 0.0
