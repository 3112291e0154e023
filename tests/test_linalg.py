"""Sparse containers, operators, and the spectral routines."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from slrm import apps, gcg, linalg
from slrm.linalg import (DIRECT_LAPACK_MAX_ENTRIES, TOP_PAIR_DIRECT_MAX_SIDE,
                         SparseMatrix, _short_side, _svd, _thin_qr, short_side_svd,
                         singular_values, spmv, spmv_t, top_singular_pair, unvec,
                         vec)
from slrm.objective import FactorPair, factor_svd
from slrm.structure import block_hankel_spec, build_B, two_fold_hankel_spec

from conftest import spectral_test_matrices


def test_vec_is_column_major():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(a), 2, 2), a)
    with pytest.raises(ValueError):
        unvec(np.ones(3), 2, 2)


def test_sparse_matrix_roundtrip(rng):
    dense = rng.standard_normal((5, 7)) * (rng.random((5, 7)) < 0.4)
    a = SparseMatrix(dense)
    np.testing.assert_array_equal(a.to_dense(), dense)
    assert a.shape == (5, 7) and (a.n_rows, a.n_cols) == (5, 7)
    assert a.nnz == int(np.sum(dense != 0))
    dense[0, 0] = 99.0                                  # the input was copied
    assert a.to_dense()[0, 0] != 99.0


def test_from_coo_sums_duplicates():
    # COO triplets, and CSR rows with a repeated or descending column, all
    # come out canonical: duplicates summed, indices sorted
    a = SparseMatrix(([2.0, 3.0, 1.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    np.testing.assert_array_equal(a.to_dense(), [[0.0, 5.0], [1.0, 0.0]])
    a = SparseMatrix(([1.0, 1.0], [1, 1], [0, 2]), shape=(1, 3))
    np.testing.assert_array_equal(a.to_dense(), [[0.0, 2.0, 0.0]])
    a = SparseMatrix(([1.0, 2.0], [2, 1], [0, 0, 2]), shape=(2, 3))  # after an empty row
    np.testing.assert_array_equal(a.to_dense(), [[0.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
    assert a.to_scipy().has_canonical_format
    np.testing.assert_array_equal(a.to_scipy().indices, [1, 2])


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(([1.0], [0], [0, 1]), shape=(2, 2))            # offsets wrong length
    with pytest.raises(ValueError):
        SparseMatrix(([1.0, 1.0], [0, 2], [0, 2]), shape=(1, 2))    # column out of range
    with pytest.raises(ValueError):
        SparseMatrix(([1.0], [-1], [0, 1]), shape=(1, 2))           # negative column
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            SparseMatrix(([bad], [0], [0, 1]), shape=(1, 2))


def test_sparse_matrix_accepts_empty_rows():
    # leading, inner and trailing empty rows put offsets at 0 and at nnz
    dense = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 3.0], [0.0, 0.0, 0.0],
                      [4.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(SparseMatrix(dense).to_dense(), dense)
    np.testing.assert_array_equal(SparseMatrix(dense[1:4]).to_dense(), dense[1:4])


def test_spmv_matches_scipy(rng):
    dense = rng.standard_normal((6, 4))
    a = SparseMatrix(dense)
    x = rng.standard_normal(4)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(spmv(a, x), dense @ x, atol=1e-13)
    np.testing.assert_allclose(spmv_t(a, y), dense.T @ y, atol=1e-13)


@pytest.mark.parametrize("shape", [(7, 4), (4, 9), (1, 6), (6, 1)])
def test_spmv_t_is_the_scipy_adjoint_bitwise(rng, shape):
    # bit equality with scipy's own CSC view keeps solver traces identical
    dense = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
    dense[rng.integers(shape[0]), :] = 0.0      # an empty row
    dense[:, rng.integers(shape[1])] = 0.0      # an empty column
    a = SparseMatrix(dense)
    y = rng.standard_normal(shape[0])
    np.testing.assert_array_equal(spmv_t(a, y), a.to_scipy().T @ y)
    np.testing.assert_allclose(spmv_t(a, y), dense.T @ y, atol=1e-13)
    first = a._adjoint
    spmv_t(a, y)
    assert a._adjoint is first and a.gram is a.gram


@pytest.mark.parametrize("spec", [block_hankel_spec(2, 2, 6, 8),       # ssr-desk
                                  two_fold_hankel_spec(31, 31, 6, 6)])  # scs-31
def test_gram_matches_the_b_pair(rng, spec):
    b = build_B(spec)
    gram = b.gram
    assert gram.shape == (b.n_cols, b.n_cols)
    ref = (b.to_scipy().T @ b.to_scipy()).tocsr()
    assert abs(gram.to_scipy() - ref).max() <= 1e-12 * abs(ref).max()
    if b.n_cols <= 1000:  # scs-31's dense Gram would need 4.7 GB
        dense = b.to_dense()
        np.testing.assert_allclose(gram.to_dense(), dense.T @ dense,
                                   rtol=0, atol=1e-12 * np.abs(dense).max() ** 2)
    for _ in range(3):
        x = rng.standard_normal(b.n_cols)
        pair = spmv_t(b, spmv(b, x))
        assert np.linalg.norm(spmv(gram, x) - pair) <= 1e-12 * np.linalg.norm(pair)


def test_gram_of_a_matrix_without_rows():
    empty = SparseMatrix((0, 5))
    np.testing.assert_array_equal(empty.gram.to_dense(), np.zeros((5, 5)))


def test_short_side_svd_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        for a in (np.array([[1.0, bad]]), np.array([[1.0, bad]]).T):
            with pytest.raises(ValueError):
                short_side_svd(a)
    with pytest.raises(ValueError):
        short_side_svd(np.zeros((0, 3)))


def _with_spectrum(rng, m, n, sigma):
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1[:, :sigma.size] * sigma) @ q2[:, :sigma.size].T


def _assert_short_side_svd(a, name=""):
    # sigma against LAPACK's SVD, and the factorization itself: s == u @ w,
    # u orthogonal, the rows of w orthogonal with norms sigma; all at
    # 1e-12 of sigma_max, formed so that huge entries do not overflow
    want = np.linalg.svd(a, compute_uv=False)
    u, sigma, w = short_side_svd(a)
    s = a if a.shape[0] <= a.shape[1] else a.T
    k = s.shape[0]
    top = want[0]
    assert sigma.shape == (k,) and u.shape == (k, k) and w.shape == s.shape, name
    assert np.all(sigma[:-1] >= sigma[1:]), name
    np.testing.assert_allclose(sigma, want, rtol=0, atol=1e-12 * top, err_msg=name)
    # singular_values takes LAPACK's values below 4,096 entries, else these
    np.testing.assert_allclose(singular_values(a), want, rtol=0, atol=1e-12 * top,
                               err_msg=name)
    if top == 0.0:
        return
    np.testing.assert_allclose(u @ (w / top), s / top, rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(u.T @ u, np.eye(k), rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose((w / top) @ (w / top).T, np.diag((sigma / top) ** 2),
                               rtol=0, atol=1e-12, err_msg=name)


def test_short_side_svd_matches_the_full_svd(rng):
    graded = np.logspace(0.0, -10.0, 12)
    cases = {
        # every value from 1 down to 1e-10, both orientations
        "graded_wide": _with_spectrum(rng, 12, 30, graded),
        "graded_tall": _with_spectrum(rng, 30, 12, graded),
        "graded_steps": _with_spectrum(rng, 8, 20, np.r_[np.logspace(0.0, -10.0, 6),
                                                         0.0, 0.0]),
        "repeated": _with_spectrum(rng, 9, 14, np.r_[3.0, 3.0, 3.0, 1.0, 1.0,
                                                     np.zeros(4)]),
        "identity_block": np.eye(5, 11),
        # the Gram of these would overflow or underflow unscaled
        "huge": 1e300 * rng.standard_normal((6, 9)),
        "tiny": 1e-300 * rng.standard_normal((9, 6)),
        "huge_graded": 1e300 * _with_spectrum(rng, 7, 10, np.logspace(0.0, -10.0, 7)),
        # the iterate shape of the APG workload on scs 31x31
        "scs_31_lift": rng.standard_normal((36, 676)),
        "scs_31_lift_graded": _with_spectrum(rng, 36, 676, np.logspace(0.0, -10.0, 36)),
        **spectral_test_matrices(rng),
    }
    for name, a in cases.items():
        _assert_short_side_svd(a, name)


@pytest.mark.parametrize("exponent", [-101, -100, 100, 101])
@pytest.mark.parametrize("shape", [(7, 19), (19, 7), (12, 400), (400, 12)])
def test_short_side_is_a_view_inside_the_window(rng, exponent, shape):
    # peaks at both edges of the unscaled window, 2^-100 to 2^101, and just
    # outside it; the larger shapes take singular_values' Gram route.
    # Inside, the short side is a view of the input with scale 1; no route
    # writes into it
    a = _with_spectrum(rng, *shape, np.logspace(0.0, -6.0, min(shape)))
    a = np.ldexp(a, exponent + 1 - int(np.frexp(np.abs(a).max())[1]))
    assert int(np.frexp(np.abs(a).max())[1]) - 1 == exponent
    kept = a.copy()
    s, scale, left = _short_side(a, "test")
    inside = abs(exponent) <= 100
    assert (scale == 1.0) == inside and np.shares_memory(s, a) == inside
    assert left == (shape[0] <= shape[1])
    _assert_short_side_svd(a, f"2^{exponent}")
    res = top_singular_pair(a)
    top = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(res.sigma - top) <= 1e-12 * top
    assert np.linalg.norm((a @ res.v - res.sigma * res.u) / top) <= 1e-12
    assert np.linalg.norm((a.T @ res.u - res.sigma * res.v) / top) <= 1e-12
    np.testing.assert_array_equal(a, kept)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_short_side_svd_matches_dense(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    _assert_short_side_svd(rng.standard_normal((m, n)))
    # a graded spectrum down to 1e-1 ... 1e-12, with some values zeroed
    sigma = np.logspace(0.0, -float(rng.integers(1, 13)), min(m, n))
    sigma[rng.random(sigma.size) < 0.2] = 0.0
    _assert_short_side_svd(_with_spectrum(rng, m, n, sigma))


def test_singular_values_match_the_full_svd(rng):
    for name, a in spectral_test_matrices(rng).items():
        want = np.linalg.svd(a, compute_uv=False)
        got = singular_values(a)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want[0],
                                   err_msg=name)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            singular_values(np.array([[1.0, bad, 0.0], [0.0, 1.0, 2.0]]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_top_singular_pair_matches_dense(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 30))))
    res = top_singular_pair(a)
    s = np.linalg.svd(a, compute_uv=False)
    assert res.converged
    assert abs(res.sigma - s[0]) <= 1e-7 * max(1.0, s[0])
    assert np.linalg.norm(a @ res.v - res.sigma * res.u) <= 1e-6 * max(1.0, s[0])
    assert np.linalg.norm(a.T @ res.u - res.sigma * res.v) <= 1e-6 * max(1.0, s[0])


def _near_degenerate(rng, m, n):
    # sigma_1 / sigma_2 = 1 + 1e-6, the rest spread below
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.linspace(1.0, 0.1, min(m, n))
    s[0] = 1.0 + 1e-6
    return (q1[:, :s.size] * (3.0 * s)) @ q2[:, :s.size].T


def test_top_singular_pair_is_exact(rng):
    low = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 14))
    cases = {
        "wide": rng.standard_normal((12, 16)),
        "tall": rng.standard_normal((40, 7)),
        "one_row": rng.standard_normal((1, 11)),
        "one_col": rng.standard_normal((8, 1)),
        "rank_deficient_wide": low,
        "rank_deficient_tall": low.T,
        "near_degenerate_wide": _near_degenerate(rng, 10, 25),
        "near_degenerate_tall": _near_degenerate(rng, 30, 6),
        # the Gram of these would overflow or underflow unscaled
        "huge": 1e200 * rng.standard_normal((6, 9)),
        "tiny": 1e-170 * rng.standard_normal((9, 6)),
    }
    for name, a in cases.items():
        res = top_singular_pair(a)
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert res.converged and not res.degenerate, name
        assert abs(res.sigma - want) <= 1e-12 * want, name
        # residuals relative to sigma, formed so that "huge" does not overflow
        assert np.linalg.norm((a @ res.v - res.sigma * res.u) / want) <= 1e-12, name
        assert np.linalg.norm((a.T @ res.u - res.sigma * res.v) / want) <= 1e-12, name


def test_top_singular_pair_rank_one_exact(rng):
    for m, n in ((8, 11), (1, 11), (8, 1)):
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        a = np.outer(u, v)
        res = top_singular_pair(a)
        want = np.linalg.norm(u) * np.linalg.norm(v)
        assert res.converged
        assert abs(res.sigma - want) <= 1e-10 * want
        assert np.linalg.norm(a @ res.v - res.sigma * res.u) <= 1e-10 * want
        assert np.linalg.norm(a.T @ res.u - res.sigma * res.v) <= 1e-10 * want


def test_top_singular_pair_zero_operator():
    res = top_singular_pair(np.zeros((4, 5)))
    assert res.converged and res.degenerate
    assert res.sigma == 0.0
    assert np.isclose(np.linalg.norm(res.u), 1.0)
    assert np.isclose(np.linalg.norm(res.v), 1.0)


def test_top_singular_pair_input_checks():
    with pytest.raises(ValueError):
        top_singular_pair(np.zeros((0, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        a = np.ones((3, 5))
        a[1, 2] = bad
        with pytest.raises(ValueError):
            top_singular_pair(a)
        with pytest.raises(ValueError):
            top_singular_pair(a.T)


def test_top_singular_pair_atom_matches_dense_svd_on_solver_gradients(monkeypatch):
    # every gradient the solver decomposes on the desk ssr and scs-31 problems
    grads = []

    def spied(a):
        grads.append(np.array(a))
        return top_singular_pair(a)

    monkeypatch.setattr(gcg, "top_singular_pair", spied)
    desk = apps.SsrConfig(n=2, r=2, j=6, k=8, T=2000, sigma=0.05, seed=7)
    gcg.solve_homotopy(apps.ssr_problem(desk, apps.ssr_generate(desk), mu=0.1,
                                        lam=1.0), gcg.GcgConfig())
    scs = apps.ScsConfig(n1=31, n2=31, r=3, k1=6, k2=6, obs_fraction=0.4,
                         snr=10.0, seed=3)
    gcg.solve(apps.scs_problem(scs, apps.scs_generate(scs), mu=0.1),
              gcg.GcgConfig(max_iter=3))
    assert {a.shape for a in grads} == {(12, 16), (36, 676)}
    for a in grads:
        res = top_singular_pair(a)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        assert abs(res.sigma - s[0]) <= 1e-12 * s[0]
        gap = np.linalg.norm(np.outer(res.u, res.v) - np.outer(u[:, 0], vt[0]))
        assert gap <= 1e-12


# The LAPACK kernels against the numpy and scipy wrappers they replace, on
# the same inputs.  They make the wrappers' LAPACK calls with the same
# workspace and return the same memory order, so every result is pinned bit
# for bit.  Inputs above DIRECT_LAPACK_MAX_ENTRIES take numpy's wrapper
# itself; those cases include LAPACK's blocked paths (a dimension above
# 128), where a smaller workspace would change the bits.

def _wrapped_factor_svd(factors):
    qu, ru = np.linalg.qr(factors.U)
    qv, rv = np.linalg.qr(factors.V.T)
    uc, s, vct = np.linalg.svd(ru @ rv.T, full_matrices=False)
    return qu @ uc, s, vct @ qv.T


def _wrapped_top_pair(a):
    # scipy's subset eigh up to the direct dsyevr's bound, numpy's eigh above
    s, scale, left = _short_side(a, "test")
    k = s.shape[0]
    if k <= TOP_PAIR_DIRECT_MAX_SIDE:
        w = scipy.linalg.eigh(s @ s.T, subset_by_index=[k - 1, k - 1])[1][:, 0]
    else:
        w = np.linalg.eigh(s @ s.T)[1][:, -1]
    x = s.T @ w
    norm = float(np.linalg.norm(x))
    x = np.eye(1, s.shape[1])[0] if norm == 0.0 else x / norm
    return scale * norm, *((w, x) if left else (x, w))


def _assert_same_arrays(got, want, name):
    assert len(got) == len(want), name
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.flags.c_contiguous == w.flags.c_contiguous, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def _factor_cases(rng):
    # (U, V) by name: U is rows x rank, V rank x cols
    def pair(m, r, n):
        return rng.standard_normal((m, r)), rng.standard_normal((r, n))
    return {
        "desk": pair(12, 4, 16),
        "tall": pair(16, 4, 12),
        "rank_above_rows": pair(5, 9, 7),
        "rank_above_both": pair(3, 11, 4),
        "rank_one": pair(12, 1, 16),
        "zero": (np.zeros((12, 3)), np.zeros((3, 16))),
        "at_the_bound": pair(32, 32, 32),  # every input 1,024 entries
        "one_column_long": pair(1024, 1, 3),
        "core_40": pair(36, 40, 676),  # scs-31 past its 36 rows
        "core_130": pair(130, 130, 140),  # blocked QR and bidiagonalization
    }


def test_thin_qr_is_numpys_qr(rng):
    cases = {name: u for name, (u, v) in _factor_cases(rng).items()}
    cases.update({f"{name}_wide": v for name, (u, v) in _factor_cases(rng).items()})
    cases["fortran_view"] = rng.standard_normal((16, 4)).T
    for name, a in cases.items():
        before = a.copy()
        _assert_same_arrays(_thin_qr(a), np.linalg.qr(a), name)
        np.testing.assert_array_equal(a, before, err_msg=name)


def test_svd_kernel_is_numpys_svd(rng):
    for name, (u, v) in _factor_cases(rng).items():
        for a in (u, v, u @ v):
            before = a.copy()
            _assert_same_arrays(_svd(a), np.linalg.svd(a, full_matrices=False), name)
            _assert_same_arrays([_svd(a, compute_uv=False)],
                                [np.linalg.svd(a, compute_uv=False)], name)
            np.testing.assert_array_equal(a, before, err_msg=name)


def test_lapack_is_called_directly_up_to_the_bound(rng, monkeypatch):
    # numpy's wrapper above it, whose LAPACK is numpy's own OpenBLAS
    calls = []
    for name in ("dgeqrf", "dgesdd"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    for shape in ((1024, 1), (32, 32), (4, 256)):
        for extra in (0, 1):
            a = rng.standard_normal((shape[0] + extra, shape[1]))
            direct = a.size <= DIRECT_LAPACK_MAX_ENTRIES
            calls.clear()
            _thin_qr(a)
            assert calls == ["dgeqrf"] * direct, a.shape
            calls.clear()
            _svd(a)
            _svd(a, compute_uv=False)
            assert calls == ["dgesdd"] * (2 * direct), a.shape


def test_factor_svd_is_the_wrapped_thin_svd(rng):
    for name, (u, v) in _factor_cases(rng).items():
        factors = FactorPair(u, v)
        _assert_same_arrays(factor_svd(factors), _wrapped_factor_svd(factors), name)
    # rank 0 takes no QR: test_objective's test_factor_svd_matches_dense


def _spectral_cases(rng):
    cases = dict(spectral_test_matrices(rng))
    cases.update({
        "desk": rng.standard_normal((12, 16)),
        "desk_tall": rng.standard_normal((16, 12)),
        "scs_31": rng.standard_normal((36, 676)),
        "under_4096": rng.standard_normal((63, 65)),
        "core_130": rng.standard_normal((130, 140)),
    })
    # peaks outside 2^-100 .. 2^101, which _short_side rescales
    for e in (-300, -120, 120, 300):
        cases[f"peak_2^{e}"] = np.ldexp(rng.standard_normal((9, 13)), e)
    return cases


def test_singular_values_are_the_wrapped_svd(rng):
    # below 4,096 entries; above, singular_values takes the Gram route
    checked = 0
    for name, a in _spectral_cases(rng).items():
        s, scale, _ = _short_side(a, "test")
        if s.size < 4096:
            want = scale * np.sort(np.linalg.svd(s, compute_uv=False))[::-1]
            np.testing.assert_array_equal(singular_values(a), want, err_msg=name)
            checked += 1
    assert checked >= 10


def test_top_singular_pair_takes_dsyevr_up_to_its_bound(rng, monkeypatch):
    # Short sides of 12, 36 and 64 (the desk, scs-31 and scs-101 lifts) take
    # the direct dsyevr, one of 100 numpy's eigh; either way, wide or tall,
    # the pair is the dense SVD's to 1e-12
    sides = []
    direct = linalg.dsyevr
    monkeypatch.setattr(linalg, "dsyevr",
                        lambda g, **kw: sides.append(g.shape[0]) or direct(g, **kw))
    for k in (12, 36, 64, 100):
        for a in (rng.standard_normal((k, k + 20)), rng.standard_normal((k + 20, k))):
            res = top_singular_pair(a)
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            assert abs(res.sigma - s[0]) <= 1e-12 * s[0], a.shape
            gap = np.linalg.norm(np.outer(res.u, res.v) - np.outer(u[:, 0], vt[0]))
            assert gap <= 1e-12, a.shape
    assert sides == [12, 12, 36, 36, 64, 64]


def test_top_singular_pair_is_the_wrapped_subset_eigh(rng):
    for name, a in _spectral_cases(rng).items():
        res = top_singular_pair(a)
        sigma, u, v = _wrapped_top_pair(a)
        assert res.sigma == sigma and res.degenerate == (sigma == 0.0), name
        np.testing.assert_array_equal(res.u, u, err_msg=name)
        np.testing.assert_array_equal(res.v, v, err_msg=name)
