"""Sparse containers, operators, and the iterative spectral routines."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from slrm.linalg import (SparseMatrix, as_operator, dense_svd, sparse_matmul,
                         spmv, spmv_t, top_eigenvalue, top_singular_pair,
                         unvec, vec)
from slrm.structure import block_hankel_spec, build_B, two_fold_hankel_spec


def test_vec_is_column_major():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(a), 2, 2), a)
    with pytest.raises(ValueError):
        unvec(np.ones(3), 2, 2)


def test_sparse_matrix_roundtrip(rng):
    dense = rng.standard_normal((5, 7)) * (rng.random((5, 7)) < 0.4)
    a = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(a.to_dense(), dense)
    assert a.shape == (5, 7)
    assert a.nnz == int(np.sum(dense != 0))
    np.testing.assert_array_equal(a.transpose().to_dense(), dense.T)
    np.testing.assert_array_equal(SparseMatrix.eye(3).to_dense(), np.eye(3))


def test_from_coo_sums_duplicates():
    a = SparseMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
    np.testing.assert_array_equal(a.to_dense(), [[0.0, 5.0], [1.0, 0.0]])


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])            # offsets wrong length
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [0, 2], [0, 2], [1.0, 1.0])    # column out of range
    with pytest.raises(ValueError):
        SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 1.0])    # not strictly increasing
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [0, 1], [0], [np.inf])
    with pytest.raises(ValueError):                        # after an empty row
        SparseMatrix(2, 3, [0, 0, 2], [2, 1], [1.0, 1.0])


def test_sparse_matrix_accepts_empty_rows():
    # leading, inner and trailing empty rows put offsets at 0 and at nnz
    dense = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 3.0], [0.0, 0.0, 0.0],
                      [4.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(SparseMatrix.from_dense(dense).to_dense(), dense)
    np.testing.assert_array_equal(SparseMatrix.from_dense(dense[1:4]).to_dense(),
                                  dense[1:4])


def test_spmv_matches_scipy(rng):
    dense = rng.standard_normal((6, 4))
    a = SparseMatrix.from_dense(dense)
    x = rng.standard_normal(4)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(spmv(a, x), dense @ x, atol=1e-13)
    np.testing.assert_allclose(spmv_t(a, y), dense.T @ y, atol=1e-13)
    op = as_operator(a)
    np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-13)
    np.testing.assert_allclose(op.rmatvec(y), dense.T @ y, atol=1e-13)


@pytest.mark.parametrize("shape", [(7, 4), (4, 9), (1, 6), (6, 1)])
def test_spmv_t_is_the_scipy_adjoint_bitwise(rng, shape):
    # bit equality with scipy's own CSC view keeps solver traces identical
    dense = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
    dense[rng.integers(shape[0]), :] = 0.0      # an empty row
    dense[:, rng.integers(shape[1])] = 0.0      # an empty column
    a = SparseMatrix.from_dense(dense)
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
    empty = SparseMatrix(0, 5, [0], [], [])
    np.testing.assert_array_equal(empty.gram.to_dense(), np.zeros((5, 5)))


def test_sparse_matmul(rng):
    a = SparseMatrix.from_dense(rng.standard_normal((3, 5)))
    b = SparseMatrix.from_dense(rng.standard_normal((5, 2)))
    np.testing.assert_allclose(sparse_matmul(a, b).to_dense(),
                               a.to_dense() @ b.to_dense(), atol=1e-13)
    with pytest.raises(ValueError):
        sparse_matmul(a, a)


def test_dense_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        dense_svd(np.array([[1.0, np.nan]]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_top_singular_pair_matches_dense(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 30))))
    res = top_singular_pair(a, seed=seed)
    s = np.linalg.svd(a, compute_uv=False)
    assert res.converged
    assert abs(res.sigma - s[0]) <= 1e-7 * max(1.0, s[0])
    assert np.linalg.norm(a @ res.v - res.sigma * res.u) <= 1e-6 * max(1.0, s[0])
    assert np.linalg.norm(a.T @ res.u - res.sigma * res.v) <= 1e-6 * max(1.0, s[0])


def test_top_singular_pair_rank_one_exact(rng):
    # a single row or column is rank one too; svds cannot take those
    for m, n in ((8, 11), (1, 11), (8, 1)):
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        a = np.outer(u, v)
        res = top_singular_pair(a, seed=3)
        want = np.linalg.norm(u) * np.linalg.norm(v)
        assert res.converged
        assert abs(res.sigma - want) <= 1e-10 * want
        assert np.linalg.norm(a @ res.v - res.sigma * res.u) <= 1e-10 * want
        assert np.linalg.norm(a.T @ res.u - res.sigma * res.v) <= 1e-10 * want


def test_top_singular_pair_zero_operator():
    res = top_singular_pair(np.zeros((4, 5)), seed=0)
    assert res.converged and res.degenerate
    assert res.sigma == 0.0
    assert np.isclose(np.linalg.norm(res.u), 1.0)
    assert np.isclose(np.linalg.norm(res.v), 1.0)


def test_top_singular_pair_budget_exhaustion(rng):
    a = rng.standard_normal((100, 100))
    s0 = np.linalg.svd(a, compute_uv=False)[0]
    res = top_singular_pair(a, tol=1e-14, max_iter=3, seed=0)
    assert not res.converged
    # the Ritz value from inside the subspace never overshoots
    assert 0.0 < res.sigma <= s0 * (1.0 + 1e-9)


def test_top_singular_pair_restart_path(rng):
    # one pass over ARPACK's 20-vector subspace takes 2 * 20 products, plus
    # the start check and the final A v; more means it restarted
    a = rng.standard_normal((60, 60))
    res = top_singular_pair(a, seed=1)
    assert res.iterations > 2 * 20 + 2
    s0 = np.linalg.svd(a, compute_uv=False)[0]
    assert res.converged
    assert abs(res.sigma - s0) <= 1e-7 * s0


def test_top_singular_pair_input_checks():
    with pytest.raises(ValueError):
        top_singular_pair(np.zeros((0, 3)))


def test_top_eigenvalue_matches_dense(rng):
    for _ in range(5):
        b = rng.standard_normal((12, 12))
        a = b @ b.T
        res = top_eigenvalue(a, seed=0)
        want = float(np.linalg.eigvalsh(a)[-1])
        assert res.converged
        assert abs(res.value - want) <= 1e-6 * want


def test_top_eigenvalue_checks_square():
    with pytest.raises(ValueError):
        top_eigenvalue(np.zeros((2, 3)))
    res = top_eigenvalue(np.zeros((3, 3)), seed=0)
    assert res.degenerate and res.value == 0.0
