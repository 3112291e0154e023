"""Structure encodings: the index map, constraint matrix B, recovery matrix C."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slrm.linalg import SparseMatrix, unvec, vec
from slrm.structure import (RecoveryMode, StructureSpec, apply_structure,
                            block_hankel_spec, build_B, build_C,
                            constraint_gram_norm, hankel_spec,
                            project_to_image, two_fold_hankel_spec)

from conftest import assorted_specs


def _supports(spec):
    """The supports, one array each, split off the spec's index map."""
    return np.split(spec.support_positions, np.cumsum(spec.support_sizes)[:-1])


def test_hankel_entries():
    j, k = 4, 6
    spec = hankel_spec(j, k)
    y = np.arange(1.0, j + k)
    h = apply_structure(spec, y)
    for r in range(j):
        for c in range(k):
            assert h[r, c] == y[r + c]


def test_block_hankel_entries():
    m, n, j, k = 2, 3, 3, 4
    spec = block_hankel_spec(m, n, j, k)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(spec.n_params)
    h = apply_structure(spec, y)
    # parameter of entry (a, b) in block t is t*m*n + b*m + a
    for r in range(m * j):
        for c in range(n * k):
            t = r // m + c // n
            p = t * m * n + (c % n) * m + (r % m)
            assert h[r, c] == y[p]


def test_two_fold_entries():
    n1, n2, k1, k2 = 5, 6, 3, 4
    spec = two_fold_hankel_spec(n1, n2, k1, k2)
    rng = np.random.default_rng(1)
    grid = rng.standard_normal((n1, n2))
    h = apply_structure(spec, vec(grid))
    w2 = n2 - k2 + 1
    for i1 in range(k1):
        for i2 in range(k2):
            for j1 in range(n1 - k1 + 1):
                for j2 in range(w2):
                    assert h[i1 * k2 + i2, j1 * w2 + j2] == grid[i1 + j1, i2 + j2]


def test_two_fold_window_bounds():
    with pytest.raises(ValueError):
        two_fold_hankel_spec(3, 3, 4, 2)
    with pytest.raises(ValueError):
        two_fold_hankel_spec(3, 3, 2, 4)


def test_spec_validation_rejects_bad_supports():
    cases = [  # (positions, sizes, zero positions, message) on a 2 x 2 matrix
        ([0, 3], [1, 0, 1], [], "support 1 is empty"),
        ([0, 1, 1, 2], [2, 2], [], "overlap"),
        ([0, 4], [1, 1], [], "out of range"),
        ([-1, 0], [1, 1], [], "out of range"),
        ([1, 0], [2], [], "support 0 is not sorted strictly ascending"),
        ([0, 1, 1], [1, 2], [], "support 1 is not sorted strictly ascending"),  # repeat
        ([0], [1], [0], "overlap"),            # zero position clashes with a support
        ([0, 2, 1], [1, 2, 0], [], "support 1 is not sorted"),  # first bad support wins
        ([0, 2, 1], [1, 0, 2], [], "support 1 is empty"),
        ([1, 0, 7], [2, 1], [], "support 0 is not sorted"),     # order before range
        ([0, 9, 0], [2, 1], [], "out of range"),                # range before overlap
        ([0, 1, 2], [1, 1], [], "add up to the number of positions"),
        ([0, 1], [3, -1], [], "non-negative"),
        # the int64 cast would read these as positions [0, 1, 3] and zero [2]
        ([0.0, 1.7, 3.2], [2, 1], [2.9], "support_positions must be .* integers"),
        ([0, 1, 3], [1.5, 1.5], [], "support_sizes must be .* integers"),
        ([0, 3], [1, 1], [2.5], "zero_positions must be .* integers"),
        ([[0, 3]], [2], [], "support_positions must be a 1-D array"),
    ]
    for positions, sizes, zeros, message in cases:
        with pytest.raises(ValueError, match=message):
            StructureSpec(2, 2, positions, sizes, zero_positions=zeros)
    with pytest.raises(ValueError, match="positive dimensions"):
        StructureSpec(0, 2, [0], [1])
    # integral floats are integers, and empty lists are empty arrays
    spec = StructureSpec(2, 2, [0.0, 3.0], [1.0, 1.0], zero_positions=[2.0])
    for got, want in ((spec.support_positions, [0, 3]), (spec.support_sizes, [1, 1]),
                      (spec.zero_positions, [2])):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    empty = StructureSpec(2, 2, [], [], zero_positions=[])
    assert empty.n_params == 0 and build_B(empty).shape == (0, 4)


def test_supports_may_drop_from_one_to_the_next():
    spec = StructureSpec(2, 2, [2, 3, 0, 1], [2, 2])
    np.testing.assert_array_equal(spec.support_positions, [2, 3, 0, 1])
    np.testing.assert_array_equal(build_C(spec, RecoveryMode.SPARSE).to_dense(),
                                  [[0.0, 0.0, 1.0, 0.0],
                                   [1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(build_C(spec).to_dense(),
                                  [[0.0, 0.0, 0.5, 0.5],
                                   [0.5, 0.5, 0.0, 0.0]])
    spec = StructureSpec(2, 3, [5, 1, 3, 0, 4], [1, 2, 2], zero_positions=[2])
    np.testing.assert_array_equal(build_B(spec).to_dense() @ np.arange(6.0),
                                  [-2.0, -4.0, 2.0])


def _random_spec(rng):
    which = rng.integers(3)
    if which == 0:
        return hankel_spec(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    if which == 1:
        return block_hankel_spec(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                 int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    n1 = int(rng.integers(1, 8))
    n2 = int(rng.integers(1, 8))
    return two_fold_hankel_spec(n1, n2, int(rng.integers(1, n1 + 1)),
                                int(rng.integers(1, n2 + 1)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    """B annihilates structured matrices exactly; C reads parameters back."""
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng)
    y = rng.standard_normal(spec.n_params)
    q = apply_structure(spec, y)
    bq = build_B(spec).to_scipy() @ vec(q)
    if bq.size:
        assert np.max(np.abs(bq)) == 0.0
    for mode in RecoveryMode:
        got = build_C(spec, mode).to_scipy() @ vec(q)
        assert np.max(np.abs(got - y)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_of_B_is_exactly_the_image(seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng)
    b = build_B(spec).to_dense()
    size = spec.rows * spec.cols
    # dimension: nullity of B equals the parameter count (no forced zeros here)
    assert size - np.linalg.matrix_rank(b) == spec.n_params if b.size else True
    # membership: B x = 0 forces X = Q(C x)
    x = rng.standard_normal((spec.rows, spec.cols))
    xp = project_to_image(spec, x)
    assert np.max(np.abs(b @ vec(xp))) <= 1e-12 if b.size else True


def test_constraint_gram_norm_is_the_top_eigenvalue_of_BtB():
    rng = np.random.default_rng(5)
    specs = list(assorted_specs().items())
    specs += [(f"random_{i}", _random_spec(rng)) for i in range(20)]
    for name, spec in specs:
        b = build_B(spec).to_dense()
        want = np.linalg.eigvalsh(b.T @ b)[-1]
        np.testing.assert_allclose(constraint_gram_norm(spec), want, rtol=1e-12,
                                   atol=1e-14, err_msg=name)


def _build_B_loop(spec):
    """B from one support at a time: the oracle for the masked build."""
    rows, cols, vals = [], [], []
    r = 0
    for s in _supports(spec):
        for a, b in zip(s[:-1], s[1:]):
            rows += [r, r]
            cols += [a, b]
            vals += [1.0, -1.0]
            r += 1
    for z in spec.zero_positions:
        rows.append(r)
        cols.append(z)
        vals.append(1.0)
        r += 1
    return SparseMatrix((vals, (rows, cols)), shape=(r, spec.rows * spec.cols))


def _build_C_loop(spec, mode):
    """C from one support at a time: the oracle for the CSR build."""
    rows, cols, vals = [], [], []
    for k, s in enumerate(_supports(spec)):
        picked = s if mode is RecoveryMode.PROJECTION else s[:1]
        rows += [k] * picked.size
        cols += list(picked)
        vals += [1.0 / picked.size] * picked.size
    return SparseMatrix((vals, (rows, cols)), shape=(spec.n_params, spec.rows * spec.cols))


def _oracle_specs():
    rng = np.random.default_rng(8)
    specs = list(assorted_specs().items()) + [
        ("ssr_desk", block_hankel_spec(2, 2, 6, 8)),
        ("scs_31", two_fold_hankel_spec(31, 31, 6, 6)),
        ("drops", StructureSpec(2, 3, [5, 1, 3, 0, 4], [1, 2, 2], zero_positions=[2])),
    ]
    return specs + [(f"random_{i}", _random_spec(rng)) for i in range(20)]


def _assert_same_csr(got, want, name):
    got, want = got.to_scipy(), want.to_scipy()
    assert got.shape == want.shape, name
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, (name, attr)
        np.testing.assert_array_equal(a, b, err_msg=f"{name} {attr}")


def test_B_csr_arrays_match_the_loop():
    for name, spec in _oracle_specs():
        _assert_same_csr(build_B(spec), _build_B_loop(spec), name)


def test_C_csr_arrays_match_the_loop():
    for name, spec in _oracle_specs():
        for mode in RecoveryMode:
            _assert_same_csr(build_C(spec, mode), _build_C_loop(spec, mode), (name, mode))


def test_B_row_count_and_values():
    spec = block_hankel_spec(2, 2, 3, 3)
    b = build_B(spec)
    expected_rows = sum(s.size - 1 for s in _supports(spec))
    assert b.shape == (expected_rows, spec.rows * spec.cols)
    dense = b.to_dense()
    assert np.all(np.sum(dense != 0, axis=1) == 2)
    assert np.all(np.sum(dense, axis=1) == 0)   # one +1 and one -1 per row


def test_zero_positions_are_enforced():
    # free corner parameters, rest forced to zero
    spec = StructureSpec(2, 2, [0, 3], [1, 1], zero_positions=[1, 2])
    y = np.array([2.0, -1.0])
    q = apply_structure(spec, y)
    assert q[1, 0] == 0.0 and q[0, 1] == 0.0
    b = build_B(spec).to_dense()
    assert b.shape[0] == 2          # only the two forced-zero rows
    x = np.ones((2, 2))
    assert np.any(b @ vec(x) != 0)
    assert np.all(b @ vec(q) == 0)


def test_recovery_matrices_hankel_2x3():
    """The 2 x 3 Hankel recovery matrices, written out entry by entry."""
    spec = hankel_spec(2, 3)
    c_proj = build_C(spec, RecoveryMode.PROJECTION).to_dense()
    c_sp = build_C(spec, RecoveryMode.SPARSE).to_dense()
    want_proj = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    want_sp = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    np.testing.assert_array_equal(c_proj, want_proj)
    np.testing.assert_array_equal(c_sp, want_sp)


def test_projection_matches_least_squares(rng):
    """Q(C_proj vec(X)) is the closest structured matrix to X."""
    for spec in (hankel_spec(3, 4), two_fold_hankel_spec(4, 4, 2, 3)):
        basis = np.zeros((spec.rows * spec.cols, spec.n_params))
        for p, s in enumerate(_supports(spec)):
            basis[s, p] = 1.0
        for _ in range(5):
            x = rng.standard_normal((spec.rows, spec.cols))
            oracle = basis @ np.linalg.lstsq(basis, vec(x), rcond=None)[0]
            got = project_to_image(spec, x)
            assert np.linalg.norm(vec(got) - oracle) <= 1e-10


def test_projection_idempotent(rng):
    spec = hankel_spec(4, 5)
    x = rng.standard_normal((4, 5))
    once = project_to_image(spec, x)
    np.testing.assert_allclose(project_to_image(spec, once), once, atol=1e-14)


def test_cached_supports_are_read_only_and_match_the_loop():
    # parameter 0 on the diagonal, 1 and 2 above it, forced zeros below
    given = [np.array([0, 4, 8, 3, 7, 6]), np.array([3, 2, 1]), np.array([1, 2, 5])]
    spec = StructureSpec(3, 3, *given[:2], zero_positions=given[2])
    pos, sizes = spec.support_positions, spec.support_sizes
    assert spec.support_positions is pos and spec.support_sizes is sizes
    np.testing.assert_array_equal(pos, [0, 4, 8, 3, 7, 6])
    np.testing.assert_array_equal(sizes, [3, 2, 1])
    for arr in (pos, sizes, spec.zero_positions):
        with pytest.raises(ValueError):
            arr[0] = 1
    for arr in given:               # the spec froze copies, not the caller's arrays
        assert arr.flags.writeable
    given[0][0] = 1
    assert pos[0] == 0
    y = np.array([2.0, -1.0, 0.5])
    want = np.zeros(9)
    for k, s in enumerate(_supports(spec)):
        want[s] = y[k]
    np.testing.assert_array_equal(vec(apply_structure(spec, y)), want)
    x = np.arange(9.0).reshape(3, 3) ** 2
    np.testing.assert_array_equal(         # C weights each position by 1/size
        build_C(spec).to_scipy() @ vec(x),
        [np.add.reduce(vec(x)[s] * (1.0 / s.size)) for s in _supports(spec)])


@pytest.mark.parametrize("spec", [
    hankel_spec(4, 5), hankel_spec(1, 1 << 16), hankel_spec(2, 1 << 16),
    block_hankel_spec(2, 3, 3, 2), block_hankel_spec(2, 2, 6, 8),
    two_fold_hankel_spec(5, 6, 3, 4), two_fold_hankel_spec(31, 31, 6, 6),
], ids=["hankel", "hankel_65536_params", "hankel_65537_params", "block_hankel",
        "ssr_desk", "two_fold", "scs_31"])
def test_supports_match_an_int64_stable_argsort(spec):
    # the builders may sort narrower keys; the index map must be the int64
    # stable argsort of the parameter grid and the parameter counts, frozen
    grid = apply_structure(spec, np.arange(spec.n_params, dtype=float))
    flat = vec(grid).astype(np.int64)
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=spec.n_params)
    for got, want in ((spec.support_positions, order), (spec.support_sizes, counts),
                      (spec.zero_positions, [])):
        assert got.dtype == np.int64 and not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def test_sparse_mode_reads_first_occurrence():
    spec = hankel_spec(2, 2)
    x = np.array([[1.0, 5.0], [2.0, 3.0]])  # not structured: 5 != 2
    got = build_C(spec, RecoveryMode.SPARSE).to_scipy() @ vec(x)
    # column-major first occurrence of the middle parameter is position (1,0)
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_apply_structure_checks_length():
    with pytest.raises(ValueError):
        apply_structure(hankel_spec(2, 2), np.ones(5))
    with pytest.raises(ValueError):
        project_to_image(hankel_spec(2, 2), np.ones((3, 2)))
