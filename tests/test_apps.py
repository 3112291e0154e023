"""Experiment harnesses: data generation, wiring, and round trips."""

import csv

import numpy as np
import pytest

from slrm.apps import (ScsConfig, SsrConfig, analytic_covariances,
                       empirical_covariances, random_system, save_scs_data,
                       save_ssr_data, scs_generate, scs_problem,
                       simulate_outputs, sinusoid_grid, ssr_generate,
                       ssr_problem, substream)
from slrm.linalg import vec
from slrm.structure import apply_structure, two_fold_hankel_spec


def test_substreams_are_independent_and_stable():
    a = substream(3, 0).standard_normal(4)
    b = substream(3, 1).standard_normal(4)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, substream(3, 0).standard_normal(4))


def test_random_system_is_stable():
    rng = np.random.default_rng(5)
    d, e, f = random_system(3, 4, rng)
    for mat in (d, e, f):
        assert np.linalg.svd(mat, compute_uv=False).sum() == pytest.approx(1.0)
    assert np.max(np.abs(np.linalg.eigvals(d))) < 1.0
    assert d.shape == (4, 4) and e.shape == (4, 3) and f.shape == (3, 4)


def test_simulate_outputs_shapes_and_noise():
    sys_rng = np.random.default_rng(0)
    system = random_system(2, 3, sys_rng)
    clean = simulate_outputs(system, 50, 0.0, np.random.default_rng(1),
                             np.random.default_rng(2))
    noisy = simulate_outputs(system, 50, 0.1, np.random.default_rng(1),
                             np.random.default_rng(2))
    assert clean.shape == (2, 50)
    assert not np.allclose(clean, noisy)
    np.testing.assert_array_equal(
        clean, simulate_outputs(system, 50, 0.0, np.random.default_rng(1),
                                np.random.default_rng(2)))


def _simulate_outputs_loop(system, T, sigma, state_rng, noise_rng):
    """The recursion one time step at a time: the oracle for the scan."""
    d, e, f = system
    r, n = e.shape
    s = state_rng.standard_normal(r)
    z = np.empty((n, T))
    for t in range(T):
        u = state_rng.standard_normal(n)
        z[:, t] = f @ s + u
        s = d @ s + e @ u
    if sigma:
        z = z + sigma * noise_rng.standard_normal((n, T))
    return z


def _systems():
    """r = 1 (D = +1 and -1), r below n, r equal to n and r above n, by name."""
    d, e, f = random_system(2, 1, np.random.default_rng(3))
    assert abs(d[0, 0]) == 1.0       # unit nuclear norm of a 1 x 1 matrix
    return {
        "r1_plus": (np.abs(d), e, f),
        "r1_minus": (-np.abs(d), e, f),
        "r_below_n": random_system(3, 2, np.random.default_rng(4)),
        "r_equal_n": random_system(2, 2, np.random.default_rng(5)),
        "r_above_n": random_system(2, 5, np.random.default_rng(6)),
    }


@pytest.mark.parametrize("T", [1, 2, 3, 1000, 1025])
@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_simulate_outputs_scan_matches_the_loop(T, sigma):
    for name, system in _systems().items():
        state = [np.random.default_rng(11), np.random.default_rng(11)]
        noise = [np.random.default_rng(12), np.random.default_rng(12)]
        got = simulate_outputs(system, T, sigma, state[0], noise[0])
        want = _simulate_outputs_loop(system, T, sigma, state[1], noise[1])
        assert got.shape == want.shape == (system[2].shape[0], T)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)), err_msg=name)
        # the same draws leave both generators where the loop leaves them
        assert state[0].bit_generator.state == state[1].bit_generator.state, name
        assert noise[0].bit_generator.state == noise[1].bit_generator.state, name


def test_ssr_generate_rejects_parameters_that_give_false_data():
    base = dict(n=2, r=1, j=3, k=4, seed=0)
    for T in (-1, 0, 1, 4):          # lags up to k would have no samples
        with pytest.raises(ValueError, match="T must exceed k"):
            ssr_generate(SsrConfig(T=T, **base))
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            ssr_generate(SsrConfig(T=50, sigma=sigma, **base))
    data = ssr_generate(SsrConfig(T=5, sigma=0.0, **base))
    assert np.all(data.v[3] != 0.0)  # the last observed lag has one sample


def test_empirical_covariances_match_direct_sums(rng):
    z = rng.standard_normal((2, 30))
    j, k = 3, 4
    v = empirical_covariances(z, j, k)
    assert v.shape == (j + k - 1, 2, 2)
    for lag in range(1, k + 1):
        want = sum(np.outer(z[:, t + lag], z[:, t]) for t in range(30 - lag)) / 30
        np.testing.assert_allclose(v[lag - 1], want, atol=1e-12)
    assert np.all(v[k:] == 0.0)


def test_analytic_covariances_agree_with_a_long_simulation():
    system = random_system(1, 2, np.random.default_rng(7))
    exact = analytic_covariances(system, 4)
    z = simulate_outputs(system, 200_000, 0.0, np.random.default_rng(8),
                         np.random.default_rng(9))
    approx = empirical_covariances(z, 1, 4)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(exact - approx)) <= 0.05 * scale


def test_ssr_generate_masks_unobserved_lags():
    cfg = SsrConfig(n=2, r=2, j=4, k=3, T=200, sigma=0.05, seed=1)
    data = ssr_generate(cfg)
    assert data.v.shape == (6, 2, 2)
    np.testing.assert_array_equal(data.w, [1, 1, 1, 0, 0, 0])
    assert np.all(data.v[3:] == 0.0)
    assert any(np.any(block != 0) for block in data.v[:3])


def test_ssr_problem_targets_the_observed_blocks():
    cfg = SsrConfig(n=2, r=1, j=3, k=2, T=100, seed=0)
    data = ssr_generate(cfg)
    prob = ssr_problem(cfg, data, mu=0.1, lam=2.0)
    want = np.concatenate([data.v[t].ravel(order="F") for t in range(cfg.k)])
    np.testing.assert_array_equal(prob.target, want)
    assert prob.lam == 2.0 and prob.mu == 0.1
    assert (prob.rows, prob.cols) == (cfg.n * cfg.j, cfg.n * cfg.k)
    # the observation map reads exactly those parameters back off a structure
    y = np.random.default_rng(2).standard_normal(prob.spec.n_params)
    q = apply_structure(prob.spec, y)
    got = prob.observation.to_scipy() @ (prob.C.to_scipy() @ vec(q))
    np.testing.assert_allclose(got, y[: cfg.k * cfg.n * cfg.n], atol=1e-12)


def test_sinusoid_grid_matches_direct_loops():
    f1, f2 = [0.12, 0.4], [0.3, 0.05]
    ph = [0.5, 1.2]
    grid = sinusoid_grid(4, 5, f1, f2, ph)
    for a in range(4):
        for b in range(5):
            want = sum(np.cos(2 * np.pi * (a * f1[i] + b * f2[i]) + ph[i])
                       for i in range(2))
            assert grid[a, b] == pytest.approx(want, abs=1e-12)


def test_clean_signal_lifts_to_low_rank():
    # r real sinusoids give a two-fold Hankel rank of at most 2r
    cfg = ScsConfig(n1=16, n2=16, r=3, k1=5, k2=5, obs_fraction=0.5, seed=2)
    data = scs_generate(cfg)
    spec = two_fold_hankel_spec(cfg.n1, cfg.n2, cfg.k1, cfg.k2)
    h = apply_structure(spec, vec(data.signal))
    s = np.linalg.svd(h, compute_uv=False)
    assert s[2 * cfg.r] <= 1e-8 * s[0]


def test_scs_generate_mask_and_snr():
    cfg = ScsConfig(n1=12, n2=10, r=2, k1=4, k2=4, obs_fraction=0.3, snr=8.0,
                    seed=4)
    data = scs_generate(cfg)
    total = cfg.n1 * cfg.n2
    assert data.omega.size == round(0.3 * total)
    assert np.all(np.diff(data.omega) > 0)
    flat_clean = vec(data.signal)
    flat_obs = vec(data.observed)
    off = np.setdiff1d(np.arange(total), data.omega)
    assert np.all(flat_obs[off] == 0.0)
    noise = flat_obs[data.omega] - flat_clean[data.omega]
    snr_got = np.linalg.norm(flat_clean[data.omega]) / np.linalg.norm(noise)
    assert snr_got == pytest.approx(8.0, rel=1e-10)
    with pytest.raises(ValueError):
        scs_generate(ScsConfig(n1=4, n2=4, r=1, k1=2, k2=2, obs_fraction=0.0))
    for snr in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="snr"):
            scs_generate(ScsConfig(n1=4, n2=4, r=1, k1=2, k2=2, snr=snr))
    for obs in (-0.1, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="obs_fraction"):
            scs_generate(ScsConfig(n1=4, n2=4, r=1, k1=2, k2=2, obs_fraction=obs))
    for r in (0, -1):
        with pytest.raises(ValueError, match="r must be"):
            scs_generate(ScsConfig(n1=4, n2=4, r=r, k1=2, k2=2))


def test_scs_problem_wires_observed_entries():
    cfg = ScsConfig(n1=8, n2=8, r=2, k1=3, k2=3, obs_fraction=0.4, seed=6)
    data = scs_generate(cfg)
    prob = scs_problem(cfg, data, mu=0.2, lam=1.0)
    np.testing.assert_array_equal(prob.target, vec(data.observed)[data.omega])
    assert prob.spec.n_params == 64


def _read_csv(path, shape, keys, fields):
    """The ``fields`` columns of a CSV file as arrays indexed by ``keys``.

    Unwritten cells stay NaN, so a bitwise comparison also proves every
    cell was written.
    """
    out = {f: np.full(shape, np.nan) for f in fields}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == np.prod(shape)
    for rec in rows:
        at = tuple(int(rec[k]) for k in keys)
        for f in fields:
            out[f][at] = float(rec[f])
    return out


def _assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_ssr_csv_roundtrip(tmp_path):
    data = ssr_generate(SsrConfig(n=2, r=1, j=3, k=2, T=50, seed=3))
    path = tmp_path / "cov.csv"
    save_ssr_data(path, data)
    back = _read_csv(path, data.v.shape, ("block", "row", "col"),
                     ("value", "observed"))
    _assert_bitwise_equal(back["value"], data.v)      # repr round trip is exact
    _assert_bitwise_equal(back["observed"],
                          np.broadcast_to(data.w[:, None, None], data.v.shape).copy())


def test_scs_csv_roundtrip(tmp_path):
    data = scs_generate(ScsConfig(n1=6, n2=7, r=2, k1=2, k2=3,
                                  obs_fraction=0.5, seed=9))
    path = tmp_path / "sig.csv"
    save_scs_data(path, data)
    back = _read_csv(path, data.signal.shape, ("row", "col"),
                     ("value", "observed", "observed_value"))
    _assert_bitwise_equal(back["value"], data.signal)
    _assert_bitwise_equal(back["observed_value"], data.observed)
    np.testing.assert_array_equal(np.flatnonzero(vec(back["observed"])), data.omega)
