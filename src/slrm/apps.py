"""Experiment harnesses: stochastic system realization and spectral
compressed sensing.  This module generates and assembles; ``cli`` writes.

Both reduce to the same penalized recovery problem: pick a structure,
an observation map over its parameters, and a target vector.  Random
draws are split into independent substreams keyed on the config seed so
adding a draw in one place never shifts the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .linalg import SparseMatrix, vec
from .objective import PenaltyProblem, assemble
from .structure import block_hankel_spec, two_fold_hankel_spec

# substream ids
_STREAM_SYSTEM = 0
_STREAM_TRAJECTORY = 1
_STREAM_MEASUREMENT = 2
_STREAM_SIGNAL = 0
_STREAM_MASK = 1
_STREAM_NOISE = 2


def substream(seed, stream):
    """Independent generator for one purpose under a shared seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),)))


@dataclass(frozen=True)
class SsrConfig:
    n: int            # output dimension
    r: int            # true system order
    j: int            # block rows of the covariance window
    k: int            # block columns; lags 1..k are observed
    T: int = 1000     # trajectory length
    sigma: float = 0.05
    seed: int = 0


@dataclass
class SsrData:
    v: np.ndarray               # (j+k-1, n, n) covariance blocks, zero where unobserved
    w: np.ndarray               # (j+k-1,) 0/1 block observation mask
    true_system: Optional[tuple] = None   # (D, E, F) that generated v, if known


class ScsData(NamedTuple):
    signal: np.ndarray          # exact n1 x n2 grid
    omega: np.ndarray           # sorted column-major indices of observed entries
    observed: np.ndarray        # noisy grid, zero off omega


def _unit_nuclear(a):
    s = np.linalg.svd(a, compute_uv=False).sum()
    if s == 0.0:
        raise ValueError("cannot normalize a zero matrix")
    return a / s


def random_system(n, r, rng):
    """Random (D, E, F), each scaled to unit nuclear norm.

    For r > 1 the state matrix then has spectral radius below one, so the
    process is stationary.  At r = 1 the normalization makes D = +1 or -1:
    the state is a random walk, not stationary, and the Lyapunov solve of
    ``analytic_covariances`` is singular.
    """
    d = _unit_nuclear(rng.standard_normal((r, r)))
    e = _unit_nuclear(rng.standard_normal((r, n)))
    f = _unit_nuclear(rng.standard_normal((n, r)))
    return d, e, f


def simulate_outputs(system, T, sigma, state_rng, noise_rng):
    """Observed outputs of the driven state-space recursion, shape (n, T).

    z_t = F s_t + u_t with s_{t+1} = D s_t + E u_t, started from a standard
    normal state; measurement noise sigma is added afterwards.  The initial
    state and then all T inputs are drawn in one call each: the same numbers,
    and the same generator state after, as T calls of one input each.

    The states come from a doubling scan over c_0 = s_0, c_t = E u_{t-1}.
    After the pass with step k, column t holds the sum of D^i c_{t-i} over
    i < 2k, i <= t, so ceil(log2(T+1)) passes give every s_t.  Since
    ||D||_2 <= ||D||_* = 1, the powers of D never grow.
    """
    d, e, f = system
    r, n = e.shape
    s0 = state_rng.standard_normal(r)
    u = state_rng.standard_normal((T, n)).T
    # column t is s_t; the last column, s_T, is dropped at the end
    s = np.concatenate([s0[:, None], e @ u], axis=1)
    step, dpow = 1, d
    while step < s.shape[1]:
        s[:, step:] += dpow @ s[:, :-step]
        step, dpow = 2 * step, dpow @ dpow
    z = f @ s[:, :T] + u
    if sigma:
        z = z + sigma * noise_rng.standard_normal((n, T))
    return z


def empirical_covariances(zbar, j, k):
    """Lagged covariance blocks (1/T) sum z_{t+i} z_t^T for lags 1..k.

    Returns (j+k-1, n, n); lags beyond k stay zero to match the
    observation mask.
    """
    n, T = zbar.shape
    n_blocks = j + k - 1
    v = np.zeros((n_blocks, n, n))
    for i in range(1, min(k, T - 1) + 1):
        v[i - 1] = (zbar[:, i:] @ zbar[:, : T - i].T) / T
    return v


def analytic_covariances(system, n_blocks):
    """Exact covariance blocks of the stationary process via a Lyapunov solve."""
    d, e, f = system
    p = scipy.linalg.solve_discrete_lyapunov(d, e @ e.T)
    g = d @ p @ f.T + e
    v = np.empty((n_blocks, f.shape[0], f.shape[0]))
    dpow = np.eye(d.shape[0])
    for i in range(n_blocks):
        v[i] = f @ dpow @ g
        dpow = d @ dpow
    return v


def ssr_generate(cfg: SsrConfig) -> SsrData:
    if cfg.T <= cfg.k:
        raise ValueError("T must exceed k, or the last lags have no samples")
    if not 0.0 <= cfg.sigma < np.inf:
        raise ValueError("sigma must be non-negative and finite")
    system = random_system(cfg.n, cfg.r, substream(cfg.seed, _STREAM_SYSTEM))
    zbar = simulate_outputs(system, cfg.T, cfg.sigma,
                            substream(cfg.seed, _STREAM_TRAJECTORY),
                            substream(cfg.seed, _STREAM_MEASUREMENT))
    v = empirical_covariances(zbar, cfg.j, cfg.k)
    w = np.zeros(cfg.j + cfg.k - 1)
    w[: cfg.k] = 1.0
    return SsrData(v=v, w=w, true_system=system)


def _selection_matrix(indices, width):
    indices = np.asarray(indices, dtype=np.int64)
    return SparseMatrix((np.ones(indices.size), indices,
                         np.arange(indices.size + 1)), shape=(indices.size, width))


def ssr_problem(cfg: SsrConfig, data: SsrData, mu, lam=1.0) -> PenaltyProblem:
    """Penalized recovery problem over the block-Hankel covariance structure.

    The observation selects every scalar of the first k blocks, in the same
    blockwise column-major order the structure uses for its parameters.
    """
    spec = block_hankel_spec(cfg.n, cfg.n, cfg.j, cfg.k)
    nn = cfg.n * cfg.n
    cols = (np.arange(cfg.k)[:, None] * nn + np.arange(nn)[None, :]).ravel()
    target = np.concatenate([data.v[t].ravel(order="F") for t in range(cfg.k)])
    return assemble(spec, _selection_matrix(cols, spec.n_params), target, lam, mu)


@dataclass(frozen=True)
class ScsConfig:
    n1: int
    n2: int
    r: int            # number of sinusoids
    k1: int           # window rows of the two-fold structure
    k2: int
    obs_fraction: float = 0.2
    snr: float = 10.0
    seed: int = 0


def sinusoid_grid(n1, n2, f1, f2, phases, amps=None):
    """Real sinusoid superposition on a 0-based n1 x n2 grid."""
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    phases = np.asarray(phases, dtype=float)
    amps = np.ones_like(f1) if amps is None else np.asarray(amps, dtype=float)
    a = np.arange(n1)[:, None, None]
    b = np.arange(n2)[None, :, None]
    args = 2.0 * np.pi * (a * f1 + b * f2) + phases
    return np.sum(amps * np.cos(args), axis=2)


def scs_generate(cfg: ScsConfig) -> ScsData:
    if cfg.r < 1:
        raise ValueError("r must be at least 1, or the signal is zero")
    if not 0.0 < cfg.snr < np.inf:
        raise ValueError("snr must be positive and finite")
    if not 0.0 < cfg.obs_fraction <= 1.0:
        raise ValueError("obs_fraction must lie in (0, 1]")
    rng_sig = substream(cfg.seed, _STREAM_SIGNAL)
    f1 = rng_sig.uniform(0.0, 1.0, cfg.r)
    f2 = rng_sig.uniform(0.0, 1.0, cfg.r)
    phases = rng_sig.uniform(0.0, 2.0 * np.pi, cfg.r)
    signal = sinusoid_grid(cfg.n1, cfg.n2, f1, f2, phases)

    total = cfg.n1 * cfg.n2
    count = int(round(cfg.obs_fraction * total))
    if count == 0:
        raise ValueError("obs_fraction leaves nothing to observe")
    omega = np.sort(substream(cfg.seed, _STREAM_MASK).choice(total, size=count,
                                                             replace=False))
    flat = vec(signal)
    noise = substream(cfg.seed, _STREAM_NOISE).standard_normal(count)
    scale = np.linalg.norm(flat[omega]) / (cfg.snr * np.linalg.norm(noise))
    observed_flat = np.zeros(total)
    observed_flat[omega] = flat[omega] + scale * noise
    observed = observed_flat.reshape((cfg.n1, cfg.n2), order="F")
    return ScsData(signal=signal, omega=omega, observed=observed)


def scs_problem(cfg: ScsConfig, data: ScsData, mu, lam=1.0) -> PenaltyProblem:
    """Recovery problem over the two-fold Hankel lift of the signal grid."""
    spec = two_fold_hankel_spec(cfg.n1, cfg.n2, cfg.k1, cfg.k2)
    target = vec(data.observed)[data.omega]
    return assemble(spec, _selection_matrix(data.omega, spec.n_params), target,
                    lam, mu)

