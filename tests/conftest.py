import numpy as np
import pytest

from slrm.apps import _selection_matrix
from slrm.objective import assemble
from slrm.structure import (StructureSpec, block_hankel_spec, hankel_spec,
                            two_fold_hankel_spec)


def observed_problems(rng, lam, mu=0.3):
    """(name, problem) on each of ``assorted_specs``, half the parameters
    observed with random targets; B has no rows on hankel_one_row."""
    for name, spec in assorted_specs().items():
        n = spec.n_params
        idx = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        yield name, assemble(spec, _selection_matrix(idx, n),
                             rng.standard_normal(idx.size), lam, mu)


def dense_smooth_terms(prob, x):
    """(f, square loss, penalty) at a vectorized x, from the dense AC and B:
    0.5 |AC x - b|^2 and (lam/2) |B x|^2."""
    resid = prob.AC.to_dense() @ x - prob.target
    bx = prob.B.to_dense() @ x
    sq = 0.5 * float(resid @ resid)
    pen = 0.5 * prob.lam * float(bx @ bx)
    return sq + pen, sq, pen


def random_hankel_problem(rng, j=None, k=None, lam=0.7, mu=0.3, frac=1.0):
    """Small Hankel recovery problem with a random observed subset."""
    j = int(rng.integers(2, 6)) if j is None else j
    k = int(rng.integers(2, 6)) if k is None else k
    spec = hankel_spec(j, k)
    n_obs = max(1, int(round(frac * spec.n_params)))
    idx = np.sort(rng.choice(spec.n_params, size=n_obs, replace=False))
    target = rng.standard_normal(n_obs)
    return assemble(spec, _selection_matrix(idx, spec.n_params), target, lam, mu)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def spectral_test_matrices(rng):
    """Wide, tall, square, rank-deficient and zero matrices, by name."""
    low = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 12))
    return {
        "wide": rng.standard_normal((5, 40)),
        "tall": rng.standard_normal((40, 5)),
        "square": rng.standard_normal((6, 6)),
        "rank_deficient_wide": low,
        "rank_deficient_tall": low.T,
        "zero": np.zeros((4, 9)),
        "single_row": rng.standard_normal((1, 8)),
    }


def assorted_specs():
    """Specs covering each builder, forced zeros and uncovered positions, by name."""
    h = hankel_spec(3, 4)
    return {
        "hankel": hankel_spec(4, 5),
        "hankel_one_row": hankel_spec(1, 4),            # singletons only: B is empty
        "block_hankel": block_hankel_spec(2, 3, 3, 2),
        "two_fold": two_fold_hankel_spec(5, 6, 3, 4),
        "zeros_and_singletons": StructureSpec(2, 2, [0, 3], [1, 1], zero_positions=[1, 2]),
        # first anti-diagonal forced to zero, last one left free of any support
        "zeros_and_gaps": StructureSpec(3, 4, h.support_positions[1:-1],
                                        h.support_sizes[1:-1],
                                        zero_positions=h.support_positions[:1]),
    }
