"""Fixed reference kernels that measure how fast the machine is right now.

On a shared machine other tenants change single-thread speed by 20-40%
from one minute to the next, also in the fastest solves of a run.  The
benchmark times a reference kernel in the same run as the solves and scales
its timings by ``NOMINAL_S / best kernel time``, which cancels that drift.
The kernels do not use slrm, so a change to the solver moves the scaled
times in full.  Contention slows interpreter-bound code more than sparse or
dense numerics, so each workload is scaled by the kernel closest to its own
hot path:

- ``python``: many tiny CSR products and transposes through scipy, seeded
  generators, and QR and SVD of 2-column blocks, as in the desk-size ssr
  solves, where call overhead dominates;
- ``sparse``: CSR products and their transposes on a 24k-long vector and a
  dense product unrolled in column-major order, as in scs local search;
- ``dense``: a dense SVD and products of the scs-31 lift's size, as in APG.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Best kernel times on a quiet 2-core test VM with one BLAS thread.
NOMINAL_S = {"python": 0.007, "sparse": 0.0065, "dense": 0.009}


def _pair_rows(rows, cols, stride):
    """CSR matrix with a +1/-1 pair per row, like a structure matrix B."""
    idx = np.stack([np.arange(rows) * stride % cols,
                    (np.arange(rows) * stride + 1) % cols], 1)
    return sp.csr_matrix((np.tile([1.0, -1.0], rows), idx.ravel(),
                          np.arange(0, 2 * rows + 1, 2)), shape=(rows, cols))


class ReferenceKernel:
    def __init__(self, kind):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference kernel {kind!r}")
        rng = np.random.default_rng(0)
        self.kind = kind
        self.small = _pair_rows(180, 192, 5)
        self.large = _pair_rows(40000, 24336, 7)
        self.u = rng.standard_normal((36, 20))
        self.v = rng.standard_normal((20, 676))
        self.times: list[float] = []

    def run(self):
        """Time one pass of the kernel and keep the time."""
        t0 = time.perf_counter()
        getattr(self, "_" + self.kind)()
        self.times.append(time.perf_counter() - t0)

    def _python(self):
        x = np.ones(self.small.shape[1])
        for k in range(60):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=k, spawn_key=(k,)))
            y = self.small @ np.asarray(x, dtype=float)
            x = self.small.T @ y + 0.5 * x + 1e-3 * rng.standard_normal(x.size)
            x /= float(np.linalg.norm(x))
            q, r = np.linalg.qr(np.vstack([x[:96], x[96:]]).T)
            np.linalg.svd(r)
            np.hstack([q, q[:, :1]])

    def _sparse(self):
        y = np.ones(self.large.shape[1])
        for _ in range(18):
            y = 0.5 * y + 0.5 * (self.u @ self.v).ravel(order="F")
            y = self.large.T @ (self.large @ y)
            y /= np.linalg.norm(y)

    def _dense(self):
        x = self.u @ self.v
        for _ in range(8):
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            x = (u * np.maximum(s - 0.1 * s[0], 0.0)) @ vt + 0.01 * x

    def scale(self):
        """Factor that turns this run's wall seconds into reference seconds."""
        return NOMINAL_S[self.kind] / min(self.times)
