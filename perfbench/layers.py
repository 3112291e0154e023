"""Per-layer metrics of a traced run, and the end-to-end figure each should move.

Every metric is computed from the spans the tracer recorded.  Solve-phase
figures are per traced solve (sums divided by the number of traced solves),
set-up figures per traced set-up, so they do not grow with the number of
solves a run fits in.  Self time is a span's duration minus the time its
child spans cover.  ``_hess_x`` and ``_block_cg`` are private to ``gcg``
and not wrapped; their work is attributed by operand identity (``prob.AC``
against ``prob.B``) among the direct children of ``local_search`` spans.
Flops and bytes of the sparse products are computed from nnz, index widths
and vector lengths, not measured.

``PREDICTIONS`` holds, for each metric, the end-to-end metric and workload
it should move: the prediction a later change is held to.
"""

from __future__ import annotations

import numpy as np

from tracer import OPERANDS, PHASES

SPMV = ("linalg.spmv", "linalg.spmv_t")

# What each per-layer metric (as listed in BENCHMARK.json) should move: the
# end-to-end metric and workload.  scs-31 and scs-101 are run by name; they
# are not in BENCHMARK.json.
PREDICTIONS = {
    "gcg.local_search_s": "solve_s on scs-31 and scs-101; flat on ssr-desk",
    "gcg.local_search.self_s": "solve_s on scs-31 and scs-101 (dense U.V and CG vector work)",
    "gcg.block_solves": "solve_s on scs-31 and scs-101",
    "gcg.hess_applies": "solve_s on scs-31 and scs-101; flat on ssr-desk",
    "gcg.hess.AC_s": "solve_s on scs-31 and scs-101 (the AC^T AC part)",
    "gcg.hess.B_s": "solve_s on scs-31 and scs-101 (the B^T B part)",
    "gcg.factor_rank_max": "solve_s on scs-31 (rank control)",
    "gcg.iterations": "solve_s on ssr-desk",
    "gcg.backtracks": "solve_s on ssr-desk (line-search attempts minus iterations)",
    "gcg.structured_rank_s": "solve_s on scs-101",
    "gcg.compress_s": "solve_s on scs-101",
    "gcg.self_s": "solve_s on scs-101",
    **{f"linalg.{fn}_{kind}{op}": ("per-call cost: solve_s on ssr-desk; "
                                    "volume: scs-31 and scs-101")
       for fn in ("spmv", "spmv_t") for kind in ("s", "calls")
       for op in ("", ".AC", ".B", ".C")},
    "linalg.spmv.flops": "solve_s on scs-101 (computed, spmv and spmv_t)",
    "linalg.spmv.bytes": "solve_s on scs-101 (computed, spmv and spmv_t)",
    "linalg.vec_s": "solve_s on scs-101 (vec copies and unvec)",
    "linalg.lanczos_s": "no end-to-end metric: a few percent of every workload",
    "linalg.lanczos_steps": "no end-to-end metric",
    "linalg.lanczos_unconverged": "no end-to-end metric",
    "linalg.dense_svd_s": "solve_s on apg-31 only",
    "linalg.power_s": "solve_s on apg-31 only",
    "objective.grad_f_s": "solve_s on every GCG workload",
    "objective.grad_f_calls": "solve_s on every GCG workload",
    "objective.psi_value_s": "solve_s on every GCG workload",
    "objective.psi_value_calls": "solve_s on every GCG workload",
    "objective.line_search_s": "solve_s on ssr-desk",
    "objective.line_search_calls": "solve_s on ssr-desk",
    "objective.assemble_s": "setup_s on every workload",
    "structure.build_s": "setup_s on scs-101 and ssr-desk (build_B + build_C)",
    "structure.apply_s": "solve_s on scs-101",
    "apps.generate_s": "setup_s on ssr-desk and scs-101",
    "baseline.iterations": "solve_s on apg-31",
    "baseline.svt_s": "solve_s on apg-31 (the SVD inside the SVT step)",
    "baseline.lipschitz_s": "solve_s on apg-31",
    "baseline.self_s": "solve_s on apg-31",
    "trace.overhead": "none: traced median solve_s over untraced, minus 1",
}


class SpanTable:
    def __init__(self, names, spans):
        self.names = list(names)
        self.s = spans
        name, parent = spans["name"], spans["parent"]
        self.parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def _mask(self, names, phase="solve", parent=None, operand=None):
        ids = [self.names.index(n) for n in names if n in self.names]
        m = np.isin(self.s["name"], ids) & (self.s["phase"] == PHASES.index(phase))
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            m &= self.parent_name == pid
        if operand is not None:
            m &= self.s["operand"] == OPERANDS.index(operand)
        return m

    def time(self, *names, **kw):
        return float(self.s["dur"][self._mask(names, **kw)].sum())

    def self_time(self, *names, **kw):
        return float(self.s["self"][self._mask(names, **kw)].sum())

    def count(self, *names, **kw):
        return int(self._mask(names, **kw).sum())


def _sparse_traffic(t: SpanTable, problems):
    """Computed flops and bytes of every solve-phase spmv / spmv_t call."""
    flops = bytes_ = 0.0
    m = t._mask(SPMV) & (t.s["operand"] > 0)
    pairs, calls = np.unique(np.stack([t.s["instance"][m], t.s["operand"][m]]),
                             axis=1, return_counts=True)
    for (inst, op), n in zip(pairs.T, calls):
        prob = problems[int(inst)]
        mat = (prob.AC, prob.B, prob.C)[op - 1]
        csr = mat.to_scipy()
        flops += n * 2.0 * mat.nnz
        bytes_ += n * (mat.nnz * (csr.data.itemsize + csr.indices.itemsize)
                       + (mat.n_rows + 1) * csr.indptr.itemsize
                       + 8.0 * (mat.n_rows + mat.n_cols))
    return flops, bytes_


def layer_metrics(t: SpanTable, counters, problems, n_solves, n_setups,
                  factor_rank_max, overhead):
    """Every per-layer value by name, per solve or per set-up."""
    ls = "gcg.local_search"
    iterations = t.count("linalg.top_singular_pair", parent="gcg.solve")
    flops, bytes_ = _sparse_traffic(t, problems)
    v = {
        "gcg.local_search_s": t.time(ls),
        "gcg.local_search.self_s": t.self_time(ls),
        "gcg.block_solves": t.count("objective.psi_value", parent=ls) - t.count(ls),
        "gcg.hess_applies": t.count("linalg.spmv", parent=ls, operand="AC"),
        "gcg.hess.AC_s": t.time(*SPMV, parent=ls, operand="AC"),
        "gcg.hess.B_s": t.time(*SPMV, parent=ls, operand="B"),
        "gcg.iterations": iterations,
        "gcg.backtracks": t.count("objective.line_search_theta", parent="gcg.solve")
        - iterations,
        "gcg.structured_rank_s": t.time("gcg.structured_rank"),
        "gcg.compress_s": t.time("gcg.compress"),
        "gcg.self_s": t.self_time("gcg.solve", "gcg.solve_homotopy"),
        "linalg.spmv.flops": flops,
        "linalg.spmv.bytes": bytes_,
        "linalg.vec_s": t.time("linalg.vec", "linalg.unvec"),
        "linalg.lanczos_s": t.time("linalg.top_singular_pair"),
        "linalg.lanczos_steps": counters["lanczos_steps"],
        "linalg.lanczos_unconverged": counters["lanczos_unconverged"],
        "linalg.dense_svd_s": t.time("linalg.dense_svd"),
        "linalg.power_s": t.time("linalg.top_eigenvalue"),
        "objective.grad_f_s": t.time("objective.grad_f"),
        "objective.grad_f_calls": t.count("objective.grad_f"),
        "objective.psi_value_s": t.time("objective.psi_value"),
        "objective.psi_value_calls": t.count("objective.psi_value"),
        "objective.line_search_s": t.time("objective.line_search_theta"),
        "objective.line_search_calls": t.count("objective.line_search_theta"),
        "structure.apply_s": t.time("structure.apply_structure"),
        "baseline.iterations": t.count("linalg.dense_svd", parent="baseline.solve_apg"),
        "baseline.svt_s": t.time("linalg.dense_svd", parent="baseline.solve_apg"),
        "baseline.lipschitz_s": t.time("baseline.lipschitz_estimate"),
        "baseline.self_s": t.self_time("baseline.solve_apg",
                                       "baseline.solve_apg_homotopy"),
    }
    for fn in ("spmv", "spmv_t"):
        name = f"linalg.{fn}"
        v[f"{name}_s"] = t.time(name)
        v[f"{name}_calls"] = t.count(name)
        for op in OPERANDS[1:]:
            v[f"{name}_s.{op}"] = t.time(name, operand=op)
            v[f"{name}_calls.{op}"] = t.count(name, operand=op)
    out = {k: val / n_solves for k, val in v.items()}
    setup = {
        "objective.assemble_s": t.time("objective.assemble", phase="setup"),
        "structure.build_s": t.time("structure.build_B", "structure.build_C",
                                    phase="setup"),
        "apps.generate_s": t.time("apps.ssr_generate", "apps.scs_generate",
                                  phase="setup"),
    }
    out.update({k: val / n_setups for k, val in setup.items()})
    out["gcg.factor_rank_max"] = factor_rank_max
    out["trace.overhead"] = overhead
    return {name: float(value) for name, value in out.items()}
