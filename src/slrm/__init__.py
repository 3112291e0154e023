"""Structured low-rank matrix recovery.

Encodes linear matrix structures (Hankel, block-Hankel, two-fold Hankel)
as sparse constraint/recovery pairs, and minimizes a penalized nuclear
norm objective over the lifted matrix with a factored conditional-gradient
solver.  An APG baseline with singular value thresholding serves as the
dense reference.
"""

from .apps import (ScsConfig, ScsData, SsrConfig, SsrData, scs_generate,
                   scs_problem, ssr_generate, ssr_problem)
from .baseline import (ApgConfig, lipschitz_estimate, solve_apg,
                       solve_apg_homotopy, svt)
from .gcg import (DivergedError, GcgConfig, SolveTrace, TraceRecord, compress,
                  lam_stages, local_search, rank_estimate, recover_y, solve,
                  solve_homotopy, structured_rank)
from .linalg import (SparseMatrix, short_side_svd, spmv, spmv_t,
                     top_singular_pair, unvec, vec)
from .objective import (FactorPair, PenaltyProblem, StepModel,
                        UnboundedDirectionError, assemble, f_value, factor_svd,
                        grad_f, psi_value, step_model)
from .structure import (RecoveryMode, StructureSpec, apply_structure,
                        block_hankel_spec, build_B, build_C,
                        constraint_gram_norm, hankel_spec, project_to_image,
                        two_fold_hankel_spec)

__version__ = "0.1.0"
