"""Magnitude-only recovery of dictionary-sparse signals.

Tight-frame construction, phaseless measurement simulation, lq-analysis
solvers (a certified global oracle at tiny scale and an IRLS scheme),
exact restricted-isometry constants, null-space splitting diagnostics,
and closed-form stability-bound verification.
"""

from .bounds import (
    AdmissibilityReport,
    BoundConstants,
    admissibility_check,
    bound_rhs,
    constants_c1_c2,
    verify_recovery_bound,
)
from .frames import (
    TightFrame,
    build_named_frame,
    build_parseval_random,
    validate_frame,
)
from .harness import (
    run_bound_experiment,
    selfcheck_lemmas,
    transition_sweep,
)
from .lemmas import (
    ConvexDecomposition,
    sparse_convex_decomposition,
    subset_sum_identities,
    tail_power_bound_check,
)
from .measurement import (
    PhaselessProblem,
    build_problem,
    forward_phaseless,
    phase_distance,
)
from .nsp import NspWitness, nsp_real_evaluate, nsp_real_falsify
from .records import ExperimentConfig, TransitionCell, TrialRecord, emit_results
from .rip import RipReport, drip_constant, drip_order_for_t, sdrip_constants
from .signals import (
    DictionarySparseSignal,
    SparseCoefficients,
    best_k_term_error,
    lq_quasinorm,
    sample_dictionary_sparse,
)
from .solver import (
    SolverResult,
    solve_irls,
    solve_oracle_noiseless,
)

__version__ = "0.1.0"
