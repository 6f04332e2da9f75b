"""Convergence-rate bounds for finite continuous-time Markov chains.

The library builds the transition-intensity matrix of a chain on the
states {0, ..., S}, reduces and transforms it so that extreme column sums
yield exponential two-sided bounds on the speed of forgetting the initial
condition, computes the sharp decay rate of homogeneous chains through a
Perron-eigenvector weighting, and verifies every bound by direct fixed-step
integration of the underlying differential systems.
"""

from .rates import RateEvaluationError, RateFunction, as_rate
from .chain import (ChainSpec, InhomogeneousChainError, RateTable, RegularityReport,
                    RegularityViolation, batch_birth_chain, batch_both_chain,
                    batch_death_chain, birth_death_chain, check_regularity,
                    eval_generator, general_chain, rate_table)
from .transform import (NonnegativityError, NonnegReport, analytic_bstar,
                        apply_weights, build_reduced, check_essential_nonnegativity,
                        require_essential_nonnegativity, to_bstar)
from .spectral import (ConditionReport, PowerIterationError, ReducibleMatrixError,
                       SharpRate, SharpnessConditionError, check_irreducible,
                       check_sharpness_conditions, closed_form_bd, perron_weights)
from .bounds import (BoundReport, NonFiniteBoundError, bound_report_to_csv,
                     compute_bounds, cumulative_simpson, sharp_report)
from .odesolve import (OdeBlowUpError, Trajectory, VerificationReport, solve,
                       trajectory_to_csv, verification_to_csv, verify_bounds,
                       verify_convergence_coupling)
from .modelfile import (AnalysisSettings, ModelFile, ModelFileError,
                        load_model, parse_model, serialize_model)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSettings", "BoundReport", "ChainSpec", "ConditionReport",
    "InhomogeneousChainError", "ModelFile", "ModelFileError", "NonFiniteBoundError", "NonnegReport",
    "NonnegativityError", "OdeBlowUpError", "PowerIterationError",
    "RateEvaluationError", "RateFunction", "RateTable", "ReducibleMatrixError",
    "RegularityReport", "RegularityViolation", "SharpRate",
    "SharpnessConditionError", "Trajectory", "VerificationReport",
    "analytic_bstar", "apply_weights", "as_rate", "batch_birth_chain",
    "batch_both_chain", "batch_death_chain", "birth_death_chain",
    "bound_report_to_csv", "build_reduced", "check_essential_nonnegativity",
    "check_irreducible", "check_regularity", "check_sharpness_conditions",
    "closed_form_bd", "compute_bounds", "cumulative_simpson", "eval_generator",
    "general_chain", "load_model", "parse_model",
    "perron_weights", "rate_table", "require_essential_nonnegativity", "serialize_model",
    "sharp_report", "solve", "to_bstar", "trajectory_to_csv",
    "verification_to_csv", "verify_bounds", "verify_convergence_coupling",
]
