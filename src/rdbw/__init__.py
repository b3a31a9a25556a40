"""Simultaneous two-sided bandwidth selection for jump-ratio estimation
at a cutoff, with local polynomial boundary fits, plug-in pilots, a
joint mean-squared-error criterion, closed-form oracles, and a seeded
Monte Carlo lab."""

from .errors import (
    AllTrimmed,
    AssumptionViolated,
    DegenerateObjective,
    DegenerateSample,
    DenominatorNearZero,
    InsufficientData,
    OutputError,
    ParseError,
    RdbwError,
    SingularDesign,
    UsageError,
    ValidationError,
    WeakDiscontinuity,
    ZeroCurvature,
)
from .estimator import FrdEstimate, frd_estimate
from .kernels import FAMILIES, KernelMoments, KernelSpec, compute_moments, eval_kernel
from .local_poly import BoundaryFit, Sample, estimate_level, fit_boundary
from .pilot import (
    PilotEstimates,
    assemble_pilots,
    estimate_density,
    estimate_derivatives,
    estimate_tauD,
    estimate_variances,
)
from .selector import (
    AmseCoefficients,
    BandwidthPair,
    SelectionResult,
    afo_bandwidths,
    compute_coefficients,
    default_bounds,
    minimize_mmse,
    mmse_objective,
    select_bandwidths,
)
from .simlab import (
    DgpSpec,
    McSummary,
    TRUE_TAU,
    draw_sample,
    mean_outcome,
    run_monte_carlo,
    treatment_prob,
    trimmed_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AllTrimmed",
    "AmseCoefficients",
    "AssumptionViolated",
    "BandwidthPair",
    "BoundaryFit",
    "DegenerateObjective",
    "DegenerateSample",
    "DenominatorNearZero",
    "DgpSpec",
    "FAMILIES",
    "FrdEstimate",
    "InsufficientData",
    "KernelMoments",
    "KernelSpec",
    "McSummary",
    "OutputError",
    "ParseError",
    "PilotEstimates",
    "RdbwError",
    "Sample",
    "SelectionResult",
    "SingularDesign",
    "TRUE_TAU",
    "UsageError",
    "ValidationError",
    "WeakDiscontinuity",
    "ZeroCurvature",
    "afo_bandwidths",
    "assemble_pilots",
    "compute_coefficients",
    "compute_moments",
    "default_bounds",
    "draw_sample",
    "estimate_density",
    "estimate_derivatives",
    "estimate_level",
    "estimate_tauD",
    "estimate_variances",
    "eval_kernel",
    "fit_boundary",
    "frd_estimate",
    "mean_outcome",
    "minimize_mmse",
    "mmse_objective",
    "run_monte_carlo",
    "select_bandwidths",
    "treatment_prob",
    "trimmed_stats",
]
