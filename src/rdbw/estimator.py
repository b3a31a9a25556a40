"""Point estimation of the jump ratio at the cutoff.

Two order-1 boundary fits, one per side, each solving for the outcome
and the treatment at once, produce the numerator and denominator jumps;
the estimate is their ratio.  On a stack of samples (see
`rdbw.local_poly`), each side's fits run as one stacked fit with one
bandwidth per slice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorNearZero, merge, record
from .kernels import KernelSpec
from .local_poly import Sample, fit_boundary, stacked

# below this |tauD| the ratio is reported as invalid, not as a huge number
_MIN_TAU_D = 1e-6


@dataclass(frozen=True)
class FrdEstimate:
    """Jump-ratio estimate and the pieces it is built from.

    Scalars for one sample; (R,) arrays, one entry per slice, for a stack.
    """

    tau: float
    tauY: float
    tauD: float
    h_plus: float
    h_minus: float
    n_plus: int
    n_minus: int


@stacked
def frd_estimate(
    sample: Sample,
    h_plus,
    h_minus,
    kernel: KernelSpec = KernelSpec(),
):
    """Ratio of the outcome jump to the treatment jump at the cutoff.

    Each side uses its own bandwidth for both responses.  On a stack,
    h_plus and h_minus hold one bandwidth per slice (or one for all).

    Raises
    ------
    DenominatorNearZero
        If |tauD| < 1e-6; the ratio would be numerically meaningless.
    """
    plus, errors = fit_boundary(sample, "plus", h_plus, order=1, kernel=kernel)
    minus, later = fit_boundary(sample, "minus", h_minus, order=1, kernel=kernel)
    merge(errors, later)
    tau_y, tau_d = (plus.value - minus.value).T
    record(errors, np.abs(tau_d) < _MIN_TAU_D, lambda r: DenominatorNearZero(
        f"|tauD| = {abs(tau_d[r]):.2e} < {_MIN_TAU_D:.0e}"))
    tau = tau_y / np.where(tau_d == 0.0, 1.0, tau_d)  # zero only where the slice failed
    return FrdEstimate(tau, tau_y, tau_d, plus.h, minus.h, plus.effective_n, minus.effective_n), errors
