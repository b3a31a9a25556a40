"""Point estimation of the jump ratio at the cutoff.

Two order-1 boundary fits, one per side, each solving for the outcome
and the treatment at once, produce the numerator and denominator jumps;
the estimate is their ratio.
"""

from dataclasses import dataclass

from .errors import DenominatorNearZero
from .kernels import KernelSpec
from .local_poly import Sample, fit_boundary

# below this |tauD| the ratio is reported as invalid, not as a huge number
_MIN_TAU_D = 1e-6


@dataclass(frozen=True)
class FrdEstimate:
    """Jump-ratio estimate and the pieces it is built from."""

    tau: float
    tauY: float
    tauD: float
    h_plus: float
    h_minus: float
    n_plus: int
    n_minus: int


def frd_estimate(
    sample: Sample,
    h_plus: float,
    h_minus: float,
    kernel: KernelSpec = KernelSpec(),
) -> FrdEstimate:
    """Ratio of the outcome jump to the treatment jump at the cutoff.

    Each side uses its own bandwidth for both responses.

    Raises
    ------
    DenominatorNearZero
        If |tauD| < 1e-6; the ratio would be numerically meaningless.
    """
    plus = fit_boundary(sample, "plus", h_plus, order=1, kernel=kernel)
    minus = fit_boundary(sample, "minus", h_minus, order=1, kernel=kernel)
    tau_y, tau_d = (float(j) for j in plus.value - minus.value)
    if abs(tau_d) < _MIN_TAU_D:
        raise DenominatorNearZero(f"|tauD| = {abs(tau_d):.2e} < {_MIN_TAU_D:.0e}")
    return FrdEstimate(
        tau=tau_y / tau_d,
        tauY=tau_y,
        tauD=tau_d,
        h_plus=h_plus,
        h_minus=h_minus,
        n_plus=plus.effective_n,
        n_minus=minus.effective_n,
    )

