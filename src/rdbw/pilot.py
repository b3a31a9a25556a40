"""Plug-in pilot estimates for every unknown in the bandwidth criteria.

Density and its derivative come from a Gaussian KDE under reference-rule
bandwidths; curvature and third derivatives from a global quartic fit per
side; variances and the covariance from local linear residuals under a
rule-of-thumb bandwidth; the outcome and treatment jumps from local
linear level contrasts under the same rule-of-thumb bandwidth.  Each is a
standard consistent estimator of its target.

Every regression is a `fit_boundary` call on powers of the unit-free
(x - c)/h, so no pilot depends on the units of x, and each call solves
for Y and D at once: one quartic, one variance and one level fit per
side serve both responses.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    InsufficientData,
    SingularDesign,
    WeakDiscontinuity,
)
from .kernels import KernelSpec
from .local_poly import Sample, estimate_level, fit_boundary

_SQRT2PI = np.sqrt(2.0 * np.pi)

# rule-of-thumb scale for the local linear pilot bandwidths (variances, jumps)
PILOT_BANDWIDTH_SCALE = 1.84
# below this |tauD| the ratio estimand is numerically meaningless at n ~ 500
WEAK_TAU_D = 0.05


@dataclass(frozen=True)
class PilotEstimates:
    """All plug-in quantities feeding the bandwidth criteria."""

    f: float
    f1: float
    m2Y_plus: float
    m2Y_minus: float
    m3Y_plus: float
    m3Y_minus: float
    m2D_plus: float
    m2D_minus: float
    m3D_plus: float
    m3D_minus: float
    sig2Y_plus: float
    sig2Y_minus: float
    sig2D_plus: float
    sig2D_minus: float
    sigYD_plus: float
    sigYD_minus: float
    tauD: float
    tau: float


def estimate_density(sample: Sample):
    """Density and density derivative at the cutoff from the full sample.

    Gaussian KDE with the normal-reference bandwidth 1.06 sd(x) n^(-1/5)
    for the level; the derivative uses the slower rate n^(-1/7) obtained
    by scaling the level bandwidth with n^(1/5 - 1/7).

    Returns
    -------
    (f, f1) : tuple of floats
    """
    x = sample.x
    n = x.size
    if n < 10:
        raise InsufficientData(f"density pilot needs n >= 10, got {n}")
    sd = float(np.std(x))
    if sd == 0.0:
        raise DegenerateSample("sd(x) = 0; density pilot undefined")

    h0 = 1.06 * sd * n ** (-1 / 5)
    u = (x - sample.c) / h0
    f = float(np.mean(np.exp(-0.5 * u * u)) / (_SQRT2PI * h0))

    h1 = h0 * n ** (1 / 5 - 1 / 7)
    u = (x - sample.c) / h1
    f1 = float(np.mean(u * np.exp(-0.5 * u * u)) / (_SQRT2PI * h1 * h1))
    return f, f1


def estimate_derivatives(sample: Sample, side: str):
    """Second and third derivative pilots at the cutoff, one side.

    Ordinary least squares of Y and D on a quartic in (x - c) over every
    observation of the side: `fit_boundary` at order 4 under the uniform
    kernel with h the side's largest |x - c|, which gives every
    observation of the side the same weight.  Returns (2 b2, 6 b3), each
    a (Y, D) array.
    """
    n_side = int(np.count_nonzero(sample.side_mask(side)))
    if n_side < 6:
        raise InsufficientData(
            f"derivative pilot needs >= 6 observations on the {side} side, got {n_side}"
        )
    span = sample.x.max() - sample.c if side == "plus" else sample.c - sample.x.min()
    if span == 0.0:
        raise SingularDesign(f"derivative pilot needs 5 distinct x values on the {side} side")
    coef = fit_boundary(sample, side, span, order=4, kernel=KernelSpec("uniform")).coefficients
    return 2.0 * coef[2], 6.0 * coef[3]


def _pilot_bandwidth(x: np.ndarray) -> float:
    return PILOT_BANDWIDTH_SCALE * float(np.std(x)) * x.size ** (-1 / 5)


def estimate_variances(sample: Sample, side: str, kernel: KernelSpec = KernelSpec()):
    """Conditional variance and covariance pilots at the cutoff, one side.

    One local linear fit under a rule-of-thumb bandwidth gives the
    Y and D residuals on its kernel window; the moments are averages of
    residual products over those positive-weight observations with a
    two-parameter degrees-of-freedom correction.
    The covariance is shrunk into the Cauchy-Schwarz bound and a
    near-sharp side (sig2D ~ 0) zeroes both treatment moments so the
    downstream variance combination stays nonnegative.

    Returns
    -------
    (sig2Y, sig2D, sigYD) : tuple of floats
    """
    xs = sample.side_x(side)
    if xs.size < 10:
        raise InsufficientData(
            f"variance pilot needs >= 10 observations on the {side} side, got {xs.size}"
        )
    fit = fit_boundary(sample, side, _pilot_bandwidth(xs), order=1, kernel=kernel)
    n_v = fit.effective_n
    if n_v < 4:
        raise InsufficientData(f"only {n_v} observations carry weight on the {side} side")

    (y0, d0), (y1, d1) = fit.coefficients
    xc = sample.x[fit.rows] - sample.c
    ey = sample.y[fit.rows] - (y0 + y1 * xc)
    ed = sample.d[fit.rows] - (d0 + d1 * xc)

    dof = n_v - 2
    sig2y = float(ey @ ey) / dof
    sig2d = float(ed @ ed) / dof
    sigyd = float(ey @ ed) / dof

    if sig2d < 1e-12:
        return sig2y, 0.0, 0.0
    bound = np.sqrt(sig2y * sig2d)
    if abs(sigyd) > bound:
        sigyd = np.sign(sigyd) * bound
    return sig2y, sig2d, float(sigyd)


def estimate_tauD(sample: Sample, kernel: KernelSpec = KernelSpec()):
    """Jump pilots (tauY, tauD): level contrasts at the rule-of-thumb bandwidth.

    Raises WeakDiscontinuity if |tauD| < 0.05, where the ratio is unstable.
    """
    h = _pilot_bandwidth(sample.x)
    jumps = estimate_level(sample, "plus", h, kernel) - estimate_level(sample, "minus", h, kernel)
    tau_y, tau_d = (float(j) for j in jumps)
    if abs(tau_d) < WEAK_TAU_D:
        raise WeakDiscontinuity(
            f"|tauD| = {abs(tau_d):.4f} < {WEAK_TAU_D}; ratio estimand is unstable"
        )
    return tau_y, tau_d


def assemble_pilots(sample: Sample, kernel: KernelSpec = KernelSpec()) -> PilotEstimates:
    """Run every pilot estimator and combine them into one record."""
    f, f1 = estimate_density(sample)
    (m2y_p, m2d_p), (m3y_p, m3d_p) = estimate_derivatives(sample, "plus")
    (m2y_m, m2d_m), (m3y_m, m3d_m) = estimate_derivatives(sample, "minus")
    s2y_p, s2d_p, syd_p = estimate_variances(sample, "plus", kernel)
    s2y_m, s2d_m, syd_m = estimate_variances(sample, "minus", kernel)
    tau_y, tau_d = estimate_tauD(sample, kernel)
    return PilotEstimates(
        f=f,
        f1=f1,
        m2Y_plus=float(m2y_p),
        m2Y_minus=float(m2y_m),
        m3Y_plus=float(m3y_p),
        m3Y_minus=float(m3y_m),
        m2D_plus=float(m2d_p),
        m2D_minus=float(m2d_m),
        m3D_plus=float(m3d_p),
        m3D_minus=float(m3d_m),
        sig2Y_plus=s2y_p,
        sig2Y_minus=s2y_m,
        sig2D_plus=s2d_p,
        sig2D_minus=s2d_m,
        sigYD_plus=syd_p,
        sigYD_minus=syd_m,
        tauD=tau_d,
        tau=tau_y / tau_d,
    )
