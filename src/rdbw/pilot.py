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

Each estimator runs on a stack of samples as on one (see
`rdbw.local_poly`): on a stack it returns (values, errors) with one entry
per slice, and `assemble_pilots` returns (PilotEstimates of (R,) arrays,
errors).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    InsufficientData,
    SingularDesign,
    WeakDiscontinuity,
    merge,
    record,
)
from .kernels import KernelSpec
from .local_poly import Sample, estimate_level, fit_boundary, slice_groups, stacked, window_rows

_SQRT2PI = np.sqrt(2.0 * np.pi)

# rule-of-thumb scale for the local linear pilot bandwidths (variances, jumps)
PILOT_BANDWIDTH_SCALE = 1.84
# below this |tauD| the ratio estimand is numerically meaningless at n ~ 500
WEAK_TAU_D = 0.05


@dataclass(frozen=True)
class PilotEstimates:
    """All plug-in quantities feeding the bandwidth criteria.

    Floats for one sample; (R,) arrays, one entry per slice, for a stack.
    """

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


def _checked_sd(errors, sd, pilot):
    """sd, with 1 in place of a zero or non-finite value (x beyond about
    1e154 overflows it), whose slice records DegenerateSample."""
    bad = ~((sd > 0.0) & (sd < np.inf))
    record(errors, bad, lambda r: DegenerateSample(f"sd(x) = {sd[r]:g}; {pilot} pilot undefined"))
    return np.where(bad, 1.0, sd)


@stacked
def estimate_density(sample: Sample):
    """Density and density derivative at the cutoff from the full sample.

    Gaussian KDE with the normal-reference bandwidth 1.06 sd(x) n^(-1/5)
    for the level; the derivative uses the slower rate n^(-1/7) obtained
    by scaling the level bandwidth with n^(1/5 - 1/7).

    Returns
    -------
    (f, f1) : tuple of floats
    """
    x, n = sample.x, sample.n
    errors = [None] * len(x)
    record(errors, np.full(len(x), n < 10), lambda r: InsufficientData(
        f"density pilot needs n >= 10, got {n}"))
    sd = _checked_sd(errors, np.std(x, axis=1), "density")
    h0 = 1.06 * sd * n ** (-1 / 5)
    h1 = h0 * n ** (1 / 5 - 1 / 7)
    f, f1 = np.empty(len(x)), np.empty(len(x))
    # u and up to three temporaries of n values per slice
    for g in slice_groups(len(x), 4 * n):
        u = (x[g] - sample.c) / h0[g, None]
        f[g] = np.mean(np.exp(-0.5 * u * u), axis=1)
        u = (x[g] - sample.c) / h1[g, None]
        f1[g] = np.mean(u * np.exp(-0.5 * u * u), axis=1)
    return (f / (_SQRT2PI * h0), f1 / (_SQRT2PI * h1 * h1)), errors


@stacked
def estimate_derivatives(sample: Sample, side: str):
    """Second and third derivative pilots at the cutoff, one side.

    Ordinary least squares of Y and D on a quartic in (x - c) over every
    observation of the side: `fit_boundary` at order 4 under the uniform
    kernel with h the side's largest |x - c|, which gives every
    observation of the side the same weight.  Returns (2 b2, 6 b3), each
    a (Y, D) array; the fit's effective_n is the side's size.
    """
    span = sample.x.max(axis=1) - sample.c if side == "plus" else sample.c - sample.x.min(axis=1)
    # 1 in place of a zero span, whose slice fails below
    fit, later = fit_boundary(sample, side, np.where(span == 0.0, 1.0, span), order=4, kernel=KernelSpec("uniform"))
    errors = [None] * len(span)
    record(errors, fit.effective_n < 6, lambda r: InsufficientData(
        f"derivative pilot needs >= 6 observations on the {side} side, got {fit.effective_n[r]}"))
    record(errors, span == 0.0, lambda r: SingularDesign(
        f"derivative pilot needs 5 distinct x values on the {side} side"))
    merge(errors, later)
    return (2.0 * fit.coefficients[:, 2], 6.0 * fit.coefficients[:, 3]), errors


def _pilot_bandwidth(sd, size):
    return PILOT_BANDWIDTH_SCALE * sd * size ** (-1 / 5)


@stacked
def estimate_variances(sample: Sample, side: str, kernel: KernelSpec = KernelSpec()):
    """Conditional variance and covariance pilots at the cutoff, one side.

    One local linear fit under a rule-of-thumb bandwidth gives the
    Y and D residuals on its kernel window; the moments are averages of
    residual products over those positive-weight observations with a
    two-parameter degrees-of-freedom correction.  Each moment is summed
    in sample order, so the zeros that pad a slice's residuals on a stack
    cannot change it, as they can a BLAS dot or numpy's pairwise sum.
    The covariance is shrunk into the Cauchy-Schwarz bound and a
    near-sharp side (sig2D ~ 0) zeroes both treatment moments so the
    downstream variance combination stays nonnegative.

    Returns
    -------
    (sig2Y, sig2D, sigYD) : tuple of floats
    """
    slices = len(sample.x)
    size, sd = np.empty(slices, dtype=int), np.empty(slices)
    # a group's side values, their indices and their deviations
    for g in slice_groups(slices, 3 * sample.n):
        xs, size[g], side_rows = sample.part(g).side_values(side, 0.0)
        sd[g] = np.std(xs, axis=1, where=side_rows)
    errors = [None] * slices
    record(errors, size < 10, lambda r: InsufficientData(
        f"variance pilot needs >= 10 observations on the {side} side, got {size[r]}"))
    h = _pilot_bandwidth(_checked_sd(errors, sd, f"{side}-side variance"), size)
    fit, later = fit_boundary(sample, side, h, order=1, kernel=kernel)
    merge(errors, later)
    n_v = fit.effective_n
    record(errors, n_v < 4, lambda r: InsufficientData(
        f"only {n_v[r]} observations carry weight on the {side} side"))

    (y0, d0), (y1, d1) = fit.coefficients.transpose(1, 2, 0)[..., None]
    rows = window_rows(sample, side, h, kernel)
    xc = sample.x.take(rows) - sample.c
    ey = sample.y.take(rows) - (y0 + y1 * xc)
    ed = sample.d.take(rows) - (d0 + d1 * xc)
    ey[rows < 0] = ed[rows < 0] = 0.0  # padding rows

    dof = np.maximum(n_v - 2, 1)  # only a failed slice has fewer than 4 rows
    # a stack of slices with no window row has empty rows, whose sums are 0
    sums = np.cumsum([ey * ey, ed * ed, ey * ed], axis=2)[..., -1] if rows.shape[1] else np.zeros((3, slices))
    sig2y, sig2d, sigyd = sums / dof

    bound = np.sqrt(sig2y * sig2d)
    sigyd = np.where(np.abs(sigyd) > bound, np.sign(sigyd) * bound, sigyd)
    sharp = sig2d < 1e-12
    sig2d[sharp] = sigyd[sharp] = 0.0
    return (sig2y, sig2d, sigyd), errors


@stacked
def estimate_tauD(sample: Sample, kernel: KernelSpec = KernelSpec()):
    """Jump pilots (tauY, tauD): level contrasts at the rule-of-thumb bandwidth.

    Raises WeakDiscontinuity if |tauD| < 0.05, where the ratio is unstable.
    """
    errors = [None] * len(sample.x)
    h = _pilot_bandwidth(_checked_sd(errors, np.std(sample.x, axis=1), "jump"), sample.n)
    plus, later = estimate_level(sample, "plus", h, kernel)
    merge(errors, later)
    minus, later = estimate_level(sample, "minus", h, kernel)
    merge(errors, later)
    tau_y, tau_d = (plus - minus).T
    record(errors, np.abs(tau_d) < WEAK_TAU_D, lambda r: WeakDiscontinuity(
        f"|tauD| = {abs(tau_d[r]):.4f} < {WEAK_TAU_D}; ratio estimand is unstable"))
    return (tau_y, tau_d), errors


@stacked
def assemble_pilots(sample: Sample, kernel: KernelSpec = KernelSpec()):
    """Run every pilot estimator and combine them into one record.

    Each slice's first error is the first in the order the estimators run.
    """
    stages = (
        estimate_density(sample),
        estimate_derivatives(sample, "plus"),
        estimate_derivatives(sample, "minus"),
        estimate_variances(sample, "plus", kernel),
        estimate_variances(sample, "minus", kernel),
        estimate_tauD(sample, kernel),
    )
    errors = [None] * len(sample.x)
    for _, later in stages:
        merge(errors, later)
    (f, f1), (m2_p, m3_p), (m2_m, m3_m), var_p, var_m, (tau_y, tau_d) = (v for v, _ in stages)
    pilots = PilotEstimates(
        f=f,
        f1=f1,
        m2Y_plus=m2_p[:, 0],
        m2Y_minus=m2_m[:, 0],
        m3Y_plus=m3_p[:, 0],
        m3Y_minus=m3_m[:, 0],
        m2D_plus=m2_p[:, 1],
        m2D_minus=m2_m[:, 1],
        m3D_plus=m3_p[:, 1],
        m3D_minus=m3_m[:, 1],
        sig2Y_plus=var_p[0],
        sig2Y_minus=var_m[0],
        sig2D_plus=var_p[1],
        sig2D_minus=var_m[1],
        sigYD_plus=var_p[2],
        sigYD_minus=var_m[2],
        tauD=tau_d,
        tau=tau_y / np.where(tau_d == 0.0, 1.0, tau_d),  # zero only where the slice failed
    )
    return pilots, errors
