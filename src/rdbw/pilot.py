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
from .local_poly import Sample, estimate_level, fit_boundary, slice_tiles, stacked, window_pieces

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


def _spread(sample: Sample, side=None):
    """(size, sd) of x per slice of a stack: over one side's rows, or over
    all rows for side None.

    Each block (see `slice_tiles`) takes np.std's two steps: the mean of
    its values, then the mean of their squared deviations from it.  A
    slice of one tile therefore gets np.std of its values; a longer
    slice's tiles are merged in order by the pairwise update of Chan,
    Golub and LeVeque (Amer. Statist. 37, 1983).
    """
    slices = len(sample.x)
    size, mean, m2 = np.zeros(slices, dtype=int), np.zeros(slices), np.zeros(slices)
    # a block's values, their indices and their deviations
    for g, tiles in slice_tiles(slices, sample.n, 3 * sample.n):
        for t in tiles:
            part = sample.part(g, t)
            if side is None:
                xs, k, where = part.x, t.stop - t.start, True
            else:
                xs, k, where = part.side_values(side, 0.0)
            mu = np.sum(xs, axis=1, where=where) / np.maximum(k, 1)  # a tile may hold no row of the side
            dev = xs - mu[:, None]
            q = np.sum(np.multiply(dev, dev, out=dev), axis=1, where=where)
            if t.start == 0:
                size[g], mean[g], m2[g] = k, mu, q
            else:
                total = size[g] + k
                delta = mu - mean[g]
                share = k / np.maximum(total, 1)
                mean[g] += delta * share
                m2[g] += q + delta * size[g] * (delta * share)
                size[g] = total
    return size, np.sqrt(m2 / size)


def _whole_sd(sample: Sample):
    """sd(x) of each slice over all its rows (see `_spread`), computed once
    per stack and kept on it, whose arrays are read-only: the density and
    jump pilots that `assemble_pilots` runs on one stack share one pass."""
    kept = vars(sample)
    if "_whole_sd" not in kept:
        kept["_whole_sd"] = _spread(sample)[1]
    return kept["_whole_sd"]


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
    sd = _checked_sd(errors, _whole_sd(sample), "density")
    h0 = 1.06 * sd * n ** (-1 / 5)
    h1 = h0 * n ** (1 / 5 - 1 / 7)
    f, f1 = np.zeros(len(x)), np.zeros(len(x))
    # u and up to three temporaries of n values per slice
    for g, tiles in slice_tiles(len(x), n, 4 * n):
        for t in tiles:
            u = (x[g, t] - sample.c) / h0[g, None]
            f[g] += np.sum(np.exp(-0.5 * u * u), axis=1)
            u = (x[g, t] - sample.c) / h1[g, None]
            f1[g] += np.sum(u * np.exp(-0.5 * u * u), axis=1)
    # the means of the kernel terms, as np.mean gives them over one tile
    return (f / n / (_SQRT2PI * h0), f1 / n / (_SQRT2PI * h1 * h1)), errors


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
    two-parameter degrees-of-freedom correction.  Each moment is one sum
    in sample order over the fit's window, whose weights pick its rows
    (`rdbw.local_poly.window_pieces`), running through its pieces, to
    which padding and rows of zero weight add zeros, so neither the pieces
    nor the zeros that pad a slice's residuals on a stack can change it,
    as they can a BLAS dot or numpy's pairwise sum.
    The covariance is shrunk into the Cauchy-Schwarz bound and a
    near-sharp side (sig2D ~ 0) zeroes both treatment moments so the
    downstream variance combination stays nonnegative.

    Returns
    -------
    (sig2Y, sig2D, sigYD) : tuple of floats
    """
    slices = len(sample.x)
    size, sd = _spread(sample, side)
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
    sums = np.zeros((3, slices))
    # a piece's rows, their residuals and the moments' terms and sums
    for g, tiles in slice_tiles(slices, sample.n, 13 * int(n_v.max(initial=0))):
        for rows, _, w in window_pieces(sample, side, h, g, tiles, kernel):
            xc = sample.x.take(rows) - sample.c
            # the rows the fit weighs; padding and rows of zero weight add zero terms
            drop = ~(w > 0.0)
            ey = sample.y.take(rows) - (y0[g] + y1[g] * xc)
            ed = sample.d.take(rows) - (d0[g] + d1[g] * xc)
            ey[drop] = ed[drop] = 0.0
            # each slice's sum so far leads the piece's terms, so one sum runs through the pieces
            terms = np.concatenate((sums[:, g, None], [ey * ey, ed * ed, ey * ed]), axis=2)
            sums[:, g] = np.cumsum(terms, axis=2, out=terms)[..., -1]

    dof = np.maximum(n_v - 2, 1)  # only a failed slice has fewer than 4 rows
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
    h = _pilot_bandwidth(_checked_sd(errors, _whole_sd(sample), "jump"), sample.n)
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
