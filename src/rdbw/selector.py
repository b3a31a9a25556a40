"""Two-sided bandwidth selection for the boundary-contrast estimator.

The criterion keeps three terms: the squared first-order bias contrast,
the squared second-order bias contrast, and the variance of the jump
estimate.  It is minimized jointly over (h_plus, h_minus) through its
exact one-dimensional structure: on each ray h_minus = lambda h_plus it
has one minimum in h_plus, so the box minimum is the minimum of a
profile over lambda alone (see `minimize_mmse`).  Closed-form optimal
pairs exist in both curvature regimes (`afo_bandwidths`); they serve as
an oracle, and no selection falls back to them.

`select_bandwidths`, `compute_coefficients`, `default_bounds` and
`minimize_mmse` run on a stack of samples as on one (see
`rdbw.local_poly`): coefficients and pairs hold floats for one sample and
(R,) arrays for a stack.  The minimizer profiles every slice of a stack
in one call.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    AssumptionViolated,
    DegenerateObjective,
    DegenerateSample,
    InsufficientData,
    ZeroCurvature,
    failures,
    merge,
    record,
)
from .kernels import KernelMoments, KernelSpec, compute_moments
from .local_poly import Sample, side_stats, slice_groups, stacked
from .pilot import PilotEstimates, assemble_pilots

REGIMES = ("opposite_sign", "same_sign", "boundary_clamped")

# log-spaced rays of the profile; the analytic rays come on top of them
PROFILE_NODES = 64
# Newton steps on the root along a ray: each one squares a log-error that
# starts below log(2) / 5 and shrinks it at least tenfold
_ROOT_STEPS = 4
# the refinement stops once its step in log(h_minus / h_plus) is this small
_STEP_TOL = 1e-13
_REFINE_MAXITER = 30
_LOG4, _LOG6 = math.log(4.0), math.log(6.0)


@dataclass(frozen=True)
class AmseCoefficients:
    """Plug-in coefficients of the bandwidth criterion.

    phi_* multiply h^2 in the first-order bias, psi_* multiply h^3 in
    the second-order bias, omega_* are the variance numerators; v is the
    kernel variance constant, f the density at the cutoff, tauD the
    denominator jump, reported but not read (see `mmse_objective`), and
    n the sample size.  Floats for one sample; (R,) arrays, one entry
    per slice, for a stack.
    """

    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float
    omega_plus: float
    omega_minus: float
    v: float
    f: float
    tauD: float
    n: int

    def __post_init__(self):
        if np.any(self.omega_plus < 0.0) or np.any(self.omega_minus < 0.0):
            raise ValueError("omega coefficients must be nonnegative")
        if np.any(self.f <= 0.0):
            raise ValueError("density at the cutoff must be positive")
        if np.any(self.v <= 0.0):
            raise ValueError("kernel variance constant must be positive")
        if np.any(self.n < 2):
            raise ValueError(f"n must be at least 2, got {np.min(self.n)}")


@dataclass(frozen=True)
class BandwidthPair:
    """regime boundary_clamped: the minimum on the pair's ray was clipped by the box."""

    h_plus: float
    h_minus: float
    regime: str
    objective_value: float

    def __post_init__(self):
        if not np.all((self.h_plus > 0.0) & (self.h_minus > 0.0)):
            raise ValueError("bandwidths must be positive")
        if not np.all(np.isin(self.regime, REGIMES)):
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")


@dataclass(frozen=True)
class SelectionResult:
    """Bandwidths plus the intermediate quantities that produced them.

    For a stack, every field holds (R,) arrays, one entry per slice; a
    slice that failed holds finite placeholder values.
    """

    bandwidths: BandwidthPair
    pilots: PilotEstimates
    coefficients: AmseCoefficients


def _zeta(side_sign: float, m2: float, m3: float, slope_ratio: float, xi1, xi2):
    # second-order bias kernel of one response on one side
    return side_sign * (xi1 * (0.5 * m2 * slope_ratio + m3 / 6.0) - xi2 * 0.5 * m2 * slope_ratio)


@stacked
def compute_coefficients(
    pilots: PilotEstimates,
    moments: KernelMoments,
    mode: str = "fuzzy",
    *,
    n: int,
):
    """Turn pilot estimates into the coefficients of the criterion.

    Parameters
    ----------
    pilots : PilotEstimates
        Stacked pilots (arrays) give (AmseCoefficients of arrays, errors);
        a slice whose density is not positive fails and goes on with a
        density of 1.
    moments : KernelMoments
    mode : {"fuzzy", "sharp"}
        Fuzzy combines outcome and treatment terms through the pilot
        ratio; sharp keeps only the outcome terms and fixes the
        denominator jump at 1.
    n : int
        Sample size entering the variance term.

    Raises
    ------
    ValueError
        If mode is neither or n is below 2, for pilots of one sample or
        of a stack.
    """
    if mode not in ("fuzzy", "sharp"):
        raise ValueError(f"mode must be 'fuzzy' or 'sharp', got {mode!r}")

    errors = [None] * len(pilots.f)
    nonpositive = pilots.f <= 0.0
    record(errors, nonpositive, lambda r: ValueError("density at the cutoff must be positive"))
    f = np.where(nonpositive, 1.0, pilots.f)
    ratio = pilots.f1 / f
    # a zero ratio drops every treatment term, which is the sharp criterion
    tau = pilots.tau if mode == "fuzzy" else 0.0
    # psi (a^-3) overflows for x in extreme units; minimize_mmse then fails the slice
    zy_p = _zeta(-1.0, pilots.m2Y_plus, pilots.m3Y_plus, ratio, moments.xi1, moments.xi2)
    zy_m = _zeta(+1.0, pilots.m2Y_minus, pilots.m3Y_minus, ratio, moments.xi1, moments.xi2)
    zd_p = _zeta(-1.0, pilots.m2D_plus, pilots.m3D_plus, ratio, moments.xi1, moments.xi2)
    zd_m = _zeta(+1.0, pilots.m2D_minus, pilots.m3D_minus, ratio, moments.xi1, moments.xi2)
    psi_p, psi_m = zy_p - tau * zd_p, zy_m - tau * zd_m
    omega_p = pilots.sig2Y_plus + tau * tau * pilots.sig2D_plus - 2.0 * tau * pilots.sigYD_plus
    omega_m = pilots.sig2Y_minus + tau * tau * pilots.sig2D_minus - 2.0 * tau * pilots.sigYD_minus
    fields = {
        "phi_plus": moments.c1 * (pilots.m2Y_plus - tau * pilots.m2D_plus),
        "phi_minus": moments.c1 * (pilots.m2Y_minus - tau * pilots.m2D_minus),
        "psi_plus": psi_p,
        "psi_minus": psi_m,
        "omega_plus": np.maximum(0.0, omega_p),
        "omega_minus": np.maximum(0.0, omega_m),
        "v": moments.v,
        "f": f,
        "tauD": pilots.tauD if mode == "fuzzy" else 1.0,
        "n": n,
    }
    return AmseCoefficients(**dict(zip(fields, np.broadcast_arrays(*fields.values())))), errors


def mmse_objective(h_plus, h_minus, coeffs: AmseCoefficients):
    """Criterion value at one bandwidth pair; on the coefficients of a
    stack, at one pair per slice.

    Squared first-order bias contrast plus squared second-order bias
    contrast plus the variance term v/(n f) (omega_+/h_+ + omega_-/h_-).
    In fuzzy mode this is the ratio estimate's AMSE times tauD^2, which
    has the same minimizer, so coeffs.tauD is not read.  Powers are
    products, so floats and arrays round alike, and a value beyond the
    floats is inf rather than an OverflowError.
    """
    if not np.all((h_plus > 0.0) & (h_minus > 0.0)):
        raise ValueError("bandwidths must be positive")
    c = coeffs
    bias1 = c.phi_plus * (h_plus * h_plus) - c.phi_minus * (h_minus * h_minus)
    bias2 = c.psi_plus * (h_plus * h_plus * h_plus) - c.psi_minus * (h_minus * h_minus * h_minus)
    var = (c.v / (c.n * c.f)) * (c.omega_plus / h_plus + c.omega_minus / h_minus)
    return bias1 * bias1 + bias2 * bias2 + var


def _unit_free(c, bounds):
    """Each slice's criterion and box as (R, 1) columns free of the data's units.

    Bandwidths are measured in h_ref = sqrt(lo_plus hi_plus) and the
    criterion in K (omega_+ + omega_-) / h_ref, with K = v / (n f).  In
    t = log(h_plus / h_ref) and l = log(h_minus / h_plus) the criterion
    then reads (a e^2t)^2 + (b e^3t)^2 + kappa e^-t, with
    a = p_+ - p_- e^2l, b = q_+ - q_- e^3l and kappa = k_+ + k_- e^-l.
    The box is u_lo <= t <= u_hi and w_lo <= t + l <= w_hi.
    """
    phi_p, phi_m, psi_p, psi_m, omega_p, omega_m, k = (
        v[:, None]
        for v in (c.phi_plus, c.phi_minus, c.psi_plus, c.psi_minus, c.omega_plus, c.omega_minus, c.v / (c.n * c.f))
    )
    (lo_p, hi_p), (lo_m, hi_m) = ((np.log(lo)[:, None], np.log(hi)[:, None]) for lo, hi in bounds)
    log_ref = 0.5 * (lo_p + hi_p)
    omega = omega_p + omega_m
    # the square root of the criterion's unit, taken factor by factor so
    # that it neither overflows nor underflows where its square would
    scale = np.sqrt(k / np.exp(log_ref)) * np.sqrt(omega)
    square, cube = np.exp(2.0 * log_ref) / scale, np.exp(3.0 * log_ref) / scale
    return SimpleNamespace(
        p_plus=phi_p * square, p_minus=phi_m * square,
        q_plus=psi_p * cube, q_minus=psi_m * cube,
        k_plus=omega_p / omega, k_minus=omega_m / omega,
        u_lo=lo_p - log_ref, u_hi=hi_p - log_ref, w_lo=lo_m - log_ref, w_hi=hi_m - log_ref,
        log_ref=log_ref,
    )


def _take(prob, index):
    """The entries index of every array of a problem: a subset of its slices."""
    return SimpleNamespace(**{name: v[index] for name, v in vars(prob).items()})


def _profile(prob, ell):
    """The criterion's minimum along the rays l = ell, and its slope in l.

    On a ray, h^2 dF/dh = 4 a^2 h^5 + 6 b^2 h^7 - kappa grows with h, so
    the criterion has one minimum there.  Newton on
    log(4 a^2 h^5 + 6 b^2 h^7) = log kappa in t, a convex equation,
    starts from the smaller of its two one-term roots, which both lie
    above the root, and descends to it; the root is then clipped to the
    ray's part of the box.  In (u, w) = (log h_plus, log h_minus), the
    envelope theorem gives the profile's slope F_w where the root is
    inside or h_plus is clipped, and -F_u where h_minus is clipped.
    Which bound clips is read from the unclipped root.  At a corner ray
    (l = w_hi - u_hi or w_lo - u_lo) the clipping bound changes sides:
    `slope` takes the bound that clips the rays just above, `below` the
    one that clips the rays just below, and elsewhere the two are equal.
    Arrays of prob broadcast against ell.
    """
    lam = np.exp(ell)
    a = prob.p_plus - prob.p_minus * (lam * lam)
    b = prob.q_plus - prob.q_minus * (lam * lam * lam)
    kappa = prob.k_plus + prob.k_minus / lam
    corner_hi, corner_lo = prob.w_hi - prob.u_hi, prob.w_lo - prob.u_lo
    t_hi = np.minimum(prob.u_hi, prob.w_hi - ell)
    t_lo = np.maximum(prob.u_lo, prob.w_lo - ell)
    alpha = _LOG4 + 2.0 * np.log(np.abs(a))
    beta = _LOG6 + 2.0 * np.log(np.abs(b))
    log_kappa = np.log(kappa)
    t = np.minimum(t_hi, np.minimum((log_kappa - alpha) / 5.0, (log_kappa - beta) / 7.0))
    for _ in range(_ROOT_STEPS):
        e5, e7 = alpha + 5.0 * t, beta + 7.0 * t
        t = t - (np.logaddexp(e5, e7) - log_kappa) / (5.0 + 2.0 / (1.0 + np.exp(e5 - e7)))
    # Newton's iterate is NaN only on a ray with no bias term (or on NaN
    # coefficients, which make the value NaN anyway): there the criterion
    # falls all the way to the upper clip
    upper, lower = ~(t <= t_hi), t < t_lo
    # whether h_minus is clipped, on the rays just above and just below
    minus = np.where(upper, ell >= corner_hi, lower & (ell < corner_lo))
    minus_below = np.where(upper, ell > corner_hi, lower & (ell <= corner_lo))
    t = np.fmax(np.fmin(t, t_hi), t_lo)
    hu = np.exp(t)
    hw = hu * lam
    x, y = prob.p_plus * (hu * hu), prob.p_minus * (hw * hw)
    p, q = prob.q_plus * (hu * hu * hu), prob.q_minus * (hw * hw * hw)
    e1, e2 = a * (hu * hu), b * (hu * hu * hu)
    var_p, var_m = prob.k_plus / hu, prob.k_minus / hw
    f_u = 4.0 * x * e1 + 6.0 * p * e2 - var_p
    f_w = -4.0 * y * e1 - 6.0 * q * e2 - var_m
    return SimpleNamespace(
        t=t, ell=ell, upper=upper, clipped=upper | lower, minus=minus,
        value=e1 * e1 + e2 * e2 + var_p + var_m,
        slope=np.where(minus, -f_u, f_w),
        below=np.where(minus_below, -f_u, f_w),
    )


def _node_profile(prob, points):
    """_profile on each slice's row of points.

    The profile holds some 30 temporaries of one row of points per slice,
    so it runs on groups of slices (see `rdbw.local_poly.slice_groups`).
    """
    parts = [vars(_profile(_take(prob, g), points[g])) for g in slice_groups(len(points), 30 * points.shape[1])]
    return SimpleNamespace(**{name: np.concatenate([part[name] for part in parts]) for name in parts[0]})


def _refine(prob, lo, hi, f_lo, f_hi):
    """The profile at a root of its slope in each bracket [lo, hi].

    The slope is f_lo < 0 just above lo and f_hi > 0 just below hi.  All
    brackets start where the chord between those slopes crosses zero and
    step in lockstep by secant steps inside the safeguard of rtsafe (Press
    et al., Numerical Recipes, 9.4), as in Brent's zero finder (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).  The
    secant runs through the last two iterates, the first one through
    (hi, f_hi).  Its step is taken only if it stays in the bracket and is
    at most half the step before last; otherwise the bracket is bisected.
    A bracket stops once its step is below _STEP_TOL or its slope is zero.
    """
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    last = older = hi - lo
    prev, f_prev = hi, f_hi
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_REFINE_MAXITER + 1):
        at = _profile(prob, x)
        lo = np.where(active & (at.slope < 0.0), x, lo)
        hi = np.where(active & (at.slope > 0.0), x, hi)
        active &= (last >= _STEP_TOL) & (at.slope != 0.0)
        if not active.any():
            break
        f = at.slope
        # a secant through one point twice, or a flat one, is NaN or
        # infinite, and the safeguard bisects
        df = (f - f_prev) / (x - prev)
        secant = x - f / df
        bisect = ~((lo <= secant) & (secant <= hi) & (np.abs(2.0 * f) <= np.abs(older * df)))
        older = last
        last = np.where(bisect, 0.5 * (hi - lo), np.abs(secant - x))
        prev, f_prev = x, f
        x = np.where(active, np.where(bisect, 0.5 * (lo + hi), secant), x)
    return at


@stacked
def minimize_mmse(coeffs: AmseCoefficients, bounds):
    """Global minimizer of the criterion over a per-side bound box.

    Along a ray h_minus = lambda h_plus the criterion is
    A h^4 + B h^6 + K C / h in h = h_plus, with A = (phi_+ - phi_- lambda^2)^2,
    B = (psi_+ - psi_- lambda^3)^2, C = omega_+ + omega_- / lambda and
    K = v / (n f).  Its one minimum in h, clipped to the part of the ray
    inside the box, gives a profile g(lambda), and every point of the box
    lies on one ray, so the box minimum is the minimum of g.  It is
    profiled once, in ray order, on 64 log-spaced rays across the box, the
    analytic rays where A = 0 and B = 0 and the two corners where the
    clipping bound changes sides, with its slope on both sides of each
    ray (they differ only at a corner).  Every node interval whose slope
    is negative just above its left end and positive just below its right
    end is refined to its root by safeguarded secant steps on the slope
    (see `_refine`).  The best of those roots and of the nodes
    that end no refined interval wins, the one on the lowest ray if they
    tie; it is boundary_clamped if the box clipped it on its ray.

    The profile is computed with bandwidths in units of
    sqrt(lo_plus hi_plus) and the criterion in units of
    K (omega_+ + omega_-) / sqrt(lo_plus hi_plus), both of one slice.
    Restating x in units of a x (phi / a^2, psi / a^3, f / a, a * bounds)
    or y in units of b y (phi, psi times b, omega times b^2) leaves the
    profile's numbers unchanged up to rounding, so the pair scales by a
    and does not move with b, as long as omega is a normal float.

    Parameters
    ----------
    coeffs : AmseCoefficients
        Of floats, or of (R,) arrays for a stack.
    bounds : ((lo_plus, hi_plus), (lo_minus, hi_minus))
        Floats, or (R,) arrays for a stack, as default_bounds gives them.

    A stack gives (BandwidthPair of arrays, errors) (see `rdbw.errors`);
    a slice that failed holds a finite placeholder pair.  Every slice
    is profiled on the nodes in groups of bounded size (see
    `rdbw.local_poly.slice_groups`), and the intervals of all slices are
    refined together.  A slice fails with DegenerateObjective where a
    variance numerator is subnormal, as for y in units below about
    1e-152, since its lost digits would move the pair; where its profile
    is not a number on any node; or where its criterion is not finite at
    its pair, as for x in units below about 1e-100 or above 1e103.
    """
    slices = len(coeffs.f)
    (lo_p, hi_p), (lo_m, hi_m) = bounds = tuple(
        tuple(np.broadcast_to(np.asarray(b, dtype=float), slices) for b in side) for side in bounds
    )
    errors = [None] * slices
    record(errors, ~((0.0 < lo_p) & (lo_p < hi_p) & (0.0 < lo_m) & (lo_m < hi_m)),
           lambda r: ValueError("bounds must satisfy 0 < lo < hi on each side"))
    record(errors, (coeffs.omega_plus == 0.0) & (coeffs.omega_minus == 0.0),
           lambda r: DegenerateObjective(
               "both variance numerators are zero; the criterion has no interior minimum"))
    # a subnormal numerator has lost digits and moves the pair: omega scales as
    # y^2, so this is y in units below about 1e-152
    tiny = np.finfo(float).tiny
    record(errors, np.any([(0.0 < w) & (w < tiny) for w in (coeffs.omega_plus, coeffs.omega_minus)], axis=0),
           lambda r: DegenerateObjective("a variance numerator is subnormal: y is in units too small"))
    # a coefficient that is not finite makes its slice's profile NaN: a DegenerateObjective below
    prob = _unit_free(coeffs, bounds)
    analytic = np.hstack((0.5 * np.log(prob.p_plus / prob.p_minus),
                          np.log(prob.q_plus / prob.q_minus) / 3.0))
    first, last = prob.w_lo - prob.u_hi, prob.w_hi - prob.u_lo
    # every slice's nodes in ray order, NaN last
    nodes = np.sort(np.hstack((
        np.linspace(first[:, 0], last[:, 0], PROFILE_NODES, axis=1),
        np.where((first < analytic) & (analytic < last), analytic, np.nan),
        prob.w_lo - prob.u_lo,
        prob.w_hi - prob.u_hi,
    )), axis=1)
    at = _node_profile(prob, nodes)
    undefined = np.isnan(at.value).all(axis=1)
    rows, cols = np.nonzero((at.slope[:, :-1] < 0.0) & (at.below[:, 1:] > 0.0))
    refined = _refine(_take(prob, rows), at.ell[rows, cols, None], at.ell[rows, cols + 1, None],
                      at.slope[rows, cols, None], at.below[rows, cols + 1, None])
    # an interval's ends lie above its root, which takes its left end's
    # place (a right end that starts the next interval takes that one's root)
    at.value[rows, cols + 1] = np.inf
    for name, column in vars(at).items():
        column[rows, cols] = getattr(refined, name)[:, 0]
    best = np.where(np.isnan(at.value), np.inf, at.value).argmin(axis=1)[:, None]
    t, ell, upper, clipped, minus = (np.take_along_axis(getattr(at, name), best, axis=1)[:, 0]
                                     for name in ("t", "ell", "upper", "clipped", "minus"))

    h_p = np.clip(np.exp(t + prob.log_ref[:, 0]), lo_p, hi_p)
    h_m = np.clip(np.exp(t + ell + prob.log_ref[:, 0]), lo_m, hi_m)
    # a clipped side sits exactly on its bound
    h_p = np.where(clipped & ~minus, np.where(upper, hi_p, lo_p), h_p)
    h_m = np.where(clipped & minus, np.where(upper, hi_m, lo_m), h_m)
    record(errors, undefined, lambda r: DegenerateObjective("the criterion is not a number anywhere on the profile"))
    # a failed slice takes a placeholder pair, at which the criterion is defined
    failed = failures(errors)
    h_p, h_m = np.where(failed, 1.0, h_p), np.where(failed, 1.0, h_m)
    # by the signs: the product of the phi underflows or overflows for x in extreme units
    opposite = np.sign(coeffs.phi_plus) * np.sign(coeffs.phi_minus) < 0.0
    regime = np.where(clipped, "boundary_clamped", np.where(opposite, "opposite_sign", "same_sign"))
    value = mmse_objective(h_p, h_m, coeffs)
    record(errors, ~np.isfinite(value), lambda r: DegenerateObjective(
        "the criterion is not finite at the selected pair"))
    return BandwidthPair(h_p, h_m, regime, value), errors


def afo_bandwidths(coeffs: AmseCoefficients) -> BandwidthPair:
    """Closed-form asymptotically optimal pair.

    Opposite curvature signs admit a first-order bias trade-off and
    n^(-1/5) rates; shared signs force first-order bias cancellation
    (h_minus proportional to h_plus) and n^(-1/7) rates driven by the
    second-order bias.
    """
    c = coeffs
    prod = c.phi_plus * c.phi_minus
    if prod == 0.0:
        raise ZeroCurvature("closed form requires nonzero curvature on both sides")

    if prod < 0.0:
        if c.omega_plus == 0.0 or c.omega_minus == 0.0:
            raise DegenerateObjective(
                "opposite-sign closed form requires positive variance on both sides"
            )
        lam = (-c.phi_plus * c.omega_minus / (c.phi_minus * c.omega_plus)) ** (1.0 / 3.0)
        theta = (
            c.v
            * c.omega_plus
            / (4.0 * c.f * c.phi_plus * (c.phi_plus - lam * lam * c.phi_minus))
        ) ** 0.2
        h_p = theta * c.n ** (-1.0 / 5.0)
        regime = "opposite_sign"
    else:
        lam = np.sqrt(c.phi_plus / c.phi_minus)
        spread = c.psi_plus - lam**3 * c.psi_minus
        if spread == 0.0:
            raise AssumptionViolated(
                "second-order bias cancels exactly on the first-order constraint"
            )
        if c.omega_plus == 0.0 and c.omega_minus == 0.0:
            raise DegenerateObjective(
                "both variance numerators are zero; closed form degenerates"
            )
        theta = (c.v * (c.omega_plus + c.omega_minus / lam) / (6.0 * c.f * spread**2)) ** (
            1.0 / 7.0
        )
        h_p = theta * c.n ** (-1.0 / 7.0)
        regime = "same_sign"

    h_m = float(lam * h_p)
    h_p = float(h_p)
    return BandwidthPair(
        h_plus=h_p,
        h_minus=h_m,
        regime=regime,
        objective_value=mmse_objective(h_p, h_m, coeffs),
    )


@stacked
def default_bounds(sample: Sample):
    """Per-side bandwidth box: [3rd-nearest support distance, data range].

    The lower bound keeps the order-1 boundary fit solvable at
    estimation time; boundary hits are reported by the minimizer rather
    than silently accepted.  Both bounds are read off the side's pass
    (`rdbw.local_poly.side_stats`), which the pilots of the same stack
    have made: lo is the side's 3rd-smallest distinct |x - c|, from three
    masked minimum passes over each row tile's side values with no sort,
    and hi its largest minus its smallest x.  A stack gives
    (((lo_plus, hi_plus), (lo_minus, hi_minus)) of (R,) arrays, errors).
    """
    slices = len(sample.x)
    errors = [None] * slices
    out = []
    for side in ("plus", "minus"):
        stats = side_stats(sample, side)
        lo, hi = stats.near, stats.top - stats.bottom
        record(errors, lo == np.inf, lambda r: InsufficientData(
            f"need at least 3 distinct support distances on the {side} side"))
        record(errors, ~(lo < hi), lambda r: DegenerateSample(
            f"bandwidth bounds collapse on the {side} side (lo={lo[r]:g}, hi={hi[r]:g})"))
        out.append((lo, hi))
    return tuple(out), errors


@stacked
def select_bandwidths(
    sample: Sample,
    kernel: KernelSpec = KernelSpec(),
    mode: str = "fuzzy",
):
    """Full pipeline: pilots, criterion coefficients, joint minimization.

    A stack runs pilots, coefficients, bounds and the minimizer once for
    all slices, and returns (SelectionResult, errors).
    """
    moments = compute_moments(kernel)
    pilots, errors = assemble_pilots(sample, kernel)
    coeffs, later = compute_coefficients(pilots, moments, mode, n=sample.n)
    merge(errors, later)
    bounds, later = default_bounds(sample)
    merge(errors, later)
    pairs, later = minimize_mmse(coeffs, bounds)
    merge(errors, later)
    return SelectionResult(bandwidths=pairs, pilots=pilots, coefficients=coeffs), errors
