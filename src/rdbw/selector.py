"""Two-sided bandwidth selection for the boundary-contrast estimator.

The criterion keeps three terms: the squared first-order bias contrast,
the squared second-order bias contrast, and the variance of the jump
estimate.  It is minimized jointly over (h_plus, h_minus): a coarse
logarithmic grid finds the basins, a box-projected Newton method with
the criterion's closed-form derivatives polishes each one, and an exact
solve along each coordinate (a degree-7 polynomial) checks the result.
Closed-form optimal pairs exist in both curvature regimes and double as
oracle and fallback.

`select_bandwidths`, `compute_coefficients` and `default_bounds` run on
a stack of samples as on one (see `rdbw.local_poly`).  The minimizer
takes the coefficients and bounds of every slice that has not failed in
one call: each slice runs its own grid and Newton descents, and the
exact check runs on all of them at once.
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
    merge,
    raise_first,
    record,
)
from .kernels import KernelMoments, KernelSpec, compute_moments
from .local_poly import Sample
from .pilot import PilotEstimates, assemble_pilots

REGIMES = ("opposite_sign", "same_sign", "boundary_clamped")

GRID_POINTS = 60
# grid positions in units of the log-spacing, as np.geomspace places its nodes
_GRID_STEPS = np.arange(float(GRID_POINTS))[:, None]
# relative slack when deciding whether the optimum sits on the bound box
_EDGE_RTOL = 1e-8
# a log-bandwidth this close to its bound sits on it (the bound is active)
_ACTIVE_TOL = 1e-12
# Newton stops once its step in log-bandwidth is this small
_STEP_TOL = 1e-13
# below this step length, where the Hessian is positive definite, Newton
# takes the full step without a line search
_TRUST_STEP = 1e-6
_NEWTON_MAXITER = 100
_LINE_SEARCH_HALVINGS = 40
# sufficient-decrease fraction of the line search
_ARMIJO = 1e-4
# a polynomial root counts as real when its imaginary part is this small
_ROOT_IMAG_TOL = 1e-8
# relative margin by which a per-coordinate candidate must beat Newton
_CHECK_RTOL = 1e-12
_CHECK_ROUNDS = 4


@dataclass(frozen=True)
class AmseCoefficients:
    """Plug-in coefficients of the bandwidth criterion.

    phi_* multiply h^2 in the first-order bias, psi_* multiply h^3 in
    the second-order bias, omega_* are the variance numerators; v is the
    kernel variance constant, f the density at the cutoff, tauD the
    denominator jump and n the sample size.
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
        if self.omega_plus < 0.0 or self.omega_minus < 0.0:
            raise ValueError("omega coefficients must be nonnegative")
        if self.f <= 0.0:
            raise ValueError("density at the cutoff must be positive")
        if self.v <= 0.0:
            raise ValueError("kernel variance constant must be positive")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")


@dataclass(frozen=True)
class BandwidthPair:
    h_plus: float
    h_minus: float
    regime: str
    objective_value: float

    def __post_init__(self):
        if not (self.h_plus > 0.0 and self.h_minus > 0.0):
            raise ValueError("bandwidths must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")


@dataclass(frozen=True)
class SelectionResult:
    """Bandwidths plus the intermediate quantities that produced them.

    For a stack, bandwidths and coefficients are tuples with one entry
    per slice, None where the slice failed, and pilots holds arrays.
    """

    bandwidths: BandwidthPair
    pilots: PilotEstimates
    coefficients: AmseCoefficients


def _zeta(side_sign: float, m2: float, m3: float, slope_ratio: float, xi1, xi2):
    # second-order bias kernel of one response on one side
    return side_sign * (xi1 * (0.5 * m2 * slope_ratio + m3 / 6.0) - xi2 * 0.5 * m2 * slope_ratio)


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
        Stacked pilots (arrays) give (tuple of AmseCoefficients, errors),
        one entry per slice, None where the slice's coefficients are
        invalid.
    moments : KernelMoments
    mode : {"fuzzy", "sharp"}
        Fuzzy combines outcome and treatment terms through the pilot
        ratio; sharp keeps only the outcome terms and fixes the
        denominator jump at 1.
    n : int
        Sample size entering the variance term.
    """
    stacked = np.ndim(pilots.f) == 1
    if mode not in ("fuzzy", "sharp"):
        error = ValueError(f"mode must be 'fuzzy' or 'sharp', got {mode!r}")
        if not stacked:
            raise error
        return (None,) * pilots.f.size, [error] * pilots.f.size

    # a nonpositive density fails AmseCoefficients' own check below
    ratio = pilots.f1 / np.where(pilots.f > 0.0, pilots.f, 1.0)
    zy_p = _zeta(-1.0, pilots.m2Y_plus, pilots.m3Y_plus, ratio, moments.xi1, moments.xi2)
    zy_m = _zeta(+1.0, pilots.m2Y_minus, pilots.m3Y_minus, ratio, moments.xi1, moments.xi2)

    # a zero ratio drops every treatment term, which is the sharp criterion
    tau = pilots.tau if mode == "fuzzy" else 0.0
    zd_p = _zeta(-1.0, pilots.m2D_plus, pilots.m3D_plus, ratio, moments.xi1, moments.xi2)
    zd_m = _zeta(+1.0, pilots.m2D_minus, pilots.m3D_minus, ratio, moments.xi1, moments.xi2)
    omega_p = pilots.sig2Y_plus + tau * tau * pilots.sig2D_plus - 2.0 * tau * pilots.sigYD_plus
    omega_m = pilots.sig2Y_minus + tau * tau * pilots.sig2D_minus - 2.0 * tau * pilots.sigYD_minus
    fields = {
        "phi_plus": moments.c1 * (pilots.m2Y_plus - tau * pilots.m2D_plus),
        "phi_minus": moments.c1 * (pilots.m2Y_minus - tau * pilots.m2D_minus),
        "psi_plus": zy_p - tau * zd_p,
        "psi_minus": zy_m - tau * zd_m,
        "omega_plus": np.maximum(0.0, omega_p),
        "omega_minus": np.maximum(0.0, omega_m),
        "v": moments.v,
        "f": pilots.f,
        "tauD": pilots.tauD if mode == "fuzzy" else 1.0,
    }
    # one column of floats per slice
    table = np.array(np.broadcast_arrays(*fields.values())).reshape(len(fields), -1).T.tolist()
    if not stacked:
        return AmseCoefficients(**dict(zip(fields, table[0])), n=n)
    coeffs, errors = [], []
    for column in table:
        try:
            coeffs.append(AmseCoefficients(**dict(zip(fields, column)), n=n))
            errors.append(None)
        except ValueError as e:
            coeffs.append(None)
            errors.append(e)
    return tuple(coeffs), errors


def _criterion(c: AmseCoefficients, hp, hm):
    # the criterion on floats or on arrays that broadcast together
    bias1 = c.phi_plus * hp**2 - c.phi_minus * hm**2
    bias2 = c.psi_plus * hp**3 - c.psi_minus * hm**3
    var = (c.v / (c.n * c.f)) * (c.omega_plus / hp + c.omega_minus / hm)
    return bias1 * bias1 + bias2 * bias2 + var


def mmse_objective(h_plus: float, h_minus: float, coeffs: AmseCoefficients) -> float:
    """Criterion value at one bandwidth pair.

    Squared first-order bias contrast plus squared second-order bias
    contrast plus the variance term v/(n f) (omega_+/h_+ + omega_-/h_-).
    """
    if not (h_plus > 0.0 and h_minus > 0.0):
        raise ValueError("bandwidths must be positive")
    return float(_criterion(coeffs, h_plus, h_minus))


def _classify(coeffs: AmseCoefficients) -> str:
    return "opposite_sign" if coeffs.phi_plus * coeffs.phi_minus < 0.0 else "same_sign"


def _grid_starts(grid: np.ndarray, hp: np.ndarray, hm: np.ndarray):
    """Local minima of the grid over 3 x 3 neighbourhoods, best first.

    Ties in value break toward the smallest h_plus + h_minus.
    """
    pad = np.full((grid.shape[0] + 2, grid.shape[1] + 2), np.inf)
    pad[1:-1, 1:-1] = grid
    rows = np.minimum(np.minimum(pad[:, :-2], pad[:, 1:-1]), pad[:, 2:])
    window = np.minimum(np.minimum(rows[:-2], rows[1:-1]), rows[2:])
    i, j = np.nonzero(grid <= window)
    order = np.lexsort((hp[i] + hm[j], grid[i, j]))
    return [(float(hp[a]), float(hm[b])) for a, b in zip(i[order], j[order])]


def _log_derivatives(c: AmseCoefficients, h_plus: float, h_minus: float):
    """Gradient, Hessian and Gauss-Newton matrix of the criterion in
    (u, w) = (log h_plus, log h_minus).

    With X = phi_+ h_+^2, Y = phi_- h_-^2, P = psi_+ h_+^3,
    Q = psi_- h_-^3, e1 = X - Y, e2 = P - Q and V_+- the two variance
    terms, F_u = 4 X e1 + 6 P e2 - V_+, F_uu = 8 X e1 + 8 X^2 + 18 P e2
    + 18 P^2 + V_+ and F_uw = -8 X Y - 18 P Q; F_w and F_ww mirror them.
    The Gauss-Newton matrix drops the residual terms 8 X e1 + 18 P e2
    and their mirror, which leaves it positive semidefinite.  Each
    matrix is (uu, uw, ww, det).
    """
    k = c.v / (c.n * c.f)
    x = c.phi_plus * h_plus**2
    y = c.phi_minus * h_minus**2
    p = c.psi_plus * h_plus**3
    q = c.psi_minus * h_minus**3
    e1 = x - y
    e2 = p - q
    var_p = k * c.omega_plus / h_plus
    var_m = k * c.omega_minus / h_minus
    grad = (4.0 * x * e1 + 6.0 * p * e2 - var_p, -4.0 * y * e1 - 6.0 * q * e2 - var_m)
    uw = -8.0 * x * y - 18.0 * p * q
    a = 8.0 * x * x + 18.0 * p * p
    b = 8.0 * y * y + 18.0 * q * q
    # the rank-one parts of the determinant cancel to 144 (XQ - PY)^2,
    # which uu ww - uw^2 would lose to rounding in the narrow valley
    cross = 144.0 * (x * q - p * y) ** 2

    def matrix(d_u, d_w):
        return d_u + a, uw, d_w + b, cross + d_u * b + d_w * a + d_u * d_w

    hess = matrix(8.0 * x * e1 + 18.0 * p * e2 + var_p, -8.0 * y * e1 - 18.0 * q * e2 + var_m)
    return grad, hess, matrix(var_p, var_m)


def _newton_direction(grad, hess, gauss_newton, free):
    """Descent step on the free coordinates, and whether it is a Newton
    step on a positive definite Hessian.  Where the Hessian is not
    positive definite, the Gauss-Newton matrix takes its place."""
    if free[0] and free[1]:
        convex = hess[0] > 0.0 and hess[3] > 0.0
        uu, uw, ww, det = hess if convex else gauss_newton
        if det > 0.0:
            return (
                (uw * grad[1] - ww * grad[0]) / det,
                (uw * grad[0] - uu * grad[1]) / det,
            ), convex
        return (-grad[0], -grad[1]), False
    i = 0 if free[0] else 1
    convex = hess[2 * i] > 0.0
    curv = hess[2 * i] if convex else gauss_newton[2 * i]
    step = [0.0, 0.0]
    step[i] = -grad[i] / curv if curv > 0.0 else -grad[i]
    return (step[0], step[1]), convex


def _to_box(z: float, bound, log_bound):
    """Bandwidth and log-bandwidth of z clipped to one side of the box.

    Within _ACTIVE_TOL of a bound, z lands exactly on it.
    """
    if z <= log_bound[0] + _ACTIVE_TOL:
        return bound[0], log_bound[0]
    if z >= log_bound[1] - _ACTIVE_TOL:
        return bound[1], log_bound[1]
    return min(max(math.exp(z), bound[0]), bound[1]), z


def _newton(coeffs: AmseCoefficients, h, value: float, bounds, visited=None):
    """Damped, box-projected Newton descent in log-bandwidth from h.

    A coordinate on its bound stays fixed while the gradient pushes it
    outward.  Steps are halved until the criterion decreases, except
    short steps where the Hessian is positive definite: there the
    decrease is below the criterion's rounding, so the full step is
    taken on the gradient's word, until such steps stop halving.
    Returns the final pair and its criterion value; every iterate's
    log-bandwidths are appended to visited, if given.
    """
    log_bounds = [(math.log(lo), math.log(hi)) for lo, hi in bounds]
    last_trusted = math.inf
    for _ in range(_NEWTON_MAXITER):
        grad, hess, gauss_newton = _log_derivatives(coeffs, h[0], h[1])
        z = [math.log(h[0]), math.log(h[1])]
        if visited is not None:
            visited.append(z)
        free = [
            not (
                (z[i] <= log_bounds[i][0] + _ACTIVE_TOL and grad[i] > 0.0)
                or (z[i] >= log_bounds[i][1] - _ACTIVE_TOL and grad[i] < 0.0)
            )
            for i in (0, 1)
        ]
        if not (free[0] or free[1]):
            break
        step, convex = _newton_direction(grad, hess, gauss_newton, free)
        size = max(abs(step[0]), abs(step[1]))
        trusted = convex and size <= _TRUST_STEP
        if size <= _STEP_TOL or (trusted and size > 0.5 * last_trusted):
            break
        t = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS):
            (hp, zp), (hm, zm) = (
                _to_box(z[i] + t * step[i], bounds[i], log_bounds[i]) for i in (0, 1)
            )
            v = mmse_objective(hp, hm, coeffs)
            slope = grad[0] * (zp - z[0]) + grad[1] * (zm - z[1])
            if trusted or (v < value and v <= value + _ARMIJO * slope):
                break
            t *= 0.5
        else:
            break
        h, value = (hp, hm), v
        if trusted:
            last_trusted = size
    return h, value


def _as_stack(bounds):
    """A box of floats as a box of (1,) arrays, the stack of one."""
    return tuple((np.array([lo], dtype=float), np.array([hi], dtype=float)) for lo, hi in bounds)


def _columns(coeffs):
    """A sequence of AmseCoefficients as (R, 1) columns that _criterion takes."""
    table = np.array([list(vars(c).values()) for c in coeffs])
    return SimpleNamespace(**dict(zip(vars(coeffs[0]), table.T[:, :, None])))


def _coordinate_best(coeffs, h, side: int, bounds):
    """Exact best value of one bandwidth with the other held fixed.

    For h_minus at fixed h_plus, dF/dh_minus = 0 times h_minus^2 is
    6 psi_-^2 h^7 + 4 phi_-^2 h^5 - 6 psi_- B h^4 - 4 phi_- A h^3 - D,
    with A = phi_+ h_+^2, B = psi_+ h_+^3 and D = v omega_- / (n f); the
    h_plus case mirrors it.  The candidates are the box ends and the
    real roots inside the box; the polynomial is solved in h / h[side],
    which keeps its coefficients free of the data's units.

    On a stack (R AmseCoefficients, h as (R, 2) and bounds of (R,)
    arrays, as default_bounds gives them) returns (pairs, values,
    errors), pairs as (R, 2).  Rows are grouped by the degree left once
    leading and trailing zero coefficients are stripped, as np.roots
    strips them, and each group's companion matrices, built as np.roots
    builds them, take one eigvals call.  A row whose companion matrix is
    not finite fails alone, with np.roots' error.  The candidates, in
    the order lo, hi, then the in-box real roots, take one vectorised
    criterion; the first strict minimum wins, and its value is
    recomputed with mmse_objective.
    """
    if isinstance(coeffs, AmseCoefficients):
        pairs, values, errors = _coordinate_best((coeffs,), np.array([h], dtype=float), side, _as_stack(bounds))
        raise_first(errors)
        return tuple(pairs[0]), values[0]
    # built per row on Python floats: numpy's array ** rounds some squares
    # and cubes differently from float pow, which would move the roots
    polys = []
    for c, (h_p, h_m) in zip(coeffs, h.tolist()):
        if side == 0:
            phi, psi, omega = c.phi_plus, c.psi_plus, c.omega_plus
            a, b, s = c.phi_minus * h_m**2, c.psi_minus * h_m**3, h_p
        else:
            phi, psi, omega = c.phi_minus, c.psi_minus, c.omega_minus
            a, b, s = c.phi_plus * h_p**2, c.psi_plus * h_p**3, h_m
        q, r = phi * s**2, psi * s**3
        polys.append([6.0 * r * r, 0.0, 4.0 * q * q, -6.0 * r * b, -4.0 * q * a, 0.0, 0.0,
                      -c.v * omega / (c.n * c.f * s)])
    poly = np.array(polys)
    nonzero = poly != 0.0
    first = nonzero.argmax(axis=1)
    # order of the companion matrix; 0 where no root is left
    order = np.where(nonzero.any(axis=1), poly.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1) - first, 0)
    roots = np.full((len(poly), poly.shape[1] - 1), np.nan, dtype=complex)
    errors = [None] * len(poly)
    for m in np.unique(order[order > 0]).tolist():
        rows = np.flatnonzero(order == m)
        stripped = poly[rows[:, None], first[rows, None] + np.arange(m + 1)]
        companion = np.zeros((len(rows), m, m))
        companion[:, 0] = -stripped[:, 1:] / stripped[:, :1]
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        finite = np.isfinite(companion[:, 0]).all(axis=1)
        for r in rows[~finite]:
            errors[r] = np.linalg.LinAlgError("Array must not contain infs or NaNs")
        roots[rows[finite], :m] = np.linalg.eigvals(companion[finite])

    lo, hi = (end[:, None] for end in bounds[side])
    scaled = h[:, side, None] * roots.real
    inside = (np.abs(roots.imag) <= _ROOT_IMAG_TOL * np.abs(roots)) & (lo < scaled) & (scaled < hi)
    candidates = np.hstack((lo, hi, np.where(inside, scaled, np.nan)))
    fixed = h[:, 1 - side, None]
    value = _criterion(_columns(coeffs), *((candidates, fixed) if side == 0 else (fixed, candidates)))
    pairs = h.copy()
    # argmin takes the first minimum; a NaN (no candidate) never wins
    pairs[:, side] = candidates[np.arange(len(poly)), np.where(np.isnan(value), np.inf, value).argmin(axis=1)]
    values = [mmse_objective(h_p, h_m, c) for c, (h_p, h_m) in zip(coeffs, pairs.tolist())]
    return pairs, values, errors


def _path_distance(point, tails, heads) -> float:
    """Euclidean distance from point to the nearest segment tails[i] -> heads[i]."""
    if not len(tails):
        return math.inf
    span = heads - tails
    length2 = np.einsum("ij,ij->i", span, span)
    t = np.clip(np.einsum("ij,ij->i", point - tails, span) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    gap = point - (tails + t[:, None] * span)
    return float(np.sqrt(np.einsum("ij,ij->i", gap, gap).min()))


def _descend(coeffs: AmseCoefficients, box):
    """Best pair and value of the grid and the Newton runs from its
    minima; None where the criterion is NaN on the whole grid."""
    lo, hi = np.array(box).T
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    nodes = _GRID_STEPS * ((log_hi - log_lo) / (GRID_POINTS - 1)) + log_lo
    nodes[-1] = log_hi
    grid = 10.0**nodes
    grid[0], grid[-1] = lo, hi
    hp, hm = grid.T
    # one grid cell per side, in natural log-bandwidth
    cell = (log_hi - log_lo) * (math.log(10.0) / (GRID_POINTS - 1))
    starts = _grid_starts(_criterion(coeffs, hp[:, None], hm[None, :]), hp, hm)
    if not starts:
        return None
    # the best node first, then the others from the worst up: a run from
    # far up a valley passes by the valley's other grid minima
    h_best, v_best = None, math.inf
    tails, heads = np.empty((0, 2)), np.empty((0, 2))  # path segments, in grid cells
    for start in starts[:1] + starts[:0:-1]:
        node = np.log(start) / cell
        if _path_distance(node, tails, heads) <= 1.0:
            continue  # an earlier run descended past this node
        visited = []
        h, v = _newton(coeffs, start, mmse_objective(start[0], start[1], coeffs), box, visited)
        path = np.array(visited) / cell
        tails = np.vstack((tails, path[:-1] if len(path) > 1 else path))
        heads = np.vstack((heads, path[1:] if len(path) > 1 else path))
        if v < v_best:
            h_best, v_best = h, v
    return h_best, v_best


def minimize_mmse(coeffs, bounds):
    """Global minimizer of the criterion over a per-side bound box.

    A 60 x 60 logarithmic grid locates the basins (the criterion mixes
    h^2, h^3 and 1/h terms and can have several).  From each local
    minimum of the grid, a damped Newton method in log-bandwidth with
    the criterion's closed-form gradient and Hessian, projected on the
    box, descends to a stationary point.  The best minimum goes first,
    then the others from the worst up, and a minimum within one grid
    cell of the path of an earlier run is skipped: a valley that the
    grid aliases into a row of minima takes one run.  The best result
    then passes an exact check along each coordinate, h_minus first:
    with the other bandwidth held fixed, the criterion's stationary
    points are the roots of a degree-7 polynomial, so the best value on
    that line is known exactly; a better candidate restarts Newton and
    the check.  Ties on the grid break toward the smallest
    h_plus + h_minus.  The returned value never exceeds the best grid
    node.  Every step is expressed in unit-free quantities, so
    restating the coefficients and the box in units of a x (phi / a^2,
    psi / a^3, f / a, a * bounds) returns a times the pair.

    Parameters
    ----------
    coeffs : AmseCoefficients, or a sequence of R of them
    bounds : ((lo_plus, hi_plus), (lo_minus, hi_minus))
        Floats, or (R,) arrays for a sequence of coefficients, as
        default_bounds gives them for a stack.

    A sequence gives (pairs, errors), one entry per slice, the pair None
    where the slice failed (see `rdbw.errors`).  Each slice runs its own
    grid and Newton descents, and the exact check runs on every slice
    still being checked at once: one eigvals call per polynomial degree
    and check step.
    """
    if isinstance(coeffs, AmseCoefficients):
        pairs, errors = minimize_mmse((coeffs,), _as_stack(bounds))
        raise_first(errors)
        return pairs[0]
    bounds = tuple((np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)) for lo, hi in bounds)
    boxes = [((a, b), (c, d)) for a, b, c, d in zip(*(end.tolist() for side in bounds for end in side))]
    errors = [None] * len(coeffs)
    found = [None] * len(coeffs)  # (pair, value) per slice
    for r, (c, box) in enumerate(zip(coeffs, boxes)):
        (lo_p, hi_p), (lo_m, hi_m) = box
        if not (0.0 < lo_p < hi_p and 0.0 < lo_m < hi_m):
            errors[r] = ValueError("bounds must satisfy 0 < lo < hi on each side")
        elif c.omega_plus == 0.0 and c.omega_minus == 0.0:
            errors[r] = DegenerateObjective(
                "both variance numerators are zero; the criterion has no interior minimum"
            )
        else:
            found[r] = _descend(c, box)
            if found[r] is None:
                errors[r] = DegenerateObjective("the criterion is not a number anywhere on the grid")

    # each round checks side 1, then side 0; a better candidate restarts
    # Newton, and that slice's next round
    checking = [r for r, e in enumerate(errors) if e is None]
    for _ in range(_CHECK_ROUNDS):
        restarted = []
        for side in (1, 0):
            if not checking:
                break
            pairs, values, failed = _coordinate_best(
                [coeffs[r] for r in checking],
                np.array([found[r][0] for r in checking], dtype=float),
                side,
                tuple((lo[checking], hi[checking]) for lo, hi in bounds),
            )
            left = []
            for r, h, v, error in zip(checking, pairs.tolist(), values, failed):
                if error is not None:
                    errors[r] = error
                elif v < found[r][1] * (1.0 - _CHECK_RTOL):
                    found[r] = _newton(coeffs[r], h, v, boxes[r])
                    restarted.append(r)
                else:
                    left.append(r)
            checking = left
        checking = restarted

    out = [None] * len(coeffs)
    for r, error in enumerate(errors):
        if error is None:
            (h_p, h_m), v = found[r]
            (lo_p, hi_p), (lo_m, hi_m) = boxes[r]
            on_edge = (
                h_p <= lo_p * (1 + _EDGE_RTOL)
                or h_p >= hi_p * (1 - _EDGE_RTOL)
                or h_m <= lo_m * (1 + _EDGE_RTOL)
                or h_m >= hi_m * (1 - _EDGE_RTOL)
            )
            regime = "boundary_clamped" if on_edge else _classify(coeffs[r])
            out[r] = BandwidthPair(h_plus=h_p, h_minus=h_m, regime=regime, objective_value=v)
    return out, errors


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


def default_bounds(sample: Sample):
    """Per-side bandwidth box: [3rd-nearest support distance, data range].

    The lower bound keeps the order-1 boundary fit solvable at
    estimation time; boundary hits are reported by the minimizer rather
    than silently accepted.  The 3rd-smallest distinct |x - c| comes from
    three masked minimum passes, with no sort.  A stack gives
    (((lo_plus, hi_plus), (lo_minus, hi_minus)) of (R,) arrays, errors).
    """
    stack = sample.as_stack()
    errors = [None] * len(stack.x)
    out = []
    for side in ("plus", "minus"):
        # padding at infinite distance takes no part in a minimum
        xs, _, side_rows = stack.side_values(side, np.inf)
        dist = np.abs(xs - stack.c)
        lo = np.full(len(xs), -np.inf)
        for _ in range(3):
            lo = np.min(dist, axis=1, where=dist > lo[:, None], initial=np.inf)
        record(errors, lo == np.inf, lambda r: InsufficientData(
            f"need at least 3 distinct support distances on the {side} side"))
        hi = np.max(xs, axis=1, where=side_rows, initial=-np.inf) - np.min(xs, axis=1)
        record(errors, ~(lo < hi), lambda r: DegenerateSample(
            f"bandwidth bounds collapse on the {side} side (lo={lo[r]:g}, hi={hi[r]:g})"))
        out.append((lo, hi))
    if sample.stacked:
        return tuple(out), errors
    raise_first(errors)
    return tuple((float(lo[0]), float(hi[0])) for lo, hi in out)


def select_bandwidths(
    sample: Sample,
    kernel: KernelSpec = KernelSpec(),
    mode: str = "fuzzy",
):
    """Full pipeline: pilots, criterion coefficients, joint minimization.

    A stack runs pilots, coefficients and bounds once for all slices and
    the minimizer once for the slices that have not failed, and returns
    (SelectionResult, errors).
    """
    moments = compute_moments(kernel)
    stack = sample.as_stack()
    pilots, errors = assemble_pilots(stack, kernel)
    coeffs, later = compute_coefficients(pilots, moments, mode, n=stack.n)
    merge(errors, later)
    bounds, later = default_bounds(stack)
    merge(errors, later)
    pairs = [None] * len(errors)
    ok = [r for r, error in enumerate(errors) if error is None]
    if ok:
        found, later = minimize_mmse([coeffs[r] for r in ok], tuple((lo[ok], hi[ok]) for lo, hi in bounds))
        for r, pair, error in zip(ok, found, later):
            pairs[r], errors[r] = pair, error
    if sample.stacked:
        return SelectionResult(bandwidths=tuple(pairs), pilots=pilots, coefficients=coeffs), errors
    raise_first(errors)
    return SelectionResult(bandwidths=pairs[0], pilots=pilots.at(0), coefficients=coeffs[0])
