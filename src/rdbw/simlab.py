"""Synthetic designs and the Monte Carlo engine for the selector.

Two benchmark designs share the assignment distribution (a stretched
Beta) and the treatment-probability jump at the cutoff, and differ in
the outcome curvature: design1 has opposite curvature signs across the
cutoff with a large jump, design2 shares the sign with a small jump.
Replications are keyed by (seed, rep_index), and a range of indices
draws as one stack whose slices equal the single draws.  A unit is
treated when its uniform draw falls below treatment_prob(x); a vectorised
approximation with a proven error bound settles that comparison, and
treatment_prob itself only where the two lie within 1e-6, so the draws
equal the direct comparison bit for bit.  The Monte Carlo
engine runs fixed blocks of consecutive replications, each drawn, then
selected and estimated as one stack (see `rdbw.local_poly`): block k
holds replications [kB, kB + B) with B = max(1, 65536 // n), so 131 at
n = 500 and one replication per block from n = 65536 on.  Every stage
runs its per-replication temporaries on bounded groups of a block's
replications, and those of a replication longer than one row tile on
its tiles, so a block's memory is mostly its own (B, n) arrays.
Blocks depend only on n, and a worker pool of at most one process per
block maps whole blocks, so summaries are bit-identical for every `jobs`
value.  Each replication's results come from its own rows, so they do
not depend on its block either (see README, Determinism).
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import AllTrimmed, RdbwError, ValidationError, failures, merge
from .estimator import frd_estimate
from .kernels import KernelSpec
from .local_poly import Sample, slice_tiles
from .selector import select_bandwidths

DESIGNS = ("design1", "design2")
METHODS = ("mmse_f", "mmse_s")

# shift of the normal index defining the participation probability
_PROB_SHIFT = 1.28
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Abramowitz & Stegun 7.1.26 (Handbook of Mathematical Functions, 1964):
# erfc(w) = t (a1 + t (a2 + ... + t a5)) exp(-w^2) + e(w), t = 1 / (1 + p w),
# with |e(w)| <= 1.5e-7 for w >= 0, so the normal tail it gives is within
# 7.5e-8 (measured 6.9e-8 on [-1, 1]); listed as (p, a1, ..., a5)
_AS_ERFC = (0.3275911, 0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
# draws whose uniform lies within this of the approximation are decided
# by treatment_prob; every other comparison is settled by the bound
_REFINE_GAP = 1e-6

# outcome polynomials: per design, per cutoff side, slope coefficients on
# (x, x^2, x^3, x^4, x^5); arms share slopes and differ by intercept
_SLOPES = {
    ("design1", "plus"): (18.49, -54.8, 74.3, -45.02, 9.83),
    ("design1", "minus"): (2.99, 3.28, 1.45, 0.22, 0.03),
    ("design2", "plus"): (5.76, -42.56, 120.90, -139.71, 55.59),
    ("design2", "minus"): (-2.26, -13.14, -30.89, -31.98, -12.1),
}
_INTERCEPTS = {
    ("design1", "treated"): -0.17,
    ("design1", "control"): 4.13,
    ("design2", "treated"): 0.0975,
    ("design2", "control"): 0.0225,
}
TRUE_TAU = {"design1": -4.30, "design2": 0.075}

# data-independent threshold ceilings for the |error| CDF series,
# scaled to each design's error magnitude
_CDF_TOP = {"design1": 2.0, "design2": 0.5}
CDF_POINTS = 200

DEFAULT_ERROR_SD = 0.1295

# observations per block of stacked replications.  A block pays a fixed
# cost per stage call, so larger blocks run faster; each stage bounds the
# temporaries it holds per replication (local_poly.slice_tiles), so a
# block's memory is mostly its own three (B, n) arrays
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class DgpSpec:
    """One synthetic design at one sample size under one seed."""

    design: str
    n: int
    error_sd: float = DEFAULT_ERROR_SD
    seed: int = 0

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}, got {self.design!r}")
        if self.n < 50:
            raise ValueError(f"n must be at least 50, got {self.n}")
        if not 0.0 < self.error_sd < math.inf:
            raise ValueError(f"error_sd must be positive and finite, got {self.error_sd}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass(frozen=True)
class McSummary:
    """Replication statistics for one method on one design."""

    method: str
    h_plus_mean: float
    h_plus_sd: float
    h_minus_mean: float
    h_minus_sd: float
    bias_trimmed: float
    rmse_trimmed: float
    cdf: tuple
    reps_total: int
    reps_failed: int


def treatment_prob(x):
    """Participation probability: a normal CDF whose index jumps at 0.

    Phi(x + 1.28) for x >= 0 and Phi(x - 1.28) for x < 0; accepts
    scalars or arrays.  Phi(z) = erfc(-z / sqrt(2)) / 2 with the
    standard library's math.erfc.
    """
    x = np.asarray(x, dtype=float)
    z = x + np.where(x >= 0.0, _PROB_SHIFT, -_PROB_SHIFT)
    p = 0.5 * np.asarray(_erfc(-z * math.sqrt(0.5)), dtype=float)
    return float(p) if p.ndim == 0 else p


def _trend(design: str, x: np.ndarray) -> np.ndarray:
    """The quintic part of the outcome, shared by both arms: slopes only.

    Each side's polynomial runs by Horner over the whole array; x > 0
    keeps the plus side's value and the rest take the minus side's.
    """

    def horner(slopes):
        acc = x * slopes[-1]
        for b in reversed(slopes[:-1]):
            acc += b
            acc *= x
        return acc

    out = horner(_SLOPES[design, "plus"])
    np.copyto(out, horner(_SLOPES[design, "minus"]), where=x <= 0.0)
    return out


def _approx_prob(x: np.ndarray) -> np.ndarray:
    """treatment_prob(x) to within 7.5e-8, vectorised through A&S 7.1.26."""
    p, *a = _AS_ERFC
    # w = |z| / sqrt(2): |x| + 1.28 is |z| exactly on both sides
    w = np.abs(x)
    w += _PROB_SHIFT
    w *= math.sqrt(0.5)
    t = w * p
    t += 1.0
    np.reciprocal(t, out=t)
    tail = t * a[-1]
    for coef in reversed(a[:-1]):
        tail += coef
        tail *= t
    w *= w
    np.negative(w, out=w)
    tail *= np.exp(w, out=w)
    tail *= 0.5
    # tail is Phi(-|z|): the probability left of the cutoff, its complement right of it
    return np.subtract(1.0, tail, out=tail, where=x >= 0.0)


def _treated(x: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """uniform < treatment_prob(x) elementwise, calling it only near ties.

    _approx_prob settles every comparison whose gap exceeds _REFINE_GAP,
    far above its error; the rest go to treatment_prob.
    """
    gap = uniform - _approx_prob(x)
    treated = gap < 0.0
    near = np.abs(gap) <= _REFINE_GAP
    if near.any():
        treated[near] = uniform[near] < treatment_prob(x[near])
    return treated


def mean_outcome(design: str, arm: str, x):
    """Arm-specific regression function, a quintic on each side of 0."""
    if design not in DESIGNS:
        raise ValueError(f"design must be one of {DESIGNS}, got {design!r}")
    if arm not in ("treated", "control"):
        raise ValueError(f"arm must be 'treated' or 'control', got {arm!r}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(arr) <= 1.0):
        raise ValueError("x must lie in [-1, 1]")

    out = _INTERCEPTS[design, arm] + _trend(design, arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def _fill(spec: DgpSpec, x: np.ndarray, y: np.ndarray, d: np.ndarray):
    """Turn a block's generator draws into its data, in place: the Beta
    draws in x, the uniforms in d and the standard normal errors in y.

    Scaling the errors by error_sd gives the bits of
    `rng.normal(0.0, error_sd)`, which computes 0.0 + sd * z.
    """
    # rng.normal overflows silently too; draw_sample rejects the draws
    with np.errstate(over="ignore"):
        y *= spec.error_sd
    # the Beta draws stretched onto [-1, 1], in place
    x *= 2.0
    x -= 1.0
    treated = _treated(x, d)
    d[...] = treated
    # the arms share slopes: one trend plus each arm's intercept, then the
    # error; float addition commutes, so this is intercept + trend + error
    mean = _trend(spec.design, x)
    mean += np.where(treated, _INTERCEPTS[spec.design, "treated"], _INTERCEPTS[spec.design, "control"])
    y += mean


def draw_sample(spec: DgpSpec, rep_index=0) -> Sample:
    """One replication's data, keyed deterministically by (seed, rep_index).

    A range of indices gives the stack of those replications: slice k
    equals draw_sample(spec, rep_index[k]).  Each replication draws its
    Beta variates tile by tile, which is one stream, and its uniforms and
    normal errors in place into d and y, so the draws need no arrays of
    their own.  The elementwise steps after them run on bounded blocks of
    the (R, n) arrays (see `rdbw.local_poly.slice_tiles`) and act on each
    entry alone, so a slice does not depend on the blocks.  Treatment is
    uniform < treatment_prob(x), decided by a bounded approximation and,
    within 1e-6 of it, by treatment_prob itself, so d is exactly that
    comparison.  Raises ValueError for an empty range, and
    ValidationError if the draws are not a valid sample, as for an
    error_sd so large that the outcomes overflow.
    """
    reps = rep_index if isinstance(rep_index, range) else (rep_index,)
    if not reps:
        raise ValueError(f"rep_index must hold at least one replication, got {rep_index!r}")
    x, y, d = (np.empty((len(reps), spec.n)) for _ in range(3))
    # the elementwise steps hold about three values per observation
    for g, tiles in slice_tiles(len(reps), spec.n, 3 * spec.n):
        for k in range(g.start, g.stop):
            rng = np.random.default_rng([spec.seed, reps[k]])
            for t in tiles:
                x[k, t] = rng.beta(2.0, 4.0, t.stop - t.start)
            rng.random(out=d[k])
            rng.standard_normal(out=y[k])
        for t in tiles:
            _fill(spec, x[g, t], y[g, t], d[g, t])
    if not isinstance(rep_index, range):
        x, y, d = x[0], y[0], d[0]
    try:
        return Sample(x=x, y=y, d=d, c=0.0)
    except ValueError as e:
        raise ValidationError(f"draws with error_sd={spec.error_sd:g}: {e}") from e


def trimmed_stats(errors, trim_fraction: float = 0.05):
    """Bias and RMSE after discarding the largest-|error| replications.

    Drops ceil(trim_fraction * R) entries; the ratio estimator has no
    finite unconditional variance, so untrimmed summaries are dominated
    by stray near-zero denominators.

    Returns
    -------
    (bias, rmse) : tuple of floats
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("errors must be nonempty")
    if not 0.0 <= trim_fraction <= 1.0:
        raise ValueError("trim_fraction must be in [0, 1]")
    k = math.ceil(trim_fraction * errors.size)
    order = np.argsort(np.abs(errors), kind="stable")
    keep = order[: errors.size - k] if k else order
    if keep.size == 0:
        raise AllTrimmed(f"trimming removed all {errors.size} replications")
    survivors = errors[keep]
    return float(np.mean(survivors)), float(np.sqrt(np.mean(survivors**2)))


def _block_reps(n: int) -> int:
    return max(1, _BLOCK_VALUES // n)


def _run_block(spec: DgpSpec, method: str, kernel: KernelSpec, reps: int, block: int):
    """(h_plus, h_minus, error) of the replications of one block that did not fail, as arrays."""
    size = _block_reps(spec.n)
    stack = draw_sample(spec, range(block * size, min((block + 1) * size, reps)))
    mode = "fuzzy" if method == "mmse_f" else "sharp"
    sel, errors = select_bandwidths(stack, kernel, mode)
    # a failed slice estimates at the placeholder pair; its error stays first
    pair = sel.bandwidths
    est, later = frd_estimate(stack, pair.h_plus, pair.h_minus, kernel)
    merge(errors, later)
    for error in errors:
        if error is not None and not isinstance(error, RdbwError):
            raise error
    ok = ~failures(errors)
    return pair.h_plus[ok], pair.h_minus[ok], est.tau[ok] - TRUE_TAU[spec.design]


def run_monte_carlo(
    spec: DgpSpec,
    method: str,
    reps: int,
    kernel: KernelSpec = KernelSpec(),
    jobs: Optional[int] = None,
) -> McSummary:
    """Replicate select-then-estimate and summarize the error distribution.

    Per replication: draw data, select bandwidths (fuzzy criterion for
    mmse_f, sharp for mmse_s), and compute the jump-ratio estimate with
    the selected pair; blocks of consecutive replications select and
    estimate as one stack.  Replications that raise a module error are
    counted as failed and excluded.  Bias and RMSE are trimmed; the
    |error| CDF is tabulated on a fixed design-specific threshold grid.

    Parameters
    ----------
    jobs : int, optional
        Process count for parallel blocks (at least 1, at most the number
        of blocks used; None runs serially); results are identical to the
        serial order for any value.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    run = partial(_run_block, spec, method, kernel, reps)
    blocks = range(-(-reps // _block_reps(spec.n)))
    workers = min(jobs or 1, len(blocks))
    if workers > 1:
        # importing the process pool loads multiprocessing: only runs with workers pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = [run(block) for block in blocks]
    hp, hm, err = (np.concatenate(column) for column in zip(*parts))
    failed = reps - len(err)
    if not len(err):
        raise AllTrimmed(f"all {reps} replications failed")

    # ceil trimming empties a sample of one replication alone
    bias, rmse = trimmed_stats(err) if len(err) > 1 else trimmed_stats(err, 0.0)

    thresholds = np.linspace(0.0, _CDF_TOP[spec.design], CDF_POINTS)
    # the share of errors at or below each threshold
    below = np.searchsorted(np.sort(np.abs(err)), thresholds, side="right") / len(err)
    cdf = tuple(zip(thresholds.tolist(), below.tolist()))
    return McSummary(
        method=method,
        h_plus_mean=float(np.mean(hp)),
        h_plus_sd=float(np.std(hp)),
        h_minus_mean=float(np.mean(hm)),
        h_minus_sd=float(np.std(hm)),
        bias_trimmed=bias,
        rmse_trimmed=rmse,
        cdf=cdf,
        reps_total=reps,
        reps_failed=failed,
    )
