"""Synthetic designs and the Monte Carlo engine for the selector.

Two benchmark designs share the assignment distribution (a stretched
Beta) and the treatment-probability jump at the cutoff, and differ in
the outcome curvature: design1 has opposite curvature signs across the
cutoff with a large jump, design2 shares the sign with a small jump.
Replications are keyed by (seed, rep_index), and a range of indices
draws as one stack whose slices equal the single draws.  The Monte Carlo
engine runs fixed blocks of consecutive replications, each drawn, then
selected and estimated as one stack (see `rdbw.local_poly`): block k
holds replications [kB, kB + B) with B = max(1, 16384 // n), so 32 at
n = 500 and one replication per block from n = 16384 on.  Blocks depend
only on n, and a worker pool of at most one process per block maps
whole blocks, so summaries are bit-identical for every `jobs` value.  A
stacked fit pads each slice to the block's widest window, so the last
bits of one replication's results may depend on its block-mates.
"""

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import AllTrimmed, RdbwError, ValidationError, merge
from .estimator import frd_estimate
from .kernels import KernelSpec
from .local_poly import Sample
from .selector import select_bandwidths

DESIGNS = ("design1", "design2")
METHODS = ("mmse_f", "mmse_s")

# shift of the normal index defining the participation probability
_PROB_SHIFT = 1.28
_erfc = np.frompyfunc(math.erfc, 1, 1)

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

# observations per block of stacked replications; bounds a block's memory,
# whose largest part is the whole-side quartic fit's design and its QR copy
_BLOCK_VALUES = 1 << 14


def __getattr__(name):
    # importing the process pool loads multiprocessing: only runs with workers pay for it
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """The quintic part of the outcome, shared by both arms: slopes only."""
    out = np.empty_like(x)
    for side, mask in (("plus", x > 0.0), ("minus", x <= 0.0)):
        xs = x[mask]
        acc = np.zeros_like(xs)
        for b in reversed(_SLOPES[design, side]):
            acc = xs * (acc + b)
        out[mask] = acc
    return out


def mean_outcome(design: str, arm: str, x):
    """Arm-specific regression function, a quintic on each side of 0."""
    if design not in DESIGNS:
        raise ValueError(f"design must be one of {DESIGNS}, got {design!r}")
    if arm not in ("treated", "control"):
        raise ValueError(f"arm must be 'treated' or 'control', got {arm!r}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("x must lie in [-1, 1]")

    out = _INTERCEPTS[design, arm] + _trend(design, arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def draw_sample(spec: DgpSpec, rep_index=0) -> Sample:
    """One replication's data, keyed deterministically by (seed, rep_index).

    A range of indices gives the stack of those replications: slice k
    equals draw_sample(spec, rep_index[k]).  Each replication makes its
    own three generator calls; everything after them runs once on the
    (R, n) arrays.  Raises ValidationError if the draws are not a valid
    sample, as for an error_sd so large that the outcomes overflow.
    """
    reps = rep_index if isinstance(rep_index, range) else (rep_index,)
    x, uniform, eps = (np.empty((len(reps), spec.n)) for _ in range(3))
    for k, rep in enumerate(reps):
        rng = np.random.default_rng([spec.seed, rep])
        x[k] = rng.beta(2.0, 4.0, spec.n)
        uniform[k] = rng.uniform(size=spec.n)
        eps[k] = rng.normal(0.0, spec.error_sd, spec.n)
    # the Beta draws stretched onto [-1, 1], in place
    x *= 2.0
    x -= 1.0
    d = (uniform < treatment_prob(x)).astype(float)
    # the arms share slopes: one trend, then each arm's intercept
    intercept = np.where(
        d == 1.0, _INTERCEPTS[spec.design, "treated"], _INTERCEPTS[spec.design, "control"]
    )
    y = intercept + _trend(spec.design, x) + eps
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
    """(h_plus, h_minus, error) per replication of one block, None where it failed."""
    size = _block_reps(spec.n)
    stack = draw_sample(spec, range(block * size, min((block + 1) * size, reps)))
    mode = "fuzzy" if method == "mmse_f" else "sharp"
    sel, errors = select_bandwidths(stack, kernel, mode)
    # a failed slice estimates at placeholder bandwidths; its error stays first
    h_plus = np.array([p.h_plus if p else 1.0 for p in sel.bandwidths])
    h_minus = np.array([p.h_minus if p else 1.0 for p in sel.bandwidths])
    est, later = frd_estimate(stack, h_plus, h_minus, kernel)
    merge(errors, later)
    out = []
    for r, error in enumerate(errors):
        if error is None:
            out.append((h_plus[r], h_minus[r], est.tau[r] - TRUE_TAU[spec.design]))
        elif isinstance(error, RdbwError):
            out.append(None)
        else:
            raise error
    return out


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
        Process count for parallel blocks (at most the number of
        blocks); results are identical to the serial order for any value.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")

    run = partial(_run_block, spec, method, kernel, reps)
    blocks = range(-(-reps // _block_reps(spec.n)))
    workers = min(jobs or 1, len(blocks))
    if workers > 1:
        # looked up on the module, which imports the pool on first use
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            raw = [rep for block in pool.map(run, blocks) for rep in block]
    else:
        raw = [rep for block in blocks for rep in run(block)]

    results = [r for r in raw if r is not None]
    failed = reps - len(results)
    if not results:
        raise AllTrimmed(f"all {reps} replications failed")

    hp = np.array([r[0] for r in results])
    hm = np.array([r[1] for r in results])
    err = np.array([r[2] for r in results])

    try:
        bias, rmse = trimmed_stats(err)
    except AllTrimmed:
        # single-replication runs: ceil trimming would empty the sample
        bias, rmse = trimmed_stats(err, 0.0)

    thresholds = np.linspace(0.0, _CDF_TOP[spec.design], CDF_POINTS)
    abs_err = np.abs(err)
    cdf = tuple(
        (float(t), float(np.mean(abs_err <= t))) for t in thresholds
    )
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
