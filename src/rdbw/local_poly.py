"""Kernel-weighted local polynomial regression fitted on one side of a cutoff.

The boundary fit is the one estimation primitive: order 1 for the level
estimates entering the ratio estimator and the variance and jump pilots,
order 4 with equal weights over a whole side for the curvature pilots.
Side convention: "plus" takes observations with x >= c (ties at the
cutoff go to the plus side), "minus" takes x < c.

A fit gathers only the rows near the cutoff, regresses Y and D together
on powers of the unit-free coordinate (x - c)/h, and accumulates the
triangular factor of the weighted least-squares problem over blocks of
rows, so no full design matrix is ever formed.  Within a block the rows
are split into cache-sized chunks whose QR factorizations run as one
stacked call; their triangular factors are then reduced to one, as in
the tall-skinny QR of Demmel, Grigori, Hoemmen and Langou (SIAM J. Sci.
Comput. 34, 2012), which gives the R of one QR of the whole block up to
the signs of its rows and rounding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularDesign
from .kernels import KernelSpec, eval_kernel

# relative singular-value floor below which the weighted design is declared rank-deficient
_SV_RTOL = 1e-10
# rows per block of the QR accumulation; bounds the design's memory for any window
_BLOCK_ROWS = 1 << 16
# rows per chunk of the stacked QR inside a block; keeps each factorization in cache
_CHUNK_ROWS = 1 << 10


@dataclass(frozen=True)
class Sample:
    """Observations (x_i, y_i, d_i) around a cutoff c.

    Arrays are stored read-only; every d_i must be 0 or 1 and both sides
    of the cutoff must be populated.
    """

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    c: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if not (x.ndim == y.ndim == d.ndim == 1):
            raise ValueError("x, y, d must be one-dimensional")
        n = x.size
        if y.size != n or d.size != n:
            raise ValueError("x, y, d must share one length")
        if n < 2:
            raise ValueError("need at least two observations")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(d))):
            raise ValueError("all values must be finite")
        if not np.all((d == 0.0) | (d == 1.0)):
            raise ValueError("treatment indicator must be 0 or 1")
        if not np.any(x >= self.c) or not np.any(x < self.c):
            raise ValueError("need observations on both sides of the cutoff")
        for arr, name in ((x, "x"), (y, "y"), (d, "d")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.size

    def side_mask(self, side: str) -> np.ndarray:
        if side == "plus":
            return self.x >= self.c
        if side == "minus":
            return self.x < self.c
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")

    def side_x(self, side: str) -> np.ndarray:
        """The x values of one side, in sample order."""
        # an index gather is several times faster than a boolean one on large samples
        return self.x.take(np.flatnonzero(self.side_mask(side)))


@dataclass(frozen=True)
class BoundaryFit:
    """Result of a one-sided weighted polynomial fit.

    coefficients[k] estimates m^(k)(c) / k! with one column per response,
    Y then D; coefficients[0] is the fitted value at the cutoff.  rows
    indexes the sample's observations with positive weight.
    """

    coefficients: np.ndarray
    side: str
    h: float
    rows: np.ndarray

    @property
    def value(self) -> np.ndarray:
        """Fitted (Y, D) values at the cutoff."""
        return self.coefficients[0]

    @property
    def effective_n(self) -> int:
        return int(self.rows.size)


def fit_boundary(
    sample: Sample,
    side: str,
    h: float,
    order: int = 1,
    kernel: KernelSpec = KernelSpec(),
) -> BoundaryFit:
    """Weighted least squares of Y and D on powers of (x - c), one side only.

    Weights are K((x_i - c)/h); only observations with strictly positive
    weight enter the solve, so points outside the bandwidth have no
    influence at all.  The design holds the powers of (x - c)/h, built by
    repeated multiplication, so its conditioning does not depend on the
    units of x; the coefficients are rescaled by h^-k afterwards.

    Y and D are two right-hand sides of one design: R of the QR
    factorization of [sqrt(w) powers | sqrt(w) Y, sqrt(w) D] is
    accumulated over blocks of rows, and the (order + 1, 2) coefficients
    come from a triangular solve with its leading block.  Each block's
    whole 1024-row chunks are factorized by one stacked QR call, and
    their R factors, the leftover rows and the running R are reduced by
    one more QR; a window under 1024 rows takes that last QR alone.

    Raises
    ------
    SingularDesign
        If fewer than order+1 distinct x values carry positive weight, or
        the weighted design is numerically rank-deficient (smallest
        singular value of its R below 1e-10 of the largest).
    ValueError
        If h is not positive and finite, or order is below 1.
    """
    if not 0.0 < h < np.inf:
        raise ValueError("bandwidth must be positive and finite")
    if order < 1:
        raise ValueError("order must be at least 1")

    # gather the rows of a slightly wider interval than |x - c| <= h, so no
    # rounding in (x - c)/h can drop a point; the kernel decides the weights
    x, y, d, c = sample.x, sample.y, sample.d, sample.c
    reach = h + 1e-12 * (abs(c) + h)
    near = sample.side_mask(side)
    near &= x <= c + reach if side == "plus" else x >= c - reach
    candidates = np.flatnonzero(near)
    p = order + 1
    kept, r = [], None
    for start in range(0, candidates.size, _BLOCK_ROWS):
        rows = candidates[start : start + _BLOCK_ROWS]
        u = (x[rows] - c) / h
        w = eval_kernel(kernel, u)
        keep = w > 0.0
        rows, u, sw = rows[keep], u[keep], np.sqrt(w[keep])
        kept.append(rows)
        a = np.empty((rows.size, p + 2), order="F")
        a[:, 0] = sw
        for k in range(1, p):
            np.multiply(a[:, k - 1], u, out=a[:, k])
        np.multiply(sw, y[rows], out=a[:, p])
        np.multiply(sw, d[rows], out=a[:, p + 1])
        # factor whole chunks in one stacked call; the view copies nothing
        full = rows.size - rows.size % _CHUNK_ROWS
        if full:
            chunks = a[:full].T.reshape(p + 2, -1, _CHUNK_ROWS).transpose(1, 2, 0)
            a = np.vstack((np.linalg.qr(chunks, mode="r").reshape(-1, p + 2), a[full:]))
        r = np.linalg.qr(a if r is None else np.vstack((r, a)), mode="r")
    rows = np.concatenate(kept) if kept else candidates
    if rows.size >= p:
        design, rhs = r[:p, :p], r[:p, p:]
        sv = np.linalg.svd(design, compute_uv=False)
    if rows.size < p or not sv[-1] >= _SV_RTOL * sv[0]:
        distinct = np.unique(x[rows]).size
        if distinct < p:
            raise SingularDesign(
                f"{distinct} distinct x values with positive weight; order {order} needs {p}"
            )
        raise SingularDesign(
            f"weighted design is rank-deficient (singular values {sv[0]:.3e}..{sv[-1]:.3e})"
        )

    # LU of an upper-triangular matrix needs no pivoting, so this is back substitution
    coef = np.linalg.solve(design, rhs) / float(h) ** np.arange(p)[:, None]
    return BoundaryFit(coef, side, float(h), rows)


def estimate_level(sample: Sample, side: str, h: float, kernel: KernelSpec = KernelSpec()):
    """Local linear (Y, D) levels at the cutoff: row 0 of an order-1 fit."""
    return fit_boundary(sample, side, h, order=1, kernel=kernel).value
