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
are split into cache-sized chunks whose QR factorizations run as
stacked calls; their triangular factors are then reduced to one, as in
the tall-skinny QR of Demmel, Grigori, Hoemmen and Langou (SIAM J. Sci.
Comput. 34, 2012), which gives the R of one QR of the whole block up to
the signs of its rows and rounding.  A block's design is built in
pieces, one at a time, and a long sample's window is found row tile by
row tile, so a fit holds one piece's design and rows however long the
sample.  `window_pieces` alone decides a window's rows and weights, for
the fit, its rank error and the variance pilot.

A `Sample` may hold a stack of R samples of one size as (R, n) arrays.
Every function taking a Sample is written once over that leading axis
and returns (result, errors), the result holding one entry per slice
along a leading axis and errors as described in `rdbw.errors`; a slice
that fails keeps finite placeholder values.  So does a stage taking, in
place of a Sample, a dataclass of (R,) arrays.  The one entry point,
`stacked`, passes a stack through and runs a single sample, or a
dataclass of scalars, as the stack of one, raising its error or
returning its slice; it also sets every stage's one floating-point
policy, numpy's warnings off.

One memory rule holds for every stage, in both directions of a stack.
A stage whose temporaries grow with the data works it in blocks of
slices and rows (`slice_tiles`): slices of at most _TILE_ROWS rows in
groups of whole slices of bounded size (`slice_groups`), a longer slice
alone, in row tiles of _TILE_ROWS rows.  Tile boundaries depend on n
alone, so a slice computes the same alone and in a stack, and a sample
of any size costs its own arrays plus a fixed working set.  A slice of
one tile runs as one block, as numpy would run it whole; a longer slice
combines its tiles' partial results in order, which can round in the
last bits otherwise than one pass over the slice would.
"""

import functools
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import SingularDesign, record
from .kernels import KernelSpec, eval_kernel

# relative singular-value floor below which the weighted design is declared rank-deficient
_SV_RTOL = 1e-10
# window rows per block of one slice's QR accumulation, whose R factors
# are reduced to one
_BLOCK_ROWS = 1 << 16
# window rows per piece of a block whose design is built at once; bounds
# the fit's memory for any window (numpy's QR copies what it factors)
_PIECE_ROWS = 1 << 13
# values that one stage's temporaries may hold at once over a group of
# slices (see slice_groups); a stack's memory beyond its own arrays then
# does not grow with its size
_GROUP_VALUES = 1 << 16
# rows per tile of a slice longer than this (see slice_tiles); each tile
# costs a few dozen numpy calls, and tiles of 2^14 rows made an n = 5e5
# analysis about 10% slower
_TILE_ROWS = 1 << 16
# rows per chunk of the stacked QR inside a block; keeps each factorization in cache
_CHUNK_ROWS = 1 << 10


def _row_counts(mask):
    """True entries per row of an (R, n) mask."""
    # over an axis, count_nonzero sums a cast to integers: ten times slower on one long row
    return np.count_nonzero(mask, axis=1) if len(mask) > 1 else np.array([np.count_nonzero(mask)])


def _pad(values, counts, fill):
    """Per-slice runs of values, slice 0's run first, left-aligned in an
    (R, max(counts)) array padded with fill."""
    width = int(counts.max(initial=0))
    if values.size == counts.size * width:
        return values.reshape(counts.size, width)
    out = np.full((counts.size, width), fill, dtype=values.dtype)
    out[np.arange(width) < counts[:, None]] = values
    return out


def _holds(test, values) -> bool:
    """Whether the elementwise test holds on every entry of an (n,) or
    (R, n) array, taken block by block (see `slice_tiles`)."""
    rows = values.reshape(-1, values.shape[-1])
    blocks = slice_tiles(len(rows), rows.shape[1], rows.shape[1])
    return all(test(rows[g, t]).all() for g, tiles in blocks for t in tiles)


@dataclass(frozen=True)
class Sample:
    """Observations (x_i, y_i, d_i) around a cutoff c.

    x, y and d are one-dimensional for one sample, or (R, n) for a stack
    of R samples of size n sharing the cutoff.  Arrays are stored
    read-only; every d_i must be 0 or 1 and both sides of the cutoff must
    be populated in every slice.
    """

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    c: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if not (x.ndim == y.ndim == d.ndim and x.ndim in (1, 2)):
            raise ValueError("x, y, d must be one-dimensional, or (R, n) stacks")
        if y.shape != x.shape or d.shape != x.shape:
            raise ValueError("x, y, d must share one length")
        if x.shape[-1] < 2 or x.size == 0:
            raise ValueError("need at least two observations")
        if not (_holds(np.isfinite, x) and _holds(np.isfinite, y) and _holds(np.isfinite, d)):
            raise ValueError("all values must be finite")
        if not _holds(lambda v: (v == 0.0) | (v == 1.0), d):
            raise ValueError("treatment indicator must be 0 or 1")
        # x is finite: a slice has a row on each side if its extremes do
        if not (np.all(x.max(axis=-1) >= self.c) and np.all(x.min(axis=-1) < self.c)):
            raise ValueError("need observations on both sides of the cutoff")
        for arr, name in ((x, "x"), (y, "y"), (d, "d")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.x.ndim == 2

    def as_stack(self) -> "Sample":
        """This sample as a stack of one, sharing its checked arrays; a stack is itself."""
        return self if self.stacked else self._share(None)

    def part(self, index: slice, rows: slice = slice(None)) -> "Sample":
        """The slices index of a stack, or their rows in rows, as a stack
        sharing its checked arrays."""
        return self._share((index, rows))

    def _share(self, index) -> "Sample":
        # the arrays were checked when this sample was made
        stack = object.__new__(Sample)
        for name in ("x", "y", "d"):
            object.__setattr__(stack, name, getattr(self, name)[index])
        object.__setattr__(stack, "c", self.c)
        return stack

    def side_mask(self, side: str) -> np.ndarray:
        if side == "plus":
            return self.x >= self.c
        if side == "minus":
            return self.x < self.c
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")

    def side_values(self, side: str, fill: float):
        """(values, sizes, where) of one side of a stack: each slice's x
        values in sample order, left-aligned in an (R, m) array padded
        with fill, m being the largest side; each slice's side size; and
        the mask of real values, or True where there is no padding, to
        pass as a reduction's where."""
        mask = self.side_mask(side)
        sizes = _row_counts(mask)
        # an index gather is several times faster than a boolean one on large samples
        values = _pad(self.x.take(np.flatnonzero(mask)), sizes, fill)
        where = True if values.size == sizes.sum() else np.arange(values.shape[1]) < sizes[:, None]
        return values, sizes, where


def slice_groups(slices: int, per_slice: int):
    """Consecutive groups of a stack's slices, as slice objects, whose
    per_slice values each sum to at most _GROUP_VALUES, or that hold one
    slice; the fewest such groups, as even as can be.

    A stage whose temporaries hold per_slice values for each slice runs
    group by group, so they stay bounded however many slices a stack has.
    A group of one slice still holds all of its values: a stage whose
    values grow with n groups through `slice_tiles`, which works a slice
    of more than _TILE_ROWS rows alone, in row tiles.
    """
    count = -(-slices // max(1, _GROUP_VALUES // max(1, per_slice)))
    return [slice(k * slices // count, (k + 1) * slices // count) for k in range(count)]


def slice_tiles(slices: int, n: int, per_slice: int):
    """The blocks a stage works a stack of slices of n rows in, as
    (group, tiles) pairs: a group of slices and the row tiles, as slice
    objects, that cover its rows in order.

    Slices of at most _TILE_ROWS rows are grouped by `slice_groups` with
    per_slice values each, and have the one tile of all their rows.  A
    longer slice is a group alone, tiled in _TILE_ROWS rows from its
    first row on, the last tile partial.  Either way a block's data is
    a C-contiguous view of the stack's arrays, and a block holds at most
    max(_GROUP_VALUES, per-row values x _TILE_ROWS) values.
    """
    if n <= _TILE_ROWS:
        groups = slice_groups(slices, per_slice)
    else:
        groups = [slice(s, s + 1) for s in range(slices)]
    rows = [slice(i, min(i + _TILE_ROWS, n)) for i in range(0, n, _TILE_ROWS)]
    return [(g, rows) for g in groups]


def _first(result):
    """Slice 0 of a stacked result: entry 0 of an array, a 0-d entry as a
    Python scalar; a tuple or dataclass field by field; anything else as
    it is."""
    if isinstance(result, np.ndarray):
        entry = result[0]
        return entry.item() if isinstance(entry, np.generic) else entry
    if isinstance(result, tuple):
        return tuple(map(_first, result))
    if is_dataclass(result):
        return type(result)(**{f.name: _first(getattr(result, f.name)) for f in fields(result)})
    return result


def _as_stack(first):
    """(stack, single): first as a stack, and whether it held one sample;
    a dataclass of scalars stacks as one of (1,) arrays."""
    if isinstance(first, Sample):
        return first.as_stack(), not first.stacked
    if any(np.ndim(v) for v in vars(first).values()):
        return first, False
    return replace(first, **{name: np.reshape(v, 1) for name, v in vars(first).items()}), True


def stacked(body):
    """The entry point of a function written over a stack of samples.

    body(stack, ...) returns (result, errors).  Its first argument is a
    Sample, or a dataclass of per-slice values: (R,) arrays on a stack,
    scalars for one sample.  A stack is passed to body as it is; a single
    sample runs as the stack of one, whose error is raised and whose
    slice 0 is returned.

    body runs under np.errstate(all="ignore"), for a stack and one sample
    alike, and the caller's state comes back when the call returns or
    raises: a slice may compute through inf and NaN, which the stages'
    checks turn into an `RdbwError` (see `rdbw.errors`).
    """

    @functools.wraps(body)
    def call(first, *args, **kwargs):
        stack, single = _as_stack(first)
        with np.errstate(all="ignore"):
            result, errors = body(stack, *args, **kwargs)
        if single and errors[0] is not None:
            raise errors[0]
        return _first(result) if single else (result, errors)

    return call


@dataclass(frozen=True)
class BoundaryFit:
    """Result of a one-sided weighted polynomial fit.

    coefficients[k] estimates m^(k)(c) / k! with one column per response,
    Y then D; coefficients[0] is the fitted value at the cutoff.  h is
    the bandwidth the fit was given.  effective_n counts the observations
    with positive weight, the rows of its window (`window_pieces`) with
    w > 0.  The fit of a stack has a leading slice axis on coefficients,
    h and effective_n.
    """

    coefficients: np.ndarray
    h: float
    effective_n: int

    @property
    def value(self) -> np.ndarray:
        """Fitted (Y, D) values at the cutoff."""
        return self.coefficients[..., 0, :]


def _rank_error(stack: Sample, pieces, order: int, sv):
    """The SingularDesign of a slice whose window is pieces (see
    `window_pieces`): how many distinct x values carry positive weight if
    fewer than order + 1, counted piece by piece, else its singular values."""
    p = order + 1
    seen = np.empty(0)  # at most p of the distinct values, enough to tell
    for rows, _, w in pieces:
        seen = np.union1d(seen, stack.x.take(rows[w > 0.0]))[:p]
    if seen.size < p:
        return SingularDesign(
            f"{seen.size} distinct x values with positive weight; order {order} needs {p}"
        )
    return SingularDesign(
        f"weighted design is rank-deficient (singular values {sv[0]:.3e}..{sv[-1]:.3e})"
    )


def _window(stack: Sample, side: str, h: np.ndarray) -> np.ndarray:
    """The mask of each slice's rows within reach of the cutoff.

    The interval is slightly wider than |x - c| <= h, so no rounding in
    (x - c)/h can drop a point; the kernel decides the weights.
    """
    x, c = stack.x, stack.c
    reach = (h + 1e-12 * (abs(c) + h))[:, None]
    near = stack.side_mask(side)
    near &= x <= c + reach if side == "plus" else x >= c - reach
    return near


def _weighted_design(stack: Sample, rows: np.ndarray, u: np.ndarray, w: np.ndarray, p: int):
    """The positive-weight count per slice among one piece of a window
    (see `window_pieces`), and its design [sqrt(w) u^k | sqrt(w) y,
    sqrt(w) d] as one C-ordered (slices, rows) plane per column; w is
    overwritten.  Padding rows and rows of zero weight have zero rows."""
    count = _row_counts(w > 0.0)
    sw = np.sqrt(w, out=w)
    a = np.empty((p + 2,) + rows.shape)
    a[0] = sw
    for k in range(1, p):
        np.multiply(a[k - 1], u, out=a[k])
    for k, values in ((p, stack.y), (p + 1, stack.d)):
        values.take(rows, out=a[k], mode="wrap")  # "raise" would buffer the take; -1 wraps as it does
        a[k] *= sw
    return count, a


def window_pieces(stack: Sample, side: str, h: np.ndarray, group: slice, tiles, kernel: KernelSpec, near=None):
    """The kernel window of a group of a stack's slices, with the row
    tiles `slice_tiles` gives it, as (rows, u, w) in pieces of _PIECE_ROWS
    columns, the last one partial.  rows are flat indices into the stack's
    arrays: each slice's rows within reach of bandwidth h[s], in sample
    order, left-aligned and padded with -1; u = (x - c)/h[s], 2 on
    padding rows; w = K(u), zero on padding rows and at the window's edge.
    They are the rows `fit_boundary` weighs and its weights, and those
    with w > 0 are the rows it counts in effective_n.  The window is read
    from near, the stack's window mask where the caller has it, or else
    found tile by tile, so a long slice's mask and rows are never held
    whole; the pieces are those of its whole window all the same."""
    held = None
    for t in tiles:
        mask = _window(stack.part(group, t), side, h[group]) if near is None else near[group, t]
        flat = np.flatnonzero(mask)
        flat += group.start * stack.n + t.start
        rows = _pad(flat, _row_counts(mask), -1)
        held = rows if held is None else np.concatenate((held, rows), axis=1)
        # whole pieces as they fill, and after the last tile what is left
        while held.shape[1] >= _PIECE_ROWS or (held.shape[1] and t is tiles[-1]):
            rows, held = held[:, :_PIECE_ROWS], held[:, _PIECE_ROWS:]
            u = stack.x.take(rows)
            u -= stack.c
            u /= h[group, None]
            u[rows < 0] = 2.0  # outside the kernel's support: zero weight
            yield rows, u, eval_kernel(kernel, u)


def _reduce(r, parts, p: int):
    """The running R and the R factors in parts reduced to one triangular factor."""
    r = np.concatenate(parts if r is None else [r] + parts, axis=1)
    return np.linalg.qr(r, mode="r") if r.shape[1] > p + 2 else r  # one factor would come back unchanged


def _factor(stack: Sample, pieces, slices: int, p: int):
    """(effective_n, R) of one group of slices: the count of positive
    weights among the candidate rows per slice, and the leading p rows of
    the triangular factor of each slice's design, as a (slices, p, p + 2)
    array.

    pieces holds the group's window as `window_pieces` gives it, whose
    designs are built one piece at a time.  A piece's whole 1024-row
    chunks are factorized by one stacked QR call and its partial last
    chunk by another; after every _BLOCK_ROWS rows, and after the last
    piece, those R factors and the running R are reduced by one more QR.
    The pieces thus bound the fit's memory without changing its
    arithmetic.  A slice padded with zero rows past its own last chunk
    gets zero R factors there, which leave the reduction's triangular
    result as it is.
    """
    r, parts, done = None, [], 0
    effective = np.zeros(slices, dtype=int)
    for candidates, u, w in pieces:
        count, a = _weighted_design(stack, candidates, u, w, p)
        effective += count
        # factor whole chunks in one stacked call; the view copies nothing
        full = a.shape[2] - a.shape[2] % _CHUNK_ROWS
        if full:
            chunks = a[:, :, :full].reshape(p + 2, slices, -1, _CHUNK_ROWS).transpose(1, 2, 3, 0)
            parts.append(np.linalg.qr(chunks, mode="r").reshape(slices, -1, p + 2))
        if full < a.shape[2]:
            parts.append(np.linalg.qr(a[:, :, full:].transpose(1, 2, 0), mode="r"))
        a = chunks = None  # the next piece's design is not built while this one is held
        done += candidates.shape[1]
        if done % _BLOCK_ROWS == 0:  # every piece but the last is whole, and pieces tile a block
            r, parts = _reduce(r, parts, p), []
    if parts:
        r = _reduce(r, parts, p)
    if r is None or r.shape[1] < p:
        r = np.zeros((slices, p, p + 2)) if r is None else np.pad(r, ((0, 0), (0, p - r.shape[1]), (0, 0)))
    return effective, r[:, :p]


@stacked
def fit_boundary(
    sample: Sample,
    side: str,
    h,
    order: int = 1,
    kernel: KernelSpec = KernelSpec(),
):
    """Weighted least squares of Y and D on powers of (x - c), one side only.

    Weights are K((x_i - c)/h); a zero weight makes a zero row, so points
    outside the bandwidth have no influence at all.  The design holds the
    powers of (x - c)/h, built by repeated multiplication, so its
    conditioning does not depend on the units of x; the coefficients are
    rescaled by h^-k afterwards, by k divisions.  No row index is
    returned.

    Y and D are two right-hand sides of one design: R of the QR
    factorization of [sqrt(w) powers | sqrt(w) Y, sqrt(w) D] is
    accumulated over blocks of 2^16 window rows, and the (order + 1, 2)
    coefficients come from a triangular solve with its leading block.
    Each block's whole 1024-row chunks are factorized by stacked QR
    calls of at most 2^13 rows, one per piece of the block whose design
    is built at once, and its partial last chunk by another; their R
    factors and the running R are reduced by one more QR, which a window
    of one chunk skips.

    On a stack, h is one bandwidth per slice (or one for all).  Slices of
    at most 2^16 rows are factorized in groups of consecutive slices
    (see `slice_tiles`) whose designs, the QR's copy of them and their
    rows hold at most 2^16 values; within a group every slice's window
    is padded with zero rows to the group's widest window, and each QR
    is one stacked call.  A slice's chunks are those of its window alone,
    followed by chunks of zero rows, so its R is the one it has alone, up
    to LAPACK's rounding of a last chunk padded with zero rows (README,
    Determinism).  A longer slice is factorized alone, its window found
    tile by tile, so the fit holds one piece's design and rows however
    long the sample; its chunks and blocks do not depend on the tiles.
    The groups' R factors meet in one rank check and one solve for all
    slices.

    Raises
    ------
    SingularDesign
        If fewer than order+1 distinct x values carry positive weight, or
        the weighted design is numerically rank-deficient (smallest
        singular value of its R below 1e-10 of the largest).
    ValueError
        If h is not positive and finite, or order is below 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    slices = len(sample.x)
    h_given = np.broadcast_to(np.asarray(h, dtype=float), (slices,))
    bad = ~((h_given > 0.0) & (h_given < np.inf))
    errors = [None] * slices
    record(errors, bad, lambda r: ValueError("bandwidth must be positive and finite"))
    h = np.where(bad, 1.0, h_given)  # any valid bandwidth: the slice has failed

    p = order + 1
    n = sample.n
    # short slices are grouped by their widest window, found once for the
    # stack; a long slice is a group alone, its window found tile by tile
    near = _window(sample, side, h) if n <= _TILE_ROWS else None
    width = n if near is None else int(_row_counts(near).max(initial=0))
    effective = np.empty(slices, dtype=int)
    r = np.empty((slices, p, p + 2))
    # a group's design, the QR's copy of it and its candidate rows
    blocks = slice_tiles(slices, n, (2 * p + 5) * width)
    for g, tiles in blocks:
        pieces = window_pieces(sample, side, h, g, tiles, kernel, near)
        effective[g], r[g] = _factor(sample, pieces, g.stop - g.start, p)
    design, rhs = r[..., :p], r[..., p:]
    sv = np.linalg.svd(design, compute_uv=False)
    singular = (effective < p) | ~(sv[:, -1] >= _SV_RTOL * sv[:, 0])
    # the row tiles depend on n alone: every group has the same
    record(errors, singular, lambda s: _rank_error(
        sample, window_pieces(sample, side, h, slice(s, s + 1), blocks[0][1], kernel, near), order, sv[s]))
    design[singular] = np.eye(p)  # placeholder, so the stacked solve cannot fail

    # LU of an upper-triangular matrix needs no pivoting, so this is back substitution
    coef = np.linalg.solve(design, rhs)
    # h^k leaves the floats for x in units from about 1e77; k divisions by h do not
    for k in range(1, p):
        coef[:, k:] /= h[:, None, None]
    return BoundaryFit(coef, h_given, effective), errors


@stacked
def estimate_level(sample: Sample, side: str, h, kernel: KernelSpec = KernelSpec()):
    """Local linear (Y, D) levels at the cutoff: row 0 of an order-1 fit."""
    fit, errors = fit_boundary(sample, side, h, order=1, kernel=kernel)
    return fit.value, errors
