"""Command line front end: CSV in, JSON/CSV out.

Four subcommands: `select` picks bandwidths from a data file, `estimate`
computes the jump ratio (with given or auto-selected bandwidths),
`simulate` runs the Monte Carlo engine on a built-in design, and
`dgp-sample` emits one raw simulated data set.  Every command exits 0 on
success, 1 on a domain error or an output that cannot be written and 2
on a usage error, the last two with a single-line error; all randomness
flows from an explicit seed.

CSV goes both ways through numpy in blocks: the writer prints each float
as Python's "%.17g" does from exact integer arithmetic, and the reader
turns plain decimal cells back into the nearest doubles the same way,
leaving every other spelling to numpy's own parser.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from typing import NoReturn, Optional

import numpy as np

from .errors import OutputError, ParseError, RdbwError, UsageError, ValidationError
from .estimator import frd_estimate
from .kernels import FAMILIES, KernelSpec
from .local_poly import Sample
from .selector import select_bandwidths
from .simlab import DEFAULT_ERROR_SD, DgpSpec, draw_sample, run_monte_carlo

_COLUMNS = ("x", "y", "d")

# CSV is read and written in blocks of about this many characters or rows,
# so the memory it takes beyond the data does not grow with the file; a
# block being read holds about 13 bytes a character in its text and the
# arrays made from it
_BLOCK_CHARS = 1 << 17
_BLOCK_ROWS = 1 << 12


class _Parser(argparse.ArgumentParser):
    # argparse wants to print-and-exit; surface a typed error instead
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rdbw", description="Two-sided bandwidth selection for jump-ratio estimation at a cutoff.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--input", required=True, help="CSV file with columns x, y, d (header required)")
        p.add_argument("--cutoff", type=float, default=0.0, help="cutoff point (default 0)")
        p.add_argument("--kernel", choices=FAMILIES, default="triangular")
        p.add_argument("--mode", choices=("fuzzy", "sharp"), default="fuzzy")
        p.add_argument("--output", default=None, help="JSON output path (default: stdout)")

    def add_design_flags(p, output_help):
        p.add_argument("--design", choices=("1", "2"), required=True)
        p.add_argument("--n", type=int, default=500)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--error-sd", type=float, default=DEFAULT_ERROR_SD)
        p.add_argument("--output", default=None, help=output_help)

    p_sel = sub.add_parser("select", help="select bandwidths from a data file")
    add_data_flags(p_sel)
    p_sel.set_defaults(run=_cmd_select)

    p_est = sub.add_parser("estimate", help="estimate the jump ratio from a data file")
    add_data_flags(p_est)
    p_est.add_argument("--h-plus", type=float, default=None, help="right-side bandwidth")
    p_est.add_argument("--h-minus", type=float, default=None, help="left-side bandwidth")
    p_est.add_argument("--auto", action="store_true", help="select bandwidths first")
    p_est.set_defaults(run=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run on a built-in design")
    add_design_flags(p_sim, "summary JSON path (default: stdout)")
    p_sim.add_argument("--method", choices=("mmse-f", "mmse-s"), default="mmse-f")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--kernel", choices=FAMILIES, default="triangular")
    p_sim.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    p_sim.add_argument("--out-dir", default=".", help="directory for cdf.csv and table.csv")
    p_sim.set_defaults(run=_cmd_simulate)

    p_dgp = sub.add_parser("dgp-sample", help="emit one simulated data set as CSV")
    add_design_flags(p_dgp, "CSV output path (default: stdout)")
    p_dgp.add_argument("--rep-index", type=int, default=0)
    p_dgp.set_defaults(run=_cmd_dgp_sample)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate a command line.

    The namespace holds argparse's fields, with flag strings turned into
    library values here and nowhere else: `kernel` is a KernelSpec,
    `method` a simlab method name, and `simulate` and `dgp-sample` get
    `spec`, the DgpSpec of their design flags.  `run` is the command.
    """
    ns = _build_parser().parse_args(argv)
    if "kernel" in ns:
        ns.kernel = KernelSpec(ns.kernel)
    if "cutoff" in ns and not np.isfinite(ns.cutoff):
        raise UsageError("--cutoff must be finite")

    if ns.command == "estimate":
        manual = ns.h_plus is not None or ns.h_minus is not None
        if ns.auto and manual:
            raise UsageError("--auto excludes --h-plus/--h-minus")
        if not ns.auto and (ns.h_plus is None or ns.h_minus is None):
            raise UsageError("estimate needs --auto or both --h-plus and --h-minus")
        if manual and not (0 < ns.h_plus < np.inf and 0 < ns.h_minus < np.inf):
            raise UsageError("bandwidths must be positive and finite")
    elif ns.command == "simulate":
        if ns.reps < 1:
            raise UsageError("--reps must be at least 1")
        if ns.jobs is not None and ns.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        ns.method = ns.method.replace("-", "_")
    elif ns.command == "dgp-sample" and ns.rep_index < 0:
        raise UsageError("--rep-index must be at least 0")

    if "design" in ns:
        try:
            ns.spec = DgpSpec(design=f"design{ns.design}", n=ns.n, error_sd=ns.error_sd, seed=ns.seed)
        except ValueError as e:
            raise UsageError(str(e)) from None
    return ns


def load_csv(path: str, cutoff: float) -> Sample:
    """Read observations from a headered CSV file.

    The file is UTF-8 text, with or without a byte-order mark.  The
    header must name columns x, y and d (case-insensitive, any order,
    extras ignored).  A row is skipped when every cell is empty or
    whitespace (an empty line, ``" "``, ``,,``, ``"",""``); every other
    row must have at least as many fields as the header.  Cells may be
    quoted with ``"``; a quoted cell cannot span lines.  Numbers are read
    by numpy: ASCII decimal or exponent notation with optional sign and
    surrounding whitespace, plus ``inf``, ``infinity`` and ``nan`` in any
    case.  Underscores (``1_0``), non-ASCII digits and hex are rejected,
    although Python's ``float`` accepts the first two.  Error messages
    carry 1-based file line numbers and name the first bad row in file
    order.

    The file is read in blocks of about `_BLOCK_CHARS` characters, cut
    at a line end.  A block of plain data rows, the usual case, is read in
    numpy (`_plain_columns`): a plain decimal cell becomes the nearest
    double exactly, and the rows holding other spellings go to numpy's
    parser, as do all rows of a block whose first row is not plain.  Only
    a block that holds a quote or an empty line, or that fails, is
    filtered for blank rows row by row; the rules above hold for every
    block alike.
    """
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as e:
        raise ParseError(f"cannot open {path}: {e.strerror}") from e
    columns = [[], [], []]  # each block's x, y and d
    with fh:  # universal newlines turn \r\n and \r into \n, the line ends csv knows
        try:
            header = fh.readline()
            if not header:
                raise ParseError(f"{path}: file is empty")
            names = [cell.strip().lower() for cell in _csv_cells(path, header, 1)]
            missing = [c for c in _COLUMNS if c not in names]
            if missing:
                raise ParseError(f"{path}: header lacks column(s) {', '.join(missing)}")
            usecols = [names.index(col) for col in _COLUMNS]
            line_no = 2
            while block := fh.read(_BLOCK_CHARS):
                block += fh.readline()  # to the end of its last line
                values, lines = _parse_block(path, block, line_no, names, usecols)
                for blocks, column in zip(columns, values):
                    blocks.append(column)
                line_no += lines
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None

    for blocks in columns:  # one column at a time, its blocks let go once it is joined
        blocks[:] = [np.concatenate(blocks or [np.empty(0)])]
    (x,), (y,), (d,) = columns
    try:
        return Sample(x=x, y=y, d=d, c=cutoff)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e


def _columns(data: np.ndarray) -> list:
    """The columns of an (n, 3) array, each an array of its own that can be let go alone."""
    return [np.ascontiguousarray(column) for column in data.T]


def _parse_block(path: str, block: str, first_line_no: int, names, usecols):
    """The x, y and d columns of a block of lines and its number of lines,
    or the error of its first bad row.

    A block of plain rows is read in numpy (`_plain_columns`).  Any other
    block is split into its lines and parsed by numpy's parser as read,
    unless it holds a quote or an empty line; one that does, or where a
    cell fails or a check does, has its blank rows dropped and is parsed
    again; if that fails too, it is bisected to its first bad row.
    """
    width = len(names)
    columns = _plain_columns(block, usecols, width)
    if columns is not None:
        return columns, len(columns[0])  # one row a line
    lines = block.split("\n")
    if not lines[-1]:  # the end of the block's last line
        lines.pop()
    # a quote is left to the csv module, and an empty line, which numpy's parser skips, to the blank-row filter
    data = None if '"' in block or "" in lines else _clean(lines, usecols, width)
    if data is None:
        kept = _nonblank(path, lines, first_line_no)
        rows = [lines[i] for i in kept]
        data = _clean(rows, usecols, width)
    if data is not None:
        return _columns(data), len(lines)
    k = _first_bad_row(rows, usecols, width)
    _raise_row_error(path, first_line_no + kept[k], rows[k], names, usecols)


def _plain_columns(block: str, usecols, width: int):
    """The used columns of a block of plain rows, each its own array, or None.

    A block is plain when it holds no quote, the used cells of its first
    row are spelled with digits, `-` and `.` alone (other spellings
    foretell a file of them, which numpy's parser reads faster than this
    scan can sort it), and all its lines have as many fields as its
    first, at least `width`, none of them empty in a used column.  A
    column of lone digits is read as those digits, and the other used
    cells by `_decimal_cells`; the rows holding a cell it leaves go to
    numpy's parser (`_clean`).  None means the block is not plain, or a
    cell or a check fails, which the caller sorts out.
    """
    first_row = block.partition("\n")[0].split(",")
    fields = len(first_row)
    if '"' in block or fields < width or any(first_row[j].strip("-.0123456789") for j in usecols):
        return None
    raw = _PAD + block.encode() + (b"" if block.endswith("\n") else b"\n")
    text = np.frombuffer(raw, np.uint8)
    separators = text == ord("\n")
    rows = np.count_nonzero(separators)
    separators |= text == ord(",")
    ends = np.flatnonzero(separators)
    del separators
    if len(ends) != rows * fields or not (text[ends[fields - 1 :: fields]] == ord("\n")).all():
        return None
    starts = np.empty_like(ends)  # each cell starts after the separator before it
    starts[0] = len(_PAD)
    np.add(ends[:-1], 1, out=starts[1:])
    starts, ends = (a.reshape(rows, fields).T[usecols] for a in (starts, ends))
    lengths = ends - starts
    if not lengths.all():
        return None

    columns, decimals = [None] * len(usecols), []
    for c in range(len(usecols)):
        if (lengths[c] == 1).all():
            digits = text[starts[c]] - np.uint8(ord("0"))
            if (digits <= 9).all():
                columns[c] = digits.astype(float)
                continue
        decimals.append(c)
    if decimals:
        values, unread = _decimal_cells(raw, starts[decimals].ravel(), ends[decimals].ravel())
        for c, part in zip(decimals, values.reshape(len(decimals), -1)):
            columns[c] = part.copy()  # each column let go alone once joined
        left = np.flatnonzero(unread.reshape(len(decimals), -1).any(axis=0))  # the rows numpy's parser reads
        if len(left):
            lines = block.split("\n")
            data = _clean([lines[i] for i in left.tolist()], usecols, width)
            if data is None:
                return None
            for column, values in zip(columns, data.T):
                column[left] = values
    d = columns[-1]
    return columns if ((d == 0.0) | (d == 1.0)).all() else None


def _nonblank(path: str, lines, first_line_no: int) -> list:
    """Indices of the lines that are not blank rows, whose cells are all empty or whitespace."""
    return [
        i
        for i, line in enumerate(lines)
        if line.replace(",", "").strip()
        and ('"' not in line or any(map(str.strip, _csv_cells(path, line, first_line_no + i))))
    ]


def _parse(rows, usecols) -> np.ndarray:
    """The one numeric parse: the used columns of `rows` as an (n, k) float array."""
    return np.loadtxt(rows, delimiter=",", usecols=usecols, quotechar='"', comments=None, ndmin=2)


def _csv_cells(path: str, line: str, line_no: int) -> list:
    """The cells of one line as the csv module splits them."""
    try:
        return next(csv.reader([line]), [])
    except csv.Error as e:
        raise ParseError(f"{path}: row {line_no}: {e}") from None


def _field_count(row: str) -> int:
    return len(next(csv.reader([row]))) if '"' in row else row.count(",") + 1


def _checked(rows, usecols, width):
    """Parse `rows`; return the data and a mask of the rows that fail a check.

    Raises ValueError (or csv.Error) when numpy cannot parse some row.
    """
    if not rows:  # np.loadtxt warns on empty input
        return np.empty((0, len(usecols))), np.zeros(0, dtype=bool)
    data = _parse(rows, usecols)
    d = data[:, -1]
    bad = ~np.isfinite(data).all(axis=1) | ((d != 0.0) & (d != 1.0))
    # numpy rejects a row that lacks a used column; one that lacks only
    # an ignored trailing column has to be counted
    if width > max(usecols) + 1:
        bad |= np.fromiter(map(_field_count, rows), dtype=int, count=len(rows)) < width
    return data, bad


def _clean(rows, usecols, width):
    """The parsed `rows` if every one passes the checks, else None."""
    try:
        data, bad = _checked(rows, usecols, width)
    except (ValueError, csv.Error):
        return None
    return None if bad.any() else data


def _first_bad_row(rows, usecols, width) -> int:
    """Index of the first row of `rows` that fails a check; some row must.

    Runs only on a file that fails.  It bisects with the checks of the
    fast path, so the two agree on every row, at the cost of about two
    more passes over the data.
    """
    lo, hi = 0, len(rows)  # rows[:lo] pass; rows[lo:hi] hold a failing row
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _clean(rows[lo:mid], usecols, width) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _raise_row_error(path: str, line_no: int, row: str, names, usecols) -> NoReturn:
    """Raise the error for the first bad cell of one failing row."""
    cells = _csv_cells(path, row, line_no)
    if len(cells) < len(names):
        raise ParseError(f"{path}: row {line_no} has {len(cells)} fields, expected {len(names)}")
    for col, j in zip(_COLUMNS, usecols):
        try:
            value = _parse([row], [j])[0, 0]
        except ValueError:
            raise ParseError(
                f"{path}: row {line_no} column {col} is not a number: {cells[j].strip()!r}"
            ) from None
        if not np.isfinite(value):
            raise ValidationError(f"{path}: row {line_no} column {col} is not finite")
    if value not in (0.0, 1.0):
        raise ValidationError(f"{path}: row {line_no}: d must be 0 or 1, got {value:g}")
    # csv and numpy split this row differently
    raise ParseError(f"{path}: row {line_no} cannot be parsed")


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError on the file or directory at `path` into an OutputError."""
    try:
        yield
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror}") from e


@contextlib.contextmanager
def _output(path: Optional[str]):
    """Text stream for a command's output: the file at `path`, else stdout.

    Stdout is flushed on the way out, so a reader that has gone (a closed
    pipe) is an OutputError here; what stdout still buffers then goes to
    the null device, so the interpreter's own flush at exit cannot fail.
    """
    if path is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as e:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OutputError(f"cannot write stdout: {e.strerror}") from e
    else:
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            yield fh


def _check_writable(path: str) -> None:
    """Raise the OutputError of a file that cannot be written at `path`,
    leaving an existing file as it is and creating none.

    Only a missing path or a regular file is opened: closing a probe of a
    named pipe would end its reader, and a device is left to the write
    itself."""
    existed = os.path.exists(path)
    if existed and not os.path.isfile(path):
        return
    with _writing(path), open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _emit(payload, path: Optional[str]) -> None:
    """Write `payload` as indented JSON to `path`, else stdout."""
    with _output(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _select_payload(result) -> dict:
    pair = result.bandwidths
    return {
        "h_plus": pair.h_plus,
        "h_minus": pair.h_minus,
        "regime": pair.regime,
        "objective_value": pair.objective_value,
        "pilots": dataclasses.asdict(result.pilots),
        "coefficients": dataclasses.asdict(result.coefficients),
    }


def _cmd_select(ns: argparse.Namespace) -> None:
    sample = load_csv(ns.input, ns.cutoff)
    result = select_bandwidths(sample, ns.kernel, ns.mode)
    _emit(_select_payload(result), ns.output)


def _cmd_estimate(ns: argparse.Namespace) -> None:
    sample = load_csv(ns.input, ns.cutoff)
    if ns.auto:
        pair = select_bandwidths(sample, ns.kernel, ns.mode).bandwidths
        h_plus, h_minus = pair.h_plus, pair.h_minus
    else:
        h_plus, h_minus = ns.h_plus, ns.h_minus
    est = frd_estimate(sample, h_plus, h_minus, ns.kernel)
    _emit(dataclasses.asdict(est), ns.output)


def _cmd_simulate(ns: argparse.Namespace) -> None:
    # every output is checked before the run, which may take minutes
    with _writing(ns.out_dir):
        os.makedirs(ns.out_dir, exist_ok=True)
    if ns.output is not None:
        _check_writable(ns.output)
    summary = run_monte_carlo(ns.spec, ns.method, ns.reps, ns.kernel, jobs=ns.jobs)
    fields = ["method", "h_plus_mean", "h_plus_sd", "h_minus_mean", "h_minus_sd",
              "bias_trimmed", "rmse_trimmed", "reps_total", "reps_failed"]
    tables = {
        "cdf.csv": [["threshold", "fraction"], *([f"{t:.17g}", f"{frac:.17g}"] for t, frac in summary.cdf)],
        "table.csv": [fields, [getattr(summary, f) for f in fields]],
    }
    for name, rows in tables.items():
        path = os.path.join(ns.out_dir, name)
        with _writing(path), open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    _emit(dataclasses.asdict(summary), ns.output)


def _cmd_dgp_sample(ns: argparse.Namespace) -> None:
    """Write the sample as CSV, `_BLOCK_ROWS` rows at a time, each row the
    text of ``"%.17g,%.17g,%d\\n" % (x, y, d)`` as numpy makes it (`_csv_rows`)."""
    sample = draw_sample(ns.spec, ns.rep_index)
    with _output(ns.output) as fh:
        fh.write("x,y,d\n")
        for i in range(0, sample.n, _BLOCK_ROWS):
            part = slice(i, i + _BLOCK_ROWS)
            fh.write(_csv_rows(sample.x[part], sample.y[part], sample.d[part]))


# Python's "%.17g" of a float, from integer arithmetic in numpy.  A value v
# with 1e-4 <= |v| < 1e16 is printed in fixed notation: its 17 significant
# digits N, rounded half to even, placed by its decimal exponent
# k = floor(log10 |v|) in [-4, 15], with the fraction's trailing zeros and
# then a bare point stripped.  With q = 16 - k, N = round(|v| 10^q), and
# 10^q = 5^q 2^q with 5^q < 2^49.
_U = np.uint64
_POW10 = 10.0 ** np.arange(22)  # each exact in a float
_POW5 = 5 ** np.arange(22, dtype=_U)


def _byte_words(text_bytes):
    """(rows, 24) byte values as (3, rows) words, the first byte lowest."""
    return np.ascontiguousarray(np.asarray(text_bytes, dtype=np.uint8).view("<u8").astype(_U).T)


def _layouts():
    """The words that lay out the digits, one column per (k, sign) class
    2 (k + 4) + sign, and per text length.

    A class keeps the bytes of its `low` mask in place (the k + 1 digits
    before the point when k >= 0), moves the others `shift` bits up (past
    the point, or past "0." and -k - 1 zeros when k < 0) and adds its
    `fill` (the sign, the point and those zeros).  `prefix[L]` keeps a
    text's first L bytes and `comma[L]` puts a comma after them.
    """

    k = np.repeat(np.arange(-4, 16), 2)[:, None]
    sign = np.tile([0, 1], 20)[:, None]
    col = np.arange(24)
    point = sign + np.maximum(k + 1, 1)
    low = (k >= 0) & (col >= sign) & (col < point)
    zeros = (k < 0) & (col >= sign) & (col < sign + 1 - k)
    fill = np.where(col == point, ord("."), np.where(zeros, ord("0"), np.where(col < sign, ord("-"), 0)))
    shift = (8 * np.maximum(1, 1 - k[:, 0])).astype(_U)
    length = np.arange(25)[:, None]
    prefix, comma = 255 * (col < length), np.where(col == length, ord(","), 0)
    return _byte_words(255 * low), _byte_words(fill), shift, _byte_words(prefix), _byte_words(comma)


_LOW, _FILL, _SHIFT, _PREFIX, _COMMA = _layouts()


def _significand(a, m, r0, k):
    """N = round(a 10^(16 - k)), half to even, exactly, for a = m / 2^r0.

    a 10^q = m 5^q / 2^r, with r = r0 - q between 5 and 55 on the range,
    k off by one included.  The float product gives N within a few units,
    and m 5^q mod 2^64 (uint64 products wrap) the exact difference
    (N - estimate) 2^r + remainder, which int64 holds.
    """
    q = 16 - k
    r = r0 - q
    estimate = (a * _POW10[q]).astype(_U)
    diff = ((m * _POW5[q]) - (estimate << r.astype(_U))).view(np.int64)
    n = estimate.view(np.int64) + (diff >> r)
    rem, half = diff & ((1 << r) - 1), 1 << (r - 1)
    n += (rem > half) | ((rem == half) & (n & 1).astype(bool))
    return n


def _decimal(a):
    """(N, k): a = N 10^(k - 16) to 17 significant digits, 10^16 <= N < 10^17."""
    bits = a.view(_U)
    m = ((bits & _U((1 << 52) - 1)) | _U(1 << 52)) << _U(8)  # a = m / 2^r0, m < 2^61
    r0 = 1083 - (bits >> _U(52)).astype(np.int64)
    k = np.floor(np.log10(a)).astype(np.int64)
    n = _significand(a, m, r0, k)
    off = np.flatnonzero((n < 10 ** 16) | (n > 10 ** 17))  # where the float log10 missed k by one
    k[off] += np.where(n[off] > 10 ** 17, 1, -1)
    n[off] = _significand(a[off], m[off], r0[off], k[off])
    carry = n == 10 ** 17  # rounded up to 10^17: 10^16 at k + 1
    n[carry] = 10 ** 16
    k[carry] += 1
    return n, k


def _digit_bytes(x):
    """The eight decimal digits of each x < 10^8 (uint64) as byte values
    0-9, the first digit in the lowest byte: x splits into two four-digit
    lanes, each lane into two two-digit ones and each of those into two
    digits, every division a multiply and a shift."""
    hi = (x * _U(109951163)) >> _U(40)
    v = hi | ((x - hi * _U(10000)) << _U(32))
    hi = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)
    v = hi | ((v - hi * _U(100)) << _U(16))
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    return hi | ((v - hi * _U(10)) << _U(8))


def _fixed_text(v):
    """``"%.17g," % v`` of each v with 1e-4 <= |v| < 1e16: (3, len(v))
    uint64 words, a text's first byte the lowest of its first word, zero
    bytes after the comma."""
    sign = np.signbit(v)
    n, k = _decimal(np.abs(v))
    lead, rest = np.divmod(n, 10 ** 8)
    first, lead = np.divmod(lead, 10 ** 8)
    digits = _digit_bytes(np.stack((lead, rest)).astype(_U))  # N's digits 2-9 and 10-17
    # the last nonzero digit, from the bit length of a word's highest nonzero byte
    bits = np.frexp(digits.astype(float))[1]
    last = np.where(digits[1] != 0, 9 + ((bits[1] - 1) >> 3), 1 + ((bits[0] - 1) >> 3))
    digits |= _U(0x3030303030303030)
    # the 17 digits from byte `sign` on, then moved by the layout of their class
    up = sign.astype(_U) << _U(3)
    text = np.empty((3, len(v)), _U)
    text[0] = ((first.astype(_U) | _U(0x30)) << up) | (digits[0] << (up + _U(8)))
    text[1] = (digits[0] >> (_U(56) - up)) | (digits[1] << (up + _U(8)))
    text[2] = digits[1] >> (_U(56) - up)
    layout = 2 * k + 8 + sign
    shift = _SHIFT.take(layout)
    out = text & _LOW.take(layout, axis=1)
    text ^= out
    out |= _FILL.take(layout, axis=1)
    out |= text << shift
    out[1:] |= text[:2] >> (_U(64) - shift)
    # the sign, then the k + 1 digits before the point if no digit after it
    # is nonzero, else up to the last nonzero one past "0." and -k - 1 zeros
    # when k < 0, or past the point
    length = sign + np.where(last <= k, k + 1, last + 2 + np.maximum(-k, 0))
    out &= _PREFIX.take(length, axis=1)
    out |= _COMMA.take(length, axis=1)
    return out


def _csv_rows(x, y, d) -> str:
    """The lines ``"%.17g,%.17g,%d\\n" % (x, y, d)`` of a block of rows, joined.

    Each line is laid out in seven words, x's text and comma, y's, then d
    and the newline, padded with zero bytes, and one compress of the
    block's bytes drops the padding.  A row whose x or y is 0 or outside
    1e-4 <= |v| < 1e16 is formatted by Python.
    """
    magnitude = np.abs(np.stack((x, y)))
    fixed = ((magnitude >= 1e-4) & (magnitude < 1e16)).all(axis=0)
    fast, other = np.flatnonzero(fixed), np.flatnonzero(~fixed)
    words = np.split(_fixed_text(np.concatenate((x[fast], y[fast]))), 2, axis=1)
    rows = np.empty((len(x), 7), _U)
    rows[fast] = np.concatenate((*words, [d[fast].astype(_U) | _U(0x0A30)])).T  # "0" + d, then "\n"
    lines = ["%.17g,%.17g,%d\n" % row for row in zip(x[other].tolist(), y[other].tolist(), d[other].astype(int).tolist())]
    rows[other] = np.array(lines, dtype="S56").view("<u8").reshape(-1, 7)
    text = rows.astype("<u8", copy=False).view(np.uint8)
    return text[text != 0].tobytes().decode("ascii")


# A plain decimal cell, a "-" or none, then digits with at most one point,
# is read exactly in numpy: the writer above run backwards.  The 24 bytes
# that end where the cell ends are three little-endian words.  The bytes
# before the cell and its "-" become 0 digits, the point is dropped by
# moving the digits before it one byte on, and the words fold, eight
# digits each, into N, the cell's digits.  With q digits after the point,
# N < 2^63 and q <= 21, est = float(N) / 10^q is within 2 units in the
# last place of N / 10^q.  With est = M 2^E and s = -q - E >= 0,
# N / 10^q - est is D / 5^q such units, D = N 2^s - M 5^q, exact in int64
# though its terms wrap, as in `_significand`.  2 D = 2^(s+1) N - 2 M 5^q
# is even, never an odd multiple of 5^q, so D / 5^q is never a half and
# lies at least 5^-q / 2 > 2^-50 from one, while its float quotient, below
# 3, is within 2^-51: the quotient rounded is the step k from est to the
# nearest float, unless that lies below est's binade, where the floats
# are twice as dense.
_PAD = b"0" * 24  # before a block's bytes, so that every cell has 24 bytes up to its end


def _every_byte(value):
    return _U(value * 0x0101010101010101)


_ZEROS, _POINTS, _ONES, _HIGH, _SIX, _HIGH_NIBBLE = map(_every_byte, (0x30, 0x1E, 0x01, 0x80, 0x06, 0xF0))
_PLACES = np.arange(24)
_R = np.arange(25)[:, None]
# by cell length L: the last L bytes
_KEEP = _byte_words(255 * (_PLACES >= 24 - _R))
# by r = 24 - the point's place, 0 without a point: the bytes before and after it
_BEFORE = _byte_words(255 * ((_PLACES < 24 - _R) & (_R > 0)))
_AFTER = _byte_words(255 * ((_PLACES > 24 - _R) | (_R == 0)))
_Q = np.clip(_R[:, 0] - 1, 0, 21)  # q, where it is read
# the lowest byte of a word holding a point, 1 << 8 i, times _PLACE has
# its r in the top byte
_PLACE = _byte_words([(24 - _PLACES).reshape(3, 8)[:, ::-1].ravel()])


def _fold(w):
    """Each word of eight digit bytes 0-9, the first lowest, as the number
    they spell, in place: pairs, then fours, then eights, each a multiply
    and a shift (`_digit_bytes` backwards)."""
    w *= _U(10 << 8 | 1)
    w >>= _U(8)
    w &= _U(0x00FF00FF00FF00FF)
    w *= _U(100 << 16 | 1)
    w >>= _U(16)
    w &= _U(0x0000FFFF0000FFFF)
    w *= _U(10000 << 32 | 1)
    w >>= _U(32)
    return w


def _decimal_cells(raw: bytes, starts, ends):
    """The values of the cells raw[starts[i]:ends[i]], and a mask of the
    cells it leaves unread, whose values are then meaningless.

    It reads a plain decimal of at most 24 characters besides its "-",
    with a digit, N < 2^63, q <= 21 and s >= 0 (fewer than about 16
    digits before the point), unless its value lies below est's binade or
    its nearest float above it.  `raw` starts with `_PAD`.
    """
    windows = np.ndarray((len(raw) - 23,), "V24", raw, strides=(1,))  # the 24 bytes from each place
    w = np.ascontiguousarray(windows[ends - 24].view("<u8").reshape(-1, 3).T)
    z, t = np.empty_like(w), np.empty_like(w)
    sign = np.frombuffer(raw, np.uint8)[starts] == ord("-")
    length = ends - starts - sign
    w ^= _ZEROS  # a digit is now its value, a point 0x1E
    w &= _KEEP.take(np.minimum(length, 24), axis=1, out=z)
    # a byte of z has its high bit where w has a point or a byte that is
    # not ASCII, or above one by a borrow: the lowest in each word is one
    # of the two.  The first, in the first word holding one, has the
    # largest r and is dropped; a character that is not ASCII is two bytes
    # or more, so the cell keeps one and fails the digit test below
    np.bitwise_xor(w, _POINTS, out=z)
    z -= _ONES
    z &= _HIGH
    np.negative(z, out=t)
    t &= z
    t >>= _U(7)
    t *= _PLACE
    t >>= _U(56)
    r = np.maximum(np.maximum(t[0], t[1], out=t[0]), t[2], out=t[0]).astype(np.intp)
    np.bitwise_and(w, _BEFORE.take(r, axis=1, out=z), out=t)
    w &= _AFTER.take(r, axis=1, out=z)
    w[1:] |= np.right_shift(t[:2], _U(56), out=z[:2])
    t <<= _U(8)
    w |= t
    np.add(w, _SIX, out=z)  # a byte that is not a digit sets a high bit here
    z |= w
    z[0] |= z[1]
    z[0] |= z[2]
    unread = (z[0] & _HIGH_NIBBLE) != 0
    unread |= (length > 24) | (length <= (r > 0)) | (r > 22)  # too long, no digit, q > 21
    n = _fold(w)[0]
    unread |= n >= 922  # N >= 922 10^16 may reach 2^63
    n *= _U(10 ** 16)
    w[1] *= _U(10 ** 8)
    n += w[1]
    n += w[2]
    n &= _U((1 << 63) - 1)  # an unread cell's N too is read as a float
    zero = n == 0
    n += zero  # and made positive, its value set to 0 at the end

    q = _Q.take(r)
    est = n.view(np.int64).astype(float)
    est /= _POW10.take(q)
    bits = est.view(_U)
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    s = 1075 - q - (bits >> _U(52)).view(np.int64)
    unread |= s < 0
    s = np.maximum(s, 0).view(_U)
    half = s >> _U(1)  # two shifts, each below 64
    s -= half
    pow5 = _POW5.take(q)
    diff = (((n << half) << s) - m * pow5).view(np.int64)
    pow5 = pow5.view(np.int64)
    k = np.rint(diff / pow5).astype(np.int64)
    m = m.view(np.int64) + k
    # a value below est's binade, or a result past its end, is left unread
    unread |= (m < 1 << 52) | (m > 1 << 53) | ((m == 1 << 52) & (diff < k * pow5))
    bits += k.view(_U)
    est[zero] = 0.0
    bits |= sign.astype(_U) << _U(63)
    return est, unread


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    try:
        ns = parse_args(argv)
        ns.run(ns)
    except RdbwError as e:
        print(f"error: {' '.join(str(e).split())}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
