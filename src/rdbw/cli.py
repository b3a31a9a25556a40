"""Command line front end: CSV in, JSON/CSV out.

Four subcommands: `select` picks bandwidths from a data file, `estimate`
computes the jump ratio (with given or auto-selected bandwidths),
`simulate` runs the Monte Carlo engine on a built-in design, and
`dgp-sample` emits one raw simulated data set.  Every command exits 0 on
success and nonzero with a single-line error otherwise; all randomness
flows from an explicit seed.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .errors import ParseError, RdbwError, UsageError, ValidationError
from .estimator import frd_estimate
from .kernels import FAMILIES, KernelSpec
from .local_poly import Sample
from .selector import select_bandwidths
from .simlab import DgpSpec, draw_sample, run_monte_carlo

_COLUMNS = ("x", "y", "d")

# CSV is read and written in blocks of about this many characters or rows,
# so the memory it takes beyond the data does not grow with the file
_BLOCK_CHARS = 1 << 20
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus everything it needs."""

    command: str
    input_path: Optional[str] = None
    cutoff: float = 0.0
    kernel: KernelSpec = KernelSpec()
    mode: str = "fuzzy"
    output_path: Optional[str] = None
    seed: int = 42
    reps: int = 1000
    n: int = 500
    design: Optional[str] = None
    method: str = "mmse_f"
    h_plus: Optional[float] = None
    h_minus: Optional[float] = None
    auto: bool = False
    error_sd: float = 0.1295
    rep_index: int = 0
    out_dir: str = "."
    jobs: Optional[int] = None


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

    p_sel = sub.add_parser("select", help="select bandwidths from a data file")
    add_data_flags(p_sel)

    p_est = sub.add_parser("estimate", help="estimate the jump ratio from a data file")
    add_data_flags(p_est)
    p_est.add_argument("--h-plus", type=float, default=None, help="right-side bandwidth")
    p_est.add_argument("--h-minus", type=float, default=None, help="left-side bandwidth")
    p_est.add_argument("--auto", action="store_true", help="select bandwidths first")

    p_sim = sub.add_parser("simulate", help="Monte Carlo run on a built-in design")
    p_sim.add_argument("--design", choices=("1", "2"), required=True)
    p_sim.add_argument("--method", choices=("mmse-f", "mmse-s"), default="mmse-f")
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--kernel", choices=FAMILIES, default="triangular")
    p_sim.add_argument("--error-sd", type=float, default=0.1295)
    p_sim.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    p_sim.add_argument("--out-dir", default=".", help="directory for cdf.csv and table.csv")
    p_sim.add_argument("--output", default=None, help="summary JSON path (default: stdout)")

    p_dgp = sub.add_parser("dgp-sample", help="emit one simulated data set as CSV")
    p_dgp.add_argument("--design", choices=("1", "2"), required=True)
    p_dgp.add_argument("--n", type=int, default=500)
    p_dgp.add_argument("--seed", type=int, default=42)
    p_dgp.add_argument("--error-sd", type=float, default=0.1295)
    p_dgp.add_argument("--rep-index", type=int, default=0)
    p_dgp.add_argument("--output", default=None, help="CSV output path (default: stdout)")
    return parser


def parse_args(argv) -> RunConfig:
    """Parse and validate a command line into a RunConfig."""
    ns = _build_parser().parse_args(argv)
    cmd = ns.command

    if cmd in ("select", "estimate"):
        cfg = RunConfig(
            command=cmd,
            input_path=ns.input,
            cutoff=ns.cutoff,
            kernel=KernelSpec(ns.kernel),
            mode=ns.mode,
            output_path=ns.output,
            h_plus=getattr(ns, "h_plus", None),
            h_minus=getattr(ns, "h_minus", None),
            auto=getattr(ns, "auto", False),
        )
        if cmd == "estimate":
            manual = cfg.h_plus is not None or cfg.h_minus is not None
            if cfg.auto and manual:
                raise UsageError("--auto excludes --h-plus/--h-minus")
            if not cfg.auto and (cfg.h_plus is None or cfg.h_minus is None):
                raise UsageError("estimate needs --auto or both --h-plus and --h-minus")
            if manual and (cfg.h_plus <= 0 or cfg.h_minus <= 0):
                raise UsageError("bandwidths must be positive")
        return cfg

    design = f"design{ns.design}"
    if cmd == "simulate":
        if ns.reps < 1:
            raise UsageError("--reps must be at least 1")
        return RunConfig(
            command=cmd,
            design=design,
            method=ns.method.replace("-", "_"),
            n=ns.n,
            reps=ns.reps,
            seed=ns.seed,
            kernel=KernelSpec(ns.kernel),
            error_sd=ns.error_sd,
            jobs=ns.jobs,
            out_dir=ns.out_dir,
            output_path=ns.output,
        )
    return RunConfig(
        command=cmd,
        design=design,
        n=ns.n,
        seed=ns.seed,
        error_sd=ns.error_sd,
        rep_index=ns.rep_index,
        output_path=ns.output,
    )


def load_csv(path: str, cutoff: float) -> Sample:
    """Read observations from a headered CSV file.

    The file is UTF-8 text.  The header must name columns x, y and d
    (case-insensitive, any order, extras ignored).  A row is skipped when
    every cell is empty or whitespace (an empty line, ``" "``, ``,,``,
    ``"",""``); every other row must have at least as many fields as the
    header.  Cells may be quoted with ``"``; a quoted cell cannot span
    lines.  Numbers are read by numpy: ASCII decimal or exponent notation
    with optional sign and surrounding whitespace, plus ``inf``,
    ``infinity`` and ``nan`` in any case.  Underscores (``1_0``),
    non-ASCII digits and hex are rejected, although Python's ``float``
    accepts the first two.  Error messages carry 1-based file line
    numbers and name the first bad row in file order.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot open {path}: {e.strerror}") from e
    blocks = []
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
            while lines := fh.readlines(_BLOCK_CHARS):
                blocks.append(_parse_block(path, lines, line_no, names, usecols))
                line_no += len(lines)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None

    x, y, d = np.concatenate(blocks, axis=1) if blocks else np.empty((3, 0))
    try:
        return Sample(x=x, y=y, d=d, c=cutoff)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e


def _parse_block(path: str, lines, first_line_no: int, names, usecols) -> np.ndarray:
    """The x, y, d columns of a block of lines as a (3, n) array, or the error of its first bad row."""
    kept = [
        i
        for i, line in enumerate(lines)
        if line.replace(",", "").strip()
        and ('"' not in line or any(map(str.strip, _csv_cells(path, line, first_line_no + i))))
    ]
    rows = [lines[i] for i in kept]
    width = len(names)
    try:
        data, bad = _checked(rows, usecols, width)
        if not bad.any():
            return data.T
    except (ValueError, csv.Error):
        pass
    k = _first_bad_row(rows, usecols, width)
    _raise_row_error(path, first_line_no + kept[k], rows[k], names, usecols)


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


def _first_bad_row(rows, usecols, width) -> int:
    """Index of the first row of `rows` that fails a check; some row must.

    Runs only on a file that fails.  It bisects with the checks of the
    fast path, so the two agree on every row, at the cost of about two
    more passes over the data.
    """
    lo, hi = 0, len(rows)  # rows[:lo] pass; rows[lo:hi] hold a failing row
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            passes = not _checked(rows[lo:mid], usecols, width)[1].any()
        except (ValueError, csv.Error):
            passes = False
        if passes:
            lo = mid
        else:
            hi = mid
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
def _output(path: Optional[str]):
    """Text stream for a command's output: the file at `path`, else stdout."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _emit(text: str, path: Optional[str]) -> None:
    with _output(path) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


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


def _cmd_select(cfg: RunConfig) -> int:
    sample = load_csv(cfg.input_path, cfg.cutoff)
    result = select_bandwidths(sample, cfg.kernel, cfg.mode)
    _emit(_to_json(_select_payload(result)), cfg.output_path)
    return 0


def _cmd_estimate(cfg: RunConfig) -> int:
    sample = load_csv(cfg.input_path, cfg.cutoff)
    if cfg.auto:
        pair = select_bandwidths(sample, cfg.kernel, cfg.mode).bandwidths
        h_plus, h_minus = pair.h_plus, pair.h_minus
    else:
        h_plus, h_minus = cfg.h_plus, cfg.h_minus
    est = frd_estimate(sample, h_plus, h_minus, cfg.kernel)
    _emit(_to_json(dataclasses.asdict(est)), cfg.output_path)
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    spec = DgpSpec(design=cfg.design, n=cfg.n, error_sd=cfg.error_sd, seed=cfg.seed)
    summary = run_monte_carlo(spec, cfg.method, cfg.reps, cfg.kernel, jobs=cfg.jobs)
    _emit(_to_json(dataclasses.asdict(summary)), cfg.output_path)

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "cdf.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fraction"])
        for t, frac in summary.cdf:
            writer.writerow([f"{t:.17g}", f"{frac:.17g}"])
    with open(os.path.join(cfg.out_dir, "table.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        fields = [
            "method",
            "h_plus_mean",
            "h_plus_sd",
            "h_minus_mean",
            "h_minus_sd",
            "bias_trimmed",
            "rmse_trimmed",
            "reps_total",
            "reps_failed",
        ]
        writer.writerow(fields)
        writer.writerow([getattr(summary, f) for f in fields])
    return 0


def _cmd_dgp_sample(cfg: RunConfig) -> int:
    spec = DgpSpec(design=cfg.design, n=cfg.n, error_sd=cfg.error_sd, seed=cfg.seed)
    sample = draw_sample(spec, cfg.rep_index)
    x, y, d = sample.x, sample.y, sample.d.astype(int)
    with _output(cfg.output_path) as fh:
        fh.write("x,y,d\n")
        for i in range(0, sample.n, _BLOCK_ROWS):
            part = slice(i, i + _BLOCK_ROWS)
            rows = zip(x[part].tolist(), y[part].tolist(), d[part].tolist())
            fh.write("".join(map("%.17g,%.17g,%d\n".__mod__, rows)))
    return 0


_COMMANDS = {
    "select": _cmd_select,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "dgp-sample": _cmd_dgp_sample,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_args(list(argv))
        return _COMMANDS[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {_one_line(e)}", file=sys.stderr)
        return 2
    except RdbwError as e:
        print(f"error: {_one_line(e)}", file=sys.stderr)
        return 1


def _one_line(e: Exception) -> str:
    return " ".join(str(e).split())


if __name__ == "__main__":
    sys.exit(main())
