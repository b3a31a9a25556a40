import csv
import decimal
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rdbw import cli
from rdbw.cli import load_csv, main, parse_args
from rdbw.errors import ParseError, RdbwError, UsageError, ValidationError
from rdbw.kernels import KernelSpec
from rdbw.local_poly import Sample
from rdbw.simlab import DEFAULT_ERROR_SD, DgpSpec, draw_sample


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD_CSV = "x,y,d\n-0.5,1.0,0\n-0.2,1.1,0\n0.3,2.0,1\n"


def long_rows():
    """3000 valid data rows on both sides of 0, long enough for many small blocks."""
    return [f"{(-1) ** k * (k + 1) / 7:.17g},{k / 3:.17g},{k % 2}" for k in range(3000)]


class TestParseArgs:
    def test_select_defaults(self):
        ns = parse_args(["select", "--input", "data.csv", "--cutoff", "0"])
        assert ns.command == "select"
        assert ns.input == "data.csv"
        assert ns.cutoff == 0.0
        assert ns.kernel == KernelSpec("triangular")
        assert ns.mode == "fuzzy"
        assert ns.output is None

    def test_simulate_config(self):
        ns = parse_args(
            ["simulate", "--design", "2", "--reps", "1000", "--n", "500", "--seed", "7"]
        )
        assert ns.spec == DgpSpec(design="design2", n=500, error_sd=DEFAULT_ERROR_SD, seed=7)
        assert (ns.method, ns.reps, ns.kernel) == ("mmse_f", 1000, KernelSpec())
        assert (ns.jobs, ns.out_dir, ns.output) == (None, ".", None)

    def test_method_name_mapped(self):
        ns = parse_args(["simulate", "--design", "1", "--method", "mmse-s"])
        assert ns.method == "mmse_s"

    def test_estimate_requires_input(self):
        with pytest.raises(UsageError):
            parse_args(["estimate"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["select", "--input", "a.csv", "--bandwidth", "1"])

    def test_unknown_command_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["tabulate"])

    def test_estimate_bandwidth_flags(self):
        ns = parse_args(
            ["estimate", "--input", "a.csv", "--h-plus", "0.2", "--h-minus", "0.3"]
        )
        assert ns.h_plus == 0.2 and ns.h_minus == 0.3
        with pytest.raises(UsageError):
            parse_args(["estimate", "--input", "a.csv", "--h-plus", "0.2"])
        with pytest.raises(UsageError):
            parse_args(["estimate", "--input", "a.csv", "--auto", "--h-plus", "0.2", "--h-minus", "0.3"])
        with pytest.raises(UsageError):
            parse_args(["estimate", "--input", "a.csv", "--h-plus", "-0.2", "--h-minus", "0.3"])

    def test_reps_validated(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--design", "1", "--reps", "0"])

    @pytest.mark.parametrize("command", ["simulate", "dgp-sample"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--n", "49"],
            ["--error-sd", "0"],
            ["--error-sd", "-1"],
            ["--error-sd", "nan"],
            ["--error-sd", "inf"],
            ["--seed", "-1"],
        ],
        ids="=".join,
    )
    def test_design_flags_validated(self, command, flags):
        with pytest.raises(UsageError):
            parse_args([command, "--design", "1", *flags])

    def test_rep_index_validated(self):
        with pytest.raises(UsageError, match="--rep-index must be at least 0"):
            parse_args(["dgp-sample", "--design", "1", "--rep-index", "-1"])

    @pytest.mark.parametrize("value", ["-1e-3", "-1E2", "-.5e+1", "-2."])
    def test_a_negative_number_in_exponent_notation_is_a_value(self, value):
        # argparse alone takes such a token for an option and reports a missing argument
        ns = parse_args(["select", "--input", "a.csv", "--cutoff", value])
        assert ns.cutoff == float(value) == parse_args(["select", "--input", "a.csv", f"--cutoff={value}"]).cutoff

    def test_a_negative_exponent_value_selects_and_is_validated(self, tmp_path, capsys):
        data = str(tmp_path / "s.csv")
        assert main(["dgp-sample", "--design", "1", "--n", "600", "--seed", "2", "--output", data]) == 0
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["select", "--input", data, "--cutoff", "-1e-3", "--output", str(spaced)]) == 0
        assert main(["select", "--input", data, "--cutoff=-1e-3", "--output", str(joined)]) == 0
        assert json.loads(spaced.read_text()) == json.loads(joined.read_text())
        capsys.readouterr()
        assert main(["dgp-sample", "--design", "1", "--error-sd", "-1e-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: error_sd must be positive and finite") and err.count("\n") == 1, err


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path / "ok.csv", GOOD_CSV)
        s = load_csv(path, 0.0)
        assert s.n == 3
        np.testing.assert_array_equal(s.x, [-0.5, -0.2, 0.3])

    def test_header_any_order_any_case(self, tmp_path):
        path = write(tmp_path / "ok.csv", "D,Y,X\n0,1.0,-0.5\n1,2.0,0.3\n")
        s = load_csv(path, 0.0)
        np.testing.assert_array_equal(s.x, [-0.5, 0.3])
        np.testing.assert_array_equal(s.d, [0.0, 1.0])

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path / "ok.csv", "x,weight,y,d\n-0.5,9,1.0,0\n0.3,9,2.0,1\n")
        assert load_csv(path, 0.0).n == 2

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "bad.csv", "x,y\n-0.5,1.0\n")
        with pytest.raises(ParseError, match="d"):
            load_csv(path, 0.0)

    def test_bad_treatment_value_names_row(self, tmp_path):
        path = write(
            tmp_path / "bad.csv",
            "x,y,d\n-0.5,1.0,0\n-0.2,1.0,0\n0.1,1.0,1\n0.2,1.0,1\n0.3,2.0,2\n",
        )
        with pytest.raises(ValidationError, match="row 6"):
            load_csv(path, 0.0)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = write(tmp_path / "bad.csv", "x,y,d\n-0.5,one,0\n0.3,2.0,1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, 0.0)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path / "bad.csv", "x,y,d\n-0.5,nan,0\n0.3,2.0,1\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(path, 0.0)

    def test_short_row_rejected(self, tmp_path):
        path = write(tmp_path / "bad.csv", "x,y,d\n-0.5,1.0\n0.3,2.0,1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, 0.0)

    def test_one_sided_file_rejected(self, tmp_path):
        path = write(tmp_path / "bad.csv", "x,y,d\n0.1,1.0,1\n0.3,2.0,1\n")
        with pytest.raises(ValidationError):
            load_csv(path, 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(str(tmp_path / "absent.csv"), 0.0)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "ok.csv", "x,y,d\n-0.5,1.0,0\n\n0.3,2.0,1\n")
        assert load_csv(path, 0.0).n == 2

    @pytest.mark.parametrize("text", ["x,y,d\n", "x,y,d", "x,y,d\n\n \n,,\n"])
    def test_no_data_rows_is_a_typed_error_without_warning(self, tmp_path, text):
        path = write(tmp_path / "empty.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="need at least two observations"):
                load_csv(path, 0.0)

    @pytest.mark.parametrize("skipped", ["", "  \t", ",,", '"",," "'])
    def test_line_number_exact_after_a_skipped_row(self, tmp_path, skipped):
        text = f"x,y,d\n-0.5,1.0,0\n{skipped}\n0.3,two,1\n0.4,2.0,1\n"
        with pytest.raises(ParseError, match=r"row 4 column y is not a number: 'two'$"):
            load_csv(write(tmp_path / "bad1.csv", text), 0.0)
        text = f"x,y,d\n-0.5,1.0,0\n{skipped}\n{skipped}\n0.3,2.0,1\n0.4,inf,1\n"
        with pytest.raises(ValidationError, match=r"row 6 column y is not finite$"):
            load_csv(write(tmp_path / "bad2.csv", text), 0.0)

    def test_crlf_and_cr_files_load(self, tmp_path):
        for name, text in (("crlf.csv", GOOD_CSV.replace("\n", "\r\n")), ("cr.csv", GOOD_CSV.replace("\n", "\r"))):
            path = write(tmp_path / name, text)
            np.testing.assert_array_equal(load_csv(path, 0.0).x, [-0.5, -0.2, 0.3])
        path = write(tmp_path / "bad.csv", "x,y,d\r\n-0.5,1.0,0\r\n\r\n0.3,2.0,1\r\n0.4,2.0,3\r\n")
        with pytest.raises(ValidationError, match="row 5: d must be 0 or 1, got 3"):
            load_csv(path, 0.0)

    def test_quoted_cells_load(self, tmp_path):
        path = write(tmp_path / "bad.csv", '"X","y",d,"note"\n"-0.5", "1.0" ,0,"a, b"\n" 0.3",2.0,"1",x\n')
        with pytest.raises(ParseError, match=r"""row 2 column y is not a number: '"1.0"'"""):
            load_csv(path, 0.0)
        path = write(tmp_path / "q.csv", '"X","y",d,"note"\n"-0.5","1.0",0,"a, b"\n" 0.3",2.0,"1",x\n')
        s = load_csv(path, 0.0)
        np.testing.assert_array_equal(s.x, [-0.5, 0.3])
        np.testing.assert_array_equal(s.y, [1.0, 2.0])
        np.testing.assert_array_equal(s.d, [0.0, 1.0])

    @pytest.mark.parametrize(
        "header, row",
        [("x,y,d", "1,2"), ("x,y,d,w", "1,2,0"), ("w,x,y,d,v", "9,1,2,0")],
    )
    def test_short_row_names_its_line(self, tmp_path, header, row):
        width = header.count(",") + 1
        fields = len(next(csv.reader([row])))
        path = write(tmp_path / "bad.csv", f"{header}\n0,0,0,0,0\n{row}\n")
        with pytest.raises(ParseError, match=f"row 3 has {fields} fields, expected {width}"):
            load_csv(path, 0.0)

    def test_quoted_comma_does_not_hide_a_short_row(self, tmp_path):
        path = write(tmp_path / "bad.csv", 'x,y,d,w,v\n-1,1,0,5,5\n1,2,0,"a,b"\n')
        with pytest.raises(ParseError, match="row 3 has 4 fields, expected 5"):
            load_csv(path, 0.0)

    def test_an_oversized_quoted_cell_is_rejected_in_an_ignored_column(self, tmp_path):
        # numpy reads the cell, but the csv module, which reads every quoted line, does not
        cell = '"' + " " * (csv.field_size_limit() + 1) + '"'
        path = write(tmp_path / "big.csv", f"x,w,y,d\n-0.5,a,1.0,0\n0.3,{cell},2.0,1\n0.4,b,2.0,1\n")
        with pytest.raises(ParseError, match=r"row 3: field larger than field limit"):
            load_csv(path, 0.0)

    def test_underscore_number_rejected(self, tmp_path):
        # Python's float() reads "1_0" as 10; numpy's parser, which load_csv uses, does not
        path = write(tmp_path / "bad.csv", "x,y,d\n-0.5,1.0,0\n1_0,2.0,1\n")
        with pytest.raises(ParseError, match="row 3 column x is not a number: '1_0'"):
            load_csv(path, 0.0)

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y,d\n-0.5,1.0,0\n0.3,2.0,1 \u00e9\n".encode("latin-1"))
        with pytest.raises(ParseError, match="not UTF-8"):
            load_csv(str(path), 0.0)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # spreadsheet programs start UTF-8 files with a byte-order mark
        plain = tmp_path / "plain.csv"
        plain.write_bytes(GOOD_CSV.encode())
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + GOOD_CSV.encode())
        got, want = load_csv(str(marked), 0.0), load_csv(str(plain), 0.0)
        for col in "xyd":
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_first_bad_row_wins_in_a_long_file(self, tmp_path):
        # numpy rejects row 1802, so the row is found by bisection; the
        # non-finite row before it must still be the one reported
        rows = long_rows()
        rows[1800] = "oops,1,0"
        text = "x,y,d\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match="row 1802 column x is not a number: 'oops'"):
            load_csv(write(tmp_path / "bad1.csv", text), 0.0)
        rows[999] = "0.5,nan,1"
        text = "x,y,d\n" + "\n".join(rows) + "\n"
        with pytest.raises(ValidationError, match="row 1001 column y is not finite"):
            load_csv(write(tmp_path / "bad2.csv", text), 0.0)

    def test_only_a_block_holding_a_blank_row_is_filtered(self, tmp_path, monkeypatch):
        filtered = []
        nonblank = cli._nonblank
        monkeypatch.setattr(cli, "_nonblank", lambda path, lines, first: filtered.append(first) or nonblank(path, lines, first))
        monkeypatch.setattr(cli, "_BLOCK_CHARS", 4096)
        rows = long_rows()
        assert load_csv(write(tmp_path / "clean.csv", "x,y,d\n" + "\n".join(rows) + "\n"), 0.0).n == 3000
        assert filtered == []
        rows.insert(2500, "")
        assert load_csv(write(tmp_path / "blank.csv", "x,y,d\n" + "\n".join(rows) + "\n"), 0.0).n == 3000
        assert len(filtered) == 1 and filtered[0] < 2502

    @pytest.mark.parametrize("block_chars", [4096, 40])
    @pytest.mark.parametrize(
        "injected, expected",
        [
            ("", 3000),
            (",,", 3000),
            (" , ", 3000),
            ("\n" * 120, 3000),  # at 40 characters, blocks of nothing but empty lines
            ('"0.5","1",1', 3001),
            ("0.5,1,1,7", 3001),  # a long row
            ("0.5,1,1,", 3001),
            ("oops,1,0", "row 2502 column x is not a number: 'oops'"),
            ("0.5,nan,1", "row 2502 column y is not finite"),
            ("0.5,1,2", "row 2502: d must be 0 or 1, got 2"),
            ("0.5,1", "row 2502 has 2 fields, expected 3"),
        ],
    )
    def test_a_later_block_alone_holding_a_blank_or_bad_row(self, tmp_path, monkeypatch, block_chars, injected, expected):
        # every other block is plain; the one holding the row must load, or
        # fail on its file line, as the row-by-row reference does
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
        rows = long_rows()
        rows.insert(2500, injected)
        path = write(tmp_path / "f.csv", "x,y,d\n" + "\n".join(rows) + "\n")
        want = outcome(reference_load_csv, path)
        got = outcome(load_csv, path)
        if isinstance(expected, str):
            assert got == want and want[1].endswith(expected)
        else:
            assert len(want[0]) == expected
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_load_csv(path, cutoff):
    """The row-by-row csv/float parser that `load_csv` replaced, kept as the fuzz reference."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot open {path}: {e.strerror}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        names = [cell.strip().lower() for cell in header]
        try:
            idx = {col: names.index(col) for col in "xyd"}
        except ValueError:
            missing = [c for c in "xyd" if c not in names]
            raise ParseError(f"{path}: header lacks column(s) {', '.join(missing)}") from None

        cols = {col: [] for col in "xyd"}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(names):
                raise ParseError(f"{path}: row {line_no} has {len(row)} fields, expected {len(names)}")
            for col in "xyd":
                cell = row[idx[col]].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {line_no} column {col} is not a number: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise ValidationError(f"{path}: row {line_no} column {col} is not finite")
                cols[col].append(value)
            d_val = cols["d"][-1]
            if d_val not in (0.0, 1.0):
                raise ValidationError(f"{path}: row {line_no}: d must be 0 or 1, got {d_val:g}")
    try:
        return Sample(x=np.array(cols["x"]), y=np.array(cols["y"]), d=np.array(cols["d"]), c=cutoff)
    except ValueError as e:
        raise ValidationError(f"{path}: {e}") from e


def random_csv(rng):
    """A small CSV file drawn to exercise every row rule of `load_csv`.

    Covers column order and case, extra columns, blank rows of several
    kinds, CRLF, quoting (with commas and quotes inside quotes), number
    spellings and, in about half of the files, injected bad cells, short
    and long rows.  Never writes underscores in numbers or non-ASCII
    digits, which only Python's float() accepts, nor a quoted cell that
    spans lines.
    """
    names = ["x", "y", "d"] + [str(rng.choice(["w", "id", "Note", "z z"])) for _ in range(rng.integers(0, 3))]
    order = rng.permutation(len(names)).tolist()
    where = {names[i]: j for j, i in enumerate(order)}  # the file column of x, y and d
    header = [names[i].upper() if rng.random() < 0.3 else names[i] for i in order]
    header = [f'"{h}"' if rng.random() < 0.2 else (f" {h} " if rng.random() < 0.2 else h) for h in header]

    def number(v):
        text = str(rng.choice([repr(v), f"{v:.3f}", f"{v:.6e}", f"{v:.4E}", f"{round(v)}", f"{v:.17g}"]))
        if rng.random() < 0.1 and not text.startswith("-"):
            text = "+" + text
        if rng.random() < 0.1:
            text = rng.choice([" ", "\t", "  "]) + text + rng.choice(["", " ", "\t"])
        return f'"{text}"' if rng.random() < 0.1 else text

    rows = []
    for _ in range(rng.integers(0, 30)):
        if rng.random() < 0.15:
            rows.append(str(rng.choice(["", "   ", ",,", " , ,\t", '"",""', '" "', ",", "\t", ' "" '])))
            continue
        x = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
        d = int(rng.random() < 0.5 + 0.3 * np.sign(x))
        cells = [str(rng.choice(["abc", "", "3.5", '"a, b"', "nan", '"q ""x"""', "-"])) for _ in names]
        cells[where["x"]] = number(x)
        cells[where["y"]] = number(float(rng.normal()))
        cells[where["d"]] = str(rng.choice([f"{d}", f"{d}.0", f"{d}e0", f" {d} ", f'"{d}"']))
        rows.append(cells)

    data = [k for k, row in enumerate(rows) if isinstance(row, list)]
    if data and rng.random() < 0.5:
        for _ in range(rng.integers(1, 3)):
            row = rows[int(rng.choice(data))]
            what = rng.integers(0, 5)
            j = where[str(rng.choice(["x", "y", "d"]))] if what in (0, 2) else int(rng.integers(0, len(names)))
            if what == 0:  # a bad cell in a used column
                value = str(rng.choice(["nan", "inf", "-Infinity", "NaN", "abc", "", "1.2.3", ' "1"', "1e400", '""']))
            elif what == 1:  # a short row
                del row[j:]
            elif what == 2:  # d out of range
                j, value = where["d"], str(rng.choice(["2", "-1", "0.5"]))
            elif what == 3:  # a longer row
                row.append("7")
            else:  # a bad cell in any column, ignored ones included
                value = "zzz"
            if what in (0, 2, 4) and j < len(row):
                row[j] = value

    eol = str(rng.choice(["\n", "\r\n", "\r"], p=[0.6, 0.3, 0.1]))
    text = eol.join(",".join(row) if isinstance(row, list) else row for row in [header] + rows)
    if rng.random() < 0.7:
        text += eol
    return text


def outcome(loader, path):
    try:
        s = loader(path, 0.0)
    except RdbwError as e:
        return type(e), str(e)
    return s.x, s.y, s.d


@pytest.mark.parametrize("block_chars", [None, 40])
@pytest.mark.parametrize("seed", range(3))
def test_load_csv_matches_the_reference_parser(tmp_path, monkeypatch, seed, block_chars):
    if block_chars:  # a few lines per block: errors and skipped rows meet block ends
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(1000 + seed)
    accepted = 0
    for k in range(100):
        # a new file each time: truncating one in place makes ext4 flush it
        path = tmp_path / f"f{k}.csv"
        path.write_bytes(random_csv(rng).encode())
        want = outcome(reference_load_csv, str(path))
        got = outcome(load_csv, str(path))
        if isinstance(want[0], type):
            assert got == want, path.read_bytes()
        else:
            accepted += 1
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), path.read_bytes()
    assert 0 < accepted < 100


def misread(tmp_path, cells):
    """(cell, read, float(cell)) of each cell that load_csv reads to other
    bits than float() does, from rows whose x is each cell and y each cell
    in reverse order."""
    rows = [f"{a},{b},{k % 2}" for k, (a, b) in enumerate(zip(cells, cells[::-1]))]
    path = write(tmp_path / "cells.csv", "x,y,d\n" + "\n".join(rows) + "\n")
    sample = load_csv(path, max(map(float, cells)))
    want = np.array([float(cell) for cell in cells]).view(np.uint64)
    return [
        (cell, got, float(cell))
        for read in (sample.x, sample.y[::-1])
        for cell, got, ok in zip(cells, read.tolist(), read.view(np.uint64) == want)
        if not ok
    ]


def midpoint_cells():
    """Decimals at and next to the midpoints between adjacent floats, and
    next to powers of two, where the floats below are twice as dense."""
    rng = np.random.default_rng(29)
    odd = 2 * rng.integers(1 << 52, 1 << 53, 400) + 1  # exact ties: odd integers in (2^53, 2^54)
    halves = rng.integers(1 << 52, 1 << 53, 400)  # and n + 0.5 in (2^52, 2^53)
    cells = [str(v) for v in odd.tolist()] + [f"{v}.5" for v in halves.tolist()]
    powers = np.ldexp(1.0, np.arange(-13, 60))
    below = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(np.nextafter(powers, 0.0), 0.0)])
    cells += [spelling % a for a in below.tolist() for spelling in ("%.16g", "%.17g", "%.18g")]
    for a in (10.0 ** rng.uniform(-4, 16, 400)).tolist() + below.tolist():
        with decimal.localcontext() as ctx:
            ctx.prec = 1000  # the midpoint exactly
            mid = (decimal.Decimal(a) + decimal.Decimal(float(np.nextafter(a, np.inf)))) / 2
            for digits in (17, 18, 19):  # rounded down and up, in fixed notation
                ctx.prec = digits
                for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                    ctx.rounding = rounding
                    cells.append(format(+mid, "f"))
    return cells


@pytest.mark.parametrize("block_chars", [None, 40])
def test_decimals_at_and_next_to_midpoints_read_as_float_does(tmp_path, monkeypatch, block_chars):
    # the reader steps its float estimate to the nearest float by an exact
    # integer difference, and leaves exact ties, which need 16 digits before
    # the point, to numpy's parser
    if block_chars:
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
    wrong = misread(tmp_path, midpoint_cells())
    assert not wrong, wrong[:5]


# spellings at the edges of what load_csv reads without numpy's parser
EDGE_NUMBERS = [
    ".5", "-.5", "5.", "-5.", "007", "-007", "-0", "0", "0.0", "-0.0", "0.", ".0",
    "1234567890123456789", "-1234567890123456789", "12345678901234567890", "9223372036854775807",
    "1.234567890123456789", "0.12345678901234567890", "123456789.0123456789012",
    "0." + "0" * 21 + "1", "." + "0" * 21 + "1", "0." + "0" * 22 + "1", "-." + "0" * 21 + "1",
    "1" * 12 + "." + "2" * 11, "1" * 12 + "." + "2" * 12, "-" + "1" * 12 + "." + "2" * 11,
    "-" + "1" * 12 + "." + "2" * 12, "1" * 24, "1" * 25, "9007199254740993", "4503599627370497.5",
    "+1", " 1", "1 ", "1e-05", "-1.5E+3", "0.1", "0.30000000000000004", "179769313486231570" + "0" * 291,
]
EDGE_ERRORS = [
    "1.2.3", "1.2.34567890123456789", "1.234567.8", "1.2345678901234.5", "1./5", "12345.6/789",
    "--1", "1-2", "-", ".", "-.", "1..", "0x1", "1\u00e9", "\u00e9.5", "0.5\u00bd",
]


@pytest.mark.parametrize("block_chars", [None, 40])
def test_edge_spellings_read_as_float_does(tmp_path, monkeypatch, block_chars):
    if block_chars:
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
    wrong = misread(tmp_path, EDGE_NUMBERS)
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("block_chars", [None, 40])
@pytest.mark.parametrize("cell", EDGE_ERRORS)
@pytest.mark.parametrize("column", ["x", "y"])
def test_edge_spellings_that_are_not_numbers_fail_as_the_reference_does(
    tmp_path, monkeypatch, block_chars, cell, column
):
    # the reader's words hold 8 bytes each: 1.2.3 has both points in its
    # last word, 1.2.34567890123456789 both in its first, 1.234567.8 one in
    # each of two; after the point of 1./5 a borrow marks the "/" as a
    # point too, and a character that is not ASCII is marked like a point.
    # The bad row sits among plain ones
    if block_chars:
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
    rows = long_rows()
    rows[1500] = f"{cell},1,0" if column == "x" else f"0.5,{cell},0"
    path = write(tmp_path / "bad.csv", "x,y,d\n" + "\n".join(rows) + "\n")
    want = outcome(reference_load_csv, path)
    assert want[1].endswith(f"row 1502 column {column} is not a number: {cell!r}")
    assert outcome(load_csv, path) == want


@pytest.mark.parametrize("block_chars", [None, 4096, 40])
@pytest.mark.parametrize("header, tail", [("x,y,d", ","), ("x,y,d,name", ",Zo\u00eb"), ("x,y,d", ",\u00e9,7")])
def test_rows_longer_than_the_header_or_not_ascii_read_as_the_reference_does(
    tmp_path, monkeypatch, block_chars, header, tail
):
    # every line has one number of fields, at least the header's, and the
    # used cells are plain, whatever the text in the others
    if block_chars:
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
    path = write(tmp_path / "f.csv", header + "\n" + "".join(row + tail + "\n" for row in long_rows()))
    want = outcome(reference_load_csv, path)
    assert len(want[0]) == 3000
    for a, b in zip(outcome(load_csv, path), want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def format_corpus():
    """Finite floats that reach every branch of the CSV writer's "%.17g",
    and their negatives."""
    rng = np.random.default_rng(26)
    bit_patterns = rng.integers(0, 1 << 63, 40_000, dtype=np.uint64).view(float)  # every finite exponent
    fixed_range = np.ldexp(rng.uniform(0.5, 1.0, 40_000), rng.integers(-13, 55, 40_000))
    subnormals = rng.integers(1, 1 << 52, 1000, dtype=np.uint64).view(float)
    ties = (2 * rng.integers(4 * 10**14, 4 * 10**15, 2000) + 1) / 8  # 15 digits, then .125 to .875: 17-digit ties
    edges = np.concatenate([10.0 ** np.arange(-5, 18), [1e-4, 1e16]])
    values = np.concatenate([
        bit_patterns[np.isfinite(bit_patterns)], fixed_range, subnormals, ties,
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max],
    ])
    return np.concatenate([values, -values])


def wrong_csv_rows(x):
    """The lines of `cli._csv_rows` on rows (x, x reversed, 0 or 1) that differ
    from Python's "%.17g,%.17g,%d", as (got, want) pairs."""
    y, d = x[::-1], np.arange(len(x)) % 2.0
    blocks = [slice(i, i + cli._BLOCK_ROWS) for i in range(0, len(x), cli._BLOCK_ROWS)]
    got = "".join(cli._csv_rows(x[b], y[b], d[b]) for b in blocks).split("\n")
    want = ["%.17g,%.17g,%d" % row for row in zip(x.tolist(), y.tolist(), d.astype(int).tolist())] + [""]
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w]


def test_csv_rows_print_each_float_as_python_does():
    x = format_corpus()
    magnitude = np.abs(x)
    assert np.count_nonzero((magnitude >= 1e-4) & (magnitude < 1e16)) > len(x) / 2  # numpy's own digits
    wrong = wrong_csv_rows(x)
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("error", [-0.3, 0.3])
def test_csv_rows_do_not_rest_on_the_float_log10(monkeypatch, error):
    # the writer takes each decimal exponent from floor(log10 |v|) first; where
    # that is one too high or too low (at 10^k itself the 17 digits then round
    # to 10^17) it must still print Python's digits
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    wrong = wrong_csv_rows(format_corpus())
    assert not wrong, wrong[:5]


@pytest.mark.parametrize("block_chars, stride", [(None, 1), (4096, 1), (40, 41)])
def test_the_writers_corpus_reads_back_bitwise(tmp_path, monkeypatch, block_chars, stride):
    # every exponent, subnormals, +-0 and the 17-digit ties, as the writer
    # prints them; one-row blocks read every 41st row of it
    if block_chars:
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block_chars)
    x = format_corpus()[::stride]
    y, d = x[::-1], np.arange(len(x)) % 2.0
    blocks = [slice(i, i + cli._BLOCK_ROWS) for i in range(0, len(x), cli._BLOCK_ROWS)]
    path = tmp_path / "corpus.csv"
    path.write_text("x,y,d\n" + "".join(cli._csv_rows(x[b], y[b], d[b]) for b in blocks), encoding="utf-8")
    sample = load_csv(str(path), 0.0)
    for got, want in zip((sample.x, sample.y, sample.d), (x, y, d)):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestCommands:
    def make_data(self, tmp_path, n=400, design="design2"):
        out = tmp_path / "data.csv"
        code = main(
            [
                "dgp-sample",
                "--design",
                design[-1],
                "--n",
                str(n),
                "--seed",
                "5",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        return str(out)

    def test_dgp_sample_round_trip(self, tmp_path):
        path = self.make_data(tmp_path)
        loaded = load_csv(path, 0.0)
        direct = draw_sample(DgpSpec(design="design2", n=400, seed=5), 0)
        np.testing.assert_array_equal(loaded.x, direct.x)
        np.testing.assert_array_equal(loaded.y, direct.y)
        np.testing.assert_array_equal(loaded.d, direct.d)

    # 1000 rows: one block, one-row blocks, partial last blocks of 6 and
    # 100 rows, and four whole blocks; at an error sd of 1e-12 y is the
    # design's mean to about 12 digits, and at 1e17 919 of the 1000 |y|
    # are 1e16 or more, so rows that numpy formats and rows that Python
    # formats alternate
    @pytest.mark.parametrize("block_rows", [None, 1, 7, 300, 250])
    @pytest.mark.parametrize("design, error_sd", [
        pytest.param("design1", DEFAULT_ERROR_SD, id="design1"),
        pytest.param("design2", DEFAULT_ERROR_SD, id="design2"),
        pytest.param("design1", 1e-12, id="design1-sd1e-12"),
        pytest.param("design2", 1e17, id="design2-sd1e17"),
    ])
    def test_dgp_sample_matches_per_row_format(self, tmp_path, monkeypatch, design, error_sd, block_rows):
        if block_rows:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        out = tmp_path / "data.csv"
        argv = ["dgp-sample", "--design", design[-1], "--n", "1000", "--seed", "9", "--error-sd", repr(error_sd)]
        assert main(argv + ["--output", str(out)]) == 0
        s = draw_sample(DgpSpec(design=design, n=1000, seed=9, error_sd=error_sd), 0)
        lines = ["x,y,d"] + [f"{xi:.17g},{yi:.17g},{di:.0f}" for xi, yi, di in zip(s.x, s.y, s.d)]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_dgp_sample_round_trip_across_reader_blocks(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["dgp-sample", "--design", "1", "--n", "70000", "--seed", "6", "--output", str(out)]) == 0
        assert out.stat().st_size > 2 * cli._BLOCK_CHARS  # at least three reader blocks
        loaded = load_csv(str(out), 0.0)
        direct = draw_sample(DgpSpec(design="design1", n=70000, seed=6), 0)
        assert (loaded.x == direct.x).all() and (loaded.y == direct.y).all() and (loaded.d == direct.d).all()

    def test_select_writes_full_json(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "sel.json"
        code = main(["select", "--input", data, "--cutoff", "0", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "h_plus",
            "h_minus",
            "regime",
            "objective_value",
            "pilots",
            "coefficients",
        }
        assert payload["h_plus"] > 0 and payload["h_minus"] > 0
        assert payload["regime"] in ("opposite_sign", "same_sign", "boundary_clamped")
        assert "tauD" in payload["pilots"] and "m2Y_plus" in payload["pilots"]
        assert set(payload["coefficients"]) == {
            "phi_plus",
            "phi_minus",
            "psi_plus",
            "psi_minus",
            "omega_plus",
            "omega_minus",
            "v",
            "f",
            "tauD",
            "n",
        }

    def test_estimate_manual_bandwidths(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        code = main(
            ["estimate", "--input", data, "--h-plus", "0.3", "--h-minus", "0.4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"tau", "tauY", "tauD", "h_plus", "h_minus", "n_plus", "n_minus"}
        assert payload["h_plus"] == 0.3
        assert payload["tau"] == pytest.approx(payload["tauY"] / payload["tauD"], rel=1e-12)

    def test_estimate_auto(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        code = main(["estimate", "--input", data, "--auto"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h_plus"] > 0 and payload["h_minus"] > 0

    def test_simulate_outputs(self, tmp_path):
        out_dir = tmp_path / "sim"
        summary_path = tmp_path / "summary.json"
        code = main(
            [
                "simulate",
                "--design",
                "2",
                "--method",
                "mmse-f",
                "--n",
                "200",
                "--reps",
                "5",
                "--seed",
                "3",
                "--out-dir",
                str(out_dir),
                "--output",
                str(summary_path),
            ]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["method"] == "mmse_f"
        assert summary["reps_total"] == 5
        assert len(summary["cdf"]) == 200

        cdf_lines = (out_dir / "cdf.csv").read_text().strip().splitlines()
        assert cdf_lines[0] == "threshold,fraction"
        assert len(cdf_lines) == 201

        table_lines = (out_dir / "table.csv").read_text().strip().splitlines()
        assert table_lines[0].startswith("method,h_plus_mean")
        assert len(table_lines) == 2
        assert table_lines[1].startswith("mmse_f,")

    def test_error_exit_codes(self, tmp_path, capsys):
        code = main(["estimate", "--input", str(tmp_path / "none.csv"), "--auto"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert "\n" not in captured.err.strip()

        code = main(["select"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")

        # non-finite bandwidths and cutoffs are usage errors, not library
        # failures; draws that overflow under a huge --error-sd are a domain error
        data = self.make_data(tmp_path)
        out = ["--output", str(tmp_path / "out")]
        for argv, want in (
            (["estimate", "--input", data, "--h-plus", "nan", "--h-minus", "0.4"], 2),
            (["estimate", "--input", data, "--h-plus", "0.4", "--h-minus", "nan"], 2),
            (["estimate", "--input", data, "--h-plus", "inf", "--h-minus", "inf"], 2),
            (["estimate", "--input", data, "--auto", "--cutoff", "nan"], 2),
            (["select", "--input", data, "--cutoff", "nan"], 2),
            (["select", "--input", data, "--cutoff", "inf"], 2),
            (["select", "--input", data, "--cutoff", "-inf"], 2),
            (["dgp-sample", "--design", "1", "--n", "60", "--error-sd", "1e308", *out], 1),
            (["simulate", "--design", "1", "--n", "60", "--reps", "2", "--error-sd", "1e308", *out], 1),
            (["simulate", "--design", "1", "--n", "300", "--reps", "2", "--jobs", "0", *out], 2),
            (["simulate", "--design", "1", "--n", "300", "--reps", "2", "--jobs", "-4", *out], 2),
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == want, argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv

    def test_validation_error_is_single_line(self, tmp_path, capsys):
        path = write(tmp_path / "bad.csv", "x,y,d\n-0.5,1.0,0\n0.3,2.0,5\n")
        code = main(["select", "--input", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "row 3" in captured.err

    def test_selection_beyond_the_floats_is_a_single_line_error(self, tmp_path, capsys):
        # x in units of 1e104: the criterion overflows at the selected pair
        sample = draw_sample(DgpSpec("design1", 500, seed=1), 0)
        path = tmp_path / "far.csv"
        np.savetxt(path, np.column_stack((sample.x * 1e104, sample.y, sample.d)), delimiter=",",
                   header="x,y,d", comments="", fmt="%.17g")
        code = main(["select", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("command", ["select", "dgp-sample", "simulate"])
    def test_unwritable_output_is_a_single_line_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing" / "out.json")
        summary = tmp_path / "summary.json"
        argv = {
            "select": ["select", "--input", self.make_data(tmp_path), "--output", missing],
            "dgp-sample": ["dgp-sample", "--design", "1", "--n", "60", "--output", missing],
            "simulate": ["simulate", "--design", "2", "--n", "200", "--reps", "2", "--seed", "3",
                         "--out-dir", write(tmp_path / "taken", ""), "--output", str(summary)],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
        assert not summary.exists()

    def test_simulate_checks_its_output_before_the_run(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_monte_carlo", lambda *args, **kwargs: ran.append(args))
        out_dir = tmp_path / "sim"
        missing = str(tmp_path / "missing" / "s.json")
        code = main(["simulate", "--design", "1", "--reps", "1000", "--out-dir", str(out_dir), "--output", missing])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {missing}: No such file or directory\n"
        assert ran == [] and list(out_dir.iterdir()) == []

    def test_simulate_to_a_device_skips_the_output_check(self, tmp_path, capsys, monkeypatch):
        # a path that exists and is no regular file is left to the write itself
        opened = []

        def recording_open(path, mode, **kwargs):
            opened.append((path, mode))
            return open(path, mode, **kwargs)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        code = main(["simulate", "--design", "2", "--n", "200", "--reps", "2", "--seed", "3",
                     "--out-dir", str(tmp_path / "sim"), "--output", os.devnull])
        assert code == 0 and capsys.readouterr().err == ""
        assert [mode for path, mode in opened if path == os.devnull] == ["w"]

    def test_the_output_check_leaves_no_trace(self, tmp_path, capsys):
        # a run that fails after the check keeps an existing output and creates none
        kept, fresh = write(tmp_path / "kept.json", "old"), tmp_path / "fresh.json"
        for output in (kept, str(fresh)):
            code = main(["simulate", "--design", "1", "--n", "60", "--reps", "2", "--error-sd", "1e308",
                         "--out-dir", str(tmp_path / "sim"), "--output", output])
            assert code == 1 and capsys.readouterr().err.count("\n") == 1
        assert (tmp_path / "kept.json").read_text() == "old"
        assert not fresh.exists()


# boundary values of each numeric flag, plus an ordinary one; every --n and
# --reps here is small, so a vector that passes validation runs in milliseconds
FUZZ_VALUES = {
    "--n": ["-1", "0", "3", "49", "50", "200"],
    "--error-sd": ["-1", "0", "nan", "inf", "1e308", "0.2"],
    "--seed": ["-1", "0", "5"],
    "--rep-index": ["-1", "0", "2"],
    "--reps": ["-1", "0", "1", "3"],
    "--h-plus": ["-1", "0", "nan", "inf", "1e-9", "0.4"],
    "--h-minus": ["-1", "0", "nan", "inf", "1e-9", "0.4"],
    "--cutoff": ["nan", "inf", "5", "0"],
    # no value above 1, so the fuzz never starts a process pool
    "--jobs": ["-4", "0", "1"],
}
FUZZ_FLAGS = {
    "select": ["--cutoff"],
    "estimate": ["--cutoff", "--h-plus", "--h-minus"],
    "simulate": ["--n", "--reps", "--error-sd", "--seed", "--jobs"],
    "dgp-sample": ["--n", "--error-sd", "--seed", "--rep-index"],
}


def test_exit_codes_over_boundary_flag_values(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["dgp-sample", "--design", "1", "--n", "200", "--seed", "1", "--output", str(data)]) == 0
    rng = np.random.default_rng(77)
    seen = set()
    for _ in range(200):
        command = str(rng.choice(list(FUZZ_FLAGS)))
        if command in ("select", "estimate"):
            argv = [command, "--input", str(data), "--output", str(tmp_path / "out.json")]
            if command == "estimate" and rng.random() < 0.3:
                argv.append("--auto")
        else:
            argv = [command, "--design", str(rng.choice(["1", "2"])), "--output", str(tmp_path / "out")]
            if command == "simulate":
                argv += ["--out-dir", str(tmp_path / "sim")]
        for flag in FUZZ_FLAGS[command]:
            if flag in ("--n", "--reps", "--jobs") or rng.random() < 0.6:
                argv += [flag, str(rng.choice(FUZZ_VALUES[flag]))]
        try:
            code = main(argv)
        except (Exception, SystemExit) as e:
            pytest.fail(f"{argv} raised {e!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if {"nan", "inf"} & set(argv):
            assert code == 2, argv
        if "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) < 1:
            assert code == 2, argv
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", (argv, err)
        seen.add(code)
    assert seen == {0, 1, 2}


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        # exercise the installed script end to end once
        result = subprocess.run(
            [sys.executable, "-m", "rdbw.cli", "dgp-sample", "--design", "1", "--n", "60", "--seed", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "x,y,d"
        assert len(lines) == 61

    def test_a_reader_that_closes_early_gets_one_error_line(self):
        # 200,000 rows overflow the pipe's buffer long before the reader closes it
        proc = subprocess.Popen(
            [sys.executable, "-m", "rdbw.cli", "dgp-sample", "--design", "1", "--n", "200000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "x,y,d\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == "error: cannot write stdout: Broken pipe\n", err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need a POSIX system")
    def test_simulate_writes_its_summary_to_a_named_pipe(self, tmp_path):
        # the output check must not open the pipe: closing it would end the reader
        fifo = tmp_path / "summary.fifo"
        os.mkfifo(fifo)
        proc = subprocess.Popen(
            [sys.executable, "-m", "rdbw.cli", "simulate", "--design", "2", "--n", "200", "--reps", "2",
             "--seed", "3", "--out-dir", str(tmp_path / "sim"), "--output", str(fifo)],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            with open(fifo, encoding="utf-8") as fh:
                text = fh.read()
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert json.loads(text)["reps_total"] == 2

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "rdbw.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        for cmd in ("select", "estimate", "simulate", "dgp-sample"):
            assert cmd in result.stdout
