import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rdbw import cli
from rdbw.cli import RunConfig, load_csv, main, parse_args
from rdbw.errors import ParseError, RdbwError, UsageError, ValidationError
from rdbw.local_poly import Sample
from rdbw.simlab import DgpSpec, draw_sample


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD_CSV = "x,y,d\n-0.5,1.0,0\n-0.2,1.1,0\n0.3,2.0,1\n"


class TestParseArgs:
    def test_select_defaults(self):
        cfg = parse_args(["select", "--input", "data.csv", "--cutoff", "0"])
        assert cfg.command == "select"
        assert cfg.input_path == "data.csv"
        assert cfg.cutoff == 0.0
        assert cfg.kernel.family == "triangular"
        assert cfg.mode == "fuzzy"
        assert cfg.output_path is None

    def test_simulate_config(self):
        cfg = parse_args(
            ["simulate", "--design", "2", "--reps", "1000", "--n", "500", "--seed", "7"]
        )
        assert cfg == RunConfig(
            command="simulate",
            design="design2",
            method="mmse_f",
            n=500,
            reps=1000,
            seed=7,
            out_dir=".",
        )

    def test_method_name_mapped(self):
        cfg = parse_args(["simulate", "--design", "1", "--method", "mmse-s"])
        assert cfg.method == "mmse_s"

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
        cfg = parse_args(
            ["estimate", "--input", "a.csv", "--h-plus", "0.2", "--h-minus", "0.3"]
        )
        assert cfg.h_plus == 0.2 and cfg.h_minus == 0.3
        with pytest.raises(UsageError):
            parse_args(["estimate", "--input", "a.csv", "--h-plus", "0.2"])
        with pytest.raises(UsageError):
            parse_args(["estimate", "--input", "a.csv", "--auto", "--h-plus", "0.2", "--h-minus", "0.3"])
        with pytest.raises(UsageError):
            parse_args(["estimate", "--input", "a.csv", "--h-plus", "-0.2", "--h-minus", "0.3"])

    def test_reps_validated(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--design", "1", "--reps", "0"])


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

    def test_first_bad_row_wins_in_a_long_file(self, tmp_path):
        # numpy rejects row 1802, so the row is found by bisection; the
        # non-finite row before it must still be the one reported
        rows = [f"{(-1) ** k * (k + 1) / 7:.17g},{k / 3:.17g},{k % 2}" for k in range(3000)]
        rows[1800] = "oops,1,0"
        text = "x,y,d\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match="row 1802 column x is not a number: 'oops'"):
            load_csv(write(tmp_path / "bad1.csv", text), 0.0)
        rows[999] = "0.5,nan,1"
        text = "x,y,d\n" + "\n".join(rows) + "\n"
        with pytest.raises(ValidationError, match="row 1001 column y is not finite"):
            load_csv(write(tmp_path / "bad2.csv", text), 0.0)


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

    @pytest.mark.parametrize("block_rows", [None, 300])
    @pytest.mark.parametrize("design", ["design1", "design2"])
    def test_dgp_sample_matches_per_row_format(self, tmp_path, monkeypatch, design, block_rows):
        if block_rows:
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        out = tmp_path / "data.csv"
        assert main(["dgp-sample", "--design", design[-1], "--n", "1000", "--seed", "9", "--output", str(out)]) == 0
        s = draw_sample(DgpSpec(design=design, n=1000, seed=9), 0)
        lines = ["x,y,d"] + [f"{xi:.17g},{yi:.17g},{di:.0f}" for xi, yi, di in zip(s.x, s.y, s.d)]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

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

    def test_validation_error_is_single_line(self, tmp_path, capsys):
        path = write(tmp_path / "bad.csv", "x,y,d\n-0.5,1.0,0\n0.3,2.0,5\n")
        code = main(["select", "--input", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "row 3" in captured.err


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
