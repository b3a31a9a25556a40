"""Memory beyond the data: every stage bounds the temporaries it holds
per slice and per row tile, so a Monte Carlo block's memory is mostly its
stack, and one long sample's is its own arrays and a fixed working set."""

import tracemalloc

import numpy as np
import pytest

from rdbw import cli, local_poly, simlab
from rdbw.estimator import frd_estimate
from rdbw.errors import SingularDesign
from rdbw.kernels import KernelSpec, eval_kernel
from rdbw.local_poly import Sample, fit_boundary
from rdbw.pilot import estimate_density, estimate_derivatives, estimate_tauD, estimate_variances
from rdbw.selector import default_bounds, select_bandwidths
from rdbw.simlab import DgpSpec, draw_sample

MIB = 1 << 20


def traced_peak(call):
    """(result, peak bytes traced while call() ran), after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quartic_fit(stack):
    # the whole-side quartic fit of the curvature pilot, the widest window of a block
    span = stack.c - stack.x.min(axis=-1)
    return fit_boundary(stack, "minus", span, order=4, kernel=KernelSpec("uniform"))


def quartic_rows(stack):
    """The rows the quartic fit weighs, from numpy alone: side_mask &
    (K((x - c)/h) > 0), as flat indices, left-aligned per slice and padded with -1."""
    h = (stack.c - stack.x.min(axis=-1))[:, None]
    mask = stack.side_mask("minus") & (eval_kernel(KernelSpec("uniform"), (stack.x - stack.c) / h) > 0.0)
    counts = np.count_nonzero(mask, axis=1)
    rows = np.full((len(mask), counts.max()), -1)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = np.flatnonzero(mask)
    return rows


def test_a_block_at_n_500_peaks_near_its_stack():
    spec = DgpSpec("design1", 500, seed=42)
    size = simlab._block_reps(spec.n)
    out, peak = traced_peak(lambda: simlab._run_block(spec, "mmse_f", KernelSpec(), size, 0))
    assert [len(column) for column in out] == [size] * 3
    stack_bytes = 3 * size * spec.n * 8
    # 131 replications: a 1.57 MB stack, and 8 MB when the fits and draws were not grouped
    assert peak < 3.5e6 and peak < 2.25 * stack_bytes, peak


def test_a_stacked_fit_holds_one_group_at_a_time():
    budget = 8 * local_poly._GROUP_VALUES
    extra = []
    for slices in (131, 262):
        stack = draw_sample(DgpSpec("design1", 500, seed=3), range(slices))
        (fit, errors), peak = traced_peak(lambda: quartic_fit(stack))
        assert errors == [None] * slices
        extra.append(peak)
    # ungrouped, the fit held 6.5 MB beyond its row index at 131 slices and 13 MB
    # at 262; grouped, only per-slice results and the window mask grow, by 0.12 MB
    assert max(extra) < 2 * budget, extra
    assert extra[1] - extra[0] < budget / 2, extra


def test_a_grouped_fit_equals_its_groups_and_the_ungrouped_fit(monkeypatch):
    stack = draw_sample(DgpSpec("design2", 500, seed=5), range(131))
    groups = []
    factor = local_poly._factor

    def recording(sample, pieces, slices, *args):
        groups.append(slices)
        return factor(sample, pieces, slices, *args)

    monkeypatch.setattr(local_poly, "_factor", recording)
    fit, _ = quartic_fit(stack)
    sizes = list(groups)
    assert len(sizes) > 1 and sum(sizes) == 131
    n, lo, rows = stack.n, 0, quartic_rows(stack)
    np.testing.assert_array_equal(np.count_nonzero(rows >= 0, axis=1), fit.effective_n)
    for size in sizes:
        part, _ = quartic_fit(stack.part(slice(lo, lo + size)))
        got = slice(lo, lo + size)
        np.testing.assert_allclose(fit.coefficients[got], part.coefficients, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(fit.effective_n[got], part.effective_n)
        want = quartic_rows(stack.part(got))
        mine = rows[got, : want.shape[1]]
        np.testing.assert_array_equal(np.where(mine < 0, -1, mine - lo * n), want)
        lo += size

    monkeypatch.setattr(local_poly, "_GROUP_VALUES", 1 << 40)
    groups.clear()
    whole, _ = quartic_fit(stack)
    assert groups == [131]
    np.testing.assert_allclose(fit.coefficients, whole.coefficients, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(fit.effective_n, whole.effective_n)


def test_a_fit_on_one_large_sample_holds_one_block():
    # the fit finds its window tile by tile and holds one block's rows,
    # design and QR work, however long the sample
    peaks = []
    for n in (500_000, 1_000_000):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.0, 1.0, n)
        d = (rng.uniform(size=n) < np.where(x >= 0.0, 0.8, 0.2)).astype(float)
        sample = Sample(x, np.exp(x) + d + rng.normal(0.0, 0.1, n), d, 0.0)
        fit, peak = traced_peak(lambda: quartic_fit(sample))
        assert fit.effective_n == np.count_nonzero(x < 0.0)
        peaks.append(peak)
    # 1.5 MiB at both sizes; 10.9 and 13.3 MiB when the fit held its window's mask and rows whole
    assert max(peaks) < 3 * MIB and abs(peaks[1] - peaks[0]) < MIB / 2, peaks


@pytest.fixture(scope="module")
def long_samples():
    return {n: draw_sample(DgpSpec("design1", n, seed=1)) for n in (500_000, 1_000_000)}


def select_and_estimate(sample):
    pair = select_bandwidths(sample).bandwidths
    return frd_estimate(sample, pair.h_plus, pair.h_minus)


@pytest.mark.parametrize("stage", [
    estimate_density,
    lambda s: estimate_derivatives(s, "plus"),
    lambda s: estimate_derivatives(s, "minus"),
    lambda s: estimate_variances(s, "plus"),
    lambda s: estimate_variances(s, "minus"),
    estimate_tauD,
    default_bounds,
    lambda s: frd_estimate(s, 0.05, 0.1),
    select_and_estimate,
], ids=["density", "derivatives_plus", "derivatives_minus", "variances_plus", "variances_minus",
        "tauD", "bounds", "estimate", "select_and_estimate"])
def test_a_stage_on_one_long_sample_holds_a_fixed_working_set(long_samples, stage):
    # beyond the sample's arrays: at most 1.9 MiB; when the stages made
    # temporaries of the whole sample they held up to 22.9 MiB at n = 1e6
    peaks = [traced_peak(lambda: stage(sample))[1] for sample in long_samples.values()]
    assert max(peaks) < 3 * MIB and abs(peaks[1] - peaks[0]) < MIB / 2, peaks


def test_a_long_draw_holds_a_fixed_working_set():
    # beyond its output: 1.6 MiB at both sizes; 11.9 and 23.9 MiB when the
    # draw and the sample's checks made temporaries of the whole sample
    excess = []
    for n in (500_000, 1_000_000):
        spec = DgpSpec("design1", n, seed=1)
        sample, peak = traced_peak(lambda: draw_sample(spec))
        excess.append(peak - sample.x.nbytes - sample.y.nbytes - sample.d.nbytes)
    assert max(excess) < 3 * MIB and abs(excess[1] - excess[0]) < MIB / 2, excess


def test_a_long_fit_does_not_depend_on_its_tiles_or_pieces(monkeypatch):
    # the window is scanned tile by tile and its design built piece by
    # piece, but factored in chunks and blocks of its own rows
    sample = draw_sample(DgpSpec("design2", 70_000, seed=4))
    fits = []
    for tile, piece in [
        (local_poly._TILE_ROWS, local_poly._PIECE_ROWS),  # two tiles, pieces of 8 chunks
        (1000, 1 << 10),  # 70 tiles, pieces of one chunk
        (70_000, local_poly._BLOCK_ROWS),  # one tile, pieces of a whole block
    ]:
        monkeypatch.setattr(local_poly, "_TILE_ROWS", tile)
        monkeypatch.setattr(local_poly, "_PIECE_ROWS", piece)
        fits.append([quartic_fit(sample), fit_boundary(sample, "plus", 0.3)])
    for fit in fits[1:]:
        for got, want in zip(fit, fits[0]):
            assert np.array_equal(got.coefficients, want.coefficients) and got.effective_n == want.effective_n


@pytest.fixture(scope="module")
def heaped_samples():
    # x heaped on the integers -50..50: each minus-side fit near the cutoff
    # weighs fewer distinct values than a line needs
    samples = {}
    for n in (1_000_000, 2_000_000):
        rng = np.random.default_rng(n)
        x = rng.integers(-50, 51, n).astype(float)
        d = (rng.uniform(size=n) < np.where(x >= 0.0, 0.8, 0.2)).astype(float)
        samples[n] = Sample(x, x + d + rng.normal(0.0, 0.1, n), d, 0.0)
    return samples


@pytest.mark.parametrize("stage, distinct", [
    (lambda s: fit_boundary(s, "minus", 0.9), 0),
    (lambda s: estimate_variances(s, "minus"), 1),
    (select_bandwidths, 1),
], ids=["fit", "variances_minus", "select"])
def test_a_failing_fit_on_one_long_sample_holds_a_fixed_working_set(heaped_samples, stage, distinct):
    # the rank error counts the window's distinct values piece by piece:
    # at most 1.7 MiB at both sizes; 1.9 and 3.8 MiB when it held masks of the whole sample
    def message(sample):
        try:
            stage(sample)
        except SingularDesign as e:
            return str(e)

    peaks = []
    for sample in heaped_samples.values():
        got, peak = traced_peak(lambda: message(sample))
        assert got == f"{distinct} distinct x values with positive weight; order 1 needs 2"
        peaks.append(peak)
    assert max(peaks) < 3 * MIB and abs(peaks[1] - peaks[0]) < MIB / 2, peaks


def test_reading_a_csv_holds_one_column_twice_at_most(tmp_path):
    path = str(tmp_path / "s.csv")
    assert cli.main(["dgp-sample", "--design", "1", "--n", "200000", "--seed", "3", "--output", path]) == 0
    sample, peak = traced_peak(lambda: cli.load_csv(path, 0.0))
    columns = sample.x.nbytes + sample.y.nbytes + sample.d.nbytes
    # 1.34 times the columns; 2.04 times when the blocks of all three
    # columns were alive with the joined copy, read 1 MB at a time
    assert peak < 1.5 * columns, (peak, columns)


def test_writing_a_csv_holds_the_sample_and_one_block(tmp_path):
    path = str(tmp_path / "s.csv")
    argv = ["dgp-sample", "--design", "1", "--n", "200000", "--seed", "3", "--output", path]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    columns = 3 * 8 * 200_000
    # 1.35 times the columns, the draw's own peak; 1.68 times when the
    # writer's blocks of numpy text were 8192 rows
    assert peak < 1.6 * columns, (peak, columns)
