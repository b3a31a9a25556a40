"""Memory that grows with a Monte Carlo block: every stage bounds the
temporaries it holds per slice, so a block's memory is mostly its stack."""

import tracemalloc

import numpy as np

from rdbw import local_poly, simlab
from rdbw.kernels import KernelSpec
from rdbw.local_poly import Sample, fit_boundary, window_rows
from rdbw.simlab import DgpSpec, draw_sample


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
    return window_rows(stack, "minus", stack.c - stack.x.min(axis=-1), KernelSpec("uniform"))


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

    def recording(sample, candidates, *args):
        groups.append(len(candidates))
        return factor(sample, candidates, *args)

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


def test_a_fit_on_one_large_sample_holds_its_window_and_one_block():
    # beyond 8 bytes per window row for its candidate indices and a byte per
    # observation for the window mask, the fit holds one block's design and
    # the QR's work, however long the sample
    excess = []
    for n in (500_000, 1_000_000):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.0, 1.0, n)
        d = (rng.uniform(size=n) < np.where(x >= 0.0, 0.8, 0.2)).astype(float)
        sample = Sample(x, np.exp(x) + d + rng.normal(0.0, 0.1, n), d, 0.0)
        fit, peak = traced_peak(lambda: quartic_fit(sample))
        window = np.count_nonzero(x < 0.0)
        assert fit.effective_n == window
        excess.append(peak - 8 * window - n)
    # 8.9 MB at both sizes; it was 11.0 and 13.0 MB when the fit returned its row index
    assert excess[1] - excess[0] < 0.5e6, excess
