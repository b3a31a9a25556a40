"""Stacks of samples: every slice of a stacked call gives the result, or
raises the error, of the same call on that slice alone."""

import numpy as np
import pytest

from rdbw import selector, simlab
from rdbw.errors import InsufficientData, RdbwError, SingularDesign, WeakDiscontinuity, merge
from rdbw.estimator import frd_estimate
from rdbw.local_poly import Sample, fit_boundary
from rdbw.pilot import assemble_pilots
from rdbw.selector import default_bounds, select_bandwidths
from rdbw.simlab import DgpSpec, draw_sample, run_monte_carlo


def single_pipeline(sample, mode):
    try:
        sel = select_bandwidths(sample, mode=mode)
        return sel, frd_estimate(sample, sel.bandwidths.h_plus, sel.bandwidths.h_minus)
    except RdbwError as e:
        return e


def stacked_pipeline(stack, mode):
    sel, errors = select_bandwidths(stack, mode=mode)
    h_plus = np.array([p.h_plus if p else 1.0 for p in sel.bandwidths])
    h_minus = np.array([p.h_minus if p else 1.0 for p in sel.bandwidths])
    est, later = frd_estimate(stack, h_plus, h_minus)
    merge(errors, later)
    return sel, est, errors


def assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)


@pytest.mark.parametrize("seed, mode", [(6, "fuzzy"), (7, "sharp")])
def test_every_slice_matches_its_single_sample_pipeline(seed, mode):
    # at n = 60 about a third of the draws fail, in several stages
    spec = DgpSpec("design1", 60, seed=seed)
    samples = [draw_sample(spec, r) for r in range(64)]
    sel, est, errors = stacked_pipeline(draw_sample(spec, range(64)), mode)
    failures = set()
    for r, sample in enumerate(samples):
        want = single_pipeline(sample, mode)
        if isinstance(want, RdbwError):
            assert_same_error(errors[r], want)
            failures.add(type(want))
            continue
        assert errors[r] is None
        pair, got = want[0].bandwidths, sel.bandwidths[r]
        assert got.regime == pair.regime
        for a, b in ((got.h_plus, pair.h_plus), (got.h_minus, pair.h_minus), (est.tau[r], want[1].tau)):
            assert a == pytest.approx(b, rel=1e-12)
        assert (est.n_plus[r], est.n_minus[r]) == (want[1].n_plus, want[1].n_minus)
    assert InsufficientData in failures and len(failures) >= 2
    assert failures & {SingularDesign, WeakDiscontinuity}


def test_a_single_sample_is_a_stack_of_one():
    spec = DgpSpec("design2", 500, seed=3)
    sample = draw_sample(spec, 1)
    one = draw_sample(spec, range(1, 2))
    sel, errors = select_bandwidths(one)
    assert errors == [None]
    assert sel.bandwidths[0] == select_bandwidths(sample).bandwidths
    assert sel.pilots.at(0) == assemble_pilots(sample)
    bounds, _ = default_bounds(one)
    assert tuple((float(lo[0]), float(hi[0])) for lo, hi in bounds) == default_bounds(sample)


def test_a_stack_minimizes_in_one_call(monkeypatch):
    calls = []
    minimize = selector.minimize_mmse

    def counted(coeffs, bounds):
        calls.append(len(coeffs))
        return minimize(coeffs, bounds)

    monkeypatch.setattr(selector, "minimize_mmse", counted)
    sel, errors = select_bandwidths(draw_sample(DgpSpec("design1", 500, seed=1), range(64)))
    assert calls == [64] and errors == [None] * 64


def test_a_bad_bandwidth_fails_its_slice_only():
    spec = DgpSpec("design1", 300, seed=2)
    samples = [draw_sample(spec, r) for r in range(3)]
    fit, errors = fit_boundary(draw_sample(spec, range(3)), "plus", np.array([0.3, np.nan, 0.4]))
    assert errors[0] is None and errors[2] is None
    with pytest.raises(ValueError) as single:
        fit_boundary(samples[1], "plus", np.nan)
    assert_same_error(errors[1], single.value)
    for r, h in ((0, 0.3), (2, 0.4)):
        want = fit_boundary(samples[r], "plus", h)
        np.testing.assert_allclose(fit.coefficients[r], want.coefficients, rtol=1e-12, atol=1e-14)
        assert fit.effective_n[r] == want.effective_n
        rows = fit.rows[r, : fit.effective_n[r]] - r * samples[r].n
        np.testing.assert_array_equal(rows, want.rows)


def test_a_slice_with_too_few_distinct_values_keeps_its_message():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, (2, 40))
    x[1, x[1] >= 0.0] = np.where(x[1, x[1] >= 0.0] < 0.5, 0.25, 0.75)  # two values on one side
    y, d = rng.normal(size=(2, 40)), (x >= 0.0).astype(float)
    fit, errors = fit_boundary(Sample(x, y, d, 0.0), "plus", 1.0, order=2)
    assert errors[0] is None
    with pytest.raises(SingularDesign, match="2 distinct x values") as single:
        fit_boundary(Sample(x[1], y[1], d[1], 0.0), "plus", 1.0, order=2)
    assert_same_error(errors[1], single.value)
    assert np.all(np.isfinite(fit.coefficients))


def test_every_slice_needs_both_sides():
    x = np.array([[-0.5, 0.5, 0.7], [0.1, 0.5, 0.7]])
    with pytest.raises(ValueError, match="both sides"):
        Sample(x, np.zeros_like(x), (x >= 0.0).astype(float), 0.0)


def test_reps_failed_counts_the_failing_single_sample_pipelines():
    spec = DgpSpec("design1", 60, seed=5)
    failing = sum(isinstance(single_pipeline(draw_sample(spec, r), "fuzzy"), RdbwError) for r in range(150))
    assert failing > 0
    assert run_monte_carlo(spec, "mmse_f", 150).reps_failed == failing


def test_summaries_do_not_depend_on_jobs():
    # 150 replications of n = 300 fill two whole blocks and part of a third
    spec = DgpSpec("design2", 300, seed=9)
    assert simlab._block_reps(spec.n) < 150 < 3 * simlab._block_reps(spec.n)
    for reps in (1, 7, 150):
        serial = run_monte_carlo(spec, "mmse_f", reps)
        for jobs in (2, 3):
            assert run_monte_carlo(spec, "mmse_f", reps, jobs=jobs) == serial
