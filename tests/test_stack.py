"""Stacks of samples: every slice of a stacked call gives the result, or
raises the error, of the same call on that slice alone."""

import dataclasses

import numpy as np
import pytest

from rdbw import selector, simlab
from rdbw.errors import DegenerateSample, InsufficientData, RdbwError, SingularDesign, WeakDiscontinuity, merge
from rdbw.estimator import frd_estimate
from rdbw.kernels import KernelSpec, compute_moments, eval_kernel
from rdbw.local_poly import Sample, estimate_level, fit_boundary
from rdbw.pilot import (
    PilotEstimates,
    assemble_pilots,
    estimate_density,
    estimate_derivatives,
    estimate_tauD,
    estimate_variances,
)
from rdbw.selector import (
    BandwidthPair,
    compute_coefficients,
    default_bounds,
    minimize_mmse,
    select_bandwidths,
)
from rdbw.simlab import DgpSpec, draw_sample, run_monte_carlo


def positive_weight_rows(sample, side, h, kernel=KernelSpec()):
    """The rows a fit weighs, from numpy alone: side_mask & (K((x - c)/h) > 0),
    as indices for one sample, and for a stack as flat indices, left-aligned
    per slice and padded with -1."""
    x = np.atleast_2d(sample.x)
    h = np.broadcast_to(np.asarray(h, dtype=float), (len(x),))[:, None]
    mask = np.atleast_2d(sample.side_mask(side)) & (eval_kernel(kernel, (x - sample.c) / h) > 0.0)
    counts = np.count_nonzero(mask, axis=1)
    rows = np.full((len(x), counts.max()), -1)
    rows[np.arange(rows.shape[1]) < counts[:, None]] = np.flatnonzero(mask)
    return rows if sample.stacked else rows[0]


def single_pipeline(sample, mode):
    try:
        sel = select_bandwidths(sample, mode=mode)
        return sel, frd_estimate(sample, sel.bandwidths.h_plus, sel.bandwidths.h_minus)
    except RdbwError as e:
        return e


def stacked_pipeline(stack, mode):
    sel, errors = select_bandwidths(stack, mode=mode)
    est, later = frd_estimate(stack, sel.bandwidths.h_plus, sel.bandwidths.h_minus)
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
        pair, got = want[0].bandwidths, sel.bandwidths
        assert got.regime[r] == pair.regime
        for a, b in ((got.h_plus[r], pair.h_plus), (got.h_minus[r], pair.h_minus), (est.tau[r], want[1].tau)):
            assert a == b
        assert (est.n_plus[r], est.n_minus[r]) == (want[1].n_plus, want[1].n_minus)
    assert InsufficientData in failures and len(failures) >= 2
    assert failures & {SingularDesign, WeakDiscontinuity}


def slice_of(result, r):
    return {name: values[r] for name, values in vars(result).items()}


@pytest.mark.parametrize("design, n, mode, residual", [
    ("design1", 500, "fuzzy", 0),
    ("design1", 500, "sharp", 0),
    ("design2", 500, "fuzzy", 0),
    ("design2", 500, "sharp", 0),
    # LAPACK's QR of a window padded with zero rows can round a last bit
    # differently from the unpadded QR (README, Determinism): on OpenBLAS
    # 0.3.31 (Haswell), replication 1's 257-row jump-pilot window, padded to 302
    ("design2", 3000, "fuzzy", 1),
])
def test_every_slice_of_a_monte_carlo_block_equals_its_single_sample_calls(design, n, mode, residual):
    # the first whole block of a simulate cell, as run_monte_carlo stacks it
    spec = DgpSpec(design, n, seed=42)
    reps = range(simlab._block_reps(n))
    sel, est, errors = stacked_pipeline(draw_sample(spec, reps), mode)
    differing = 0
    for r in reps:
        want = single_pipeline(draw_sample(spec, r), mode)
        if isinstance(want, RdbwError):
            assert_same_error(errors[r], want)
            continue
        assert errors[r] is None
        single, single_est = want
        got = [slice_of(sel.pilots, r), slice_of(sel.coefficients, r), slice_of(sel.bandwidths, r), slice_of(est, r)]
        alone = [vars(single.pilots), vars(single.coefficients), vars(single.bandwidths), vars(single_est)]
        if got != alone:
            differing += 1
            assert got == [{k: pytest.approx(v, rel=1e-13) for k, v in fields.items()} for fields in alone]
    assert differing <= residual


@pytest.mark.parametrize("design, mode", [("design1", "fuzzy"), ("design2", "sharp")])
def test_a_slice_longer_than_one_tile_equals_itself_alone(design, mode):
    # 70,000 rows: two row tiles, the second partial, and whole-side
    # quartic windows of several fit blocks
    spec = DgpSpec(design, 70_000, seed=3)
    stack = draw_sample(spec, range(2))
    sel, est, errors = stacked_pipeline(stack, mode)
    assert errors == [None, None]
    for r in range(2):
        sample = draw_sample(spec, r)
        assert all(np.array_equal(getattr(stack, a)[r], getattr(sample, a)) for a in "xyd")
        single, single_est = single_pipeline(sample, mode)
        got = [slice_of(sel.pilots, r), slice_of(sel.coefficients, r), slice_of(sel.bandwidths, r), slice_of(est, r)]
        assert got == [vars(single.pilots), vars(single.coefficients), vars(single.bandwidths), vars(single_est)]


@pytest.mark.parametrize("design", ["design1", "design2"])
@pytest.mark.parametrize("seed", [42, 5, 9])
def test_a_fit_in_a_stack_equals_its_fit_alone(design, seed):
    # windows of 144 to 3628 rows: a group has chunks past the last chunk of its narrower slices
    spec = DgpSpec(design, 5000, seed=seed)
    stack = draw_sample(spec, range(13))
    samples = [draw_sample(spec, r) for r in range(13)]
    rng = np.random.default_rng(seed)
    for side in ("plus", "minus"):
        for _ in range(4):
            h = rng.uniform(0.05, 0.8, 13)
            fit, errors = fit_boundary(stack, side, h)
            assert errors == [None] * 13
            for r, sample in enumerate(samples):
                alone = fit_boundary(sample, side, h[r])
                assert np.array_equal(fit.coefficients[r], alone.coefficients)
                assert fit.effective_n[r] == alone.effective_n


def test_a_single_sample_is_a_stack_of_one():
    spec = DgpSpec("design2", 500, seed=3)
    sample = draw_sample(spec, 1)
    one = draw_sample(spec, range(1, 2))
    sel, errors = select_bandwidths(one)
    assert errors == [None]
    pair = BandwidthPair(**{k: v[0].item() for k, v in vars(sel.bandwidths).items()})
    assert pair == select_bandwidths(sample).bandwidths
    assert PilotEstimates(**{k: float(v[0]) for k, v in vars(sel.pilots).items()}) == assemble_pilots(sample)
    bounds, _ = default_bounds(one)
    assert tuple((float(lo[0]), float(hi[0])) for lo, hi in bounds) == default_bounds(sample)


# every function taking a Sample, with the arguments after the sample
ENTRY_POINTS = [
    (fit_boundary, ("plus", 0.3)),
    (estimate_level, ("plus", 0.3)),
    (estimate_density, ()),
    (estimate_derivatives, ("plus",)),
    (estimate_variances, ("plus",)),
    (estimate_tauD, ()),
    (assemble_pilots, ()),
    (default_bounds, ()),
    (select_bandwidths, ()),
    (frd_estimate, (0.3, 0.4)),
]


def assert_is_slice_0(single, stacked):
    """single is slice 0 of a stacked result, with numpy scalars as Python ones."""
    if isinstance(stacked, np.ndarray):
        want = stacked[0]
        if isinstance(want, np.generic):
            assert type(single) is type(want.item()) and type(single) in (float, int, str)
            assert single == want
        elif isinstance(want, np.ndarray):
            assert isinstance(single, np.ndarray)
            np.testing.assert_array_equal(single, want)
        else:
            assert single == want
    elif isinstance(stacked, tuple):
        assert type(single) is tuple and len(single) == len(stacked)
        for a, b in zip(single, stacked):
            assert_is_slice_0(a, b)
    elif dataclasses.is_dataclass(stacked):
        assert type(single) is type(stacked)
        for field in dataclasses.fields(stacked):
            assert_is_slice_0(getattr(single, field.name), getattr(stacked, field.name))
    else:
        assert single == stacked


@pytest.mark.parametrize("fn, args", ENTRY_POINTS, ids=[fn.__name__ for fn, _ in ENTRY_POINTS])
def test_a_single_sample_call_is_slice_0_of_the_stack_of_one(fn, args):
    sample = draw_sample(DgpSpec("design2", 500, seed=3), 1)
    result, errors = fn(sample.as_stack(), *args)
    assert errors == [None]
    assert_is_slice_0(fn(sample, *args), result)


@pytest.mark.parametrize("fn, args", ENTRY_POINTS, ids=[fn.__name__ for fn, _ in ENTRY_POINTS])
def test_a_single_sample_call_raises_the_error_of_its_slice(fn, args):
    # eight observations, one of them on the plus side: every entry point fails
    x = np.append(np.linspace(-0.9, -0.1, 7), 0.2)
    sample = Sample(x, np.sin(x), (x >= 0.0).astype(float), 0.0)
    _, errors = fn(sample.as_stack(), *args)
    assert isinstance(errors[0], RdbwError)
    with pytest.raises(RdbwError) as single:
        fn(sample, *args)
    assert_same_error(single.value, errors[0])


MOMENTS = compute_moments(KernelSpec())


def test_a_selector_stage_on_one_sample_is_slice_0_of_the_stack_of_one():
    # compute_coefficients and minimize_mmse take a dataclass of per-slice values
    sample = draw_sample(DgpSpec("design2", 500, seed=3), 1)
    one = sample.as_stack()
    pilots, _ = assemble_pilots(one)
    coeffs, errors = compute_coefficients(pilots, MOMENTS, n=sample.n)
    assert errors == [None]
    single = compute_coefficients(assemble_pilots(sample), MOMENTS, n=sample.n)
    assert_is_slice_0(single, coeffs)
    pair, errors = minimize_mmse(coeffs, default_bounds(one)[0])
    assert errors == [None]
    assert_is_slice_0(minimize_mmse(single, default_bounds(sample)), pair)


def test_a_selector_stage_on_one_sample_raises_the_error_of_its_slice():
    sample = draw_sample(DgpSpec("design2", 500, seed=3), 1)
    pilots = assemble_pilots(sample)
    coeffs = compute_coefficients(pilots, MOMENTS, n=sample.n)
    bounds = default_bounds(sample)
    cases = (
        (lambda first: compute_coefficients(first, MOMENTS, n=sample.n), dataclasses.replace(pilots, f=0.0)),
        (lambda first: minimize_mmse(first, bounds), dataclasses.replace(coeffs, omega_plus=0.0, omega_minus=0.0)),
    )
    for call, first in cases:
        _, errors = call(dataclasses.replace(first, **{k: np.array([v]) for k, v in vars(first).items()}))
        assert errors[0] is not None
        with pytest.raises(type(errors[0])) as single:
            call(first)
        assert_same_error(single.value, errors[0])


def test_a_stage_ignores_floating_point_errors_and_restores_the_callers_state():
    # x in units of 1e200: the stages compute through inf and NaN, which
    # the caller's "raise" would turn into FloatingPointError
    sample = draw_sample(DgpSpec("design1", 500, seed=42), 0)
    far = Sample(1e200 * sample.x, sample.y, sample.d, 0.0)
    with np.errstate(all="raise"):
        _, errors = select_bandwidths(far.as_stack())
        assert [type(e) for e in errors] == [DegenerateSample]
        assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
        with pytest.raises(DegenerateSample):
            select_bandwidths(far)
        assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
    # a function that takes no sample keeps numpy's default state
    coeffs = select_bandwidths(sample).coefficients
    with pytest.warns(RuntimeWarning, match="overflow"):
        selector.mmse_objective(np.float64(1e200), np.float64(1e200), coeffs)


def test_a_bad_mode_raises_on_a_stack():
    stack = draw_sample(DgpSpec("design1", 500, seed=1), range(3))
    with pytest.raises(ValueError, match="mode must be 'fuzzy' or 'sharp'"):
        select_bandwidths(stack, mode="bogus")


def test_a_stack_minimizes_in_one_call(monkeypatch):
    calls = []
    minimize = selector.minimize_mmse

    def counted(coeffs, bounds):
        calls.append(len(coeffs.f))
        return minimize(coeffs, bounds)

    monkeypatch.setattr(selector, "minimize_mmse", counted)
    sel, errors = select_bandwidths(draw_sample(DgpSpec("design1", 500, seed=1), range(64)))
    assert calls == [64] and errors == [None] * 64


def test_a_bad_bandwidth_fails_its_slice_only():
    spec = DgpSpec("design1", 300, seed=2)
    samples = [draw_sample(spec, r) for r in range(3)]
    stack, h = draw_sample(spec, range(3)), np.array([0.3, np.nan, 0.4])
    fit, errors = fit_boundary(stack, "plus", h)
    assert errors[0] is None and errors[2] is None
    with pytest.raises(ValueError) as single:
        fit_boundary(samples[1], "plus", np.nan)
    assert_same_error(errors[1], single.value)
    # the failed slice is weighed with the fit's placeholder bandwidth 1
    rows = positive_weight_rows(stack, "plus", np.where(np.isnan(h), 1.0, h))
    for r in (0, 2):
        want = fit_boundary(samples[r], "plus", h[r])
        np.testing.assert_allclose(fit.coefficients[r], want.coefficients, rtol=1e-12, atol=1e-14)
        assert fit.effective_n[r] == want.effective_n
        got = rows[r, : fit.effective_n[r]] - r * samples[r].n
        np.testing.assert_array_equal(got, positive_weight_rows(samples[r], "plus", h[r]))
    # the failed slice keeps the window of the placeholder bandwidth 1, in the fit as in its rows
    np.testing.assert_array_equal(np.count_nonzero(rows >= 0, axis=1), fit.effective_n)
    assert fit.effective_n[1] == positive_weight_rows(samples[1], "plus", 1.0).size


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
    # two whole blocks of n = 300 and 42 replications of a third
    spec = DgpSpec("design2", 300, seed=9)
    partial = 2 * simlab._block_reps(spec.n) + 42
    assert 2 * simlab._block_reps(spec.n) < partial < 3 * simlab._block_reps(spec.n)
    for reps in (1, 7, partial):
        serial = run_monte_carlo(spec, "mmse_f", reps)
        for jobs in (2, 3):
            assert run_monte_carlo(spec, "mmse_f", reps, jobs=jobs) == serial


@pytest.mark.parametrize("design, method", [("design1", "mmse_f"), ("design2", "mmse_s")])
def test_summaries_do_not_depend_on_the_block_size(design, method, monkeypatch):
    spec = DgpSpec(design, 500, seed=42)
    summaries = []
    for values in (1 << 16, 1 << 13, 1 << 9):  # blocks of 131, 16 and 1 replications
        monkeypatch.setattr(simlab, "_BLOCK_VALUES", values)
        summaries.append(run_monte_carlo(spec, method, 300))
    assert summaries[0] == summaries[1] == summaries[2]
