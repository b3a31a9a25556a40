import concurrent.futures
import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from rdbw import simlab
from rdbw.errors import AllTrimmed, ValidationError
from rdbw.estimator import frd_estimate
from rdbw.kernels import KernelSpec
from rdbw.selector import select_bandwidths
from rdbw.simlab import (
    DgpSpec,
    McSummary,
    TRUE_TAU,
    draw_sample,
    mean_outcome,
    run_monte_carlo,
    treatment_prob,
    trimmed_stats,
)

# one-sided limits of the participation probability at the cutoff
PHI_128 = 0.5 * (1.0 + math.erf(1.28 / math.sqrt(2.0)))
# replications per Monte Carlo block at n = 500
BLOCK_500 = simlab._block_reps(500)


class TestTreatmentProb:
    def test_right_limit(self):
        assert treatment_prob(0.0) == pytest.approx(PHI_128, abs=1e-12)
        assert treatment_prob(0.0) == pytest.approx(0.89973, abs=5e-6)

    def test_left_limit(self):
        assert treatment_prob(-1e-12) == pytest.approx(1.0 - PHI_128, abs=1e-9)
        assert treatment_prob(-0.0) == pytest.approx(PHI_128, abs=1e-12)

    def test_jump_size(self):
        jump = treatment_prob(0.0) - treatment_prob(-1e-300)
        assert jump == pytest.approx(2.0 * PHI_128 - 1.0, abs=1e-12)
        assert round(jump, 4) == 0.7995

    def test_limits_at_infinity(self):
        assert treatment_prob(50.0) == pytest.approx(1.0, abs=1e-12)
        assert treatment_prob(-50.0) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized(self):
        x = np.array([-0.5, 0.0, 0.5])
        p = treatment_prob(x)
        assert p.shape == (3,)
        assert np.all(np.diff(p) > 0)
        assert isinstance(treatment_prob(0.3), float)

    @pytest.mark.parametrize(
        "x, rtol, atol",
        [
            (np.linspace(-1.0, 1.0, 400_001), 4e-15, 0.0),
            # the erfc tail is sensitive to the rounding of z / sqrt(2)
            (np.linspace(-40.0, 40.0, 400_001), 1e-12, 1e-300),
        ],
    )
    def test_matches_scipy_ndtr(self, x, rtol, atol):
        want = ndtr(x + np.where(x >= 0.0, 1.28, -1.28))
        np.testing.assert_allclose(treatment_prob(x), want, rtol=rtol, atol=atol)


class TestTreatmentFilter:
    """The draws decide d by a bounded approximation and refine near ties."""

    # a dense grid of [-1, 1] with both zeros and the points next to the jump
    GRID = np.concatenate(
        [
            np.linspace(-1.0, 1.0, 200_001),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12, -1e-12],
            [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)],
        ]
    )

    def test_approximation_is_within_its_bound(self):
        gap = np.abs(simlab._approx_prob(self.GRID) - treatment_prob(self.GRID))
        assert gap.max() <= 1e-7
        # the bound leaves the refine threshold ten times the room it needs
        assert 10 * gap.max() < simlab._REFINE_GAP

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_uniforms_on_the_probability_decide_exactly(self, step):
        # uniforms on treatment_prob(x) and one float either side: the
        # approximation alone gets many of these wrong
        p = treatment_prob(self.GRID)
        uniform = p if step == 0 else np.nextafter(p, step * np.inf)
        got = simlab._treated(self.GRID, uniform)
        np.testing.assert_array_equal(got, uniform < p)
        assert got.sum() == (self.GRID.size if step < 0 else 0)

    def test_stacked_blocks_decide_exactly(self):
        rng = np.random.default_rng(2015)
        x = rng.beta(2.0, 4.0, (20, 32, 500)) * 2.0 - 1.0
        uniform = rng.uniform(size=x.shape)
        np.testing.assert_array_equal(simlab._treated(x, uniform), uniform < treatment_prob(x))


def test_import_loads_no_process_pool():
    # the pool's modules load only when a run starts workers
    code = (
        "import sys, rdbw, rdbw.cli; "
        "print(*(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the tests import do not count
    code = "import sys, rdbw, rdbw.cli; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


class TestMeanOutcome:
    def test_design1_intercepts(self):
        assert mean_outcome("design1", "treated", 0.0) == -0.17
        assert mean_outcome("design1", "control", 0.0) == 4.13

    def test_design2_jump(self):
        jump = mean_outcome("design2", "treated", 0.0) - mean_outcome("design2", "control", 0.0)
        assert jump == 0.0975 - 0.0225
        assert abs(jump - 0.075) < 1e-15

    def test_design1_polynomial_values(self):
        # hand-evaluated at x = 0.5 and x = -0.5
        plus = 18.49 * 0.5 - 54.8 * 0.25 + 74.3 * 0.125 - 45.02 * 0.0625 + 9.83 * 0.03125
        assert mean_outcome("design1", "treated", 0.5) == pytest.approx(-0.17 + plus, rel=1e-12)
        minus = -2.99 * 0.5 + 3.28 * 0.25 - 1.45 * 0.125 + 0.22 * 0.0625 - 0.03 * 0.03125
        assert mean_outcome("design1", "control", -0.5) == pytest.approx(4.13 + minus, rel=1e-12)

    def test_arms_share_slopes(self):
        x = np.linspace(-1.0, 1.0, 41)
        gap = mean_outcome("design2", "treated", x) - mean_outcome("design2", "control", x)
        np.testing.assert_allclose(gap, np.full_like(x, 0.075), atol=1e-12)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            mean_outcome("design1", "treated", 1.5)
        for x in (math.nan, np.array([0.5, math.nan]), -math.inf):
            with pytest.raises(ValueError, match=r"x must lie in \[-1, 1\]"):
                mean_outcome("design1", "treated", x)
        with pytest.raises(ValueError):
            mean_outcome("design3", "treated", 0.0)
        with pytest.raises(ValueError):
            mean_outcome("design1", "placebo", 0.0)


class TestDgpSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(design="design9", n=500)
        with pytest.raises(ValueError):
            DgpSpec(design="design1", n=49)
        with pytest.raises(ValueError):
            DgpSpec(design="design1", n=500, error_sd=0.0)
        for error_sd in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="error_sd must be positive and finite"):
                DgpSpec(design="design1", n=500, error_sd=error_sd)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            DgpSpec(design="design1", n=500, seed=-1)


class TestDrawSample:
    def test_assignment_mean(self):
        s = draw_sample(DgpSpec(design="design1", n=1_000_000, seed=0), 0)
        assert abs(np.mean(s.x) - (-1.0 / 3.0)) < 0.003

    def test_participation_near_cutoff(self):
        s = draw_sample(DgpSpec(design="design1", n=1_000_000, seed=1), 0)
        window = (s.x >= 0.0) & (s.x <= 0.01)
        assert window.sum() > 2000
        assert abs(np.mean(s.d[window]) - PHI_128) < 0.03

    def test_bit_identical_replication(self):
        spec = DgpSpec(design="design2", n=500, seed=11)
        a = draw_sample(spec, 3)
        b = draw_sample(spec, 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)

    def test_rep_index_changes_stream(self):
        spec = DgpSpec(design="design2", n=500, seed=11)
        a = draw_sample(spec, 0)
        b = draw_sample(spec, 1)
        assert not np.array_equal(a.x, b.x)

    def test_outcome_composition(self):
        # with a tiny error sd the outcome hugs the arm mean function
        spec = DgpSpec(design="design2", n=2000, seed=4, error_sd=1e-9)
        s = draw_sample(spec, 0)
        mu = np.where(
            s.d == 1.0,
            mean_outcome("design2", "treated", s.x),
            mean_outcome("design2", "control", s.x),
        )
        np.testing.assert_allclose(s.y, mu, atol=1e-7)

    def test_overflow_is_a_typed_error(self):
        # no bound on error_sd is natural, but draws that overflow are not a sample
        with pytest.raises(ValidationError, match="finite"):
            draw_sample(DgpSpec(design="design1", n=60, error_sd=1e308), 0)
        with pytest.raises(ValidationError, match="finite"):
            draw_sample(DgpSpec(design="design1", n=60, error_sd=1e308), range(3))

    @pytest.mark.parametrize(
        "design, n, reps",
        [
            ("design1", 500, range(0, BLOCK_500)),  # a whole block
            ("design2", 500, range(1000 - 1000 % BLOCK_500, 1000)),  # the partial last block of 1000
            ("design1", 20_000, range(3, 4)),  # one replication a block
            ("design1", 70_000, range(0, 2)),  # replications of two row tiles
        ],
    )
    def test_a_range_stacks_the_single_draws(self, design, n, reps):
        spec = DgpSpec(design=design, n=n, seed=11)
        stack = draw_sample(spec, reps)
        assert stack.stacked and stack.x.shape == (len(reps), n)
        for k, rep in enumerate(reps):
            one = draw_sample(spec, rep)
            assert np.array_equal(stack.x[k], one.x)
            assert np.array_equal(stack.y[k], one.y)
            assert np.array_equal(stack.d[k], one.d)


    # SHA-256 of the little-endian float64 bytes of x, then y, then d, at
    # the default error_sd; the whole draw path, generator streams included
    DIGESTS = {
        ("design1", 0, 500): "a3846135579ff2f79d4fd3af82e4992ee31d64bd57c58831520b3e4f9197e250",
        ("design1", 0, 20_000): "aeeb94385f9de8a13020430eda70919333835979621d2ed8ddf2f44cd5601ff0",
        ("design1", 7, 500): "d3289c96fd00df1efadb1c2b973f8da14c7dcaf9faa3b861834ee17fcf064338",
        ("design1", 7, 20_000): "a77cf1e6db435f1d938e677476a4e84fa32510fad89c88b56567a634fbd4f520",
        ("design2", 0, 500): "837a7c59109693f5d46d8e50f4fe6ed1a7558a26e8db907edfb33de26623cd3f",
        ("design2", 0, 20_000): "2083ce558f0500917572479272a1ba5b79b33ae94074bf545801bb084df1f245",
        ("design2", 7, 500): "40b1d45d47266448cf23566d7d6c8adceea3695c9f0f8c85eb91c72658fcb45f",
        ("design2", 7, 20_000): "01df1fe56b3a52f6c33423acd1792410a45508b19cc9803b5ccf16b159a594e4",
    }

    @pytest.mark.parametrize("design, seed, n", sorted(DIGESTS))
    def test_draw_bytes_are_pinned(self, design, seed, n):
        # n = 500 draws a stack of 32, n = 20000 replication 0 alone
        reps = range(32) if n == 500 else 0
        s = draw_sample(DgpSpec(design=design, n=n, seed=seed), reps)
        h = hashlib.sha256()
        for a in (s.x, s.y, s.d):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == self.DIGESTS[design, seed, n]

    @pytest.mark.parametrize("reps", [range(0), range(5, 5), range(3, 1)])
    def test_an_empty_range_names_rep_index(self, reps):
        with pytest.raises(ValueError, match="rep_index must hold at least one replication"):
            draw_sample(DgpSpec(design="design1", n=60), reps)


class TestTrimmedStats:
    def test_outlier_removed(self):
        bias, rmse = trimmed_stats(np.array([0.0, 0.0, 0.0, 0.0, 100.0]), 0.2)
        assert bias == 0.0
        assert rmse == 0.0

    def test_no_trim(self):
        bias, rmse = trimmed_stats(np.array([1.0, 1.0, 1.0, 1.0]), 0.0)
        assert bias == 1.0
        assert rmse == 1.0

    def test_hand_computed_case(self):
        bias, rmse = trimmed_stats(np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 50.0]), 1.0 / 6.0)
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert rmse == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_all_trimmed(self):
        with pytest.raises(AllTrimmed):
            trimmed_stats(np.array([1.0, 2.0]), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimmed_stats(np.array([]), 0.05)

    @pytest.mark.parametrize("fraction", [-0.01, 1.01, np.nan])
    def test_fraction_outside_the_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"trim_fraction must be in \[0, 1\]"):
            trimmed_stats(np.array([1.0, 2.0]), fraction)

    def test_ceil_rule(self):
        # 10 entries at 5% trim still drop one
        errs = np.concatenate([np.zeros(9), [7.0]])
        bias, rmse = trimmed_stats(errs, 0.05)
        assert bias == 0.0 and rmse == 0.0


class TestRunMonteCarlo:
    def test_single_rep_matches_manual_pipeline(self):
        spec = DgpSpec(design="design2", n=500, seed=42)
        summary = run_monte_carlo(spec, "mmse_f", 1)
        s = draw_sample(spec, 0)
        pair = select_bandwidths(s, KernelSpec(), "fuzzy").bandwidths
        est = frd_estimate(s, pair.h_plus, pair.h_minus)
        assert summary.h_plus_mean == pair.h_plus
        assert summary.h_minus_mean == pair.h_minus
        assert summary.h_plus_sd == 0.0
        assert summary.h_minus_sd == 0.0
        assert summary.bias_trimmed == pytest.approx(est.tau - TRUE_TAU["design2"], rel=1e-12)
        assert summary.reps_total == 1
        assert summary.reps_failed == 0

    def test_parallel_equals_serial(self):
        spec = DgpSpec(design="design1", n=500, seed=8)
        serial = run_monte_carlo(spec, "mmse_f", 6)
        parallel = run_monte_carlo(spec, "mmse_f", 6, jobs=2)
        assert serial == parallel

    def test_pool_never_exceeds_the_replications(self, monkeypatch):
        seen = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # 2 replications of n = 200 are one block: no pool at all
        spec = DgpSpec(design="design1", n=200, seed=4)
        parallel = run_monte_carlo(spec, "mmse_f", 2, jobs=6)
        assert seen == []
        assert parallel == run_monte_carlo(spec, "mmse_f", 2)
        # a block and 8 replications of n = 500 are two blocks: two workers, not four
        spec = DgpSpec(design="design1", n=500, seed=4)
        parallel = run_monte_carlo(spec, "mmse_f", BLOCK_500 + 8, jobs=4)
        assert seen == [2]
        assert parallel == run_monte_carlo(spec, "mmse_f", BLOCK_500 + 8)

    def test_summary_invariants(self):
        spec = DgpSpec(design="design2", n=500, seed=2)
        summary = run_monte_carlo(spec, "mmse_s", 40)
        assert isinstance(summary, McSummary)
        assert summary.rmse_trimmed >= abs(summary.bias_trimmed)
        fractions = [f for _, f in summary.cdf]
        thresholds = [t for t, _ in summary.cdf]
        assert len(summary.cdf) == 200
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
        assert fractions[-1] <= 1.0
        assert summary.reps_total == 40

    def test_method_validated(self):
        spec = DgpSpec(design="design2", n=500, seed=2)
        with pytest.raises(ValueError):
            run_monte_carlo(spec, "ik_f", 5)
        with pytest.raises(ValueError):
            run_monte_carlo(spec, "mmse_f", 0)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        spec = DgpSpec(design="design2", n=500, seed=2)
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_monte_carlo(spec, "mmse_f", 5, jobs=jobs)

    def test_a_slice_error_outside_the_package_is_raised(self, monkeypatch):
        # a failed replication is one that raised a module error; anything else is a bug
        def select(stack, kernel, mode):
            sel, errors = select_bandwidths(stack, kernel, mode)
            errors[1] = ValueError("not a module error")
            return sel, errors

        monkeypatch.setattr(simlab, "select_bandwidths", select)
        with pytest.raises(ValueError, match="not a module error"):
            run_monte_carlo(DgpSpec(design="design1", n=500, seed=3), "mmse_f", 3)

    def test_outcomes_in_extreme_units_fail_every_replication(self):
        # y in units of about 1e200: the draws are finite, every selection
        # fails with a module error, and none is left to summarize
        with pytest.raises(AllTrimmed, match="all 3 replications failed"):
            run_monte_carlo(DgpSpec(design="design1", n=500, error_sd=1e200), "mmse_f", 3)

    def test_failure_accounting_robustness(self):
        # at n = 500 on both designs failures must stay under 2%
        for design in ("design1", "design2"):
            spec = DgpSpec(design=design, n=500, seed=0)
            summary = run_monte_carlo(spec, "mmse_f", 100)
            assert summary.reps_failed / summary.reps_total < 0.02

    @pytest.mark.parametrize("design", ["design1", "design2"])
    def test_the_cdf_is_the_share_of_errors_at_or_below_each_threshold(self, design, monkeypatch):
        # blocks of made-up errors, many of them on a threshold or its negative
        rng = np.random.default_rng(11)
        thresholds = np.linspace(0.0, simlab._CDF_TOP[design], simlab.CDF_POINTS)
        for _ in range(60):
            reps = int(rng.integers(1, simlab._block_reps(100) + 1))
            err = rng.normal(0.0, thresholds[-1] / 2, reps)
            ties = rng.random(reps) < rng.random()
            err[ties] = rng.choice([-1.0, 1.0], ties.sum()) * rng.choice(thresholds, ties.sum())
            ones = np.ones(reps)
            monkeypatch.setattr(simlab, "_run_block", lambda *args: (ones, ones, err))
            # at n = 100 the replications are one block
            summary = run_monte_carlo(DgpSpec(design=design, n=100), "mmse_f", reps)
            want = tuple((float(t), float(np.mean(np.abs(err) <= t))) for t in thresholds)
            assert summary.cdf == want
