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

        class RecordingPool(simlab.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(simlab, "ProcessPoolExecutor", RecordingPool)
        spec = DgpSpec(design="design1", n=200, seed=4)
        parallel = run_monte_carlo(spec, "mmse_f", 2, jobs=6)
        assert seen == [2]
        assert parallel == run_monte_carlo(spec, "mmse_f", 2)

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

    def test_failure_accounting_robustness(self):
        # at n = 500 on both designs failures must stay under 2%
        for design in ("design1", "design2"):
            spec = DgpSpec(design=design, n=500, seed=0)
            summary = run_monte_carlo(spec, "mmse_f", 100)
            assert summary.reps_failed / summary.reps_total < 0.02
