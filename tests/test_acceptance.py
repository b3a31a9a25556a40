"""End-to-end acceptance gate.

One test per criterion; `pytest -v` therefore emits one pass/fail line
per criterion.  Each test also prints an explicit verdict line for
captured-output readers.  The Monte Carlo criteria share one module-
scoped set of 1000-replication runs (n = 500, triangular kernel).
"""

import json
import math
import os

import numpy as np
import pytest

from rdbw.cli import main, parse_args
from rdbw.kernels import FAMILIES, KernelSpec, compute_moments
from rdbw.local_poly import Sample, fit_boundary
from rdbw.selector import AmseCoefficients, afo_bandwidths, minimize_mmse, mmse_objective
from rdbw.simlab import DgpSpec, mean_outcome, run_monte_carlo, treatment_prob

# one-sided normal CDF limit at the cutoff, frozen from the erf closed form
JUMP_ORACLE = 0.7994548640911159


@pytest.fixture(scope="module")
def benchmark_runs():
    jobs = os.cpu_count() or 1
    jobs = jobs if jobs > 1 else None
    runs = {}
    for design in ("design1", "design2"):
        for method in ("mmse_f", "mmse_s"):
            spec = DgpSpec(design=design, n=500, seed=42)
            runs[design, method] = run_monte_carlo(spec, method, 1000, jobs=jobs)
    return runs


def test_criterion_1_kernel_constants():
    m = compute_moments(KernelSpec("triangular"))
    for j in range(5):
        assert abs(m.mu[j] - 1.0 / ((j + 1) * (j + 2))) < 1e-10
    for j in range(3):
        assert abs(m.nu[j] - 2.0 / ((j + 1) * (j + 2) * (j + 3))) < 1e-10
    for got, want in zip((m.c1, m.v, m.xi1, m.xi2), (-0.05, 4.8, -0.1, -0.08)):
        assert abs(got - want) < 1e-10
    print("CRITERION 1 kernel constants: PASS")


def test_criterion_2_llr_exactness():
    rng = np.random.default_rng(2024)
    for case in range(200):
        order = int(rng.integers(1, 5))
        degree = int(rng.integers(0, order + 1))
        coef = rng.uniform(-2.0, 2.0, degree + 1)
        c = float(rng.uniform(-1.0, 1.0))
        h = float(rng.uniform(0.5, 3.0))
        side = "plus" if case % 2 == 0 else "minus"
        sign = 1.0 if side == "plus" else -1.0
        u = sign * rng.uniform(0.01, 0.95 * h, 30)
        x = np.concatenate([c + u, [c - sign * 0.5, c - sign * 0.25]])
        y = np.polynomial.polynomial.polyval(x - c, coef)
        d = (x >= c).astype(float)
        s = Sample(x=x, y=y, d=d, c=c)
        fit = fit_boundary(s, side, h, order=order, kernel=KernelSpec(rng.choice(FAMILIES)))
        expected = np.zeros(order + 1)
        expected[: degree + 1] = coef
        np.testing.assert_allclose(fit.coefficients[:, 0], expected, atol=1e-8)
        # d is constant on the fitted side: level 1 or 0, zero slope
        expected_d = np.zeros(order + 1)
        expected_d[0] = 1.0 if side == "plus" else 0.0
        np.testing.assert_allclose(fit.coefficients[:, 1], expected_d, atol=1e-8)
    print("CRITERION 2 boundary-fit exactness on 200 random polynomials: PASS")


def test_criterion_3_afo_mmse_equivalence():
    rng = np.random.default_rng(515)

    # opposite curvature, no second-order bias: numeric minimizer vs closed form
    for _ in range(100):
        sign = float(rng.choice([-1.0, 1.0]))
        c = AmseCoefficients(
            phi_plus=sign * rng.uniform(0.2, 4.0),
            phi_minus=-sign * rng.uniform(0.2, 4.0),
            psi_plus=0.0,
            psi_minus=0.0,
            omega_plus=rng.uniform(0.3, 2.0),
            omega_minus=rng.uniform(0.3, 2.0),
            v=4.8,
            f=rng.uniform(0.3, 1.2),
            tauD=1.0,
            n=int(rng.integers(200, 5000)),
        )
        a = afo_bandwidths(c)
        assert a.regime == "opposite_sign"
        m = minimize_mmse(
            c, ((a.h_plus / 30.0, a.h_plus * 30.0), (a.h_minus / 30.0, a.h_minus * 30.0))
        )
        assert abs(m.h_plus / a.h_plus - 1.0) <= 0.01
        assert abs(m.h_minus / a.h_minus - 1.0) <= 0.01

    # shared curvature sign: closed form vs constrained grid on the
    # second-order criterion along h_minus = lambda** h_plus
    for _ in range(100):
        sign = float(rng.choice([-1.0, 1.0]))
        phi_p = sign * rng.uniform(0.2, 4.0)
        phi_m = sign * rng.uniform(0.2, 4.0)
        lam = math.sqrt(phi_p / phi_m)
        while True:
            psi_p = rng.uniform(-3.0, 3.0)
            psi_m = rng.uniform(-3.0, 3.0)
            if abs(psi_p - lam**3 * psi_m) > 0.1:
                break
        c = AmseCoefficients(
            phi_plus=phi_p,
            phi_minus=phi_m,
            psi_plus=psi_p,
            psi_minus=psi_m,
            omega_plus=rng.uniform(0.3, 2.0),
            omega_minus=rng.uniform(0.3, 2.0),
            v=4.8,
            f=rng.uniform(0.3, 1.2),
            tauD=1.0,
            n=int(rng.integers(200, 5000)),
        )
        a = afo_bandwidths(c)
        assert a.regime == "same_sign"
        assert a.h_minus / a.h_plus == pytest.approx(lam, rel=1e-12)
        hp = np.geomspace(a.h_plus / 30.0, a.h_plus * 30.0, 40001)
        hm = lam * hp
        amse2 = (c.psi_plus * hp**3 - c.psi_minus * hm**3) ** 2 + (
            c.v / (c.n * c.f)
        ) * (c.omega_plus / hp + c.omega_minus / hm)
        h_star = hp[int(np.argmin(amse2))]
        assert abs(h_star / a.h_plus - 1.0) <= 0.01
    print("CRITERION 3 closed-form vs numeric optimizer equivalence: PASS")


def test_criterion_4_rate_checks():
    opp = dict(
        phi_plus=1.3, phi_minus=-0.4, psi_plus=0.7, psi_minus=0.2,
        omega_plus=0.8, omega_minus=1.1, v=4.8, f=0.6, tauD=1.0,
    )
    a = afo_bandwidths(AmseCoefficients(n=500, **opp))
    b = afo_bandwidths(AmseCoefficients(n=500 * 32, **opp))
    assert a.regime == "opposite_sign"
    assert b.h_plus == pytest.approx(a.h_plus / 2.0, rel=1e-12)
    assert b.h_minus == pytest.approx(a.h_minus / 2.0, rel=1e-12)

    same = dict(
        phi_plus=2.0, phi_minus=0.5, psi_plus=1.0, psi_minus=-0.3,
        omega_plus=0.8, omega_minus=1.1, v=4.8, f=0.6, tauD=1.0,
    )
    a = afo_bandwidths(AmseCoefficients(n=500, **same))
    b = afo_bandwidths(AmseCoefficients(n=500 * 128, **same))
    assert a.regime == "same_sign"
    assert b.h_plus == pytest.approx(a.h_plus / 2.0, rel=1e-12)
    assert b.h_minus == pytest.approx(a.h_minus / 2.0, rel=1e-12)
    print("CRITERION 4 bandwidth rates n^(-1/5) and n^(-1/7): PASS")


def test_criterion_5_dgp_fidelity():
    jump = treatment_prob(0.0) - treatment_prob(-1e-300)
    assert abs(jump - JUMP_ORACLE) <= 1e-9
    assert abs(jump - math.erf(1.28 / math.sqrt(2.0))) <= 1e-9
    assert round(jump, 4) == 0.7995

    d1 = mean_outcome("design1", "treated", 0.0) - mean_outcome("design1", "control", 0.0)
    assert d1 == -4.30
    d2 = mean_outcome("design2", "treated", 0.0) - mean_outcome("design2", "control", 0.0)
    assert d2 == 0.0975 - 0.0225
    assert abs(d2 - 0.075) < 1e-15
    print("CRITERION 5 treatment-probability jump and outcome jumps: PASS")


def test_criterion_6_simulation_benchmarks(benchmark_runs):
    f2 = benchmark_runs["design2", "mmse_f"]
    s2 = benchmark_runs["design2", "mmse_s"]
    f1 = benchmark_runs["design1", "mmse_f"]
    s1 = benchmark_runs["design1", "mmse_s"]

    assert 0.057 <= f2.rmse_trimmed <= 0.090
    assert abs(f2.bias_trimmed) <= 0.02
    assert abs(f2.h_plus_mean - 0.226) <= 0.06
    assert abs(f2.h_minus_mean - 0.624) <= 0.16

    gap = abs(f2.rmse_trimmed - s2.rmse_trimmed)
    assert gap <= 0.10 * max(f2.rmse_trimmed, s2.rmse_trimmed)

    assert f1.rmse_trimmed < s1.rmse_trimmed
    assert f1.rmse_trimmed / s1.rmse_trimmed <= 0.7

    for summary in (f1, f2, s1, s2):
        assert summary.reps_failed / summary.reps_total < 0.02
    print(
        "CRITERION 6 desk-scale summary reproduction: PASS "
        f"(design2 rmse {f2.rmse_trimmed:.4f}, bias {f2.bias_trimmed:+.4f}, "
        f"h+ {f2.h_plus_mean:.3f}, h- {f2.h_minus_mean:.3f}; "
        f"design1 rmse ratio {f1.rmse_trimmed / s1.rmse_trimmed:.3f})"
    )


def test_criterion_7_cdf_dominance(benchmark_runs):
    f1 = dict(benchmark_runs["design1", "mmse_f"].cdf)
    s1 = dict(benchmark_runs["design1", "mmse_s"].cdf)
    thresholds = sorted(f1)
    t10 = next(t for t in thresholds if f1[t] >= 0.10)
    checked = [t for t in thresholds if t >= t10]
    assert len(checked) > 100
    for t in checked:
        assert f1[t] >= s1[t]
    print(f"CRITERION 7 error-CDF dominance above the 10th percentile ({len(checked)} thresholds): PASS")


def test_criterion_8_full_scale_mode(tmp_path):
    # the flag accepts the full replication count ...
    cfg = parse_args(["simulate", "--design", "2", "--reps", "10000", "--seed", "1"])
    assert cfg.reps == 10000
    # ... and the same code path completes end to end (kept short here;
    # the full run is a documented command, not a CI gate)
    out_dir = tmp_path / "full"
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
            "12",
            "--seed",
            "1",
            "--out-dir",
            str(out_dir),
            "--output",
            str(summary_path),
        ]
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["reps_total"] == 12
    assert (out_dir / "cdf.csv").exists()
    assert (out_dir / "table.csv").exists()
    print("CRITERION 8 full-replication mode behind --reps: PASS")
