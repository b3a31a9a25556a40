import math

import numpy as np
import pytest

from rdbw.errors import (
    AssumptionViolated,
    DegenerateObjective,
    DegenerateSample,
    InsufficientData,
    ZeroCurvature,
)
from rdbw.kernels import KernelSpec, compute_moments
from rdbw.local_poly import Sample
from rdbw.pilot import PilotEstimates
from rdbw.selector import (
    AmseCoefficients,
    BandwidthPair,
    afo_bandwidths,
    compute_coefficients,
    default_bounds,
    minimize_mmse,
    mmse_objective,
    select_bandwidths,
)
from rdbw.simlab import DgpSpec, draw_sample

TRI = compute_moments(KernelSpec("triangular"))


def coeffs(**kw):
    base = dict(
        phi_plus=1.0,
        phi_minus=-1.0,
        psi_plus=0.0,
        psi_minus=0.0,
        omega_plus=1.0,
        omega_minus=1.0,
        v=4.8,
        f=1.0,
        tauD=1.0,
        n=500,
    )
    base.update(kw)
    return AmseCoefficients(**base)


def pilots(**kw):
    base = dict(
        f=1.0,
        f1=0.0,
        m2Y_plus=0.0,
        m2Y_minus=0.0,
        m3Y_plus=0.0,
        m3Y_minus=0.0,
        m2D_plus=0.0,
        m2D_minus=0.0,
        m3D_plus=0.0,
        m3D_minus=0.0,
        sig2Y_plus=1.0,
        sig2Y_minus=1.0,
        sig2D_plus=0.0,
        sig2D_minus=0.0,
        sigYD_plus=0.0,
        sigYD_minus=0.0,
        tauD=1.0,
        tau=0.0,
    )
    base.update(kw)
    return PilotEstimates(**base)


class TestAmseCoefficients:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            coeffs(omega_plus=-0.1)
        with pytest.raises(ValueError):
            coeffs(f=0.0)
        with pytest.raises(ValueError):
            coeffs(v=-1.0)
        with pytest.raises(ValueError):
            coeffs(n=1)

    def test_bandwidth_pair_invariants(self):
        with pytest.raises(ValueError):
            BandwidthPair(h_plus=0.0, h_minus=1.0, regime="same_sign", objective_value=0.0)
        with pytest.raises(ValueError):
            BandwidthPair(h_plus=1.0, h_minus=1.0, regime="clamped", objective_value=0.0)


class TestComputeCoefficients:
    def test_vanishing_treatment_terms_match_sharp(self):
        p = pilots(m2Y_plus=2.0, m2Y_minus=-1.0, m3Y_plus=3.0, m3Y_minus=1.0, f1=0.5, tau=0.3)
        fuzzy = compute_coefficients(p, TRI, "fuzzy", n=500)
        sharp = compute_coefficients(p, TRI, "sharp", n=500)
        for name in ("phi_plus", "phi_minus", "psi_plus", "psi_minus", "omega_plus", "omega_minus"):
            assert getattr(fuzzy, name) == pytest.approx(getattr(sharp, name), abs=1e-14)
        assert sharp.tauD == 1.0

    def test_phi_from_curvature(self):
        p = pilots(m2Y_plus=2.0)
        c = compute_coefficients(p, TRI, "fuzzy", n=500)
        assert c.phi_plus == pytest.approx(-0.1, abs=1e-12)

    def test_psi_sign_convention(self):
        # s_+ = -1 against xi1 = -0.1 makes the plus-side term positive
        p = pilots(m3Y_plus=6.0)
        c = compute_coefficients(p, TRI, "fuzzy", n=500)
        assert c.psi_plus == pytest.approx(0.1, abs=1e-12)

    def test_omega_clamped_at_zero(self):
        p = pilots(sig2Y_plus=0.01, sig2D_plus=1.0, sigYD_plus=0.1, tau=0.1)
        c = compute_coefficients(p, TRI, "fuzzy", n=500)
        # raw combination 0.01 + 0.01 - 0.02 = 0 up to rounding; force negative
        p2 = pilots(sig2Y_plus=0.0, sig2D_plus=0.0, sigYD_plus=0.0, tau=0.1)
        c2 = compute_coefficients(p2, TRI, "fuzzy", n=500)
        assert c.omega_plus >= 0.0
        assert c2.omega_plus == 0.0

    def test_fuzzy_combines_through_tau(self):
        p = pilots(m2Y_plus=3.0, m2D_plus=2.0, tau=0.5)
        c = compute_coefficients(p, TRI, "fuzzy", n=500)
        assert c.phi_plus == pytest.approx(TRI.c1 * (3.0 - 0.5 * 2.0), abs=1e-14)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            compute_coefficients(pilots(), TRI, "mixed", n=500)

    def test_n_recorded(self):
        c = compute_coefficients(pilots(), TRI, "fuzzy", n=777)
        assert c.n == 777


class TestMmseObjective:
    def test_variance_only_value(self):
        c = coeffs(phi_plus=0.0, phi_minus=0.0, n=100)
        assert mmse_objective(1.0, 1.0, c) == pytest.approx(0.096, abs=1e-12)

    def test_common_curvature_cancels_at_equal_bandwidths(self):
        c = coeffs(phi_plus=1.0, phi_minus=1.0)
        for h in (0.1, 0.5, 2.0):
            bias_free = mmse_objective(h, h, coeffs(phi_plus=0.0, phi_minus=0.0))
            assert mmse_objective(h, h, c) == pytest.approx(bias_free, rel=1e-12)

    def test_divergence_in_h(self):
        c = coeffs(psi_plus=1.0)
        values = [mmse_objective(h, 1.0, c) for h in (1.0, 10.0, 100.0)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 1e10

    def test_positive_h_required(self):
        with pytest.raises(ValueError):
            mmse_objective(0.0, 1.0, coeffs())

    def test_tauD_does_not_rescale_objective(self):
        a = mmse_objective(0.3, 0.4, coeffs(tauD=1.0))
        b = mmse_objective(0.3, 0.4, coeffs(tauD=0.25))
        assert a == b


class TestMinimizeMmse:
    def test_symmetric_opposite_sign_example(self):
        c = coeffs()
        pair = minimize_mmse(c, ((0.01, 3.0), (0.01, 3.0)))
        target = 0.9028804514474342 * 500.0 ** (-0.2)
        assert abs(pair.h_plus / target - 1.0) < 0.01
        assert abs(pair.h_minus / target - 1.0) < 0.01
        assert pair.regime == "opposite_sign"

    def test_symmetric_same_sign_equal_bandwidths(self):
        c = coeffs(phi_plus=1.0, phi_minus=1.0, psi_plus=1.0, psi_minus=-1.0)
        pair = minimize_mmse(c, ((0.01, 3.0), (0.01, 3.0)))
        assert abs(pair.h_plus / pair.h_minus - 1.0) < 0.02
        assert pair.regime == "same_sign"

    def test_degenerate_objective(self):
        with pytest.raises(DegenerateObjective):
            minimize_mmse(coeffs(omega_plus=0.0, omega_minus=0.0), ((0.1, 1.0), (0.1, 1.0)))

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            minimize_mmse(coeffs(), ((0.5, 0.1), (0.1, 0.5)))
        with pytest.raises(ValueError):
            minimize_mmse(coeffs(), ((0.0, 0.5), (0.1, 0.5)))

    def test_never_worse_than_any_grid_node(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = coeffs(
                phi_plus=rng.uniform(-3, 3),
                phi_minus=rng.uniform(-3, 3),
                psi_plus=rng.uniform(-3, 3),
                psi_minus=rng.uniform(-3, 3),
                omega_plus=rng.uniform(0.1, 2),
                omega_minus=rng.uniform(0.1, 2),
                f=rng.uniform(0.3, 1.5),
            )
            bounds = ((0.02, 2.0), (0.02, 2.0))
            pair = minimize_mmse(c, bounds)
            hp = np.geomspace(*bounds[0], 60)
            hm = np.geomspace(*bounds[1], 60)
            node_best = min(mmse_objective(a, b, c) for a in hp for b in hm)
            assert pair.objective_value <= node_best + 1e-15
            assert bounds[0][0] <= pair.h_plus <= bounds[0][1]
            assert bounds[1][0] <= pair.h_minus <= bounds[1][1]
            assert pair.objective_value == pytest.approx(
                mmse_objective(pair.h_plus, pair.h_minus, c), rel=1e-12
            )

    def test_boundary_clamp_reported(self):
        # optimum of the symmetric case sits near 0.26; a box far below
        # forces a clamp at the upper edge
        pair = minimize_mmse(coeffs(), ((0.001, 0.01), (0.001, 0.01)))
        assert pair.regime == "boundary_clamped"
        assert pair.h_plus == pytest.approx(0.01, rel=1e-6)

    def test_scale_equivariance_in_n(self):
        # multiplying omega by k equals replacing n by n/k
        c1 = coeffs(omega_plus=4.0, omega_minus=4.0, n=1000)
        c2 = coeffs(omega_plus=1.0, omega_minus=1.0, n=250)
        for hp, hm in ((0.1, 0.2), (0.5, 0.4), (1.0, 1.0)):
            assert mmse_objective(hp, hm, c1) == pytest.approx(
                mmse_objective(hp, hm, c2), rel=1e-14
            )
        b = ((0.01, 3.0), (0.01, 3.0))
        p1 = minimize_mmse(c1, b)
        p2 = minimize_mmse(c2, b)
        assert p1.h_plus == pytest.approx(p2.h_plus, rel=1e-9)
        assert p1.h_minus == pytest.approx(p2.h_minus, rel=1e-9)


class TestAfoBandwidths:
    def test_symmetric_opposite_ratio_one(self):
        pair = afo_bandwidths(coeffs())
        assert pair.h_minus == pytest.approx(pair.h_plus, rel=1e-12)
        assert pair.regime == "opposite_sign"
        assert pair.h_plus == pytest.approx(0.9028804514474342 * 500.0 ** (-0.2), rel=1e-12)

    def test_same_sign_ratio_one(self):
        pair = afo_bandwidths(coeffs(phi_plus=1.0, phi_minus=1.0, psi_plus=1.0, psi_minus=-1.0))
        assert pair.h_minus == pytest.approx(pair.h_plus, rel=1e-12)
        assert pair.regime == "same_sign"

    def test_same_sign_theta_example(self):
        pair = afo_bandwidths(
            coeffs(phi_plus=1.0, phi_minus=1.0, psi_plus=1.0, psi_minus=-1.0, n=500)
        )
        theta = (9.6 / 24.0) ** (1.0 / 7.0)
        assert theta == pytest.approx(0.8773, abs=5e-5)
        assert pair.h_plus == pytest.approx(theta * 500.0 ** (-1.0 / 7.0), rel=1e-12)

    def test_zero_curvature(self):
        with pytest.raises(ZeroCurvature):
            afo_bandwidths(coeffs(phi_plus=0.0))

    def test_opposite_signs_need_variance_on_both_sides(self):
        with pytest.raises(DegenerateObjective, match="positive variance on both sides"):
            afo_bandwidths(coeffs(omega_plus=0.0))
        with pytest.raises(DegenerateObjective, match="positive variance on both sides"):
            afo_bandwidths(coeffs(omega_minus=0.0))

    def test_same_signs_need_some_variance(self):
        with pytest.raises(DegenerateObjective, match="both variance numerators are zero"):
            afo_bandwidths(coeffs(phi_minus=1.0, psi_plus=1.0, psi_minus=-1.0, omega_plus=0.0, omega_minus=0.0))

    def test_assumption_violated_on_cancelling_psi(self):
        with pytest.raises(AssumptionViolated):
            afo_bandwidths(coeffs(phi_plus=1.0, phi_minus=1.0, psi_plus=1.0, psi_minus=1.0))

    def test_opposite_sign_rate(self):
        # n -> 32 n halves both bandwidths
        a = afo_bandwidths(coeffs(n=500))
        b = afo_bandwidths(coeffs(n=16000))
        assert b.h_plus == pytest.approx(a.h_plus / 2.0, rel=1e-12)
        assert b.h_minus == pytest.approx(a.h_minus / 2.0, rel=1e-12)

    def test_same_sign_rate(self):
        # n -> 128 n halves both bandwidths
        base = dict(phi_plus=2.0, phi_minus=0.5, psi_plus=1.0, psi_minus=-0.3)
        a = afo_bandwidths(coeffs(n=500, **base))
        b = afo_bandwidths(coeffs(n=64000, **base))
        assert b.h_plus == pytest.approx(a.h_plus / 2.0, rel=1e-12)
        assert b.h_minus == pytest.approx(a.h_minus / 2.0, rel=1e-12)

    def test_oracle_agreement_with_minimizer(self):
        # with no second-order bias and opposite curvature the numeric
        # minimizer must land on the closed form
        rng = np.random.default_rng(17)
        for _ in range(10):
            sign = rng.choice([-1.0, 1.0])
            c = coeffs(
                phi_plus=sign * rng.uniform(0.2, 4.0),
                phi_minus=-sign * rng.uniform(0.2, 4.0),
                omega_plus=rng.uniform(0.3, 2.0),
                omega_minus=rng.uniform(0.3, 2.0),
                f=rng.uniform(0.3, 1.2),
                n=int(rng.integers(200, 5000)),
            )
            a = afo_bandwidths(c)
            m = minimize_mmse(c, ((a.h_plus / 30, a.h_plus * 30), (a.h_minus / 30, a.h_minus * 30)))
            assert abs(m.h_plus / a.h_plus - 1.0) < 0.01
            assert abs(m.h_minus / a.h_minus - 1.0) < 0.01


class TestSelectBandwidths:
    def test_design2_pipeline(self):
        s = draw_sample(DgpSpec(design="design2", n=500, seed=42), 0)
        res = select_bandwidths(s, KernelSpec("triangular"), "fuzzy")
        (lo_p, hi_p), (lo_m, hi_m) = default_bounds(s)
        pair = res.bandwidths
        assert lo_p <= pair.h_plus <= hi_p
        assert lo_m <= pair.h_minus <= hi_m
        assert res.coefficients.n == s.n
        assert res.pilots.tauD == pytest.approx(0.8, abs=0.25)

    def test_sharp_mode_close_to_fuzzy_on_design2(self):
        # treatment terms barely move the design2 criterion
        s = draw_sample(DgpSpec(design="design2", n=500, seed=42), 0)
        f = select_bandwidths(s, KernelSpec(), "fuzzy").bandwidths
        sh = select_bandwidths(s, KernelSpec(), "sharp").bandwidths
        assert abs(sh.h_plus / f.h_plus - 1.0) < 0.25
        assert abs(sh.h_minus / f.h_minus - 1.0) < 0.25

    def test_deterministic(self):
        s = draw_sample(DgpSpec(design="design1", n=500, seed=5), 0)
        r1 = select_bandwidths(s)
        r2 = select_bandwidths(s)
        assert r1.bandwidths == r2.bandwidths

    def test_default_bounds_structure(self):
        s = draw_sample(DgpSpec(design="design1", n=500, seed=5), 0)
        (lo_p, hi_p), (lo_m, hi_m) = default_bounds(s)
        xp = s.x[s.x >= 0]
        xm = s.x[s.x < 0]
        assert lo_p == pytest.approx(np.sort(np.unique(np.abs(xp)))[2])
        assert hi_p == pytest.approx(np.ptp(xp))
        assert lo_m == pytest.approx(np.sort(np.unique(np.abs(xm)))[2])
        assert hi_m == pytest.approx(np.ptp(xm))

    def test_default_bounds_of_a_long_sample(self):
        # 150,000 rows on a grid of 2001 points: ties across row tiles, and
        # sorted, tiles that hold no row of one side
        rng = np.random.default_rng(8)
        x = np.round(rng.uniform(-1.0, 1.0, 150_000), 3)
        for xs in (x, np.sort(x)):
            s = Sample(x=xs, y=np.zeros_like(xs), d=(xs >= 0).astype(float), c=0.0)
            xp, xm = xs[xs >= 0], xs[xs < 0]
            want = (
                (np.unique(np.abs(xp))[2], xp.max() - xp.min()),
                (np.unique(np.abs(xm))[2], xm.max() - xm.min()),
            )
            assert default_bounds(s) == want

    def test_default_bounds_counts_distinct_distances(self):
        # ties count once: three distinct distances on each side
        x = np.array([0.0, 0.0, 0.1, 0.1, 0.3, 0.5, -0.2, -0.2, -0.4, -0.6, -0.6, -0.9])
        s = Sample(x=x, y=np.zeros_like(x), d=(x >= 0).astype(float), c=0.0)
        (lo_p, hi_p), (lo_m, hi_m) = default_bounds(s)
        assert (lo_p, hi_p) == (0.3, 0.5)
        assert (lo_m, hi_m) == (0.6, pytest.approx(0.7))

    def test_default_bounds_errors(self):
        # two distinct distances on the plus side, however many ties
        x = np.array([0.1, 0.1, 0.2, 0.2, -0.1, -0.2, -0.3, -0.5])
        s = Sample(x=x, y=np.zeros_like(x), d=(x >= 0).astype(float), c=0.0)
        with pytest.raises(InsufficientData):
            default_bounds(s)
        # the 3rd distance equals the plus side's range: an empty box
        x = np.array([0.0, 0.1, 0.2, -0.1, -0.2, -0.3, -0.5])
        s = Sample(x=x, y=np.zeros_like(x), d=(x >= 0).astype(float), c=0.0)
        with pytest.raises(DegenerateSample):
            default_bounds(s)
