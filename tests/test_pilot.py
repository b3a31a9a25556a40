import numpy as np
import pytest

from rdbw.errors import InsufficientData, SingularDesign, WeakDiscontinuity
from rdbw.estimator import frd_estimate
from rdbw.kernels import FAMILIES, KernelSpec
from rdbw import pilot
from rdbw.local_poly import Sample
from rdbw.pilot import (
    PILOT_BANDWIDTH_SCALE,
    assemble_pilots,
    estimate_density,
    estimate_derivatives,
    estimate_tauD,
    estimate_variances,
)
from rdbw.selector import select_bandwidths
from rdbw.simlab import DgpSpec, draw_sample

# design-1 outcome slope polynomial on the plus side
D1_PLUS_SLOPES = (18.49, -54.8, 74.3, -45.02, 9.83)


def two_sided(x, y, d=None, c=0.0):
    x = np.asarray(x, dtype=float)
    if d is None:
        d = (x >= c).astype(float)
    return Sample(x=x, y=np.asarray(y, dtype=float), d=np.asarray(d, dtype=float), c=c)


class TestEstimateDensity:
    def test_beta_design_density_at_cutoff(self):
        # X = 2Z - 1 with Z ~ Beta(2,4) has density (5/8)(x+1)(1-x)^3
        rng = np.random.default_rng(0)
        x = 2.0 * rng.beta(2.0, 4.0, 1_000_000) - 1.0
        s = Sample(x=x, y=np.zeros_like(x), d=np.zeros_like(x), c=0.0)
        f, f1 = estimate_density(s)
        assert abs(f - 0.625) < 0.01
        assert abs(f1 - (-1.25)) < 0.1

    def test_uniform_density(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, 400_000)
        s = Sample(x=x, y=np.zeros_like(x), d=np.zeros_like(x), c=0.0)
        f, _ = estimate_density(s)
        assert abs(f - 0.5) < 0.01

    def test_a_long_sample_matches_the_formula(self):
        # sums over row tiles, in sample order and with x sorted
        s = draw_sample(DgpSpec("design1", 70_000, seed=2), 0)
        for x in (s.x, np.sort(s.x)):
            h0 = 1.06 * np.std(x) * x.size ** (-1 / 5)
            h1 = h0 * x.size ** (1 / 5 - 1 / 7)
            u0, u1 = x / h0, x / h1
            want = (
                np.mean(np.exp(-0.5 * u0 * u0)) / (np.sqrt(2.0 * np.pi) * h0),
                np.mean(u1 * np.exp(-0.5 * u1 * u1)) / (np.sqrt(2.0 * np.pi) * h1 * h1),
            )
            got = estimate_density(Sample(x=x, y=np.zeros_like(x), d=np.zeros_like(x), c=0.0))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_two_point_support_stays_finite(self):
        s = Sample(x=np.array([-1.0] * 5 + [0.0] * 5), y=np.zeros(10), d=np.zeros(10), c=0.0)
        f, f1 = estimate_density(s)
        assert np.isfinite(f) and np.isfinite(f1)

    def test_too_small_sample(self):
        s = two_sided([-0.5, 0.5], [0.0, 0.0])
        with pytest.raises(InsufficientData):
            estimate_density(s)


class TestEstimateDerivatives:
    def test_cubic_recovered_exactly(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 50), [-0.5, -0.7]])
        y = np.where(x >= 0, x**3, 0.0)
        s = two_sided(x, y)
        m2, m3 = estimate_derivatives(s, "plus")
        np.testing.assert_allclose(m2, [0.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(m3, [6.0, 0.0], atol=1e-8)

    def test_quadratic_recovered_exactly(self):
        x = np.concatenate([np.linspace(0.0, 1.0, 50), [-0.5, -0.7]])
        y = np.where(x >= 0, 4.0 * x**2, 0.0)
        s = two_sided(x, y)
        m2, m3 = estimate_derivatives(s, "plus")
        np.testing.assert_allclose(m2, [8.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(m3, [0.0, 0.0], atol=1e-8)

    def test_quintic_projection_oracle(self):
        # quartic OLS of a quintic on a dense grid approaches its
        # continuous least-squares projection; the Gram-matrix solve is
        # an independent oracle for the projected curvature values
        G = np.array([[1.0 / (i + j + 1) for j in range(5)] for i in range(5)])
        rhs = np.array(
            [sum(b / (i + k + 2) for k, b in enumerate(D1_PLUS_SLOPES)) for i in range(5)]
        )
        beta = np.linalg.solve(G, rhs)
        xg = np.linspace(1e-6, 1.0, 20001)
        yg = np.zeros_like(xg)
        for k, b in enumerate(D1_PLUS_SLOPES, start=1):
            yg += b * xg**k
        s = two_sided(np.concatenate([xg, [-0.4, -0.5]]), np.concatenate([yg, [0.0, 0.0]]))
        (m2, _), (m3, _) = estimate_derivatives(s, "plus")
        assert abs(m2 - 2.0 * beta[2]) < 1e-3 * abs(2.0 * beta[2])
        assert abs(m3 - 6.0 * beta[3]) < 1e-3 * abs(6.0 * beta[3])

    def test_matches_polyfit_on_both_sides_and_responses(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 800)
            d = (rng.uniform(size=x.size) < np.where(x >= 0, 0.7, 0.2)).astype(float)
            y = np.cos(3.0 * x) + d + rng.normal(0.0, 0.3, x.size)
            s = two_sided(x, y, d=d)
            for side, mask in (("plus", x >= 0), ("minus", x < 0)):
                ref = np.polynomial.polynomial.polyfit(x[mask], np.column_stack([y, d])[mask], 4)
                m2, m3 = estimate_derivatives(s, side)
                assert m2.shape == m3.shape == (2,)
                for col in (0, 1):  # Y, then D
                    assert m2[col] == pytest.approx(2.0 * ref[2, col], rel=1e-10, abs=1e-10)
                    assert m3[col] == pytest.approx(6.0 * ref[3, col], rel=1e-10, abs=1e-10)

    def test_needs_six_observations(self):
        s = two_sided([-0.5, 0.1, 0.2, 0.3, 0.4, 0.5], np.zeros(6))
        with pytest.raises(InsufficientData):
            estimate_derivatives(s, "plus")

    def test_needs_five_distinct_points(self):
        x = np.array([-0.5, 0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4])
        s = two_sided(x, np.zeros_like(x))
        with pytest.raises(SingularDesign):
            estimate_derivatives(s, "plus")

    def test_a_side_all_at_the_cutoff_is_singular_through_the_selector(self):
        # every plus-side x at the cutoff: the side spans nothing
        x = np.concatenate([np.zeros(8), -np.linspace(0.01, 1.0, 60)])
        y = np.random.default_rng(0).normal(size=x.size)
        with pytest.raises(SingularDesign, match="^derivative pilot needs 5 distinct x values on the plus side$"):
            select_bandwidths(two_sided(x, y))


class TestEstimateVariances:
    def test_constant_mean_noise_only(self):
        rng = np.random.default_rng(5)
        n = 100_000
        x = rng.uniform(-1.0, 1.0, n)
        y = 2.0 + rng.normal(0.0, 0.1295, n)
        d = np.ones(n)
        s = Sample(x=x, y=y, d=d, c=0.0)
        sig2y, sig2d, sigyd = estimate_variances(s, "plus")
        assert abs(sig2y - 0.01677) < 0.1 * 0.01677
        assert sig2d == 0.0
        assert sigyd == 0.0

    def test_perfect_dependence(self):
        rng = np.random.default_rng(6)
        n = 5000
        x = rng.uniform(-1.0, 1.0, n)
        d = (rng.uniform(size=n) < 0.5).astype(float)
        s = Sample(x=x, y=d.copy(), d=d, c=0.0)
        sig2y, sig2d, sigyd = estimate_variances(s, "plus")
        assert sig2y == pytest.approx(sig2d, rel=1e-10)
        assert sigyd == pytest.approx(sig2y, rel=1e-10)

    def test_independent_noise_has_zero_covariance(self):
        rng = np.random.default_rng(7)
        n = 60_000
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.normal(0.0, 1.0, n)
        d = (rng.uniform(size=n) < 0.5).astype(float)
        s = Sample(x=x, y=y, d=d, c=0.0)
        _, sig2d, sigyd = estimate_variances(s, "plus")
        # ~2000 observations carry weight; 3 standard errors is ~0.035
        assert abs(sigyd) < 0.05

    def test_cauchy_schwarz_clamp(self):
        rng = np.random.default_rng(8)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = 40
            x = np.concatenate([rng.uniform(0.0, 1.0, n), [-0.5, -0.6]])
            y = np.concatenate([rng.normal(0.0, 1.0, n), [0.0, 0.0]])
            d = (rng.uniform(size=n + 2) < 0.5).astype(float)
            s = Sample(x=x, y=y, d=d, c=0.0)
            try:
                sig2y, sig2d, sigyd = estimate_variances(s, "plus")
            except InsufficientData:
                continue
            assert abs(sigyd) <= np.sqrt(sig2y * sig2d) + 1e-12

    def test_insufficient_side(self):
        s = two_sided([-0.5, 0.1, 0.2, 0.3], np.zeros(4))
        with pytest.raises(InsufficientData):
            estimate_variances(s, "plus")

    @staticmethod
    def reference(x, y, d, c, side, family):
        # the positive-weight rows found directly, each response fitted by
        # numpy's weighted least squares, the moments over n_v - 2
        on_side = x >= c if side == "plus" else x < c
        h = PILOT_BANDWIDTH_SCALE * np.std(x[on_side]) * np.count_nonzero(on_side) ** (-1 / 5)
        u = (x - c) / h
        shape = {
            "triangular": 1.0 - np.abs(u),
            "uniform": np.full_like(u, 0.5),
            "epanechnikov": 0.75 * (1.0 - u * u),
        }
        w = np.where(on_side & (np.abs(u) <= 1.0), shape[family], 0.0)
        rows = np.flatnonzero(w > 0.0)
        xs, sw = x[rows], np.sqrt(w[rows])
        fit = np.polynomial.Polynomial.fit
        ey, ed = (col[rows] - fit(xs, col[rows], 1, w=sw)(xs) for col in (y, d))
        dof = rows.size - 2
        sig2y, sig2d, sigyd = ey @ ey / dof, ed @ ed / dof, ey @ ed / dof
        bound = np.sqrt(sig2y * sig2d)
        sigyd = float(np.clip(sigyd, -bound, bound))
        return (sig2y, 0.0, 0.0) if sig2d < 1e-12 else (sig2y, sig2d, sigyd)

    def test_moments_match_an_explicit_reference(self):
        samples = [
            draw_sample(DgpSpec(design, n, seed=4), 0)
            for design in ("design1", "design2")
            for n in (500, 5000, 150_000)  # 150,000 rows: three row tiles
        ]
        fuzzy = samples[0]
        sharp = Sample(fuzzy.x, fuzzy.y, (fuzzy.x >= fuzzy.c).astype(float), fuzzy.c)
        dependent = Sample(fuzzy.x, fuzzy.d, fuzzy.d, fuzzy.c)  # sigYD at the Cauchy-Schwarz bound
        # sorted by x: the first row tile holds no row of the plus side,
        # the last none of the minus side
        order = np.argsort(samples[2].x, kind="stable")
        ordered = Sample(samples[2].x[order], samples[2].y[order], samples[2].d[order], 0.0)
        for s in samples + [sharp, dependent, ordered]:
            for family in FAMILIES:
                for side in ("plus", "minus"):
                    got = estimate_variances(s, side, KernelSpec(family))
                    want = self.reference(s.x, s.y, s.d, s.c, side, family)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_stacked_moments_match_an_explicit_reference(self):
        # 64 slices whose windows differ in width: each is padded to the widest
        stack = draw_sample(DgpSpec("design2", 500, seed=6), range(64))
        for family in FAMILIES:
            for side in ("plus", "minus"):
                got, errors = estimate_variances(stack, side, KernelSpec(family))
                assert errors == [None] * 64
                for r in range(64):
                    want = self.reference(stack.x[r], stack.y[r], stack.d[r], stack.c, side, family)
                    np.testing.assert_allclose([v[r] for v in got], want, rtol=1e-12, atol=0.0)


class TestEstimateTauD:
    def test_sharp_design(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.0, 1.0, 400)
        d = (x >= 0).astype(float)
        s = Sample(x=x, y=2.0 * d - x, d=d, c=0.0)
        tau_y, tau_d = estimate_tauD(s)
        assert tau_y == pytest.approx(2.0, abs=1e-10)
        assert tau_d == pytest.approx(1.0, abs=1e-10)

    def test_design_jump_large_sample(self):
        s = draw_sample(DgpSpec(design="design2", n=100_000, seed=0), 0)
        _, tau_d = estimate_tauD(s)
        assert abs(tau_d - 0.7995) < 0.01

    @pytest.mark.parametrize("design", ["design1", "design2"])
    def test_pair_is_the_estimate_at_the_pilot_bandwidth(self, design):
        # both jumps come from the two level fits frd_estimate makes at
        # the rule-of-thumb bandwidth 1.84 sd(x) n^(-1/5) on both sides
        for seed in range(5):
            s = draw_sample(DgpSpec(design=design, n=500, seed=seed), 0)
            h = 1.84 * float(np.std(s.x)) * s.n ** (-1 / 5)
            est = frd_estimate(s, h, h)
            assert estimate_tauD(s) == (est.tauY, est.tauD)

    def test_constant_d_is_weak(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1.0, 1.0, 200)
        s = Sample(x=x, y=np.zeros_like(x), d=np.ones_like(x), c=0.0)
        with pytest.raises(WeakDiscontinuity):
            estimate_tauD(s)


class TestAssemblePilots:
    def test_sharp_linear_outcomes(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 1.0, 2000)
        d = (x >= 0).astype(float)
        y = np.where(x >= 0, 1.5 + 0.5 * x, 0.25 - 0.5 * x)
        s = Sample(x=x, y=y, d=d, c=0.0)
        p = assemble_pilots(s)
        assert p.tauD == pytest.approx(1.0, abs=1e-10)
        assert p.tau == pytest.approx(1.25, abs=1e-8)

    def test_design2_pilot_ratio(self):
        # fixed-seed spot check of the pilot ratio at a large sample
        s = draw_sample(DgpSpec(design="design2", n=100_000, seed=0), 0)
        p = assemble_pilots(s)
        assert abs(p.tau - 0.075) < 0.01

    def test_design2_pilot_ratio_across_seeds(self):
        # the n^(-1/5) pilot bandwidth leaves a small positive bias at
        # this sample size, so individual seeds can exceed the spot
        # tolerance; the seed average must stay within a wider band
        taus = []
        for seed in range(5):
            s = draw_sample(DgpSpec(design="design2", n=100_000, seed=seed), 0)
            taus.append(assemble_pilots(s).tau)
        assert abs(np.mean(taus) - 0.075) < 0.015

    def test_design1_pilot_ratio(self):
        s = draw_sample(DgpSpec(design="design1", n=100_000, seed=0), 0)
        p = assemble_pilots(s)
        assert abs(p.tau - (-4.30)) < 0.1

    def test_pilot_consistency_in_n(self):
        # median pilot-ratio error over 20 seeds shrinks as n grows
        medians = []
        for n in (1_000, 10_000, 100_000):
            errs = []
            for seed in range(20):
                s = draw_sample(DgpSpec(design="design2", n=n, seed=seed), 0)
                errs.append(abs(assemble_pilots(s).tau - 0.075))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_determinism(self):
        s = draw_sample(DgpSpec(design="design1", n=500, seed=3), 0)
        p1 = assemble_pilots(s)
        p2 = assemble_pilots(s)
        assert p1 == p2

    def test_invariants_on_design_draws(self):
        for seed in range(10):
            s = draw_sample(DgpSpec(design="design2", n=500, seed=seed), 0)
            p = assemble_pilots(s)
            assert p.f > 0
            assert p.sig2Y_plus >= 0 and p.sig2Y_minus >= 0
            assert p.sig2D_plus >= 0 and p.sig2D_minus >= 0
            assert abs(p.sigYD_plus) <= np.sqrt(p.sig2Y_plus * p.sig2D_plus) + 1e-12
            assert abs(p.sigYD_minus) <= np.sqrt(p.sig2Y_minus * p.sig2D_minus) + 1e-12
            assert abs(p.tauD) >= 0.05

    def test_the_density_and_jump_pilots_share_one_pass_for_sd_x(self, monkeypatch):
        # both use sd(x) over all rows; on one stack it is computed once
        passes = []
        spread = pilot._spread
        monkeypatch.setattr(pilot, "_spread", lambda s, side=None: passes.append(side) or spread(s, side))
        stack = draw_sample(DgpSpec(design="design1", n=500, seed=3), range(4))
        _, errors = assemble_pilots(stack)
        assert passes.count(None) == 1 and errors == [None] * 4
