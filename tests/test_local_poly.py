import numpy as np
import pytest

from rdbw import local_poly
from rdbw.errors import SingularDesign
from rdbw.kernels import FAMILIES, KernelSpec, eval_kernel
from rdbw.local_poly import BoundaryFit, Sample, estimate_level, fit_boundary


def make_sample(x, y, d=None, c=0.0):
    x = np.asarray(x, dtype=float)
    if d is None:
        d = (x >= c).astype(float)
    return Sample(x=x, y=np.asarray(y, dtype=float), d=np.asarray(d, dtype=float), c=c)


def weighed_rows(s, side, h, kernel=KernelSpec()):
    """The rows of one sample that `window_pieces` gives positive weight, in order."""
    [(group, tiles)] = local_poly.slice_tiles(1, s.n, s.n)
    pieces = local_poly.window_pieces(s.as_stack(), side, np.array([float(h)]), group, tiles, kernel)
    return np.concatenate([np.empty(0, dtype=np.intp)] + [rows[w > 0.0] for rows, _, w in pieces])


class TestSampleValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Sample(x=np.zeros(3), y=np.zeros(2), d=np.zeros(3), c=0.0)

    def test_three_dimensional_arrays_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional, or \\(R, n\\) stacks"):
            Sample(x=np.zeros((2, 2, 3)), y=np.zeros((2, 2, 3)), d=np.zeros((2, 2, 3)), c=0.0)

    def test_non_binary_d(self):
        with pytest.raises(ValueError):
            make_sample([-1.0, 1.0], [0.0, 1.0], d=[0.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            make_sample([-1.0, np.nan], [0.0, 1.0])

    def test_one_sided_rejected(self):
        with pytest.raises(ValueError):
            make_sample([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            Sample(x=np.array([0.5]), y=np.array([1.0]), d=np.array([1.0]), c=0.0)

    def test_arrays_read_only(self):
        s = make_sample([-0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            s.x[0] = 9.9

    def test_tie_at_cutoff_goes_plus(self):
        s = make_sample([-0.5, 0.0, 0.5], [0.0, 1.0, 2.0])
        assert s.side_mask("plus").tolist() == [False, True, True]
        assert s.side_mask("minus").tolist() == [True, False, False]

    def test_bad_side_name(self):
        s = make_sample([-0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            s.side_mask("left")
        with pytest.raises(ValueError):
            s.as_stack().side_values("left", np.nan)

    def test_side_values_is_the_masked_gather(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(size=500), [0.25, 0.25]])
        s = make_sample(x, np.zeros_like(x), c=0.25)
        for side in ("plus", "minus"):
            values, _, _ = s.as_stack().side_values(side, np.nan)
            np.testing.assert_array_equal(values[0], x[s.side_mask(side)])


class TestFitBoundary:
    def test_recovers_polynomials_below_order(self):
        # degree <= fit order means zero smoothing bias: exact recovery
        rng = np.random.default_rng(3)
        for _ in range(25):
            order = int(rng.integers(1, 5))
            degree = int(rng.integers(0, order + 1))
            coef = rng.uniform(-2.0, 2.0, degree + 1)
            n = 40
            xs = rng.uniform(0.0, 1.0, n)
            ys = np.polynomial.polynomial.polyval(xs, coef)
            x = np.concatenate([xs, [-0.3, -0.7]])
            y = np.concatenate([ys, [0.0, 0.0]])
            s = make_sample(x, y)
            fit = fit_boundary(s, "plus", h=2.0, order=order)
            expected = np.zeros(order + 1)
            expected[: degree + 1] = coef
            np.testing.assert_allclose(fit.coefficients[:, 0], expected, atol=1e-8)

    def test_weight_locality(self):
        # observations at |x - c| >= h carry zero weight and no influence
        x = np.array([-0.9, -0.5, -0.1, 0.1, 0.3, 0.5, 0.9])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        s1 = make_sample(x, y)
        y2 = y.copy()
        y2[-1] = 1e6
        s2 = make_sample(x, y2)
        f1 = fit_boundary(s1, "plus", h=0.6, order=1)
        f2 = fit_boundary(s2, "plus", h=0.6, order=1)
        np.testing.assert_array_equal(f1.coefficients, f2.coefficients)
        assert f1.effective_n == 3

    def test_matches_unweighted_polyfit_under_uniform_kernel(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 1.0, 60)
        ys = np.sin(3.0 * xs) + rng.normal(0.0, 0.1, 60)
        x = np.concatenate([xs, [-0.5, -0.6]])
        y = np.concatenate([ys, [0.0, 0.0]])
        s = make_sample(x, y)
        fit = fit_boundary(s, "plus", h=5.0, order=2, kernel=KernelSpec("uniform"))
        ref = np.polynomial.polynomial.polyfit(xs, ys, 2)
        np.testing.assert_allclose(fit.coefficients[:, 0], ref, atol=1e-9)

    def test_five_point_fixture(self):
        # hand-checkable line y = 1 + 2x on the plus side
        x = np.array([0.0, 0.1, 0.2, 0.3, 0.4, -0.5])
        y = 1.0 + 2.0 * x
        s = make_sample(x, y)
        fit = fit_boundary(s, "plus", h=1.0, order=1)
        np.testing.assert_allclose(fit.coefficients, [[1.0, 1.0], [2.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(fit.value, [1.0, 1.0], atol=1e-12)
        np.testing.assert_array_equal(estimate_level(s, "plus", 1.0), fit.value)

    def test_singular_when_too_few_distinct_points(self):
        # order distinct values, each repeated: one short of order + 1
        for order in (1, 2, 3, 4):
            xs = np.repeat(np.linspace(0.1, 0.5, order), 3)
            x = np.concatenate([xs, [-0.5, -0.6]])
            s = make_sample(x, np.ones_like(x))
            with pytest.raises(SingularDesign, match="distinct"):
                fit_boundary(s, "plus", h=1.0, order=order)

    def test_narrow_bandwidth_excludes_support(self):
        # only one support point inside h: order-1 fit must fail loudly
        x = np.array([0.01, 0.5, 0.6, -0.5])
        y = np.array([1.0, 2.0, 3.0, 0.0])
        s = make_sample(x, y)
        with pytest.raises(SingularDesign):
            fit_boundary(s, "plus", h=0.1, order=1)

    def test_invalid_h_and_order(self):
        s = make_sample([-0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            fit_boundary(s, "plus", h=0.0)
        with pytest.raises(ValueError):
            fit_boundary(s, "plus", h=1.0, order=0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_h_is_an_argument_error(self, h):
        # nan passes a plain `h <= 0` check and used to surface as a SingularDesign
        s = make_sample([-0.5, -0.2, 0.1, 0.2, 0.5], [0.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            fit_boundary(s, "plus", h=h)

    def test_fit_on_treatment_response(self):
        x = np.array([-0.4, -0.2, 0.1, 0.2, 0.3])
        d = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        s = make_sample(x, x, d=d)
        fit = fit_boundary(s, "plus", h=1.0, order=1)
        assert fit.value[1] == pytest.approx(1.0, abs=1e-12)

    def test_result_type(self):
        s = make_sample([-0.5, 0.1, 0.2, 0.3], [0.0, 1.0, 2.0, 3.0])
        fit = fit_boundary(s, "plus", h=1.0, order=1)
        assert isinstance(fit, BoundaryFit)
        assert fit.coefficients.shape == (2, 2)
        assert fit.value.shape == (2,)
        assert fit.h == 1.0


class TestWindow:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_are_exactly_the_positive_weight_points(self, family):
        # points on and one ulp either side of |x - c| = h, where rounding
        # in (x - c)/h decides the weight, plus a spread of interior points
        kernel = KernelSpec(family)
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = float(rng.choice([0.0, rng.uniform(-5.0, 5.0), rng.uniform(-1e6, 1e6)]))
            h = float(10.0 ** rng.uniform(-6.0, 3.0))
            edges = np.array([c + h, c - h])
            x = np.concatenate(
                [
                    edges,
                    np.nextafter(edges, np.inf),
                    np.nextafter(edges, -np.inf),
                    c + h * rng.uniform(-1.5, 1.5, 40),
                    [c, c + 2.0 * h, c - 2.0 * h],
                ]
            )
            s = make_sample(x, rng.normal(size=x.size), d=rng.integers(0, 2, x.size), c=c)
            w = eval_kernel(kernel, (x - c) / h)
            for side in ("plus", "minus"):
                want = np.flatnonzero(s.side_mask(side) & (w > 0.0))
                fit = fit_boundary(s, side, h, order=1, kernel=kernel)
                np.testing.assert_array_equal(weighed_rows(s, side, h, kernel), want)
                assert fit.effective_n == want.size


class TestJointResponses:
    def test_matches_weighted_normal_equations(self):
        # the weighted normal-equation solve on the positive-weight rows is
        # an independent reference for both columns, every order and kernel
        rng = np.random.default_rng(23)
        for order in (1, 2, 4):
            for family in FAMILIES:
                x = 2.0 * rng.beta(2.0, 4.0, 3000) - 1.0
                d = (rng.uniform(size=x.size) < np.where(x >= 0, 0.8, 0.3)).astype(float)
                y = np.sin(4.0 * x) + 0.7 * d + rng.normal(0.0, 0.2, x.size)
                s = make_sample(x, y, d=d)
                kernel = KernelSpec(family)
                w = eval_kernel(kernel, x / 0.4)
                for side in ("plus", "minus"):
                    fit = fit_boundary(s, side, 0.4, order=order, kernel=kernel)
                    rows = np.flatnonzero(s.side_mask(side) & (w > 0.0))
                    np.testing.assert_array_equal(weighed_rows(s, side, 0.4, kernel), rows)
                    assert fit.effective_n == rows.size
                    design = np.vander(x[rows], order + 1, increasing=True)
                    gram = design.T @ (w[rows, None] * design)
                    rhs = design.T @ (w[rows, None] * np.column_stack([y, d])[rows])
                    ref = np.linalg.solve(gram, rhs)
                    assert fit.coefficients.shape == (order + 1, 2)
                    np.testing.assert_allclose(fit.coefficients, ref, rtol=1e-9, atol=1e-10)
                    np.testing.assert_array_equal(fit.value, fit.coefficients[0])

    def test_blocked_accumulation_matches_one_weighted_solve(self):
        # 150k rows in the window: the triangular factor is built over
        # several blocks; the weighted normal-equation solve is the reference
        rng = np.random.default_rng(29)
        x = rng.uniform(-1.0, 1.0, 400_000)
        d = (rng.uniform(size=x.size) < 0.5).astype(float)
        y = np.exp(x) + d + rng.normal(0.0, 0.1, x.size)
        s = make_sample(x, y, d=d)
        fit = fit_boundary(s, "plus", 0.75, order=3)
        rows = np.flatnonzero(s.side_mask("plus") & (eval_kernel(KernelSpec(), x / 0.75) > 0.0))
        xs = x[rows]
        assert xs.size > 140_000 and fit.effective_n == xs.size
        w = eval_kernel(KernelSpec(), xs / 0.75)
        design = np.vander(xs, 4, increasing=True)
        gram = design.T @ (w[:, None] * design)
        ref = np.linalg.solve(gram, design.T @ (w[:, None] * np.column_stack([y, d])[rows]))
        np.testing.assert_allclose(fit.coefficients, ref, rtol=1e-9, atol=1e-10)


def _side_window(m, rng):
    """m interior points on each side of c = 0 for h = 1, plus points past h."""
    inner = (np.arange(m) + rng.uniform(0.05, 0.95, m)) / m
    return np.concatenate([inner, -inner, [1.5, 2.0, -1.5, -2.0]])


class TestChunkedQR:
    # window sizes around the 1024-row chunk and the 65,536-row block
    SIZES = (1023, 1024, 1025, 2048, 3 * 1024 + 17, 65_537, 65_536 + 1024 + 5)

    @pytest.mark.parametrize("m", SIZES)
    def test_matches_least_squares_reference(self, m, monkeypatch):
        # smooth responses keep the least-squares problem well conditioned;
        # numpy's SVD least squares on a [-1, 1]-mapped basis is the
        # reference (the weighted normal equations lose ~cond^2 * eps at
        # order 4, about 1e-9, too coarse for this tolerance)
        rng = np.random.default_rng(m)
        x = _side_window(m, rng)
        d = (np.abs(x) < 0.4).astype(float)
        y = np.exp(x) + 0.5 * d
        s = make_sample(x, y, d=d)
        fits = {}
        for order in (1, 4):
            for family in FAMILIES:
                kernel = KernelSpec(family)
                w = eval_kernel(kernel, x)
                for side in ("plus", "minus"):
                    fit = fit_boundary(s, side, 1.0, order=order, kernel=kernel)
                    rows = np.flatnonzero(s.side_mask(side) & (w > 0.0))
                    assert rows.size == m == fit.effective_n
                    np.testing.assert_array_equal(weighed_rows(s, side, 1.0, kernel), rows)
                    lstsq = np.polynomial.Polynomial.fit
                    sw = np.sqrt(w[rows])
                    ref = np.column_stack(
                        [lstsq(x[rows], col[rows], order, w=sw).convert().coef for col in (y, d)]
                    )
                    np.testing.assert_allclose(fit.coefficients, ref, rtol=1e-12, atol=1e-12)
                    fits[order, family, side] = fit.coefficients
        # one QR per block, without chunks, gives the same coefficients
        monkeypatch.setattr(local_poly, "_CHUNK_ROWS", 1 << 30)
        for (order, family, side), coef in fits.items():
            whole = fit_boundary(s, side, 1.0, order=order, kernel=KernelSpec(family))
            np.testing.assert_allclose(coef, whole.coefficients, rtol=1e-12, atol=1e-13)

    def test_rank_deficient_window_of_several_chunks(self):
        # 3000 rows on two distinct x: order 2 needs three
        x = np.concatenate([np.repeat([0.2, 0.6], 1500), [-0.5, -0.6]])
        s = make_sample(x, np.sin(x))
        with pytest.raises(
            SingularDesign, match="2 distinct x values with positive weight; order 2 needs 3"
        ):
            fit_boundary(s, "plus", 1.0, order=2)

    @pytest.mark.parametrize("delta, ok", [(1e-9, True), (1e-10, False)])
    def test_rank_floor_holds_through_the_chunks(self, delta, ok):
        # two x values delta apart give R a singular-value ratio of about
        # 0.4 delta: 4e-10 fits, 4e-11 falls below the 1e-10 floor.  A
        # Gram-matrix shortcut resolves ratios only down to sqrt(eps).
        x = np.concatenate([np.full(1500, 0.5), np.full(1500, 0.5 + delta), [-0.5, -0.6]])
        s = make_sample(x, x)
        kernel = KernelSpec("uniform")
        if ok:
            assert fit_boundary(s, "plus", 1.0, order=1, kernel=kernel).effective_n == 3000
        else:
            with pytest.raises(SingularDesign, match="weighted design is rank-deficient"):
                fit_boundary(s, "plus", 1.0, order=1, kernel=kernel)
