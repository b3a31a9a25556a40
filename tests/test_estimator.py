import numpy as np
import pytest

from rdbw.errors import DenominatorNearZero
from rdbw.estimator import FrdEstimate, frd_estimate
from rdbw.kernels import KernelSpec
from rdbw.local_poly import Sample
from rdbw.simlab import DgpSpec, draw_sample


def sharp_step_sample():
    # y = 1 + x above the cutoff, y = x below; d is the sharp indicator
    x = np.array([-0.5, -0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.5])
    y = np.where(x >= 0, 1.0 + x, x)
    d = (x >= 0).astype(float)
    return Sample(x=x, y=y, d=d, c=0.0)


class TestFrdEstimate:
    def test_unit_jump_sharp(self):
        est = frd_estimate(sharp_step_sample(), 1.0, 1.0)
        assert est.tau == pytest.approx(1.0, abs=1e-10)
        assert est.tauD == pytest.approx(1.0, abs=1e-10)

    def test_zero_numerator(self):
        # continuous linear outcome, binary d with an exact fitted jump
        # of 0.8: the d pattern on the plus side is balanced against x
        xp = np.array([0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10])
        dp = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        xm = -xp
        dm = np.zeros_like(xm)
        x = np.concatenate([xm, xp])
        d = np.concatenate([dm, dp])
        y = 3.0 * x
        s = Sample(x=x, y=y, d=d, c=0.0)
        est = frd_estimate(s, 1.0, 1.0, KernelSpec("uniform"))
        assert est.tauD == pytest.approx(0.8, abs=1e-12)
        assert est.tauY == pytest.approx(0.0, abs=1e-12)
        assert est.tau == pytest.approx(0.0, abs=1e-12)

    def test_ratio_identity(self):
        for seed in range(10):
            s = draw_sample(DgpSpec(design="design1", n=500, seed=seed), 0)
            est = frd_estimate(s, 0.2, 0.3)
            assert est.tau * est.tauD == pytest.approx(est.tauY, rel=1e-12)

    def test_relabeling_treatment_flips_denominator(self):
        s = draw_sample(DgpSpec(design="design2", n=500, seed=1), 0)
        flipped = Sample(x=s.x, y=s.y, d=1.0 - s.d, c=s.c)
        a = frd_estimate(s, 0.3, 0.4)
        b = frd_estimate(flipped, 0.3, 0.4)
        assert b.tauD == pytest.approx(-a.tauD, rel=1e-12)
        assert b.tauY == pytest.approx(a.tauY, rel=1e-12)
        assert abs(b.tau) == pytest.approx(abs(a.tau), rel=1e-12)

    def test_denominator_near_zero(self):
        # identical d pattern on both sides: fitted jump is exactly zero
        xp = np.array([0.1, 0.2, 0.3, 0.4])
        x = np.concatenate([-xp, xp])
        d = np.concatenate([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
        s = Sample(x=x, y=x.copy(), d=d, c=0.0)
        with pytest.raises(DenominatorNearZero):
            frd_estimate(s, 1.0, 1.0, KernelSpec("uniform"))

    def test_effective_counts(self):
        s = sharp_step_sample()
        est = frd_estimate(s, 0.25, 0.45)
        assert est.n_plus == 2
        assert est.n_minus == 4

    def test_bandwidths_recorded(self):
        est = frd_estimate(sharp_step_sample(), 0.9, 0.8)
        assert isinstance(est, FrdEstimate)
        assert est.h_plus == 0.9
        assert est.h_minus == 0.8

    @pytest.mark.parametrize(
        "h", [0.3, np.float64(0.3), np.array(0.3), np.array([0.3])], ids=["float", "float64", "0-d", "(1,)"])
    def test_one_sample_reports_python_floats(self, h):
        s = draw_sample(DgpSpec(design="design1", n=500, seed=3), 0)
        est = frd_estimate(s, h, 0.4)
        assert type(est.h_plus) is float and type(est.h_minus) is float
        assert (est.h_plus, est.h_minus) == (0.3, 0.4)
        assert est == frd_estimate(s, 0.3, 0.4)

    @pytest.mark.parametrize(
        "h", [0.3, np.float64(0.3), np.array(0.3), np.full(3, 0.3)], ids=["float", "float64", "0-d", "(R,)"])
    def test_a_stack_reports_one_entry_per_slice_in_every_field(self, h):
        stack = draw_sample(DgpSpec(design="design1", n=500, seed=3), range(3))
        est, errors = frd_estimate(stack, h, 0.4)
        assert errors == [None] * 3
        for name, value in vars(est).items():
            assert isinstance(value, np.ndarray) and value.shape == (3,), name
        assert est.h_plus.tolist() == [0.3] * 3 and est.h_minus.tolist() == [0.4] * 3
