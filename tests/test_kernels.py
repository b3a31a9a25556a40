import numpy as np
import pytest
from scipy import integrate

from rdbw.kernels import FAMILIES, KernelSpec, compute_moments, eval_kernel

# analytic one-sided moments: triangular mu_j = 1/((j+1)(j+2)),
# uniform mu_j = 1/(2(j+1)), epanechnikov mu_j = 1.5/((j+1)(j+3))
TRIANGULAR_CONSTANTS = (-0.05, 4.8, -0.1, -0.08)


class TestEvalKernel:
    def test_triangular_shape(self):
        u = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(
            eval_kernel(KernelSpec("triangular"), u),
            [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0],
        )

    def test_uniform_shape(self):
        u = np.array([-2.0, -1.0, 0.0, 0.3, 1.0, 2.0])
        np.testing.assert_allclose(
            eval_kernel(KernelSpec("uniform"), u),
            [0.0, 0.5, 0.5, 0.5, 0.5, 0.0],
        )

    def test_epanechnikov_shape(self):
        u = np.array([-1.0, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            eval_kernel(KernelSpec("epanechnikov"), u),
            [0.0, 0.75, 0.75 * 0.75, 0.0],
        )

    def test_scalar_input_returns_float(self):
        out = eval_kernel(KernelSpec("triangular"), 0.25)
        assert isinstance(out, float)
        assert out == 0.75

    def test_symmetry_and_nonnegativity(self):
        u = np.linspace(-2, 2, 401)
        for fam in FAMILIES:
            k = eval_kernel(KernelSpec(fam), u)
            assert np.all(k >= 0.0)
            np.testing.assert_allclose(k, k[::-1], atol=1e-15)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian")


class TestMoments:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_closed_form_matches_quadrature(self, family):
        # independent cross-check: quadrature moments at relative tolerance
        # 1e-12, pushed through the same formulas for the four constants
        spec = KernelSpec(family)
        closed = compute_moments(spec)

        def quad(p, power):
            return integrate.quad(
                lambda u: u**p * eval_kernel(spec, u) ** power, 0.0, 1.0, epsrel=1e-12
            )[0]

        mu = [quad(p, 1) for p in range(5)]
        nu = [quad(p, 2) for p in range(3)]
        np.testing.assert_allclose(closed.mu, mu, atol=1e-10)
        np.testing.assert_allclose(closed.nu, nu, atol=1e-10)
        den = mu[0] * mu[2] - mu[1] ** 2
        derived = {
            "c1": (mu[2] ** 2 - mu[1] * mu[3]) / (2.0 * den),
            "v": (mu[2] ** 2 * nu[0] - 2.0 * mu[1] * mu[2] * nu[1] + mu[1] ** 2 * nu[2]) / den**2,
            "xi1": (mu[2] * mu[3] - mu[1] * mu[4]) / den,
            "xi2": (mu[2] ** 2 - mu[1] * mu[3]) * (mu[0] * mu[3] - mu[1] * mu[2]) / den**2,
        }
        for name, value in derived.items():
            assert abs(getattr(closed, name) - value) < 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    def test_moments_match_direct_integration(self, family):
        spec = KernelSpec(family)
        m = compute_moments(spec)
        for j in range(5):
            ref, _ = integrate.quad(lambda u: u**j * eval_kernel(spec, u), 0.0, 1.0)
            assert abs(m.mu[j] - ref) < 1e-10
        for j in range(3):
            ref, _ = integrate.quad(lambda u: u**j * eval_kernel(spec, u) ** 2, 0.0, 1.0)
            assert abs(m.nu[j] - ref) < 1e-10

    def test_triangular_constants(self):
        m = compute_moments(KernelSpec("triangular"))
        c1, v, xi1, xi2 = TRIANGULAR_CONSTANTS
        assert abs(m.c1 - c1) < 1e-10
        assert abs(m.v - v) < 1e-10
        assert abs(m.xi1 - xi1) < 1e-10
        assert abs(m.xi2 - xi2) < 1e-10

    def test_uniform_c1(self):
        m = compute_moments(KernelSpec("uniform"))
        assert abs(m.c1 - (-1.0 / 12.0)) < 1e-10

    def test_triangular_mu_closed_form(self):
        m = compute_moments(KernelSpec("triangular"))
        for j in range(5):
            assert abs(m.mu[j] - 1.0 / ((j + 1) * (j + 2))) < 1e-14
        for j in range(3):
            assert abs(m.nu[j] - 2.0 / ((j + 1) * (j + 2) * (j + 3))) < 1e-14

    def test_constants_derive_from_moments(self):
        # the four constants are rational functions of the moments
        for fam in FAMILIES:
            m = compute_moments(KernelSpec(fam))
            mu = m.mu
            nu = m.nu
            den = mu[0] * mu[2] - mu[1] ** 2
            assert den > 0
            assert abs(m.c1 - (mu[2] ** 2 - mu[1] * mu[3]) / (2 * den)) < 1e-14
            assert (
                abs(m.v - (mu[2] ** 2 * nu[0] - 2 * mu[1] * mu[2] * nu[1] + mu[1] ** 2 * nu[2]) / den**2)
                < 1e-12
            )
            assert abs(m.xi1 - (mu[2] * mu[3] - mu[1] * mu[4]) / den) < 1e-13
            assert (
                abs(m.xi2 - (mu[2] ** 2 - mu[1] * mu[3]) * (mu[0] * mu[3] - mu[1] * mu[2]) / den**2)
                < 1e-13
            )
