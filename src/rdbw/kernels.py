"""Kernel functions, their one-sided moments, and derived scalar constants.

All built-in kernels are symmetric, nonnegative second-order kernels
supported on [-1, 1] and integrating to one.  The one-sided moments

    mu_j = int_0^inf u^j K(u) du,      nu_j = int_0^inf u^j K(u)^2 du

feed the scalar constants (c1, v, xi1, xi2) that enter every bandwidth
criterion downstream.
"""

from dataclasses import dataclass

import numpy as np

FAMILIES = ("triangular", "uniform", "epanechnikov")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family; support radius is fixed at 1."""

    family: str = "triangular"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {FAMILIES}"
            )


@dataclass(frozen=True)
class KernelMoments:
    """One-sided kernel moments and the scalar constants derived from them.

    Attributes
    ----------
    mu : tuple of 5 floats
        mu_0 .. mu_4.
    nu : tuple of 3 floats
        nu_0 .. nu_2.
    c1, v, xi1, xi2 : float
        Bias constant, variance constant and the two second-order bias
        constants of the boundary local linear fit.
    """

    mu: tuple
    nu: tuple
    c1: float
    v: float
    xi1: float
    xi2: float


def eval_kernel(spec: KernelSpec, u):
    """Evaluate K(u); zero outside [-1, 1].  Vectorized over `u`."""
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    if spec.family == "triangular":
        w = np.where(a <= 1.0, 1.0 - a, 0.0)
    elif spec.family == "uniform":
        w = np.where(a <= 1.0, 0.5, 0.0)
    else:  # epanechnikov
        w = np.where(a <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    if w.ndim == 0:
        return float(w)
    return w


def compute_moments(spec: KernelSpec) -> KernelMoments:
    """Compute one-sided moments and the derived constants for a kernel.

    The moments come from closed forms, exact for the built-in families.
    """
    j = np.arange(5, dtype=float)
    k = np.arange(3, dtype=float)
    if spec.family == "triangular":
        mu = 1.0 / ((j + 1) * (j + 2))
        nu = 2.0 / ((k + 1) * (k + 2) * (k + 3))
    elif spec.family == "uniform":
        mu = 1.0 / (2.0 * (j + 1))
        nu = 1.0 / (4.0 * (k + 1))
    else:  # epanechnikov
        mu = 1.5 / ((j + 1) * (j + 3))
        nu = 4.5 / ((k + 1) * (k + 3) * (k + 5))
    mu, nu = tuple(mu), tuple(nu)
    den = mu[0] * mu[2] - mu[1] ** 2
    c1 = (mu[2] ** 2 - mu[1] * mu[3]) / (2.0 * den)
    v = (mu[2] ** 2 * nu[0] - 2.0 * mu[1] * mu[2] * nu[1] + mu[1] ** 2 * nu[2]) / den**2
    xi1 = (mu[2] * mu[3] - mu[1] * mu[4]) / den
    xi2 = (mu[2] ** 2 - mu[1] * mu[3]) * (mu[0] * mu[3] - mu[1] * mu[2]) / den**2
    return KernelMoments(mu=mu, nu=nu, c1=c1, v=v, xi1=xi1, xi2=xi2)
