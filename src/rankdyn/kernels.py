"""Compactly supported smoothing kernels and their integrated forms.

Every kernel here is a symmetric probability density on [-1, 1] together
with its exact antiderivative (a cdf) and its pointwise derivative.  Using
the exact antiderivative as the distribution smoother is what makes the
estimated rank-derivative decomposition an exact chain rule: the partial
derivative of the smoothed cdf in the value direction is then literally the
same kernel that the density-like term uses.

All evaluation methods accept scalars or numpy arrays and vectorize.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "Epanechnikov", "Biweight", "EPANECHNIKOV", "BIWEIGHT", "get_kernel"]


class Kernel:
    """Symmetric density on [-1, 1] with exact cdf and derivative.

    Subclasses implement the three pointwise maps; the second moment
    sigma^2(K) = int x^2 K(x) dx is a fixed attribute.  Because the cdf is
    the exact antiderivative of the density, the second moments of K and of
    H' coincide by construction.

    On [-1, 1] both K and H are polynomials.  ``density_coeffs`` holds the
    ascending-power coefficients of K; those of H follow by integration
    (``cdf_coeffs``).  The kernel-sum engine expands these polynomials
    instead of evaluating the pointwise maps.
    """

    name: str = ""
    second_moment: float = float("nan")
    density_coeffs: tuple = ()

    @property
    def cdf_coeffs(self) -> tuple:
        """Ascending-power coefficients of H on [-1, 1]: 1/2 + int_0^u K."""
        return (0.5,) + tuple(c / (p + 1) for p, c in enumerate(self.density_coeffs))

    def density(self, u):
        """K(u); zero outside [-1, 1]."""
        raise NotImplementedError

    def cdf(self, u):
        """H(u) = integral of K up to u; 0 below -1, 1 above 1."""
        raise NotImplementedError

    def density_deriv(self, u):
        """K'(u); zero outside (-1, 1), including at the support edges."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class Epanechnikov(Kernel):
    """K(u) = 0.75 (1 - u^2) on [-1, 1]."""

    name = "epanechnikov"
    second_moment = 0.2
    density_coeffs = (0.75, 0.0, -0.75)

    def density(self, u):
        u = np.clip(u, -1.0, 1.0)
        return 0.75 * (1.0 - u * u)

    def cdf(self, u):
        u = np.clip(u, -1.0, 1.0)
        return 0.5 + u * (0.75 - 0.25 * u * u)

    def density_deriv(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(np.abs(u) < 1.0, -1.5 * u, 0.0)
        return out if out.ndim else float(out)


class Biweight(Kernel):
    """K(u) = (15/16) (1 - u^2)^2 on [-1, 1]."""

    name = "biweight"
    second_moment = 1.0 / 7.0
    density_coeffs = (0.9375, 0.0, -1.875, 0.0, 0.9375)

    def density(self, u):
        u = np.clip(u, -1.0, 1.0)
        s = 1.0 - u * u
        return 0.9375 * s * s

    def cdf(self, u):
        # grouped with integer coefficients so the support edges give exactly 0 and 1
        u = np.clip(u, -1.0, 1.0)
        u2 = u * u
        return 0.5 + u * (15.0 - u2 * (10.0 - 3.0 * u2)) / 16.0

    def density_deriv(self, u):
        # K'(u) = -(15/4) u (1 - u^2); already 0 at |u| = 1, so clipping is safe
        u = np.clip(u, -1.0, 1.0)
        return -3.75 * u * (1.0 - u * u)


EPANECHNIKOV = Epanechnikov()
BIWEIGHT = Biweight()

_BY_NAME = {k.name: k for k in (EPANECHNIKOV, BIWEIGHT)}


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by its configuration name.

    Parameters
    ----------
    name : str
        One of ``"epanechnikov"`` or ``"biweight"`` (case-insensitive).
    """
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None
