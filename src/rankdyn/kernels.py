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


def _horner(coeffs: tuple, u, out=None, zero_at_edges: bool = False):
    """sum_p coeffs[p] x^p at x = u clipped to [-1, 1], by Horner's rule.

    Without ``out`` the result is a new array, or a float for scalar ``u``.
    With ``out``, ``u`` must be a float array of the same shape: it is
    clipped in place and the result is written into ``out``, so nothing is
    allocated.  ``zero_at_edges`` sets the value to 0 where the clipped
    |u| >= 1 - 1e-12 (``Kernel`` says why).
    """
    if out is None:
        u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
        out = np.empty_like(u)
    else:
        np.clip(u, -1.0, 1.0, out=u)
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= u
        out += c
    if zero_at_edges:
        out[np.abs(u) >= 1.0 - 1e-12] = 0.0
    return out if out.ndim else float(out)


class Kernel:
    """Symmetric density K on [-1, 1], given by its polynomial coefficients.

    ``density_coeffs`` holds the ascending-power coefficients of K on
    [-1, 1], and it is the kernel's only description.  The cdf H (with
    H(-1) = 0) and the derivative K' follow by integrating and
    differentiating the polynomial, and so does the second moment
    sigma^2(K) = int x^2 K(x) dx.  The pointwise maps clip their argument to
    [-1, 1] and run Horner's rule, so K and K' vanish and H saturates at 0
    and 1 exactly at and beyond the support edges, given coefficients whose
    sums there are exact (dyadic rationals are).  K' is also 0 within 1e-12
    of the edges: Epanechnikov's K' jumps from -+1.5 to 0 at u = +-1, and a
    time exactly h_t from an observation gives u = +-1 only up to rounding,
    so without the tolerance the observation would count on one side of
    the window and not on the other.  The kernel-sum engine expands the
    same polynomials instead of evaluating the pointwise maps.

    Every map takes an optional ``out`` array: the result is written into
    it, and the argument, which must then be a float array, is clipped in
    place.
    """

    name: str = ""
    density_coeffs: tuple = ()

    @property
    def cdf_coeffs(self) -> tuple:
        """Ascending-power coefficients of H on [-1, 1]: 1/2 + int_0^u K."""
        return (0.5,) + tuple(c / (p + 1) for p, c in enumerate(self.density_coeffs))

    @property
    def second_moment(self) -> float:
        """int_{-1}^{1} x^2 K(x) dx; only even powers of x contribute."""
        return sum(2.0 * c / (p + 3) for p, c in enumerate(self.density_coeffs) if p % 2 == 0)

    def density(self, u, out=None):
        """K(u); zero outside [-1, 1]."""
        return _horner(self.density_coeffs, u, out)

    def cdf(self, u, out=None):
        """H(u) = integral of K up to u; 0 below -1, 1 above 1."""
        return _horner(self.cdf_coeffs, u, out)

    def density_deriv(self, u, out=None):
        """K'(u); zero outside (-1, 1) and within 1e-12 of its edges."""
        coeffs = tuple(p * c for p, c in enumerate(self.density_coeffs))[1:]
        return _horner(coeffs, u, out, zero_at_edges=True)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Epanechnikov(Kernel):
    """K(u) = 0.75 (1 - u^2) on [-1, 1]."""

    name = "epanechnikov"
    density_coeffs = (0.75, 0.0, -0.75)


class Biweight(Kernel):
    """K(u) = (15/16) (1 - u^2)^2 on [-1, 1]."""

    name = "biweight"
    density_coeffs = (0.9375, 0.0, -1.875, 0.0, 0.9375)


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
