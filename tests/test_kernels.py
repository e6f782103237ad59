import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.integrate import simpson

from rankdyn.kernels import BIWEIGHT, EPANECHNIKOV, get_kernel

KERNELS = [EPANECHNIKOV, BIWEIGHT]


def test_epanechnikov_values():
    k = EPANECHNIKOV
    assert k.density(0.0) == 0.75
    assert k.density(1.5) == 0.0
    assert k.density(0.5) == k.density(-0.5)


def test_cdf_endpoints_and_center():
    for k in KERNELS:
        assert k.cdf(-1.0) == 0.0 and k.cdf(-5.0) == 0.0
        assert k.cdf(1.0) == 1.0 and k.cdf(5.0) == 1.0
        assert k.cdf(0.0) == 0.5


def test_epanechnikov_cdf_closed_form_vs_quadrature():
    # closed-form antiderivative at 0.5, cross-checked by integrating K
    assert EPANECHNIKOV.cdf(0.5) == pytest.approx(0.84375, abs=1e-15)
    x = np.linspace(-1.0, 0.5, 30001)
    assert simpson(EPANECHNIKOV.density(x), x=x) == pytest.approx(0.84375, abs=1e-10)


def test_density_is_probability_density():
    x = np.linspace(-1.0, 1.0, 40001)
    for k in KERNELS:
        vals = k.density(x)
        assert np.all(vals >= 0.0)
        assert simpson(vals, x=x) == pytest.approx(1.0, abs=1e-10)


def test_cdf_symmetry_identity():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2.0, 2.0, 500)
    for k in KERNELS:
        assert np.max(np.abs(k.cdf(x) + k.cdf(-x) - 1.0)) < 1e-12


def test_cdf_nondecreasing_and_in_unit_interval():
    x = np.linspace(-1.5, 1.5, 1001)
    for k in KERNELS:
        h = k.cdf(x)
        assert np.all(np.diff(h) >= 0.0)
        assert h.min() >= 0.0 and h.max() <= 1.0


def test_density_deriv_odd_and_zero_outside():
    for k in KERNELS:
        assert k.density_deriv(0.0) == 0.0
        assert k.density_deriv(2.0) == 0.0
        assert k.density_deriv(-2.0) == 0.0
        assert k.density_deriv(0.3) == -k.density_deriv(-0.3)


def test_epanechnikov_deriv_value():
    # finite difference of the density, step 1e-6
    h = 1e-6
    fd = (EPANECHNIKOV.density(0.5 + h) - EPANECHNIKOV.density(0.5 - h)) / (2 * h)
    assert EPANECHNIKOV.density_deriv(0.5) == pytest.approx(-0.75, abs=1e-12)
    assert fd == pytest.approx(-0.75, abs=1e-8)


def test_density_deriv_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.99, 0.99, 100)
    h = 1e-6
    for k in KERNELS:
        fd = (k.density(x + h) - k.density(x - h)) / (2 * h)
        assert np.max(np.abs(k.density_deriv(x) - fd)) < 1e-5


def test_second_moments():
    x = np.linspace(-1.0, 1.0, 40001)
    for k, expected in [(EPANECHNIKOV, 0.2), (BIWEIGHT, 1.0 / 7.0)]:
        assert k.second_moment == pytest.approx(expected, abs=1e-12)
        assert simpson(x * x * k.density(x), x=x) == pytest.approx(expected, abs=1e-9)


def test_cdf_is_antiderivative_of_density():
    # H' = K checked by differencing H on a fine grid
    x = np.linspace(-0.999, 0.999, 2001)
    h = 1e-6
    for k in KERNELS:
        dh = (k.cdf(x + h) - k.cdf(x - h)) / (2 * h)
        assert np.max(np.abs(dh - k.density(x))) < 1e-6


def test_get_kernel():
    assert get_kernel("epanechnikov") is EPANECHNIKOV
    assert get_kernel("Biweight") is BIWEIGHT
    with pytest.raises(ValueError):
        get_kernel("gaussian")


def test_polynomial_coefficients_match_pointwise_maps():
    # the engine expands these polynomials; they must be the same K and H
    x = np.linspace(-1.0, 1.0, 401)
    for k in KERNELS:
        assert np.allclose(polyval(x, k.density_coeffs), k.density(x), rtol=0, atol=1e-15)
        assert np.allclose(polyval(x, k.cdf_coeffs), k.cdf(x), rtol=0, atol=1e-15)


EDGES = np.array([-5.0, -1.0 - 1e-12, -1.0, 1.0, 1.0 + 1e-12, 5.0])


@pytest.mark.parametrize("k", KERNELS, ids=lambda k: k.name)
def test_exact_values_at_and_beyond_the_support_edges(k):
    saturated = np.where(EDGES > 0, 1.0, 0.0)
    for u, h in zip(EDGES, saturated):
        assert k.density(u) == 0.0 and k.density_deriv(u) == 0.0 and k.cdf(u) == h
    assert np.all(k.density(EDGES) == 0.0)
    assert np.all(k.density_deriv(EDGES) == 0.0)
    assert np.array_equal(k.cdf(EDGES), saturated)


@pytest.mark.parametrize("k", KERNELS, ids=lambda k: k.name)
def test_scalar_input_returns_float(k):
    for u in (0.3, -1.0, 5.0, np.float64(0.3)):
        for f in (k.density, k.cdf, k.density_deriv):
            assert type(f(u)) is float


@pytest.mark.parametrize("k", KERNELS, ids=lambda k: k.name)
def test_out_receives_the_values_and_the_argument_is_clipped(k):
    u = np.concatenate([EDGES, np.linspace(-0.99, 0.99, 7)])
    for f in (k.density, k.cdf, k.density_deriv):
        expected = f(u)
        arg, out = u.copy(), np.empty_like(u)
        assert f(arg, out=out) is out
        assert np.array_equal(out, expected)
        assert np.array_equal(arg, np.clip(u, -1.0, 1.0))


def test_second_moment_is_derived_from_the_coefficients():
    assert EPANECHNIKOV.second_moment == pytest.approx(1.0 / 5.0, rel=0, abs=1e-15)
    assert BIWEIGHT.second_moment == pytest.approx(1.0 / 7.0, rel=0, abs=1e-15)
