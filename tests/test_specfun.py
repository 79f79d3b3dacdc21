import math

import mpmath
import numpy as np
import pytest

from homsim.specfun import _erfcx_array
from oracles_quadrature import QuadratureError, QuadratureSpec, integrate_1d


def erfc_series_reference(x, dps=50):
    """Independent high-precision oracle: alternating Maclaurin series of erf
    evaluated in arbitrary precision, then complemented."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for n in range(0, 500):
            term = (-1) ** n * xm ** (2 * n + 1) / (mpmath.factorial(n) * (2 * n + 1))
            total += term
            if abs(term) < mpmath.mpf(10) ** (-dps - 5):
                break
        return float(1 - 2 / mpmath.sqrt(mpmath.pi) * total)


def erfcx(x):
    """The real axis of the package's one erfcx kernel: a float for a
    scalar, a float array for an array."""
    out = _erfcx_array(np.asarray(x, dtype=complex)).real
    return float(out) if out.ndim == 0 else out


class TestErfc:
    """math.erfc against the series oracle: the independent reference that
    erfcx's identity tests below compare with (the package never calls it)."""

    def test_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_underflow_asymptote(self):
        assert math.erfc(30.0) == 0.0

    def test_value_at_one_against_series_oracle(self):
        ref = erfc_series_reference(1.0)
        assert ref == pytest.approx(0.15729920705028513, rel=1e-15)
        assert math.erfc(1.0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("x", np.linspace(0.05, 4.0, 12).tolist())
    def test_against_series_oracle(self, x):
        assert math.erfc(x) == pytest.approx(erfc_series_reference(x), rel=1e-12)

    def test_symmetry(self):
        for x in np.linspace(-5, 5, 101):
            assert math.erfc(x) + math.erfc(-x) == pytest.approx(2.0, abs=1e-12)


class TestErfcx:
    def test_zero(self):
        assert erfcx(0.0) == 1.0

    def test_large_x_asymptote(self):
        x = 1e4
        assert erfcx(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)), rel=1e-8)

    def test_moderate_value_product_oracle(self):
        # e * erfc(1): both factors computed independently of erfcx
        assert erfcx(1.0) == pytest.approx(math.e * erfc_series_reference(1.0), rel=1e-12)
        assert erfcx(1.0) == pytest.approx(0.42758357615580700, rel=1e-12)

    def test_identity_with_erfc(self):
        for x in np.linspace(0.0, 5.0, 101):
            assert erfcx(x) * math.exp(-x * x) == pytest.approx(math.erfc(x), rel=1e-12)

    def test_identity_far_range(self):
        for x in [6.0, 8.0, 12.0, 20.0, 25.0]:
            assert erfcx(x) * math.exp(-x * x) == pytest.approx(math.erfc(x), rel=1e-11)

    def test_strictly_decreasing(self):
        xs = np.unique(np.concatenate([np.linspace(0, 6, 200), np.geomspace(6, 1e6, 100)]))
        vals = [erfcx(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_crossover_consistent_with_oracle(self):
        # the kernel has no switch at x = 4 (it switches at 8), but erfcx
        # must agree with the oracle across it all the same
        for x in (3.999999999, 4.0, 4.000000001):
            with mpmath.workdps(40):
                ref = float(mpmath.erfc(x) * mpmath.exp(mpmath.mpf(x) ** 2))
            assert erfcx(x) == pytest.approx(ref, rel=1e-12)

    def test_high_precision_across_range(self):
        for x in np.concatenate([np.linspace(0, 3.9, 14), np.geomspace(4, 1e8, 20)]):
            with mpmath.workdps(40):
                ref = float(mpmath.erfc(x) * mpmath.exp(mpmath.mpf(x) ** 2))
            assert erfcx(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_array_against_mpmath(self):
        # twelve decades in one array call; 8 +- 1e-6 straddles the kernel's
        # switch from the rational expansion to the continued fraction. The
        # worst error measured is 7.8e-16 on this grid (1.02e-15 near x = 0.65
        # on a denser one)
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 241), [8.0 - 1e-6, 8.0, 8.0 + 1e-6]])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)) for x in xs])
        values = _erfcx_array(xs.astype(complex))
        assert values.shape == xs.shape and not values.imag.any()
        assert np.max(np.abs(values.real - ref) / ref) < 2e-15


def erfcx_mpmath(z, dps=40):
    """exp(z^2) * erfc(z) in arbitrary precision, from mpmath's erfc."""
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(zm * zm) * mpmath.erfc(zm))


class TestErfcxComplex:
    def test_against_mpmath_over_right_half_plane(self):
        # |z| over twelve decades and arg z over [-pi/2, pi/2] with both ends
        # exactly on the imaginary axis; 8 +- 1e-6 straddles the switch from
        # the rational expansion to the continued fraction. The whole grid
        # goes through one array call.
        radii = np.concatenate([np.geomspace(1e-6, 1e6, 37), [8.0 - 1e-6, 8.0, 8.0 + 1e-6]])
        grid = np.array([complex(0.0 if abs(theta) == math.pi / 2 else r * math.cos(theta),
                                 r * math.sin(theta))
                         for r in radii for theta in np.linspace(-math.pi / 2, math.pi / 2, 13)])
        ref = np.array([erfcx_mpmath(z) for z in grid])
        values = _erfcx_array(grid)
        assert values.shape == grid.shape
        assert np.max(np.abs(values - ref) / np.abs(ref)) < 1e-13
        # a 0-d input runs the same kernel
        for i in (0, 250, grid.size - 1):
            scalar = _erfcx_array(np.asarray(grid[i]))
            assert scalar.shape == ()
            assert complex(scalar) == pytest.approx(values[i], rel=1e-15)

    def test_real_axis_matches_erfcx(self):
        # one 0-d call per point: on the real axis the kernel is real and
        # within 2e-15 of erfcx in 40-digit arithmetic
        for x in np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 201)]):
            v = complex(_erfcx_array(np.asarray(complex(x))))
            assert v.imag == 0.0
            assert v.real == pytest.approx(erfcx_mpmath(complex(x)).real, rel=2e-15)


class TestIntegrate1d:
    def test_unit_constant(self):
        assert integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_truncated_exponential(self):
        val = integrate_1d(lambda x: np.exp(-x), 0.0, 50.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_difference_distribution_normalization(self):
        # width convention used by the frequency-difference density
        sigma = 1.0
        f = lambda d: np.exp(-(d ** 2) / (4 * sigma ** 2)) / (2 * math.sqrt(math.pi) * sigma)
        assert integrate_1d(f, -60.0, 60.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("degree", range(0, 11))
    def test_polynomial_exactness(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-2, 2, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        anti = poly.integ()
        a, b = -1.5, 2.5
        exact = anti(b) - anti(a)
        val = integrate_1d(lambda x: poly(x), a, b)
        assert val == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_kinked_integrand(self):
        val = integrate_1d(lambda x: np.exp(-np.abs(x)), -30.0, 30.0)
        assert val == pytest.approx(2.0 * (1 - math.exp(-30)), rel=1e-10)

    def test_nonconvergence_reports_best_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        with pytest.raises(QuadratureError) as err:
            integrate_1d(lambda x: np.cos(200.0 * x) ** 2, 0.0, 10.0, spec)
        assert math.isfinite(err.value.best_estimate)
        assert err.value.error_estimate > 0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, float("inf"))

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
        {"max_subdivisions": 0},
        {"abs_tol": float("nan")},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)
