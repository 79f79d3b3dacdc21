import math

import numpy as np
import pytest

from homsim.fitting import (
    _MICHELSON_BOUNDS,
    SingularModelError,
    _michelson_starts,
    fit_exponential_decay,
    fit_hom_dip,
    fit_michelson,
    nlls,
)
from homsim.model import EmitterParams, michelson_contrast


def dip_curve(dt, v=0.69, tau_m=0.63):
    return 0.5 * (1 - v * np.exp(-np.abs(dt) / tau_m))


class TestNlls:
    def test_linear_model_immediate_convergence(self):
        x = np.linspace(0, 10, 20)
        y = 3.0 * x - 1.5

        def lin(x, p):
            return p[0] * x + p[1]

        res = nlls(lin, x, y, [0.0, 0.0], names=["slope", "offset"])
        assert res.converged
        assert res.iterations <= 8
        assert res.residual_norm < 1e-10
        assert res.parameters["slope"] == pytest.approx(3.0, abs=1e-10)
        assert res.parameters["offset"] == pytest.approx(-1.5, abs=1e-10)

    def test_curved_valley_reaches_known_optimum(self):
        # classic banana-valley objective recast as a two-point fit:
        # minimizes (1-a)^2 + 100 (b - a^2)^2 with optimum (1, 1)
        x = np.array([0.0, 1.0])
        y = np.array([1.0, 0.0])

        def banana(x, p):
            a, b = p
            return np.where(x == 0, a, 10.0 * (b - a * a))

        res = nlls(banana, x, y, [-1.2, 1.0], names=["a", "b"], max_iter=500)
        assert res.converged
        assert res.parameters["a"] == pytest.approx(1.0, abs=1e-8)
        assert res.parameters["b"] == pytest.approx(1.0, abs=1e-8)

    def test_overparameterized_raises_singularity_diagnostic(self):
        def degenerate(x, p):
            return (p[0] + p[1]) * np.ones_like(x)

        with pytest.raises(SingularModelError):
            nlls(degenerate, np.arange(6.0), np.ones(6), [0.3, 0.7])

    def test_monotone_residual_descent(self):
        rng = np.random.default_rng(17)
        dt = np.linspace(-2, 2, 41)
        for seed in range(5):
            y = dip_curve(dt) * (1 + 0.05 * rng.standard_normal(dt.size))
            res = fit_hom_dip(np.column_stack([dt, y]))
            hist = np.array(res.ssr_history)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_bounds_respected(self):
        x = np.linspace(0, 5, 30)
        y = np.exp(-x / 2.0)

        def decay(x, p):
            return np.exp(-x / p[0])

        res = nlls(decay, x, y, [1.0], names=["tau"], bounds=[(0.1, 1.5)])
        assert 0.1 <= res.parameters["tau"] <= 1.5

    def test_initial_point_must_satisfy_bounds(self):
        with pytest.raises(ValueError):
            nlls(lambda x, p: p[0] * x, np.arange(3.0), np.arange(3.0), [5.0],
                 bounds=[(0.0, 1.0)])

    def test_non_finite_trial_is_a_rejected_step(self):
        # the model rejects non-finite parameters, as EmitterParams does; the
        # data's optimum (2.5e308) lies past the float range, so the first
        # Gauss-Newton trial overflows to inf and must be rejected, not evaluated
        def model(x, p):
            if not np.all(np.isfinite(p)):
                raise ValueError(f"non-finite parameter {p}")
            return p[0] * 1e-160 * x

        x = np.linspace(1.0, 2.0, 5)
        with np.errstate(over="ignore"):
            res = nlls(model, x, 2.5e148 * x, [1e308], max_iter=1)
        assert math.isfinite(res.parameters["p0"]) and res.parameters["p0"] > 1e308
        assert res.iterations == 1

    def test_more_parameters_than_points_rejected(self):
        with pytest.raises(ValueError):
            nlls(lambda x, p: p[0] + p[1] * x + p[2] * x * x, np.arange(2.0),
                 np.arange(2.0), [1.0, 1.0, 1.0])


class TestFitHomDip:
    def test_noiseless_round_trip_exact(self):
        dt = np.linspace(-3, 3, 21)
        res = fit_hom_dip(np.column_stack([dt, dip_curve(dt)]))
        assert res.converged
        assert res.parameters["v"] == pytest.approx(0.69, abs=1e-8)
        assert res.parameters["tau_m"] == pytest.approx(0.63, abs=1e-8)
        assert res.residual_norm < 1e-9

    def test_reflection_invariance(self):
        rng = np.random.default_rng(2)
        dt = np.linspace(-2.2, 2.2, 23)
        y = dip_curve(dt) * (1 + 0.04 * rng.standard_normal(dt.size))
        a = fit_hom_dip(np.column_stack([dt, y]))
        b = fit_hom_dip(np.column_stack([-dt, y]))
        assert a.parameters["v"] == pytest.approx(b.parameters["v"], abs=1e-9)
        assert a.parameters["tau_m"] == pytest.approx(b.parameters["tau_m"], abs=1e-9)

    def test_flat_data_flags_unidentifiable_width(self):
        dt = np.linspace(-2, 2, 15)
        res = fit_hom_dip(np.column_stack([dt, np.full(dt.size, 0.5)]))
        assert abs(res.parameters["v"]) < 1e-6
        assert math.isinf(res.standard_errors["tau_m"])
        assert "unidentifiable" in res.message

    def test_noise_recovery_rate_at_example_design(self):
        # 21 points, 5% multiplicative noise: the spread of the estimates is
        # bounded below by the information in the data (sigma_v ~ 0.012,
        # sigma_tau ~ 29 ps at this design), so the +/-0.02 / +/-30 ps box
        # captures roughly two thirds of trials.
        rng = np.random.default_rng(20260808)
        dt = np.linspace(-1.26, 1.26, 21)
        truth = dip_curve(dt)
        w = 1.0 / (0.05 * truth)
        hits = 0
        trials = 200
        for _ in range(trials):
            y = truth * (1 + 0.05 * rng.standard_normal(dt.size))
            r = fit_hom_dip(np.column_stack([dt, y]), weights=w)
            if abs(r.parameters["v"] - 0.69) <= 0.02 and abs(r.parameters["tau_m"] - 0.63) <= 0.03:
                hits += 1
        assert 0.5 <= hits / trials <= 0.85

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_hom_dip([(0.1, 0.4), (0.2, 0.42), (0.3, 0.45), (0.4, 0.46)])
        dt = np.linspace(0.1, 2, 10)  # one-signed
        with pytest.raises(ValueError):
            fit_hom_dip(np.column_stack([dt, dip_curve(dt)]))


class TestFitExponentialDecay:
    @pytest.mark.parametrize("tau", [0.7, 0.67])
    def test_noiseless_round_trip(self, tau):
        t = np.linspace(0, 4, 40)
        y = 2500.0 * np.exp(-t / tau)
        res = fit_exponential_decay(np.column_stack([t, y]))
        assert res.parameters["tau_r"] == pytest.approx(tau, abs=1e-10)
        assert res.parameters["amplitude"] == pytest.approx(2500.0, rel=1e-10)

    def test_poisson_noise_recovery(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 4, 60)
        mean = 1e4 * np.exp(-t / 0.7)
        y = rng.poisson(mean).astype(float)
        y[y == 0] = 0.5
        res = fit_exponential_decay(np.column_stack([t, y]))
        assert res.parameters["tau_r"] == pytest.approx(0.7, rel=0.02)

    def test_non_positive_intensity_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([(0.0, 10.0), (1.0, 0.0), (2.0, 1.0)])


class TestFitMichelson:
    TRUTH = EmitterParams(tau_r=0.67, fss=15.0, fss_weights=(0.5, 0.5),
                          fss_tau_c=(0.33, 0.18))

    def test_noiseless_round_trip_exact(self):
        dts = np.linspace(0.0, 1.2, 61)
        c = michelson_contrast(dts, self.TRUTH)
        res = fit_michelson(np.column_stack([dts, c]))
        assert res.converged
        assert res.parameters["tau_c1"] == pytest.approx(0.33, abs=1e-8)
        assert res.parameters["tau_c2"] == pytest.approx(0.18, abs=1e-8)
        assert res.parameters["fss"] == pytest.approx(15.0, abs=1e-6)
        assert res.parameters["a1"] == pytest.approx(0.5, abs=1e-6)

    def test_no_beating_flags_degenerate_components(self):
        prm = EmitterParams(tau_r=0.67, fss=0.0, fss_tau_c=(0.25, 0.25))
        dts = np.linspace(0.0, 1.2, 61)
        res = fit_michelson(np.column_stack([dts, michelson_contrast(dts, prm)]))
        assert "degenerate" in res.message or "unidentifiable" in res.message
        assert res.parameters["tau_c1"] == pytest.approx(0.25, rel=0.02)

    def test_noise_recovery(self):
        rng = np.random.default_rng(41)
        dts = np.linspace(0.0, 1.2, 121)
        c = michelson_contrast(dts, self.TRUTH)
        hits = 0
        for _ in range(25):
            y = np.clip(c * (1 + 0.03 * rng.standard_normal(c.size)), 0.0, 1.0)
            r = fit_michelson(np.column_stack([dts, y]))
            if (abs(r.parameters["tau_c1"] - 0.33) / 0.33 <= 0.05
                    and abs(r.parameters["tau_c2"] - 0.18) / 0.18 <= 0.05):
                hits += 1
        assert hits >= 22

    @pytest.mark.parametrize("scale", [1e-6, 1e-150, 1e-250, 1e6, 1e300])
    def test_starts_inside_bounds_at_any_delay_scale(self, scale):
        # delays far outside the representable coherence times still fit
        # (the bounds cap the result) instead of failing on the start
        u = np.linspace(0.0, 1.0, 20)
        y = np.exp(-u / 0.3)
        for p0 in _michelson_starts(scale * u, y):
            assert all(np.isfinite(p0))
            assert all(lo <= v <= hi for v, (lo, hi) in zip(p0, _MICHELSON_BOUNDS[:3]))
        res = fit_michelson(np.column_stack([scale * u, y]))
        assert all(math.isfinite(v) for v in res.parameters.values())

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_michelson([(0.0, 1.0), (0.1, 0.9)])
        dts = np.linspace(0, 1, 12)
        with pytest.raises(ValueError):
            fit_michelson(np.column_stack([dts, np.full(dts.size, 1.2)]))
        with pytest.raises(ValueError):
            fit_michelson(np.column_stack([dts - 0.5, np.full(dts.size, 0.5)]))
        with pytest.raises(ValueError):
            fit_michelson(np.column_stack([0 * dts, np.full(dts.size, 0.5)]))
