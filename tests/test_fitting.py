import math
from pathlib import Path

import numpy as np
import pytest

from homsim import fitting
from homsim.fitting import (
    _MICHELSON_BOUNDS,
    SingularModelError,
    _as_xy,
    _michelson_starts,
    _numeric_jacobian,
    fit_exponential_decay,
    fit_hom_dip,
    fit_michelson,
    nlls,
)
from homsim.model import michelson_contrast


CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "homsim" / "configs"


def dip_curve(dt, v=0.69, tau_m=0.63):
    return 0.5 * (1 - v * np.exp(-np.abs(dt) / tau_m))


def lin(x, p):
    return p[0] * x + p[1]


def banana(x, p):
    # the banana-valley objective recast as a two-point fit:
    # minimizes (1-a)^2 + 100 (b - a^2)^2 with optimum (1, 1)
    a, b = p
    return np.where(x == 0, a, 10.0 * (b - a * a))


class TestNlls:
    def test_linear_model_immediate_convergence(self):
        x = np.linspace(0, 10, 20)
        y = 3.0 * x - 1.5
        res = nlls(lin, x, y, [0.0, 0.0], names=["slope", "offset"])
        assert res.converged
        assert res.iterations <= 8
        assert res.residual_norm < 1e-10
        assert res.parameters["slope"] == pytest.approx(3.0, abs=1e-10)
        assert res.parameters["offset"] == pytest.approx(-1.5, abs=1e-10)

    def test_curved_valley_reaches_known_optimum(self):
        x = np.array([0.0, 1.0])
        y = np.array([1.0, 0.0])
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
        # the model rejects non-finite parameters, as michelson_contrast does; the
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

    def test_non_finite_residual_at_the_start_raises(self):
        # the fit ran 60 NaN retries from here, called itself converged and
        # failed with "SVD did not converge" in the covariance
        x = np.arange(1.0, 4.0)
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match="residual is not finite at the initial parameters"):
            nlls(lambda x, p: np.sqrt(p[0]) * x, x, x, [-1.0])

    @pytest.mark.parametrize("max_iter", [0, 1, 5, 500])
    def test_iterations_count_the_accepted_steps(self, max_iter):
        res = nlls(banana, np.array([0.0, 1.0]), np.array([1.0, 0.0]), [-1.2, 1.0],
                   max_iter=max_iter)
        assert res.iterations == len(res.ssr_history) - 1 <= max_iter
        assert res.converged == (max_iter == 500)

    def test_more_parameters_than_points_rejected(self):
        with pytest.raises(ValueError):
            nlls(lambda x, p: p[0] + p[1] * x + p[2] * x * x, np.arange(2.0),
                 np.arange(2.0), [1.0, 1.0, 1.0])

    def line_fit(self, **kwargs):
        x = np.arange(10.0)
        return nlls(lin, x, 3.0 * x - 1.5, [0.0, 0.0], **kwargs)

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], []])
    def test_names_must_match_the_parameters(self, names):
        # ["a"] returned only a
        with pytest.raises(ValueError, match=rf"^names must give one entry per parameter \(2\), got {len(names)}$"):
            self.line_fit(names=names)

    @pytest.mark.parametrize("bounds", [[(0.0, 5.0), None, (0.0, 1.0)], [(0.0, 5.0)], []])
    def test_bounds_must_match_the_parameters(self, bounds):
        # a third entry was accepted and ignored
        with pytest.raises(ValueError, match=rf"^bounds must give one entry per parameter \(2\), got {len(bounds)}$"):
            self.line_fit(bounds=bounds)

    @pytest.mark.parametrize("on_singular", ["bogus", "Raise", None])
    def test_on_singular_must_be_raise_or_flag(self, on_singular):
        # "bogus" behaved like "flag"
        with pytest.raises(ValueError, match=f"^on_singular must be 'raise' or 'flag', got {on_singular!r}$"):
            self.line_fit(on_singular=on_singular)

    @pytest.mark.parametrize("weights", [np.ones(3), np.ones(11), np.ones((10, 1)), 2.0])
    def test_weights_must_give_one_weight_per_point(self, weights):
        # a length of 3 failed with numpy's "operands could not be broadcast together"
        with pytest.raises(ValueError, match=r"^weights must give one weight per point, shape \(10,\), got shape "):
            self.line_fit(weights=weights)


def column_jacobian(residual, p):
    """The 0.11.0 Jacobian, kept as the reference: one central difference
    per column, two residual calls each."""
    J = np.empty((residual(p).size, p.size))
    for j in range(p.size):
        h = 1e-7 * max(abs(p[j]), 1e-3)
        pp = p.copy()
        pm = p.copy()
        pp[j] += h
        pm[j] -= h
        J[:, j] = (residual(pp) - residual(pm)) / (2.0 * h)
    return J


def bundled(csv_name):
    return np.loadtxt(CONFIG_DIR / csv_name, delimiter=",", skiprows=1)


def bundled_problems(monkeypatch, fit, csv_name):
    """(model, x, y, starts) of every nlls call that fit makes on a bundled
    CSV, starts the (K, m) stack of its starting points; the bundled curves
    carry no weights."""
    calls = []
    real = fitting.nlls

    def recording(model, x, y, p0, **kwargs):
        calls.append((model, np.asarray(x), np.asarray(y), np.array(p0, dtype=float, ndmin=2)))
        return real(model, x, y, p0, **kwargs)

    monkeypatch.setattr(fitting, "nlls", recording)
    fit(bundled(csv_name))
    return calls


class TestBatchedJacobian:
    """_numeric_jacobian evaluates its 2m shifted parameter sets in one
    stacked model call and is bitwise the column-by-column difference, so
    every fit keeps its bytes."""

    @staticmethod
    def check(model, x, y, p):
        calls = []

        def residual(params):
            calls.append(params.shape)
            return model(x, params) - y

        J = _numeric_jacobian(residual, p)
        assert calls == [(p.size, 2 * p.size, 1)]
        ref = column_jacobian(residual, p)
        assert J.flags.c_contiguous
        assert np.array_equal(J, ref)
        assert np.array_equal(J.T @ J, ref.T @ ref)

    @pytest.mark.parametrize("fit, csv_name, n_starts", [
        (fit_hom_dip, "hom-dip-example.csv", 1),
        (fit_exponential_decay, "lifetime-example.csv", 1),
        (fit_michelson, "michelson-example.csv", 2),
    ], ids=["hom_dip", "exp_decay", "michelson"])
    def test_bundled_models_at_their_starts(self, monkeypatch, fit, csv_name, n_starts):
        # one nlls call per fit: the Michelson fit hands it its stack of starts
        problems = bundled_problems(monkeypatch, fit, csv_name)
        assert [len(starts) for *_, starts in problems] == [n_starts]
        (model, x, y, starts), = problems
        for p0 in starts:
            self.check(model, x, y, p0)

    @pytest.mark.parametrize("model, x, p", [
        (lin, np.linspace(0, 10, 20), [0.0, 0.0]),
        (lin, np.linspace(0, 10, 20), [3.0, -1.5]),
        (banana, np.array([0.0, 1.0]), [-1.2, 1.0]),
        (banana, np.array([0.0, 1.0]), [0.9999, 0.37]),
    ], ids=["lin-origin", "lin-optimum", "banana-start", "banana-valley"])
    def test_toy_models(self, model, x, p):
        self.check(model, x, np.zeros_like(x), np.array(p))

    def test_model_rejecting_one_shifted_set_fails_the_fit(self):
        # only p - h_0 e_0 leaves the model's domain: the initial residual
        # evaluates, the first Jacobian raises
        def model(x, p):
            if np.any(p[0] < 1.0):
                raise ValueError("slope below 1")
            return p[0] * x + p[1]

        x = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="slope below 1"):
            nlls(model, x, 2.0 * x, [1.0, 0.0])


def sequential_nlls(model, x, y, p0, **kwargs):
    """The reference for a stack of starts: one single-start nlls call per
    start, in order, keeping the first with the lowest residual norm."""
    res = None
    for p in np.array(p0, dtype=float, ndmin=2):
        cand = nlls(model, x, y, p, **kwargs)
        if res is None or cand.residual_norm < res.residual_norm:
            res = cand
    return res


def fit_bytes(res):
    """Everything a fit returns, in exactly comparable form."""
    return (list(res.parameters), np.array(list(res.parameters.values())).tobytes(),
            np.array(list(res.standard_errors.values())).tobytes(),
            np.float64(res.residual_norm).tobytes(), res.converged, res.iterations, res.message,
            np.array(res.ssr_history).tobytes(), res.covariance.tobytes(),
            res.correlations.tobytes())


def picky_line(x, p):
    # a line whose intercept must stay at or above -5; the error names the
    # lowest intercept of the request
    if np.min(p[1]) < -5.0:
        raise ValueError(f"intercept {float(np.min(p[1]))!r} below -5")
    return p[0] * x + p[1]


class TestLockstep:
    """nlls runs a stack of starts in lockstep, each with the arithmetic of
    its own single-start fit, and returns the first start with the lowest
    residual norm: fit_michelson is bitwise the sequential loop over its
    starts, and a single-start fit calls its model as before."""

    @staticmethod
    def michelson_cases():
        data = bundled("michelson-example.csv")
        x, y0 = data[:, 0], data[:, 1]
        rng = np.random.default_rng(29)
        yield data, None
        for i in range(200):
            level = (0.002, 0.01, 0.05)[i % 3]
            y = np.clip(y0 + level * rng.standard_normal(y0.size), 0.0, 1.0)
            y[x == 0.0] = 1.0
            weights = 1.0 / (level * (0.5 + rng.random(y0.size))) if i % 2 else None
            yield np.column_stack([x * _pow2((0, -30, 40, 5)[i % 4]), y]), weights

    def test_michelson_matches_the_sequential_starts(self, monkeypatch):
        cases = list(self.michelson_cases())
        lockstep = [fit_bytes(fit_michelson(pts, weights=w)) for pts, w in cases]
        monkeypatch.setattr(fitting, "nlls", sequential_nlls)
        four = 0
        for (pts, w), got in zip(cases, lockstep):
            assert got == fit_bytes(fit_michelson(pts, weights=w))
            four += len(_michelson_starts(*_as_xy(pts, "test")[:2])) == 4
        assert four >= 50

    @pytest.mark.parametrize("y0", [-8.0, -3.0])
    def test_error_of_the_first_start_that_raises(self, y0):
        # start 1 raises at its first residual, in the first (stacked) round;
        # toward an intercept of -8 start 0 raises later, on a trial step, and
        # its error is the one the sequential loop gives
        x = np.linspace(0.0, 1.0, 6)
        starts = [[0.0, 5.0], [0.0, -10.0], [0.0, 0.0]]
        with pytest.raises(ValueError) as seq:
            sequential_nlls(picky_line, x, 2.0 * x + y0, starts)
        with pytest.raises(ValueError) as lock:
            nlls(picky_line, x, 2.0 * x + y0, starts)
        assert str(lock.value) == str(seq.value)
        assert (str(seq.value) == "intercept -10.0 below -5") == (y0 == -3.0)

    def test_one_start_in_a_stack_is_a_single_start(self):
        x = np.linspace(0.0, 2.0, 9)
        y = np.exp(-x / 0.7)
        model = lambda x, p: p[0] * np.exp(-x / p[1])  # noqa: E731
        assert (fit_bytes(nlls(model, x, y, [[0.8, 1.1]]))
                == fit_bytes(nlls(model, x, y, [0.8, 1.1])))
        with pytest.raises(ValueError, match="p0 must be one start"):
            nlls(model, x, y, np.zeros((0, 2)))

    # 0.15.2 made 43 Michelson model calls, a fit per start; a lone request
    # goes to the model as one set (m,) or its Jacobian's (m, 2m, 1) stack,
    # never as a stack of one set (m, 1, 1)
    @pytest.mark.parametrize("fit, csv_name, n_calls", [
        (fit_hom_dip, "hom-dip-example.csv", 12),
        (fit_exponential_decay, "lifetime-example.csv", 4),
        (fit_michelson, "michelson-example.csv", 25),
    ], ids=["hom_dip", "exp_decay", "michelson"])
    def test_model_call_budget(self, monkeypatch, fit, csv_name, n_calls):
        shapes = []
        real = fitting.nlls

        def recording(model, *args, **kwargs):
            def counted(x, p):
                shapes.append(np.shape(p))
                return model(x, p)
            return real(counted, *args, **kwargs)

        monkeypatch.setattr(fitting, "nlls", recording)
        fit(bundled(csv_name))
        assert len(shapes) == n_calls
        assert all(s[1:] != (1, 1) for s in shapes)
        if fit is not fit_michelson:
            assert set(shapes) == {(2,), (2, 4, 1)}


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

    def test_equal_times_rejected(self):
        # polyfit warned that the log-linear start was poorly conditioned,
        # and the fit then failed on singular normal equations
        with pytest.raises(ValueError, match="^the times must not all be equal$"):
            fit_exponential_decay([(1.0, 2.0), (1.0, 1.5), (1.0, 1.0)])


class TestFitMichelson:
    TRUTH = (0.5, 0.5, 0.33, 0.18, 15.0)  # a1, a2, tc1, tc2, fss

    def test_noiseless_round_trip_exact(self):
        dts = np.linspace(0.0, 1.2, 61)
        c = michelson_contrast(dts, *self.TRUTH)
        res = fit_michelson(np.column_stack([dts, c]))
        assert res.converged
        assert res.parameters["tau_c1"] == pytest.approx(0.33, abs=1e-8)
        assert res.parameters["tau_c2"] == pytest.approx(0.18, abs=1e-8)
        assert res.parameters["fss"] == pytest.approx(15.0, abs=1e-6)
        assert res.parameters["a1"] == pytest.approx(0.5, abs=1e-6)

    def test_no_beating_flags_degenerate_components(self):
        dts = np.linspace(0.0, 1.2, 61)
        res = fit_michelson(np.column_stack([dts, michelson_contrast(dts, 1.0, 1.0, 0.25, 0.25, 0.0)]))
        assert "degenerate" in res.message or "unidentifiable" in res.message
        assert res.parameters["tau_c1"] == pytest.approx(0.25, rel=0.02)

    def test_noise_recovery(self):
        rng = np.random.default_rng(41)
        dts = np.linspace(0.0, 1.2, 121)
        c = michelson_contrast(dts, *self.TRUTH)
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
        # the starts see the delays in the fit's unit, at any delay scale
        u = np.linspace(0.0, 1.0, 20)
        y = np.exp(-u / 0.3)
        dt, y, _ = _as_xy(np.column_stack([scale * u, y]), "test")
        for p0 in _michelson_starts(dt, y):
            assert all(np.isfinite(p0))
            assert all(lo <= v <= hi for v, (lo, hi) in zip(p0, _MICHELSON_BOUNDS[:3]))
        res = fit_michelson(np.column_stack([scale * u, y]))
        assert all(math.isfinite(v) for v in res.parameters.values())

    @pytest.mark.parametrize("scale", [1e-6, 2e-5, 1.0, 1e6])
    @pytest.mark.parametrize("bound", [12, -12])
    def test_coherence_time_on_a_bound_is_not_converged(self, scale, bound):
        # relative to its delays the contrast decays slower (3e6) or faster
        # (3e-8, sampled on log-spaced delays) than the bounds e^12 and e^-12
        # times the delays' unit allow; a coherence time stops ~1e-14 short
        # of its bound, and was once reported converged
        if bound > 0:
            u = np.linspace(0.0, 1.0, 20)
            y = np.exp(-u / 3e6)
        else:
            u = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 19)])
            y = np.exp(-u / 3e-8)
        res = fit_michelson(np.column_stack([scale * u, y]))
        assert not res.converged
        assert f"fit bound log tau_c = {bound} + log " in res.message

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


def _pow2(k):
    return math.ldexp(1.0, k)


class TestTimeUnit:
    """Each fit runs in its data's power-of-two unit: times scaled by 2^k
    give parameters and errors bitwise 2^k times (rates 2^-k times) the
    unscaled fit, with the same path through the optimizer."""

    KS = [*range(-80, 81, 8), -900, 900]

    # the time dimension of each parameter, and of each covariance row; the
    # Michelson covariance is over (mix, log tau_c1, log tau_c2, fss)
    @pytest.mark.parametrize("fit, csv_name, times, rates, cov_dims", [
        (fit_hom_dip, "hom-dip-example.csv", ["tau_m"], [], [0, 1]),
        (fit_exponential_decay, "lifetime-example.csv", ["tau_r"], [], [0, 1]),
        (fit_michelson, "michelson-example.csv", ["tau_c1", "tau_c2"], ["fss"], [0, 0, 0, -1]),
    ], ids=["hom_dip", "exp_decay", "michelson"])
    def test_bundled_fits_are_unit_covariant(self, fit, csv_name, times, rates, cov_dims):
        data = np.loadtxt(CONFIG_DIR / csv_name, delimiter=",", skiprows=1)
        ref = fit(data)
        assert ref.converged
        for k in self.KS:
            s = _pow2(k)
            res = fit(np.column_stack([data[:, 0] * s, data[:, 1]]))
            for name, v in ref.parameters.items():
                scale = s if name in times else 1.0 / s if name in rates else 1.0
                assert res.parameters[name] == v * scale, (k, name)
                assert res.standard_errors[name] == ref.standard_errors[name] * scale, (k, name)
            assert (res.iterations, res.converged, res.message) == (ref.iterations, ref.converged,
                                                                  ref.message)
            assert res.residual_norm == ref.residual_norm
            assert res.ssr_history == ref.ssr_history
            assert np.array_equal(res.correlations, ref.correlations, equal_nan=True)
            if abs(k) <= 80:  # the covariance stays in the float range
                col = np.array([_pow2(k * d) for d in cov_dims])
                assert np.array_equal(res.covariance, ref.covariance * col[:, None] * col[None, :])

    @pytest.mark.parametrize("fit", [fit_hom_dip, fit_exponential_decay, fit_michelson])
    @pytest.mark.parametrize("column, value", [(0, math.inf), (0, math.nan), (1, -math.inf)])
    def test_non_finite_points_rejected(self, fit, column, value):
        # a delay of inf gave a "converged" fit of the remaining points,
        # a NaN time "the times must not all be equal"
        t = np.linspace(0.0, 2.0, 12)
        pts = np.column_stack([t - 1.0 if fit is fit_hom_dip else t, np.exp(-t)])
        pts[5, column] = value
        with pytest.raises(ValueError, match=r"not finite: points\[5\] = "):
            fit(pts)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_decay_far_from_unit_scale(self, scale):
        # the tau_r column of J^T J overflowed or underflowed: "singular"
        res = fit_exponential_decay([(0.0, 1.0), (scale, 0.5), (2.0 * scale, 0.25)])
        assert res.converged
        assert res.parameters["tau_r"] == pytest.approx(scale / math.log(2.0), rel=1e-9)

    def test_michelson_at_the_largest_delays(self):
        # michelson_contrast overflowed in its exponents: warnings, and
        # both coherence times on a bound
        u = np.linspace(0.0, 1.2, 61)
        s = 1.7e308 / 1.2
        res = fit_michelson(np.column_stack([s * u, michelson_contrast(u, *TestFitMichelson.TRUTH)]))
        assert res.converged and "fit bound" not in res.message
        assert res.parameters["tau_c1"] == pytest.approx(0.33 * s, rel=1e-8)
        assert res.parameters["tau_c2"] == pytest.approx(0.18 * s, rel=1e-8)
        assert res.parameters["fss"] == pytest.approx(15.0 / s, rel=1e-8)
