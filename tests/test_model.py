import math
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest

from homsim.model import (
    PairSpec,
    central_peak_area_hom,
    coherence_integral,
    g2_hom_peak,
    michelson_contrast,
    p_inhom,
    sigma_for_visibility,
    sigma_from_coherence,
    time_jitter_overlap_factor,
    visibility_hom,
    visibility_inhom_direct,
)
from homsim.specfun import _erfcx_array
from oracles_quadrature import (
    DegenerateJitterError,
    PhotonWavePacket,
    QuadratureSpec,
    delta_distribution,
    g2_tl,
    integrate_1d,
    p_inhom_quadrature,
    visibility_inhom_closed,
    visibility_inhom_quadrature,
    wavepacket_amplitude,
)


class TestG2HomPeak:
    def test_vanishes_at_origin(self):
        assert g2_hom_peak(0.0, 1.0, 1.3) == pytest.approx(0.0, abs=1e-15)

    def test_fourier_limit_identically_zero(self):
        taus = np.linspace(-5, 5, 101)
        assert np.max(np.abs(g2_hom_peak(taus, 1.0, 2.0))) < 1e-14

    def test_hand_evaluated_point(self):
        # the correlation is 0.5 e^{-|t|/tau_r} - 0.5 e^{-2|t|/tau_c}
        expected = 0.5 * math.exp(-1.0) - 0.5 * math.exp(-2.0)
        assert g2_hom_peak(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tau = rng.uniform(-4, 4)
            tau_r = rng.uniform(0.2, 2.0)
            v = rng.uniform(0.05, 1.0)
            tc = 2 * tau_r * v
            assert g2_hom_peak(tau, tau_r, tc) == pytest.approx(
                g2_hom_peak(-tau, tau_r, tc), rel=1e-12, abs=1e-15)

    def test_non_negative_on_grid(self):
        taus = np.linspace(-6, 6, 121)
        for v in (0.05, 0.3, 0.7, 1.0):
            assert np.min(g2_hom_peak(taus, 1.0, 2.0 * v)) > -1e-12

    def test_unphysical_coherence_rejected(self):
        with pytest.raises(ValueError):
            g2_hom_peak(0.1, 1.0, 2.5)


class TestCentralPeakArea:
    def test_distinguishable_limit(self):
        tau_r = 1.0
        assert central_peak_area_hom(tau_r, 2e-6 * tau_r) == pytest.approx(0.5, abs=1e-6)

    def test_distinguishable_limit_is_two_photon_source_value(self):
        # the 0.5 limit equals the central-peak value 1 - 1/n of an n-photon
        # source with n = 2
        n = 2
        assert central_peak_area_hom(1.0, 2e-6) == pytest.approx(1 - 1 / n, abs=1e-6)

    def test_fourier_limit(self):
        assert central_peak_area_hom(1.0, 2.0) == 0.0

    def test_measured_operating_point(self):
        assert central_peak_area_hom(0.67, 0.33) == pytest.approx(0.37686567164179, rel=1e-12)

    @pytest.mark.parametrize("v", [0.01, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_closed_form_matches_quadrature(self, v):
        tau_r = 0.9
        tc = 2 * tau_r * v
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
        span = 45.0 * tau_r
        f = lambda t: g2_hom_peak(t, tau_r, tc)
        raw = integrate_1d(f, -span, 0.0, spec) + integrate_1d(f, 0.0, span, spec)
        assert central_peak_area_hom(tau_r, tc) == pytest.approx(raw / (2 * tau_r), abs=1e-9)


class TestVisibilityHom:
    def test_fourier_limit(self):
        assert visibility_hom(1.0, 2.0) == 1.0

    @pytest.mark.parametrize("tau_r, tau_c, name", [
        (math.inf, math.inf, "tau_r"), (math.inf, 1.0, "tau_r"), (math.nan, 1.0, "tau_r"),
        (-1.0, 1.0, "tau_r"), (0.0, 1.0, "tau_r"), (1.0, math.nan, "tau_c"), (1.0, math.inf, "tau_c"),
        (1.0, 0.0, "tau_c"), (1.0, -0.5, "tau_c")])
    def test_closed_forms_reject_times_that_are_not_finite_and_positive(self, tau_r, tau_c, name):
        # tau_r = inf gave visibility_hom(inf, inf) NaN,
        # central_peak_area_hom(inf, 1.0) 0.5 and g2_hom_peak(1.0, inf, 1.0) 0.432
        for f in (visibility_hom, central_peak_area_hom, partial(g2_hom_peak, 1.0)):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
                f(tau_r, tau_c)

    def test_measured_value_rounds_to_published(self):
        v = visibility_hom(0.67, 0.33)
        assert v == 0.33 / (2 * 0.67)
        assert round(v, 3) == 0.246
        assert round(v, 2) == 0.25

    def test_half(self):
        assert visibility_hom(1.0, 1.0) == 0.5


class TestWavepacket:
    def test_causality(self):
        pkt = PhotonWavePacket(tau_r=0.7, time_offset=0.4)
        assert wavepacket_amplitude(pkt, 0.39) == 0
        assert abs(wavepacket_amplitude(pkt, 0.41)) > 0

    def test_unit_norm_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            tau_r = rng.uniform(0.1, 3.0)
            off = rng.uniform(-2.0, 2.0)
            fr = rng.uniform(-5.0, 5.0)
            pkt = PhotonWavePacket(tau_r=tau_r, frequency_offset=fr, time_offset=off)
            f = lambda t: np.abs(wavepacket_amplitude(pkt, t)) ** 2
            norm = integrate_1d(f, off, off + 40 * tau_r,
                                QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_exponential_envelope(self):
        pkt = PhotonWavePacket(tau_r=0.8, time_offset=0.1)
        r = abs(wavepacket_amplitude(pkt, 0.1 + 0.8 + 1e-12)) ** 2 / abs(
            wavepacket_amplitude(pkt, 0.1 + 1e-12)) ** 2
        assert r == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_pair_constructor_offsets(self):
        p1, p2 = PhotonWavePacket.pair(0.67, delta=2.0, delta_tau=0.3)
        assert p1.frequency_offset == -1.0 and p2.frequency_offset == +1.0
        assert p1.time_offset == +0.15 and p2.time_offset == -0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonWavePacket(tau_r=0.0)


class TestG2TL:
    def test_identical_packets_interfere_perfectly(self):
        pair = PairSpec(tau_r=0.67)
        t0s = np.linspace(-1, 4, 40)
        for tau in (-1.0, 0.3, 2.0):
            assert np.max(np.abs(g2_tl(t0s, tau, pair, 0.0))) < 1e-14

    def test_vanishes_at_equal_times(self):
        pair = PairSpec(tau_r=1.0, delta_tau=0.4)
        for delta in (0.0, 1.5, 8.0):
            for t0 in (0.0, 0.5, 2.0):
                assert g2_tl(t0, 0.0, pair, delta) == pytest.approx(0.0, abs=1e-14)

    def test_generic_point_against_independent_expansion(self):
        # in the region past both onsets the kernel reduces to
        # exp(-(2 t0 + tau)/tau_r) * sin^2(delta*tau/2) / tau_r^2
        tau_r = 1.0
        dt = 0.3
        delta = 1.0
        t0, tau = 0.5, 0.2
        pair = PairSpec(tau_r=tau_r, delta_tau=dt)
        expected = math.exp(-(2 * t0 + tau) / tau_r) * math.sin(delta * tau / 2) ** 2 / tau_r ** 2
        assert g2_tl(t0, tau, pair, delta) == pytest.approx(expected, rel=1e-12)


class TestDeltaDistribution:
    def test_normalized(self):
        pair = PairSpec(tau_r=1.0, delta0=1.5, sigma_g=0.8)
        f = lambda d: delta_distribution(d, pair)
        val = integrate_1d(f, 1.5 - 40 * 0.8, 1.5 + 40 * 0.8,
                           QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_peaked_at_mean_detuning(self):
        pair = PairSpec(tau_r=1.0, delta0=2.0, sigma_g=0.5)
        assert delta_distribution(2.0, pair) > delta_distribution(2.3, pair)
        assert delta_distribution(2.0, pair) > delta_distribution(1.7, pair)

    def test_variance_is_twice_sigma_g_squared(self):
        sg = 0.7
        pair = PairSpec(tau_r=1.0, delta0=0.0, sigma_g=sg)
        f = lambda d: d ** 2 * delta_distribution(d, pair)
        var = integrate_1d(f, -40 * sg, 40 * sg, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11))
        assert var == pytest.approx(2 * sg ** 2, rel=1e-9)

    def test_zero_jitter_signaled(self):
        with pytest.raises(DegenerateJitterError):
            delta_distribution(0.0, PairSpec(tau_r=1.0, sigma_g=0.0))


class TestPInhom:
    def test_indistinguishable_fourier_limited(self):
        pair = PairSpec(tau_r=0.67)
        taus = np.linspace(-4, 4, 81)
        assert np.max(np.abs(p_inhom(taus, pair))) < 1e-14

    def test_fully_distinguishable_limit(self):
        tau_r = 0.67
        pair = PairSpec(tau_r=tau_r, sigma_g=1e6)
        for tau in (0.3, -0.9, 2.0):
            assert p_inhom(tau, pair) == pytest.approx(
                math.exp(-abs(tau) / tau_r) / (4 * tau_r), rel=1e-10)

    def test_non_negative_and_symmetric(self):
        rng = np.random.default_rng(3)
        taus = np.linspace(-5, 5, 101)
        for _ in range(20):
            pair = PairSpec(tau_r=rng.uniform(0.3, 1.5), delta_tau=0.0,
                            delta0=rng.uniform(-3, 3), sigma_g=rng.uniform(0, 3))
            vals = p_inhom(taus, pair)
            assert np.min(vals) > -1e-14
            assert np.max(np.abs(vals - vals[::-1])) < 1e-14

    def test_total_mass_at_most_half(self):
        rng = np.random.default_rng(4)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=4000)
        for _ in range(6):
            tau_r = rng.uniform(0.4, 1.2)
            pair = PairSpec(tau_r=tau_r, delta_tau=rng.uniform(-1, 1),
                            delta0=rng.uniform(-2, 2), sigma_g=rng.uniform(0, 2))
            span = 45 * tau_r + abs(pair.delta_tau)
            f = lambda t: p_inhom(t, pair)
            mass = integrate_1d(f, -span, 0.0, spec) + integrate_1d(f, 0.0, span, spec)
            assert -1e-10 <= mass <= 0.5 + 1e-10

    @pytest.mark.parametrize("pair,tau", [
        (PairSpec(tau_r=1.0, delta_tau=0.3, delta0=0.0, sigma_g=1.0), 0.7),
        (PairSpec(tau_r=1.0, delta_tau=0.3, delta0=2.0, sigma_g=0.7), 1.2),
        (PairSpec(tau_r=0.67, delta_tau=-0.2, delta0=1.5, sigma_g=2.0), -0.9),
        (PairSpec(tau_r=0.67, delta_tau=0.0, delta0=0.0, sigma_g=2.74), 0.45),
    ])
    def test_closed_form_matches_double_quadrature(self, pair, tau):
        assert p_inhom(tau, pair) == pytest.approx(p_inhom_quadrature(tau, pair), abs=1e-7)

    def test_quadrature_zero_jitter_path(self):
        pair = PairSpec(tau_r=0.8, delta_tau=0.25, delta0=1.3, sigma_g=0.0)
        for tau in (0.0, 0.4, -1.1):
            assert p_inhom_quadrature(tau, pair) == pytest.approx(p_inhom(tau, pair), abs=1e-9)


def detuned_visibility_oracle(tau_r, sigma_g, delta0, dps=30):
    """Remote-pair visibility in the frequency domain, independently of the
    model: the Lorentzian overlap 1/(1 + tau_r^2 D^2) averaged over
    D ~ N(delta0, 2 sigma_g^2) by mpmath quadrature, split at the Lorentzian
    peak, the Gaussian centre and 12 Gaussian standard deviations either
    side of it."""
    with mpmath.workdps(dps):
        t, d0, var = mpmath.mpf(tau_r), mpmath.mpf(delta0), 2 * mpmath.mpf(sigma_g) ** 2
        f = lambda d: (mpmath.exp(-(d - d0) ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)
                       / (1 + (t * d) ** 2))
        h = 12 * mpmath.sqrt(var)
        breaks = sorted({mpmath.mpf(0), d0, d0 - h, d0 + h})
        return float(mpmath.quad(f, [-mpmath.inf, *breaks, mpmath.inf]))


class TestInhomVisibility:
    def test_fourier_limited_asymptote(self):
        tau_r = 1.0
        sg = 1e-4
        assert visibility_inhom_direct(tau_r, sg) == pytest.approx(1.0, abs=1e-3)
        assert visibility_inhom_closed(tau_r, sg) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 1.0, 5.0, 20.0])
    def test_closed_is_two_direct_minus_one(self, x):
        tau_r = 0.67
        sg = x / tau_r
        closed = visibility_inhom_closed(tau_r, sg)
        direct = visibility_inhom_direct(tau_r, sg)
        assert closed == pytest.approx(2.0 * direct - 1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 4.0])
    def test_quadrature_matches_direct_normalization(self, x):
        tau_r = 0.9
        pair = PairSpec(tau_r=tau_r, sigma_g=x / tau_r)
        assert visibility_inhom_quadrature(pair) == pytest.approx(
            visibility_inhom_direct(tau_r, pair.sigma_g), abs=1e-9)

    def test_recorded_value_at_unit_product(self):
        # tau_r * sigma_g = 1: direct normalization 0.5456..., published-form
        # convention 0.0913... (= 2V - 1)
        assert visibility_inhom_direct(1.0, 1.0) == pytest.approx(0.5456413607650471, rel=1e-10)
        assert visibility_inhom_closed(1.0, 1.0) == pytest.approx(0.0912827215300941, rel=1e-9)

    def test_detuned_closed_form_against_frequency_oracle(self):
        # every (tau_r sigma_g, tau_r delta0) pair at tau_r = 0.67; the other
        # two lifetimes on a sub-grid, which keeps the oracle under ~4 s
        ts_all = (0.01, 0.1, 1.0, 10.0, 100.0)
        td_all = (0.0, 0.3, -0.3, 3.0, -3.0, 30.0, -30.0, 300.0, -300.0)
        grid = [(0.67, ts, td) for ts in ts_all for td in td_all]
        grid += [(tau_r, ts, td) for tau_r in (0.2, 2.0) for ts in ts_all[::2]
                 for td in (0.0, 0.3, -3.0, 30.0, -300.0)]
        # one array call per lifetime (tau_r is a scalar argument)
        worst = 0.0
        for tau_r in sorted({g[0] for g in grid}):
            sg = np.array([ts / tau_r for t, ts, _ in grid if t == tau_r])
            d0 = np.array([td / tau_r for t, _, td in grid if t == tau_r])
            v = visibility_inhom_direct(tau_r, sg, d0)
            assert v.shape == sg.shape
            for vi, s, d in zip(v, sg, d0):
                worst = max(worst, abs(vi - detuned_visibility_oracle(tau_r, s, d)))
        assert worst < 1e-13

    def test_array_input(self):
        # arrays broadcast against scalars and keep their shape; scalars
        # give a float equal to the array element
        sg = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
        v = visibility_inhom_direct(0.67, sg, 2.5)
        assert v.shape == (3, 4)
        scalar = visibility_inhom_direct(0.67, float(sg[1, 2]), 2.5)
        assert type(scalar) is float
        assert scalar == pytest.approx(v[1, 2], rel=1e-15)
        assert visibility_inhom_direct(0.67, 1.0, np.array([0.0, 1e308]))[1] == 0.0

    @pytest.mark.parametrize("sigma_g,delta0", [([1.0, -5e-324, 2.0], 0.0), ([1.0, -1.0], 0.0),
                                                ([1.0, float("nan")], 0.0),
                                                ([1.0, float("inf")], 0.0),
                                                (1.0, [0.0, float("nan")]),
                                                (1.0, [float("-inf"), 0.0])])
    def test_one_bad_element_rejected(self, sigma_g, delta0):
        with pytest.raises(ValueError):
            visibility_inhom_direct(0.67, np.array(sigma_g), np.array(delta0))

    def test_zero_jitter_is_the_lorentzian(self):
        # sigma_g = 0 lies in the domain: the kernel's scale is 0 and the
        # Voigt overlap is the Lorentzian 1/(1 + tau_r^2 delta0^2) itself
        assert visibility_inhom_direct(0.67, 0.0) == 1.0
        d0 = np.linspace(-20.0, 20.0, 401)
        assert visibility_inhom_direct(0.67, 0.0, d0) == pytest.approx(
            1.0 / (1.0 + (0.67 * d0) ** 2), rel=1e-15)
        assert visibility_inhom_direct(0.67, [0.0, 1.0], 1e200)[0] == 0.0

    def test_detuned_limits(self):
        # delta0 = 0 is the undetuned expression sqrt(pi) x erfcx(x), on both
        # sides of the switch to the continued fraction at x = 8
        for x in (0.01, 0.5, 3.0, 7.9, 8.1, 50.0):
            sg = 1.0 / (2.0 * 0.67 * x)
            assert visibility_inhom_direct(0.67, sg, 0.0) == pytest.approx(
                math.sqrt(math.pi) * x * _erfcx_array(np.array([x + 0j]))[0].real, rel=2e-15)
        # tau_r * delta0 or tau_r * sigma_g beyond the float range
        for tau_r, sg, d0 in ((2.0, 1.0, 1e308), (2.0, 1e-5, -1e308), (1e10, 1e300, 0.0),
                              (1e10, 1e300, 1e300)):
            assert visibility_inhom_direct(tau_r, sg, d0) == 0.0

    def test_largest_jitter_in_float_range_warns_of_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = visibility_inhom_direct(1.0, 2e307)
        assert v == pytest.approx(math.sqrt(math.pi) / 4e307, rel=1e-14)

    def test_distinguishable_limit(self):
        pair = PairSpec(tau_r=0.67, sigma_g=1e5)
        assert visibility_inhom_quadrature(pair) == pytest.approx(0.0, abs=1e-4)

    def test_detuned_orthogonal_colors(self):
        pair = PairSpec(tau_r=0.67, delta0=100.0, sigma_g=1.0)
        assert visibility_inhom_quadrature(pair) == pytest.approx(0.0, abs=1e-3)

    def test_monotone_in_sigma_and_detuning(self):
        tau_r = 0.67
        vs = [visibility_inhom_quadrature(PairSpec(tau_r=tau_r, sigma_g=s))
              for s in (0.3, 0.8, 1.6, 3.2, 6.4)]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        assert all(0.0 <= v <= 1.0 for v in vs)
        vd = [visibility_inhom_quadrature(PairSpec(tau_r=tau_r, delta0=d, sigma_g=1.0))
              for d in (0.0, 0.7, 1.5, 3.0, 6.0)]
        assert all(a > b for a, b in zip(vd, vd[1:]))
        assert all(0.0 <= v <= 1.0 for v in vd)

    def test_delta_tau_rejected(self):
        with pytest.raises(ValueError):
            visibility_inhom_quadrature(PairSpec(tau_r=1.0, delta_tau=0.2, sigma_g=1.0))

    def test_published_visibility_inversion(self):
        # jitter scale that reproduces the 36.4% remote-pair model value
        sg = sigma_for_visibility(0.67, 0.364)
        assert sg == pytest.approx(2.7399880931875, rel=1e-6)
        assert visibility_inhom_direct(0.67, sg) == pytest.approx(0.364, abs=1e-9)
        assert visibility_inhom_quadrature(PairSpec(tau_r=0.67, sigma_g=sg)) == pytest.approx(
            0.364, abs=1e-8)

    @pytest.mark.parametrize("v", [1e-12, 1e-3, 0.364, 1 - 1e-9])
    def test_inversion_round_trip(self, v):
        assert visibility_inhom_direct(0.67, sigma_for_visibility(0.67, v)) == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input_rejected(self, bad):
        for call in (lambda: coherence_integral(0.67, bad), lambda: coherence_integral(bad, 1.0),
                     lambda: sigma_for_visibility(0.67, bad), lambda: sigma_for_visibility(bad, 0.364)):
            with pytest.raises(ValueError):
                call()


class TestSigmaFromCoherence:
    def test_near_fourier_limit_needs_no_jitter(self):
        assert sigma_from_coherence(0.67, 1.34 - 1e-7) < 1e-3

    def test_monotone_in_target(self):
        targets = [1.2, 0.9, 0.6, 0.33, 0.1, 0.02]
        sigmas = [sigma_from_coherence(0.67, t) for t in targets]
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))

    @pytest.mark.parametrize("target", [1.3, 1.0, 0.6, 0.33, 0.05])
    def test_round_trip(self, target):
        sg = sigma_from_coherence(0.67, target)
        assert coherence_integral(0.67, sg) == pytest.approx(target, rel=1e-8)

    def test_measured_operating_point(self):
        assert sigma_from_coherence(0.67, 0.33) == pytest.approx(4.496548607537, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sigma_from_coherence(0.67, 1.34)
        with pytest.raises(ValueError):
            sigma_from_coherence(0.67, 0.0)

    @pytest.mark.parametrize("tau_r, target", [(math.nan, 0.3), (-1.0, -0.3), (math.inf, 0.3),
                                               (0.0, 0.3)])
    def test_a_bad_tau_r_is_named(self, tau_r, target):
        # (nan, 0.3) and (-1, -0.3) reported a bad tau_c_target
        with pytest.raises(ValueError, match=f"^tau_r must be finite and > 0, got {tau_r}$"):
            sigma_from_coherence(tau_r, target)

    def test_coherence_integral_against_quadrature(self):
        for sg in (0.5, 2.0, 4.4965486):
            f = lambda t: np.exp(-np.abs(t) / 0.67) * np.exp(-(sg * t) ** 2)
            ref = integrate_1d(f, -30.0, 30.0, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12))
            assert coherence_integral(0.67, sg) == pytest.approx(ref, rel=1e-10)
        assert coherence_integral(0.67, 0.0) == pytest.approx(1.34, rel=1e-14)


class TestMichelsonContrast:
    def test_full_contrast_at_zero_delay(self):
        assert michelson_contrast(0.0, 1.0, 1.0, 0.33, 0.18, 15.0) == pytest.approx(1.0, rel=1e-14)

    def test_single_lorentzian_reduction(self):
        dts = np.linspace(0, 2, 41)
        assert np.allclose(michelson_contrast(dts, 1.0, 1.0, 0.4, 0.4, 0.0), np.exp(-dts / 0.4),
                           rtol=1e-12)

    def test_beating_decay_shape(self):
        dts = np.linspace(0, 1.2, 481)
        c = michelson_contrast(dts, 0.5, 0.5, 0.33, 0.18, 15.0)
        # oscillating decay: a pronounced minimum near the half beat period
        i_min = int(np.argmin(c[dts < 0.4]))
        assert dts[i_min] == pytest.approx(math.pi / 15.0, abs=0.03)
        # contrast bounded by the no-beat envelope
        env = 0.5 * (np.exp(-dts / 0.33) + np.exp(-dts / 0.18))
        assert np.all(c <= env + 1e-12)

    def test_phase_past_the_float_range_is_dephased(self):
        # fss * dt overflowed, and cos(inf) gave NaN with a RuntimeWarning;
        # as in the sampler, a phase that is not finite leaves no cross term
        no_cross = math.sqrt(2.0 * math.exp(-2.0 * 10.0 / 0.3)) / 2.0
        assert michelson_contrast(10.0, 1.0, 1.0, 0.3, 0.3, 1e308) == no_cross
        dts = np.array([0.0, 1e-300, 10.0])
        c = michelson_contrast(dts, 1.0, 1.0, 0.3, 0.3, 1e308)
        # the finite phases keep the cosine, bitwise
        dt = dts[1]
        e = np.exp(-2.0 * dt / 0.3)
        with_cross = np.sqrt(e + e + 2.0 * np.exp(-dt / 0.3 - dt / 0.3) * np.cos(1e308 * dt)) / 2.0
        assert c.tolist() == [1.0, with_cross, no_cross]
        assert michelson_contrast(math.inf, 1.0, 1.0, 0.3, 0.3, 0.0) == 0.0

    def test_exponent_past_the_float_range_is_zero(self):
        # -2 dt / tc overflowed with a RuntimeWarning; its term is 0, the limit
        assert michelson_contrast(1.7e308, 0.5, 0.5, 0.3, 0.2, 0.0) == 0.0
        assert michelson_contrast(1e300, 0.5, 0.5, 1e-10, 0.2, 0.0) == 0.0
        assert michelson_contrast(1e300, 0.5, 0.5, 1e-10, 1e300, 0.0) == np.sqrt(0.25 * np.exp(-2.0))

    def test_weights_are_scale_free(self):
        # a1^2 overflowed for weights near 1e200 and gave inf with a
        # RuntimeWarning; the contrast depends on a1 / (a1 + a2) alone, and
        # weights scaled by a power of two give it bitwise
        dts = np.linspace(0.0, 2.0, 41)
        ref = michelson_contrast(dts, 1.0, 1.0, 0.3, 0.2, 15.0)
        for s in (2.0 ** -1070, 2.0 ** -500, 0.5, 2.0 ** 600, 2.0 ** 1022):
            assert np.array_equal(michelson_contrast(dts, s, s, 0.3, 0.2, 15.0), ref)
            rows = michelson_contrast(dts, np.array([[s], [1.0]]), np.array([[s], [1.0]]),
                                      0.3, 0.2, 15.0)
            assert np.array_equal(rows, [ref, ref])
        assert michelson_contrast(0.5, 1e200, 1e200, 0.3, 0.2, 0.0) == pytest.approx(0.1355, abs=5e-5)
        assert (michelson_contrast(0.5, 1e200, 1e200, 0.3, 0.2, 0.0)
                == michelson_contrast(0.5, 1.0, 1.0, 0.3, 0.2, 0.0))
        # a weight too small beside the other to count leaves one line
        one_line = michelson_contrast(0.5, np.array([1e-320, 5e-324]), np.array([1e300, 0.0]),
                                      0.3, 0.2, 0.0)
        assert one_line == pytest.approx([math.exp(-0.5 / 0.2), math.exp(-0.5 / 0.3)], rel=1e-15)

    def test_negative_delay_rejected(self):
        for dt in (-0.1, math.nan, [0.0, 0.5, -0.1]):
            with pytest.raises(ValueError):
                michelson_contrast(dt, 1.0, 1.0, 1.0, 1.0, 0.0)

    def test_parameters_broadcast_against_the_delays(self):
        dts = np.linspace(0.0, 1.2, 7)
        assert type(michelson_contrast(0.3, 0.5, 0.5, 0.33, 0.18, 15.0)) is float
        assert michelson_contrast(dts, 0.5, 0.5, 0.33, 0.18, 15.0).shape == (7,)
        # one column of three coherence times, the other parameters shared
        tc1 = np.array([[0.2], [0.33], [0.5]])
        rows = michelson_contrast(dts, 0.5, 0.5, tc1, 0.18, 15.0)
        assert rows.shape == (3, 7)
        for row, t in zip(rows, tc1[:, 0]):
            assert np.array_equal(row, michelson_contrast(dts, 0.5, 0.5, t, 0.18, 15.0))

    def test_sequence_rows_are_the_single_set_values(self):
        # parameters of shape (k, 1) give k rows of contrast, each bitwise
        # the single-set call, over 2,000 random sets
        rng = np.random.default_rng(5)
        sets = [(1.0, 1.0, 1.0, 1.0, 0.0), (1.0, 0.0, 5.0, 0.1, 2.0)]
        for a1, tc1, tc2, fss in zip(rng.random(2000).tolist(), rng.uniform(0.1, 1.0, 2000).tolist(),
                                     rng.uniform(0.1, 1.0, 2000).tolist(), rng.uniform(0, 20, 2000).tolist()):
            sets.append((a1, 1.0 - a1, tc1, tc2, fss))
        columns = np.array(sets).T[:, :, None]
        dts = np.linspace(0.0, 1.2, 61)
        stack = michelson_contrast(dts, *columns)
        assert stack.shape == (len(sets), 61)
        for row, prm in zip(stack, sets):
            assert np.array_equal(row, michelson_contrast(dts, *prm))
        at = michelson_contrast(0.7, *columns[:, :, 0])
        assert at.shape == (len(sets),)
        assert at.tolist() == [michelson_contrast(0.7, *prm) for prm in sets]
        assert michelson_contrast(dts, *np.empty((5, 0, 1))).shape == (0, 61)

    def test_contrast_zeros_stay_finite(self):
        # a Levenberg-Marquardt iterate near an equal-weight doublet that
        # beats to an exact zero at dt = 1.5: rounding takes the radicand
        # just below 0 there
        dts = np.linspace(0.0, 2.0, 41)
        c = michelson_contrast(dts, 0.49999998227358683, 0.5000000177264132,
                               5.000001009656531, 4.9999995599838485, 6.283185308095183)
        assert np.all(np.isfinite(c))
        assert c == pytest.approx(np.abs(np.cos(math.pi * dts)) * np.exp(-dts / 5.0), abs=1e-6)


class TestTimeJitterOverlapFactor:
    def test_no_jitter(self):
        assert time_jitter_overlap_factor(0.67, 0.5, 0.0) == pytest.approx(
            math.exp(-0.5 / 0.67), rel=1e-14)

    @pytest.mark.parametrize("mu,sj", [(0.0, 0.2), (0.5, 0.3), (-0.8, 1.0), (0.0, 2.5)])
    def test_against_quadrature(self, mu, sj):
        tau_r = 0.67
        s = math.sqrt(2) * sj
        f = lambda x: (np.exp(-np.abs(x) / tau_r)
                       * np.exp(-((x - mu) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi)))
        span = max(40 * tau_r, abs(mu) + 12 * s)
        ref = integrate_1d(f, -span, 0.0, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11,
                                                         max_subdivisions=4000)) \
            + integrate_1d(f, 0.0, span, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11,
                                                        max_subdivisions=4000))
        assert time_jitter_overlap_factor(tau_r, mu, sj) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("sj", [0.0, 0.05, 0.3, 2.5])
    def test_array_equals_elementwise_scalars(self, sj):
        # zm = sj/tau_r - |mu|/(2 sj) changes sign inside the offset range for
        # every jitter > 0, so both branches of the closed form are covered
        tau_r = 0.67
        mu = np.linspace(-40.0, 40.0, 161)
        if sj > 0:
            zm = sj / tau_r - np.abs(mu) / (2.0 * sj)
            assert (zm >= 0).any() and (zm < 0).any()
        f = time_jitter_overlap_factor(tau_r, mu, sj)
        assert f.shape == mu.shape
        scalars = [time_jitter_overlap_factor(tau_r, float(m), sj) for m in mu]
        assert all(type(x) is float for x in scalars)
        np.testing.assert_allclose(f, scalars, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("sj", [0.0, 0.3])
    def test_one_nonfinite_offset_rejected(self, sj):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                time_jitter_overlap_factor(0.67, np.array([0.0, 1.0, bad]), sj)

    @pytest.mark.parametrize("tau_r,sj", [
        (0.67, float("nan")), (0.67, float("inf")), (0.67, -0.1),
        (float("inf"), 0.1), (float("nan"), 0.1), (0.0, 0.1), (-0.67, 0.0)])
    def test_bad_tau_r_or_jitter_rejected(self, tau_r, sj):
        # written so that NaN fails them, as in InterferenceScenario
        for delta_tau in (0.0, 0.3):
            with pytest.raises(ValueError):
                time_jitter_overlap_factor(tau_r, delta_tau, sj)


class TestTypeValidation:
    def test_michelson_contrast(self):
        good = {"a1": 1.0, "a2": 1.0, "tc1": 0.3, "tc2": 0.3, "fss": 1.0}
        for kw in ({"a1": -1.0}, {"a1": 0.0, "a2": 0.0}, {"tc1": 0.0}, {"tc2": -0.3},
                   {"fss": -1.0}):
            with pytest.raises(ValueError):
                michelson_contrast(0.5, **{**good, **kw})
        for bad in (math.nan, math.inf, -math.inf):
            for name in good:
                with pytest.raises(ValueError):
                    michelson_contrast(0.5, **{**good, name: bad})
                # one bad set in a stack fails the call
                with pytest.raises(ValueError):
                    michelson_contrast(0.5, **{**good, name: np.array([[good[name]], [bad]])})

    def test_pair_spec(self):
        for kw in ({"tau_r": 0.0}, {"tau_r": math.inf}, {"tau_r": math.nan},
                   {"sigma_g": -0.5}, {"sigma_g": math.nan}, {"sigma_g": math.inf},
                   {"delta0": math.nan}, {"delta0": -math.inf},
                   {"delta_tau": math.inf}, {"delta_tau": math.nan}):
            with pytest.raises(ValueError):
                PairSpec(**{"tau_r": 1.0, **kw})
