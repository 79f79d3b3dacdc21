import hashlib
import math
import re
import types
from dataclasses import replace
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest

import homsim
from homsim import montecarlo
from homsim.analysis import g2_indist_double_pulse, peak_areas
from homsim.config import load_config
from homsim.model import PairSpec, p_inhom, sigma_for_visibility, visibility_inhom_direct
from homsim.montecarlo import (
    CHUNK_PULSES,
    MODE_CONSECUTIVE,
    MODE_CROSS_POLARIZED,
    MODE_DOUBLE_PULSE,
    MODE_REMOTE,
    MODES,
    DetectorModel,
    InterferenceScenario,
    RngSpec,
    _ROUTES,
    _apply_detector,
    _chunk_rng,
    _correlate,
    _mode_detections,
    _route_hbt,
    _sample_g_wing,
    _sample_t0,
    _sample_tau,
    _simulate_block,
    analytic_g2_indist,
    analytic_visibility,
    analytic_visibility_at,
    hbt_analytic_g2,
    multi_photon_prob_for_g2,
    sample_pair_events,
    simulate_hbt_purity,
    simulate_histogram,
)

SIGMA_REMOTE = sigma_for_visibility(0.67, 0.364)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "homsim" / "configs"


def chi2_upper_quantile(dof, tail):
    """x with P(chi^2_dof > x) = tail, from the Wilson-Hilferty start."""
    z = math.sqrt(2) * mpmath.erfinv(1 - 2 * tail)
    h = 2 / (9 * dof)
    return float(mpmath.findroot(
        lambda x: mpmath.gammainc(dof / 2, x / 2, mpmath.inf, regularized=True) - tail,
        dof * (1 - h + z * mpmath.sqrt(h)) ** 3))


class CountingGenerator:
    """A Generator that counts thinning proposal rounds (one exponential or
    gamma draw per round) and fails past max_rounds instead of looping, and
    counts the normal variates drawn."""

    def __init__(self, g, max_rounds=100_000):
        self._g, self.rounds, self.max_rounds = g, 0, max_rounds
        self.normal_calls = self.normals = 0

    def __getattr__(self, name):
        return getattr(self._g, name)

    def _round(self):
        self.rounds += 1
        if self.rounds > self.max_rounds:
            raise RuntimeError(f"more than {self.max_rounds} proposal rounds")

    def exponential(self, *args):
        self._round()
        return self._g.exponential(*args)

    def gamma(self, *args):
        self._round()
        return self._g.gamma(*args)

    def normal(self, *args):
        out = self._g.normal(*args)
        self.normal_calls += 1
        self.normals += out.size
        return out


def correlate_by_repeat(times, ports, halfspan, bin_width, nbins):
    """Reference for _correlate: every pair materialized through np.repeat."""
    d1 = np.sort(times[ports == 0])
    d2 = np.sort(times[ports == 1])
    counts = np.zeros(nbins, dtype=np.int64)
    if d1.size == 0 or d2.size == 0:
        return counts, 0
    lo = np.searchsorted(d2, d1 - halfspan, side="left")
    hi = np.searchsorted(d2, d1 + halfspan, side="right")
    per = hi - lo
    total = int(per.sum())
    if total == 0:
        return counts, 0
    reps = np.repeat(np.cumsum(per) - per, per)
    idx2 = np.repeat(lo, per) + (np.arange(total) - reps)
    tau = d2[idx2] - np.repeat(d1, per)
    bins = np.floor((tau + halfspan) / bin_width).astype(np.int64)
    ok = (bins >= 0) & (bins < nbins)
    counts += np.bincount(bins[ok], minlength=nbins)
    return counts, int(ok.sum())


def sample_t0_two_branch(tau_r, dtau, delta, tau, opposite, u_seg, u_exp):
    """Reference for _sample_t0: both segment branches for every row, as
    the sampler computed them up to version 0.6.0."""
    o1 = dtau / 2.0
    o2 = -dtau / 2.0
    a = np.maximum(o1, o2 - tau)
    b = np.maximum(o2, o1 - tau)
    mn = np.minimum(a, b)
    mx = np.maximum(a, b)
    rate = 2.0 / tau_r
    s = np.exp(-rate * (mx - mn))
    amp = 2.0 + np.where(opposite, -2.0, 2.0) * np.cos(delta * tau)
    w1 = 1.0 - s
    w2 = np.maximum(amp, 1e-300) * s
    pick1 = u_seg * (w1 + w2) < w1
    t_trunc = mn - np.log1p(-u_exp * (1.0 - s)) / rate
    t_tail = mx - np.log1p(-u_exp) / rate
    return np.where(pick1, t_trunc, t_tail)


def remote_scenario(n_pulses=100_000, **kw):
    pair = kw.pop("pair", PairSpec(tau_r=0.67, sigma_g=SIGMA_REMOTE))
    return InterferenceScenario(mode=MODE_REMOTE, pair=pair, rep_period=12.2,
                                n_pulses=n_pulses, **kw)


class TestDeterminism:
    def test_identical_rng_identical_histogram(self):
        scn = remote_scenario(80_000)
        rng = RngSpec(seed=41)
        h1 = simulate_histogram(scn, rng, window_periods=4)
        h2 = simulate_histogram(scn, rng, window_periods=4)
        assert np.array_equal(h1.counts, h2.counts)
        assert h1.total_events == h2.total_events

    @pytest.mark.parametrize("mode", MODES + ("hbt",))
    def test_parallel_equals_serial_bitwise(self, mode):
        # three pulse blocks through a lossy detector with jitter and dark counts
        det = DetectorModel(efficiency=0.3, timing_jitter_sigma=0.05, dark_rate=1e-4)
        scn = InterferenceScenario(mode=MODE_REMOTE if mode == "hbt" else mode,
                                   pair=PairSpec(tau_r=0.67, sigma_g=SIGMA_REMOTE),
                                   rep_period=12.2, emission_jitter=0.1, n_pulses=150_000,
                                   detector=det)
        run = partial(simulate_hbt_purity, 0.05) if mode == "hbt" else simulate_histogram
        rng = RngSpec(seed=42)
        h1 = run(scn, rng, window_periods=4, n_jobs=1)
        h4 = run(scn, rng, window_periods=4, n_jobs=4)
        assert h1.total_events > 0
        assert np.array_equal(h1.counts, h4.counts)

    def test_block_partition_sums_to_full_run(self):
        # workers own whole pulse blocks; summing the integer counts of the
        # one block function must reproduce the full run exactly, for a
        # pairing mode and for HBT alike
        scn = remote_scenario(150_000)
        rng = RngSpec(seed=43)
        runs = [(_ROUTES[scn.mode], simulate_histogram(scn, rng, window_periods=4)),
                (partial(_route_hbt, 0.05), simulate_hbt_purity(0.05, scn, rng, window_periods=4))]
        for route, full in runs:
            acc = np.zeros(full.counts.size, dtype=np.int64)
            for c in range((scn.n_pulses + CHUNK_PULSES - 1) // CHUNK_PULSES):
                counts, _ = _simulate_block(route, scn, rng, c, full.window_halfspan(),
                                            full.bin_width, full.counts.size)
                acc += counts
            assert np.array_equal(acc, full.counts)

    def test_different_stream_different_events(self):
        scn = remote_scenario(50_000)
        h0 = simulate_histogram(scn, RngSpec(seed=44, stream_id=0), window_periods=4)
        h1 = simulate_histogram(scn, RngSpec(seed=44, stream_id=1), window_periods=4)
        assert not np.array_equal(h0.counts, h1.counts)

    def test_block_stream_is_keyed_by_seed_stream_and_block(self):
        def draws(seed, stream_id, block):
            g = _chunk_rng(RngSpec(seed=seed, stream_id=stream_id), block)
            assert isinstance(g.bit_generator, np.random.SFC64)
            return np.concatenate([g.random(64), g.integers(0, 2, 64, dtype=bool)])

        ref = draws(45, 3, 2)
        assert np.array_equal(ref, draws(45, 3, 2))
        for other in [(45, 3, 3), (45, 4, 2), (45, 2, 3), (46, 3, 2)]:
            assert not np.array_equal(ref, draws(*other)), other

    @pytest.mark.parametrize("mode", [MODE_CROSS_POLARIZED, MODE_CONSECUTIVE, MODE_DOUBLE_PULSE])
    def test_block_draws_one_detuning_per_meeting_pair(self, mode):
        # no emission or detector jitter, so every normal variate a block
        # draws before the detector is a detuning
        scn = InterferenceScenario(mode=mode, pair=PairSpec(tau_r=0.67, sigma_g=SIGMA_REMOTE),
                                   rep_period=12.5, n_pulses=CHUNK_PULSES)
        g = CountingGenerator(_chunk_rng(RngSpec(seed=46), 0))
        meeting = []

        def route(*args):
            out = _ROUTES[mode](*args)
            meeting.append(out[0].size)
            return out

        _mode_detections(route, scn, g, np.arange(CHUNK_PULSES) * scn.rep_period)
        if mode == MODE_CROSS_POLARIZED:
            assert meeting == [0] and g.normal_calls == 0
        else:
            assert 0 < meeting[0] < CHUNK_PULSES
            assert g.normals == meeting[0]

    @pytest.mark.parametrize("cores, workers", [(64, 3), (2, 2), (None, 1)])
    def test_workers_bounded_by_blocks_and_cores(self, monkeypatch, cores, workers):
        # n_jobs has no upper bound in the config; the pool gets at most one
        # worker per block and per core. The stand-in pool starts no thread.
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "os", types.SimpleNamespace(cpu_count=lambda: cores))
        scn = remote_scenario(3 * CHUNK_PULSES - 5)
        rng = RngSpec(seed=47)
        wide = simulate_histogram(scn, rng, window_periods=4, n_jobs=10 ** 9)
        assert started == [workers]
        serial = simulate_histogram(scn, rng, window_periods=4, n_jobs=1)
        assert np.array_equal(wide.counts, serial.counts)

    def test_rng_spec_validation(self):
        with pytest.raises(ValueError):
            RngSpec(seed=-1)
        with pytest.raises(ValueError):
            RngSpec(seed=1, stream_id=2 ** 32)


PINNED_CONFIGS = {MODE_REMOTE: "remote-qd.json", MODE_CONSECUTIVE: "p-shell.json",
                  MODE_DOUBLE_PULSE: "double-pulse-rf.json",
                  MODE_CROSS_POLARIZED: "cross-polarized.json", "hbt": "p-shell.json"}
LOSSY_DETECTOR = DetectorModel(efficiency=0.3, timing_jitter_sigma=0.05, dark_rate=1e-4)
PINNED_VERSION = "0.8.2"  # the package version that pinned or last confirmed PINNED_SHA256
PINNED_SHA256 = {  # sha256 of the int64 counts' bytes
    (MODE_REMOTE, False): "98642e529a70d11e71c75dabe2e6ec8f844f459e470054c026c34c03ce3ba19c",
    (MODE_REMOTE, True): "03a2d9c04ebb74c3fa906c0cd2839a4dc239df51cbf69649b542191babc14ecc",
    (MODE_CONSECUTIVE, False): "c00611202ce0c03213cbc2f834ddb2b3f766cca6df8927157f836f73e3822a64",
    (MODE_CONSECUTIVE, True): "b90ee720ee17381779bb5e3fb5680223d114727f2ec0ed623abc60c6d3d9d5be",
    (MODE_DOUBLE_PULSE, False): "aca141381da6e1505355bf265abc588b9f3e32dad70e79ca047352adcd4b49e9",
    (MODE_DOUBLE_PULSE, True): "6c4d12d73680349570482ed7b7f20af9cd05feee112cf4cfb8ae5259d5774ca7",
    (MODE_CROSS_POLARIZED, False): "59843641c47eebe14ccbc78a8c299e8eeb1eb22233b0eb5517752f0c3e74e889",
    (MODE_CROSS_POLARIZED, True): "504be786561c9c3c15f62fc1eefaaf9ace73e24011ca885dfd345c2dd5ae1360",
    ("hbt", False): "b0a942fca4e443ca179a465a3d27d9103534cff9d4da2c2ac7ba4d9bac400779",
    ("hbt", True): "5d1c9842dabf4a8ab7ed6b8f611b13a15f5ceb3bcdfba8fab5d78f9d8dffce97",
}


def pinned_counts(mode, lossy):
    """Counts of 200,000 pulses at seed 7 from the bundled config of the
    mode, with its own (ideal) detector or with LOSSY_DETECTOR."""
    cfg = load_config(CONFIG_DIR / PINNED_CONFIGS[mode])
    scn = replace(cfg.scenario, n_pulses=200_000)
    if lossy:
        scn = replace(scn, detector=LOSSY_DETECTOR)
    run = partial(simulate_hbt_purity, 0.05) if mode == "hbt" else simulate_histogram
    return run(scn, RngSpec(seed=7), bin_width=cfg.bin_width,
               window_periods=cfg.window_periods).counts


class TestPinnedHistograms:
    def test_pinned_version_is_the_package_version(self):
        """A re-pin sets PINNED_VERSION: re-pinning without a version bump
        fails here, and so does a bump that leaves the pins alone."""
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        # a regex, because Python 3.10 has no tomllib
        declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE).group(1)
        assert declared == homsim.__version__ == PINNED_VERSION

    @pytest.mark.parametrize("lossy", [False, True], ids=["own-detector", "lossy-detector"])
    @pytest.mark.parametrize("mode", list(PINNED_CONFIGS))
    def test_counts_hash_is_pinned(self, mode, lossy):
        """The histogram of a fixed seed is part of the version's contract:
        refactors and speed-ups within a version keep these hashes. A change
        that alters the random stream bumps the version and re-pins them."""
        digest = hashlib.sha256(pinned_counts(mode, lossy).tobytes()).hexdigest()
        assert digest == PINNED_SHA256[mode, lossy]


class TestPairEvents:
    def test_perfect_interference_never_splits(self):
        scn = remote_scenario(pair=PairSpec(tau_r=0.67))
        batch = sample_pair_events(scn, 20_000, RngSpec(seed=7))
        assert not batch.opposite_port.any()

    def test_cross_polarized_splits_half(self):
        scn = InterferenceScenario(mode=MODE_CROSS_POLARIZED, pair=PairSpec(tau_r=0.67),
                                   rep_period=12.5, n_pulses=1)
        n = 200_000
        batch = sample_pair_events(scn, n, RngSpec(seed=8))
        frac = batch.opposite_port.mean()
        assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / n)

    def test_opposite_fraction_matches_analytic(self):
        scn = remote_scenario()
        n = 400_000
        batch = sample_pair_events(scn, n, RngSpec(seed=9))
        expected = 2.0 * analytic_g2_indist(scn) * 0.5 + 0.0  # = (1 - V)/2
        p = (1.0 - analytic_visibility(scn)) / 2.0
        assert expected == pytest.approx(p, rel=1e-12)
        assert abs(batch.opposite_port.mean() - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_opposite_ports_and_times_consistent(self):
        scn = remote_scenario()
        batch = sample_pair_events(scn, 5_000, RngSpec(seed=10))
        opp = batch.opposite_port
        assert np.all(batch.port_a[opp] != batch.port_b[opp])
        assert np.all(batch.port_a[~opp] == batch.port_b[~opp])
        assert np.allclose(batch.tau, batch.t_b - batch.t_a)

    def test_empirical_delay_density_matches_model(self):
        # opposite-port delays against p_inhom / integral(p_inhom), with
        # per-bin expectations from sub-sampled bin integrals
        scn = remote_scenario()
        n = 1_000_000
        batch = sample_pair_events(scn, n, RngSpec(seed=11))
        taus = batch.tau[batch.opposite_port]
        pair = scn.pair
        edges = np.linspace(-6 * pair.tau_r, 6 * pair.tau_r, 91)
        hist, _ = np.histogram(taus, bins=edges)
        mass = (1.0 - visibility_inhom_direct(pair.tau_r, pair.sigma_g)) / 2.0
        expected = np.empty(edges.size - 1)
        for i in range(edges.size - 1):
            xs = np.linspace(edges[i], edges[i + 1], 41)
            expected[i] = np.trapezoid(p_inhom(xs, pair), xs)
        expected = expected / mass * taus.size
        z = (hist - expected) / np.sqrt(np.maximum(expected, 1.0))
        assert np.abs(z).max() < 5.0
        # chi^2 over the 90 bins below the 1 - 1e-4 quantile of chi^2_90
        # (148.6); a criterion on single bins would reject a correct sampler
        # on about a quarter of seeds
        assert float(np.sum(z ** 2)) < chi2_upper_quantile(edges.size - 1, 1e-4)

    def test_convergence_rate(self):
        # empirical opposite-port density error shrinks like 1/sqrt(N). The
        # largest bin error at one seed is too noisy to gate on (a correct
        # sampler fails the ratio on about one seed in ten), so the gate
        # reads the median over seeds 12-18 of each size's error. The
        # reference is each bin's average density (20-point Gauss-Legendre;
        # tau = 0 is a bin edge, so no kink lies inside a bin): p_inhom at the
        # bin centres is off by up to 0.0085, the size of the 1e6-sample error.
        scn = remote_scenario()
        pair = scn.pair
        edges = np.linspace(-4 * pair.tau_r, 4 * pair.tau_r, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        x, w = np.polynomial.legendre.leggauss(20)
        nodes = centers[:, None] + 0.5 * np.diff(edges)[:, None] * x
        mass = (1.0 - visibility_inhom_direct(pair.tau_r, pair.sigma_g)) / 2.0
        dens = 0.5 * (p_inhom(nodes, pair) @ w) / mass
        errs = []
        for seed in range(12, 19):
            for n in (10_000, 100_000, 1_000_000):
                batch = sample_pair_events(scn, n, RngSpec(seed=seed))
                taus = batch.tau[batch.opposite_port]
                # normalized over all delays, like dens; density=True would
                # renormalize to the 97% of the mass inside +-4 tau_r
                hist = np.histogram(taus, bins=edges)[0] / (taus.size * np.diff(edges))
                errs.append(float(np.max(np.abs(hist - dens))))
        med = np.median(np.reshape(errs, (-1, 3)), axis=0)
        assert med[2] < med[1] < med[0]
        assert med[0] / med[2] > 7.0


class TestPairSampler:
    def test_proposal_rounds_bounded_on_remote_qd_block(self):
        # every remote-qd pulse is a meeting pair at dtau = 0; one envelope
        # for all rows took 1,344 rounds on this block
        scn = load_config(CONFIG_DIR / "remote-qd.json").scenario
        g = CountingGenerator(_chunk_rng(RngSpec(seed=7), 0))
        times, _ = _mode_detections(_ROUTES[scn.mode], scn, g,
                                    np.arange(CHUNK_PULSES) * scn.rep_period)
        assert times.size == 2 * CHUNK_PULSES
        assert g.rounds <= 60

    def test_interference_null_terminates_at_gamma_limit(self):
        # opposite ports at tau_r delta = 1e-9: the interference density
        # (1 - cos(delta t)) e^{-|t|/tau_r} tends to t^2 e^{-|t|/tau_r}, a
        # signed Gamma(3, tau_r) with E|t| = 3 tau_r and E t^2 = 12 tau_r^2
        tau_r, n = 0.67, 200_000
        g = CountingGenerator(np.random.Generator(np.random.Philox(5)), max_rounds=200)
        tau = _sample_tau(tau_r, np.zeros(n), np.full(n, 1e-9 / tau_r), np.ones(n, bool), g)
        assert abs(np.abs(tau).mean() - 3 * tau_r) < 5 * math.sqrt(3) * tau_r / math.sqrt(n)
        assert abs(tau.mean()) < 5 * math.sqrt(12) * tau_r / math.sqrt(n)

    def test_far_offset_wing_in_log_space(self):
        # dtau = 500 ns is 746 tau_r: e^{-dtau/tau_r} underflows, and the
        # delay is a Laplace density about dtau (median error tau_r/sqrt(n))
        n = 100_000
        scn = remote_scenario(pair=PairSpec(tau_r=0.67, delta_tau=500.0, sigma_g=SIGMA_REMOTE))
        batch = sample_pair_events(scn, n, RngSpec(seed=14))
        for arr in (batch.tau, batch.t_a, batch.t_b):
            assert np.all(np.isfinite(arr))
        assert abs(np.median(np.abs(batch.tau)) - 500.0) < 5 * 0.67 / math.sqrt(n)

    @pytest.mark.parametrize("dtau", [1e-12, 0.1, 1.0, 5.0, 500.0])
    def test_wing_matches_its_cdf(self, dtau):
        # Kolmogorov distance to the closed-form wing CDF (mpmath), against
        # the DKW bound at 1e-6; at 1e-12 ns the wing is e^{-x/tau_r} past
        # |dtau| to within (dtau/tau_r)^2
        tau_r, n = 0.67, 100_000
        x = np.sort(_sample_g_wing(tau_r, np.full(n, dtau / tau_r),
                                   np.random.default_rng(15).random(n)))
        assert np.all(np.isfinite(x)) and x[0] >= 0.0
        a = mpmath.mpf(dtau) / tau_r

        def cdf(v):
            v = mpmath.mpf(v) / tau_r
            em, em2 = -mpmath.expm1(-a), -mpmath.expm1(-2 * a)
            if v < a:
                return mpmath.exp(-a) * (mpmath.cosh(v) - 1) / em
            return (em ** 2 - mpmath.expm1(a - v) * em2) / (2 * em)

        probes = x[np.linspace(0, n - 1, 201).astype(int)]
        emp = np.searchsorted(x, probes, side="right") / n
        ref = np.array([float(cdf(v)) for v in probes])
        assert np.max(np.abs(emp - ref)) < math.sqrt(math.log(2 / 1e-6) / (2 * n))

    def test_t0_matches_two_branch_reference_bitwise(self):
        # rows at dtau = 0 (both signs of zero), 1e-300 and far beyond tau_r,
        # bunched and opposite ports, and delta * tau up to 1e6 rad
        rng = np.random.default_rng(17)
        tau_r, n = 0.67, 40_000
        dtau = rng.choice([0.0, -0.0, 1e-300, -1e-300, 0.3, -2.0, 500.0, -1e4], n)
        tau = np.where(rng.random(n) < 0.1, rng.choice([0.0, -0.0], n), rng.laplace(0.0, tau_r, n))
        delta = rng.normal(0.0, 4.0, n) * rng.choice([1.0, 1e3, 1e6], n)
        opposite = rng.random(n) < 0.5
        u_seg, u_exp = rng.random(n), rng.random(n)
        u_exp[:100] = 0.0
        ref = sample_t0_two_branch(tau_r, dtau, delta, tau, opposite, u_seg, u_exp)
        for rows in (slice(None), dtau == 0.0, dtau != 0.0):
            args = [v[rows] for v in (dtau, delta, tau, opposite, u_seg, u_exp)]
            got = _sample_t0(tau_r, *args)
            assert got.tobytes() == ref[rows].tobytes()

    def test_correlate_matches_pair_enumeration(self):
        # lossy, jittery detector with dark counts, at a window wide enough
        # for 9 lags and one narrower than the peaks, and with a port empty
        det = DetectorModel(efficiency=0.6, timing_jitter_sigma=0.05, dark_rate=0.01)
        scn = remote_scenario(CHUNK_PULSES, detector=det)
        g = _chunk_rng(RngSpec(seed=16), 0)
        times, ports = _mode_detections(_ROUTES[scn.mode], scn, g,
                                        np.arange(CHUNK_PULSES) * scn.rep_period)
        times, ports = _apply_detector(times, ports, det, 0.0, CHUNK_PULSES * scn.rep_period, g)
        # 2 * 0.6 * 65,536 photon detections (sd ~180) and ~16,000 dark counts
        assert times.size > 2 * 0.6 * CHUNK_PULSES + 8_000
        for p in (ports, np.zeros_like(ports), np.ones_like(ports)):
            for halfspan, bw in ((4.5 * 12.2, 0.128), (0.3, 0.05)):
                nbins = int(round(2 * halfspan / bw))
                got = _correlate(times, p, halfspan, bw, nbins)
                ref = correlate_by_repeat(times, p, halfspan, bw, nbins)
                assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]


def assert_correlate_matches(times, ports, halfspan, bin_width, nbins):
    got = _correlate(times, ports, halfspan, bin_width, nbins)
    ref = correlate_by_repeat(times, ports, halfspan, bin_width, nbins)
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    return got


class TestCorrelateEdges:
    """_correlate against the pair enumeration where its window ranks and
    edge cells could differ from it."""

    def test_delays_at_and_one_ulp_past_the_window(self):
        for halfspan, bw in ((0.3, 0.05), (0.375, 0.125), (4.5 * 12.2, 0.128)):
            nbins = int(round(2 * halfspan / bw))
            d1 = np.array([10.0, 237.25, 1e4 / 3])  # further apart than 2 * halfspan
            edges = np.concatenate([d1 - halfspan, d1 + halfspan])
            d2 = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
            times = np.concatenate([d1, d2])
            ports = np.repeat(np.array([0, 1], dtype=np.int8), [d1.size, d2.size])
            _, total = assert_correlate_matches(times, ports, halfspan, bw, nbins)
            # four delays per detection lie within +-halfspan; those at the
            # upper edge may bin to nbins and drop out
            assert 2 * d1.size <= total <= 4 * d1.size

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exact_ties_between_window_edges_and_detections(self, side):
        # on a binary grid every d1 -+ halfspan lands exactly on detector-2
        # times, some of them repeated, at the lower or the upper edge
        halfspan, bw, nbins = 0.375, 0.125, 6
        rng = np.random.default_rng(3)
        d1 = np.sort(rng.integers(0, 400, 300)) * 0.125
        edge = d1 - halfspan if side == "left" else d1 + halfspan
        d2 = np.concatenate([edge, edge[::3], rng.integers(0, 400, 300) * 0.125])
        times = np.concatenate([d1, d2])
        ports = np.repeat(np.array([0, 1], dtype=np.int8), [d1.size, d2.size])
        perm = rng.permutation(times.size)
        _, total = assert_correlate_matches(times[perm], ports[perm], halfspan, bw, nbins)
        assert total > d2.size

    @pytest.mark.parametrize("nbins", [10, 12, 15])
    def test_bin_grid_narrower_or_wider_than_the_window(self, nbins):
        # nbins * bin_width below 2 * halfspan puts delays past the last bin
        rng = np.random.default_rng(4)
        times = np.sort(rng.random(5_000)) * 200.0
        ports = (rng.random(times.size) < 0.5).astype(np.int8)
        counts, total = assert_correlate_matches(times, ports, 0.3, 0.05, nbins)
        assert counts.size == nbins and total == counts.sum() > 0

    @pytest.mark.parametrize("partners", [300, 40_000, 70_000])
    def test_long_runs(self, partners):
        # three detector-1 times whose windows each hold every one of the
        # detector-2 times: runs longer than 255, 32,767 and 65,535 set the
        # width of the run-length sort key; a fourth, shorter run and a
        # detection with no partner ride along
        rng = np.random.default_rng(partners)
        d2 = rng.random(partners)
        d1 = np.array([0.45, 0.5, 0.55, 1.2, 5.0])
        times = np.concatenate([d1, d2])
        ports = np.repeat(np.array([0, 1], dtype=np.int8), [d1.size, d2.size])
        perm = rng.permutation(times.size)
        _, total = assert_correlate_matches(times[perm], ports[perm], 0.6, 0.05, 24)
        assert total > 3 * partners

    def test_empty_port(self):
        times = np.array([1.0, 1.2, 5.0])
        for ports in (np.zeros(3, np.int8), np.ones(3, np.int8)):
            counts, total = assert_correlate_matches(times, ports, 0.3, 0.05, 12)
            assert total == 0 and counts.size == 12 and not counts.any()
        counts, total = assert_correlate_matches(np.empty(0), np.empty(0, np.int8), 0.3, 0.05, 12)
        assert total == 0 and counts.size == 12


class TestSimulateHistogram:
    def test_ideal_double_pulse_central_peak_absent(self):
        scn = InterferenceScenario(mode=MODE_DOUBLE_PULSE, pair=PairSpec(tau_r=0.2),
                                   rep_period=12.5, intra_delay=2.0, n_pulses=120_000)
        h = simulate_histogram(scn, RngSpec(seed=21))
        rep = g2_indist_double_pulse(h, 2.0, 0.6)
        assert rep.g2_indist < 0.01

    def test_cross_polarized_central_equals_satellites(self):
        scn = InterferenceScenario(mode=MODE_CROSS_POLARIZED, pair=PairSpec(tau_r=0.2),
                                   rep_period=12.5, intra_delay=2.0, n_pulses=200_000)
        h = simulate_histogram(scn, RngSpec(seed=22))
        rep = g2_indist_double_pulse(h, 2.0, 0.6)
        # per-satellite area equals the central area for distinguishable pairs
        for sat in rep.side_areas:
            assert rep.central_area == pytest.approx(sat, rel=4 / math.sqrt(min(sat, rep.central_area)))
        assert rep.g2_indist == pytest.approx(0.5, abs=0.01)

    def test_remote_g2_matches_analytic(self):
        scn = remote_scenario(300_000)
        h = simulate_histogram(scn, RngSpec(seed=23), window_periods=4)
        rep = peak_areas(h, 7 * 0.67, 6)
        ref = analytic_g2_indist(scn)
        assert abs(rep.g2_indist - ref) < 4 * rep.g2_indist_err

    def test_consecutive_ideal_and_neighbor_suppression(self):
        scn = InterferenceScenario(mode=MODE_CONSECUTIVE, pair=PairSpec(tau_r=0.67),
                                   rep_period=12.2, n_pulses=400_000)
        h = simulate_histogram(scn, RngSpec(seed=24), window_periods=5)
        far = peak_areas(h, 3.35, 6, first_side_peak=2)
        assert far.g2_indist == pytest.approx(0.0, abs=1e-4)
        near = peak_areas(h, 3.35, 2, first_side_peak=1)
        # +/-1 repetition peaks carry 3/4 of the far-peak coincidence rate
        ratio = near.side_average / far.side_average
        assert ratio == pytest.approx(0.75, abs=0.01)

    def test_detector_efficiency_thins_pairs(self):
        scn_full = remote_scenario(60_000)
        scn_half = remote_scenario(60_000, detector=DetectorModel(efficiency=0.5))
        h_full = simulate_histogram(scn_full, RngSpec(seed=25), window_periods=4)
        h_half = simulate_histogram(scn_half, RngSpec(seed=25), window_periods=4)
        ratio = h_half.total_events / h_full.total_events
        assert ratio == pytest.approx(0.25, abs=0.01)  # pairs scale with efficiency^2

    def test_timing_jitter_broadens_side_peaks(self):
        jit = 0.4
        scn_sharp = remote_scenario(60_000)
        scn_blur = remote_scenario(60_000, detector=DetectorModel(timing_jitter_sigma=jit))
        h_sharp = simulate_histogram(scn_sharp, RngSpec(seed=26), window_periods=4)
        h_blur = simulate_histogram(scn_blur, RngSpec(seed=26), window_periods=4)

        def peak_second_moment(h):
            c = h.bin_centers()
            sel = np.abs(c - 12.2) < 3.0
            w = h.counts[sel].astype(float)
            x = c[sel] - 12.2
            mu = np.average(x, weights=w)
            return np.average((x - mu) ** 2, weights=w)

        var_increase = peak_second_moment(h_blur) - peak_second_moment(h_sharp)
        assert var_increase == pytest.approx(2 * jit ** 2, rel=0.25)

    def test_dark_counts_raise_background_floor(self):
        scn = remote_scenario(60_000, detector=DetectorModel(dark_rate=0.02))
        h = simulate_histogram(scn, RngSpec(seed=27), window_periods=4)
        scn0 = remote_scenario(60_000)
        h0 = simulate_histogram(scn0, RngSpec(seed=27), window_periods=4)
        c = h.bin_centers()
        between = np.abs(c - 6.1) < 2.0  # region between coincidence peaks
        dark_floor = h.counts[between].sum()
        tail_floor = h0.counts[between].sum()  # peak tails only
        assert dark_floor > 10 * max(tail_floor, 1)

    def test_histogram_accounting(self):
        scn = remote_scenario(30_000)
        h = simulate_histogram(scn, RngSpec(seed=28))
        assert int(h.counts.sum()) == h.total_events
        assert h.counts.dtype == np.int64

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            InterferenceScenario(mode="bogus", pair=PairSpec(tau_r=1.0), rep_period=12.2)
        with pytest.raises(ValueError):
            InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=1.0), rep_period=0.0)
        with pytest.raises(ValueError):
            InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=1.0),
                                 rep_period=12.2, intra_delay=13.0)
        with pytest.raises(ValueError):
            InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=1.0),
                                 rep_period=12.2, n_pulses=0)
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.0)
        for kw in ({"rep_period": math.inf}, {"rep_period": math.nan},
                   {"emission_jitter": math.nan}, {"emission_jitter": math.inf}):
            with pytest.raises(ValueError):
                InterferenceScenario(**{"mode": MODE_REMOTE, "pair": PairSpec(tau_r=1.0),
                                        "rep_period": 12.2, **kw})
        for kw in ({"efficiency": math.nan}, {"timing_jitter_sigma": math.nan},
                   {"timing_jitter_sigma": math.inf}, {"dark_rate": math.nan},
                   {"dark_rate": math.inf}):
            with pytest.raises(ValueError):
                DetectorModel(**kw)


class TestHbtPurity:
    def test_pure_single_photon_source(self):
        scn = remote_scenario(200_000, pair=PairSpec(tau_r=0.67))
        h = simulate_hbt_purity(0.0, scn, RngSpec(seed=31), window_periods=4)
        rep = peak_areas(h, 3.35, 6)
        assert rep.central_area == 0

    def test_admixture_recovered(self):
        p = multi_photon_prob_for_g2(0.05)
        scn = remote_scenario(1_000_000, pair=PairSpec(tau_r=0.67))
        h = simulate_hbt_purity(p, scn, RngSpec(seed=32), window_periods=4)
        rep = peak_areas(h, 3.35, 6)
        assert abs(rep.g2_indist - 0.05) < 3 * rep.g2_indist_err

    def test_analytic_inverse_round_trip(self):
        for g in (0.003, 0.023, 0.05, 0.3):
            p = multi_photon_prob_for_g2(g)
            assert hbt_analytic_g2(p) == pytest.approx(g, rel=1e-12)
        assert multi_photon_prob_for_g2(0.0) == 0.0
        with pytest.raises(ValueError):
            multi_photon_prob_for_g2(0.6)


class TestAnalyticReferences:
    def test_cross_polarized_reference(self):
        scn = InterferenceScenario(mode=MODE_CROSS_POLARIZED, pair=PairSpec(tau_r=0.67),
                                   rep_period=12.5, n_pulses=1)
        assert analytic_visibility(scn) == 0.0
        assert analytic_g2_indist(scn) == 0.5

    def test_remote_reference_equals_quadrature(self):
        scn = remote_scenario(1)
        assert analytic_visibility(scn) == pytest.approx(0.364, abs=1e-8)

    def test_extreme_jitter_and_detuning_stay_finite(self):
        # from sigma_g at the smallest subnormal (x = 1/(2 tau_r sigma_g)
        # overflows) to 1e300, and detunings up to 1e150 rad/ns
        tau_r = 0.67
        for sg in (5e-324, 1e-300, 1e-200, 1e-20, 1e-8, 1.0, 1e8, 1e100, 1e300):
            undetuned = visibility_inhom_direct(tau_r, sg)
            for d0 in (0.0, 1.0, -1.0, 1e3, -1e3, 1e150, -1e150):
                scn = remote_scenario(1, pair=PairSpec(tau_r=tau_r, delta0=d0, sigma_g=sg))
                v = analytic_visibility(scn)
                assert math.isfinite(v) and 0.0 <= v <= undetuned + 1e-15, (sg, d0, v)
                if tau_r * sg <= 1e-8:
                    assert v == pytest.approx(1.0 / (1.0 + (tau_r * d0) ** 2), abs=1e-13), (sg, d0)

    def test_visibility_at_arrays(self):
        scn = remote_scenario(1)
        sg = np.array([0.0, 0.5, 2.0, 0.0])
        d0 = np.array([0.0, 1.0, -3.0, 1e200])
        v = analytic_visibility_at(scn, 0.25, d0, sg)
        for i in range(sg.size):
            point = replace(scn, pair=replace(scn.pair, delta_tau=0.25, delta0=d0[i], sigma_g=sg[i]))
            assert v[i] == pytest.approx(analytic_visibility(point), rel=1e-15, abs=0.0)
        assert v[3] == 0.0  # (tau_r delta0)^2 overflows: the Lorentzian is 0
        cross = replace(scn, mode=MODE_CROSS_POLARIZED)
        assert np.array_equal(analytic_visibility_at(cross, 0.0, d0, sg), np.zeros(4))
        for bad in ((0.0, 0.0, [1.0, -1e-3]), ([0.0, float("nan")], 0.0, 1.0),
                    (0.0, [float("inf"), 0.0], 0.0), (0.0, 0.0, [0.0, float("nan")])):
            with pytest.raises(ValueError):
                analytic_visibility_at(scn, *bad)

    def test_visibility_at_zero_jitter_is_the_lorentzian(self):
        # sigma_g = 0 runs through the Voigt kernel like every other row;
        # the reference is exact for the product a = tau_r delta0 it sees.
        # Below the smallest normal float the tolerance is absolute, and
        # where 1/a^2 underflows even the subnormals the value is 0
        scn = remote_scenario(1)
        tau_r = scn.pair.tau_r
        up = np.concatenate([np.geomspace(1e-8, 1e300, 3001), [1e155, 1e160, 1e162, 1e200]])
        d0 = np.concatenate([np.linspace(-20.0, 20.0, 4001), up, -up])
        v = analytic_visibility_at(scn, 0.0, d0, 0.0)
        with mpmath.workdps(40):
            ref = np.array([float(1 / (1 + mpmath.mpf(tau_r * d) ** 2)) for d in d0])
        assert np.all(np.abs(v - ref) <= 4.5e-16 * np.maximum(ref, np.finfo(float).tiny))
        assert np.all(v[np.abs(tau_r * d0) > 1e162] == 0.0)

    def test_jitter_factorization(self):
        # emission jitter multiplies the frequency-ensemble visibility
        pair = PairSpec(tau_r=0.67, sigma_g=1.0)
        s0 = InterferenceScenario(mode=MODE_REMOTE, pair=pair, rep_period=12.2,
                                  n_pulses=1)
        s1 = InterferenceScenario(mode=MODE_REMOTE, pair=pair, rep_period=12.2,
                                  n_pulses=1, emission_jitter=0.3)
        from homsim.model import time_jitter_overlap_factor
        f = time_jitter_overlap_factor(0.67, 0.0, 0.3)
        assert analytic_visibility(s1) == pytest.approx(f * analytic_visibility(s0), rel=1e-12)

    def test_monte_carlo_agrees_with_jittered_reference(self):
        pair = PairSpec(tau_r=0.67, sigma_g=0.3)
        scn = InterferenceScenario(mode=MODE_CONSECUTIVE, pair=pair, rep_period=12.2,
                                   emission_jitter=0.2, n_pulses=400_000)
        h = simulate_histogram(scn, RngSpec(seed=33), window_periods=6)
        rep = peak_areas(h, 7 * 0.67, 6, first_side_peak=2)
        ref = analytic_g2_indist(scn)
        assert abs(rep.g2_indist - ref) < 4 * rep.g2_indist_err
