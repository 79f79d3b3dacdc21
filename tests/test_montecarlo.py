import hashlib
import math
import re
import sys
import threading
import types
from concurrent.futures import Future
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
    _sample_meeting_pairs,
    _simulate_block,
    _splits,
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
    """A Generator that counts its exponential calls and the normal
    variates it draws."""

    def __init__(self, g):
        self._g = g
        self.exponential_calls = self.normal_calls = self.normals = 0

    def __getattr__(self, name):
        return getattr(self._g, name)

    def exponential(self, *args):
        self.exponential_calls += 1
        return self._g.exponential(*args)

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
    def test_parallel_equals_serial_bitwise(self, monkeypatch, mode):
        # three pulse blocks through a lossy detector with jitter and dark
        # counts, on four usable cores: n_jobs 4 and the default (every
        # usable core) both run them on three threads
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
        det = DetectorModel(efficiency=0.3, timing_jitter_sigma=0.05, dark_rate=1e-4)
        scn = InterferenceScenario(mode=MODE_REMOTE if mode == "hbt" else mode,
                                   pair=PairSpec(tau_r=0.67, sigma_g=SIGMA_REMOTE),
                                   rep_period=12.2, emission_jitter=0.1, n_pulses=150_000,
                                   detector=det)
        run = partial(simulate_hbt_purity, 0.05) if mode == "hbt" else simulate_histogram
        rng = RngSpec(seed=42)
        h1 = run(scn, rng, window_periods=4, n_jobs=1)
        h4 = run(scn, rng, window_periods=4, n_jobs=4)
        default = run(scn, rng, window_periods=4)
        assert h1.total_events > 0
        assert np.array_equal(h1.counts, h4.counts)
        assert np.array_equal(h1.counts, default.counts)

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
                acc += _simulate_block(route, scn, rng, c, full.window_halfspan(),
                                       full.bin_width, full.counts.size)
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
        # n_jobs has no upper bound in the config; a run uses at most one
        # thread per block and per usable core, the calling thread one of
        # them, so the pool is given workers - 1 tasks (none for one
        # worker). Here the OS reports no affinity mask and the installed
        # count is used. The stand-in pool runs each task in the calling thread.
        submitted = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            @staticmethod
            def submit(fn):
                submitted.append(fn)
                future = Future()
                future.set_result(fn())
                return future

        def no_thread(self):
            raise AssertionError("started a thread")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(montecarlo, "os", types.SimpleNamespace(cpu_count=lambda: cores))
        scn = remote_scenario(3 * CHUNK_PULSES - 5)
        rng = RngSpec(seed=47)
        wide = simulate_histogram(scn, rng, window_periods=4, n_jobs=10 ** 9)
        assert len(submitted) == workers - 1
        serial = simulate_histogram(scn, rng, window_periods=4, n_jobs=1)
        assert np.array_equal(wide.counts, serial.counts)

    def test_usable_cores_read_the_affinity_mask(self, monkeypatch):
        # a process pinned to one CPU of 64 runs in the calling thread alone
        pinned = types.SimpleNamespace(sched_getaffinity=lambda pid: {5}, cpu_count=lambda: 64)
        monkeypatch.setattr(montecarlo, "os", pinned)
        assert montecarlo._usable_cores() == 1

        def no_thread(self):
            raise AssertionError("started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        scn = remote_scenario(3 * CHUNK_PULSES - 5)
        assert simulate_histogram(scn, RngSpec(seed=47), window_periods=4).total_events > 0

    def test_two_jobs_start_one_thread(self, monkeypatch):
        # the calling thread is the second worker
        starts = []
        start = threading.Thread.start

        def counting_start(self):
            starts.append(self)
            start(self)

        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        scn = remote_scenario(3 * CHUNK_PULSES - 5)
        rng = RngSpec(seed=48)
        two = simulate_histogram(scn, rng, window_periods=4, n_jobs=2)
        serial = simulate_histogram(scn, rng, window_periods=4, n_jobs=1)
        assert len(starts) == 1
        assert np.array_equal(two.counts, serial.counts)

    def test_shared_block_queue_hands_out_each_block_once(self, monkeypatch):
        # eight threads on 200 stand-in blocks, switching threads as often
        # as the interpreter allows; stand-in block c counts one pair in bin
        # c, so a block taken twice or never shows in the sums
        taken = []

        def block(route, scenario, rng, chunk_index, halfspan, bin_width, nbins):
            taken.append(chunk_index)
            counts = np.zeros(nbins, dtype=np.int64)
            counts[chunk_index] = 1
            return counts

        monkeypatch.setattr(montecarlo, "_simulate_block", block)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 8)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            h = simulate_histogram(remote_scenario(200 * CHUNK_PULSES), RngSpec(seed=49),
                                   window_periods=4)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(taken) == list(range(200))
        assert h.total_events == 200 and h.counts[:200].tolist() == [1] * 200

    def test_rng_spec_validation(self):
        # 2.5 used to raise a TypeError from SeedSequence, and True was accepted
        for field, bad in (("seed", -1), ("seed", 2 ** 64), ("stream_id", -1), ("stream_id", 2 ** 32),
                           *((f, v) for f in ("seed", "stream_id") for v in (2.5, 3.0, True, "3", None))):
            with pytest.raises(ValueError, match=f"^{field} must be a .*, got {bad!r}$"):
                RngSpec(**{"seed": 1, field: bad})
        assert RngSpec(np.uint64(2 ** 64 - 1), np.int32(3)) == RngSpec(2 ** 64 - 1, 3)


PINNED_CONFIGS = {MODE_REMOTE: "remote-qd.json", MODE_CONSECUTIVE: "p-shell.json",
                  MODE_DOUBLE_PULSE: "double-pulse-rf.json",
                  MODE_CROSS_POLARIZED: "cross-polarized.json", "hbt": "p-shell.json"}
LOSSY_DETECTOR = DetectorModel(efficiency=0.3, timing_jitter_sigma=0.05, dark_rate=1e-4)
PINNED_VERSION = "0.15.3"  # the package version that pinned or last confirmed PINNED_SHA256
PINNED_SHA256 = {  # sha256 of the int64 counts' bytes
    (MODE_REMOTE, False): "b11b4158f4410d4fd7ad102f1adfc907f36fa41e57013dab10821698c47284b0",
    (MODE_REMOTE, True): "3c96ad2447ee050937ed36f193c2acb9b4328aba38666f6f023ae4894736c6e3",
    (MODE_CONSECUTIVE, False): "c62d25368cf0d26d9722a10fdf08da4b52bfdcd04b083971bf8f0e45101e5410",
    (MODE_CONSECUTIVE, True): "96408b713f02716ace17a3483c61cdef1062f41981a949f6b5b26f2b1431bf94",
    (MODE_DOUBLE_PULSE, False): "0eeb195f33f11956cd4e7f2f6a9abf0bea5a552e10ae06beeabb76960985360e",
    (MODE_DOUBLE_PULSE, True): "b944686b2e519f17beb0154c714f2f376d0d12b3ee90e6ecf67910b6c4bb4f49",
    (MODE_CROSS_POLARIZED, False): "59843641c47eebe14ccbc78a8c299e8eeb1eb22233b0eb5517752f0c3e74e889",
    (MODE_CROSS_POLARIZED, True): "504be786561c9c3c15f62fc1eefaaf9ace73e24011ca885dfd345c2dd5ae1360",
    ("hbt", False): "b0a942fca4e443ca179a465a3d27d9103534cff9d4da2c2ac7ba4d9bac400779",
    ("hbt", True): "5d1c9842dabf4a8ab7ed6b8f611b13a15f5ceb3bcdfba8fab5d78f9d8dffce97",
}
EDGE_PAIRS = {  # remote PairSpec fields beside tau_r = 0.67, and the emission jitter
    "sigma_g=1e200": ({"sigma_g": 1e200}, 0.0),  # the phase is not finite
    "delta0=1e30": ({"sigma_g": SIGMA_REMOTE, "delta0": 1e30}, 0.0),
    "delta0=1e39": ({"sigma_g": SIGMA_REMOTE, "delta0": 1e39}, 0.0),  # past the float32 range
    "sigma_g=50": ({"sigma_g": 50.0}, 0.0),  # large phases
    "dead-packets": ({"sigma_g": SIGMA_REMOTE, "delta_tau": 0.5}, 0.2),
}
EDGE_SHA256 = {  # pinned with PINNED_SHA256: (sampled pairs, histogram counts)
    "sigma_g=1e200": ("02de733e3b15025ae4fe9529e961930c5be732dc67a3b91dbc119f1c3d363286",
                      "25924be5d78d344a4505b5e3a4d8c0d08cdacd4dfacf8caa54bb4138c50b5418"),
    "delta0=1e30": ("e372d48209ca54a9e07dbf0e5157af40f68453c4162f02f8c175c1bf6375859f",
                    "91ceed26e5f605cfdcb1993a3b765554a9e8fcf1d476282c78ab9f5c6e0bd7f6"),
    "delta0=1e39": ("fcf90c12fb4b99cb0c9ffccb235ec49c3cd3ca54ee252a0407357f3c18b4bc86",
                    "e0e8499cf256937662ec5cff87c9b11d17529d08071d0be93313aaf16dc49a60"),
    "sigma_g=50": ("cd976717e00d374b21f268bcaf488af17e0b47b9dcbe3e270d1513f5e9105fcf",
                   "bc3aaa1dc0101b0f89284b3dbe04bef0e56fced621e30d8878d6e83250546a5f"),
    "dead-packets": ("cce850f5cb0b19674ecbb2373cfc8a5683355069430fabe45614f39962a02dbf",
                     "7ea525acf743f5412d8941f311466a4d98aa213e8f08520f2701b17e6005008b"),
}


ROUTE_SHA256 = {  # pinned at 0.15.1 with route_digest, before its two routes became one
    MODE_CONSECUTIVE: "5e56a9063ec1d92161df210be247f5addfe32a865f7123afffe0de7290966766",
    MODE_DOUBLE_PULSE: "634885d4dce5ad22225ca1959ca9ace0c5bf6fdd7368eb8806ec7363f0e5c8e1",
    MODE_CROSS_POLARIZED: "6ada657440b991fdc2be117a8d02e564b5cdf11e7d81f251ee4515d5b8e42ffa",
}


def route_digest(mode):
    """sha256 over the cases, in order, of _mode_detections' times and
    ports bytes and the stream's next g.random(4): delta_tau 0.3, -1.7 and
    13 (past the 12.5 ns period), emission jitter 0 and 0.2 ns, blocks of 1
    and CHUNK_PULSES pulses, each drawn from block 3's stream at seed 31."""
    h = hashlib.sha256()
    T, block = 12.5, 3
    for off in (0.3, -1.7, 13.0):
        for jitter in (0.0, 0.2):
            pair = PairSpec(tau_r=0.67, delta_tau=off, delta0=0.1, sigma_g=0.3)
            scn = InterferenceScenario(mode=mode, pair=pair, rep_period=T, intra_delay=3.3,
                                       emission_jitter=jitter)
            for n in (1, CHUNK_PULSES):
                g = _chunk_rng(RngSpec(seed=31), block)
                pulse_t = block * CHUNK_PULSES * T + np.arange(n) * T
                times, ports = _mode_detections(_ROUTES[mode], scn, g, pulse_t)
                h.update(times.tobytes() + ports.tobytes() + g.random(4).tobytes())
    return h.hexdigest()


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

    @pytest.mark.parametrize("case", list(EDGE_PAIRS))
    def test_sampler_edge_cases_are_pinned(self, case):
        """Remote pairs whose phase is not finite, past the float32 range or
        large, and pairs whose earlier packet is dead at the later time:
        the sha256 of 50,000 sampled pairs (opposite_port, t_a, t_b bytes)
        and of a 100,000-pulse histogram's counts, both at seed 23."""
        pair, jitter = EDGE_PAIRS[case]
        scn = InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=0.67, **pair),
                                   rep_period=12.2, emission_jitter=jitter, n_pulses=100_000)
        b = sample_pair_events(scn, 50_000, RngSpec(seed=23))
        events = hashlib.sha256(b.opposite_port.tobytes() + b.t_a.tobytes() + b.t_b.tobytes())
        counts = hashlib.sha256(simulate_histogram(scn, RngSpec(seed=23)).counts.tobytes())
        assert (events.hexdigest(), counts.hexdigest()) == EDGE_SHA256[case]

    @pytest.mark.parametrize("mode", list(ROUTE_SHA256))
    def test_interferometer_route_is_pinned(self, mode):
        """_mode_detections of the one-emitter modes away from the bundled
        geometry: offsets of either sign and one past the period, with and
        without emission jitter, at a single pulse and a whole block."""
        assert route_digest(mode) == ROUTE_SHA256[mode]


class TestPairEvents:
    @pytest.mark.parametrize("n", [-1, 2.5, True, "3", None])
    def test_n_not_an_integer_from_0_raises(self, n):
        # -1 crashed with numpy's "negative dimensions are not allowed", and
        # 2.5 and True with a TypeError
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got "):
            sample_pair_events(remote_scenario(), n, RngSpec(seed=7))

    @pytest.mark.parametrize("mode", [MODE_REMOTE, MODE_CROSS_POLARIZED])
    def test_n_of_any_integer_type_from_0(self, mode):
        scn = replace(remote_scenario(), mode=mode)
        assert len(sample_pair_events(scn, 0, RngSpec(seed=7))) == 0
        assert len(sample_pair_events(scn, np.int64(3), RngSpec(seed=7))) == 3

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
        p = (1.0 - analytic_visibility(scn)) / 2.0
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
    def test_split_decision_is_the_float64_one(self):
        # u at the float64 threshold p = (1 - c)/2 and one ulp either side,
        # and at multiples of the float32 screen's tolerance 2^-20 (1 + |phase|)
        # from it, for phases from 1e-3 to 1e300, multiples of pi, phases
        # that round to the float32 maximum or past it, +-inf and NaN
        f32max = float(np.finfo(np.float32).max)
        phases = np.concatenate([
            np.geomspace(1e-3, 1e300, 2_000), np.pi * np.arange(-40, 41),
            np.pi * np.array([1e3, 1e6 + 1, 1e9, 2.0 ** 40 + 1]),
            f32max * (1 + np.array([2.0 ** -26, 2.0 ** -25, 2.0 ** -24, 1e-6, 1e-3])),
            [f32max, 3.4028235e38, np.inf, -np.inf, np.nan, 0.0, -0.0]])
        phases = np.concatenate([phases, -phases])
        with np.errstate(invalid="ignore"):
            p = (1.0 - np.nan_to_num(np.cos(phases), nan=0.0)) / 2.0
        tol = np.fmin(2.0 ** -20 * (1.0 + np.abs(phases)), 1.0)  # NaN: 1
        steps = np.array([-1e3, -2.0, -1.01, -1.0, -0.99, -0.5, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3])
        u = np.concatenate([p, np.nextafter(p, -1.0), np.nextafter(p, 2.0),
                            *(np.clip(p + k * tol, 0.0, 1.0) for k in steps)])
        phase = np.tile(phases, u.size // phases.size)
        with np.errstate(invalid="ignore"):
            reference = u < (1.0 - np.nan_to_num(np.cos(phase), nan=0.0)) / 2.0
        assert np.array_equal(_splits(u, phase), reference)
        assert 0 < reference.sum() < reference.size

    @pytest.mark.parametrize("dtau", [0.0, -0.0, 1e-300, 0.3, -2.0, 500.0])
    def test_split_share_given_the_detuning(self, dtau):
        # at a fixed detuning the pairs split with probability
        # (1 - e^{-|dtau|/tau_r} / (1 + tau_r^2 delta^2)) / 2, from the
        # Fourier limit (tau_r delta = 1e-9) to full dephasing (1e6)
        tau_r, n = 0.67, 200_000
        g = np.random.Generator(np.random.SFC64(18))
        for x in (1e-9, 0.3, 1.0, 3.0, 1e6):
            opposite, t_a, t_b, _, _ = _sample_meeting_pairs(
                tau_r, np.full(n, dtau), np.full(n, x / tau_r), g)
            assert np.all(np.isfinite(t_a)) and np.all(np.isfinite(t_b))
            p = 0.5 * (1.0 - math.exp(-abs(dtau) / tau_r) / (1.0 + x * x))
            sd = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
            assert abs(opposite.mean() - p) < 4 * sd, (x, opposite.mean(), p)

    def test_delay_sign_is_a_fair_coin_at_an_offset(self):
        # at dtau = 5 ns = 7.5 tau_r almost every delay is near +-5 ns, and
        # which photon is detected first is a fair coin
        n = 200_000
        scn = remote_scenario(pair=PairSpec(tau_r=0.67, delta_tau=5.0, sigma_g=SIGMA_REMOTE))
        batch = sample_pair_events(scn, n, RngSpec(seed=19))
        assert abs((batch.tau > 0).mean() - 0.5) < 4 * math.sqrt(0.25 / n)

    @pytest.mark.parametrize("dtau", [0.3, 1.0, -2.0])
    def test_opposite_port_delay_density_at_an_offset(self, dtau):
        # opposite-port delays against n times the bin integrals of p_inhom,
        # which carries the split share (1 - e^{-|dtau|/tau_r} V)/2 and the
        # kinks at +-dtau
        n = 1_000_000
        pair = PairSpec(tau_r=0.67, delta_tau=dtau, sigma_g=SIGMA_REMOTE)
        batch = sample_pair_events(remote_scenario(pair=pair), n, RngSpec(seed=11))
        taus = batch.tau[batch.opposite_port]
        span = abs(dtau) + 6 * pair.tau_r
        edges = np.linspace(-span, span, 91)
        hist, _ = np.histogram(taus, bins=edges)
        xs = np.linspace(edges[:-1], edges[1:], 41, axis=1)
        expected = n * np.trapezoid(p_inhom(xs, pair), xs, axis=1)
        z = (hist - expected) / np.sqrt(np.maximum(expected, 1.0))
        assert np.abs(z).max() < 5.0
        assert float(np.sum(z ** 2)) < chi2_upper_quantile(edges.size - 1, 1e-4)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_remote_qd_block_draws_two_exponential_arrays(self, seed):
        # every remote-qd pulse is a meeting pair, and the pair sampler has
        # no loop that depends on the data: one exponential call for each
        # photon of all the pairs, whatever the seed
        scn = load_config(CONFIG_DIR / "remote-qd.json").scenario
        g = CountingGenerator(_chunk_rng(RngSpec(seed=seed), 0))
        times, _ = _mode_detections(_ROUTES[scn.mode], scn, g,
                                    np.arange(CHUNK_PULSES) * scn.rep_period)
        assert times.size == 2 * CHUNK_PULSES
        assert g.exponential_calls == 2

    def test_far_offset_wing_in_log_space(self):
        # dtau = 500 ns is 746 tau_r: e^{-dtau/tau_r} underflows, and the
        # delay is a Laplace density about dtau (median error tau_r/sqrt(n))
        n = 100_000
        scn = remote_scenario(pair=PairSpec(tau_r=0.67, delta_tau=500.0, sigma_g=SIGMA_REMOTE))
        batch = sample_pair_events(scn, n, RngSpec(seed=14))
        for arr in (batch.tau, batch.t_a, batch.t_b):
            assert np.all(np.isfinite(arr))
        assert abs(np.median(np.abs(batch.tau)) - 500.0) < 5 * 0.67 / math.sqrt(n)

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
                assert_correlate_matches(times, p, halfspan, bw, nbins)


def assert_correlate_matches(times, ports, halfspan, bin_width, nbins):
    counts = _correlate(times, ports, halfspan, bin_width, nbins)
    assert np.array_equal(counts, correlate_by_repeat(times, ports, halfspan, bin_width, nbins)[0])
    return counts, counts.sum()


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
        ref = (1.0 - analytic_visibility(scn)) / 2.0
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

    @pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, True, "3", None, CHUNK_PULSES * 2 ** 32 + 1])
    def test_n_pulses_not_an_integer_in_range_raises(self, n):
        # 2.5 and 3.0 used to raise a TypeError inside the block loop, and
        # True ran one pulse; the bound keeps block indices below 2^32
        with pytest.raises(ValueError, match=r"^n_pulses must be an integer from 1 to 281474976710656, got "):
            InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=1.0), rep_period=12.2,
                                 n_pulses=n)

    def test_n_pulses_bounds_are_accepted(self):
        for n in (1, np.int64(7), CHUNK_PULSES * 2 ** 32):
            scn = InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=1.0),
                                       rep_period=12.2, n_pulses=n)
            assert scn.n_pulses == n

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

    @pytest.mark.parametrize("simulate, kw, match", [
        (simulate_histogram, {"bin_width": 0.0}, r"^bin_width must be finite and > 0, got 0\.0$"),
        (simulate_histogram, {"bin_width": math.nan}, r"^bin_width must be finite and > 0, got nan$"),
        (simulate_histogram, {"rep_period": 1e308},
         r"^rep_period, bin_width and window_periods: the histogram would have inf bins "
         r"\(2 \* window_periods \* rep_period / bin_width \+ 1\), more than 10000001$"),
        (partial(simulate_hbt_purity, 0.05), {"dark_rate": 1e300},
         r"^dark_rate and rep_period: a block of 65536 pulses would draw 7\.99539e\+305 dark "
         r"counts per port \(dark_rate \* 65536 \* rep_period\), more than 1e\+06$"),
    ], ids=["bin-width-0", "bin-width-nan", "rep-period-1e308", "hbt-dark-rate-1e300"])
    def test_block_past_its_size_bounds_raises_before_simulating(self, monkeypatch, simulate, kw, match):
        # these crashed with ZeroDivisionError, a NaN-to-integer ValueError,
        # OverflowError in _run_blocks and numpy's "lam value too large"
        def no_block(*args, **kwargs):
            raise AssertionError("simulated a block past a size bound")

        monkeypatch.setattr(montecarlo, "_simulate_block", no_block)
        bin_width = kw.pop("bin_width", 0.128)
        scn = InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=0.67), n_pulses=1_000,
                                   rep_period=kw.pop("rep_period", 12.2), detector=DetectorModel(**kw))
        with pytest.raises(ValueError, match=match):
            simulate(scn, RngSpec(seed=1), bin_width=bin_width)

    @pytest.mark.parametrize("window_periods", [-1, 0, 1.5, 3.0, math.nan, True, "3"])
    @pytest.mark.parametrize("hbt", [False, True])
    def test_window_periods_not_an_integer_from_1_raises(self, monkeypatch, hbt, window_periods):
        # -1 crashed with numpy's "negative dimensions are not allowed", 0
        # gave a one-bin histogram and 1.5 was accepted
        monkeypatch.setattr(montecarlo, "_simulate_block", None)  # no block may run
        simulate = partial(simulate_hbt_purity, 0.05) if hbt else simulate_histogram
        scn = remote_scenario(1_000)
        match = rf"^window_periods must be an integer >= 1, got {re.escape(repr(window_periods))}$"
        with pytest.raises(ValueError, match=match):
            simulate(scn, RngSpec(seed=1), window_periods=window_periods)

    @pytest.mark.parametrize("n_jobs", [0, -3, 2.5, True, "2"])
    def test_n_jobs_not_none_or_an_integer_from_1_raises(self, monkeypatch, n_jobs):
        # 2.5 crashed with a TypeError where four cores are usable; 0 and -3
        # ran on one thread
        monkeypatch.setattr(montecarlo, "_simulate_block", None)  # no block may run
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
        match = rf"^n_jobs must be None or an integer >= 1, got {re.escape(repr(n_jobs))}$"
        with pytest.raises(ValueError, match=match):
            simulate_histogram(remote_scenario(3 * CHUNK_PULSES), RngSpec(seed=1), n_jobs=n_jobs)

    def test_window_periods_of_any_integer_type(self):
        scn = remote_scenario(1_000)
        h = simulate_histogram(scn, RngSpec(seed=1), window_periods=np.int64(2))
        assert h.counts.size == 2 * round(2 * 12.2 / 0.128) + 1
        with pytest.raises(ValueError, match="would have inf bins"):  # not an OverflowError
            simulate_histogram(scn, RngSpec(seed=1), window_periods=10 ** 400)

    def test_block_shape_at_its_bounds(self):
        # 2 round(half) + 1 bins, with half = window_periods * rep_period /
        # bin_width; both bounds are inclusive
        assert montecarlo._block_shape(5e6, 1.0, 1, 0.0) == (5e6 + 0.5, 10_000_001)
        assert montecarlo._block_shape(12.2, 0.128, 3, 0.0)[1] == 573
        with pytest.raises(ValueError, match="more than 10000001"):
            montecarlo._block_shape(5e6 + 0.75, 1.0, 1, 0.0)  # 10,000,003 bins
        rate = 1e6 / (CHUNK_PULSES * 1.0)
        assert montecarlo._block_shape(1.0, 0.128, 3, rate)[1] == 47
        with pytest.raises(ValueError, match="dark counts per port"):
            montecarlo._block_shape(1.0, 0.128, 3, math.nextafter(rate, math.inf))


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

    @pytest.mark.parametrize("p", [-1.0, -1e-300, 1.0 + 2 ** -52, 2.0, math.nan, math.inf])
    def test_analytic_g2_outside_probabilities_raises(self, p):
        # -1 divided by zero, 2 gave 0.444 and NaN gave NaN; the domain is
        # simulate_hbt_purity's
        with pytest.raises(ValueError, match=r"^multi_photon_prob must lie in \[0, 1\], got "):
            hbt_analytic_g2(p)
        scn = remote_scenario(1)
        with pytest.raises(ValueError, match=r"^multi_photon_prob must lie in \[0, 1\], got "):
            simulate_hbt_purity(p, scn, RngSpec(seed=1))

    def test_analytic_g2_at_the_domain_ends(self):
        assert hbt_analytic_g2(0.0) == 0.0
        assert hbt_analytic_g2(1.0) == 0.5


class TestAnalyticReferences:
    def test_cross_polarized_reference(self):
        scn = InterferenceScenario(mode=MODE_CROSS_POLARIZED, pair=PairSpec(tau_r=0.67),
                                   rep_period=12.5, n_pulses=1)
        assert analytic_visibility(scn) == 0.0
        assert (1.0 - analytic_visibility(scn)) / 2.0 == 0.5

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
            for mode in MODES:
                with pytest.raises(ValueError):
                    analytic_visibility_at(replace(scn, mode=mode), *bad)

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
        assert np.array_equal(v, visibility_inhom_direct(tau_r, 0.0, d0))

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
        ref = (1.0 - analytic_visibility(scn)) / 2.0
        assert abs(rep.g2_indist - ref) < 4 * rep.g2_indist_err


class TestTimeUnit:
    """Times x 2^k and rates x 2^-k leave every count and visibility
    bitwise: the simulator and the closed forms have no preferred unit."""

    KS = (-600, -10, 10, 600)

    @staticmethod
    def scaled(scn, k):
        s = math.ldexp(1.0, k)
        pair, det = scn.pair, scn.detector
        return replace(scn, rep_period=scn.rep_period * s, intra_delay=scn.intra_delay * s,
                       emission_jitter=scn.emission_jitter * s,
                       pair=replace(pair, tau_r=pair.tau_r * s, delta_tau=pair.delta_tau * s,
                                    delta0=pair.delta0 / s, sigma_g=pair.sigma_g / s),
                       detector=replace(det, timing_jitter_sigma=det.timing_jitter_sigma * s,
                                        dark_rate=det.dark_rate / s))

    @pytest.mark.parametrize("lossy", [False, True], ids=["own-detector", "lossy-detector"])
    @pytest.mark.parametrize("mode", list(PINNED_CONFIGS))
    def test_histograms_are_unit_covariant(self, mode, lossy):
        cfg = load_config(CONFIG_DIR / PINNED_CONFIGS[mode])
        scn = replace(cfg.scenario, n_pulses=20_000)
        if lossy:
            scn = replace(scn, detector=LOSSY_DETECTOR)
        run = partial(simulate_hbt_purity, 0.05) if mode == "hbt" else simulate_histogram

        def counts(k):
            return run(self.scaled(scn, k), RngSpec(seed=7), bin_width=math.ldexp(cfg.bin_width, k),
                       window_periods=cfg.window_periods).counts

        ref = counts(0)
        assert ref.sum() > 0
        for k in self.KS:
            assert np.array_equal(counts(k), ref), k
            assert analytic_visibility(self.scaled(scn, k)) == analytic_visibility(scn), k

    def test_sweep_is_unit_covariant(self):
        scn = replace(remote_scenario(1), emission_jitter=0.2)
        delta_tau = np.linspace(-2.0, 2.0, 9)[:, None, None]
        delta0 = np.linspace(-3.0, 3.0, 7)[:, None]
        sigma_g = np.array([0.0, 0.3, 2.0, 40.0])
        ref = analytic_visibility_at(scn, delta_tau, delta0, sigma_g)
        for k in self.KS:
            s = math.ldexp(1.0, k)
            v = analytic_visibility_at(self.scaled(scn, k), delta_tau * s, delta0 / s, sigma_g / s)
            assert np.array_equal(v, ref), k
