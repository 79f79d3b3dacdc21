"""The three workloads: inputs made from the seed, one round of calls into
homsim, and the checks of every round's outputs against oracles.py.

A round always makes the same calls and the same checks, so the share of
failed checks is the same in every run. Each check is one operation.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import oracles as orc

Z_MAX = 5.0             # histogram and pair-sampler checks: |MC - oracle| <= 5 sigma
ESTIMATOR_RTOL = 5e-3   # reported g2 vs the exact-window integral of the same histogram
SWEEP_ATOL = 1e-9       # analytic sweep vs the frequency-domain oracle
FIT_NOISELESS_RTOL = 1e-6
FIT_NOISY_K = 6.0       # noisy fits: |p - p_true| <= 6 standard errors at the known noise

# Checks that fail on every input because of a named program fault: the
# peak-area estimator sums bins by centre, so a window whose centre is off
# the bin grid covers a different width from the central one. They count as
# failed operations; any other failed check makes the run incorrect.
KNOWN_FAULTS = frozenset({"double-pulse.estimator", "cross-polarized.estimator", "hbt.estimator"})

PAIRS = 65_536          # pairs per sample_pair_events call (one pulse block)
REMOTE_PULSES = 2_000_000
MODE_PULSES = 1_000_000
HBT_PULSES = 3_000_000
DETECTOR = {"efficiency": 0.6, "timing_jitter_sigma_ns": 0.03, "dark_rate_per_ns": 0.0}
HBT_DARK_RATE = 1e-4    # per ns and port
HBT_MULTI_PHOTON = 0.05
HBT_SIDE_LAGS = (1, 2, 3)
SWEEP_POINTS = 501
SWEEP_CHECK_EVERY = 41
SWEEPS = [("detuning", -4.558, 4.558), ("sigma_g", 0.25, 6.0),
          ("temperature-proxy", 0.0, 40.0), ("delta_t", -3.0, 3.0)]
NOISY_COPIES = 6        # per fit model and round
FITS = [  # model, bundled CSV, generating values, noise (absolute or relative), fitted parameters
    ("hom_dip", "hom-dip-example.csv", {"v": 0.69, "tau_m": 0.63}, ("abs", 0.003), 2),
    ("michelson", "michelson-example.csv", {"tau_c1": 0.33, "tau_c2": 0.18}, ("abs", 0.002), 4),
    ("exp_decay", "lifetime-example.csv", {"tau_r": 0.67}, ("rel", 0.01), 2),
]


class Context:
    """Where a run reads the bundled files and writes its inputs and outputs."""

    def __init__(self, root: Path, out: Path, seed: int, homsim):
        self.root = root
        self.out = out
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.h = homsim
        (out / "inputs").mkdir(parents=True, exist_ok=True)

    def bundled(self, name):
        return self.root / "src" / "homsim" / "configs" / name

    def config(self, base, tag, **over):
        raw = json.loads(self.bundled(base + ".json").read_text(encoding="utf-8"))
        for k, v in over.items():
            if isinstance(v, dict):
                raw.setdefault(k, {}).update(v)
            else:
                raw[k] = v
        path = self.out / "inputs" / f"{tag}.json"
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path, raw

    def program_seed(self):
        return int(self.rng.integers(1, 2 ** 62))


class Round:
    """What one round did: the timed body, the calls the metrics use, and
    the checks (name, passed)."""

    def __init__(self):
        self.wall = 0.0
        self.units = 0.0       # work units of the serial calls
        self.units_s = 0.0     # time of the serial calls
        self.calls = []        # latencies of the workload's call_ms calls
        self.coincidences = 0
        self.bytes_written = 0
        self.checks = []

    def check(self, name, result):
        """result: bool, or (bool, the figure the check compared)."""
        ok, figure = result if isinstance(result, tuple) else (result, None)
        self.checks.append((name, bool(ok), figure))


def _timed(tr, name, fn, *args, **kwargs):
    t0 = time.perf_counter()
    res = tr.call(name, fn, *args, **kwargs)
    return res, time.perf_counter() - t0


def _dir_bytes(path):
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    return sum(f.stat().st_size for f in p.iterdir() if f.is_file()) if p.is_dir() else 0


class SimulatedRun:
    """One `homsim simulate` config, its oracle (built on first use) and its
    checks."""

    def __init__(self, ctx, tag, base, geom, **over):
        self.ctx = ctx
        self.geom = geom
        self.cfg_path, self.raw = ctx.config(base, tag, **over)
        self.out = ctx.out / tag
        self.expected = None

    def reseed(self, seed):
        self.raw["rng"] = {"seed": seed, "stream_id": 0}
        self.cfg_path.write_text(json.dumps(self.raw, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")

    def run(self, tr, rnd):
        rc, dt = _timed(tr, "cli.main", self.ctx.h.cli.main,
                        ["simulate", "--config", str(self.cfg_path), "--out", str(self.out)])
        rnd.bytes_written += _dir_bytes(self.out)
        self.rc = rc
        return dt

    def results(self):
        summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
        counts = np.loadtxt(self.out / "histogram.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
        return summary, counts, summary["effective_config"]["histogram"]["bin_width_ns"]

    def peak_centres(self, summary):
        r = self.raw
        W = summary["results"]["window_halfwidth_ns"]
        if self.geom in ("double-pulse", "cross-polarized"):
            d = r["intra_delay_ns"]
            return W, [d, -d], "sum"
        T = r["rep_period_ns"]
        n_side = r.get("analysis", {}).get("n_side_peaks", 6)
        first = 2 if self.geom == "consecutive" else 1
        return W, [s * k * T for k in range(first, first + n_side // 2) for s in (1, -1)], "mean"

    def build_oracle(self, summary, counts, bw):
        r = self.raw
        det = r["detector"]
        self.expected, _ = orc.expected_histogram(
            self.geom, tau_r=r["tau_r_ns"], rep_period=r["rep_period_ns"],
            n_pulses=r["n_pulses"], chunk=summary["provenance"]["chunk_pulses"],
            bin_width=bw, nbins=counts.size, sigma_g=r.get("sigma_g_rad_per_ns", 0.0),
            delta0=r.get("delta0_rad_per_ns", 0.0), emission_jitter=r.get("emission_jitter_ns", 0.0),
            efficiency=det["efficiency"], detector_jitter=det["timing_jitter_sigma_ns"],
            intra_delay=r.get("intra_delay_ns", 2.0))

    def check(self, rnd, label):
        if self.rc != 0:
            rnd.check(f"{label}.histogram", (False, f"exit code {self.rc}"))
            rnd.check(f"{label}.estimator", (False, f"exit code {self.rc}"))
            return
        summary, counts, bw = self.results()
        rnd.coincidences += int(summary["results"]["total_pairs"])
        if self.expected is None:
            self.build_oracle(summary, counts, bw)
        W, sides, ref = self.peak_centres(summary)
        rnd.check(f"{label}.histogram", histogram_ok(counts, self.expected, bw, W, sides, ref))
        rnd.check(f"{label}.estimator",
                  estimator_ok(summary["results"]["g2_indist"]["monte_carlo"], counts, bw, W, sides, ref))


def histogram_ok(counts, expected, bw, W, sides, ref, baseline=0.0):
    """Whole-bin peak sums of the simulated histogram against the same sums
    of the expected histogram, within Z_MAX Poisson sigma."""
    c_mc = orc.whole_bin_areas(counts, bw, [0.0], W, baseline)[0]
    s_mc = orc.whole_bin_areas(counts, bw, sides, W, baseline)
    c_ex = orc.whole_bin_areas(expected, bw, [0.0], W, baseline)[0]
    s_ex = orc.whole_bin_areas(expected, bw, sides, W, baseline)
    var_c = orc.whole_bin_areas(expected, bw, [0.0], W)[0]
    var_s = orc.whole_bin_areas(expected, bw, sides, W)
    r_ex, sigma = orc.ratio_and_sigma(c_ex, s_ex, var_c, var_s, ref)
    r_mc = orc.ratio(c_mc, s_mc, ref)
    z = (r_mc - r_ex) / sigma
    return abs(z) <= Z_MAX, f"ratio {r_mc:.5f} oracle {r_ex:.5f} z {z:+.2f}"


def estimator_ok(g2_reported, counts, bw, W, sides, ref, baseline=0.0):
    """The reported g2 against the same histogram integrated over exactly
    +/-W around each peak centre."""
    c = orc.exact_window_areas(counts, bw, [0.0], W, baseline)[0]
    s = orc.exact_window_areas(counts, bw, sides, W, baseline)
    r = orc.ratio(c, s, ref)
    dev = g2_reported / r - 1.0
    return abs(dev) <= ESTIMATOR_RTOL, f"reported {g2_reported:.5f} exact-window {r:.5f} ({dev:+.3%})"


class PairSampler:
    """sample_pair_events at a scenario's pair physics; the opposite-port
    share must be (1 - F V)/2 with F the arrival-time overlap and V the
    frequency-domain visibility."""

    def __init__(self, ctx, cfg_path):
        h = ctx.h
        self.ctx = ctx
        self.scn = h.config.load_config(cfg_path).scenario
        pair = self.scn.pair
        if pair.delta_tau != 0:
            raise ValueError("the pair-sampler oracle assumes zero arrival offset")
        f = orc.time_overlap_var(pair.tau_r, 2.0 * self.scn.emission_jitter ** 2)
        v = orc.freq_visibility(pair.tau_r, pair.sigma_g, pair.delta0)
        self.p_opp = 0.5 * (1.0 - f * v)

    def run(self, tr):
        rng = self.ctx.h.RngSpec(seed=self.ctx.program_seed())
        self.batch, dt = _timed(tr, "montecarlo.sample_pair_events",
                                self.ctx.h.sample_pair_events, self.scn, PAIRS, rng)
        return dt

    def ok(self):
        b = self.batch
        share = float(np.mean(b.opposite_port))
        sigma = math.sqrt(self.p_opp * (1.0 - self.p_opp) / PAIRS)
        ports_ok = np.array_equal(b.opposite_port, b.port_a != b.port_b)
        z = (share - self.p_opp) / sigma
        return (len(b) == PAIRS and ports_ok and abs(z) <= Z_MAX,
                f"opposite share {share:.5f} oracle {self.p_opp:.5f} z {z:+.2f}")


class RemoteQD:
    """remote-qd.json at REMOTE_PULSES, at n_jobs 1 and 2, and the pair
    sampler at the same physics. Every pulse is a meeting pair."""

    name = "remote-qd"

    def __init__(self, ctx):
        self.ctx = ctx
        self.j1 = SimulatedRun(ctx, "remote-j1", "remote-qd", "remote", n_jobs=1,
                               n_pulses=REMOTE_PULSES)
        self.j2 = SimulatedRun(ctx, "remote-j2", "remote-qd", "remote", n_jobs=2,
                               n_pulses=REMOTE_PULSES)
        self.pairs = PairSampler(ctx, self.j1.cfg_path)

    def round(self, tr):
        seed = self.ctx.program_seed()
        self.j1.reseed(seed)
        self.j2.reseed(seed)
        rnd = Round()
        t1 = self.j1.run(tr, rnd)
        t2 = self.j2.run(tr, rnd)
        tp = self.pairs.run(tr)
        rnd.wall = t1 + t2 + tp
        rnd.units, rnd.units_s = REMOTE_PULSES, t1
        rnd.calls.append(t2)
        self.j1.check(rnd, "remote")
        same = (self.j1.rc == 0 and self.j2.rc == 0
                and (self.j1.out / "histogram.csv").read_bytes()
                == (self.j2.out / "histogram.csv").read_bytes())
        rnd.check("remote.determinism", same)
        rnd.check("remote.pairs", self.pairs.ok())
        return rnd


class PulseModes:
    """p-shell, double-pulse-rf and cross-polarized through the CLI and an
    HBT run with dark counts, all through a lossy detector with timing
    jitter, plus the pair sampler at p-shell physics.

    double-pulse, cross-polarized and HBT use fixed program seeds: their
    estimator checks fail on every input (peak windows that are off the bin
    grid), and a failure that is kept must not depend on the seed."""

    name = "pulse-modes"

    def __init__(self, ctx):
        common = dict(n_pulses=MODE_PULSES, detector=DETECTOR)
        self.runs = [
            ("p-shell", SimulatedRun(ctx, "p-shell", "p-shell", "consecutive", **common)),
            ("double-pulse", SimulatedRun(ctx, "double-pulse-rf", "double-pulse-rf", "double-pulse",
                                          **common)),
            ("cross-polarized", SimulatedRun(ctx, "cross-polarized", "cross-polarized",
                                             "cross-polarized", **common)),
        ]
        hbt_det = dict(DETECTOR, dark_rate_per_ns=HBT_DARK_RATE)
        hbt_path, _ = ctx.config("cross-polarized", "hbt", detector=hbt_det, n_pulses=HBT_PULSES,
                                 rng={"seed": 20140107, "stream_id": 0})
        self.ctx = ctx
        cfg = ctx.h.config.load_config(hbt_path)
        self.hbt_cfg = cfg
        self.hbt_sides = [s * k * cfg.scenario.rep_period for k in HBT_SIDE_LAGS for s in (1, -1)]
        self.hbt_expected = None
        self.pairs = PairSampler(ctx, self.runs[0][1].cfg_path)

    def _hbt(self, tr):
        """simulate_hbt_purity and peak_areas on its histogram; the oracle is
        built between the two, outside the timed calls."""
        h, cfg = self.ctx.h, self.hbt_cfg
        hist, t_sim = _timed(tr, "montecarlo.simulate_hbt_purity", h.simulate_hbt_purity,
                             HBT_MULTI_PHOTON, cfg.scenario, cfg.rng, bin_width=cfg.bin_width,
                             window_periods=cfg.window_periods)
        if self.hbt_expected is None:
            det = cfg.scenario.detector
            self.hbt_expected, self.hbt_baseline = orc.expected_histogram(
                "hbt", tau_r=cfg.scenario.pair.tau_r, rep_period=cfg.scenario.rep_period,
                n_pulses=cfg.scenario.n_pulses, chunk=h.montecarlo.CHUNK_PULSES,
                bin_width=cfg.bin_width, nbins=hist.counts.size,
                emission_jitter=cfg.scenario.emission_jitter, efficiency=det.efficiency,
                detector_jitter=det.timing_jitter_sigma, multi_photon_prob=HBT_MULTI_PHOTON,
                dark_rate=det.dark_rate)
        report, t_pa = _timed(tr, "analysis.peak_areas", h.peak_areas, hist,
                              cfg.analysis_window_halfwidth, len(self.hbt_sides),
                              baseline_per_bin=self.hbt_baseline)
        return hist, report, t_sim + t_pa

    def round(self, tr):
        self.runs[0][1].reseed(self.ctx.program_seed())
        rnd = Round()
        times = [run.run(tr, rnd) for _, run in self.runs]
        hist, report, t_hbt = self._hbt(tr)
        tp = self.pairs.run(tr)
        rnd.wall = sum(times) + t_hbt + tp
        rnd.units = 3 * MODE_PULSES + HBT_PULSES
        rnd.units_s = sum(times) + t_hbt
        rnd.calls.append(t_hbt)
        for label, run in self.runs:
            run.check(rnd, label)
        W = self.hbt_cfg.analysis_window_halfwidth
        rnd.coincidences += hist.total_events
        counts = hist.counts.astype(float)
        rnd.check("hbt.histogram", histogram_ok(counts, self.hbt_expected, hist.bin_width, W,
                                                self.hbt_sides, "mean", self.hbt_baseline))
        rnd.check("hbt.estimator", estimator_ok(report.g2_indist, counts, hist.bin_width, W,
                                                self.hbt_sides, "mean", self.hbt_baseline))
        rnd.check("p-shell.pairs", self.pairs.ok())
        return rnd


def _write_csv(path, rows, header):
    lines = [header] + [",".join(repr(float(x)) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class AnalyticFit:
    """Analytic sweeps over four axes of remote-detuning-sweep.json and the
    three fit models on the bundled curves and on seeded noisy copies."""

    name = "analytic-fit"

    def __init__(self, ctx):
        self.ctx = ctx
        self.cfg_path, raw = ctx.config("remote-detuning-sweep", "sweep",
                                        rng={"seed": ctx.program_seed(), "stream_id": 0})
        self.tau_r = raw["tau_r_ns"]
        self.sigma_g = raw["sigma_g_rad_per_ns"]
        self.delta0 = raw.get("delta0_rad_per_ns", 0.0)
        self.t_slope = raw["sweep"]["temperature_slope_uev_per_K"]
        self.t_ref = raw["sweep"]["temperature_ref_K"]
        self.offset = int(ctx.rng.integers(0, SWEEP_CHECK_EVERY))
        self.oracle = {axis: self._sweep_oracle(axis, lo, hi) for axis, lo, hi in SWEEPS}
        self.fits = []     # (model, csv path, generating values, degrees of freedom or None)
        self.noisy = []    # (csv path, data, noise kind and level, model)
        for model, csv_name, truth, noise, n_params in FITS:
            data = np.loadtxt(ctx.bundled(csv_name), delimiter=",", skiprows=1)
            clean = ctx.out / "inputs" / csv_name
            _write_csv(clean, data, "x,y")
            self.fits.append((model, clean, truth, None))
            for i in range(NOISY_COPIES):
                path = ctx.out / "inputs" / f"noisy-{i}-{csv_name}"
                self.fits.append((model, path, truth, len(data) - n_params))
                self.noisy.append((path, data, noise, model))

    def _write_noisy(self):
        """Fresh noise for every copy: each round fits new seeded data."""
        for path, data, (kind, level), model in self.noisy:
            x, y = data[:, 0], data[:, 1]
            err = np.full_like(y, level) if kind == "abs" else level * y
            noisy = y + err * self.ctx.rng.standard_normal(y.size)
            if model == "michelson":
                # contrast is 1 at zero delay by normalization and stays in [0, 1]
                noisy = np.clip(noisy, 0.0, 1.0)
                noisy[x == 0.0] = 1.0
            _write_csv(path, np.column_stack([x, noisy, err]), "x,y,y_error")

    def _sweep_oracle(self, axis, lo, hi):
        values = np.linspace(lo, hi, SWEEP_POINTS)
        idx = np.arange(self.offset, SWEEP_POINTS, SWEEP_CHECK_EVERY)
        vis = []
        for v in values[idx]:
            sg, d0, shift = self.sigma_g, self.delta0, 1.0
            if axis == "detuning":
                d0 = v
            elif axis == "sigma_g":
                sg = v
            elif axis == "temperature-proxy":
                d0 = (v - self.t_ref) * self.t_slope / orc.HBAR_UEV_NS
            else:  # delta_t: arrival offset multiplies by e^{-|dt|/tau_r}
                shift = math.exp(-abs(v) / self.tau_r)
            vis.append(shift * orc.freq_visibility(self.tau_r, sg, d0))
        return idx, values[idx], np.array(vis)

    def round(self, tr):
        h = self.ctx.h
        self._write_noisy()
        rnd = Round()
        sweep_rc = []
        for axis, lo, hi in SWEEPS:
            out = self.ctx.out / f"sweep-{axis}"
            rc, dt = _timed(tr, "cli.main", h.cli.main,
                            ["sweep", "--config", str(self.cfg_path), "--axis", axis,
                             f"--range={lo!r}:{hi!r}:{SWEEP_POINTS}", "--out", str(out)])
            rnd.bytes_written += _dir_bytes(out)
            rnd.wall += dt
            rnd.units_s += dt
            rnd.units += SWEEP_POINTS
            sweep_rc.append((axis, rc, out))
        fit_out = []
        for i, (model, path, _, _) in enumerate(self.fits):
            out = self.ctx.out / f"fit-{i}.json"
            rc, dt = _timed(tr, "cli.main", h.cli.main,
                            ["fit", "--model", model, "--data", str(path), "--out", str(out)])
            rnd.bytes_written += _dir_bytes(out)
            rnd.wall += dt
            rnd.calls.append(dt)
            fit_out.append((rc, out))

        for axis, rc, out in sweep_rc:
            rnd.check(f"sweep.{axis}", self._sweep_ok(axis, out) if rc == 0 else (False, f"exit code {rc}"))
        for (model, _, truth, dof), (rc, out) in zip(self.fits, fit_out):
            name = f"fit.{model}.{'clean' if dof is None else 'noisy'}"
            if rc != 0:
                rnd.check(name, (False, f"exit code {rc}"))
            else:
                rnd.check(name, _fit_ok(json.loads(out.read_text(encoding="utf-8")), truth, dof))
        return rnd

    def _sweep_ok(self, axis, out):
        data = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        idx, values, vis = self.oracle[axis]
        if data.shape != (SWEEP_POINTS, 4):
            return False, f"sweep.csv has shape {data.shape}"
        rows = data[idx]
        dev = max(float(np.max(np.abs(rows[:, 1] - vis))),
                  float(np.max(np.abs(rows[:, 2] - 0.5 * (1.0 - vis)))))
        ok = (np.all(np.abs(rows[:, 0] - values) <= 1e-12 * np.maximum(1.0, np.abs(values)))
              and dev <= SWEEP_ATOL and np.all(rows[:, 3] == 0.0))
        return bool(ok), f"{idx.size} points, largest deviation {dev:.2e}"


def _fit_ok(result, truth, dof):
    """Noiseless data (dof None): the generating values to
    FIT_NOISELESS_RTOL. Noisy data: within FIT_NOISY_K standard errors of
    them, at the known noise level. The fit scales its errors by the
    residual norm over sqrt(dof); undoing that keeps the scatter of the
    residuals from widening or narrowing the check."""
    figures = []
    ok = bool(result["converged"])
    for name, true in truth.items():
        p = result["parameters"][name]
        if dof is None:
            ok = ok and abs(p / true - 1.0) <= FIT_NOISELESS_RTOL
            figures.append(f"{name} {p:.10g}")
            continue
        se = result["standard_errors"][name] * math.sqrt(dof) / result["residual_norm"]
        z = (p - true) / se if math.isfinite(se) and se > 0 else math.inf
        ok = ok and abs(z) <= FIT_NOISY_K
        figures.append(f"{name} {p:.5g} z {z:+.2f}")
    return ok, ", ".join(figures) + ("" if result["converged"] else ", not converged")


WORKLOADS = {w.name: w for w in (RemoteQD, PulseModes, AnalyticFit)}
