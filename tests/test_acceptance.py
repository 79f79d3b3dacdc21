"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with -s to see them on success).
"""

import json
import time
from pathlib import Path

import mpmath
import numpy as np

from homsim.analysis import peak_areas
from homsim.cli import cmd_simulate
from homsim.fitting import fit_hom_dip, fit_michelson
from homsim.model import (
    PairSpec,
    central_peak_area_hom,
    coherence_integral,
    g2_hom_peak,
    michelson_contrast,
    p_inhom,
    sigma_for_visibility,
    sigma_from_coherence,
    visibility_hom,
    visibility_inhom_direct,
)
from homsim.montecarlo import (
    InterferenceScenario,
    MODE_REMOTE,
    RngSpec,
    analytic_visibility,
    multi_photon_prob_for_g2,
    simulate_hbt_purity,
    simulate_histogram,
)
from oracles_quadrature import (
    QuadratureSpec,
    integrate_1d,
    p_inhom_quadrature,
    visibility_inhom_closed,
    visibility_inhom_quadrature,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "homsim" / "configs"

TAU_R = 0.67  # ns, measured radiative decay time
TAU_C = 0.33  # ns, measured coherence time


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def visibility_frequency_oracle(tau_r, sigma_g):
    """Remote-pair visibility computed in the frequency domain, independently
    of the time-domain model: two lifetime-limited photons detuned by D have
    mode overlap |<xi1|xi2>|^2 = 1/(1 + tau_r^2 D^2) (two Lorentzians of
    width 1/tau_r), and quasi-static Gaussian jitter draws D ~ N(0, 2 sigma_g^2).
    The Gaussian average is done by mpmath quadrature at 30 digits."""
    with mpmath.workdps(30):
        tau_r, var = mpmath.mpf(tau_r), 2 * mpmath.mpf(sigma_g) ** 2
        f = lambda d: (mpmath.exp(-d ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)
                       / (1 + (tau_r * d) ** 2))
        return float(mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))


class TestCriterion1HomogeneousVisibility:
    def test_homogeneous_visibility_identity(self):
        v = visibility_hom(TAU_R, TAU_C)
        # averaged timing for the sub-millisecond budget
        t0 = time.perf_counter()
        for _ in range(100):
            visibility_hom(TAU_R, TAU_C)
        per_call = (time.perf_counter() - t0) / 100
        ok = (v == TAU_C / (2 * TAU_R)) and round(v, 3) == 0.246 and round(v, 2) == 0.25
        ok = ok and per_call < 1e-3
        assert report("criterion 1  homogeneous visibility identity", ok,
                      f"v = {v:.6f} (rounds to 0.246 / 25%), {per_call * 1e6:.1f} us/call")


class TestCriterion2CentralPeakAreaLimits:
    def test_area_limits_and_quadrature_agreement(self):
        t0 = time.perf_counter()
        a_dist = central_peak_area_hom(TAU_R, 2 * TAU_R * 1e-6)
        ok = abs(a_dist - 0.5) <= 1e-6
        ok = ok and central_peak_area_hom(TAU_R, 2 * TAU_R) == 0.0

        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
        worst = 0.0
        for v in (0.01, 0.1, 0.25, 0.5, 0.75, 1.0):
            tc = 2 * TAU_R * v
            span = 45.0 * TAU_R
            f = lambda t: g2_hom_peak(t, TAU_R, tc)
            raw = integrate_1d(f, -span, 0.0, spec) + integrate_1d(f, 0.0, span, spec)
            worst = max(worst, abs(central_peak_area_hom(TAU_R, tc) - raw / (2 * TAU_R)))
        ok = ok and worst <= 1e-9
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 1.0
        assert report("criterion 2  central-peak area limits", ok,
                      f"area(tc->0) = {a_dist:.8f}, closed-vs-quadrature worst = {worst:.2e}, "
                      f"{elapsed:.2f} s")


class TestCriterion3OracleEquivalence:
    def test_closed_form_vs_double_quadrature_grid(self):
        t0 = time.perf_counter()
        worst = 0.0
        for sg_tau in (0.1, 0.5, 1.0, 2.0, 5.0):
            pair = PairSpec(tau_r=TAU_R, sigma_g=sg_tau / TAU_R)
            for t_tau in (0.2, 0.5, 1.0, 2.0, 4.0):
                tau = t_tau * TAU_R
                diff = abs(p_inhom(tau, pair) - p_inhom_quadrature(tau, pair))
                worst = max(worst, diff)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-6 and elapsed < 30.0
        assert report("criterion 3  closed form vs double quadrature (5x5 grid)", ok,
                      f"worst |difference| = {worst:.2e}, {elapsed:.1f} s")


class TestCriterion4ConventionAudit:
    def test_convention_audit_report(self):
        t0 = time.perf_counter()
        lines = ["tau_r*sigma_g   closed(published)   direct(=1-2*int P)   quadrature"]
        ok = True
        for x in (0.01, 0.1, 0.5, 1.0, 5.0, 20.0):
            sg = x / TAU_R
            closed = visibility_inhom_closed(TAU_R, sg)
            direct = visibility_inhom_direct(TAU_R, sg)
            quad = visibility_inhom_quadrature(PairSpec(tau_r=TAU_R, sigma_g=sg))
            lines.append(f"{x:12.2f}   {closed:+.9f}        {direct:+.9f}        {quad:+.9f}")
            ok = ok and abs(quad - direct) <= 1e-9
            ok = ok and abs(closed - (2 * direct - 1)) <= 1e-12
        sg_inv = sigma_for_visibility(TAU_R, 0.364)
        quad_inv = visibility_inhom_quadrature(PairSpec(tau_r=TAU_R, sigma_g=sg_inv))
        ok = ok and abs(quad_inv - 0.364) <= 1e-8
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 10.0
        print("\n".join(lines))
        print(f"convention relations: published closed form = 2*V - 1 exactly; "
              f"the quadrature normalization V is authoritative.")
        print(f"V = 0.364 (the published model value) is reproduced by the direct/quadrature "
              f"convention at sigma_g = {sg_inv:.6f} rad/ns (g2_indist = {(1 - 0.364) / 2:.3f}).")
        assert report("criterion 4a convention audit grid", ok,
                      f"quadrature == direct to 1e-9 on all grid points; {elapsed:.1f} s")

    def test_quadrature_visibility_at_coherence_bridge(self):
        # (1) The coherence bridge. For identical remote emitters with Gaussian
        # jitter, V(sigma_g) = coherence_integral(tau_r, sigma_g)/(2 tau_r), so
        # at the jitter scale whose operational coherence time (integral of
        # |g1|^2) is the measured 330 ps the visibility must be
        # tau_c/(2 tau_r) = 0.246 -- checked against an independent
        # frequency-domain oracle. (2) The published model value. At the
        # bundled remote-QD operating point the visibility lies in the
        # [0.33, 0.40] bracket around the reported ~40%; the coherence time
        # that point implies is reported alongside. Both halves are checked on
        # the quadrature oracle and on the closed form the program runs.
        sg_bridge = sigma_from_coherence(TAU_R, TAU_C)
        quad = visibility_inhom_quadrature(PairSpec(tau_r=TAU_R, sigma_g=sg_bridge))
        direct = visibility_inhom_direct(TAU_R, sg_bridge)
        oracle = visibility_frequency_oracle(TAU_R, sg_bridge)
        identity = coherence_integral(TAU_R, sg_bridge) / (2 * TAU_R)
        expected = {"frequency-domain oracle": oracle,
                    "visibility_hom": visibility_hom(TAU_R, TAU_C),
                    "coherence_integral/(2 tau_r)": identity}
        bridge_ok = all(abs(quad - v) <= 1e-9 for v in expected.values())
        bridge_ok = bridge_ok and abs(direct - oracle) <= 1e-9

        cfg = json.loads((CONFIG_DIR / "remote-qd.json").read_text(encoding="utf-8"))
        tau_r, sg = cfg["tau_r_ns"], cfg["sigma_g_rad_per_ns"]
        v_op = visibility_inhom_quadrature(PairSpec(tau_r=tau_r, sigma_g=sg))
        v_op_direct = visibility_inhom_direct(tau_r, sg)
        tau_c_op = coherence_integral(tau_r, sg)
        in_bracket = 0.33 <= v_op <= 0.40
        direct_in_bracket = 0.33 <= v_op_direct <= 0.40
        report("criterion 4b coherence bridge and remote-QD visibility bracket",
               bridge_ok and in_bracket and direct_in_bracket,
               f"sigma_bridge = {sg_bridge:.6f} rad/ns -> quadrature V = {quad:.12f}, "
               f"direct V = {direct:.12f}, oracle {oracle:.12f}; remote-qd.json "
               f"sigma_g = {sg:.6f} rad/ns -> V = {v_op:.6f} (direct {v_op_direct:.6f}) "
               f"in [0.33, 0.40]: {in_bracket and direct_in_bracket}, implied operational "
               f"coherence time {tau_c_op:.6f} ns")
        assert abs(quad - identity) < 1e-9  # V(sigma) == coherence_integral/(2 tau_r)
        for name, v in expected.items():
            assert abs(quad - v) <= 1e-9, f"bridge V = {quad:.15f} != {name} = {v:.15f}"
        assert in_bracket, (
            f"visibility_inhom_quadrature at the remote-qd.json operating point "
            f"(tau_r = {tau_r} ns, sigma_g = {sg} rad/ns) = {v_op:.6f}, outside [0.33, 0.40]")
        assert abs(direct - oracle) <= 1e-9, (
            f"bridge visibility_inhom_direct = {direct:.15f} != frequency-domain oracle "
            f"= {oracle:.15f}")
        assert direct_in_bracket, (
            f"visibility_inhom_direct at the remote-qd.json operating point "
            f"(tau_r = {tau_r} ns, sigma_g = {sg} rad/ns) = {v_op_direct:.6f}, "
            f"outside [0.33, 0.40]")


class TestCriterion5MonteCarloConvergence:
    def test_remote_pair_g2_at_operating_point(self):
        t0 = time.perf_counter()
        sg = sigma_for_visibility(TAU_R, 0.364)
        pair = PairSpec(tau_r=TAU_R, sigma_g=sg)
        scn = InterferenceScenario(mode=MODE_REMOTE, pair=pair, rep_period=12.2,
                                   n_pulses=1_000_000)
        h = simulate_histogram(scn, RngSpec(seed=20140101), window_periods=4)
        rep = peak_areas(h, 7 * TAU_R, 6)  # wide window: truncation << stat error
        ref = (1.0 - analytic_visibility(scn)) / 2.0
        elapsed = time.perf_counter() - t0
        ok = abs(rep.g2_indist - ref) < 3 * rep.g2_indist_err
        ok = ok and 0.30 < rep.g2_indist < 0.33  # the published 0.31 +/- 0.01 scale
        ok = ok and elapsed < 60.0
        assert report("criterion 5  Monte Carlo remote-pair convergence", ok,
                      f"g2 = {rep.g2_indist:.4f} +/- {rep.g2_indist_err:.4f} vs analytic "
                      f"{ref:.4f} ({abs(rep.g2_indist - ref) / rep.g2_indist_err:.2f} sigma), "
                      f"1e6 pulses in {elapsed:.1f} s")


class TestCriterion6FitRecovery:
    def test_hom_dip_recovery_study(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260808)
        dt = np.linspace(-1.26, 1.26, 121)  # dense scan over +/-2 tau_m
        truth = 0.5 * (1 - 0.69 * np.exp(-np.abs(dt) / 0.63))
        weights = 1.0 / (0.05 * truth)
        hits = 0
        trials = 200
        for _ in range(trials):
            y = truth * (1 + 0.05 * rng.standard_normal(dt.size))
            r = fit_hom_dip(np.column_stack([dt, y]), weights=weights)
            if (abs(r.parameters["v"] - 0.69) <= 0.02
                    and abs(r.parameters["tau_m"] - 0.63) <= 0.03):
                hits += 1
        elapsed = time.perf_counter() - t0
        ok = hits >= int(0.95 * trials) and elapsed < 60.0
        assert report("criterion 6a interference-dip fit recovery", ok,
                      f"{hits}/{trials} trials within (+/-0.02, +/-30 ps), {elapsed:.1f} s")

    def test_michelson_recovery_study(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(41)
        dts = np.linspace(0.0, 1.2, 121)
        c = michelson_contrast(dts, 0.5, 0.5, 0.33, 0.18, 15.0)
        hits = 0
        trials = 100
        for _ in range(trials):
            y = np.clip(c * (1 + 0.03 * rng.standard_normal(c.size)), 0.0, 1.0)
            r = fit_michelson(np.column_stack([dts, y]))
            if (abs(r.parameters["tau_c1"] - 0.33) / 0.33 <= 0.05
                    and abs(r.parameters["tau_c2"] - 0.18) / 0.18 <= 0.05):
                hits += 1
        elapsed = time.perf_counter() - t0
        ok = hits >= int(0.95 * trials) and elapsed < 60.0
        assert report("criterion 6b Michelson coherence-time fit recovery", ok,
                      f"{hits}/{trials} trials within 5% of (330 ps, 180 ps), {elapsed:.1f} s")


class TestCriterion7PuritySimulation:
    def test_injected_admixtures_recovered(self):
        t0 = time.perf_counter()
        scn = InterferenceScenario(mode=MODE_REMOTE, pair=PairSpec(tau_r=TAU_R),
                                   rep_period=12.2, n_pulses=10_000_000)
        results = []
        ok = True
        for i, target in enumerate((0.05, 0.023, 0.003)):
            p = multi_photon_prob_for_g2(target)
            h = simulate_hbt_purity(p, scn, RngSpec(seed=3000 + i), window_periods=4)
            rep = peak_areas(h, 5 * TAU_R, 6)
            pull = abs(rep.g2_indist - target) / rep.g2_indist_err
            results.append(f"{target}: {rep.g2_indist:.5f}+/-{rep.g2_indist_err:.5f} "
                           f"({pull:.2f} sigma)")
            ok = ok and pull < 3.0
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 120.0
        assert report("criterion 7  two-photon admixture recovery (HBT)", ok,
                      "; ".join(results) + f"; 3x1e7 pulses in {elapsed:.1f} s")


class TestCriterion8Determinism:
    def test_byte_identical_outputs_and_parallel_equivalence(self, tmp_path):
        cfg = {
            "schema_version": "homsim-1",
            "mode": "remote-emitters",
            "tau_r_ns": TAU_R,
            "sigma_g_rad_per_ns": 2.7399880931875664,
            "rep_period_ns": 12.2,
            "n_pulses": 60_000,
            "rng": {"seed": 99, "stream_id": 0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cmd_simulate(path, out1) == 0
        assert cmd_simulate(path, out2) == 0
        same_csv = (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()
        same_json = (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

        scn = InterferenceScenario(mode=MODE_REMOTE,
                                   pair=PairSpec(tau_r=TAU_R, sigma_g=2.7399880931875664),
                                   rep_period=12.2, n_pulses=150_000)
        h1 = simulate_histogram(scn, RngSpec(seed=99), window_periods=4, n_jobs=1)
        h4 = simulate_histogram(scn, RngSpec(seed=99), window_periods=4, n_jobs=4)
        parallel_ok = np.array_equal(h1.counts, h4.counts)
        ok = same_csv and same_json and parallel_ok
        assert report("criterion 8  determinism and parallel equivalence", ok,
                      f"rerun byte-identical: {same_csv and same_json}, "
                      f"serial == 4 workers bitwise: {parallel_ok}")


class TestExcitationSchemeOrdering:
    def test_wetting_layer_below_p_shell_below_rf(self, tmp_path):
        t0 = time.perf_counter()
        vis = {}
        for name in ("wetting-layer", "p-shell", "double-pulse-rf"):
            out = tmp_path / name
            assert cmd_simulate(CONFIG_DIR / f"{name}.json", out) == 0
            s = json.loads((out / "summary.json").read_text())
            vis[name] = s["results"]["visibility"]["monte_carlo"]
        elapsed = time.perf_counter() - t0
        ok = vis["wetting-layer"] < vis["p-shell"] < vis["double-pulse-rf"]
        ok = ok and vis["double-pulse-rf"] > 0.90
        ok = ok and json.loads((tmp_path / "double-pulse-rf" / "summary.json").read_text()
                               )["results"]["g2_indist"]["monte_carlo"] < 0.05
        assert report("criterion 9  excitation-scheme visibility ordering", ok,
                      f"wetting {vis['wetting-layer']:.3f} < p-shell {vis['p-shell']:.3f} "
                      f"< RF {vis['double-pulse-rf']:.3f}; {elapsed:.1f} s")
