import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import homsim
from homsim.cli import cmd_fit, cmd_simulate, cmd_sweep, main
from homsim.config import config_from_dict, load_config
from homsim.model import PairSpec
from homsim.montecarlo import RNG_ALGORITHM, analytic_visibility
from oracles_quadrature import visibility_inhom_quadrature

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "homsim" / "configs"


def small_config(tmp_path, **overrides):
    cfg = {
        "schema_version": "homsim-1",
        "mode": "remote-emitters",
        "tau_r_ns": 0.67,
        "delta_tau_ns": 0.0,
        "delta0_rad_per_ns": 0.0,
        "sigma_g_rad_per_ns": 2.7399880931875664,
        "rep_period_ns": 12.2,
        "emission_jitter_ns": 0.0,
        "n_pulses": 30000,
        "detector": {"efficiency": 1.0, "timing_jitter_sigma_ns": 0.0, "dark_rate_per_ns": 0.0},
        "rng": {"seed": 777, "stream_id": 0},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


class TestSimulate:
    def test_outputs_and_summary_shape(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        assert (out / "histogram.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "run.log").exists()
        s = json.loads((out / "summary.json").read_text())
        for key in ("g2_indist", "visibility"):
            block = s["results"][key]
            assert {"monte_carlo", "stat_error", "analytic", "discrepancy"} <= set(block)
            assert block["discrepancy"] == pytest.approx(
                block["monte_carlo"] - block["analytic"], abs=1e-12)
        assert s["provenance"]["rng_algorithm"] == RNG_ALGORITHM
        assert s["provenance"]["seed"] == 777

    def test_histogram_csv_format(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        raw = (out / "histogram.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "bin_start_ns,bin_end_ns,counts"
        total = 0
        for line in lines[1:]:
            lo, hi, c = line.split(",")
            assert float(hi) > float(lo)
            total += int(c)
        s = json.loads((out / "summary.json").read_text())
        assert total == s["results"]["total_pairs"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_simulate(cfg, out1) == 0
        assert cmd_simulate(cfg, out2) == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()

    def test_seed_override_changes_counts(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_simulate(cfg, out1) == 0
        assert cmd_simulate(cfg, out2, seed=778) == 0
        assert (out1 / "histogram.csv").read_bytes() != (out2 / "histogram.csv").read_bytes()
        s = json.loads((out2 / "summary.json").read_text())
        assert s["provenance"]["seed"] == 778

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, "5", -1, 2 ** 64])
    def test_seed_that_is_not_a_64_bit_integer_exit_2(self, tmp_path, capsys, seed):
        # 2.5 and True raised a ValueError from RngSpec (exit 1, a traceback)
        out = tmp_path / "out"
        assert cmd_simulate(small_config(tmp_path), out, seed=seed) == 2
        assert capsys.readouterr().err == f"error: --seed must be a 64-bit unsigned integer, got {seed!r}\n"
        assert not out.exists()

    def test_seed_of_any_integer_type(self, tmp_path):
        # the seed is written to summary.json as a JSON integer
        out = tmp_path / "out"
        assert cmd_simulate(small_config(tmp_path, n_pulses=2000), out, seed=np.uint64(2 ** 64 - 1)) == 0
        assert json.loads((out / "summary.json").read_text())["provenance"]["seed"] == 2 ** 64 - 1

    def test_effective_config_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        out1 = tmp_path / "a"
        assert cmd_simulate(cfg, out1) == 0
        echo = json.loads((out1 / "summary.json").read_text())["effective_config"]
        cfg2 = tmp_path / "echo.json"
        cfg2.write_text(json.dumps(echo), encoding="utf-8")
        out2 = tmp_path / "b"
        assert cmd_simulate(cfg2, out2) == 0
        assert (out1 / "histogram.csv").read_bytes() == (out2 / "histogram.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_malformed_json_exit_2_no_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "homsim-1",\n  "mode": oops}', encoding="utf-8")
        out = tmp_path / "out"
        assert cmd_simulate(bad, out) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_field_exit_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, tau_r_ns=-0.5)
        assert cmd_simulate(cfg, tmp_path / "out") == 2
        assert "tau_r" in capsys.readouterr().err

    def test_missing_required_field_exit_2(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        raw = json.loads(cfg_path.read_text())
        del raw["rng"]
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        assert cmd_simulate(cfg_path, tmp_path / "out") == 2
        assert "rng.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("emission_jitter_ns", float("nan")),
                                              ("delta_tau_ns", float("inf")),
                                              ("n_pulses", 1e30)])
    def test_non_finite_or_too_many_pulses_exit_2(self, tmp_path, capsys, field, value):
        raw = json.loads((CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8"))
        raw.update({"n_pulses": 2000, field: value})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "detuning", "--range", "0:1:2"]])
    def test_unanalysable_histogram_exit_2_without_traceback(self, tmp_path, command):
        # a valid low-count run leaves the side windows empty
        raw = json.loads((CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8"))
        raw.update({"n_pulses": 3, "detector": {**raw["detector"], "efficiency": 0.01}})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "homsim.cli", *command, "--config", str(cfg),
                               "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "side windows contain no counts" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("name, halfwidth", [("double-pulse-rf.json", 1.5),
                                                 ("remote-qd.json", 7.0)])
    def test_unusable_window_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                      command, name, halfwidth):
        # 1.5 ns overlaps the central window from the 2 ns satellites; 7 ns
        # overlaps the neighbouring side peaks 12.2 ns apart
        raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
        raw.update({"n_pulses": 2_000_000, "analysis": {"window_halfwidth_ns": halfwidth}})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a config whose window cannot be analysed")

        monkeypatch.setattr("homsim.cli.simulate_histogram", no_simulation)
        out = tmp_path / "out"
        if command == "simulate":
            assert cmd_simulate(cfg, out) == 2
        else:
            assert cmd_sweep(cfg, "detuning", "0:1:2", out) == 2
        assert "analysis.window_halfwidth_ns" in capsys.readouterr().err
        assert not out.exists()

    def test_double_pulse_in_one_period_window(self, tmp_path):
        # the satellites at +/-2 ns fit a +/-12.5 ns histogram; side peaks
        # the pulse-pair estimator never reads do not have to
        raw = json.loads((CONFIG_DIR / "double-pulse-rf.json").read_text(encoding="utf-8"))
        raw.update({"n_pulses": 20_000, "histogram": {"window_periods": 1}})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert load_config(cfg).window_periods == 1
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["effective_config"]["histogram"]["window_periods"] == 1
        assert s["results"]["g2_indist"]["monte_carlo"] < 0.2

    @pytest.mark.parametrize("delay, halfwidth", [(4.0, 1.9), (5.0, 2.4)])
    def test_pulse_pair_window_reaching_other_peaks_exit_2_at_load(
            self, tmp_path, capsys, monkeypatch, delay, halfwidth):
        # at T = 12.5 ns the peak at T - 3d (d = 4) lies 0.5 ns from the
        # satellite at d, the one at T - 2d (d = 5) 2.5 ns from lags 0 and d;
        # both windows are below d/2 but read them
        raw = json.loads((CONFIG_DIR / "cross-polarized.json").read_text(encoding="utf-8"))
        raw.update({"intra_delay_ns": delay, "analysis": {"window_halfwidth_ns": halfwidth}})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a config whose window reads other peaks")

        monkeypatch.setattr("homsim.cli.simulate_histogram", no_simulation)
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 2
        assert "analysis.window_halfwidth_ns" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, update", [
        ("double-pulse-rf.json", {"rep_period_ns": 3.0}),  # default d = 1.5 = T/2
        ("double-pulse-rf.json", {"rep_period_ns": 4.0}),  # default d = 2 = T/2
        ("double-pulse-rf.json", {"rep_period_ns": 6.0}),  # default d = 2 = T/3
        ("cross-polarized.json", {"intra_delay_ns": 12.5 / 3})])
    def test_coinciding_pulse_pair_peaks_blame_intra_delay(self, tmp_path, capsys, monkeypatch,
                                                            name, update):
        raw = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
        if "intra_delay_ns" not in update:
            del raw["intra_delay_ns"], raw["analysis"]
        raw.update(update)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a config whose peaks coincide")

        monkeypatch.setattr("homsim.cli.simulate_histogram", no_simulation)
        assert cmd_simulate(cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: intra_delay_ns: ") and "coincides with the" in err
        assert "window" not in err
        assert ("(the default" in err) == ("intra_delay_ns" not in update)

    def test_pulse_pair_window_clear_of_other_peaks_reads_the_control(self, tmp_path):
        # d = 5 ns: the nearest other peak is 2.5 ns away, so 1 ns windows
        # read only the central peak and the satellites
        raw = json.loads((CONFIG_DIR / "cross-polarized.json").read_text(encoding="utf-8"))
        raw.update({"intra_delay_ns": 5.0, "n_pulses": 200_000, "rng": {"seed": 1, "stream_id": 0},
                    "analysis": {"window_halfwidth_ns": 1.0}})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        g2 = json.loads((out / "summary.json").read_text())["results"]["g2_indist"]
        assert abs(g2["monte_carlo"] - 0.5) < 4 * g2["stat_error"]

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_pulses=2000)
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory", encoding="utf-8")
        assert cmd_simulate(cfg, blocker / "sub") == 3
        assert "cannot write" in capsys.readouterr().err

    def test_outputs_selection(self, tmp_path):
        cfg = small_config(tmp_path, n_pulses=2000, outputs=["summary.json"])
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        assert (out / "summary.json").exists()
        assert not (out / "histogram.csv").exists()
        assert not (out / "run.log").exists()

    def test_unknown_output_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path, outputs=["summary.json", "movie.mp4"])
        assert cmd_simulate(cfg, tmp_path / "out") == 2
        assert "outputs" in capsys.readouterr().err

    def test_uev_detuning_field(self, tmp_path):
        cfg = small_config(tmp_path, n_pulses=2000)
        raw = json.loads(cfg.read_text())
        del raw["delta0_rad_per_ns"]
        raw["delta0_uev"] = 3.0
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["effective_config"]["delta0_rad_per_ns"] == pytest.approx(
            3.0 / 0.6582119569, rel=1e-12)

    @pytest.mark.parametrize("delta0, sigma_g", [
        (0.0, 1e200), (0.0, 1e308), (1e200, 0.0), (1e308, 0.0),
    ], ids=["sigma_g-1e200", "sigma_g-1e308", "delta0-1e200", "delta0-1e308"])
    def test_extreme_detuning_is_fully_dephased(self, tmp_path, capsys, delta0, sigma_g):
        # (tau_r delta)^2 overflows, and at sigma_g = 1e308 some detunings
        # are infinite: every pair is dephased, so g2_indist reads 1/2
        raw = json.loads((CONFIG_DIR / "remote-qd.json").read_text(encoding="utf-8"))
        raw.update(n_pulses=100_000, delta0_rad_per_ns=delta0, sigma_g_rad_per_ns=sigma_g)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        g2 = json.loads((out / "summary.json").read_text())["results"]["g2_indist"]
        assert g2["analytic"] == pytest.approx(0.5, abs=1e-12)
        assert abs(g2["monte_carlo"] - 0.5) < 3 * g2["stat_error"]


class TestSweep:
    def test_sigma_g_sweep_matches_quadrature_pointwise(self, tmp_path):
        cfg = small_config(tmp_path, model_overrides={"analytic_only": True})
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, "sigma_g", "0.5:4.5:5", out) == 0
        rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        for value, vis in zip(rows["axis_value"], rows["visibility"]):
            ref = visibility_inhom_quadrature(PairSpec(tau_r=0.67, sigma_g=float(value)))
            assert vis == pytest.approx(ref, abs=1e-9)

    def test_delta_t_sweep_dips_at_zero(self, tmp_path):
        cfg = small_config(tmp_path, model_overrides={"analytic_only": True})
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, "delta_t", "-2.0:2.0:21", out) == 0
        rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        g2 = rows["g2_indist"]
        assert np.argmin(g2) == 10  # center of the scan
        assert np.argmax(rows["visibility"]) == 10

    def test_detuning_sweep_monotone_from_resonance(self, tmp_path):
        cfg = small_config(tmp_path, model_overrides={"analytic_only": True})
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, "detuning", "0.0:4.558:6", out) == 0
        rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        vis = rows["visibility"]
        assert vis[0] == pytest.approx(0.364, abs=1e-6)
        assert np.all(np.diff(vis) < 0)

    def test_monte_carlo_sweep_has_errors_and_matches_model(self, tmp_path):
        cfg = small_config(tmp_path, n_pulses=60000)
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, "detuning", "0.0:3.0:3", out) == 0
        rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        assert np.all(rows["stat_error"] > 0)
        for value, g2, err in zip(rows["axis_value"], rows["g2_indist"], rows["stat_error"]):
            ref = 0.5 * (1 - visibility_inhom_quadrature(
                PairSpec(tau_r=0.67, sigma_g=2.7399880931875664, delta0=float(value))))
            assert abs(g2 - ref) < 5 * err

    def test_temperature_axis_requires_slope(self, tmp_path, capsys):
        cfg = small_config(tmp_path, model_overrides={"analytic_only": True})
        assert cmd_sweep(cfg, "temperature-proxy", "4.0:6.0:3", tmp_path / "o") == 2
        assert "temperature" in capsys.readouterr().err

    def test_temperature_axis_maps_to_detuning(self, tmp_path):
        cfg = small_config(
            tmp_path,
            model_overrides={"analytic_only": True},
            sweep={"temperature_slope_uev_per_K": 2.0, "temperature_ref_K": 5.0})
        out = tmp_path / "sweep"
        assert cmd_sweep(cfg, "temperature-proxy", "4.0:6.0:3", out) == 0
        rows = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        assert rows["visibility"][1] == pytest.approx(0.364, abs=1e-6)  # at the reference T
        assert rows["visibility"][0] == pytest.approx(rows["visibility"][2], rel=1e-9)

    def test_bad_range_exit_2(self, tmp_path, capsys):
        for analytic in (False, True):
            cfg = small_config(tmp_path, model_overrides={"analytic_only": analytic},
                               sweep={"temperature_slope_uev_per_K": 2.0, "temperature_ref_K": 5.0})
            for axis, text in (("sigma_g", "1:2"), ("sigma_g", "a:b:3"), ("sigma_g", "1:2:0"),
                               ("sigma_g", "-1:2:3"), ("detuning", "nan:1:5"),
                               ("detuning", "0:1e400:5"),
                               ("delta_t", "-1e308:1e308:3"),  # the linspace step overflows
                               ("temperature-proxy", "0:1.7e308:3")):  # the detuning overflows
                assert cmd_sweep(cfg, axis, text, tmp_path / "o") == 2, (analytic, axis, text)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_sweep_csv_byte_identical_on_rerun(self, tmp_path):
        for name, overrides, axis, text in (
                ("analytic", {"model_overrides": {"analytic_only": True}}, "detuning", "-4:4:41"),
                ("analytic", {"model_overrides": {"analytic_only": True}}, "delta_t", "-2:2:41"),
                ("monte-carlo", {"n_pulses": 5000}, "detuning", "0:2:2")):
            (tmp_path / name).mkdir(exist_ok=True)
            cfg = small_config(tmp_path / name, emission_jitter_ns=0.2, **overrides)
            runs = []
            for i in range(2):
                out = tmp_path / name / f"{axis}-{i}"
                assert cmd_sweep(cfg, axis, text, out) == 0
                runs.append((out / "sweep.csv").read_bytes())
            assert runs[0] == runs[1], (name, axis)

    def test_analytic_rows_match_point_scenarios(self, tmp_path):
        # a jittered, detuned pair; sigma_g from 0 covers the Lorentzian rows
        path = small_config(tmp_path, emission_jitter_ns=0.2, delta0_rad_per_ns=1.3,
                            model_overrides={"analytic_only": True})
        scenario = load_config(path).scenario
        for axis, field, text in (("delta_t", "delta_tau", "-3:3:61"),
                                  ("sigma_g", "sigma_g", "0:6:61")):
            out = tmp_path / axis
            assert cmd_sweep(path, axis, text, out) == 0
            rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
            assert rows.shape == (61, 4)
            for value, vis, g2, err in rows:
                point = dataclasses.replace(
                    scenario, pair=dataclasses.replace(scenario.pair, **{field: value}))
                ref = analytic_visibility(point)
                assert abs(vis - ref) <= 1e-15, (axis, value)
                assert abs(g2 - 0.5 * (1.0 - ref)) <= 1e-15, (axis, value)
                assert err == 0.0
            assert len((out / "run.log").read_text().splitlines()) == 1

    def test_bad_axis_exit_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cmd_sweep(cfg, "lifetime", "1:2:3", tmp_path / "o") == 2


class TestFit:
    def test_bundled_hom_dip(self, tmp_path):
        out = tmp_path / "fit.json"
        assert cmd_fit(CONFIG_DIR / "hom-dip-example.csv", "hom_dip", out) == 0
        r = json.loads(out.read_text())
        assert r["parameters"]["v"] == pytest.approx(0.69, abs=1e-6)
        assert r["parameters"]["tau_m"] == pytest.approx(0.63, abs=1e-6)
        assert r["converged"]

    def test_bundled_michelson(self, tmp_path):
        out = tmp_path / "fit.json"
        assert cmd_fit(CONFIG_DIR / "michelson-example.csv", "michelson", out) == 0
        r = json.loads(out.read_text())
        assert r["parameters"]["tau_c1"] == pytest.approx(0.33, abs=1e-6)
        assert r["parameters"]["tau_c2"] == pytest.approx(0.18, abs=1e-6)

    def test_bundled_lifetime(self, tmp_path):
        out = tmp_path / "fit.json"
        assert cmd_fit(CONFIG_DIR / "lifetime-example.csv", "exp_decay", out) == 0
        r = json.loads(out.read_text())
        assert r["parameters"]["tau_r"] == pytest.approx(0.67, abs=1e-9)

    def test_michelson_contrast_zeros_fit(self, tmp_path):
        # an equal-weight doublet beating to exact contrast zeros once drove an
        # LM iterate to fss = NaN, which michelson_contrast now rejects
        data = tmp_path / "zeros.csv"
        t = np.linspace(0.0, 2.0, 41)
        y = np.abs(np.cos(np.pi * t)) * np.exp(-t / 5.0)
        rows = ["delay_ns,fringe_contrast"] + [f"{a:.17g},{b:.17g}" for a, b in zip(t, y)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert cmd_fit(data, "michelson", out) == 0
        r = json.loads(out.read_text())
        assert r["parameters"]["fss"] == pytest.approx(2 * np.pi, rel=1e-6)
        assert r["parameters"]["tau_c1"] == pytest.approx(5.0, rel=1e-4)

    @pytest.mark.parametrize("scale", [1e-6, 1e-150, 1e-250])
    def test_michelson_far_from_nanoseconds_without_traceback(self, tmp_path, scale):
        # starting points once fell outside the fit's bounds (1e-6) and the
        # envelope regression failed inside LAPACK (1e-250)
        data = tmp_path / "scaled.csv"
        u = np.linspace(0.0, 1.0, 20)
        rows = ["delay_ns,fringe_contrast"] + [f"{scale * a:.17g},{b:.17g}"
                                               for a, b in zip(u, np.exp(-u / 0.3))]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "homsim.cli", "fit", "--model", "michelson",
                               "--data", str(data), "--out", str(tmp_path / "fit.json")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode in (0, 2)
        if proc.returncode == 2:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and "DLASCL" not in proc.stderr

    @pytest.mark.parametrize("rows, message", [
        ("1,2.0\n1,1.5\n1,1.0\n", "error: fit failed: the times must not all be equal\n"),
        ("0,1\n1e300,0.5\n2e300,0.25\n", None),
        ("0,1\n1e-300,0.5\n2e-300,0.25\n", None),
    ], ids=["equal-times", "times-1e300", "times-1e-300"])
    def test_lifetime_start_prints_no_numpy_warning(self, tmp_path, rows, message):
        # the log-linear start printed polyfit's RankWarning or overflow and
        # divide warnings (and LAPACK's DLASCL lines at 1e-300) before the
        # error line; a fresh process shows them, as pytest's filters do not
        data = tmp_path / "decay.csv"
        data.write_text(rows, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "homsim.cli", "fit", "--model", "exp_decay",
                               "--data", str(data), "--out", str(tmp_path / "fit.json")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode in (0, 2)
        if proc.returncode == 2:
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        else:
            assert proc.stderr == ""
        assert message is None or proc.stderr == message

    def test_michelson_on_a_coherence_bound_not_converged(self, tmp_path):
        # the contrast decays over 3e-14 ns, faster than the fit's smallest
        # coherence time: e^-12 times the delays' unit 2^-20 ns
        data = tmp_path / "fast.csv"
        u = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 19)])
        rows = ["delay_ns,fringe_contrast"] + [f"{1e-6 * a:.17g},{b:.17g}"
                                               for a, b in zip(u, np.exp(-u / 3e-8))]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert cmd_fit(data, "michelson", out) == 0
        r = json.loads(out.read_text())
        assert r["parameters"]["tau_c2"] == pytest.approx(np.exp(-12.0) * 2.0 ** -20, rel=1e-12)
        assert r["converged"] is False
        assert "fit bound log tau_c = -12 + log 9.53674e-07" in r["message"]

    def test_weighted_column_accepted(self, tmp_path):
        data = tmp_path / "d.csv"
        t = np.linspace(-2, 2, 15)
        y = 0.5 * (1 - 0.6 * np.exp(-np.abs(t) / 0.5))
        rows = ["dt,g2,err"] + [f"{a},{b},{0.01}" for a, b in zip(t, y)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert cmd_fit(data, "hom_dip", out) == 0
        r = json.loads(out.read_text())
        assert r["parameters"]["v"] == pytest.approx(0.6, abs=1e-6)

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert cmd_fit(empty, "hom_dip", tmp_path / "f.json") == 2
        assert "no numeric data" in capsys.readouterr().err

    def test_unparseable_cell_has_row_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.5,oops\n", encoding="utf-8")
        assert cmd_fit(bad, "hom_dip", tmp_path / "f.json") == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 2" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_has_row_column(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n1.0,2.0\n1.5,{cell}\n2.0,1.0\n", encoding="utf-8")
        assert main(["fit", "--model", "hom_dip", "--data", str(bad),
                     "--out", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 2" in err and "finite" in err

    @pytest.mark.parametrize("cell", ["-0.01", "0", "1e-320"])
    def test_non_positive_y_error_has_row_column(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b,err\n0.0,1.0,0.1\n1.0,0.6,{cell}\n2.0,0.4,0.1\n", encoding="utf-8")
        assert main(["fit", "--model", "exp_decay", "--data", str(bad),
                     "--out", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 3" in err and "positive" in err
        assert not (tmp_path / "f.json").exists()

    def test_wrong_column_count_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n1.5,2.0,3.0,4.0\n", encoding="utf-8")
        assert cmd_fit(bad, "hom_dip", tmp_path / "f.json") == 2
        assert "columns" in capsys.readouterr().err

    def test_unknown_model_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0,1\n1,2\n", encoding="utf-8")
        assert cmd_fit(data, "gauss", tmp_path / "f.json") == 2


class TestMain:
    def test_dispatch_simulate(self, tmp_path):
        cfg = small_config(tmp_path, n_pulses=2000)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_dispatch_fit(self, tmp_path):
        rc = main(["fit", "--model", "exp_decay",
                   "--data", str(CONFIG_DIR / "lifetime-example.csv"),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 0

    def test_dispatch_sweep(self, tmp_path):
        cfg = small_config(tmp_path, model_overrides={"analytic_only": True})
        rc = main(["sweep", "--config", str(cfg), "--axis", "sigma_g",
                   "--range=1.0:3.0:3", "--out", str(tmp_path / "s")])
        assert rc == 0


HELP_TEXT = {  # homsim 0.8.1's --help output at 80 columns
    (): """\
usage: homsim [-h] {simulate,sweep,fit} ...

Two-photon interference simulator: scenarios, sweeps and fits.

positional arguments:
  {simulate,sweep,fit}
    simulate            run one scenario config
    sweep               sweep one scenario parameter
    fit                 fit a model to CSV data

options:
  -h, --help            show this help message and exit
""",
    ("simulate",): """\
usage: homsim simulate [-h] --config CONFIG --out OUT [--seed SEED]

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --out OUT
  --seed SEED      override the config seed
""",
    ("sweep",): """\
usage: homsim sweep [-h] --config CONFIG --axis
                    {delta_t,detuning,sigma_g,temperature-proxy} --range
                    SWEEP_RANGE --out OUT

options:
  -h, --help            show this help message and exit
  --config CONFIG
  --axis {delta_t,detuning,sigma_g,temperature-proxy}
  --range SWEEP_RANGE   start:stop:steps
  --out OUT
""",
    ("fit",): """\
usage: homsim fit [-h] --model {exp_decay,hom_dip,michelson} --data DATA --out
                  OUT

options:
  -h, --help            show this help message and exit
  --model {exp_decay,hom_dip,michelson}
  --data DATA
  --out OUT
""",
}


class TestParserReuse:
    """main() builds its parser once per process, on the first call, and
    no call leaves state for the next."""

    def test_two_calls_share_one_parser(self, tmp_path, monkeypatch):
        data = str(CONFIG_DIR / "lifetime-example.csv")
        assert main(["fit", "--model", "exp_decay", "--data", data,
                     "--out", str(tmp_path / "f0.json")]) == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        for i in (1, 2):
            assert main(["fit", "--model", "exp_decay", "--data", data,
                         "--out", str(tmp_path / f"f{i}.json")]) == 0
        assert built == []

    def test_import_builds_no_parser(self):
        script = "\n".join([
            "import argparse",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)",
            "import homsim.cli",
            "print(len(built), homsim.cli._parser.cache_info().currsize)",
        ])
        env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.split() == ["0", "0"]

    def test_no_state_carries_between_calls(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_pulses=2000)  # config seed 777
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                     "--seed", "5"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        seeds = [json.loads((tmp_path / d / "summary.json").read_text())["provenance"]["seed"]
                 for d in "ab"]
        assert seeds == [5, 777]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--axis", "bogus", "--range=0:1:3",
                  "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(HELP_TEXT[("sweep",)].split("\n\n")[0] + "\n")
        assert "homsim sweep: error: argument --axis: invalid choice: 'bogus'" in err
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "histogram.csv").read_bytes() == \
            (tmp_path / "b" / "histogram.csv").read_bytes()

    @pytest.mark.parametrize("command", list(HELP_TEXT), ids=lambda c: c[0] if c else "top")
    def test_help_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):  # the first call builds the parser, the second reuses it
            with pytest.raises(SystemExit) as exc:
                main([*command, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == HELP_TEXT[command]


class TestExitContract:
    """Every command answers bad input with exit 2 and one error line, never
    a traceback, and a failed write with exit 3."""

    @pytest.mark.parametrize("args, names", [
        (["simulate", "--config", "{remote}", "--seed=-1"], "--seed"),
        (["simulate", "--config", "{remote}", f"--seed={2 ** 64}"], "--seed"),
        (["sweep", "--config", "{last_stream}", "--axis", "detuning", "--range=0:1:3"],
         "rng.stream_id"),
        (["simulate", "--config", "{not_utf8}"], "{not_utf8}"),
        (["sweep", "--config", "{not_utf8}", "--axis", "detuning", "--range=0:1:3"], "{not_utf8}"),
        (["fit", "--model", "hom_dip", "--data", "{not_utf8}"], "{not_utf8}"),
        # numpy refuses 1e15 steps (7.11 PiB) at once, without allocating
        (["sweep", "--config", "{detuning}", "--axis", "detuning",
          f"--range=0:1:{10 ** 15}"], f"--range: cannot allocate {10 ** 15}"),
        (["sweep", "--config", "{detuning}", "--axis", "detuning",
          f"--range=0:1:{2 ** 53 + 1}"], f"--range steps must be <= 2**53, got {2 ** 53 + 1}"),
    ], ids=["seed-negative", "seed-2**64", "sweep-stream-id", "simulate-not-utf8",
            "sweep-not-utf8", "fit-not-utf8", "sweep-range-1e15", "sweep-range-2**53+1"])
    def test_bad_input_exit_2_with_one_error_line(self, tmp_path, args, names):
        raw = json.loads((CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8"))
        raw.update({"n_pulses": 2000, "rng": {"seed": 1, "stream_id": 2 ** 32 - 1}})
        paths = {"remote": str(CONFIG_DIR / "remote-qd.json"),
                 "detuning": str(CONFIG_DIR / "remote-detuning-sweep.json"),
                 "last_stream": str(tmp_path / "last-stream.json"),
                 "not_utf8": str(tmp_path / "input.dat")}
        Path(paths["last_stream"]).write_text(json.dumps(raw), encoding="utf-8")
        Path(paths["not_utf8"]).write_bytes(b"\xff1,2\n")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "homsim.cli",
                               *(a.format(**paths) for a in args), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and names.format(**paths) in line
        assert not out.exists()

    def test_sweep_checks_stream_ids_before_any_point(self, tmp_path, capsys, monkeypatch):
        raw = json.loads((CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8"))
        raw.update({"n_pulses": 2000, "rng": {"seed": 1, "stream_id": 2 ** 32 - 3}})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a point of a sweep that cannot finish")

        monkeypatch.setattr("homsim.cli.simulate_histogram", no_simulation)
        out = tmp_path / "out"
        # the fourth point would need stream id 2**32
        assert cmd_sweep(cfg, "detuning", "0:1:4", out) == 2
        assert "rng.stream_id" in capsys.readouterr().err
        assert not out.exists()
        # three points end on the last valid stream id
        monkeypatch.undo()
        assert cmd_sweep(cfg, "detuning", "0:1:3", out) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("command", ["sweep", "fit"])
    def test_unwritable_output_exit_3(self, tmp_path, capsys, command):
        # simulate: TestSimulate.test_unwritable_output_exit_3
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory", encoding="utf-8")
        out = blocker / "sub"
        if command == "sweep":
            cfg = small_config(tmp_path, model_overrides={"analytic_only": True})
            assert cmd_sweep(cfg, "sigma_g", "1.0:3.0:3", out) == 3
        else:
            assert cmd_fit(CONFIG_DIR / "lifetime-example.csv", "exp_decay", out / "f.json") == 3
        assert capsys.readouterr().err.startswith("error: cannot write")


class TestConfigSchema:
    """Every key is a known field, every section a JSON object, and a null
    required field is missing: each violation exits 2 naming the path."""

    @staticmethod
    def run(tmp_path, capsys, base="p-shell.json", **update):
        raw = json.loads((CONFIG_DIR / base).read_text(encoding="utf-8"))
        for key, value in update.items():
            if isinstance(value, dict) and isinstance(raw.get(key), dict):
                raw[key] = {**raw[key], **value}
            else:
                raw[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        return code, line

    @pytest.mark.parametrize("update, path, near", [
        ({"emision_jitter_ns": 5.0}, "emision_jitter_ns", "emission_jitter_ns"),
        ({"detector": {"eficiency": 0.1}}, "detector.eficiency", "detector.efficiency"),
        ({"rng": {"stream": 1}}, "rng.stream", "rng.stream_id"),
        ({"comment": "resonant pumping"}, "comment", None),
        ({"comment": None}, "comment", None),
    ], ids=["top-level", "nested", "rng", "no-near-match", "null-value"])
    def test_unknown_key_exit_2_names_path_and_nearest_field(self, tmp_path, capsys,
                                                             update, path, near):
        code, line = self.run(tmp_path, capsys, **update)
        assert code == 2
        assert line.startswith(f"error: {path}: unknown field")
        if near is None:
            assert "did you mean" not in line
        else:
            assert line.endswith(f"did you mean {near}?")

    @pytest.mark.parametrize("update, path", [
        ({"seed": 5}, "seed"),
        ({"detector": {"seed": 5}}, "detector.seed"),
    ], ids=["top-level", "other-section"])
    def test_key_in_the_wrong_section_points_at_its_field(self, tmp_path, capsys, update, path):
        code, line = self.run(tmp_path, capsys, **update)
        assert (code, line) == (2, f"error: {path}: unknown field; did you mean rng.seed?")

    def test_literal_dotted_key_is_unknown(self, tmp_path, capsys):
        code, line = self.run(tmp_path, capsys, **{"detector.efficiency": 0.1})
        assert code == 2
        assert line.startswith("error: detector.efficiency: unknown field")
        assert "nested JSON objects" in line

    @pytest.mark.parametrize("update, path", [
        ({"tau_r_ns": None}, "tau_r_ns"),
        ({"rep_period_ns": None}, "rep_period_ns"),
        ({"rng": {"seed": None}}, "rng.seed"),
        ({"mode": None}, "mode"),
    ], ids=["tau_r_ns", "rep_period_ns", "rng.seed", "mode"])
    def test_null_required_field_exit_2(self, tmp_path, capsys, update, path):
        assert self.run(tmp_path, capsys, **update) == (
            2, f"error: {path}: required field is missing")

    @pytest.mark.parametrize("update, path", [
        ({"detector": 5}, "detector"),
        ({"detector": "eff"}, "detector"),
        ({"histogram": [1]}, "histogram"),
        ({"rng": True}, "rng"),
    ], ids=["detector-number", "detector-string", "histogram-list", "rng-bool"])
    def test_section_that_is_not_an_object_exit_2(self, tmp_path, capsys, update, path):
        assert self.run(tmp_path, capsys, **update) == (2, f"error: {path}: expected a JSON object")

    @pytest.mark.parametrize("update, path", [
        ({"tau_r_ns": 1e308}, "tau_r_ns"),
        ({"emission_jitter_ns": 1e308}, "emission_jitter_ns"),
        ({"detector": {"timing_jitter_sigma_ns": 1e308}}, "detector.timing_jitter_sigma_ns"),
    ], ids=["tau_r_ns", "emission_jitter_ns", "detector.timing_jitter_sigma_ns"])
    def test_time_scale_past_1e300_ns_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                               update, path):
        # at 1e308 ns a block's draws overflow to infinity and its detection
        # times turn NaN; up to 1e300 ns they and their sums stay finite
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a config past a time-scale bound")

        monkeypatch.setattr("homsim.cli.simulate_histogram", no_simulation)
        assert self.run(tmp_path, capsys, **update) == (
            2, f"error: {path}: must be <= 1e+300, got 1e+308")

    @pytest.mark.parametrize("update, fields, size", [
        ({"rep_period_ns": 1e308},
         "rep_period_ns, histogram.bin_width_ns and histogram.window_periods", "inf bins"),
        ({"histogram": {"bin_width_ns": 1e-6}},
         "rep_period_ns, histogram.bin_width_ns and histogram.window_periods", "9.76e+07 bins"),
        ({"detector": {"dark_rate_per_ns": 1e300}},
         "detector.dark_rate_per_ns and rep_period_ns", "7.99539e+305 dark counts"),
        ({"detector": {"dark_rate_per_ns": 2.0}},
         "detector.dark_rate_per_ns and rep_period_ns", "1.59908e+06 dark counts"),
    ], ids=["rep-period-1e308", "bin-width-1e-6", "dark-rate-1e300", "dark-rate-2"])
    def test_block_past_its_size_bounds_exit_2_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                               update, fields, size):
        # the 1e308 period and the 1e300 dark rate crashed _run_blocks and
        # _apply_detector with exit 1; the bounds hold a block's histogram
        # tally and dark-count draws to a size that fits in memory
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a config past a block size bound")

        monkeypatch.setattr("homsim.cli.simulate_histogram", no_simulation)
        code, line = self.run(tmp_path, capsys, base="remote-qd.json", n_pulses=20_000, **update)
        assert code == 2
        assert line.startswith(f"error: {fields}: ") and size in line

    def test_block_size_bounds_admit_large_valid_blocks(self):
        # 2 * 4 * 1e5 / 0.128 + 1 = 6,250,001 bins, and 655 dark counts per
        # block and port: both load
        raw = json.loads((CONFIG_DIR / "remote-qd.json").read_text(encoding="utf-8"))
        cfg = config_from_dict({**raw, "rep_period_ns": 1e5, "detector": {"dark_rate_per_ns": 1e-4}})
        assert (cfg.window_periods, cfg.scenario.rep_period, cfg.scenario.detector.dark_rate) == (4, 1e5, 1e-4)

    def test_integer_past_the_float_range_exit_2(self, tmp_path, capsys):
        code, line = self.run(tmp_path, capsys, tau_r_ns=10 ** 400)
        assert code == 2 and line.startswith("error: tau_r_ns: expected a finite number")

    def test_integer_past_the_digit_limit_exit_2(self, tmp_path, capsys):
        raw = (CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(raw.replace('"n_pulses": 400000', '"n_pulses": 1' + "0" * 5000),
                       encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        # json.load enforces the digit limit from CPython 3.10.7 and 3.11 on,
        # unless PYTHONINTMAXSTRDIGITS=0; without it the range check fires
        assert (line.startswith(f"error: cannot read config {cfg}: ") and "digits" in line
                or line.startswith("error: n_pulses: expected a finite number"))

    @pytest.mark.parametrize("n_jobs", [None, 2])
    def test_n_jobs_echoes_as_given_and_round_trips(self, n_jobs):
        # absent (or null), it means every usable core and echoes null
        raw = json.loads((CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8"))
        assert "n_jobs" not in raw
        cfg = config_from_dict(raw if n_jobs is None else {**raw, "n_jobs": n_jobs})
        echo = json.loads(json.dumps(cfg.effective_dict()))
        assert cfg.n_jobs == echo["n_jobs"] == n_jobs
        assert config_from_dict(echo) == cfg

    def test_null_optional_field_or_section_takes_the_default(self, tmp_path):
        raw = json.loads((CONFIG_DIR / "p-shell.json").read_text(encoding="utf-8"))
        for key in ("emission_jitter_ns", "detector"):
            bare = {k: v for k, v in raw.items() if k != key}
            paths = [tmp_path / "null.json", tmp_path / "absent.json"]
            paths[0].write_text(json.dumps({**raw, key: None}), encoding="utf-8")
            paths[1].write_text(json.dumps(bare), encoding="utf-8")
            assert load_config(paths[0]) == load_config(paths[1]), key


BUNDLED_CONFIGS = [
    "remote-qd.json", "double-pulse-rf.json", "cross-polarized.json",
    "p-shell.json", "wetting-layer.json", "remote-detuning-sweep.json",
]


class TestBundledConfigs:
    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_all_bundled_configs_load(self, name):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.scenario.n_pulses >= 1

    def test_list_names_every_bundled_config(self):
        assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(BUNDLED_CONFIGS)

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_effective_config_loads_back_equal(self, name):
        cfg = load_config(CONFIG_DIR / name)
        echo = json.loads(json.dumps(cfg.effective_dict()))
        assert config_from_dict(echo) == cfg

    def test_remote_qd_summary_carries_reference_visibility(self, tmp_path):
        # the bundled remote-pair scenario reports 0.364 as its analytic
        # visibility reference; run a shortened copy of the config
        raw = json.loads((CONFIG_DIR / "remote-qd.json").read_text())
        raw["n_pulses"] = 30000
        cfg = tmp_path / "remote-small.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert cmd_simulate(cfg, out) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["results"]["visibility"]["analytic"] == pytest.approx(0.364, abs=1e-6)
        assert s["results"]["g2_indist"]["analytic"] == pytest.approx(0.318, abs=1e-6)


# sha256 of every bundled artifact, made through cli.main from the bundled
# inputs at their bundled sizes: the six simulate runs (histogram.csv, and
# summary.json with provenance.version masked), the three fits and the
# README's 21-point analytic sweep; run.log carries timestamps and is left
# out. Like PINNED_SHA256 in test_montecarlo.py, the hashes hold for the
# platform that pinned them: x86-64 Linux, Python 3.11.7, numpy 2.4.6. An
# output that moves re-pins here, with the old and new hash and the reason
# in CHANGES.md.
FIT_INPUTS = {"hom_dip": "hom-dip-example.csv", "michelson": "michelson-example.csv",
              "exp_decay": "lifetime-example.csv"}
PINNED_ARTIFACTS = {
    ("simulate", "remote-qd.json"): {
        "histogram.csv": "684f22666e9798e5a62b4682c2740e4b1b6bbbe7cec41d6a874a0447b2ff7587",
        "summary.json": "bf32383e03ec503882103bc1244440604748029b0f42b6721b440686d9a51a87"},
    ("simulate", "double-pulse-rf.json"): {
        "histogram.csv": "9353c65404e2f5e8215a83b06dc9c4ac2a85d289257e48010483afe8476380e6",
        "summary.json": "9459a54b138f02915516bb489ad0c4db72eea0b4b82a9e434a78595fff0360de"},
    ("simulate", "cross-polarized.json"): {
        "histogram.csv": "b4aa102e96dc41cf83c9fb9fdbb45511df286d48cbf3d264487cb4cb07fdbf6e",
        "summary.json": "629950498ce3d31a0d02537a0689c4a620567cf68c0a89c1947646cf424460cf"},
    ("simulate", "p-shell.json"): {
        "histogram.csv": "02b6fe0d32bfe467c601d8ffc8f29b2f8fc30a99f24c5ddecb4ea0c87fc59f35",
        "summary.json": "8d9afab4297b828c5d9e790d0c8c612ba998b3c4f13df534f69f8651cf63cd8d"},
    ("simulate", "wetting-layer.json"): {
        "histogram.csv": "760afc879633dc32ce132baead7d941d1fb9d870fcfc0b9d03db8980dd02f953",
        "summary.json": "6666b3ae3c285feec6e2e21a242e4b9079ee31e61648cb1c710a5329ce7e0747"},
    ("simulate", "remote-detuning-sweep.json"): {
        "histogram.csv": "01d1ba5116a5cd317c2d37f2e763a4dcca2bb228fb798fa65910544d42310271",
        "summary.json": "583cd6d6772a3fa332df8c664618d464625a730bd1bdf460455cbcfc98cc8c4c"},
    ("fit", "hom_dip"): {"fit.json": "987fb134963128d03849e495186521ee8a7a7601539757977e706332463acf9a"},
    ("fit", "michelson"): {"fit.json": "88b1a95dad45a04a9f3dbbddbfa26e627978f50e0535197183c7b0e2b50ab768"},
    ("fit", "exp_decay"): {"fit.json": "5b8bcf0b3dd0c1e69a133796949e37e9605b3734e11f42627fe57b64de1fd85d"},
    ("sweep", "detuning"): {"sweep.csv": "30f6c650642a194c5bad02f7e7e24f3665e8ab5f866fe82e2cf30fbfbf0dd6df"},
}


def artifact_digests(command, name, out):
    """The sha256 of each pinned file that one bundled command writes."""
    if command == "simulate":
        argv = ["simulate", "--config", str(CONFIG_DIR / name), "--out", str(out)]
    elif command == "fit":
        argv = ["fit", "--model", name, "--data", str(CONFIG_DIR / FIT_INPUTS[name]),
                "--out", str(out / "fit.json")]
    else:  # the README's quick-start sweep
        argv = ["sweep", "--config", str(CONFIG_DIR / "remote-detuning-sweep.json"),
                "--axis", name, "--range=-4.558:4.558:21", "--out", str(out)]
    assert main(argv) == 0
    digests = {}
    for file in PINNED_ARTIFACTS[command, name]:
        data = (out / file).read_bytes()
        if file == "summary.json":
            stamp = f'"version": "{homsim.__version__}"'.encode()
            assert data.count(stamp) == 1
            data = data.replace(stamp, b'"version": "<masked>"')
        digests[file] = hashlib.sha256(data).hexdigest()
    return digests


class TestPinnedArtifacts:
    @pytest.mark.parametrize("command, name", list(PINNED_ARTIFACTS),
                             ids=[f"{c}-{n}" for c, n in PINNED_ARTIFACTS])
    def test_bundled_artifact_hash_is_pinned(self, tmp_path, command, name):
        """Within a version, refactors and speed-ups keep every bundled
        output byte-identical; a change that moves one re-pins it."""
        assert artifact_digests(command, name, tmp_path) == PINNED_ARTIFACTS[command, name]
