"""Command-line entry point: run scenarios, parameter sweeps and curve fits
from JSON configs, writing deterministic CSV/JSON artifacts.

Exit codes: 0 success, 2 invalid configuration or input data, 3 I/O failure;
one wrapper, _exit_codes, owns that contract for all three commands. All
CSV/JSON outputs are byte-identical across reruns with the same config and
seed; wall-clock timestamps appear only in run.log.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import WindowConfigurationError, g2_indist_double_pulse, peak_areas
from .config import SCHEMA_VERSION, ConfigError, ScenarioConfig, load_config
from .fitting import SingularModelError, fit_exponential_decay, fit_hom_dip, fit_michelson
from .model import HBAR_UEV_NS
from .montecarlo import (
    CHUNK_PULSES,
    MODE_CROSS_POLARIZED,
    MODE_DOUBLE_PULSE,
    RNG_ALGORITHM,
    analytic_visibility,
    analytic_visibility_at,
    simulate_histogram,
)

__all__ = ["main", "cmd_simulate", "cmd_sweep", "cmd_fit"]

SWEEP_AXES = ("delta_t", "detuning", "sigma_g", "temperature-proxy")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _RunLog:
    """Stage log with wall-clock timestamps (the one output where
    timestamps are allowed)."""

    def __init__(self):
        self.lines = []
        self.t0 = time.time()

    def stage(self, name, **info):
        extra = " ".join(f"{k}={v}" for k, v in info.items())
        self.lines.append(
            f"{time.strftime('%Y-%m-%dT%H:%M:%S')} +{time.time() - self.t0:8.3f}s {name} {extra}".rstrip())

    def text(self):
        return "\n".join(self.lines) + "\n"


def _exit_codes(cmd):
    """The exit-code contract: a ConfigError prints one error line and
    returns 2, an OSError (the input readers turn theirs into ConfigError,
    so only writing raises one) returns 3; anything else is a bug."""
    @functools.wraps(cmd)
    def run(*args, **kwargs) -> int:
        try:
            return cmd(*args, **kwargs)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot write outputs: {exc}", file=sys.stderr)
            return 3

    return run


def _measure_histogram(cfg: ScenarioConfig):
    """Simulate with cfg.rng and extract the peak-area figures for the
    configured mode. load_config has checked the window geometry; a
    histogram whose reference windows hold no counts raises ConfigError."""
    hist = simulate_histogram(cfg.scenario, cfg.rng, bin_width=cfg.bin_width,
                              window_periods=cfg.window_periods, n_jobs=cfg.n_jobs)
    try:
        if cfg.scenario.mode in (MODE_DOUBLE_PULSE, MODE_CROSS_POLARIZED):
            report = g2_indist_double_pulse(hist, cfg.scenario.intra_delay,
                                            cfg.analysis_window_halfwidth)
        else:
            report = peak_areas(hist, cfg.analysis_window_halfwidth, cfg.n_side_peaks,
                                first_side_peak=cfg.first_side_peak())
    except WindowConfigurationError as exc:
        raise ConfigError(f"cannot analyse the simulated histogram: {exc}") from exc
    return hist, report


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _histogram_csv(hist) -> str:
    edges = hist.bin_edges()
    lines = ["bin_start_ns,bin_end_ns,counts"]
    for lo, hi, c in zip(edges[:-1], edges[1:], hist.counts):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)}")
    return "\n".join(lines) + "\n"


@_exit_codes
def cmd_simulate(config_path, out_dir, seed=None) -> int:
    """Run the configured scenario, writing histogram.csv, summary.json and
    run.log into out_dir."""
    log = _RunLog()
    cfg = load_config(config_path)
    if seed is not None:
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {seed}")
        cfg = dataclasses.replace(cfg, rng=dataclasses.replace(cfg.rng, seed=seed))
    log.stage("config-loaded", mode=cfg.scenario.mode, n_pulses=cfg.scenario.n_pulses)
    hist, report = _measure_histogram(cfg)
    log.stage("simulated", pairs=hist.total_events)
    g2_mc = report.g2_indist
    vis_ref = analytic_visibility(cfg.scenario)
    g2_ref = 0.5 * (1.0 - vis_ref)
    vis_mc = 1.0 - 2.0 * g2_mc
    summary = {
        "schema_version": SCHEMA_VERSION,
        "effective_config": cfg.effective_dict(),
        "provenance": {
            "package": "homsim",
            "version": __version__,
            "rng_algorithm": RNG_ALGORITHM,
            "seed": cfg.rng.seed,
            "stream_id": cfg.rng.stream_id,
            "chunk_pulses": CHUNK_PULSES,
            "energy_conversion_uev_per_rad_per_ns": HBAR_UEV_NS,
        },
        "results": {
            "g2_indist": {
                "monte_carlo": g2_mc,
                "stat_error": report.g2_indist_err,
                "analytic": g2_ref,
                "discrepancy": g2_mc - g2_ref,
            },
            "visibility": {
                "monte_carlo": vis_mc,
                "stat_error": 2.0 * report.g2_indist_err,
                "analytic": vis_ref,
                "discrepancy": vis_mc - vis_ref,
            },
            "central_area": report.central_area,
            "side_average": report.side_average,
            "total_pairs": hist.total_events,
            "window_halfwidth_ns": report.window_halfwidth,
        },
    }
    log.stage("analyzed", g2=round(g2_mc, 6))
    out = Path(out_dir)
    if "histogram.csv" in cfg.outputs:
        _write_text(out / "histogram.csv", _histogram_csv(hist))
    if "summary.json" in cfg.outputs:
        _write_text(out / "summary.json", _json_text(summary))
    log.stage("written")
    if "run.log" in cfg.outputs:
        _write_text(out / "run.log", log.text())
    return 0


def _axis_pairs(cfg: ScenarioConfig, axis, values):
    """Arrays of the pair's arrival offset, mean detuning and jitter scale
    (delta_tau, delta0, sigma_g) at each sweep value, the two the axis does
    not set held at the config's values. A value that is not finite, or
    maps to one, is a ConfigError."""
    pair = cfg.scenario.pair
    delta_tau, delta0, sigma_g = (np.full(values.shape, v)
                                  for v in (pair.delta_tau, pair.delta0, pair.sigma_g))
    if axis == "delta_t":
        delta_tau = values
    elif axis == "detuning":
        delta0 = values
    elif axis == "sigma_g":
        sigma_g = values
        negative = values < 0
        if negative.any():
            raise ConfigError(f"sigma_g sweep value must be >= 0, got {float(values[negative][0])}")
    else:  # temperature-proxy
        if cfg.temperature_slope_uev_per_k is None or cfg.temperature_ref_k is None:
            raise ConfigError(
                "temperature-proxy sweeps require sweep.temperature_slope_uev_per_K and "
                "sweep.temperature_ref_K in the config")
        with np.errstate(over="ignore", invalid="ignore"):
            delta0 = (values - cfg.temperature_ref_k) * cfg.temperature_slope_uev_per_k / HBAR_UEV_NS
    bad = ~(np.isfinite(delta_tau) & np.isfinite(delta0) & np.isfinite(sigma_g))
    if bad.any():
        raise ConfigError(f"{axis} sweep value {float(values[bad][0])} is not finite "
                          "or maps outside the float range")
    return delta_tau, delta0, sigma_g


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--range expects start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--range {text!r}: {exc}") from exc
    if steps < 1:
        raise ConfigError(f"--range steps must be >= 1, got {steps}")
    if steps > 2 ** 53:  # linspace counts its steps in float64, exact up to 2**53
        raise ConfigError(f"--range steps must be <= 2**53, got {steps}")
    return start, stop, steps


@_exit_codes
def cmd_sweep(config_path, axis, sweep_range, out_dir) -> int:
    """Sweep one scenario parameter over sweep_range, a start:stop:steps
    string, writing sweep.csv with columns
    (axis_value, visibility, g2_indist, stat_error).

    With model_overrides.analytic_only the model prediction is evaluated
    for the whole axis in one array pass (stat_error 0); otherwise each
    point is simulated with an independent RNG stream (stream_id + point
    index)."""
    log = _RunLog()
    cfg = load_config(config_path)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid: {SWEEP_AXES}")
    start, stop, steps = _parse_range(sweep_range)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.linspace(start, stop, steps)
    except MemoryError:
        raise ConfigError(f"--range: cannot allocate {steps} sweep steps") from None
    delta_tau, delta0, sigma_g = _axis_pairs(cfg, axis, values)
    if cfg.analytic_only:
        vis = analytic_visibility_at(cfg.scenario, delta_tau, delta0, sigma_g)
        rows = zip(values.tolist(), vis.tolist(), (0.5 * (1.0 - vis)).tolist(),
                   [0.0] * steps)
        log.stage("evaluated", points=steps)
    else:
        if cfg.rng.stream_id + steps - 1 >= 2 ** 32:
            raise ConfigError(f"rng.stream_id: {steps} sweep points need stream ids up to "
                              f"{cfg.rng.stream_id + steps - 1}, past the 32-bit limit")
        rows = []
        points = zip(values.tolist(), delta_tau.tolist(), delta0.tolist(), sigma_g.tolist())
        for i, (v, dt, d0, sg) in enumerate(points):
            pair = dataclasses.replace(cfg.scenario.pair, delta_tau=dt, delta0=d0, sigma_g=sg)
            _, report = _measure_histogram(dataclasses.replace(
                cfg, scenario=dataclasses.replace(cfg.scenario, pair=pair),
                rng=dataclasses.replace(cfg.rng, stream_id=cfg.rng.stream_id + i)))
            g2 = float(report.g2_indist)
            rows.append((v, 1.0 - 2.0 * g2, g2, float(report.g2_indist_err)))
            log.stage("point", axis_value=v, g2=round(g2, 6))

    lines = ["axis_value,visibility,g2_indist,stat_error"]
    lines += [f"{v!r},{vis!r},{g2!r},{err!r}" for v, vis, g2, err in rows]
    out = Path(out_dir)
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    _write_text(out / "run.log", log.text())
    return 0


def _load_xy_csv(path):
    """Numeric CSV with 2 or 3 columns (x, y[, y_error]); a single header
    row is allowed. Errors carry row/column positions."""
    rows = []
    n_cols = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for i, rec in enumerate(csv.reader(fh), start=1):
                if not rec or all(not c.strip() for c in rec):
                    continue
                vals = []
                for j, cell in enumerate(rec, start=1):
                    cell = cell.strip()
                    try:
                        v = float(cell)
                    except ValueError:
                        if i == 1:  # header row
                            vals = None
                            break
                        raise ConfigError(
                            f"{path}: row {i}, column {j}: cannot parse {cell!r} as a number") from None
                    if not math.isfinite(v):
                        raise ConfigError(f"{path}: row {i}, column {j}: {cell!r} is not a finite number")
                    if j == 3 and not (v > 0 and math.isfinite(1.0 / v)):
                        raise ConfigError(
                            f"{path}: row {i}, column {j}: y_error {cell!r} must be positive, with a finite reciprocal")
                    vals.append(v)
                if vals is None:
                    continue
                if len(vals) not in (2, 3):
                    raise ConfigError(
                        f"{path}: row {i}: expected 2 or 3 columns, got {len(vals)}")
                if n_cols is None:
                    n_cols = len(vals)
                elif len(vals) != n_cols:
                    raise ConfigError(
                        f"{path}: row {i}: inconsistent column count ({len(vals)} vs {n_cols})")
                rows.append(vals)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no numeric data rows found")
    arr = np.asarray(rows, dtype=float)
    return arr[:, :2], (1.0 / arr[:, 2] if arr.shape[1] == 3 else None)


_FIT_MODELS = {
    "hom_dip": fit_hom_dip,
    "exp_decay": fit_exponential_decay,
    "michelson": fit_michelson,
}


@_exit_codes
def cmd_fit(data_path, model, out_path) -> int:
    """Fit the named model to a two-column CSV, writing the result JSON."""
    if model not in _FIT_MODELS:
        raise ConfigError(f"unknown fit model {model!r}; valid: {sorted(_FIT_MODELS)}")
    points, weights = _load_xy_csv(data_path)
    try:
        result = _FIT_MODELS[model](points, weights=weights)
    except (ValueError, SingularModelError) as exc:
        raise ConfigError(f"fit failed: {exc}") from exc
    payload = {
        "model": model,
        "parameters": result.parameters,
        "standard_errors": result.standard_errors,
        "residual_norm": result.residual_norm,
        "converged": result.converged,
        "iterations": result.iterations,
        "message": result.message,
    }
    _write_text(Path(out_path), _json_text(payload))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call and shared
    by every later one (parse_args keeps no state between calls); not at
    import, so importing homsim.cli stays cheap."""
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Two-photon interference simulator: scenarios, sweeps and fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_sweep = sub.add_parser("sweep", help="sweep one scenario parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--range", required=True, dest="sweep_range",
                         help="start:stop:steps")
    p_sweep.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to CSV data")
    p_fit.add_argument("--model", required=True, choices=sorted(_FIT_MODELS))
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command from argv (default sys.argv[1:]) and return its exit
    code; argparse usage errors raise SystemExit(2). Safe to call
    repeatedly in one process."""
    args = _parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, seed=args.seed)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.axis, args.sweep_range, args.out)
    return cmd_fit(args.data, args.model, args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
