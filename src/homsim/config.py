"""Scenario configuration: JSON schema with explicit units in field names,
validation with field-path diagnostics, and default resolution.

The analysis window is checked by the estimator's own rule
(analysis._check_windows) on the peaks the configured mode reads, so a
window the estimator would reject fails here, before anything is simulated.

All times are nanoseconds, angular frequencies rad/ns; detunings may
alternatively be given in microelectronvolts (fields ending in _uev), which
are converted through hbar = 0.6582119569 ueV*ns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .analysis import WindowConfigurationError, _check_windows, _pulse_pair_spacing
from .model import HBAR_UEV_NS, PairSpec
from .montecarlo import (
    CHUNK_PULSES,
    MODE_CONSECUTIVE,
    MODE_CROSS_POLARIZED,
    MODE_DOUBLE_PULSE,
    MODES,
    DetectorModel,
    InterferenceScenario,
    RngSpec,
)

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "config_from_dict"]

SCHEMA_VERSION = "homsim-1"
KNOWN_OUTPUTS = ("histogram.csv", "summary.json", "run.log")


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path
    (or the line/column for JSON syntax errors)."""


@dataclass
class ScenarioConfig:
    """Validated configuration with all defaults resolved."""

    scenario: InterferenceScenario
    rng: RngSpec
    bin_width: float
    window_periods: int
    n_side_peaks: int
    analysis_window_halfwidth: float
    analytic_only: bool
    n_jobs: int
    temperature_slope_uev_per_k: float | None
    temperature_ref_k: float | None
    outputs: tuple[str, ...] = KNOWN_OUTPUTS

    def first_side_peak(self) -> int:
        """Consecutive-photon interference suppresses the +/-1 repetition
        peaks combinatorially (to 3/4), so the reference starts at lag 2."""
        return 2 if self.scenario.mode == MODE_CONSECUTIVE else 1

    def effective_dict(self) -> dict:
        """Round-trippable echo of the configuration after defaults."""
        s = self.scenario
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": s.mode,
            "tau_r_ns": s.pair.tau_r,
            "delta_tau_ns": s.pair.delta_tau,
            "delta0_rad_per_ns": s.pair.delta0,
            "sigma_g_rad_per_ns": s.pair.sigma_g,
            "rep_period_ns": s.rep_period,
            "intra_delay_ns": s.intra_delay,
            "emission_jitter_ns": s.emission_jitter,
            "n_pulses": s.n_pulses,
            "detector": {
                "efficiency": s.detector.efficiency,
                "timing_jitter_sigma_ns": s.detector.timing_jitter_sigma,
                "dark_rate_per_ns": s.detector.dark_rate,
            },
            "rng": {"seed": self.rng.seed, "stream_id": self.rng.stream_id},
            "histogram": {"bin_width_ns": self.bin_width, "window_periods": self.window_periods},
            "analysis": {
                "n_side_peaks": self.n_side_peaks,
                "window_halfwidth_ns": self.analysis_window_halfwidth,
            },
            "model_overrides": {"analytic_only": self.analytic_only},
            "outputs": list(self.outputs),
            "sweep": {
                "temperature_slope_uev_per_K": self.temperature_slope_uev_per_k,
                "temperature_ref_K": self.temperature_ref_k,
            },
            "n_jobs": self.n_jobs,
        }


def _get(d, path, default=None, required=False):
    cur = d
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError(f"{path}: required field is missing")
            return default
        cur = cur[part]
    return cur


def _number(d, path, default=None, required=False, lo=None, hi=None, integer=False):
    v = _get(d, path, default=default, required=required)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {v}")
    return int(v) if integer else float(v)


def _freq_field(d, base_path, default=0.0):
    """Angular frequency given either directly (_rad_per_ns) or as an energy
    (_uev); specifying both is an error."""
    rad = _number(d, base_path + "_rad_per_ns")
    uev = _number(d, base_path + "_uev")
    if rad is not None and uev is not None:
        raise ConfigError(f"{base_path}_rad_per_ns and {base_path}_uev are mutually exclusive")
    if uev is not None:
        return uev / HBAR_UEV_NS
    return default if rad is None else rad


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    version = _get(raw, "schema_version", required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unrecognized value {version!r} (expected {SCHEMA_VERSION!r})")
    mode = _get(raw, "mode", required=True)
    if mode not in MODES:
        raise ConfigError(f"mode: must be one of {list(MODES)}, got {mode!r}")

    tau_r = _number(raw, "tau_r_ns", required=True)
    rep_period = _number(raw, "rep_period_ns", required=True)
    try:
        pair = PairSpec(
            tau_r=tau_r,
            delta_tau=_number(raw, "delta_tau_ns", default=0.0),
            delta0=_freq_field(raw, "delta0"),
            sigma_g=_freq_field(raw, "sigma_g"),
        )
        detector = DetectorModel(
            efficiency=_number(raw, "detector.efficiency", default=1.0),
            timing_jitter_sigma=_number(raw, "detector.timing_jitter_sigma_ns", default=0.0),
            dark_rate=_number(raw, "detector.dark_rate_per_ns", default=0.0),
        )
        scenario = InterferenceScenario(
            mode=mode,
            pair=pair,
            rep_period=rep_period,
            intra_delay=_number(raw, "intra_delay_ns", default=min(2.0, 0.5 * rep_period)),
            emission_jitter=_number(raw, "emission_jitter_ns", default=0.0),
            # _chunk_rng keys each block by a block index below 2^32
            n_pulses=_number(raw, "n_pulses", default=100_000, integer=True, lo=1,
                             hi=CHUNK_PULSES * 2 ** 32),
            detector=detector,
        )
        rng = RngSpec(
            seed=_number(raw, "rng.seed", required=True, integer=True),
            stream_id=_number(raw, "rng.stream_id", default=0, integer=True),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid parameter value: {exc}") from exc

    n_side = _number(raw, "analysis.n_side_peaks", default=6, integer=True, lo=2)
    if n_side % 2:
        raise ConfigError(f"analysis.n_side_peaks: must be even, got {n_side}")
    k_max = (2 if mode == MODE_CONSECUTIVE else 1) + n_side // 2 - 1

    window_periods = _number(raw, "histogram.window_periods", integer=True, lo=1)
    if window_periods is None:
        window_periods = max(3, k_max + 1)
    bin_width = _number(raw, "histogram.bin_width_ns", default=0.128, lo=1e-6)

    satellites = mode in (MODE_DOUBLE_PULSE, MODE_CROSS_POLARIZED)
    spacing, reach = ((_pulse_pair_spacing(scenario.intra_delay, rep_period), scenario.intra_delay)
                      if satellites else (rep_period, k_max * rep_period))
    if spacing == 0:  # d = T/2 or T/3: a peak of the next pulse lies on a window
        d = scenario.intra_delay
        k, peak = ((2, "central peak at lag 0") if rep_period == 2 * d
                   else (3, "satellite at lag +intra_delay_ns"))
        default = "" if "intra_delay_ns" in raw else " (the default, min(2, rep_period_ns / 2))"
        raise ConfigError(f"intra_delay_ns: {d} ns{default} is rep_period_ns / {k}, so the peak at lag "
                          f"rep_period_ns - 2 * intra_delay_ns coincides with the {peak}")
    whw = _number(raw, "analysis.window_halfwidth_ns", lo=1e-9)
    if whw is None:
        # 5 lifetimes, clipped so integration windows cannot overlap
        whw = min(5.0 * tau_r, (0.4 if satellites else 0.45) * spacing)
    try:
        _check_windows(whw, spacing, reach, window_periods * rep_period)
    except WindowConfigurationError as exc:
        raise ConfigError(f"analysis.window_halfwidth_ns: {exc} "
                          f"(histogram.window_periods = {window_periods})") from exc

    analytic_only = _get(raw, "model_overrides.analytic_only", default=False)
    if not isinstance(analytic_only, bool):
        raise ConfigError("model_overrides.analytic_only: expected true/false")

    outputs = _get(raw, "outputs", default=list(KNOWN_OUTPUTS))
    if (not isinstance(outputs, list) or not outputs
            or any(o not in KNOWN_OUTPUTS for o in outputs)):
        raise ConfigError(f"outputs: expected a non-empty list drawn from {list(KNOWN_OUTPUTS)}")

    return ScenarioConfig(
        scenario=scenario,
        rng=rng,
        bin_width=bin_width,
        window_periods=window_periods,
        n_side_peaks=n_side,
        analysis_window_halfwidth=whw,
        analytic_only=analytic_only,
        n_jobs=_number(raw, "n_jobs", default=1, integer=True, lo=1),
        temperature_slope_uev_per_k=_number(raw, "sweep.temperature_slope_uev_per_K"),
        temperature_ref_k=_number(raw, "sweep.temperature_ref_K"),
        outputs=tuple(outputs),
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)
