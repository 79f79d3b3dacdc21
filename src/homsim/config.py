"""Scenario configuration: JSON schema with explicit units in field names,
validation with field-path diagnostics, and default resolution.

_FIELDS spells each field once: config_from_dict reads and checks every
field through it, effective_dict echoes it, and any other key is an error.
The analysis window is checked by the estimator's own rule
(analysis._check_windows) on the peaks the configured mode reads, so a
window the estimator would reject fails here, before anything is simulated.

All times are nanoseconds, angular frequencies rad/ns; detunings may
alternatively be given in microelectronvolts (fields ending in _uev), which
are converted through hbar = 0.6582119569 ueV*ns.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from typing import NamedTuple

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
    _block_shape,
)

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "config_from_dict"]

SCHEMA_VERSION = "homsim-1"
KNOWN_OUTPUTS = ("histogram.csv", "summary.json", "run.log")


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path
    (or the line/column for JSON syntax errors)."""


class _Field(NamedTuple):
    """attr: the ScenarioConfig attribute the field sets (None for the
    schema_version constant and the _uev alternates); kind: float, int, bool,
    a tuple of allowed values or a list of them (a non-empty list drawn from
    it); default: a value, _REQUIRED, or None (derived or absent); lo, hi:
    inclusive bounds (1e300 ns keeps a block's time draws and sums finite)."""

    attr: str | None
    kind: object
    default: object
    lo: float | None = None
    hi: float | None = None


_REQUIRED = "required"
_FIELDS = {
    "schema_version": _Field(None, (SCHEMA_VERSION,), _REQUIRED),
    "mode": _Field("scenario.mode", MODES, _REQUIRED),
    "tau_r_ns": _Field("scenario.pair.tau_r", float, _REQUIRED, hi=1e300),
    "delta_tau_ns": _Field("scenario.pair.delta_tau", float, 0.0),
    "delta0_rad_per_ns": _Field("scenario.pair.delta0", float, 0.0),
    "delta0_uev": _Field(None, float, None),
    "sigma_g_rad_per_ns": _Field("scenario.pair.sigma_g", float, 0.0),
    "sigma_g_uev": _Field(None, float, None),
    "rep_period_ns": _Field("scenario.rep_period", float, _REQUIRED),
    "intra_delay_ns": _Field("scenario.intra_delay", float, None),
    "emission_jitter_ns": _Field("scenario.emission_jitter", float, 0.0, hi=1e300),
    # _chunk_rng keys each block by a block index below 2^32
    "n_pulses": _Field("scenario.n_pulses", int, 100_000, 1, CHUNK_PULSES * 2 ** 32),
    "detector.efficiency": _Field("scenario.detector.efficiency", float, 1.0),
    "detector.timing_jitter_sigma_ns": _Field("scenario.detector.timing_jitter_sigma", float, 0.0, hi=1e300),
    "detector.dark_rate_per_ns": _Field("scenario.detector.dark_rate", float, 0.0),
    "rng.seed": _Field("rng.seed", int, _REQUIRED),
    "rng.stream_id": _Field("rng.stream_id", int, 0),
    "histogram.bin_width_ns": _Field("bin_width", float, 0.128, 1e-6),
    "histogram.window_periods": _Field("window_periods", int, None, 1),
    "analysis.n_side_peaks": _Field("n_side_peaks", int, 6, 2),
    "analysis.window_halfwidth_ns": _Field("analysis_window_halfwidth", float, None, 1e-9),
    "model_overrides.analytic_only": _Field("analytic_only", bool, False),
    "outputs": _Field("outputs", list(KNOWN_OUTPUTS), KNOWN_OUTPUTS),
    "sweep.temperature_slope_uev_per_K": _Field("temperature_slope_uev_per_k", float, None),
    "sweep.temperature_ref_K": _Field("temperature_ref_k", float, None),
    "n_jobs": _Field("n_jobs", int, None, 1),  # None: every usable core
}
# the config paths of _block_shape's inputs, as its errors name them
_BLOCK_NAMES = {"rep_period": "rep_period_ns", "bin_width": "histogram.bin_width_ns",
                "window_periods": "histogram.window_periods",
                "dark_rate": "detector.dark_rate_per_ns"}
_SECTIONS = tuple(dict.fromkeys(path.rpartition(".")[0] for path in _FIELDS if "." in path))


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
    n_jobs: int | None
    temperature_slope_uev_per_k: float | None
    temperature_ref_k: float | None
    outputs: tuple[str, ...]

    def pulse_pair(self) -> bool:
        """Pulse-pair modes reference the satellites at +/- intra_delay
        (g2_indist_double_pulse), the others the side peaks (peak_areas)."""
        return self.scenario.mode in (MODE_DOUBLE_PULSE, MODE_CROSS_POLARIZED)

    def first_side_peak(self) -> int:
        """Consecutive-photon interference suppresses the +/-1 repetition
        peaks combinatorially (to 3/4), so the reference starts at lag 2."""
        return 2 if self.scenario.mode == MODE_CONSECUTIVE else 1

    def effective_dict(self) -> dict:
        """Round-trippable echo of the configuration after defaults."""
        echo = {"schema_version": SCHEMA_VERSION}
        for path, f in _FIELDS.items():
            if f.attr:
                value = functools.reduce(getattr, f.attr.split("."), self)
                _put(echo, path, list(value) if isinstance(value, tuple) else value)
        return echo


def _put(tree, dotted, value):
    *parents, name = dotted.split(".")
    for part in parents:
        tree = tree.setdefault(part, {})
    tree[name] = value


def _check(path, v):
    _, kind, _, lo, hi = _FIELDS[path]
    if kind is bool and not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false")
    if isinstance(kind, tuple) and v not in kind:
        raise ConfigError(f"{path}: must be one of {list(kind)}, got {v!r}")
    if isinstance(kind, list):
        if not isinstance(v, list) or not v or any(o not in kind for o in v):
            raise ConfigError(f"{path}: expected a non-empty list drawn from {kind}")
        return tuple(v)
    if kind is bool or isinstance(kind, tuple):
        return v
    # abs(v) <= max also rejects NaN, and ints too large to convert to float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    if kind is int and int(v) != v:
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {v}")
    return kind(v)


def _nearest(path):
    """The known path closest to an unknown one, or None. The whole paths
    are compared and so are their last segments, so that a key in the wrong
    section (a top-level "seed", or "detector.seed") points at its field."""
    from difflib import SequenceMatcher  # only an unknown key pays for the import

    def score(known):
        return max(SequenceMatcher(None, path, known).ratio(),
                   SequenceMatcher(None, path.rpartition(".")[2], known.rpartition(".")[2]).ratio())
    best = max([*_FIELDS, *_SECTIONS], key=score)
    return best if score(best) >= 0.6 else None


def _given(obj, prefix=""):
    """The checked value of each field the JSON object obj gives, by path.
    A null counts as absent; an unknown key, at any depth, and a section
    that is not a JSON object are errors."""
    values = {}
    for key, v in obj.items():
        path = prefix + key
        if "." in key:
            raise ConfigError(f"{path}: unknown field; write a dotted path as nested JSON objects")
        if path not in _FIELDS and path not in _SECTIONS:
            near = _nearest(path)
            raise ConfigError(f"{path}: unknown field" + (f"; did you mean {near}?" if near else ""))
        if v is None:
            continue
        if path in _FIELDS:
            values[path] = _check(path, v)
        elif isinstance(v, dict):
            values.update(_given(v, path + "."))
        else:
            raise ConfigError(f"{path}: expected a JSON object")
    return values


def config_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    given = _given(raw)
    for path in [p for p in given if p.endswith("_uev")]:
        rad = path.replace("_uev", "_rad_per_ns")
        if rad in given:
            raise ConfigError(f"{rad} and {path} are mutually exclusive")
        given[rad] = given[path] / HBAR_UEV_NS
    tree = {}
    for path, f in _FIELDS.items():
        if f.default == _REQUIRED and path not in given:
            raise ConfigError(f"{path}: required field is missing")
        if f.attr:
            _put(tree, f.attr, given.get(path, f.default))

    s = tree["scenario"]
    delay_given = s["intra_delay"] is not None
    s["intra_delay"] = s["intra_delay"] if delay_given else min(2.0, 0.5 * s["rep_period"])
    try:
        s["pair"], s["detector"] = PairSpec(**s["pair"]), DetectorModel(**s["detector"])
        tree["scenario"], tree["rng"] = InterferenceScenario(**s), RngSpec(**tree["rng"])
    except ValueError as exc:
        raise ConfigError(f"invalid parameter value: {exc}") from exc
    cfg = ScenarioConfig(**tree)

    T, d = cfg.scenario.rep_period, cfg.scenario.intra_delay
    if cfg.n_side_peaks % 2:
        raise ConfigError(f"analysis.n_side_peaks: must be even, got {cfg.n_side_peaks}")
    k_max = cfg.first_side_peak() + cfg.n_side_peaks // 2 - 1
    if cfg.window_periods is None:
        cfg.window_periods = max(3, k_max + 1)
    try:
        _block_shape(T, cfg.bin_width, cfg.window_periods, cfg.scenario.detector.dark_rate,
                     names=_BLOCK_NAMES)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spacing, reach = (_pulse_pair_spacing(d, T), d) if cfg.pulse_pair() else (T, k_max * T)
    if spacing == 0:  # d = T/2 or T/3: a peak of the next pulse lies on a window
        k, peak = (2, "central peak at lag 0") if T == 2 * d else (3, "satellite at lag +intra_delay_ns")
        default = "" if delay_given else " (the default, min(2, rep_period_ns / 2))"
        raise ConfigError(f"intra_delay_ns: {d} ns{default} is rep_period_ns / {k}, so the peak at lag "
                          f"rep_period_ns - 2 * intra_delay_ns coincides with the {peak}")
    if cfg.analysis_window_halfwidth is None:
        # 5 lifetimes, clipped so integration windows cannot overlap
        cfg.analysis_window_halfwidth = min(5.0 * cfg.scenario.pair.tau_r,
                                            (0.4 if cfg.pulse_pair() else 0.45) * spacing)
    try:
        _check_windows(cfg.analysis_window_halfwidth, spacing, reach, cfg.window_periods * T)
    except WindowConfigurationError as exc:
        raise ConfigError(f"analysis.window_halfwidth_ns: {exc} "
                          f"(histogram.window_periods = {cfg.window_periods})") from exc
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or an integer past the digit limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)
