"""Extraction of peak areas and the indistinguishability figure from
coincidence histograms.

The central-to-side-peak area ratio is the measured g2_indist; side peaks are
taken at multiples of the repetition period. In pulse-pair (double-pulse)
operation the two satellites at the intra-pulse delay are the natural
distinguishable reference instead, because the repetition-period peaks carry
extra pair combinations there (see g2_indist_double_pulse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeakAreaReport",
    "WindowConfigurationError",
    "peak_areas",
    "g2_indist_double_pulse",
]


class WindowConfigurationError(ValueError):
    """Peak integration windows overlap or leave the histogram range."""


@dataclass
class PeakAreaReport:
    """Window-integrated coincidence areas and the derived g2_indist.

    g2_indist = central_area / side_average; the error estimate propagates
    Poisson counting errors of every window in quadrature.
    """

    central_area: float
    side_areas: np.ndarray
    side_average: float
    g2_indist: float
    g2_indist_err: float
    n_side_peaks: int
    window_halfwidth: float
    side_lags: np.ndarray


def _window_sum(hist, center, halfwidth, baseline_per_bin=0.0):
    """Counts within exactly center +/- halfwidth, taking the covered share
    of each edge bin (counts spread evenly over a bin)."""
    e = hist.bin_edges()
    share = np.clip(np.minimum(e[1:], center + halfwidth) - np.maximum(e[:-1], center - halfwidth),
                    0.0, None) / np.diff(e)
    return float(share @ hist.counts) - baseline_per_bin * float(share.sum())


def peak_areas(hist, window_halfwidth: float, n_side_peaks: int = 6, *,
               first_side_peak: int = 1, baseline_per_bin: float = 0.0) -> PeakAreaReport:
    """Integrate the histogram in windows at lag 0 and at +/- k * rep_period.

    Parameters
    ----------
    window_halfwidth : window half width around each peak center (ns); must
        be below half the repetition period so windows cannot overlap.
    n_side_peaks : total number of side windows (split evenly over both
        signs), so lags k = first_side_peak .. first_side_peak + n/2 - 1.
    first_side_peak : first side lag to use. Consecutive-photon operation
        should start at 2: the +/-1 peaks are combinatorially suppressed to
        3/4 of the far peaks and would bias the reference.
    baseline_per_bin : constant background (dark-count) level subtracted
        from every bin before integrating.
    """
    T = hist.rep_period
    if n_side_peaks < 2 or n_side_peaks % 2 != 0:
        raise ValueError(f"n_side_peaks must be a positive even count, got {n_side_peaks}")
    if first_side_peak < 1:
        raise ValueError(f"first_side_peak must be >= 1, got {first_side_peak}")
    if not 0 < window_halfwidth < T / 2:
        raise WindowConfigurationError(
            f"window_halfwidth must lie in (0, rep_period/2) = (0, {T / 2}), got {window_halfwidth}")
    k_max = first_side_peak + n_side_peaks // 2 - 1
    if k_max * T + window_halfwidth > hist.window_halfspan():
        raise WindowConfigurationError(
            f"side peak at lag {k_max}*T = {k_max * T} ns (+{window_halfwidth} ns window) lies outside "
            f"the histogram range +/-{hist.window_halfspan()} ns")

    central = _window_sum(hist, 0.0, window_halfwidth, baseline_per_bin)
    lags = np.array([s * k for k in range(first_side_peak, first_side_peak + n_side_peaks // 2)
                     for s in (+1, -1)], dtype=float)
    sides = np.array([_window_sum(hist, k * T, window_halfwidth, baseline_per_bin)
                      for k in lags])

    side_avg = float(np.mean(sides))
    if side_avg <= 0:
        raise WindowConfigurationError("side windows contain no counts; cannot normalize")
    g2 = central / side_avg
    err = _g2_error(central, sides)
    return PeakAreaReport(central_area=central, side_areas=sides, side_average=side_avg,
                          g2_indist=g2, g2_indist_err=err, n_side_peaks=n_side_peaks,
                          window_halfwidth=window_halfwidth, side_lags=lags)


def _g2_error(central, sides):
    """Poisson propagation for central / mean(sides)."""
    side_sum = float(np.sum(sides))
    n = len(sides)
    mean_b = side_sum / n
    if mean_b <= 0:
        return float("inf")
    var_a = max(central, 1.0)
    var_mean_b = side_sum / n ** 2
    g = central / mean_b
    if central <= 0:
        return math.sqrt(var_a) / mean_b
    return abs(g) * math.sqrt(var_a / central ** 2 + var_mean_b / mean_b ** 2)


def g2_indist_double_pulse(hist, intra_delay: float, window_halfwidth: float) -> PeakAreaReport:
    """g2_indist for pulse-pair operation: the central area referenced to the
    sum of the two satellites at +/- intra_delay.

    Each satellite carries half of the fully distinguishable same-period
    coincidence rate, so their sum doubles the distinguishable central area:
    g2 = central / (satellite sum) puts perfectly distinguishable photons at
    0.5 and perfect interference at 0, matching the side-peak convention.
    """
    if not 0 < window_halfwidth < intra_delay / 2:
        raise WindowConfigurationError(
            f"window_halfwidth must lie in (0, intra_delay/2) = (0, {intra_delay / 2}), "
            f"got {window_halfwidth} (satellite windows would overlap the central one)")
    central = _window_sum(hist, 0.0, window_halfwidth)
    sats = np.array([_window_sum(hist, +intra_delay, window_halfwidth),
                     _window_sum(hist, -intra_delay, window_halfwidth)])
    ref = float(sats.sum())
    if ref <= 0:
        raise WindowConfigurationError("satellite windows contain no counts; cannot normalize")
    g2 = central / ref
    var_c = max(central, 1.0)
    if central > 0:
        err = g2 * math.sqrt(1.0 / central + 1.0 / ref)
    else:
        err = math.sqrt(var_c) / ref
    return PeakAreaReport(central_area=central, side_areas=sats, side_average=ref,
                          g2_indist=g2, g2_indist_err=err, n_side_peaks=2,
                          window_halfwidth=window_halfwidth,
                          side_lags=np.array([+1.0, -1.0]) * intra_delay / hist.rep_period)
