"""Extraction of peak areas and the indistinguishability figure from
coincidence histograms.

Both estimators share one core: g2_indist is the central window area over a
reference area, with Poisson errors propagated in quadrature and the central
variance floored at one count. peak_areas references the mean of the side
peaks at multiples of the repetition period; g2_indist_double_pulse, for
pulse-pair operation, the sum of the two satellites at +/- the intra-pulse
delay, because the repetition-period peaks carry extra pair combinations
there. One window rule, _check_windows, guards both, and config_from_dict
applies it to the configured geometry before anything is simulated; in
pulse-pair mode the peak spacing it checks is _pulse_pair_spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import _is_count

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


def _check_windows(window_halfwidth, spacing, reach, halfspan):
    """Windows of half width window_halfwidth around peaks spacing apart
    must not overlap, and the one around the farthest peak, at lag reach,
    must lie within the histogram range +/-halfspan (all in ns)."""
    if not 0 < window_halfwidth < spacing / 2:
        raise WindowConfigurationError(
            f"window half width {window_halfwidth} ns must lie in (0, {spacing / 2}) ns, "
            f"below half the {spacing} ns peak spacing")
    if reach + window_halfwidth > halfspan:
        raise WindowConfigurationError(
            f"the window around the peak at lag {reach} ns reaches {reach + window_halfwidth} ns, "
            f"beyond the histogram range +/-{halfspan} ns")


def _pulse_pair_spacing(intra_delay, rep_period):
    """Distance from the windows a pulse-pair estimate reads (lags 0 and
    +/- intra_delay d) to the nearest other peak. The unbalanced
    interferometer delivers photons 0, d and 2d after their pulse, so peaks
    lie at k*T + j*d for j in -2..2, and the nearest is d, T - d, |T - 2d|
    or |T - 3d| away."""
    d, T = intra_delay, rep_period
    return min(d, abs(T - d), abs(T - 2 * d), abs(T - 3 * d))


def _window_sum(hist, center, halfwidth, baseline_per_bin=0.0):
    """Counts within exactly center +/- halfwidth, taking the covered share
    of each edge bin (counts spread evenly over a bin)."""
    e = hist.bin_edges()
    share = np.clip(np.minimum(e[1:], center + halfwidth) - np.maximum(e[:-1], center - halfwidth),
                    0.0, None) / np.diff(e)
    return float(share @ hist.counts) - baseline_per_bin * float(share.sum())


def _ratio(hist, window_halfwidth, centers, lags, divisor, baseline_per_bin=0.0):
    """Central area over the reference sum(side areas at centers) / divisor."""
    central = _window_sum(hist, 0.0, window_halfwidth, baseline_per_bin)
    sides = np.array([_window_sum(hist, c, window_halfwidth, baseline_per_bin) for c in centers])
    side_sum = float(np.sum(sides))
    ref = side_sum / divisor
    if ref <= 0:
        raise WindowConfigurationError("side windows contain no counts; cannot normalize")
    g2 = central / ref
    var_c = max(central, 1.0)
    if central > 0:
        err = g2 * math.sqrt(var_c / central ** 2 + side_sum / divisor ** 2 / ref ** 2)
    else:
        err = math.sqrt(var_c) / ref
    return PeakAreaReport(central_area=central, side_areas=sides, side_average=ref,
                          g2_indist=g2, g2_indist_err=err, n_side_peaks=len(sides),
                          window_halfwidth=window_halfwidth, side_lags=lags)


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
    if not (_is_count(n_side_peaks, 2) and n_side_peaks % 2 == 0):
        raise ValueError(f"n_side_peaks must be a positive even count, got {n_side_peaks!r}")
    if not _is_count(first_side_peak):
        raise ValueError(f"first_side_peak must be an integer >= 1, got {first_side_peak!r}")
    if not math.isfinite(baseline_per_bin):
        raise ValueError(f"baseline_per_bin must be finite, got {baseline_per_bin!r}")
    k_max = first_side_peak + n_side_peaks // 2 - 1
    _check_windows(window_halfwidth, T, k_max * T, hist.window_halfspan())
    lags = np.array([s * k for k in range(first_side_peak, k_max + 1) for s in (+1, -1)],
                    dtype=float)
    return _ratio(hist, window_halfwidth, lags * T, lags, n_side_peaks, baseline_per_bin)


def g2_indist_double_pulse(hist, intra_delay: float, window_halfwidth: float) -> PeakAreaReport:
    """g2_indist for pulse-pair operation: the central area referenced to the
    sum of the two satellites at +/- intra_delay.

    Each satellite carries half of the fully distinguishable same-period
    coincidence rate, so their sum doubles the distinguishable central area:
    g2 = central / (satellite sum) puts perfectly distinguishable photons at
    0.5 and perfect interference at 0, matching the side-peak convention.
    """
    if not 0 < intra_delay < hist.rep_period:
        raise ValueError(f"intra_delay must lie in (0, rep_period = {hist.rep_period}) ns, "
                         f"got {intra_delay!r}")
    _check_windows(window_halfwidth, _pulse_pair_spacing(intra_delay, hist.rep_period),
                   intra_delay, hist.window_halfspan())
    centers = np.array([+intra_delay, -intra_delay])
    return _ratio(hist, window_halfwidth, centers, centers / hist.rep_period, 1)
