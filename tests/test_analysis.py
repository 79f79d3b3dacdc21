import math

import numpy as np
import pytest

from homsim.analysis import WindowConfigurationError, g2_indist_double_pulse, peak_areas
from homsim.montecarlo import CorrelationHistogram


def make_hist(rep_period=12.2, bin_width=0.1, window_periods=4, peaks=None, peak_decay=0.5):
    """Histogram with two-sided exponential peaks of given (center, area)."""
    halfspan = window_periods * rep_period
    nbins = 2 * int(round(halfspan / bin_width)) + 1
    halfspan = 0.5 * nbins * bin_width
    edges = np.linspace(-halfspan, halfspan, nbins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.zeros(nbins, dtype=np.int64)
    for c0, area in (peaks or []):
        prof = np.exp(-np.abs(centers - c0) / peak_decay)
        prof = prof / prof.sum() * area
        counts += np.round(prof).astype(np.int64)
    return CorrelationHistogram(bin_width=bin_width, counts=counts, rep_period=rep_period)


class TestPeakAreas:
    def test_distinguishable_reference(self):
        peaks = [(0.0, 50000)] + [(k * 12.2, 100000) for k in (-3, -2, -1, 1, 2, 3)]
        rep = peak_areas(make_hist(peaks=peaks), window_halfwidth=3.0, n_side_peaks=6)
        assert rep.g2_indist == pytest.approx(0.5, abs=0.01)
        assert rep.g2_indist_err > 0

    def test_ratio_invariant_under_count_rescaling(self):
        peaks = [(0.0, 30000)] + [(k * 12.2, 90000) for k in (-3, -2, -1, 1, 2, 3)]
        h1 = make_hist(peaks=peaks)
        h2 = CorrelationHistogram(bin_width=h1.bin_width, counts=h1.counts * 7,
                                  rep_period=h1.rep_period)
        r1 = peak_areas(h1, 3.0, 6)
        r2 = peak_areas(h2, 3.0, 6)
        assert r1.g2_indist == pytest.approx(r2.g2_indist, rel=1e-12)

    def test_four_vs_six_side_peaks_agree(self):
        rng = np.random.default_rng(0)
        peaks = [(0.0, 31000)] + [(k * 12.2, 100000 + rng.integers(-500, 500))
                                  for k in (-3, -2, -1, 1, 2, 3)]
        h = make_hist(peaks=peaks)
        r4 = peak_areas(h, 3.0, 4)
        r6 = peak_areas(h, 3.0, 6)
        err = np.hypot(r4.g2_indist_err, r6.g2_indist_err)
        assert abs(r4.g2_indist - r6.g2_indist) < 3 * max(err, 1e-6)

    def test_first_side_peak_skips_suppressed_neighbors(self):
        peaks = ([(0.0, 20000), (12.2, 75000), (-12.2, 75000)]
                 + [(k * 12.2, 100000) for k in (-3, -2, 2, 3)])
        h = make_hist(peaks=peaks)
        rep = peak_areas(h, 3.0, 4, first_side_peak=2)
        assert np.all(np.abs(rep.side_lags) >= 2)
        assert rep.g2_indist == pytest.approx(0.2, abs=0.01)

    def test_baseline_subtraction(self):
        peaks = [(0.0, 30000)] + [(k * 12.2, 100000) for k in (-2, -1, 1, 2)]
        h = make_hist(peaks=peaks)
        h.counts = h.counts + 40  # uniform dark-count floor
        biased = peak_areas(h, 3.0, 4)
        corrected = peak_areas(h, 3.0, 4, baseline_per_bin=40.0)
        assert corrected.g2_indist == pytest.approx(0.3, abs=0.01)
        assert biased.g2_indist > corrected.g2_indist

    def test_windows_span_exactly_2w_on_and_off_the_bin_grid(self):
        # flat histogram: every window covers 2W of it, whatever its centre's
        # position on the 0.128 ns grid (the edge bins count in part)
        bw, W, level = 0.128, 0.6, 1000
        nbins = 2 * int(round(3 * 12.5 / bw)) + 1
        h = CorrelationHistogram(bin_width=bw, counts=np.full(nbins, level), rep_period=12.5)
        sides = peak_areas(h, W, 2)
        sats = g2_indist_double_pulse(h, 2.0, W)
        for area in [sides.central_area, *sides.side_areas, *sats.side_areas]:
            assert area == pytest.approx(2 * W / bw * level, rel=1e-12)

    def test_window_overlap_rejected(self):
        h = make_hist(peaks=[(0.0, 1000), (12.2, 1000), (-12.2, 1000)])
        with pytest.raises(WindowConfigurationError):
            peak_areas(h, 6.2, 2)

    def test_out_of_range_side_peak_rejected(self):
        h = make_hist(window_periods=2, peaks=[(0.0, 1000), (12.2, 1000), (-12.2, 1000)])
        with pytest.raises(WindowConfigurationError):
            peak_areas(h, 3.0, 6)

    def test_parameter_validation(self):
        h = make_hist(peaks=[(0.0, 100), (12.2, 100), (-12.2, 100)])
        with pytest.raises(ValueError):
            peak_areas(h, 3.0, 5)
        with pytest.raises(ValueError):
            peak_areas(h, 3.0, 6, first_side_peak=0)
        # non-integers used to raise a TypeError from range, and True was taken as 1
        for n in (4.0, 3.0, True, "4", None):
            with pytest.raises(ValueError, match="^n_side_peaks must be a positive even count"):
                peak_areas(h, 3.0, n)
        for first in (1.5, 2.0, True, "1", None):
            with pytest.raises(ValueError, match="^first_side_peak must be an integer >= 1"):
                peak_areas(h, 3.0, 4, first_side_peak=first)
        assert peak_areas(h, 3.0, np.int64(2), first_side_peak=np.int8(1)).n_side_peaks == 2
        # NaN gave g2_indist NaN, inf "side windows contain no counts"
        for baseline in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^baseline_per_bin must be finite"):
                peak_areas(h, 3.0, 4, baseline_per_bin=baseline)

    def test_error_scales_with_counts(self):
        peaks_small = [(0.0, 300)] + [(k * 12.2, 1000) for k in (-2, -1, 1, 2)]
        peaks_big = [(0.0, 30000)] + [(k * 12.2, 100000) for k in (-2, -1, 1, 2)]
        e_small = peak_areas(make_hist(peaks=peaks_small), 3.0, 4).g2_indist_err
        e_big = peak_areas(make_hist(peaks=peaks_big), 3.0, 4).g2_indist_err
        assert e_small > 5 * e_big


class TestDoublePulseG2:
    def test_distinguishable_satellite_normalization(self):
        # distinguishable photons: central area equals each satellite
        peaks = [(0.0, 50000), (2.0, 50000), (-2.0, 50000)]
        h = make_hist(rep_period=12.5, bin_width=0.05, peaks=peaks, peak_decay=0.15)
        rep = g2_indist_double_pulse(h, intra_delay=2.0, window_halfwidth=0.9)
        assert rep.g2_indist == pytest.approx(0.5, abs=0.01)

    def test_perfect_interference(self):
        peaks = [(2.0, 50000), (-2.0, 50000)]
        h = make_hist(rep_period=12.5, bin_width=0.05, peaks=peaks, peak_decay=0.15)
        rep = g2_indist_double_pulse(h, intra_delay=2.0, window_halfwidth=0.9)
        assert rep.g2_indist < 1e-3  # only satellite tail leakage remains

    def test_window_bound(self):
        h = make_hist(rep_period=12.5, bin_width=0.05, peaks=[(0.0, 100)])
        with pytest.raises(WindowConfigurationError):
            g2_indist_double_pulse(h, intra_delay=2.0, window_halfwidth=1.1)

    @pytest.mark.parametrize("intra_delay", [-3.0, 0.0, 12.5, 20.0, math.nan, math.inf])
    def test_intra_delay_outside_the_period_rejected(self, intra_delay):
        # -3.0 raised "must lie in (0, -1.5) ns", NaN "(0, nan)": neither named intra_delay
        h = make_hist(rep_period=12.5, bin_width=0.05, peaks=[(0.0, 100)])
        with pytest.raises(ValueError, match=r"^intra_delay must lie in \(0, rep_period = 12.5\)"):
            g2_indist_double_pulse(h, intra_delay=intra_delay, window_halfwidth=0.9)

    @staticmethod
    def pulse_pair_hist(delay):
        """Equal distinguishable peaks at k*T + j*delay, j in -2..2, T = 12.5 ns."""
        peaks = [(k * 12.5 + j * delay, 10000) for k in (-1, 0, 1) for j in range(-2, 3)]
        return make_hist(rep_period=12.5, bin_width=0.05, peaks=peaks, peak_decay=0.15)

    @pytest.mark.parametrize("delay, halfwidth", [(4.0, 1.9), (5.0, 2.4)])
    def test_window_clear_of_every_other_peak(self, delay, halfwidth):
        # the peak at T - 3d (d = 4) or T - 2d (d = 5) lies 0.5 or 2.5 ns
        # from a read window, so these windows below d/2 still reach it
        with pytest.raises(WindowConfigurationError, match="peak spacing"):
            g2_indist_double_pulse(self.pulse_pair_hist(delay), delay, halfwidth)

    def test_window_below_half_the_nearest_spacing_reads_the_control(self):
        # d = 5 ns: central area equals each satellite once 1 ns windows
        # stay clear of the peaks 2.5 ns away
        rep = g2_indist_double_pulse(self.pulse_pair_hist(5.0), 5.0, 1.0)
        assert rep.g2_indist == pytest.approx(0.5, abs=0.01)

    def test_central_variance_floored_at_one_count_as_for_side_peaks(self):
        # one count in the bin [0.55, 0.65] ns, half inside the +/-0.6 ns
        # central window: a central area of 0.5 has the variance of 1 count
        peaks = [(2.0, 5000), (-2.0, 5000), (12.5, 8000), (-12.5, 8000)]
        h = make_hist(rep_period=12.5, bin_width=0.1, peaks=peaks, peak_decay=0.15)
        e = h.bin_edges()
        h.counts[np.argmin(np.abs(0.5 * (e[:-1] + e[1:]) - 0.6))] += 1
        rep = g2_indist_double_pulse(h, intra_delay=2.0, window_halfwidth=0.6)
        ref = rep.side_average
        assert rep.central_area == pytest.approx(0.5, rel=1e-12)
        assert rep.g2_indist_err == pytest.approx(
            rep.g2_indist * np.sqrt(1.0 / rep.central_area ** 2 + 1.0 / ref), rel=1e-12)
        # the side-peak estimator floors the same way
        sides = peak_areas(h, 0.6, 2)
        assert sides.central_area == rep.central_area
        assert sides.g2_indist_err == pytest.approx(sides.g2_indist * np.sqrt(
            1.0 / sides.central_area ** 2 + 0.5 / sides.side_average), rel=1e-12)


class TestHistogramInvariants:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CorrelationHistogram(bin_width=0.1, counts=np.array([1, -2, 3]), rep_period=12.2)

    @pytest.mark.parametrize("counts", [
        [0.5, 1.5], [1.0, 2.0], [math.nan], np.ones((2, 2), dtype=np.int64), 3, [True, False],
        [2 ** 70], np.array([2 ** 64 - 1], dtype=np.uint64), []],
        ids=["fractions", "whole-floats", "nan", "2-d", "scalar", "bools", "past-int64",
             "uint64-past-int64", "empty-float"])
    def test_counts_must_be_a_1d_array_of_integers_at_least_0(self, counts):
        # [0.5, 1.5] was truncated to [0, 1], a (2, 2) array gave 5 bin edges
        # for 4 cells, and [nan] failed inside numpy's integer conversion
        with pytest.raises(ValueError, match="^counts must be a 1-D array of integers >= 0"):
            CorrelationHistogram(bin_width=0.1, counts=counts, rep_period=12.2)

    def test_total_events_is_the_sum_of_the_counts(self):
        for counts in ([1, 2, 3], np.array([4, 0], dtype=np.uint8), np.array([2, 5], dtype=np.int32)):
            h = CorrelationHistogram(bin_width=0.1, counts=counts, rep_period=12.2)
            assert h.counts.dtype == np.int64
            assert h.total_events == int(np.sum(counts))
        h.counts[0] += 3
        assert h.total_events == 10

    @pytest.mark.parametrize("field, bad", [
        ("bin_width", math.inf), ("bin_width", math.nan), ("bin_width", 0.0), ("bin_width", -0.1),
        ("rep_period", math.nan), ("rep_period", -12.2), ("rep_period", 0.0), ("rep_period", math.inf)])
    def test_geometry_validated(self, field, bad):
        # an inf bin_width reached peak_areas and a RuntimeWarning, a rep_period
        # of NaN, -12.2 or 0 a WindowConfigurationError that did not name it
        fields = dict(bin_width=0.1, counts=np.array([1, 2, 3]), rep_period=12.2)
        with pytest.raises(ValueError, match=f"^{field} must be "):
            CorrelationHistogram(**(fields | {field: bad}))

    def test_bin_geometry(self):
        h = make_hist(peaks=[(0.0, 100)])
        edges = h.bin_edges()
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert centers.size % 2 == 1
        assert centers[centers.size // 2] == pytest.approx(0.0, abs=1e-12)
        assert edges[0] == -h.window_halfspan()
        assert edges[-1] == +h.window_halfspan()
