"""Reference values for the benchmark's output checks, computed apart from
homsim.

Nothing here imports homsim: the delay densities, their bin integrals, the
jitter averages and the frequency-domain visibility are written out from
the physics of each pulse geometry, so a fault in the program's sampler,
estimator or model cannot cancel against the same fault in its reference.

Expected histograms are built on a fine delay grid: every coincidence peak
is a weight (expected pairs per pulse pair, summed over the program's
pulse blocks) times a shape (delay density), Gaussian jitter enters as a
discrete convolution, and bin contents are exact differences of the
cumulative integral at the bin edges, which lie on the grid.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

# hbar in ueV*ns (CODATA), for the temperature-proxy axis: delta0 = E / hbar
HBAR_UEV_NS = 0.6582119569

SUBDIV = 64  # grid points per histogram bin


class DelayGrid:
    """Uniform delay grid whose points include every histogram bin edge."""

    def __init__(self, bin_width, nbins, margin):
        self.nbins = nbins
        self.h = bin_width / SUBDIV
        half = 0.5 * nbins * bin_width + margin
        n_half = int(math.ceil(half / self.h))
        self.t = self.h * np.arange(-n_half, n_half + 1)
        self.n_half = n_half

    def gauss_conv(self, f, var):
        """f convolved with a zero-mean Gaussian of the given variance."""
        if var <= 0:
            return f
        s = math.sqrt(var)
        k = int(math.ceil(10.0 * s / self.h))
        x = self.h * np.arange(-k, k + 1)
        w = np.exp(-0.5 * (x / s) ** 2)
        return np.convolve(f, w / w.sum(), mode="same")

    def bin_integrals(self, f):
        """Integral of f over each histogram bin (trapezoid on the grid)."""
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * self.h)])
        k = self.nbins // 2
        edge_idx = self.n_half + SUBDIV * np.arange(-k, k + 2) - SUBDIV // 2
        return cum[edge_idx[1:]] - cum[edge_idx[:-1]]


def laplace(t, tau_r):
    return np.exp(-np.abs(t) / tau_r)


def meeting_shape(grid, tau_r, sigma_g, delta0, emission_var, detector_var):
    """Opposite-port delay density of two photons that meet on the beam
    splitter, per meeting pair.

    For fixed arrival offset D and detuning d the density is
    (1/8tau)[e^{-|D-t|/tau} + e^{-|D+t|/tau} - 2cos(dt) e^{-(|D|+|t|)/tau}].
    Averaging d over N(delta0, 2 sigma_g^2) turns cos(dt) into
    cos(delta0 t) e^{-sigma_g^2 t^2}; averaging D over N(0, emission_var)
    turns the first two terms into a Gaussian convolution in t and the
    factor e^{-|D|/tau} into its mean F. Detector jitter convolves the
    result once more. Integrates to (1 - F V_freq)/2."""
    t = grid.t
    f_time = time_overlap_var(tau_r, emission_var)
    wings = grid.gauss_conv(laplace(t, tau_r), emission_var)
    cross = f_time * np.cos(delta0 * t) * np.exp(-(sigma_g * t) ** 2) * laplace(t, tau_r)
    return grid.gauss_conv((wings - cross) / (4.0 * tau_r), detector_var)


def block_sizes(n_pulses, chunk):
    full, rest = divmod(n_pulses, chunk)
    return [chunk] * full + ([rest] if rest else [])


def lag_pairs(blocks, k):
    """Pulse pairs (i, i+k) that fall inside one block: the program tallies
    coincidences within pulse blocks only."""
    return float(sum(max(b - abs(k), 0) for b in blocks))


def expected_histogram(geom, *, tau_r, rep_period, n_pulses, chunk, bin_width, nbins,
                       sigma_g=0.0, delta0=0.0, emission_jitter=0.0, efficiency=1.0,
                       detector_jitter=0.0, intra_delay=2.0, multi_photon_prob=0.0,
                       dark_rate=0.0):
    """Expected histogram of port-1 minus port-0 delays for one pulse
    geometry: "remote", "consecutive", "double-pulse", "cross-polarized" or
    "hbt". Returns (expected counts, the constant dark-count baseline per
    bin in closed form)."""
    T = rep_period
    span = 0.5 * nbins * bin_width
    grid = DelayGrid(bin_width, nbins, margin=12.0 * tau_r + 12.0 * (emission_jitter + detector_jitter))
    e_var = 2.0 * emission_jitter ** 2
    d_var = 2.0 * detector_jitter ** 2
    ind_var = e_var + d_var
    blocks = block_sizes(n_pulses, chunk)
    k_reach = int(math.ceil((span + 12.0 * tau_r) / T)) + 1
    dens = np.zeros_like(grid.t)
    lap = np.zeros_like(grid.t)  # independent-pair peaks before jitter

    def ind(center, weight):
        lap[:] += weight * laplace(grid.t - center, tau_r) / (2.0 * tau_r)

    if geom == "remote":
        dens += lag_pairs(blocks, 0) * meeting_shape(grid, tau_r, sigma_g, delta0, e_var, d_var)
        for k in range(1, k_reach + 1):
            for s in (+1, -1):
                ind(s * k * T, lag_pairs(blocks, k))
    elif geom == "consecutive":
        # photon j arrives in slot j (short arm) or j+1 (long arm); photon j
        # long meets photon j+1 short with probability 1/4
        meet = sum(b - 1 for b in blocks) / 4.0
        dens += meet * meeting_shape(grid, tau_r, sigma_g, delta0, e_var, d_var)
        for k in range(1, k_reach + 1):
            if k == 1:
                w = sum(3.0 * b - 4.0 for b in blocks) / 16.0
            else:
                w = lag_pairs(blocks, k) / 4.0
            for s in (+1, -1):
                ind(s * k * T, w)
    elif geom in ("double-pulse", "cross-polarized"):
        d = intra_delay
        n = float(n_pulses)
        # same pulse: A-long/B-short share a slot, A-short/B-short and
        # A-long/B-long sit d apart, A-short/B-long 2d apart
        if geom == "double-pulse":
            dens += (n / 4.0) * meeting_shape(grid, tau_r, sigma_g, delta0, e_var, d_var)
        else:
            ind(0.0, n / 8.0)
        for s in (+1, -1):
            ind(s * d, n / 8.0)
            ind(s * 2 * d, n / 16.0)
        # different pulses: per-port arrival weights 1/4, 1/2, 1/4 at 0, d, 2d
        offs = {-2: 1 / 16, -1: 1 / 4, 0: 6 / 16, 1: 1 / 4, 2: 1 / 16}
        for k in range(1, k_reach + 1):
            w = lag_pairs(blocks, k)
            for s in (+1, -1):
                for j, wj in offs.items():
                    ind(s * k * T + j * d, w * wj)
    elif geom == "hbt":
        p = multi_photon_prob
        ind(0.0, n_pulses * p / 2.0)
        for k in range(1, k_reach + 1):
            for s in (+1, -1):
                ind(s * k * T, lag_pairs(blocks, k) * ((1.0 + p) / 2.0) ** 2)
    else:
        raise ValueError(f"unknown geometry {geom!r}")

    dens += grid.gauss_conv(lap, ind_var)
    counts = efficiency ** 2 * grid.bin_integrals(dens)
    baseline = 0.0
    if dark_rate > 0:
        # dark counts on either port pair with everything on the other port;
        # pairs are tallied inside a block, so a lag t sees (L_b - |t|)
        signal_rate = efficiency * (1.0 + multi_photon_prob) / (2.0 * T)
        flat = 2.0 * dark_rate * signal_rate + dark_rate ** 2
        total_span = n_pulses * T
        baseline = flat * total_span * bin_width
        lags = np.abs(bin_centers(bin_width, nbins))
        counts = counts + flat * bin_width * (total_span - len(blocks) * lags)
    return counts, baseline


def bin_centers(bin_width, nbins):
    return bin_width * (np.arange(nbins) - nbins // 2)


def whole_bin_areas(counts, bin_width, centers, halfwidth, baseline_per_bin=0.0):
    """Sum of the bins whose centre lies within halfwidth of each peak
    centre, minus the baseline of those bins."""
    c = bin_centers(bin_width, counts.size)
    out = []
    for x in centers:
        sel = np.abs(c - x) <= halfwidth
        out.append(float(np.sum(counts[sel])) - baseline_per_bin * int(sel.sum()))
    return np.array(out)


def exact_window_areas(counts, bin_width, centers, halfwidth, baseline_per_bin=0.0):
    """Histogram integrated over exactly [x - W, x + W] around each peak
    centre x, counting each edge bin by the fraction of it inside the
    window; the baseline is removed per unit width."""
    nb = counts.size
    lo_edges = bin_width * (np.arange(nb) - nb / 2.0)
    out = []
    for x in centers:
        a, b = x - halfwidth, x + halfwidth
        frac = np.clip((np.minimum(lo_edges + bin_width, b) - np.maximum(lo_edges, a)) / bin_width,
                       0.0, 1.0)
        out.append(float(np.dot(frac, counts)) - baseline_per_bin * 2.0 * halfwidth / bin_width)
    return np.array(out)


def ratio(central, sides, reference="mean"):
    """central / mean(sides), or central / sum(sides) for reference "sum"."""
    return central / (float(np.sum(sides)) / (len(sides) if reference == "mean" else 1.0))


def ratio_and_sigma(central, sides, var_central, var_sides, reference="mean"):
    """ratio() and its Poisson error."""
    r = ratio(central, sides, reference)
    rel2 = var_central / central ** 2 + float(np.sum(var_sides)) / float(np.sum(sides)) ** 2
    return r, abs(r) * math.sqrt(rel2)


def freq_visibility(tau_r, sigma_g, delta0, dps=20):
    """Frequency-domain visibility: the Lorentzian overlap 1/(1 + tau^2 D^2)
    averaged over the pair detuning D ~ N(delta0, 2 sigma_g^2)."""
    if sigma_g == 0:
        return 1.0 / (1.0 + (tau_r * delta0) ** 2)
    with mp.workdps(dps):
        s = mp.sqrt(2) * mp.mpf(sigma_g)
        d0 = mp.mpf(delta0)
        tr = mp.mpf(tau_r)
        f = lambda D: mp.exp(-(D - d0) ** 2 / (2 * s * s)) / (1 + (tr * D) ** 2)
        pts = sorted({float(x) for x in (d0 - 12 * s, d0 - 4 * s, -1 / tr, 0, 1 / tr, d0 + 4 * s, d0 + 12 * s)})
        val = mp.quad(f, [-mp.inf] + pts + [mp.inf]) / (s * mp.sqrt(2 * mp.pi))
        return float(val)


def time_overlap_var(tau_r, var):
    """E[e^{-|D|/tau_r}] for an arrival offset D ~ N(0, var)."""
    if var == 0:
        return 1.0
    with mp.workdps(20):
        return float(mp.quad(lambda x: mp.exp(-abs(x) / tau_r - x * x / (2 * var)), [-mp.inf, 0, mp.inf])
                     / mp.sqrt(2 * mp.pi * var))
