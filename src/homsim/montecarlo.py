"""Stochastic coincidence-counting simulation of pulsed interference setups.

The simulator reproduces the full correlation histogram an experiment would
record: a pulse train drives one or two emitters, photon pairs meet (or miss)
on the final beam splitter, detections land on two counters, and every
counter-pair delay within the histogram window is tallied.

Every pairing mode and the HBT purity measurement run one pipeline per
block of CHUNK_PULSES pulses. A routing function per mode (HBT is one more)
draws the emission randomness, in an order that fixes the mode's stream, and
returns the meeting pairs (midpoint, arrival offset, frequency difference)
and the groups of lone photon onsets; _mode_detections samples both;
_apply_detector and _correlate follow; _run_blocks sums the blocks into one
CorrelationHistogram. The stages select elements by index (take) or with
compress, never by boolean-mask indexing, which numpy runs several times
slower on the half-full masks that routing produces.

Reproducibility contract
------------------------
All randomness comes from counter-based Philox4x64-10 streams
(numpy.random.Philox). Block c of a run keyed by RngSpec(seed, stream_id)
uses Philox key = [seed, stream_id * 2^32 + c]. Identical (seed, stream_id)
therefore give bitwise-identical histograms, independent of how blocks are
distributed over workers; integer counts are summed, which is
order-independent. Coincidence pairs are tallied within blocks; pairs that
would straddle a block boundary are not counted, a deterministic O(window /
(CHUNK_PULSES * rep_period)) ~ 1e-4 relative effect on side-peak areas.
Version 0.3.0 samples meeting-pair delays with a per-row thinning envelope
and far-offset wings in log space, so for a given seed the remote,
consecutive and double-pulse histograms (and sample_pair_events batches
outside cross-polarized operation) differ from 0.2.x, with the same
statistics; cross-polarized and HBT histograms are unchanged. Version 0.3.1
only speeds the pipeline up: every histogram is bitwise that of 0.3.0.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import PairSpec, time_jitter_overlap_factor, visibility_inhom_direct

__all__ = [
    "MODE_CONSECUTIVE",
    "MODE_DOUBLE_PULSE",
    "MODE_REMOTE",
    "MODE_CROSS_POLARIZED",
    "MODES",
    "CHUNK_PULSES",
    "RNG_ALGORITHM",
    "DetectorModel",
    "RngSpec",
    "InterferenceScenario",
    "CorrelationHistogram",
    "PairEventBatch",
    "sample_pair_events",
    "simulate_histogram",
    "simulate_hbt_purity",
    "analytic_visibility",
    "analytic_g2_indist",
    "hbt_analytic_g2",
    "multi_photon_prob_for_g2",
]

MODE_CONSECUTIVE = "consecutive-same-emitter"
MODE_DOUBLE_PULSE = "double-pulse-same-emitter"
MODE_REMOTE = "remote-emitters"
MODE_CROSS_POLARIZED = "cross-polarized-control"
MODES = (MODE_CONSECUTIVE, MODE_DOUBLE_PULSE, MODE_REMOTE, MODE_CROSS_POLARIZED)

CHUNK_PULSES = 1 << 16
RNG_ALGORITHM = "philox4x64-10 (numpy.random.Philox), per-block key [seed, stream_id<<32 | block]"


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency, Gaussian timing jitter and dark-count rate."""

    efficiency: float = 1.0
    timing_jitter_sigma: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if not (self.timing_jitter_sigma >= 0 and math.isfinite(self.timing_jitter_sigma)):
            raise ValueError(f"timing_jitter_sigma must be finite and >= 0, got {self.timing_jitter_sigma}")
        if not (self.dark_rate >= 0 and math.isfinite(self.dark_rate)):
            raise ValueError(f"dark_rate must be finite and >= 0, got {self.dark_rate}")


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream identity; identical values reproduce the event
    sequence bitwise."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream_id < 2 ** 32:
            raise ValueError(f"stream_id must fit in 32 bits, got {self.stream_id}")


@dataclass(frozen=True)
class InterferenceScenario:
    """One simulated experiment: pairing mode, pair physics, pulse timing,
    phenomenological emission-time jitter and the detector model."""

    mode: str
    pair: PairSpec
    rep_period: float
    intra_delay: float = 2.0
    emission_jitter: float = 0.0
    n_pulses: int = 100_000
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (self.rep_period > 0 and math.isfinite(self.rep_period)):
            raise ValueError(f"rep_period must be finite and > 0, got {self.rep_period}")
        if not 0 < self.intra_delay < self.rep_period:
            raise ValueError(
                f"intra_delay must lie in (0, rep_period), got {self.intra_delay}")
        if not (self.emission_jitter >= 0 and math.isfinite(self.emission_jitter)):
            raise ValueError(f"emission_jitter must be finite and >= 0, got {self.emission_jitter}")
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")


@dataclass
class CorrelationHistogram:
    """Binned coincidence counts over a symmetric delay window."""

    bin_width: float
    counts: np.ndarray
    rep_period: float
    n_pulses: int
    mode: str
    total_events: int

    def __post_init__(self):
        if not self.bin_width > 0:
            raise ValueError(f"bin_width must be > 0, got {self.bin_width}")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        if int(self.counts.sum()) != self.total_events:
            raise ValueError("window accounting broken: counts do not sum to total_events")

    def window_halfspan(self) -> float:
        return 0.5 * self.counts.size * self.bin_width

    def bin_edges(self) -> np.ndarray:
        h = self.window_halfspan()
        return np.linspace(-h, h, self.counts.size + 1)

    def bin_centers(self) -> np.ndarray:
        e = self.bin_edges()
        return 0.5 * (e[:-1] + e[1:])


@dataclass
class PairEventBatch:
    """Vectorized pair interactions (times relative to the pair midpoint)."""

    delta: np.ndarray
    delta_tau: np.ndarray
    opposite_port: np.ndarray
    tau: np.ndarray
    t_a: np.ndarray
    t_b: np.ndarray
    port_a: np.ndarray
    port_b: np.ndarray

    def __len__(self):
        return self.delta.size


def _chunk_rng(rng: RngSpec, chunk_index: int) -> np.random.Generator:
    if not 0 <= chunk_index < 2 ** 32:
        raise ValueError(f"block index out of range: {chunk_index}")
    key = np.array([rng.seed, (rng.stream_id << 32) | chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_g_wing(tau_r, a_abs, u):
    """Positive-delay sample from the wing density (up to normalization)

        e^{-a} (e^{x/tau_r} - e^{-x/tau_r})          for 0 <= x < |dt|
        e^{-x/tau_r} (e^{a} - e^{-a})                for x >= |dt|

    where a = |dt|/tau_r. This is the non-negative difference
    e^{-|x - dt|/tau_r} - e^{-(|dt| + x)/tau_r}, whose two CDF pieces invert
    in closed form: arccosh(1 + z) below |dt|, where z = u' e^a / (2 tau_r)
    for u' the uniform scaled to the wing's mass, carried as log z so that
    no e^{+-a} overflows or underflows; and an exponential tail past |dt|.
    u is uniform on [0, 1)."""
    em = -np.expm1(-a_abs)  # 1 - e^{-a}, exact as a -> 0
    m1 = tau_r * em ** 2
    uu = u * (2.0 * tau_r * em)
    with np.errstate(divide="ignore"):
        log_z = a_abs + np.log(uu / (2.0 * tau_r))
        z = np.exp(np.minimum(log_z, 0.0))  # z where z <= 1
        r = np.exp(-np.maximum(log_z, 0.0))  # 1/z where z > 1
        x1 = np.where(log_z <= 0.0, np.log1p(z + np.sqrt(z * (z + 2.0))),
                      log_z + np.log(1.0 + r + np.sqrt(1.0 + 2.0 * r)))
        # the tail past |dt| holds mass tau_r (1 - e^{-2a}) and is e^{-x/tau_r}
        x2 = a_abs - np.log1p(-(uu - m1) / (-tau_r * np.expm1(-2.0 * a_abs)))
    return tau_r * np.where(uu < m1, x1, x2)


def _thin(g, propose, accept, *params):
    """Rejection sampling of one symmetric delay per row: propose(k) draws k
    positive proposals and accept(x, *params) gives the acceptance
    probability of proposals x for rows with the given parameter arrays, an
    even function of the delay. Each round redraws only the rows still
    pending. An accepted row's uniform u is uniform on [0, p) given
    acceptance with probability p, independent of x, so u < p/2 gives the
    delay's sign without another draw."""
    vals = np.empty(params[0].size)
    pending = np.arange(vals.size)
    while pending.size:
        prop = propose(pending.size)
        p = accept(prop, *params)
        u = g.random(pending.size)
        signed = np.copysign(prop, 0.5 * p - u)
        miss = u >= p
        hit = np.nonzero(~miss)[0]
        vals[pending[hit]] = signed[hit]
        pending = pending.compress(miss)
        params = [q.compress(miss) for q in params]
    return vals


def _sample_tau(tau_r, dtau, delta, opposite, g):
    """Coincidence delay from the conditional two-detection delay density

        e^{-|dt - t|/tau_r} + e^{-|dt + t|/tau_r}
        + sign * 2 cos(delta t) e^{-(|dt| + |t|)/tau_r}

    (sign -1 for opposite ports, +1 for bunched pairs). The density splits
    exactly into three non-negative parts: two mirror-image wing terms
    (sampled by closed-form inverse CDF) and an even interference term
    e^{-(|dt|+|t|)/tau_r} (2 + 2 sign cos(delta t)), sampled by thinning.

    The thinning envelope is chosen per row, so that every row accepts with
    probability >= 1/3 and a block needs O(log n) proposal rounds. Opposite-
    port rows with x = tau_r delta, x^2 < 2, thin a Gamma(3, tau_r) proposal,
    because 1 - cos(delta t) <= (delta t)^2 / 2, and accept with
    (sin(delta t/2) / (delta t/2))^2 at rate 1/(1 + x^2). Every other row
    thins the exponential proposal with acceptance (1 + sign cos(delta t))/2,
    at rate x^2 / (2 (1 + x^2)) >= 1/3 for opposite ports and >= 1/2 for
    bunched pairs."""
    n = dtau.size
    a_abs = np.abs(dtau) / tau_r
    x2 = (tau_r * delta) ** 2
    m_wing = -2.0 * tau_r * np.expm1(-a_abs)  # each of the two wings
    # 4 tau_r e^{-a} (1 + sign/(1 + x^2)), without cancellation at small x
    m_int = 4.0 * tau_r * np.exp(-a_abs) * (x2 + 2.0 * ~opposite) / (1.0 + x2)
    u_comp = g.random(n) * (2.0 * m_wing + m_int)
    pick_int = u_comp >= 2.0 * m_wing

    tau = np.empty(n)
    wing = np.nonzero(~pick_int)[0]
    if wing.size:
        x = _sample_g_wing(tau_r, a_abs[wing], g.random(wing.size))
        orient = np.where(u_comp[wing] < m_wing[wing], 1.0, -1.0) * np.sign(dtau[wing])
        tau[wing] = orient * x
    gam = pick_int & opposite & (x2 < 2.0)
    ig = np.nonzero(gam)[0]
    # np.sinc(y) = sin(pi y)/(pi y); (1 - cos x)/(x^2/2) would cancel to 0
    tau[ig] = _thin(g, partial(g.gamma, 3.0, tau_r), lambda t, d: np.sinc(d * t) ** 2,
                    delta[ig] / (2.0 * math.pi))
    ie = np.nonzero(pick_int & ~gam)[0]
    tau[ie] = _thin(g, partial(g.exponential, tau_r), lambda t, d, hs: 0.5 + hs * np.cos(d * t),
                    delta[ie], 0.5 - opposite[ie])
    return tau


def _sample_t0(tau_r, dtau, delta, tau, opposite, u_seg, u_exp):
    """First-detection time conditioned on the delay tau.

    At fixed tau the kernel in t0 is exponential with rate 2/tau_r on two
    segments: between the staggered packet onsets only one amplitude product
    is alive (relative weight 1); past both onsets the interference term
    rescales the amplitude to 2 -+ 2 cos(delta*tau)."""
    o1 = dtau / 2.0
    o2 = -dtau / 2.0
    a = np.maximum(o1, o2 - tau)
    b = np.maximum(o2, o1 - tau)
    mn = np.minimum(a, b)
    mx = np.maximum(a, b)
    rate = 2.0 / tau_r
    s = np.exp(-rate * (mx - mn))
    amp = 2.0 + np.where(opposite, -2.0, 2.0) * np.cos(delta * tau)
    w1 = 1.0 - s
    w2 = np.maximum(amp, 1e-300) * s
    pick1 = u_seg * (w1 + w2) < w1
    # truncated exponential on [mn, mx) or shifted exponential past mx
    t_trunc = mn - np.log1p(-u_exp * (1.0 - s)) / rate
    t_tail = mx - np.log1p(-u_exp) / rate
    return np.where(pick1, t_trunc, t_tail)


def _sample_meeting_pairs(tau_r, dtau, delta, g):
    """Joint outcome for pairs that overlap on the beam splitter: whether the
    photons split, the two detection times (relative to the pair midpoint)
    and the port of each detection."""
    n = dtau.size
    adt = np.abs(dtau)
    p_split = 0.5 * (1.0 - np.exp(-adt / tau_r) / (1.0 + (tau_r * delta) ** 2))
    u_port = g.random(n)
    opposite = u_port < p_split
    tau = _sample_tau(tau_r, dtau, delta, opposite, g)
    u_seg = g.random(n)
    u_exp = g.random(n)
    u_side = g.random(n)
    t0 = _sample_t0(tau_r, dtau, delta, tau, opposite, u_seg, u_exp)
    port_a = (u_side < 0.5).astype(np.int8)
    port_b = np.where(opposite, 1 - port_a, port_a).astype(np.int8)
    return opposite, t0, t0 + tau, port_a, port_b


def _sample_independent(onsets, tau_r, g):
    """Detection times and ports for photons that do not interfere."""
    times = onsets + g.exponential(tau_r, onsets.size)
    ports = (g.random(onsets.size) < 0.5).astype(np.int8)
    return times, ports


def _jitter(g, sigma, n):
    """Per-photon emission-time jitter."""
    return g.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)


def _detuning(g, pair, n):
    """Pair frequency differences drawn from the jitter ensemble."""
    if pair.sigma_g > 0:
        return g.normal(pair.delta0, math.sqrt(2.0) * pair.sigma_g, n)
    return np.full(n, pair.delta0)


def _route_remote(scenario, g, pulse_t):
    """Two emitters, one photon each per pulse: every pulse is a meeting."""
    n = pulse_t.size
    j1 = _jitter(g, scenario.emission_jitter, n)
    j2 = _jitter(g, scenario.emission_jitter, n)
    delta = _detuning(g, scenario.pair, n)
    return pulse_t + (j1 + j2) / 2.0, scenario.pair.delta_tau + j1 - j2, delta, []


def _route_pulse_pair(scenario, g, pulse_t):
    """Two photons per pulse, intra_delay apart, through an unbalanced
    interferometer: the first on the long arm meets the second on the short
    one, unless their polarizations are crossed."""
    n = pulse_t.size
    d = scenario.intra_delay
    off = scenario.pair.delta_tau
    jA = _jitter(g, scenario.emission_jitter, n)
    jB = _jitter(g, scenario.emission_jitter, n)
    rA = g.random(n) < 0.5  # True: long interferometer arm (+d + off)
    rB = g.random(n) < 0.5
    delta = _detuning(g, scenario.pair, n)
    if scenario.mode == MODE_DOUBLE_PULSE:
        meet = rA & ~rB
        im, isolo = np.flatnonzero(meet), np.flatnonzero(~meet)
        ps, jAs, jBs, rAs, rBs = (a.take(isolo) for a in (pulse_t, jA, jB, rA, rB))
    else:  # crossed polarizations: every photon is solo
        im = np.empty(0, np.intp)
        ps, jAs, jBs, rAs, rBs = pulse_t, jA, jB, rA, rB
    jAm, jBm = jA.take(im), jB.take(im)
    mid = pulse_t.take(im) + d + (jAm + jBm + off) / 2.0
    # a route flag times (d + off) adds the long arm's extra delay or 0
    onsA = ps + jAs + rAs * (d + off)
    onsB = ps + d + jBs + rBs * (d + off)
    return mid, off + jAm - jBm, delta.take(im), [onsA, onsB]


def _route_consecutive(scenario, g, pulse_t):
    """One photon per pulse: photon k on the long arm meets photon k+1 on
    the short one."""
    n = pulse_t.size
    T = scenario.rep_period
    off = scenario.pair.delta_tau
    j = _jitter(g, scenario.emission_jitter, n)
    routes = g.random(n) < 0.5  # True: long arm (+rep_period + off)
    delta = _detuning(g, scenario.pair, n)
    meet = np.zeros(n, dtype=bool)
    meet[:-1] = routes[:-1] & ~routes[1:]
    solo = ~meet
    solo[1:] &= ~meet[:-1]
    k = np.flatnonzero(meet)
    isolo = np.flatnonzero(solo)
    jk, jk1 = j.take(k), j.take(k + 1)
    mid = pulse_t.take(k) + T + (jk + jk1 + off) / 2.0
    ons = pulse_t.take(isolo) + j.take(isolo) + routes.take(isolo) * (T + off)
    return mid, off + jk - jk1, delta.take(k), [ons]


def _route_hbt(multi_photon_prob, scenario, g, pulse_t):
    """Hanbury Brown-Twiss: one photon per pulse, plus a second with
    probability multi_photon_prob; no pairs meet."""
    n = pulse_t.size
    two = g.random(n) < multi_photon_prob
    first = pulse_t + _jitter(g, scenario.emission_jitter, n)
    second = pulse_t.compress(two) + _jitter(g, scenario.emission_jitter, int(two.sum()))
    none = np.empty(0)
    return none, none, none, [first, second]


_ROUTES = {MODE_REMOTE: _route_remote, MODE_CONSECUTIVE: _route_consecutive,
           MODE_DOUBLE_PULSE: _route_pulse_pair, MODE_CROSS_POLARIZED: _route_pulse_pair}


def _mode_detections(route, scenario, g, pulse_t):
    """All detection (time, port) pairs the pulses at times pulse_t produce,
    before detector effects: meeting pairs first, then each solo group."""
    tr = scenario.pair.tau_r
    mid, dtau, delta, solo = route(scenario, g, pulse_t)
    groups = []
    if mid.size:
        _, ta, tb, pa, pb = _sample_meeting_pairs(tr, dtau, delta, g)
        groups += [(mid + ta, pa), (mid + tb, pb)]
    groups += [_sample_independent(ons, tr, g) for ons in solo]
    times, ports = zip(*groups)
    return np.concatenate(times), np.concatenate(ports)


def sample_pair_events(scenario: InterferenceScenario, n: int,
                       rng: RngSpec | np.random.Generator) -> PairEventBatch:
    """Draw n independent beam-splitter pair interactions for the scenario's
    pair physics (frequency difference from the jitter ensemble, arrival
    offset from the deliberate delay plus emission-time jitter).

    In cross-polarized operation the photons are fully distinguishable: ports
    are independent and the delay density is the no-interference one.

    Passing an RngSpec uses its block-0 stream (the same stream a histogram
    run would start from); pass a Generator to control the stream yourself.
    """
    g = rng if isinstance(rng, np.random.Generator) else _chunk_rng(rng, 0)
    tr = scenario.pair.tau_r
    _, dtau, delta, _ = _route_remote(scenario, g, np.zeros(n))
    if scenario.mode == MODE_CROSS_POLARIZED:
        t_a, port_a = _sample_independent(dtau / 2.0, tr, g)
        t_b, port_b = _sample_independent(-dtau / 2.0, tr, g)
        opposite = port_a != port_b
    else:
        opposite, t_a, t_b, port_a, port_b = _sample_meeting_pairs(tr, dtau, delta, g)
    return PairEventBatch(delta=delta, delta_tau=dtau, opposite_port=opposite,
                          tau=t_b - t_a, t_a=t_a, t_b=t_b, port_a=port_a, port_b=port_b)


def _apply_detector(times, ports, det: DetectorModel, span_lo, span_hi, g):
    """Efficiency thinning, timing jitter and dark counts, in that order."""
    if det.efficiency < 1.0:
        keep = g.random(times.size) < det.efficiency
        times, ports = times.compress(keep), ports.compress(keep)
    if det.timing_jitter_sigma > 0 and times.size:
        times = times + g.normal(0.0, det.timing_jitter_sigma, times.size)
    if det.dark_rate > 0:
        span = span_hi - span_lo
        for port in (0, 1):
            n_dark = g.poisson(det.dark_rate * span)
            if n_dark:
                times = np.concatenate([times, span_lo + span * g.random(n_dark)])
                ports = np.concatenate([ports, np.full(n_dark, port, dtype=np.int8)])
    return times, ports


def _correlate(times, ports, halfspan, bin_width, nbins):
    """Histogram of t2 - t1 over all detector-1/detector-2 detection pairs
    with |t2 - t1| <= halfspan, and the number of pairs binned.

    Detector-1 detection i pairs with the run d2[lo[i]:lo[i] + per[i]] of
    sorted detector-2 times. Each window rank comes from one stable merge
    of two sorted runs, which keeps equal keys in run order: the position
    of edge i in the merge of d1 - halfspan (first) with d2, less i, is the
    number of d2 values below the edge (searchsorted side "left"), and in
    the merge of d2 with d1 + halfspan (second) the number at or below it
    (side "right"). The pairs are walked one lag diagonal k at a time (the
    k-th partner of every detection whose run is longer than k), so no
    array is as long as the number of pairs; each pair's delay and bin are
    computed as they would be pair by pair, so the counts are too. Bins
    are clipped to [-1, nbins] and tallied over nbins + 2 cells; the two
    edge cells, delays that rounding or a window wider than
    nbins * bin_width puts outside the bins, are dropped once at the end."""
    d1 = np.sort(times.compress(ports == 0))
    d2 = np.sort(times.compress(ports == 1))
    n1, n2 = d1.size, d2.size
    if n1 == 0 or n2 == 0:
        return np.zeros(nbins, dtype=np.int64), 0
    rank = np.arange(n1)
    lo = np.flatnonzero(np.argsort(np.concatenate([d1 - halfspan, d2]), kind="stable") < n1) - rank
    hi = np.flatnonzero(np.argsort(np.concatenate([d2, d1 + halfspan]), kind="stable") >= n2) - rank
    per = hi - lo
    # longest runs first, so the rows with a k-th partner are a prefix
    order = np.argsort(-per)
    d1, lo, per = d1.take(order), lo.take(order), per.take(order)
    cells = np.zeros(nbins + 2, dtype=np.int64)
    for k, m in enumerate(np.searchsorted(-per, -np.arange(per[0]), side="left")):
        tau = d2[k:].take(lo[:m]) - d1[:m]
        bins = np.clip(np.floor((tau + halfspan) / bin_width), -1, nbins)
        cells += np.bincount(bins.astype(np.int64) + 1, minlength=nbins + 2)
    counts = cells[1:-1]
    return counts, int(counts.sum())


def _simulate_block(route, scenario, rng, chunk_index, halfspan, bin_width, nbins):
    """Coincidence counts of one pulse block: emission and routing, pair and
    solo sampling, detector model, correlation."""
    pulse_lo = chunk_index * CHUNK_PULSES
    n_p = min(CHUNK_PULSES, scenario.n_pulses - pulse_lo)
    T = scenario.rep_period
    g = _chunk_rng(rng, chunk_index)
    times, ports = _mode_detections(route, scenario, g, pulse_lo * T + np.arange(n_p) * T)
    times, ports = _apply_detector(times, ports, scenario.detector, pulse_lo * T,
                                   (pulse_lo + n_p) * T, g)
    return _correlate(times, ports, halfspan, bin_width, nbins)


def _run_blocks(route, scenario, rng, label, bin_width, window_periods, n_jobs):
    """Sum the block counts of the whole pulse train into a histogram."""
    halfspan = window_periods * scenario.rep_period
    nbins = 2 * int(round(halfspan / bin_width)) + 1  # odd count: lag 0 is a bin center
    halfspan = 0.5 * nbins * bin_width
    n_blocks = (scenario.n_pulses + CHUNK_PULSES - 1) // CHUNK_PULSES
    work = partial(_simulate_block, route, scenario, rng, halfspan=halfspan,
                   bin_width=bin_width, nbins=nbins)
    counts = np.zeros(nbins, dtype=np.int64)
    total = 0
    # the pool starts no thread unless pool.map is used
    with ThreadPoolExecutor(max_workers=max(n_jobs, 1)) as pool:
        mapper = map if n_jobs <= 1 or n_blocks == 1 else pool.map
        for cc, t in mapper(work, range(n_blocks)):
            counts += cc
            total += t
    return CorrelationHistogram(bin_width=bin_width, counts=counts, rep_period=scenario.rep_period,
                                n_pulses=scenario.n_pulses, mode=label, total_events=total)


def simulate_histogram(scenario: InterferenceScenario, rng: RngSpec, *,
                       bin_width: float = 0.128, window_periods: int = 3,
                       n_jobs: int = 1) -> CorrelationHistogram:
    """Simulate the full pulse-train coincidence histogram for the scenario.

    Deterministic for a fixed RngSpec; n_jobs only distributes the fixed
    pulse blocks over threads and cannot change the counts.
    """
    return _run_blocks(_ROUTES[scenario.mode], scenario, rng, scenario.mode,
                       bin_width, window_periods, n_jobs)


def simulate_hbt_purity(multi_photon_prob: float, scenario: InterferenceScenario,
                        rng: RngSpec, *, bin_width: float = 0.128,
                        window_periods: int = 3, n_jobs: int = 1) -> CorrelationHistogram:
    """Hanbury Brown-Twiss autocorrelation of a source that emits a second
    photon in a pulse with probability multi_photon_prob. The extracted
    central-to-side peak ratio converges to hbt_analytic_g2(multi_photon_prob).
    The scenario's mode is not used.
    """
    if not 0 <= multi_photon_prob <= 1:
        raise ValueError(f"multi_photon_prob must lie in [0, 1], got {multi_photon_prob}")
    return _run_blocks(partial(_route_hbt, multi_photon_prob), scenario, rng, "hbt",
                       bin_width, window_periods, n_jobs)


def hbt_analytic_g2(multi_photon_prob: float) -> float:
    """Central-to-side peak ratio of the two-photon admixture model:
    g2 = 2p / (1 + p)^2 for second-photon probability p."""
    p = multi_photon_prob
    return 2.0 * p / (1.0 + p) ** 2


def multi_photon_prob_for_g2(g2_target: float) -> float:
    """Second-photon probability whose HBT histogram shows the requested
    g2(0); inverse of hbt_analytic_g2 on [0, 0.5]."""
    if not 0 <= g2_target < 0.5:
        raise ValueError(f"g2_target must lie in [0, 0.5), got {g2_target}")
    if g2_target == 0:
        return 0.0
    return (1.0 - g2_target - math.sqrt(1.0 - 2.0 * g2_target)) / g2_target


def analytic_visibility(scenario: InterferenceScenario) -> float:
    """Model prediction for the peak-area interference visibility of the
    scenario, in closed form: the detuning/jitter ensemble average
    (visibility_inhom_direct, or 1/(1 + tau_r^2 delta0^2) without jitter)
    times the arrival-time overlap factor from deliberate delay and emission
    jitter."""
    if scenario.mode == MODE_CROSS_POLARIZED:
        return 0.0
    pair = scenario.pair
    f_time = time_jitter_overlap_factor(pair.tau_r, pair.delta_tau, scenario.emission_jitter)
    if pair.sigma_g == 0:
        f_freq = 1.0 / (1.0 + (pair.tau_r * pair.delta0) ** 2)
    else:
        f_freq = visibility_inhom_direct(pair.tau_r, pair.sigma_g, pair.delta0)
    return f_time * f_freq


def analytic_g2_indist(scenario: InterferenceScenario) -> float:
    """Model prediction for the measured g2_indist: (1 - visibility)/2."""
    return 0.5 * (1.0 - analytic_visibility(scenario))
