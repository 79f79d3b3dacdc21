"""Stochastic coincidence-counting simulation of pulsed interference setups.

The simulator reproduces the full correlation histogram an experiment would
record: a pulse train drives one or two emitters, photon pairs meet (or miss)
on the final beam splitter, detections land on two counters, and every
counter-pair delay within the histogram window is tallied.

Every pairing mode and the HBT purity measurement run one pipeline per block
of CHUNK_PULSES pulses. Three routing functions draw the emission
randomness, in an order that fixes each mode's stream: _route_remote (two
emitters), _route_interferometer (one emitter's photons through an
unbalanced interferometer: the consecutive and pulse-pair modes) and
_route_hbt. Each returns the meeting pairs (midpoint, arrival offset,
frequency difference) and the groups of lone photon onsets; _mode_detections
samples both, the meeting pairs in one direct draw from the two-photon
detection law (_sample_meeting_pairs: a fixed set of draws per pair, nothing
rejected); _apply_detector and _correlate follow; _run_blocks sums the
blocks into one CorrelationHistogram. It runs them on min(n_jobs, blocks,
usable cores) threads, every usable core by default, and the calling thread
is one of them, so a run starts one pool thread fewer than it uses. The
stages select elements by index (take) or with compress, never by
boolean-mask indexing, which numpy runs several times slower on the
half-full masks that routing produces. They work in place where an old value
is dead, and a meeting pair's split is screened with a float32 cosine and
checked with the float64 one only near its threshold (_splits), with every
operation in its order, so counts stay bitwise equal.

Reproducibility contract
------------------------
Block c of a run keyed by RngSpec(seed, stream_id) draws all its
randomness from its own SFC64 stream (numpy.random.SFC64), seeded by
numpy.random.SeedSequence(seed, spawn_key=(stream_id, c)): the key is
hashed into the generator state, so distinct (seed, stream_id, block)
keys give independent streams. Identical (seed, stream_id) therefore give
bitwise-identical histograms, independent of how blocks are distributed
over workers; integer counts are summed, which is order-independent.
A block draws only the randomness its counts read: coin flips are single
random bits, and a frequency difference is drawn for the pairs that meet
on the beam splitter, not for every pulse. Coincidence pairs are tallied
within blocks; pairs that would straddle a block boundary are not counted,
a deterministic O(window / (CHUNK_PULSES * rep_period)) ~ 1e-4 relative
effect on side-peak areas.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
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
    "analytic_visibility_at",
    "hbt_analytic_g2",
    "multi_photon_prob_for_g2",
]

MODE_CONSECUTIVE = "consecutive-same-emitter"
MODE_DOUBLE_PULSE = "double-pulse-same-emitter"
MODE_REMOTE = "remote-emitters"
MODE_CROSS_POLARIZED = "cross-polarized-control"
MODES = (MODE_CONSECUTIVE, MODE_DOUBLE_PULSE, MODE_REMOTE, MODE_CROSS_POLARIZED)

CHUNK_PULSES = 1 << 16
# a block tallies every histogram bin, and draws each port's dark counts at once
_MAX_BINS = 10 ** 7 + 1
_MAX_DARK_PER_BLOCK = 1e6  # expected dark counts of one block and port
RNG_ALGORITHM = "sfc64 (numpy.random.SFC64), per-block SeedSequence(seed, spawn_key=(stream_id, block))"


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
        if not (_is_count(self.seed, 0) and self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (_is_count(self.stream_id, 0) and self.stream_id < 2 ** 32):
            raise ValueError(f"stream_id must be a 32-bit unsigned integer, got {self.stream_id!r}")


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
        if not (_is_count(self.n_pulses) and self.n_pulses <= CHUNK_PULSES * 2 ** 32):
            raise ValueError(f"n_pulses must be an integer from 1 to {CHUNK_PULSES * 2 ** 32}, "
                             f"got {self.n_pulses!r}")


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
    seq = np.random.SeedSequence(rng.seed, spawn_key=(rng.stream_id, chunk_index))
    return np.random.Generator(np.random.SFC64(seq))


def _sample_meeting_pairs(tau_r, dtau, delta, g):
    """Joint outcome for pairs that overlap on the beam splitter: whether the
    photons split, the two detection times (relative to the pair midpoint)
    and the port of each detection.

    Two exponential packets with onsets -+dtau/2 and frequency difference
    delta are detected at t_a, t_b with density
    |psi_a(t_a) psi_b(t_b) -+ psi_b(t_a) psi_a(t_b)|^2, minus for opposite
    ports. Summed over the ports it is the product of two independent
    exponential packets; where both packets are alive at both times the two
    products are equal, so given the times the pair splits with probability
    (1 - c)/2, c = cos(delta (t_b - t_a)), and elsewhere with probability
    1/2 (c = 0). Both packets are alive at both times when the photon of
    the earlier packet is detected at least |dtau| after its onset, which is
    tested, like the phase, on the exponential delays and |dtau| rather than
    on the rounded times. A phase that is not finite (delta or the product
    overflows) is fully dephased, c = 0. Every pair draws two exponentials,
    one uniform and two coins, whatever its parameters, and _splits decides
    it from a float32 cosine, or a float64 one near the threshold; averaged
    over the times, the split probability is
    (1 - e^{-|dtau|/tau_r} / (1 + tau_r^2 delta^2)) / 2."""
    n = dtau.size
    d = np.abs(dtau)
    early = g.exponential(tau_r, n)  # delay of the photon whose packet starts at -d/2
    late = g.exponential(tau_r, n)  # and of the one whose packet starts at +d/2
    u = g.random(n)
    swap = g.integers(0, 2, n, dtype=bool)  # True: photon a is the later packet's
    port_a = _coin(g, n)
    phase = late - early  # the phase delta (t_late - t_early)
    phase += d
    with np.errstate(over="ignore", invalid="ignore"):
        phase *= delta
    opposite = _splits(u, phase)
    np.copyto(opposite, u < 0.5, where=early < d)  # a packet is dead at one of the times
    d *= 0.5  # each onset's offset from the midpoint
    early -= d
    late += d
    t_a = np.where(swap, late, early)
    np.copyto(late, early, where=swap)  # late becomes t_b
    return opposite, t_a, late, port_a, port_a ^ opposite


def _splits(u, phase):
    """u < (1 - c)/2 for c = cos(phase), c = 0 where the phase is not
    finite: bitwise the float64 decision, made by a float32 screen.

    The screen compares u and p = (1 - cos(phase))/2 in float32. Against
    the float64 values p is off by at most 2^-25 (|phase| + 2), from the
    rounding of the phase and the float32 cosine, and u by 2^-25, so where
    they differ by more than 2^-20 (1 + |phase|), over 10 times the sum,
    the float32 comparison is the float64 one. The other rows, and rows
    whose p is NaN (a phase past the float32 range or not finite), take the
    float64 cosine: about 1 in 150,000 at remote-qd's phases."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = phase.astype(np.float32)  # +-inf past the float32 range
        p = np.cos(x)
    np.subtract(np.float32(1.0), p, out=p)
    p *= np.float32(0.5)
    v = u.astype(np.float32)
    split = v < p
    v -= p  # v becomes |u - p|
    np.abs(v, out=v)
    np.abs(x, out=x)  # x becomes the tolerance
    x += np.float32(1.0)
    x *= np.float32(2.0 ** -20)
    near = np.flatnonzero(~(v > x))  # NaN compares false: NaN rows are near
    with np.errstate(invalid="ignore"):
        c = np.cos(phase.take(near))
    np.nan_to_num(c, copy=False, nan=0.0)
    np.subtract(1.0, c, out=c)
    c *= 0.5
    split[near] = u.take(near) < c
    return split


def _sample_independent(onsets, tau_r, g):
    """Detection times and ports for photons that do not interfere."""
    times = onsets + g.exponential(tau_r, onsets.size)
    return times, _coin(g, onsets.size)


def _coin(g, n):
    """n fair coin flips as int8 ports 0/1, one random bit each."""
    return g.integers(0, 2, n, dtype=bool).view(np.int8)


def _jitter(g, sigma, n):
    """Per-photon emission-time jitter."""
    return g.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)


def _detuning(g, pair, n):
    """Pair frequency differences drawn from the jitter ensemble (no draw for none)."""
    if pair.sigma_g > 0 and n:
        return g.normal(pair.delta0, math.sqrt(2.0) * pair.sigma_g, n)
    return np.full(n, pair.delta0)


def _route_remote(scenario, g, pulse_t):
    """Two emitters, one photon each per pulse: every pulse is a meeting."""
    n = pulse_t.size
    off = scenario.pair.delta_tau
    if scenario.emission_jitter > 0:
        j1 = _jitter(g, scenario.emission_jitter, n)
        j2 = _jitter(g, scenario.emission_jitter, n)
        mid, dtau = pulse_t + (j1 + j2) / 2.0, off + j1 - j2
    else:  # jitters of 0.0 would add +0.0: pulse times are >= 0, and -0.0 + 0.0 is 0.0
        mid, dtau = pulse_t, np.full(n, off + 0.0)
    return mid, dtau, _detuning(g, scenario.pair, n), []


def _route_interferometer(scenario, g, pulse_t):
    """One emitter's photons through an unbalanced interferometer whose long
    arm adds D + delta_tau: one stream (consecutive mode, D = rep_period) or
    two, the second D = intra_delay after the pulse (pulse-pair modes).
    Photon n of the first stream on the long arm meets the next photon on
    the short arm: photon n of the second stream, or photon n + 1 of the one
    stream. Crossed polarizations never meet. Solo photons form one group
    per stream, in pulse order."""
    n = pulse_t.size
    off = scenario.pair.delta_tau
    s = int(scenario.mode == MODE_CONSECUTIVE)  # index step from a first-stream photon to the next
    D = scenario.rep_period if s else scenario.intra_delay
    jit = [_jitter(g, scenario.emission_jitter, n) for _ in range(2 - s)]
    arm = [g.integers(0, 2, n, dtype=bool) for _ in range(2 - s)]  # True: long arm
    met = np.zeros(n + s, dtype=bool)  # met[s + i]: photon i of the first stream meets
    if scenario.mode != MODE_CROSS_POLARIZED:
        np.greater(arm[0][:n - s], arm[-1][s:], out=met[s:n])  # long, and the next short
    im = np.flatnonzero(met[s:])
    j0, j1 = jit[0].take(im), jit[-1][s:].take(im)
    mid = pulse_t.take(im) + D + (j0 + j1 + off) / 2.0
    # every photon's onset, in place in its jitter buffer; an arm flag times
    # (D + off) adds the long arm's extra delay or 0
    for k, (j, a) in enumerate(zip(jit, arm)):
        j += pulse_t + D if k else pulse_t
        j += a * (D + off)
    if im.size:  # drop each meeting's two photons; with no meeting, all are solo as they are
        solo = np.flatnonzero(~(met[s:] | met[:n]))
        jit = [j.take(solo) for j in jit]
    return mid, off + j0 - j1, _detuning(g, scenario.pair, im.size), jit


def _route_hbt(multi_photon_prob, scenario, g, pulse_t):
    """Hanbury Brown-Twiss: one photon per pulse, plus a second with
    probability multi_photon_prob; no pairs meet."""
    n = pulse_t.size
    two = g.random(n) < multi_photon_prob
    first = pulse_t + _jitter(g, scenario.emission_jitter, n)
    second = pulse_t.compress(two) + _jitter(g, scenario.emission_jitter, int(two.sum()))
    none = np.empty(0)
    return none, none, none, [first, second]


_ROUTES = {MODE_REMOTE: _route_remote, MODE_CONSECUTIVE: _route_interferometer,
           MODE_DOUBLE_PULSE: _route_interferometer, MODE_CROSS_POLARIZED: _route_interferometer}


def _mode_detections(route, scenario, g, pulse_t):
    """All detection (time, port) pairs the pulses at times pulse_t produce,
    before detector effects: meeting pairs first, then each solo group."""
    tr = scenario.pair.tau_r
    mid, dtau, delta, solo = route(scenario, g, pulse_t)
    groups = []
    if mid.size:
        _, ta, tb, pa, pb = _sample_meeting_pairs(tr, dtau, delta, g)
        ta += mid
        tb += mid
        groups += [(ta, pa), (tb, pb)]
    groups += [_sample_independent(ons, tr, g) for ons in solo]
    times, ports = zip(*groups)
    return np.concatenate(times), np.concatenate(ports)


def sample_pair_events(scenario: InterferenceScenario, n: int, rng: RngSpec) -> PairEventBatch:
    """Draw n independent beam-splitter pair interactions for the scenario's
    pair physics (frequency difference from the jitter ensemble, arrival
    offset from the deliberate delay plus emission-time jitter).

    In cross-polarized operation the photons are fully distinguishable: ports
    are independent and the delay density is the no-interference one.

    Draws from the RngSpec's block-0 stream, the SFC64 generator seeded by
    SeedSequence(seed, spawn_key=(stream_id, 0)) that a histogram run would
    start from. An n that is not an integer >= 0 raises ValueError.
    """
    if not _is_count(n, 0):
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    g = _chunk_rng(rng, 0)
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
    with |t2 - t1| <= halfspan.

    Detector-1 detection i pairs with the run d2[lo[i]:lo[i] + per[i]] of
    sorted detector-2 times. Each window rank comes from one stable merge
    of two sorted runs, which keeps equal keys in run order: the position
    of edge i in the merge of d1 - halfspan (first) with d2, less i, is the
    number of d2 values below the edge (searchsorted side "left"), and in
    the merge of d2 with d1 + halfspan (second) the number at or below it
    (side "right"). The pairs are walked one lag diagonal k at a time (the
    k-th partner of every detection whose run is longer than k), so no
    array is as long as the number of pairs; each pair's delay and bin are
    computed as they would be pair by pair, so the counts are too. A
    stable radix sort on a narrow key orders the rows longest run first,
    in time order within a length, and each diagonal is computed in place
    in one buffer. Bins are clipped to [-1, nbins] and tallied over
    nbins + 2 cells; the two edge cells, delays that rounding or a window
    wider than nbins * bin_width puts outside the bins, are dropped once at
    the end."""
    d1 = np.sort(times.compress(ports == 0))
    d2 = np.sort(times.compress(ports == 1))
    n1, n2 = d1.size, d2.size
    if n1 == 0 or n2 == 0:
        return np.zeros(nbins, dtype=np.int64)
    lo = np.flatnonzero(np.argsort(np.concatenate([d1 - halfspan, d2]), kind="stable") < n1)
    per = np.flatnonzero(np.argsort(np.concatenate([d2, d1 + halfspan]), kind="stable") >= n2) - lo
    # longest runs first, so the rows with a k-th partner are a prefix; a
    # stable radix sort on a narrow key keeps time order within a length
    pmax = int(per.max())
    order = np.argsort((pmax - per).astype(np.min_scalar_type(pmax)), kind="stable")
    rows = n1 - np.cumsum(np.bincount(per)[:pmax])  # rows[k]: runs longer than k
    d1 = d1.take(order)
    lo = lo.take(order)
    lo -= order  # merge position less the rank of the d1 value
    del per, order  # free before the loop allocates its buffers
    cells = np.zeros(nbins + 2, dtype=np.int64)
    tau, bins = np.empty(n1), np.empty(n1, dtype=np.intp)
    for k, m in enumerate(rows):
        t, b = tau[:m], bins[:m]
        np.take(d2[k:], lo[:m], out=t, mode="clip")  # in range; "raise" would buffer out
        np.subtract(t, d1[:m], out=t)
        np.add(t, halfspan, out=t)
        np.divide(t, bin_width, out=t)
        np.floor(t, out=t)
        np.clip(t, -1, nbins, out=t)
        np.add(t, 1, out=b, casting="unsafe")
        cells += np.bincount(b, minlength=nbins + 2)
    return cells[1:-1]


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


def _is_count(value, least=1):
    """An integer >= least, of any integer type but bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _block_shape(rep_period, bin_width, window_periods, dark_rate, names=None):
    """Half-span and bin count of a block's histogram, 2 round(window_periods
    * rep_period / bin_width) + 1 (odd: lag 0 is a bin center). A bin_width
    that is not finite and > 0, a window_periods that is not an integer >= 1,
    or a block past _MAX_BINS or _MAX_DARK_PER_BLOCK, raises ValueError
    naming the inputs as names maps them (default: the argument names;
    formulas use the last dotted part)."""
    n = {arg: arg for arg in ("rep_period", "bin_width", "window_periods", "dark_rate")} | (names or {})
    short = {arg: path.rpartition(".")[2] for arg, path in n.items()}
    # every check is written so that NaN fails it
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise ValueError(f"{n['bin_width']} must be finite and > 0, got {bin_width}")
    if not _is_count(window_periods):
        raise ValueError(f"{n['window_periods']} must be an integer >= 1, got {window_periods!r}")
    # an int past the float range cannot be multiplied by a float
    half = window_periods * rep_period / bin_width if window_periods < 2 ** 1024 else math.inf
    if not half <= _MAX_BINS or 2 * round(half) + 1 > _MAX_BINS:
        raise ValueError(f"{n['rep_period']}, {n['bin_width']} and {n['window_periods']}: "
                         f"the histogram would have {2 * half + 1:.6g} bins "
                         f"(2 * {short['window_periods']} * {short['rep_period']} / "
                         f"{short['bin_width']} + 1), more than {_MAX_BINS}")
    dark = dark_rate * CHUNK_PULSES * rep_period
    if not dark <= _MAX_DARK_PER_BLOCK:
        raise ValueError(f"{n['dark_rate']} and {n['rep_period']}: a block of {CHUNK_PULSES} "
                         f"pulses would draw {dark:.6g} dark counts per port "
                         f"({short['dark_rate']} * {CHUNK_PULSES} * {short['rep_period']}), "
                         f"more than {_MAX_DARK_PER_BLOCK:g}")
    nbins = 2 * round(half) + 1
    return 0.5 * nbins * bin_width, nbins


def _usable_cores():
    """CPUs this process may run on: its affinity mask where the OS reports
    one, else the installed count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(route, scenario, rng, label, bin_width, window_periods, n_jobs):
    """Sum the block counts of the whole pulse train into a histogram.

    The calling thread and workers - 1 pool threads pull block indices from
    one shared iterator, each sums its own counts, and the run adds the
    sums: integer counts, so any split gives the serial histogram."""
    if not (n_jobs is None or _is_count(n_jobs)):
        raise ValueError(f"n_jobs must be None or an integer >= 1, got {n_jobs!r}")
    halfspan, nbins = _block_shape(scenario.rep_period, bin_width, window_periods,
                                   scenario.detector.dark_rate)
    n_blocks = (scenario.n_pulses + CHUNK_PULSES - 1) // CHUNK_PULSES
    work = partial(_simulate_block, route, scenario, rng, halfspan=halfspan,
                   bin_width=bin_width, nbins=nbins)
    blocks = iter(range(n_blocks))
    lock = threading.Lock()

    def drain():
        """The summed counts of the blocks this thread takes."""
        counts = np.zeros(nbins, dtype=np.int64)
        while True:
            with lock:
                c = next(blocks, None)
            if c is None:
                return counts
            counts += work(c)

    # each thread holds a block's arrays: no more threads than blocks or usable
    # cores; the pool starts a thread per task it is given, none for one worker
    cores = _usable_cores()
    workers = min(n_jobs or cores, n_blocks, cores)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(drain) for _ in range(workers - 1)]
        counts = drain()
        for f in futures:
            counts += f.result()
    return CorrelationHistogram(bin_width=bin_width, counts=counts, rep_period=scenario.rep_period,
                                n_pulses=scenario.n_pulses, mode=label,
                                total_events=int(counts.sum()))


def simulate_histogram(scenario: InterferenceScenario, rng: RngSpec, *,
                       bin_width: float = 0.128, window_periods: int = 3,
                       n_jobs: int | None = None) -> CorrelationHistogram:
    """Simulate the full pulse-train coincidence histogram for the scenario.

    Deterministic for a fixed RngSpec. The fixed pulse blocks run on at most
    n_jobs threads (None, or an integer >= 1; None: every usable core), the
    calling thread included, and never on more threads than blocks or
    usable cores; n_jobs cannot change the counts.
    """
    return _run_blocks(_ROUTES[scenario.mode], scenario, rng, scenario.mode,
                       bin_width, window_periods, n_jobs)


def simulate_hbt_purity(multi_photon_prob: float, scenario: InterferenceScenario,
                        rng: RngSpec, *, bin_width: float = 0.128,
                        window_periods: int = 3,
                        n_jobs: int | None = None) -> CorrelationHistogram:
    """Hanbury Brown-Twiss autocorrelation of a source that emits a second
    photon in a pulse with probability multi_photon_prob. The extracted
    central-to-side peak ratio converges to hbt_analytic_g2(multi_photon_prob).
    The scenario's mode is not used; blocks and n_jobs as in
    simulate_histogram.
    """
    if not 0 <= multi_photon_prob <= 1:
        raise ValueError(f"multi_photon_prob must lie in [0, 1], got {multi_photon_prob}")
    return _run_blocks(partial(_route_hbt, multi_photon_prob), scenario, rng, "hbt",
                       bin_width, window_periods, n_jobs)


def hbt_analytic_g2(multi_photon_prob: float) -> float:
    """Central-to-side peak ratio of the two-photon admixture model:
    g2 = 2p / (1 + p)^2 for second-photon probability p in [0, 1]."""
    p = multi_photon_prob
    if not 0 <= p <= 1:
        raise ValueError(f"multi_photon_prob must lie in [0, 1], got {p}")
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
    scenario: analytic_visibility_at its pair's own arrival offset, mean
    detuning and jitter scale."""
    pair = scenario.pair
    return analytic_visibility_at(scenario, pair.delta_tau, pair.delta0, pair.sigma_g)


def analytic_visibility_at(scenario: InterferenceScenario, delta_tau, delta0, sigma_g):
    """Model prediction for the peak-area interference visibility of the
    scenario with its pair's arrival offset, mean detuning and jitter scale
    replaced by delta_tau, delta0 and sigma_g, in closed form: the
    detuning/jitter ensemble average visibility_inhom_direct (the
    Lorentzian 1/(1 + tau_r^2 delta0^2) at sigma_g = 0) times the
    arrival-time overlap factor from deliberate delay and emission jitter.
    Crossed polarizations never interfere and give 0.

    Elementwise over delta_tau, delta0 and sigma_g, scalars or arrays that
    broadcast together: scalars give a float, arrays a float array. A
    single value that is not finite, or a sigma_g < 0, raises ValueError
    in every mode.
    """
    tau_r = scenario.pair.tau_r
    out = (time_jitter_overlap_factor(tau_r, delta_tau, scenario.emission_jitter)
           * visibility_inhom_direct(tau_r, sigma_g, delta0))
    return out * (scenario.mode != MODE_CROSS_POLARIZED)
