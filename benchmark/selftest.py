"""Self-test of the benchmark: the oracles against closed forms, then one
small round of each workload.

    python3 benchmark/selftest.py      # from the repository root

Exits 1 when an oracle misses its closed form, or when a small round's
checks do not come out as expected: every check passes except the
known-fault estimator checks, which must fail.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402

TAU_R = 0.67
SIGMA_G = 2.7399880931875664  # remote-qd.json operating point, V = 0.364
FAILURES = []


def expect(name, got, want, tol):
    ok = abs(got - want) <= tol
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {got:.10g} (closed form {want:.10g}, tol {tol:g})")
    if not ok:
        FAILURES.append(name)


def erfcx_visibility(tau_r, sigma_g):
    """V = sqrt(pi) x e^{x^2} erfc(x), x = 1/(2 tau_r sigma_g)."""
    x = mp.mpf(1) / (2 * tau_r * sigma_g)
    return float(mp.sqrt(mp.pi) * x * mp.exp(x * x) * mp.erfc(x))


def peak_ratio(counts, bw, centres, halfwidth, baseline=0.0, reference="mean"):
    c = orc.whole_bin_areas(counts, bw, [0.0], halfwidth, baseline)[0]
    return orc.ratio(c, orc.whole_bin_areas(counts, bw, centres, halfwidth, baseline), reference)


def oracle_checks():
    expect("frequency-domain V at the remote-qd operating point",
           orc.freq_visibility(TAU_R, SIGMA_G, 0.0), 0.364, 1e-9)
    for sg in (0.3, 1.0, 4.0):
        expect(f"frequency-domain V = sqrt(pi) x erfcx(x) at sigma_g {sg}",
               orc.freq_visibility(TAU_R, sg, 0.0), erfcx_visibility(TAU_R, sg), 1e-10)
    expect("frequency-domain V without jitter is the Lorentzian",
           orc.freq_visibility(TAU_R, 1e-9, 2.0), 1.0 / (1.0 + (TAU_R * 2.0) ** 2), 1e-9)
    v = 2.0 * 0.2 ** 2
    expect("arrival-time overlap E[e^{-|D|/tau}] in closed form",
           orc.time_overlap_var(TAU_R, v),
           math.exp(v / (2 * TAU_R ** 2)) * math.erfc(math.sqrt(v / 2) / TAU_R), 1e-12)

    bw, T, n = 0.128, 12.2, 200_000
    nb = 2 * int(round(4 * T / bw)) + 1
    half = T / 2 - bw  # whole peaks: clipped tails and neighbour tails cancel
    exp_remote, _ = orc.expected_histogram("remote", tau_r=TAU_R, rep_period=T, n_pulses=n,
                                           chunk=n, bin_width=bw, nbins=nb, sigma_g=SIGMA_G)
    sides = [s * k * T for k in (1, 2) for s in (1, -1)]
    expect("unclipped remote-qd g2 = (1 - V)/2", peak_ratio(exp_remote, bw, sides, half),
           0.5 * (1 - 0.364), 2e-4)
    W = 4.69
    expect("remote-qd g2 over the bins whose centre is within 4.69 ns",
           peak_ratio(exp_remote, bw, [s * k * T for k in (1, 2, 3) for s in (1, -1)], W),
           0.31783, 1e-5)

    common = dict(tau_r=0.1, rep_period=12.5, n_pulses=n, chunk=n, bin_width=bw, nbins=nb,
                  emission_jitter=0.008, efficiency=0.6, detector_jitter=0.03)
    exp_cross, _ = orc.expected_histogram("cross-polarized", **common)
    expect("cross-polarized g2 = 0.5 over whole peaks",
           peak_ratio(exp_cross, bw, [2.0, -2.0], 0.99, reference="sum"), 0.5, 1e-4)
    p = 0.05
    exp_hbt, base = orc.expected_histogram("hbt", multi_photon_prob=p, dark_rate=1e-4, **common)
    expect("HBT g2 = 2p/(1+p)^2 over whole peaks, dark counts removed",
           peak_ratio(exp_hbt, bw, [12.5, -12.5, 25.0, -25.0], 6.0, base), 2 * p / (1 + p) ** 2, 1e-4)

    grid = orc.DelayGrid(bw, nb, margin=10.0)
    m = orc.meeting_shape(grid, TAU_R, 0.3, 0.0, v, 2.0 * 0.03 ** 2)
    expect("meeting-pair density integrates to (1 - F V)/2",
           float(np.sum(grid.bin_integrals(m))),
           0.5 * (1 - orc.time_overlap_var(TAU_R, v) * orc.freq_visibility(TAU_R, 0.3, 0.0)), 1e-6)
    flat = np.full(101, 10.0)
    expect("exact-window area of a flat histogram is 2W x density",
           orc.exact_window_areas(flat, bw, [0.05], 1.0)[0], 2.0 / bw * 10.0, 1e-9)


def small_rounds():
    import run
    import spans
    import workloads as wl

    wl.REMOTE_PULSES = 200_000
    wl.MODE_PULSES = 200_000
    wl.HBT_PULSES = 200_000
    wl.SWEEP_POINTS = 41
    wl.SWEEP_CHECK_EVERY = 10
    wl.NOISY_COPIES = 1
    root = Path.cwd()
    homsim = run.import_homsim(root)
    out = HERE / "_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    for cls in wl.WORKLOADS.values():
        ctx = wl.Context(root, out / cls.name, 7, homsim)
        rnd = cls(ctx).round(spans.NullTracer())
        for name, ok, figure in rnd.checks:
            good = ok == (name not in wl.KNOWN_FAULTS)
            print(f"{'ok  ' if good else 'FAIL'} {cls.name} {name}: {'pass' if ok else 'fail'}"
                  + (f" ({figure})" if figure else ""))
            if not good:
                FAILURES.append(f"{cls.name} {name}")


if __name__ == "__main__":
    oracle_checks()
    small_rounds()
    print(f"{len(FAILURES)} failure(s)" + (": " + ", ".join(FAILURES) if FAILURES else ""))
    sys.exit(1 if FAILURES else 0)
