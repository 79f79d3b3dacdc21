"""Quadrature oracles for the closed forms in homsim.model.

The package evaluates the remote-pair correlation density and visibility in
closed form only. The functions here compute the same quantities the long
way, for the tests to check the closed forms against: a global-adaptive
Gauss-Kronrod integrator, the one-sided exponential photon wavepackets and
the two-time correlation built from them, the double quadrature over the
first detection time and the pair frequency difference (p_inhom_quadrature),
the delay integral of p_inhom (visibility_inhom_quadrature), and the legacy
published closed form, which evaluates to 2V - 1.

Nothing under src/ imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from homsim import PairSpec, p_inhom
from homsim.specfun import _erfcx_array

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be a positive finite real, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be a positive finite real, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement exhausts its subdivision budget.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss weights sit on the odd Kronrod nodes.
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _panel(f, a, b):
    """One G7/K15 evaluation on [a, b]: returns (integral, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _KRONROD_NODES), dtype=float)
    k15 = half * float(np.dot(_KRONROD_WEIGHTS, fx))
    g7 = half * float(np.dot(_GAUSS_WEIGHTS, fx[1::2]))
    err = (200.0 * abs(k15 - g7)) ** 1.5 if k15 != g7 else 0.0
    # The classic heuristic can underestimate on hard panels; never report
    # less than the raw G-K difference.
    return k15, max(err, abs(k15 - g7) * 1e-3)


def integrate_1d(f, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive quadrature of f over the finite interval [a, b].

    f must accept a 1-d numpy array of nodes and return the integrand values;
    semi-infinite integrals are handled by the caller truncating at a bound
    derived from the integrand's envelope. The worst panel (largest error
    estimate) is bisected until the summed error falls below
    max(abs_tol, rel_tol*|result|).

    Raises
    ------
    QuadratureError
        If the tolerance is not met within spec.max_subdivisions panel
        splits. The exception carries the best estimate.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"integration requires a < b, got [{a}, {b}]")

    value, err = _panel(f, a, b)
    panels = [(err, a, b, value)]
    splits = 0
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {spec.max_subdivisions} subdivisions "
                f"(estimate {total!r}, error {total_err:.3e})",
                best_estimate=total,
                error_estimate=total_err,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, lo, hi, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        panels.append((e1, lo, mid, v1))
        panels.append((e2, mid, hi, v2))
        splits += 1


class DegenerateJitterError(ValueError):
    """Signals that sigma_g = 0 has no frequency distribution to sample;
    callers must take the Fourier-limited path instead."""


@dataclass(frozen=True)
class PhotonWavePacket:
    """One-sided exponential wavepacket of a single photon.

    The amplitude rises instantaneously at `time_offset` and decays with the
    radiative lifetime; the carrier oscillates at omega + frequency_offset.
    """

    tau_r: float
    omega: float = 0.0
    frequency_offset: float = 0.0
    time_offset: float = 0.0

    def __post_init__(self):
        if not self.tau_r > 0:
            raise ValueError(f"tau_r must be > 0, got {self.tau_r}")

    @classmethod
    def pair(cls, tau_r, delta, delta_tau, omega=0.0):
        """The two members of an interfering pair: the first carries frequency
        offset -delta/2 and onset +delta_tau/2, the second the opposites."""
        first = cls(tau_r=tau_r, omega=omega, frequency_offset=-delta / 2,
                    time_offset=+delta_tau / 2)
        second = cls(tau_r=tau_r, omega=omega, frequency_offset=+delta / 2,
                     time_offset=-delta_tau / 2)
        return first, second


def wavepacket_amplitude(packet: PhotonWavePacket, t):
    """Complex amplitude of the wavepacket at time(s) t: zero before the
    onset, then sqrt(1/tau_r) * exp(-(t - onset)/(2 tau_r)) with carrier
    exp(-i (omega + frequency_offset) t).

    The sqrt(1/tau_r) prefactor normalizes the time-integral of the squared
    magnitude to exactly 1 (a detection-probability density).
    """
    t = np.asarray(t, dtype=float)
    rel = t - packet.time_offset
    env = np.where(rel > 0, np.exp(-rel / (2.0 * packet.tau_r)), 0.0) / math.sqrt(packet.tau_r)
    out = env * np.exp(-1j * (packet.omega + packet.frequency_offset) * t)
    if out.ndim == 0:
        return complex(out)
    return out


def _g2_tl_raw(t0, tau, tau_r, delta_tau, delta):
    """|xi1(t0) xi2(t0+tau) - xi2(t0) xi1(t0+tau)|^2 / 4 with the two
    unit-norm one-sided exponential packets; broadcasts over all arguments.
    The common carrier omega cancels; only the frequency difference enters."""
    p1, p2 = PhotonWavePacket.pair(tau_r, np.asarray(delta, dtype=float), delta_tau)
    t1 = np.asarray(t0, dtype=float) + np.asarray(tau, dtype=float)
    xi = wavepacket_amplitude
    return np.abs(xi(p1, t0) * xi(p2, t1) - xi(p2, t0) * xi(p1, t1)) ** 2 / 4.0


def g2_tl(t0, tau, pair: PairSpec, delta: float):
    """Two-time correlation of two Fourier-limited packets with frequency
    difference delta and arrival offset pair.delta_tau (an antisymmetrized
    product of the two wavepackets, so it vanishes at tau = 0 and for
    identical packets)."""
    out = _g2_tl_raw(t0, tau, pair.tau_r, pair.delta_tau, delta)
    if np.ndim(out) == 0:
        return float(out)
    return out


def delta_distribution(delta, pair: PairSpec):
    """Probability density of the pair frequency difference:
    f(D) = exp(-(D - delta0)^2/(4 sigma_g^2)) / (2 sqrt(pi) sigma_g),
    a normalized Gaussian with variance 2 sigma_g^2."""
    if pair.sigma_g == 0:
        raise DegenerateJitterError(
            "sigma_g = 0 has no frequency spread; use the Fourier-limited path with delta = delta0")
    delta = np.asarray(delta, dtype=float)
    out = np.exp(-((delta - pair.delta0) ** 2) / (4.0 * pair.sigma_g ** 2)) / (2.0 * _SQRT_PI * pair.sigma_g)
    if out.ndim == 0:
        return float(out)
    return out


def _t0_support_bounds(tau, delta_tau):
    """Onset structure of the antisymmetrized kernel at fixed tau: below
    `lo` everything vanishes; between `lo` and `hi` only one product is
    alive (a kink in t0)."""
    o1, o2 = delta_tau / 2.0, -delta_tau / 2.0
    a = max(o1, o2 - tau)
    b = max(o2, o1 - tau)
    return min(a, b), max(a, b)


def p_inhom_quadrature(tau: float, pair: PairSpec, spec: QuadratureSpec | None = None) -> float:
    """Brute-force oracle for p_inhom: the frequency average is done by
    quadrature over the Gaussian difference distribution, and the time
    average by quadrature over the first detection time, both built directly
    on the wavepacket amplitudes."""
    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=4000)
    tau = float(tau)
    tr = pair.tau_r
    lo, hi = _t0_support_bounds(tau, pair.delta_tau)
    upper = hi + 30.0 * tr  # exp(-2*30) envelope, far below any tolerance

    if pair.sigma_g == 0.0:
        def integrand(t0):
            return _g2_tl_raw(t0, tau, tr, pair.delta_tau, pair.delta0)
    else:
        half_span = 9.0 * math.sqrt(2.0) * pair.sigma_g
        d_lo, d_hi = pair.delta0 - half_span, pair.delta0 + half_span
        f = lambda d: delta_distribution(d, pair)

        def inner(t0_scalar):
            g = lambda d: f(d) * _g2_tl_raw(t0_scalar, tau, tr, pair.delta_tau, d)
            return integrate_1d(g, d_lo, d_hi, spec)

        def integrand(t0):
            t0 = np.atleast_1d(t0)
            return np.array([inner(t) for t in t0])

    total = 0.0
    # Split at the kink where the second product switches on.
    if hi - lo > 1e-15:
        total += integrate_1d(integrand, lo, hi, spec)
    total += integrate_1d(integrand, hi, upper, spec)
    return total


def visibility_inhom_closed(tau_r: float, sigma_g: float) -> float:
    """Closed-form remote-pair visibility in the published convention:

        1 - (1/(tau_r sigma_g)) * (2 tau_r sigma_g - sqrt(pi) erfcx(x)),
        x = 1/(2 tau_r sigma_g).

    This expression algebraically equals 2*V - 1 where V is the directly
    normalized visibility (see visibility_inhom_direct); the quadrature
    normalization is the authoritative one where they disagree.
    """
    if not (tau_r > 0 and sigma_g > 0):
        raise ValueError(f"tau_r and sigma_g must be > 0, got {tau_r}, {sigma_g}")
    x = 1.0 / (2.0 * tau_r * sigma_g)
    erfcx = float(_erfcx_array(np.asarray(complex(x))).real)
    return 1.0 - (1.0 / (tau_r * sigma_g)) * (2.0 * tau_r * sigma_g - _SQRT_PI * erfcx)


def visibility_inhom_quadrature(pair: PairSpec, spec: QuadratureSpec | None = None) -> float:
    """Remote-pair visibility 1 - 2 * integral of p_inhom(tau) d tau, with the
    side-peak normalization that puts fully distinguishable photons at 0.5.
    Supports nonzero delta0; requires delta_tau = 0.

    A test oracle for visibility_inhom_direct, which the program uses. Its
    accuracy is limited by the oscillating cos(delta0 tau) factor at large
    tau_r * delta0: against an mpmath frequency-domain oracle on 1,501 random
    points (tau_r 0.2-2 ns, sigma_g 0.01-3 rad/ns, |delta0| <= 150 rad/ns)
    its worst error was 3.4e-8, at tau_r 1.835 ns, sigma_g 0.025 rad/ns,
    delta0 59.2 rad/ns, where the closed form is off by 1e-20."""
    if pair.delta_tau != 0.0:
        raise ValueError("the standard visibility definition requires delta_tau = 0")
    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=8000)
    tr = pair.tau_r
    span = 45.0 * tr
    f = lambda t: p_inhom(t, pair)
    # kink at tau = 0; oscillatory factor handled adaptively
    area = integrate_1d(f, -span, 0.0, spec) + integrate_1d(f, 0.0, span, spec)
    return 1.0 - 2.0 * area
