"""Analytic two-photon interference model for pulsed two-level emitters.

Covers the homogeneous-dephasing correlation function of the central
coincidence peak, its ensemble average over Gaussian shot-to-shot frequency
jitter of the emission line, and the visibility formulas derived from both
pictures; visibility_inhom_direct is the one evaluator of the jitter-averaged
(Voigt) overlap. Every quantity here is a closed form; the quadrature
versions they are checked against are test code, not part of the package.

Conventions used throughout:

* times in ns, angular frequencies in rad/ns;
* coincidence-peak areas are normalized so that two fully distinguishable
  photons meeting on the beam splitter give 0.5 relative to the side peaks;
* the pair frequency difference D is distributed as
  f(D) = exp(-(D - delta0)^2 / (4 sigma_g^2)) / (2 sqrt(pi) sigma_g),
  i.e. variance 2*sigma_g^2 with sigma_g = sqrt(sigma_1^2 + sigma_2^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _erfcx_array, _scaled_erfcx

__all__ = [
    "HBAR_UEV_NS",
    "PairSpec",
    "g2_hom_peak",
    "central_peak_area_hom",
    "visibility_hom",
    "p_inhom",
    "visibility_inhom_direct",
    "sigma_from_coherence",
    "sigma_for_visibility",
    "coherence_integral",
    "michelson_contrast",
    "time_jitter_overlap_factor",
]

# hbar in microelectronvolt-nanoseconds: converts energy detunings in ueV to
# angular frequencies in rad/ns (omega = E / hbar).
HBAR_UEV_NS = 0.6582119569


@dataclass(frozen=True)
class PairSpec:
    """Parameters of one interfering photon pair (or pair ensemble).

    tau_r : shared radiative lifetime (ns)
    delta_tau : arrival-time offset between the packets (ns)
    delta0 : mean frequency detuning omega_2 - omega_1 (rad/ns)
    sigma_g : combined jitter scale sqrt(sigma_1^2 + sigma_2^2) (rad/ns)
    """

    tau_r: float
    delta_tau: float = 0.0
    delta0: float = 0.0
    sigma_g: float = 0.0

    def __post_init__(self):
        if not (self.tau_r > 0 and math.isfinite(self.tau_r)):
            raise ValueError(f"tau_r must be finite and > 0, got {self.tau_r}")
        if not (math.isfinite(self.delta_tau) and math.isfinite(self.delta0)):
            raise ValueError(f"delta_tau and delta0 must be finite, got {self.delta_tau}, {self.delta0}")
        if not (self.sigma_g >= 0 and math.isfinite(self.sigma_g)):
            raise ValueError(f"sigma_g must be finite and >= 0, got {self.sigma_g}")


def _check_hom_domain(tau_r, tau_c):
    if not tau_r > 0:
        raise ValueError(f"tau_r must be > 0, got {tau_r}")
    if not 0 < tau_c:
        raise ValueError(f"tau_c must be > 0, got {tau_c}")
    if tau_c > 2 * tau_r * (1 + 1e-12):
        raise ValueError(
            f"tau_c = {tau_c} exceeds the Fourier limit 2*tau_r = {2 * tau_r} (unphysical coherence)")


def g2_hom_peak(tau, tau_r: float, tau_c: float):
    """Central-peak correlation density for two photons with identical
    frequency and no arrival offset, homogeneous dephasing only:

        1/2 e^{-|t|/tau_r} - 1/2 e^{-2|t|/tau_c}

    Accepts a scalar or an array in tau.
    """
    _check_hom_domain(tau_r, tau_c)
    a = np.abs(np.asarray(tau, dtype=float))
    out = 0.5 * np.exp(-a / tau_r) - 0.5 * np.exp(-2.0 * a / tau_c)
    if out.ndim == 0:
        return float(out)
    return out


def central_peak_area_hom(tau_r: float, tau_c: float) -> float:
    """Normalized area of the central coincidence peak at delta_tau = 0:
    0.5 * (1 - tau_c / (2 tau_r)). Two fully distinguishable photons
    (tau_c -> 0) give 0.5; Fourier-limited photons give 0."""
    _check_hom_domain(tau_r, tau_c)
    return 0.5 * (1.0 - tau_c / (2.0 * tau_r))


def visibility_hom(tau_r: float, tau_c: float) -> float:
    """Two-photon interference visibility under homogeneous broadening:
    v = tau_c / (2 tau_r), in [0, 1]."""
    _check_hom_domain(tau_r, tau_c)
    return tau_c / (2.0 * tau_r)


def p_inhom(tau, pair: PairSpec):
    """Opposite-port coincidence density at delay tau for jitter-averaged
    pairs (closed form):

        1/(8 tau_r) * ( e^{-|dt - tau|/tau_r} + e^{-|dt + tau|/tau_r}
                        - 2 cos(delta0 tau) e^{-(|dt|+|tau|)/tau_r}
                          e^{-sigma_g^2 tau^2} )

    For sigma_g = 0 this is the Fourier-limited fixed-detuning expression.
    """
    tau = np.asarray(tau, dtype=float)
    tr = pair.tau_r
    dt = pair.delta_tau
    out = (np.exp(-np.abs(dt - tau) / tr)
           + np.exp(-np.abs(dt + tau) / tr)
           - 2.0 * np.cos(pair.delta0 * tau)
           * np.exp(-(abs(dt) + np.abs(tau)) / tr)
           * np.exp(-(pair.sigma_g ** 2) * tau ** 2)) / (8.0 * tr)
    if out.ndim == 0:
        return float(out)
    return out


def visibility_inhom_direct(tau_r: float, sigma_g, delta0=0.0):
    """Directly normalized remote-pair visibility at mean detuning delta0 and
    zero arrival offset, in closed form:

        V = sqrt(pi) * x * Re erfcx(x * (1 - i tau_r delta0)),
        x = 1/(2 tau_r sigma_g),

    the Lorentzian overlap 1/(1 + tau_r^2 D^2) averaged over the pair
    detuning D ~ N(delta0, 2 sigma_g^2) (a Voigt profile). At delta0 = 0 it
    is sqrt(pi) * x * erfcx(x); at sigma_g = 0 the continued fraction's
    scale is 0 and it returns the Lorentzian 1/(1 + tau_r^2 delta0^2) itself.
    This is the one checked Voigt evaluator: every closed form of the
    remote-pair visibility in the package goes through it.

    Equals 1 - 2 * integral of p_inhom over all delays, i.e. the convention
    in which fully distinguishable photons give V = 0 and g2 = 0.5. The
    product x * erfcx is formed without overflow, so V stays finite and
    accurate down to sigma_g = 5e-324.

    Elementwise over sigma_g and delta0, scalars or arrays that broadcast
    together: scalar input gives a float, array input a float array. A
    single sigma_g that is not finite and >= 0, or delta0 that is not
    finite, raises ValueError.
    """
    if not (tau_r > 0 and math.isfinite(tau_r)):
        raise ValueError(f"tau_r must be finite and > 0, got {tau_r}")
    sigma_g, delta0 = np.broadcast_arrays(np.asarray(sigma_g, dtype=float),
                                          np.asarray(delta0, dtype=float))
    bad = ~((sigma_g >= 0) & np.isfinite(sigma_g))
    if bad.any():
        raise ValueError(f"sigma_g must be finite and >= 0, got {sigma_g[bad][0]}")
    bad = ~np.isfinite(delta0)
    if bad.any():
        raise ValueError(f"delta0 must be finite, got {delta0[bad][0]}")
    with np.errstate(over="ignore"):
        a, s = tau_r * delta0, 2.0 * tau_r * sigma_g
    # V < 1e-300 once either product leaves the float range
    out = np.zeros(a.shape)
    inside = np.isfinite(a) & np.isfinite(s)
    out[inside] = _scaled_erfcx(1.0 - 1j * a[inside], s[inside]).real
    return float(out) if out.ndim == 0 else out


def coherence_integral(tau_r: float, sigma: float) -> float:
    """Operational coherence time of a lifetime-limited line with Gaussian
    frequency jitter: integral of |g1|^2 with
    g1(t) = exp(-|t|/(2 tau_r)) * exp(-sigma^2 t^2 / 2). Closed form
    (sqrt(pi)/sigma) * erfcx(1/(2 sigma tau_r)); 2 tau_r at sigma = 0.

    With sigma = sigma_g this is the same integral as the remote-pair
    visibility, and it is evaluated so: coherence_integral(tau_r, sigma_g)
    = 2 tau_r * visibility_inhom_direct(tau_r, sigma_g) for identical
    emitters (delta0 = 0, delta_tau = 0)."""
    return 2.0 * tau_r * visibility_inhom_direct(tau_r, sigma)


def sigma_from_coherence(tau_r: float, tau_c_target: float) -> float:
    """Jitter scale sigma whose mixed lifetime+jitter line has operational
    coherence time (integral of |g1|^2) equal to tau_c_target. Monotone:
    smaller targets need more jitter; tau_c_target -> 2 tau_r gives
    sigma -> 0.

    Because V(sigma) = coherence_integral(tau_r, sigma) / (2 tau_r), the
    remote-pair visibility at the returned sigma is exactly
    tau_c_target / (2 tau_r), i.e. visibility_hom(tau_r, tau_c_target)."""
    if not 0 < tau_c_target < 2 * tau_r:
        raise ValueError(
            f"tau_c_target must lie in (0, 2*tau_r): got {tau_c_target} with tau_r={tau_r} "
            "(at or above the Fourier limit no jitter is needed)")
    return sigma_for_visibility(tau_r, tau_c_target / (2.0 * tau_r))


def sigma_for_visibility(tau_r: float, visibility: float) -> float:
    """Jitter scale sigma_g at which the directly normalized remote-pair
    visibility equals the given value in (0, 1): the inverse of
    visibility_inhom_direct at delta0 = 0, by bisection to ~1e-14
    relative. A tau_r that is not finite and > 0 raises ValueError."""
    # every check is written so that NaN fails it
    if not (tau_r > 0 and math.isfinite(tau_r)):
        raise ValueError(f"tau_r must be finite and > 0, got {tau_r}")
    if not 0.0 < visibility < 1.0:
        raise ValueError(f"visibility must lie in (0, 1), got {visibility}")
    # V depends on u = tau_r * sigma_g alone; it rounds to 1 at u = 2^-40
    # and is 0 at u = 2^1023, where 2 u overflows
    lo, hi = 2.0 ** -40, 2.0 ** 1023
    while hi - lo > 1e-14 * lo:
        # log-space bisection: u spans many decades, and lo * hi would overflow
        mid = math.sqrt(lo) * math.sqrt(hi)
        if visibility_inhom_direct(1.0, mid) > visibility:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo) * math.sqrt(hi) / tau_r


def michelson_contrast(dt, a1, a2, tc1, tc2, fss):
    """Michelson fringe contrast of a (possibly fine-structure split) line at
    path-difference delay dt >= 0:

        C(dt) = sqrt(a1^2 e^{-2 dt/tc1} + a2^2 e^{-2 dt/tc2}
                     + 2 a1 a2 e^{-dt/tc1 - dt/tc2} cos(fss*dt)) / (a1 + a2)

    a1, a2 : weights of the two fine-structure lines
    tc1, tc2 : their coherence times (ns)
    fss : fine-structure splitting (rad/ns), 0 for a single line

    With fss = 0 and equal coherence times this is a plain exponential decay.
    The parameters are scalars or arrays that broadcast against dt and each
    other: parameters of shape (k, 1) and dt of shape (n,) give k rows of
    contrast, shape (k, n), each bitwise the single-set value. All-scalar
    input gives a float. Weights must be finite and >= 0 with a positive
    sum, coherence times finite and > 0, and fss finite and >= 0; any other
    value, or a dt < 0, raises ValueError. Where fss * dt is not finite the
    phase is fully dephased and the cross term is 0.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt >= 0):
        raise ValueError("dt must be >= 0")
    # [()] gives numpy scalars for scalar parameters: cheaper than 0-d arrays
    a1, a2, tc1, tc2, fss = (np.asarray(v, dtype=float)[()] for v in (a1, a2, tc1, tc2, fss))
    norm = a1 + a2
    # every check is written so that NaN fails it
    ok = ((a1 >= 0) & (a2 >= 0) & (norm > 0) & np.isfinite(norm)
          & (tc1 > 0) & (tc2 > 0) & np.isfinite(tc1) & np.isfinite(tc2)
          & (fss >= 0) & np.isfinite(fss))
    if not np.all(ok):
        got = ", ".join(f"{name}={np.broadcast_to(v, ok.shape)[~ok][0]}" for name, v
                        in zip(("a1", "a2", "tc1", "tc2", "fss"), (a1, a2, tc1, tc2, fss)))
        raise ValueError("weights must be finite and >= 0 with a positive sum, coherence times "
                         f"finite and > 0, and fss finite and >= 0; got {got}")
    # the contrast depends on a1 / (a1 + a2) alone: dividing the weights and
    # their sum by the power of two at or just below the sum is exact and
    # keeps the radicand in the float range (math is cheaper than a ufunc on a scalar)
    if isinstance(norm, np.ndarray):
        unit = np.ldexp(0.5, np.frexp(norm)[1])
    else:
        unit = math.ldexp(0.5, math.frexp(norm)[1])
    a1, a2, norm = a1 / unit, a2 / unit, norm / unit
    # as in the sampler, a phase that is not finite (fss * dt overflows) is
    # fully dephased: its cosine, and the cross term, is 0; an exponent past
    # the float range is -inf, so its term is 0, the limit
    with np.errstate(over="ignore", invalid="ignore"):
        cos = np.cos(fss * dt)
        e1, e2 = np.exp(-2.0 * dt / tc1), np.exp(-2.0 * dt / tc2)
        e12 = np.exp(-dt / tc1 - dt / tc2)
    cos = np.where(np.isnan(cos), 0.0, cos)
    # the radicand is |a1 e^{-dt/tc1} + a2 e^{-dt/tc2} e^{i fss dt}|^2 >= 0; at a
    # contrast zero rounding can take it just below 0
    out = np.sqrt(np.maximum(a1 * a1 * e1 + a2 * a2 * e2 + 2.0 * a1 * a2 * e12 * cos, 0.0)) / norm
    return float(out) if out.ndim == 0 else out


def time_jitter_overlap_factor(tau_r: float, delta_tau, jitter_sigma: float):
    """Mean wavepacket-overlap suppression E[exp(-|X|/tau_r)] where
    X ~ Normal(delta_tau, 2*jitter_sigma^2) is the arrival-time offset with
    independent per-photon emission jitter. Stable closed form via erfcx.

    Elementwise over delta_tau: a scalar gives a float, an array a float
    array. A single delta_tau that is not finite raises ValueError, as do a
    tau_r that is not finite and > 0 and a jitter_sigma that is not finite
    and >= 0.
    """
    if not (tau_r > 0 and math.isfinite(tau_r)):
        raise ValueError(f"tau_r must be finite and > 0, got {tau_r}")
    if not (jitter_sigma >= 0 and math.isfinite(jitter_sigma)):
        raise ValueError(f"jitter_sigma must be finite and >= 0, got {jitter_sigma}")
    mu = np.abs(np.asarray(delta_tau, dtype=float))  # the factor is even in the offset
    bad = ~np.isfinite(mu)
    if bad.any():
        raise ValueError(f"delta_tau must be finite, got {mu[bad][0]}")
    if jitter_sigma == 0.0:
        out = np.exp(-mu / tau_r)
        return float(out) if out.ndim == 0 else out
    s = math.sqrt(2.0) * jitter_sigma
    c = s / (math.sqrt(2.0) * tau_r)
    with np.errstate(over="ignore"):
        r = mu / (math.sqrt(2.0) * s)
        zp, zm = c + r, c - r
        pref = np.exp(-r * r)  # exp(-mu^2 / (2 s^2))
        ez = _erfcx_array(np.stack([zp, np.abs(zm)]).astype(complex)).real
        g = pref * ez[1]
        # zm < 0: exp(-r^2 + zm^2) * erfc(zm), with erfc(zm) = 2 - erfc(-zm)
        # and erfc(-zm) = exp(-zm^2) erfcx(-zm); the combined exponent reduces
        # to c^2 - mu/tau_r, which is < 0 whenever zm < 0
        term_m = np.where(zm < 0.0, 2.0 * np.exp(c * c - mu / tau_r) - g, g)
    out = 0.5 * (pref * ez[0] + term_m)
    return float(out) if out.ndim == 0 else out
