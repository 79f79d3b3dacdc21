"""Special functions used by the interference model.

Everything here is generic numerics with no photon physics: the scaled
complementary error function erfcx(z) = exp(z^2)*erfc(z) for complex z
with Re z >= 0, real axis included. One unchecked array kernel,
_erfcx_array, evaluates it, and _scaled_erfcx builds on it; both stay
finite where the plain product overflows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = []

_SQRT_PI = math.sqrt(math.pi)

_ERFCX_CF_LEVELS = 40
# Off the real axis the continued fraction converges slowest on the imaginary
# axis; at |z| >= 8 its 40 levels are accurate to about 2e-16 for every
# arg z in [-pi/2, pi/2].
_ERFCX_COMPLEX_CF_RADIUS = 8.0


def _weideman_coefficients(n):
    """Coefficients a_n..a_1 (highest degree first) of Weideman's rational
    expansion of the Faddeeva function w(z) = erfcx(-iz), SIAM J. Numer.
    Anal. 31:1497 (1994): the FFT of exp(-t^2)*(L^2 + t^2) sampled at
    t = L*tan(theta/2) on 4n equispaced angles, with L = sqrt(n/sqrt(2))."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return scale, tuple(float(c) for c in a[n:0:-1])


_WEIDEMAN_L, _WEIDEMAN_COEFFS = _weideman_coefficients(40)


def _laplace_cf(w, h=1.0):
    """Bottom-up value of w + (h/2)/(w + h/(w + (3h/2)/(w + ...))) over
    40 levels, for complex w with Re w >= 0; elementwise over arrays of
    w and h.

    With h = 1 this is the denominator of erfcx(z) = 1/(sqrt(pi) * cf(z));
    for z = x*w it scales as cf(z) = x * cf(w, 1/x^2) (see _scaled_erfcx).
    No level cancels: every real part stays non-negative, so Re of the
    result is accurate relative to itself.
    """
    t = w
    for n in range(_ERFCX_CF_LEVELS, 0, -1):
        t = w + (0.5 * n * h) / t
    return t


def _erfcx_array(z):
    """Scaled complementary error function exp(z^2) * erfc(z), elementwise
    over a complex array the caller knows to be finite with Re z >= 0 (real
    +inf gives 0, its limit); nothing is checked. On the real axis it never
    overflows and decays like 1/(x*sqrt(pi)) as x grows.

    Below |z| = 8 this is Weideman's N = 40 rational expansion of
    w(iz) = erfcx(z) in Z = (L - z)/(L + z),

        erfcx(z) = 2 p(Z)/(L + z)^2 + 1/(sqrt(pi) (L + z)),

    whose coefficients are computed once at import; from there out it is
    the Laplace continued fraction. Both agree with mpmath to about 1e-15
    relative over the right half-plane.
    """
    out = np.empty_like(z)
    far = np.abs(z) >= _ERFCX_COMPLEX_CF_RADIUS
    if far.any():  # each branch loops 40 times, so an empty one is skipped
        out[far] = (1.0 / _SQRT_PI) / _laplace_cf(z[far])
    near = ~far
    if near.any():
        zn = z[near]
        d = 1.0 / (_WEIDEMAN_L + zn)
        big_z = (_WEIDEMAN_L - zn) * d
        p = 0.0
        for c in _WEIDEMAN_COEFFS:
            p = p * big_z + c
        out[near] = (2.0 * p * d + 1.0 / _SQRT_PI) * d
    return out


def _scaled_erfcx(w, s):
    """sqrt(pi) * x * erfcx(x * w) with x = 1/s, elementwise over complex
    w with Re w >= 0 and real s >= 0 (arrays of one shape), as a complex
    array of that shape.

    Where |x * w| >= 8 with s < 1, the only case in which x * w can
    overflow (s may be 0), the continued fraction runs on w with the scale
    carried in its coefficients: sqrt(pi) * x * erfcx(x * w) = 1/cf(w, s^2),
    which is 1/w at s = 0.
    """
    out = np.empty_like(w)
    # |w| / 8 is exact where 8 * s could overflow
    scaled = (s < 1.0) & (np.abs(w) / _ERFCX_COMPLEX_CF_RADIUS >= s)
    if scaled.any():
        ss = s[scaled]
        out[scaled] = 1.0 / _laplace_cf(w[scaled], ss * ss)
    direct = ~scaled
    sd = s[direct]
    out[direct] = _SQRT_PI / sd * _erfcx_array(w[direct] / sd)
    return out
