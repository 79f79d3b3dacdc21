"""Special functions and adaptive quadrature used by the interference model.

Everything here is generic numerics with no photon physics: the scaled
complementary error function exp(z^2)*erfc(z), for real x >= 0 and for
complex z with Re z >= 0 (it stays finite where the plain product
overflows), and a global-adaptive Gauss-Kronrod integrator whose integrands
are evaluated on node arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "erfcx",
    "erfcx_complex",
    "integrate_1d",
]

_SQRT_PI = math.sqrt(math.pi)

# Crossover between direct evaluation exp(x^2)*erfc(x) (safe: exp(16) ~ 9e6)
# and the Laplace continued fraction, which converges rapidly for x >= 4.
_ERFCX_CF_CROSSOVER = 4.0
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


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x) for x >= 0.

    For x below 4 the product is formed directly (exp(x^2) cannot overflow
    there); above that the Laplace continued fraction

        erfcx(x) = 1 / (sqrt(pi) * (x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))))

    is evaluated bottom-up, which never overflows and decays like
    1/(x*sqrt(pi)) as x grows.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfcx requires finite input, got {x}")
    if x < 0.0:
        raise ValueError(f"erfcx is defined for x >= 0 only, got {x}")
    if x < _ERFCX_CF_CROSSOVER:
        return math.exp(x * x) * math.erfc(x)
    return 1.0 / (_SQRT_PI * _laplace_cf(x))


def _laplace_cf(w, h=1.0):
    """Bottom-up value of w + (h/2)/(w + h/(w + (3h/2)/(w + ...))) over
    40 levels, for real w > 0 or complex w with Re w >= 0.

    With h = 1 this is the denominator of erfcx(z) = 1/(sqrt(pi) * cf(z));
    for z = x*w it scales as cf(z) = x * cf(w, 1/x^2) (see _scaled_erfcx).
    No level cancels: every real part stays non-negative, so Re of the
    result is accurate relative to itself.
    """
    t = w
    for n in range(_ERFCX_CF_LEVELS, 0, -1):
        t = w + (0.5 * n * h) / t
    return t


def erfcx_complex(z: complex) -> complex:
    """Scaled complementary error function exp(z^2) * erfc(z) for finite
    complex z with Re z >= 0.

    Below |z| = 8 this is Weideman's N = 40 rational expansion of
    w(iz) = erfcx(z) in Z = (L - z)/(L + z),

        erfcx(z) = 2 p(Z)/(L + z)^2 + 1/(sqrt(pi) (L + z)),

    whose coefficients are computed once at import; from there out it is
    the Laplace continued fraction shared with erfcx. Both agree with
    mpmath to about 1e-15 relative; on the real axis they agree with erfcx.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"erfcx_complex requires finite input, got {z}")
    if z.real < 0.0:
        raise ValueError(f"erfcx_complex is defined for Re z >= 0 only, got {z}")
    if abs(z) >= _ERFCX_COMPLEX_CF_RADIUS:
        return 1.0 / (_SQRT_PI * _laplace_cf(z))
    d = 1.0 / (_WEIDEMAN_L + z)
    big_z = (_WEIDEMAN_L - z) * d
    p = 0.0
    for c in _WEIDEMAN_COEFFS:
        p = p * big_z + c
    return (2.0 * p * d + 1.0 / _SQRT_PI) * d


def _scaled_erfcx(w: complex, s: float) -> complex:
    """sqrt(pi) * x * erfcx(x * w) with x = 1/s, for s >= 0 and Re w >= 0.

    Where |x * w| >= 8 with s < 1, the only case in which x * w can
    overflow (s may be 0), the continued fraction runs on w with the scale
    carried in its coefficients: sqrt(pi) * x * erfcx(x * w) = 1/cf(w, s^2).
    """
    if s < 1.0 and abs(w) >= _ERFCX_COMPLEX_CF_RADIUS * s:
        return 1.0 / _laplace_cf(w, s * s)
    return _SQRT_PI / s * erfcx_complex(w / s)


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
