"""Damped least-squares curve fitting and the model fits used on histograms
and fringe-contrast curves.

The optimizer is a plain Levenberg-Marquardt with multiplicative damping:
steps are only ever accepted when they reduce the sum of squared residuals,
so the residual norm is non-increasing across accepted iterations. nlls
takes one start or a stack of starts; a stack runs in lockstep, each start
a generator (_damped_loop) that yields the parameter set or Jacobian stack
it needs, and each round evaluates every live start's request in one
stacked model call. Standard errors come from the residual-scaled inverse
normal-equations matrix at the optimum of the returned start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import _michelson_contrast

__all__ = [
    "FitResult",
    "SingularModelError",
    "nlls",
    "fit_hom_dip",
    "fit_exponential_decay",
    "fit_michelson",
]


class SingularModelError(RuntimeError):
    """Normal equations are singular: the model is over-parameterized or a
    parameter direction leaves the residuals unchanged."""


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    parameters / standard_errors are keyed by parameter name; residual_norm
    is the Euclidean norm of the final (weighted) residual vector.
    """

    parameters: dict[str, float]
    standard_errors: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    covariance: np.ndarray | None = None
    correlations: np.ndarray | None = None
    message: str = ""
    ssr_history: list[float] = field(default_factory=list)


def _shifted_sets(p):
    """The 2m parameter sets p +/- h_j e_j of a central-difference Jacobian,
    shape (2m, m), and the steps h_j = 1e-7 max(|p_j|, 1e-3)."""
    m = p.size
    h = 1e-7 * np.maximum(np.abs(p), 1e-3)
    sets = np.full((2 * m, m), p)
    j = np.arange(m)
    sets[j, j] += h
    sets[m + j, j] -= h
    return sets, h


def _central_difference(r, h):
    """Jacobian, shape (n, m), from the residual rows (2m, n) of the shifted
    sets. J is stored C-contiguous: the summation order of J.T @ J follows
    the layout."""
    m = h.size
    return np.ascontiguousarray(((r[:m] - r[m:]) / (2.0 * h)[:, None]).T)


def _numeric_jacobian(residual, p):
    """Central-difference Jacobian from one residual call on the stack of the
    2m shifted parameter sets."""
    sets, h = _shifted_sets(p)
    return _central_difference(residual(sets.T[:, :, None]), h)


_FTOL = _XTOL = 1e-14  # relative SSR drop and step size that end the iteration


def _damped_loop(p, in_box, max_iter):
    """The Levenberg-Marquardt loop of one start, as a generator. It yields
    each request for residuals, a parameter set (m,) or the (2m, m) shifted
    sets of a Jacobian, is sent that request's residual rows, and returns
    (p, r, ssr, ssr_history, converged)."""
    if not in_box(p.tolist()):
        raise ValueError("initial parameters violate bounds")
    r = yield p
    ssr = float(r @ r)
    if not math.isfinite(ssr):
        raise ValueError(f"the residual is not finite at the initial parameters (SSR {ssr})")
    history = [ssr]
    lam = 1e-3

    for _ in range(max_iter):  # one pass per accepted step
        sets, h = _shifted_sets(p)
        J = _central_difference((yield sets), h)
        jtj = J.T @ J
        neg_jtr = -(J.T @ r)
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(initial=1.0), 1.0) * 1e-12
        damping = np.diag(diag)
        for _retry in range(60):
            try:
                delta = np.linalg.solve(jtj + lam * damping, neg_jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + delta
            if np.isfinite(trial).all() and in_box(trial.tolist()):
                r_trial = yield trial
                ssr_trial = float(r_trial @ r_trial)
                if ssr_trial <= ssr:
                    break
            lam *= 10.0
        else:  # no downhill step at any damping: a stationary point
            return p, r, ssr, history, True
        rel_drop = (ssr - ssr_trial) / max(ssr, 1e-300)
        step_rel = float(np.max(np.abs(delta) / np.maximum(np.abs(p), 1e-12)))
        p, r, ssr = trial, r_trial, ssr_trial
        history.append(ssr)
        lam = max(lam * 0.3, 1e-12)
        if rel_drop < _FTOL or step_rel < _XTOL or ssr == 0.0:
            return p, r, ssr, history, True
    return p, r, ssr, history, False


def nlls(model, xdata, ydata, p0, *, names=None, bounds=None, weights=None,
         max_iter=200, on_singular="raise") -> FitResult:
    """Levenberg-Marquardt fit of model(x, params) to (xdata, ydata).

    Parameters
    ----------
    model : callable
        model(xdata, params) -> predicted y, vectorized over xdata. params
        is one parameter set of shape (m,), giving shape (n,), or a stack
        of k sets of shape (m, k, 1), giving shape (k, n): set i is
        params[:, i, 0]. Each Jacobian evaluates its 2m finite-difference
        sets in one stacked call, so the model must broadcast over a (k, 1)
        stack, as one written in numpy ufuncs on params[j] does.
    p0 : sequence of float, or (K, m) array of them
        Initial parameter values; len(ydata) must be >= m. A stack of K
        starts runs K damped loops in lockstep: each round evaluates what
        every live start asks for in one stacked model call (a lone start
        calls the model as a single start does), and the fit returned is
        the first start with the lowest residual norm. Each start's
        arithmetic is that of its own single-start fit. If a start raises,
        the error of the first start that raises is raised.
    names : sequence of str, optional
        Parameter names for the result dicts, one per parameter (default p0, p1, ...).
    bounds : sequence of (lo, hi) or None entries, one per parameter, optional
        Box constraints; trial steps leaving the box are rejected and the
        damping raised, which keeps accepted steps strictly descending.
    weights : array, optional
        Per-point weights multiplying the residuals (1/sigma_y), one per point.
    on_singular : "raise" or "flag"
        Near-singular normal equations at the returned optimum either raise
        SingularModelError or set infinite standard errors on the
        unidentifiable directions and record a message. Another value, or
        names, bounds or weights that do not match the fit, raise ValueError.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    starts = np.array(p0, dtype=float, ndmin=2)
    if starts.ndim != 2 or not len(starts):
        raise ValueError(f"p0 must be one start (m,) or a stack of starts (K, m), "
                         f"got shape {np.shape(p0)}")
    m = starts.shape[1]
    if y.size < m:
        raise ValueError(f"need at least as many points ({y.size}) as parameters ({m})")
    for arg, given in (("names", names), ("bounds", bounds)):
        if given is not None and len(given) != m:
            raise ValueError(f"{arg} must give one entry per parameter ({m}), got {len(given)}")
    names = [f"p{i}" for i in range(m)] if names is None else list(names)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ValueError(f"weights must give one weight per point, shape {y.shape}, got shape {w.shape}")
    if on_singular not in ("raise", "flag"):
        raise ValueError(f"on_singular must be 'raise' or 'flag', got {on_singular!r}")

    def residual(params):
        return (model(x, params) - y) * w

    # (lo, hi) per parameter, +-inf for a missing side; a NaN lies inside
    box = [(-math.inf if lo is None else lo, math.inf if hi is None else hi)
           for lo, hi in (b or (None, None) for b in bounds or ())]

    def in_box(params):
        return not any(v < lo or v > hi for v, (lo, hi) in zip(params, box))

    loops = [_damped_loop(p, in_box, max_iter) for p in starts]
    ends, errors = {}, {}

    def step(i, rows, asks):
        try:
            asks.append((i, loops[i].send(rows)))
        except StopIteration as stop:
            ends[i] = stop.value
        except Exception as exc:
            errors[i] = exc

    asks = []  # (start, request) of the live starts, in start order
    for i in range(len(loops)):
        step(i, None, asks)
    while asks:
        if errors:  # a sequential fit never ran the starts after one that raised
            asks = [(i, q) for i, q in asks if i < min(errors)]
        this_round, asks = asks, []
        stacked = None
        if len(this_round) > 1:
            try:
                stacked = residual(np.vstack([q for _, q in this_round]).T[:, :, None])
            except Exception:  # ask each start alone, so an error stays with its start
                pass
        at = 0
        for i, q in this_round:
            try:
                if stacked is None:
                    rows = residual(q if q.ndim == 1 else q.T[:, :, None])
                elif q.ndim == 1:
                    rows, at = stacked[at], at + 1
                else:
                    rows, at = stacked[at:at + len(q)], at + len(q)
            except Exception as exc:
                errors[i] = exc
                continue
            step(i, rows, asks)
    if errors:
        raise errors[min(errors)]
    # min keeps the first of equal norms: the first start with the strictly lowest norm
    best = min(range(len(loops)), key=lambda i: math.sqrt(ends[i][2]))
    p, r, ssr, history, converged = ends[best]
    message = ""

    # Covariance at the optimum: s^2 * inv(J^T J), s^2 = SSR / (n - m).
    J = _numeric_jacobian(residual, p)
    jtj = J.T @ J
    s2 = ssr / max(y.size - m, 1)
    cond = np.linalg.cond(jtj)
    singular = not np.isfinite(cond) or cond > 1e14
    if singular and on_singular == "raise":
        raise SingularModelError(
            f"normal equations are singular at the optimum (condition number {cond:.2e}); "
            "the model is over-parameterized for this data")
    cov = s2 * (np.linalg.pinv(jtj) if singular else np.linalg.inv(jtj))
    se = d = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if singular:
        # a parameter with weight on a null direction gets an infinite error
        evals, evecs = np.linalg.eigh(jtj)
        null = evals <= evals.max() * 1e-14
        se = np.where((np.abs(evecs[:, null]) > 1e-3).any(axis=1), np.inf, d)
        message = "near-singular normal equations; some parameters are unidentifiable"
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.outer(d, d)
    return FitResult(parameters=dict(zip(names, map(float, p))),
                     standard_errors=dict(zip(names, map(float, se))),
                     residual_norm=math.sqrt(ssr), converged=converged,
                     iterations=len(history) - 1, covariance=cov, correlations=corr,
                     message=message, ssr_history=history)


def _as_xy(points, what):
    """(x / unit, y, unit) from finite (x, y) pairs, unit the power of two at or
    just below max |x|. Each fit runs in its data's unit: the division is exact, so
    times scaled by 2^k fit exactly 2^k-scaled, and every constant is relative."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError(f"{what} expects a sequence of (x, y) pairs")
    x, y = pts[:, 0], pts[:, 1]
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if bad.size:
        raise ValueError(f"{what} needs finite points; not finite: "
                         + ", ".join(f"points[{i}] = ({x[i]}, {y[i]})" for i in bad[:5]))
    unit = math.ldexp(1.0, math.frexp(np.max(np.abs(x), initial=0.0))[1] - 1)
    return x / unit, y, unit


def _rescaled(res, name, unit):
    """Multiply parameter `name` of res, its error and its covariance row and column
    by the power of two `unit`, in place: exact, or inf past the float range."""
    i = list(res.parameters).index(name)
    res.parameters[name] *= unit
    res.standard_errors[name] *= unit
    with np.errstate(over="ignore"):
        res.covariance[i] *= unit
        res.covariance[:, i] *= unit
    return res


def fit_hom_dip(points, weights=None) -> FitResult:
    """Fit the interference dip g2(dt) = 0.5 * (1 - v * exp(-|dt|/tau_m)) to
    measured (delay, g2) pairs; needs at least 5 points covering both signs
    of the delay. Returns v and tau_m (names "v", "tau_m")."""
    dt, y, unit = _as_xy(points, "fit_hom_dip")
    if dt.size < 5:
        raise ValueError(f"need at least 5 points, got {dt.size}")
    if not (np.any(dt > 0) and np.any(dt < 0)):
        raise ValueError("points must span both signs of the delay")

    def dip(x, p):
        v, tau_m = p
        return 0.5 * (1.0 - v * np.exp(-np.abs(x) / np.abs(tau_m)))

    v0 = float(np.clip(1.0 - 2.0 * np.min(y), 1e-3, 1.0))
    # crude width: delay range over which the dip recovers to half depth
    depth = 0.5 - np.min(y)
    if depth > 1e-12:
        inside = np.abs(dt[y < 0.5 - 0.5 * depth])
        tau0 = float(np.max(inside) / math.log(2.0)) if inside.size else float(np.median(np.abs(dt)))
    else:
        tau0 = float(np.median(np.abs(dt)))
    tau0 = max(tau0, 1e-6)
    return _rescaled(nlls(dip, dt, y, [v0, tau0], names=["v", "tau_m"], weights=weights,
                          bounds=[(0.0, 1.5), (1e-9, None)], on_singular="flag"), "tau_m", unit)


def fit_exponential_decay(points, weights=None) -> FitResult:
    """Fit amplitude * exp(-t/tau_r) to time-resolved intensities (all
    intensities must be positive). Returns amplitude and tau_r."""
    t, y, unit = _as_xy(points, "fit_exponential_decay")
    if t.size < 3:
        raise ValueError(f"need at least 3 points, got {t.size}")
    if np.any(y <= 0):
        raise ValueError("intensities must be positive for a lifetime fit")
    if not t.max() > t.min():
        raise ValueError("the times must not all be equal")

    def decay(x, p):
        a, tau = p
        return a * np.exp(-x / np.abs(tau))

    slope, intercept = np.polyfit(t, np.log(y), 1)  # log-linear starting point
    tau0 = -1.0 / slope if slope < 0 else (t.max() - t.min() + 1e-9)
    return _rescaled(nlls(decay, t, y, [math.exp(intercept), max(tau0, 1e-9)],
                          names=["amplitude", "tau_r"], weights=weights,
                          bounds=[(0.0, None), (1e-12, None)]), "tau_r", unit)


# nlls box of the Michelson fit: (mix, log tau_c1, log tau_c2, fss), times in the fit's unit
_MICHELSON_BOUNDS = [(-25.0, 25.0), (-12.0, 12.0), (-12.0, 12.0), None]


def _michelson_starts(dt, y):
    """Deterministic starting points for the beating-contrast fit.

    The beat minima make single heuristics unreliable (the 1/e crossing can
    hit a beat null instead of the envelope), so the decay scale comes from
    the upper envelope (local maxima of the lightly smoothed contrast) and
    the beat frequency from both the first minimum position and the median
    minimum spacing; the fit is started from each combination and the lowest
    residual wins. The delays are in the fit's unit (the longest in [1, 2)),
    and every start is clamped into the fit's bounds."""
    span = float(dt.max())
    k = max(3, min(9, dt.size // 12) | 1)
    ys = np.convolve(y, np.ones(k) / k, mode="same") if dt.size >= 3 * k else y.copy()
    inner = slice(1, dt.size - 1)
    is_min = (ys[inner] <= ys[:-2]) & (ys[inner] <= ys[2:])
    is_max = (ys[inner] >= ys[:-2]) & (ys[inner] >= ys[2:])
    t_inner = dt[inner]

    # envelope decay time from the local maxima (always includes dt ~ 0)
    tm = np.concatenate([[dt[0]], t_inner[is_max]])
    ym = np.concatenate([[max(y[0], 1e-3)], np.maximum(ys[inner][is_max], 1e-3)])
    if tm.size >= 2 and tm[-1] > tm[0]:
        slope = np.polyfit(tm, np.log(ym), 1)[0]
        tau_env = -1.0 / slope if slope < -1e-9 else span
    else:
        below = dt[y < math.exp(-1)]
        tau_env = float(below.min()) if below.size else span
    tau_env = min(max(tau_env, 1e-4 * span), 10 * span)

    fss_cands = []
    t_mins = t_inner[is_min]
    if t_mins.size >= 1 and t_mins[0] > 0:
        fss_cands.append(math.pi / float(t_mins[0]))
    if t_mins.size >= 2:
        spacing = float(np.median(np.diff(t_mins)))
        if spacing > 0:
            fss_cands.append(2.0 * math.pi / spacing)
    if not fss_cands:
        fss_cands.append(math.pi / span)

    starts = []
    for f0 in dict.fromkeys(round(f, 6) for f in fss_cands):
        for s1, s2 in ((1.6, 0.6), (1.0, 0.4)):
            p0 = [0.0, math.log(s1 * tau_env), math.log(s2 * tau_env), f0]
            starts.append([v if b is None else min(max(v, b[0]), b[1])
                           for v, b in zip(p0, _MICHELSON_BOUNDS)])
    return starts


def fit_michelson(points, weights=None) -> FitResult:
    """Fit the two-component fringe-contrast model (beating between two
    fine-structure split lines) to (delay, contrast) data.

    Internally parameterized with log coherence times and a logistic weight
    so positivity needs no explicit constraints; reported parameters are
    a1, a2 (sum fixed to 1 by the contrast normalization), tau_c1 >= tau_c2,
    and fss, with delta-method standard errors. A near-unity correlation
    between the two coherence times (degenerate, fss ~ 0 data) is flagged
    in the message. covariance and correlations are over the fitted
    (mix, log tau_c1, log tau_c2, fss), in the order the fit found them.
    """
    dt, y, unit = _as_xy(points, "fit_michelson")
    if dt.size < 8:
        raise ValueError(f"need at least 8 points, got {dt.size}")
    if np.any(dt < 0) or not np.any(dt > 0):
        raise ValueError("Michelson delays must be >= 0 and not all 0")
    if np.any((y < 0) | (y > 1.0 + 1e-9)):
        raise ValueError("contrasts must lie in [0, 1]")

    def contrast(x, p):
        # valid by construction: a logistic weight, exponential times and |fss|
        mix, ltc1, ltc2, fss = p
        a1 = 1.0 / (1.0 + np.exp(-mix))
        return _michelson_contrast(x, a1, 1.0 - a1, np.exp(ltc1), np.exp(ltc2), np.abs(fss))

    res = nlls(contrast, dt, y, _michelson_starts(dt, y),
               names=["mix", "log_tau_c1", "log_tau_c2", "fss"], weights=weights,
               on_singular="flag", bounds=_MICHELSON_BOUNDS)
    _rescaled(res, "fss", 1.0 / unit)
    p, e = res.parameters, res.standard_errors

    a1 = 1.0 / (1.0 + math.exp(-p["mix"]))
    sa = a1 * (1.0 - a1) * e["mix"]
    a = [a1, 1.0 - a1]
    tc = [math.exp(p[k]) * unit for k in ("log_tau_c1", "log_tau_c2")]
    se = [t * e[k] for t, k in zip(tc, ("log_tau_c1", "log_tau_c2"))]
    if tc[0] < tc[1]:  # report tau_c1 >= tau_c2
        a, tc, se = a[::-1], tc[::-1], se[::-1]
    params = {"a1": a[0], "a2": a[1], "tau_c1": tc[0], "tau_c2": tc[1], "fss": abs(p["fss"])}
    errors = {"a1": sa, "a2": sa, "tau_c1": se[0], "tau_c2": se[1], "fss": e["fss"]}

    notes = [res.message] if res.message else []
    c = abs(float(res.correlations[1, 2]))
    if np.isfinite(c) and c > 0.99:
        notes.append(f"coherence times degenerate (correlation {c:.3f} > 0.99): "
                     "the data do not resolve two components")
    # a log coherence time on its box edge, log(tau_c / unit) = b, is where
    # the fit stopped, not a fit; damped steps stop ~1e-14 short of an edge
    edges = [b for b in _MICHELSON_BOUNDS[1]
             if any(abs(p[k] - b) < 1e-9 for k in ("log_tau_c1", "log_tau_c2"))]
    for b in edges:
        notes.append(f"a coherence time sits on the fit bound log tau_c = {b:g} + log {unit:g} "
                     f"(tau_c = {math.exp(b) * unit:.6g})")
    return FitResult(parameters=params, standard_errors=errors,
                     residual_norm=res.residual_norm, converged=res.converged and not edges,
                     iterations=res.iterations, covariance=res.covariance,
                     correlations=res.correlations, message="; ".join(notes),
                     ssr_history=res.ssr_history)
