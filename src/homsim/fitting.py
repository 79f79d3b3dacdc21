"""Damped least-squares curve fitting and the model fits used on histograms
and fringe-contrast curves.

The optimizer is a plain Levenberg-Marquardt with multiplicative damping:
steps are only ever accepted when they reduce the sum of squared residuals,
so the residual norm is non-increasing across accepted iterations. Standard
errors come from the residual-scaled inverse normal-equations matrix at the
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import michelson_contrast

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


def _numeric_jacobian(residual, p):
    """Central-difference Jacobian, shape (n, m), from one residual call on
    the stack of the 2m shifted parameter sets p +/- h_j e_j, with
    h_j = 1e-7 max(|p_j|, 1e-3). J is stored C-contiguous: the summation
    order of J.T @ J follows the layout."""
    m = p.size
    h = 1e-7 * np.maximum(np.abs(p), 1e-3)
    sets = np.full((2 * m, m), p)
    j = np.arange(m)
    sets[j, j] += h
    sets[m + j, j] -= h
    r = residual(sets.T[:, :, None])  # (2m, n)
    return np.ascontiguousarray(((r[:m] - r[m:]) / (2.0 * h)[:, None]).T)


_FTOL = _XTOL = 1e-14  # relative SSR drop and step size that end the iteration


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
    p0 : sequence of float
        Initial parameter values; len(ydata) must be >= len(p0).
    names : sequence of str, optional
        Parameter names for the result dicts (default p0, p1, ...).
    bounds : sequence of (lo, hi) or None entries, optional
        Box constraints; trial steps leaving the box are rejected and the
        damping raised, which keeps accepted steps strictly descending.
    weights : array, optional
        Per-point weights multiplying the residuals (1/sigma_y).
    on_singular : "raise" or "flag"
        Near-singular normal equations at the optimum either raise
        SingularModelError or set infinite standard errors on the
        unidentifiable directions and record a message.
    """
    x = np.asarray(xdata, dtype=float)
    y = np.asarray(ydata, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    m = p.size
    if y.size < m:
        raise ValueError(f"need at least as many points ({y.size}) as parameters ({m})")
    if names is None:
        names = [f"p{i}" for i in range(m)]
    names = list(names)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)

    def residual(params):
        return (model(x, params) - y) * w

    def in_bounds(params):
        if bounds is None:
            return True
        for v, bb in zip(params, bounds):
            if bb is None:
                continue
            lo, hi = bb
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return True

    if not in_bounds(p):
        raise ValueError("initial parameters violate bounds")

    r = residual(p)
    ssr = float(r @ r)
    history = [ssr]
    lam = 1e-3
    converged = False
    accepted = 0
    message = ""

    for _ in range(max_iter * 4):  # damping retries share the budget
        J = _numeric_jacobian(residual, p)
        jtj = J.T @ J
        jtr = J.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(initial=1.0), 1.0) * 1e-12
        stepped = False
        for _retry in range(60):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + delta
            if not (np.all(np.isfinite(trial)) and in_bounds(trial)):
                lam *= 10.0
                continue
            r_trial = residual(trial)
            ssr_trial = float(r_trial @ r_trial)
            if ssr_trial <= ssr:
                rel_drop = (ssr - ssr_trial) / max(ssr, 1e-300)
                step_rel = float(np.max(np.abs(delta) / np.maximum(np.abs(p), 1e-12)))
                p, r, ssr = trial, r_trial, ssr_trial
                history.append(ssr)
                accepted += 1
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                if rel_drop < _FTOL or step_rel < _XTOL or ssr == 0.0:
                    converged = True
                break
            lam *= 10.0
        if converged or not stepped or accepted >= max_iter:
            if not stepped and not converged:
                # No downhill step found at any damping: stationary point.
                converged = True
            break

    # Covariance at the optimum: s^2 * inv(J^T J), s^2 = SSR / (n - m).
    J = _numeric_jacobian(residual, p)
    jtj = J.T @ J
    dof = max(y.size - m, 1)
    s2 = ssr / dof
    cond = np.linalg.cond(jtj)
    singular = not np.isfinite(cond) or cond > 1e14
    if singular and on_singular == "raise":
        raise SingularModelError(
            f"normal equations are singular at the optimum (condition number {cond:.2e}); "
            "the model is over-parameterized for this data")
    if singular:
        cov = s2 * np.linalg.pinv(jtj)
        # Null directions get infinite standard errors.
        evals, evecs = np.linalg.eigh(jtj)
        bad = evals <= evals.max() * 1e-14
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
        for j in range(m):
            if np.any(bad & (np.abs(evecs[j, :]) > 1e-3)):
                se[j] = np.inf
        message = "near-singular normal equations; some parameters are unidentifiable"
    else:
        cov = s2 * np.linalg.inv(jtj)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.sqrt(np.maximum(np.diag(cov), 0.0))
        corr = cov / np.outer(d, d)
    return FitResult(
        parameters=dict(zip(names, map(float, p))),
        standard_errors=dict(zip(names, map(float, se))),
        residual_norm=math.sqrt(ssr),
        converged=converged,
        iterations=accepted,
        covariance=cov,
        correlations=corr,
        message=message,
        ssr_history=history,
    )


def _as_xy(points, what):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError(f"{what} expects a sequence of (x, y) pairs")
    return pts[:, 0], pts[:, 1]


def fit_hom_dip(points, weights=None) -> FitResult:
    """Fit the interference dip g2(dt) = 0.5 * (1 - v * exp(-|dt|/tau_m)) to
    measured (delay, g2) pairs; needs at least 5 points covering both signs
    of the delay. Returns v and tau_m (names "v", "tau_m")."""
    dt, y = _as_xy(points, "fit_hom_dip")
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
    return nlls(dip, dt, y, [v0, tau0], names=["v", "tau_m"], weights=weights,
                bounds=[(0.0, 1.5), (1e-9, None)], on_singular="flag")


def fit_exponential_decay(points, weights=None) -> FitResult:
    """Fit amplitude * exp(-t/tau_r) to time-resolved intensities (all
    intensities must be positive). Returns amplitude and tau_r."""
    t, y = _as_xy(points, "fit_exponential_decay")
    if t.size < 3:
        raise ValueError(f"need at least 3 points, got {t.size}")
    if np.any(y <= 0):
        raise ValueError("intensities must be positive for a lifetime fit")

    def decay(x, p):
        a, tau = p
        return a * np.exp(-x / np.abs(tau))

    # log-linear regression for the starting point
    slope, intercept = np.polyfit(t, np.log(y), 1)
    tau0 = -1.0 / slope if slope < 0 else (t.max() - t.min() + 1e-9)
    a0 = math.exp(intercept)
    return nlls(decay, t, y, [a0, max(tau0, 1e-9)], names=["amplitude", "tau_r"],
                weights=weights, bounds=[(0.0, None), (1e-12, None)])


# nlls box of the Michelson fit: (mix, log tau_c1, log tau_c2, fss)
_MICHELSON_BOUNDS = [(-25.0, 25.0), (-12.0, 12.0), (-12.0, 12.0), None]


def _michelson_starts(dt, y):
    """Deterministic starting points for the beating-contrast fit.

    The beat minima make single heuristics unreliable (the 1/e crossing can
    hit a beat null instead of the envelope), so the decay scale comes from
    the upper envelope (local maxima of the lightly smoothed contrast) and
    the beat frequency from both the first minimum position and the median
    minimum spacing; the fit is started from each combination and the lowest
    residual wins. The envelope is regressed in units near the longest
    delay, so any delay scale is well conditioned, and every start is
    clamped into the fit's bounds."""
    span = float(dt.max())
    k = max(3, min(9, dt.size // 12) | 1)
    ys = np.convolve(y, np.ones(k) / k, mode="same") if dt.size >= 3 * k else y.copy()
    inner = slice(1, dt.size - 1)
    is_min = (ys[inner] <= ys[:-2]) & (ys[inner] <= ys[2:])
    is_max = (ys[inner] >= ys[:-2]) & (ys[inner] >= ys[2:])
    t_inner = dt[inner]

    # envelope decay time from the local maxima (always includes dt ~ 0),
    # regressed in units of the power of two just above the longest delay:
    # well conditioned at any delay scale, and an exact rescaling
    unit = 2.0 ** math.frexp(span)[1]
    um = np.concatenate([[dt[0]], t_inner[is_max]]) / unit
    ym = np.concatenate([[max(y[0], 1e-3)], np.maximum(ys[inner][is_max], 1e-3)])
    if um.size >= 2 and um[-1] > um[0]:
        slope = np.polyfit(um, np.log(ym), 1)[0]  # per unit
        tau_env = -unit / slope if slope < -1e-9 * unit else span
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
    in the message.
    """
    dt, y = _as_xy(points, "fit_michelson")
    if dt.size < 8:
        raise ValueError(f"need at least 8 points, got {dt.size}")
    if np.any(dt < 0) or not np.any(dt > 0):
        raise ValueError("Michelson delays must be >= 0 and not all 0")
    if np.any((y < 0) | (y > 1.0 + 1e-9)):
        raise ValueError("contrasts must lie in [0, 1]")

    def contrast(x, p):
        mix, ltc1, ltc2, fss = p
        a1 = 1.0 / (1.0 + np.exp(-mix))
        return michelson_contrast(x, a1, 1.0 - a1, np.exp(ltc1), np.exp(ltc2), np.abs(fss))

    starts = _michelson_starts(dt, y)
    res = None
    for p0 in starts:
        cand = nlls(contrast, dt, y, p0, names=["mix", "log_tau_c1", "log_tau_c2", "fss"],
                    weights=weights, on_singular="flag",
                    bounds=_MICHELSON_BOUNDS)
        if res is None or cand.residual_norm < res.residual_norm:
            res = cand

    mix = res.parameters["mix"]
    a1 = 1.0 / (1.0 + math.exp(-mix))
    tc1 = math.exp(res.parameters["log_tau_c1"])
    tc2 = math.exp(res.parameters["log_tau_c2"])
    se_mix = res.standard_errors["mix"]
    se1 = tc1 * res.standard_errors["log_tau_c1"]
    se2 = tc2 * res.standard_errors["log_tau_c2"]
    sa = a1 * (1.0 - a1) * se_mix
    params = {"a1": a1, "a2": 1.0 - a1, "tau_c1": tc1, "tau_c2": tc2,
              "fss": abs(res.parameters["fss"])}
    errors = {"a1": sa, "a2": sa, "tau_c1": se1, "tau_c2": se2,
              "fss": res.standard_errors["fss"]}
    if params["tau_c1"] < params["tau_c2"]:
        params["tau_c1"], params["tau_c2"] = params["tau_c2"], params["tau_c1"]
        errors["tau_c1"], errors["tau_c2"] = errors["tau_c2"], errors["tau_c1"]
        params["a1"], params["a2"] = params["a2"], params["a1"]

    notes = [res.message] if res.message else []
    c = abs(float(res.correlations[1, 2]))
    if np.isfinite(c) and c > 0.99:
        notes.append(f"coherence times degenerate (correlation {c:.3f} > 0.99): "
                     "the data do not resolve two components")
    # a log coherence time on its box edge is where the fit stopped, not a
    # fit; damped steps creep up to an edge and stop ~1e-14 short of it
    edges = [b for b in _MICHELSON_BOUNDS[1]
             if any(abs(res.parameters[k] - b) < 1e-9 for k in ("log_tau_c1", "log_tau_c2"))]
    for b in edges:
        notes.append(f"a coherence time sits on the fit bound log tau_c = {b:g} "
                     f"(tau_c = {math.exp(b):.6g} ns)")
    return FitResult(parameters=params, standard_errors=errors,
                     residual_norm=res.residual_norm, converged=res.converged and not edges,
                     iterations=res.iterations, covariance=res.covariance,
                     correlations=res.correlations, message="; ".join(notes),
                     ssr_history=res.ssr_history)
