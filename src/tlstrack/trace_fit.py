"""Extraction of (gamma_10, gamma_21) from one population trace.

All three level populations are fitted simultaneously against the
closed-form cascade solution.  P2 decays as a pure exponential in gamma_21,
which pins the parameter labeling; the sequential log-linear regressions are
used only to seed the simultaneous fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DecayRates, PopulationTrace, closed_form_populations
from .errors import InvalidParameterError
from .optimize import (
    FitOptions,
    LeastSquaresProblem,
    finite_difference_jacobian,
    levenberg_marquardt,
)

RATE_LOWER = 1e-6
RATE_UPPER = 10.0

#: Floor on the per-point binomial standard deviation used for weighting.
SIGMA_FLOOR = 1e-3


def default_delay_grid(t1e: float, t1f: float, n: int = 30) -> np.ndarray:
    """Log-spaced delay grid from t1f/20 to 4*t1e (synthetic-run convention)."""
    lo = min(t1e, t1f) / 20.0
    hi = 4.0 * max(t1e, t1f)
    return np.geomspace(lo, hi, n)


def _log_linear_rate(t: np.ndarray, p: np.ndarray) -> Optional[float]:
    # unweighted regression of ln(p) on t; the decay rate is -slope
    if t.size < 3:
        return None
    slope = np.polyfit(t, np.log(p), 1)[0]
    if not np.isfinite(slope) or slope >= 0.0:
        return None
    return -float(slope)


def initial_guess(trace: PopulationTrace) -> DecayRates:
    """Seed rates from log-linear regressions on p2 and the tail of p1.

    gamma_21 comes from points with p2 > 0.05; gamma_10 from points after
    p1's empirical maximum with p1 > 0.02.  When the tail estimate lands
    within a factor of two of gamma_21 the rates are nearly degenerate and
    p1 ~ t*exp(-gamma*t); the regression is then redone on ln(p1) - ln(t)
    to remove the prefactor bias.  Either regression falls back to
    1/(last delay) when fewer than 3 usable points remain, so the guess is
    always finite.
    """
    t = trace.delays
    fallback = 1.0 / t[-1] if t[-1] > 0.0 else 1.0

    p2 = trace.populations[:, 2]
    mask2 = p2 > 0.05
    g21 = _log_linear_rate(t[mask2], p2[mask2])

    p1 = trace.populations[:, 1]
    imax = int(np.argmax(p1))
    tail = np.zeros_like(mask2)
    tail[imax:] = p1[imax:] > 0.02
    g10 = _log_linear_rate(t[tail], p1[tail])
    if g10 is not None and g21 is not None and 0.5 <= g10 / g21 <= 2.0:
        if np.all(t[tail] > 0.0):
            slope = np.polyfit(t[tail], np.log(p1[tail]) - np.log(t[tail]), 1)[0]
            if np.isfinite(slope) and slope < 0.0:
                g10 = -float(slope)

    g21 = fallback if g21 is None else g21
    g10 = fallback if g10 is None else g10
    clip = lambda g: float(min(max(g, RATE_LOWER), RATE_UPPER))
    return DecayRates(clip(g10), clip(g21))


@dataclass
class TraceFit:
    """Rates extracted from one trace, with standard errors."""

    rates: DecayRates
    stderr_gamma10: float
    stderr_gamma21: float
    residual_norm: float
    converged: bool
    iterations: int = 0

    @property
    def t1e(self) -> float:
        return self.rates.t1e

    @property
    def t1f(self) -> float:
        return self.rates.t1f

    @property
    def stderr_t1e(self) -> float:
        # delta method: d(1/g)/dg = -1/g^2
        return self.stderr_gamma10 / self.rates.gamma_10**2

    @property
    def stderr_t1f(self) -> float:
        return self.stderr_gamma21 / self.rates.gamma_21**2

    def to_json_dict(self) -> dict:
        return {
            "t1e_us": self.t1e,
            "t1f_us": self.t1f,
            "gamma10": self.rates.gamma_10,
            "gamma21": self.rates.gamma_21,
            "stderr_t1e": self.stderr_t1e,
            "stderr_t1f": self.stderr_t1f,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def fit_trace(
    trace: PopulationTrace,
    weighting: str = "uniform",
    options: FitOptions = FitOptions(),
) -> TraceFit:
    """Simultaneous fit of p0, p1, p2 to the closed-form cascade model.

    ``weighting`` is "uniform" or "binomial"; the latter weights each point
    by 1/max(sigma, 1e-3) with sigma^2 = p(1-p)/shots and requires the trace
    to carry shot counts.  An unconverged fit is returned flagged rather
    than raised.
    """
    if len(trace) < 5:
        raise InvalidParameterError(f"need at least 5 delay points, got {len(trace)}")
    if weighting not in ("uniform", "binomial"):
        raise InvalidParameterError(f"unknown weighting mode {weighting!r}")

    data = trace.populations
    if weighting == "binomial":
        if trace.shots is None:
            raise InvalidParameterError("binomial weighting requires per-point shot counts")
        p = np.clip(data, 0.0, 1.0)
        sigma = np.sqrt(p * (1.0 - p) / trace.shots[:, None])
        weights = 1.0 / np.maximum(sigma, SIGMA_FLOOR)
    else:
        weights = np.ones_like(data)

    delays = trace.delays

    def residual(params: np.ndarray) -> np.ndarray:
        model = closed_form_populations(DecayRates(params[0], params[1]), delays).T
        return ((model - data) * weights).ravel()

    guess = initial_guess(trace)
    problem = LeastSquaresProblem(
        residual,
        np.array([guess.gamma_10, guess.gamma_21]),
        lower=np.array([RATE_LOWER, RATE_LOWER]),
        upper=np.array([RATE_UPPER, RATE_UPPER]),
    )
    result = levenberg_marquardt(problem, options)
    err = _cluster_robust_errors(residual, result.parameters, len(trace))
    return TraceFit(
        rates=DecayRates(float(result.parameters[0]), float(result.parameters[1])),
        stderr_gamma10=float(err[0]),
        stderr_gamma21=float(err[1]),
        residual_norm=result.residual_norm,
        converged=result.converged,
        iterations=result.iterations,
    )


def _cluster_robust_errors(residual, params: np.ndarray, n_points: int) -> np.ndarray:
    """Sandwich standard errors with delay points as clusters.

    The three population components at one delay share a multinomial draw,
    so their residuals are correlated; the plain (J^T J)^-1 covariance
    underestimates the parameter scatter.  Grouping rows by delay point
    keeps the estimate calibrated without modeling the correlation.
    """
    r = residual(params)
    jac = finite_difference_jacobian(residual, params, r)
    a_inv = np.linalg.pinv(jac.T @ jac)
    scores = np.zeros((n_points, params.size))
    for p in range(n_points):
        rows = slice(3 * p, 3 * p + 3)
        scores[p] = jac[rows].T @ r[rows]
    b = scores.T @ scores
    dof_scale = n_points / max(n_points - params.size, 1)
    cov = dof_scale * a_inv @ b @ a_inv
    d = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(d)
