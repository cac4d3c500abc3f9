"""Extraction of (gamma_10, gamma_21) from population traces.

All three level populations are fitted simultaneously against the
closed-form cascade solution.  P2 decays as a pure exponential in gamma_21,
which pins the parameter labeling; the sequential log-linear regressions are
used only to seed the simultaneous fit.  All traces of one call are solved
together: one batched, bounded damped-Newton solve in the two rates with the
analytic Jacobian of the cascade, whose per-trace arithmetic does not depend
on the other traces in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import DecayRates, PopulationTrace, TraceStack, _cascade
from .errors import FitDivergedError, InvalidParameterError
from .optimize import _damped_newton_2x2

RATE_LOWER = 1e-6
RATE_UPPER = 10.0

#: Floor on the per-point binomial standard deviation used for weighting.
SIGMA_FLOOR = 1e-3
#: Damped-Newton iterations per trace before its fit is flagged unconverged.
MAX_ITERATIONS = 500


def default_delay_grid(t1e: float, t1f: float, n: int = 30) -> np.ndarray:
    """Log-spaced delay grid from t1f/20 to 4*t1e (synthetic-run convention)."""
    lo = min(t1e, t1f) / 20.0
    hi = 4.0 * max(t1e, t1f)
    return np.geomspace(lo, hi, n)


def _decay_rates(t: np.ndarray, y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise unweighted regressions of ``y`` on ``t`` over the points in
    ``mask``: minus each slope, or NaN where fewer than 3 points remain or
    the slope is not negative and finite.  ``y`` must be finite outside ``mask``."""
    n = np.sum(mask, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_mean = np.sum(np.where(mask, t, 0.0), axis=1) / n
        dt = np.where(mask, t - t_mean[:, None], 0.0)
        y_mean = np.sum(np.where(mask, y, 0.0), axis=1) / n
        slope = np.sum(dt * (y - y_mean[:, None]), axis=1) / np.sum(dt * dt, axis=1)
    return np.where((n >= 3) & np.isfinite(slope) & (slope < 0.0), -slope, np.nan)


def _initial_rates(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """:func:`initial_guess` for every row of delays ``t`` (k, n) and
    populations ``p`` (k, n, 3) at once, as masked closed-form least
    squares.  Returns the (gamma_10, gamma_21) seeds, shape (2, k)."""
    p1, p2 = p[..., 1], p[..., 2]
    mask2 = p2 > 0.05
    g21 = _decay_rates(t, np.log(np.where(mask2, p2, 1.0)), mask2)
    tail = (np.arange(t.shape[1]) >= np.argmax(p1, axis=1)[:, None]) & (p1 > 0.02)
    log_p1 = np.log(np.where(tail, p1, 1.0))
    g10 = _decay_rates(t, log_p1, tail)
    # nearly degenerate rates: p1 ~ t*exp(-gamma*t), so regress ln(p1) - ln(t)
    near = (0.5 <= g10 / g21) & (g10 / g21 <= 2.0) & np.all((t > 0.0) | ~tail, axis=1)
    g10_near = _decay_rates(t, log_p1 - np.log(np.where(tail & (t > 0.0), t, 1.0)), tail)
    g10 = np.where(near & ~np.isnan(g10_near), g10_near, g10)
    g, fallback = np.array([g10, g21]), 1.0 / np.where(t[:, -1] > 0.0, t[:, -1], 1.0)
    return np.clip(np.where(np.isnan(g), fallback, g), RATE_LOWER, RATE_UPPER)


def initial_guess(trace: PopulationTrace) -> DecayRates:
    """Seed rates from log-linear regressions on p2 and the tail of p1.

    gamma_21 comes from points with p2 > 0.05; gamma_10 from points after
    p1's empirical maximum with p1 > 0.02.  When the tail estimate lands
    within a factor of two of gamma_21 the rates are nearly degenerate and
    p1 ~ t*exp(-gamma*t); the regression is then redone on ln(p1) - ln(t)
    to remove the prefactor bias.  Either regression falls back to
    1/(last delay) when fewer than 3 usable points remain, so the guess is
    always finite.  This is the batch of one of :func:`_initial_rates`.
    """
    g10, g21 = _initial_rates(trace.delays[None], trace.populations[None])[:, 0]
    return DecayRates(float(g10), float(g21))


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


def fit_trace(trace: PopulationTrace, weighting: str = "uniform") -> TraceFit:
    """The fit of one trace: ``fit_traces([trace], weighting)[0]``."""
    return fit_traces([trace], weighting)[0]


def fit_traces(traces: Sequence[PopulationTrace], weighting: str = "uniform") -> list[TraceFit]:
    """The fits of :func:`fit_stack` for a list of traces."""
    return fit_stack(TraceStack.from_traces(traces), weighting)


def fit_stack(stack: TraceStack, weighting: str = "uniform") -> list[TraceFit]:
    """Simultaneous fit of p0, p1, p2 to the closed-form cascade model, for
    every trace of a stack at once.

    ``weighting`` is "uniform" or "binomial"; the latter weights each point
    by 1/max(sigma, 1e-3) with sigma^2 = p(1-p)/shots and requires every
    trace to carry shot counts.  Traces of equal length share one batched
    solve; each trace's result is the same whatever else is in the batch.
    A fit still unconverged after ``MAX_ITERATIONS`` is returned flagged
    rather than raised.  A non-finite trial residual raises
    ``FitDivergedError`` naming the lowest-index trace that met one.
    """
    if weighting not in ("uniform", "binomial"):
        raise InvalidParameterError(f"unknown weighting mode {weighting!r}")
    lengths = stack.lengths
    k = lengths.size
    trace_of_row = np.repeat(np.arange(k), lengths)
    short = lengths < 5
    unshot = (weighting == "binomial") & (
        np.bincount(trace_of_row[stack.shots == 0], minlength=k) > 0)
    infinite = np.bincount(trace_of_row[~np.isfinite(stack.populations).all(axis=1)],
                           minlength=k) > 0
    bad = np.flatnonzero(short | unshot | infinite)
    if bad.size:
        i = bad[0]
        if short[i]:
            raise InvalidParameterError(
                f"trace {i}: need at least 5 delay points, got {lengths[i]}")
        if unshot[i]:
            raise InvalidParameterError(
                f"trace {i}: binomial weighting requires per-point shot counts")
        raise InvalidParameterError(f"trace {i}: populations must be finite")

    fits: list = [None] * k
    diverged = []
    starts = stack.starts
    for n in np.unique(lengths):
        group = np.flatnonzero(lengths == n)
        rows = starts[group, None] + np.arange(n)
        group_fits, failed = _fit_equal_length(stack.delays[rows], stack.populations[rows],
                                              stack.shots[rows], weighting)
        for i, fit in zip(group, group_fits):
            fits[i] = fit
        diverged += [(group[j], rates) for j, rates in failed]
    if diverged:
        i, rates = min(diverged, key=lambda item: item[0])
        raise FitDivergedError(f"trace {i}: non-finite residual at trial rates {rates!r}",
                               np.array([fits[i].rates.gamma_10, fits[i].rates.gamma_21]))
    return fits


def _weights(populations: np.ndarray, shots: np.ndarray, weighting: str) -> np.ndarray:
    """Per-point weights of populations (..., 3) with shot counts (...)."""
    if weighting == "uniform":
        return np.ones_like(populations)
    p = np.clip(populations, 0.0, 1.0)
    sigma = np.sqrt(p * (1.0 - p) / shots[..., None])
    return 1.0 / np.maximum(sigma, SIGMA_FLOOR)


def _fit_equal_length(t: np.ndarray, data: np.ndarray, shots: np.ndarray, weighting: str):
    """Batched fit of traces with equal point counts: delays ``t`` (k, n),
    populations ``data`` (k, n, 3) and shot counts ``shots`` (k, n).

    Residual rows are laid out (trace, delay, level) and every sum runs
    along a contiguous row, so a trace's reductions are the same for any
    batch.  Returns the fits and, for each trace whose trial residual turned
    non-finite, its position and the first such trial rates.
    """
    weights = _weights(data, shots, weighting)
    x0 = _initial_rates(t, data)
    rows = 3 * t.shape[1]
    failed: dict[int, np.ndarray] = {}

    def residuals(x, idx):
        p = _cascade(x[0][:, None], x[1][:, None], t[idx])
        r = ((np.stack(p, axis=-1) - data[idx]) * weights[idx]).reshape(idx.size, rows)
        for j in np.flatnonzero(~np.all(np.isfinite(r), axis=1)):
            failed.setdefault(int(idx[j]), x[:, j].copy())
        return (r,), np.sum(r * r, axis=1)

    def jacobian(x, idx):
        _, d10, d21 = _cascade(x[0][:, None], x[1][:, None], t[idx], jacobian=True)
        return [(np.stack(d, axis=-1) * weights[idx]).reshape(idx.size, rows) for d in (d10, d21)]

    def linearise(x, idx, rs):
        (r,), (j0, j1) = rs, jacobian(x, idx)
        grad = np.stack([np.sum(j0 * r, axis=1), np.sum(j1 * r, axis=1)])
        return grad, np.sum(j0 * j0, axis=1), np.sum(j0 * j1, axis=1), np.sum(j1 * j1, axis=1)

    x, (r,), cost, iterations, converged = _damped_newton_2x2(
        x0, RATE_LOWER, RATE_UPPER, residuals, linearise, MAX_ITERATIONS)
    err = _cluster_robust_errors(*jacobian(x, np.arange(t.shape[0])), r)
    fits = [
        TraceFit(
            rates=DecayRates(float(x[0, i]), float(x[1, i])),
            stderr_gamma10=float(err[i, 0]),
            stderr_gamma21=float(err[i, 1]),
            residual_norm=float(np.sqrt(cost[i])),
            converged=bool(converged[i]),
            iterations=int(iterations[i]),
        )
        for i in range(t.shape[0])
    ]
    return fits, sorted(failed.items())


def _cluster_robust_errors(j0: np.ndarray, j1: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sandwich standard errors with delay points as clusters, for a batch.

    ``j0``, ``j1`` and ``r`` hold one trace per row, laid out (delay, level).
    The three population components at one delay share a multinomial draw,
    so their residuals are correlated; the plain (J^T J)^-1 covariance
    underestimates the parameter scatter.  Grouping rows by delay point
    keeps the estimate calibrated without modeling the correlation.
    Returns the (trace, parameter) standard errors.
    """
    k, n_points = r.shape[0], r.shape[1] // 3
    h00, h01, h11 = (np.sum(a * b, axis=1) for a, b in ((j0, j0), (j0, j1), (j1, j1)))
    a_inv = np.linalg.pinv(np.stack([h00, h01, h01, h11], axis=1).reshape(k, 2, 2))
    s0 = np.sum((j0 * r).reshape(k, n_points, 3), axis=2)
    s1 = np.sum((j1 * r).reshape(k, n_points, 3), axis=2)
    b00, b01, b11 = (np.sum(a * b, axis=1)[:, None] for a, b in ((s0, s0), (s0, s1), (s1, s1)))
    dof_scale = n_points / max(n_points - 2, 1)
    # diagonal of a_inv @ b @ a_inv, with u, v the columns of the symmetric a_inv
    u, v = a_inv[:, :, 0], a_inv[:, :, 1]
    cov = dof_scale * (u * (b00 * u + b01 * v) + v * (b01 * u + b11 * v))
    return np.sqrt(np.clip(cov, 0.0, None))
