"""Levenberg-Marquardt least squares with box bounds.

Small and self-contained on purpose: the problems it solves have a handful
of parameters, and keeping the solver local makes the bound handling,
finite-difference stepping, and convergence reporting exact to this
package's contracts.  Only the trace fits (:mod:`tlstrack.trace_fit`) call
it.  The tracker's solves have their own structure and their own solvers in
:mod:`tlstrack.tracker`, which keep :class:`FitOptions`' tolerances and
damping schedule: closed-form 2x2 steps per epoch, and a Schur-complement
step for the joint update, whose Jacobian grows with the number of epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FitDivergedError, InvalidParameterError


@dataclass
class FitOptions:
    """Tolerances and limits shared by every solver call."""

    gtol: float = 1e-10        # infinity norm of the (projected) gradient
    ftol: float = 1e-12        # relative decrease of the cost between accepted steps
    xtol: float = 1e-12        # step norm relative to parameter norm
    max_iterations: int = 500
    fd_step: float = 1e-8      # forward-difference step: max(fd_step, fd_step*|x|)
    lambda_init: float = 1e-3
    lambda_decrease: float = 10.0
    lambda_increase: float = 10.0
    lambda_max: float = 1e12


DEFAULT_OPTIONS = FitOptions()


@dataclass
class LeastSquaresProblem:
    """Residual function with box bounds and an initial guess.

    ``residual`` maps a parameter vector to a residual vector; the solver
    minimizes half its squared norm.  Bounds must satisfy
    lower <= initial <= upper componentwise.  ``jacobian``, when provided,
    must return the (m, n) derivative matrix of the residual; otherwise
    forward finite differences are used.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    initial: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        n = self.initial.size
        self.lower = (
            np.full(n, -np.inf) if self.lower is None
            else np.atleast_1d(np.asarray(self.lower, dtype=float))
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None
            else np.atleast_1d(np.asarray(self.upper, dtype=float))
        )
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise InvalidParameterError("bounds must match the parameter count")
        if np.any(self.lower > self.initial) or np.any(self.initial > self.upper):
            raise InvalidParameterError("initial guess must satisfy lower <= x0 <= upper")


@dataclass
class FitResult:
    """Outcome of a least-squares solve.

    ``jacobian`` is the last Jacobian the solver formed and ``cost`` the
    final squared residual norm.  ``covariance`` is computed from them the
    first time it is read.
    """

    parameters: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    jacobian: np.ndarray = field(repr=False)
    cost: float

    @cached_property
    def covariance(self) -> np.ndarray:
        return _covariance(self.jacobian, self.cost)

    def standard_errors(self) -> np.ndarray:
        d = np.diag(self.covariance).copy()
        d[d < 0.0] = 0.0
        return np.sqrt(d)


def _eval_residual(fn, x, what="residual"):
    r = np.atleast_1d(np.asarray(fn(x), dtype=float))
    if not np.all(np.isfinite(r)):
        raise FitDivergedError(f"non-finite {what} at parameters {x!r}", x)
    return r


def finite_difference_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    r0: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    step: float = DEFAULT_OPTIONS.fd_step,
) -> np.ndarray:
    """Forward-difference Jacobian with step max(step, step*|x_i|).

    When a forward step would cross ``upper`` the difference is taken
    backward instead, so bounded problems never evaluate out of the box.
    """
    x = np.asarray(x, dtype=float)
    if r0 is None:
        r0 = _eval_residual(fn, x)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = max(step, step * abs(x[i]))
        if upper is not None and x[i] + h > upper[i]:
            h = -h
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (_eval_residual(fn, xp, "residual (jacobian)") - r0) / h
    return jac


def _covariance(jac: np.ndarray, rnorm_sq: float) -> np.ndarray:
    m, n = jac.shape
    cov = np.linalg.pinv(jac.T @ jac)
    if m > n:
        cov = cov * (rnorm_sq / (m - n))
    return cov


def levenberg_marquardt(
    problem: LeastSquaresProblem,
    options: FitOptions = DEFAULT_OPTIONS,
) -> FitResult:
    """Minimize half the squared residual norm with damped Gauss-Newton steps.

    Bounds are enforced by projecting each trial step onto the box; the
    gradient test uses the projected gradient so active bounds count as
    converged.  Raises ``FitDivergedError`` if the residual turns non-finite
    away from the initial guess; an exhausted iteration budget returns an
    unconverged result instead of raising.
    """
    fn = problem.residual
    x = problem.initial.copy()
    lo, hi = problem.lower, problem.upper

    def jacobian_at(xp, rp):
        if problem.jacobian is not None:
            return np.asarray(problem.jacobian(xp), dtype=float)
        return finite_difference_jacobian(fn, xp, rp, hi, options.fd_step)

    r = np.atleast_1d(np.asarray(fn(x), dtype=float))
    if not np.all(np.isfinite(r)):
        raise InvalidParameterError("residual is not finite at the initial guess")
    cost = float(r @ r)
    if cost == 0.0:
        jac = jacobian_at(x, r)
        return FitResult(x, 0.0, True, 0, jac, 0.0)

    lam = options.lambda_init
    converged = False
    iteration = 0
    jac = None
    for iteration in range(1, options.max_iterations + 1):
        try:
            jac = jacobian_at(x, r)
        except FitDivergedError as err:
            raise FitDivergedError(str(err), x) from None
        grad = jac.T @ r
        # projected gradient: directions pushing outside the box do not count
        pg = grad.copy()
        pg[(x <= lo) & (grad > 0.0)] = 0.0
        pg[(x >= hi) & (grad < 0.0)] = 0.0
        if np.max(np.abs(pg)) <= options.gtol:
            converged = True
            break

        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0
        accepted = False
        while lam <= options.lambda_max:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= options.lambda_increase
                continue
            x_new = np.clip(x + step, lo, hi)
            r_new = np.atleast_1d(np.asarray(fn(x_new), dtype=float))
            if not np.all(np.isfinite(r_new)):
                raise FitDivergedError(
                    f"non-finite residual at trial parameters {x_new!r}", x
                )
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                step_norm = float(np.linalg.norm(x_new - x))
                rel_decrease = (cost - cost_new) / cost
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / options.lambda_decrease, 1e-14)
                accepted = True
                if rel_decrease <= options.ftol or step_norm <= options.xtol * (
                    float(np.linalg.norm(x)) + options.xtol
                ):
                    converged = True
                break
            lam *= options.lambda_increase
        if not accepted:
            # no descent direction within the damping budget: local minimum
            # to working precision
            converged = True
            break
        if converged:
            break

    if jac is None:
        jac = jacobian_at(x, r)
    return FitResult(x, math.sqrt(cost), converged, iteration, jac, cost)


def solve(
    residual: Callable[[np.ndarray], np.ndarray],
    initial: Sequence[float],
    lower=None,
    upper=None,
    options: FitOptions = DEFAULT_OPTIONS,
) -> FitResult:
    """Convenience wrapper around :func:`levenberg_marquardt`."""
    return levenberg_marquardt(LeastSquaresProblem(residual, initial, lower, upper), options)
