"""Levenberg-Marquardt least squares with box bounds, plus a 1-D grid refiner.

Small and self-contained on purpose: the fitting problems in this package
have at most a handful of parameters, and keeping the solver local makes the
bound handling, finite-difference stepping, and convergence reporting exact
to this package's contracts.

``grid_refine`` refines many independent intervals at once as array
operations; each interval gets the result it would get alone, and
``grid_refine_1d`` is the one-interval case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FitDivergedError, InvalidObjectiveError, InvalidParameterError

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


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


def grid_refine_1d(
    objective: Callable[[float], float],
    interval: tuple[float, float],
    coarse_points: int,
    tol: float = 1e-4,
) -> float:
    """Coarse uniform scan followed by golden-section refinement.

    Returns the abscissa of the best point seen, so the refined result is
    never worse than the best coarse-grid point.  Raises
    ``InvalidObjectiveError`` if the objective is non-finite anywhere on the
    coarse grid.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise InvalidParameterError(f"interval must satisfy hi > lo, got {interval!r}")
    if coarse_points < 3:
        raise InvalidParameterError("coarse_points must be >= 3")

    def batch_objective(xs: np.ndarray) -> np.ndarray:
        return np.array([float(objective(float(v))) for v in xs.ravel()]).reshape(xs.shape)

    x, _ = grid_refine(batch_objective, np.array([lo]), np.array([hi]), int(coarse_points), tol)
    return float(x[0])


def grid_refine(
    objective: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    coarse_points: int,
    tol: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grid_refine_1d` on the k intervals [lo_i, hi_i] (hi > lo) at once.

    ``objective`` maps points of shape (k, ...), row i inside interval i, to
    their values.  Returns the best abscissa and its value per interval.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bad = ~(hi > lo)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise InvalidParameterError(
            f"interval must satisfy hi > lo, got {(float(lo[row]), float(hi[row]))!r}"
        )
    xs = np.linspace(lo, hi, coarse_points, axis=-1)
    fs = objective(xs)
    bad = ~np.isfinite(fs)
    if np.any(bad):
        row = int(np.argmax(np.any(bad, axis=1)))
        raise InvalidObjectiveError(
            f"objective non-finite on coarse grid at {xs[row][bad[row]][0]}"
        )
    rows = np.arange(xs.shape[0])
    i = np.argmin(fs, axis=1)
    best_x, best_f = xs[rows, i], fs[rows, i]
    a = xs[rows, np.maximum(i - 1, 0)]
    b = xs[rows, np.minimum(i + 1, coarse_points - 1)]
    x, f = _golden_section(objective, a, b, tol)
    better = f < best_f
    return np.where(better, x, best_x), np.where(better, f, best_f)


def _golden_section(
    objective: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search on each interval [a_i, b_i] at once.

    Each interval shrinks until it is no wider than ``tol``; an interval
    that is done is frozen while the others go on.  ``objective`` maps k
    points to k values.  Returns the best point seen and its value per
    interval.
    """
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc = objective(c)
    fd = objective(d)
    first = fc <= fd
    best_x, best_f = np.where(first, c, d), np.where(first, fc, fd)
    active = b - a > tol
    while np.any(active):
        # left: the minimum lies in [a, d], so d -> b, c -> d and a new c;
        # right: it lies in [c, b], so c -> a, d -> c and a new d
        left = active & (fc <= fd)
        right = active & ~left
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        c, d = (np.where(left, b - GOLDEN_RATIO * (b - a), np.where(right, d, c)),
                np.where(right, a + GOLDEN_RATIO * (b - a), np.where(left, c, d)))
        f_new = objective(np.where(left, c, d))
        fc, fd = (np.where(left, f_new, np.where(right, fd, fc)),
                  np.where(right, f_new, np.where(left, fc, fd)))
        # a frozen interval's fc and fd never beat its best, so it needs no mask
        for x, f in ((c, fc), (d, fd)):
            better = f < best_f
            best_x, best_f = np.where(better, x, best_x), np.where(better, f, best_f)
        active = b - a > tol
    return best_x, best_f
