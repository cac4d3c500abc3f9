"""Levenberg-Marquardt least squares with box bounds.

Small and self-contained on purpose: the problems have a handful of
parameters, and keeping the solvers local makes the bound handling,
stopping tests and convergence reporting exact to this package's contracts.

:func:`_damped_newton_2x2` is the solver of every pipeline stage with two
unknowns per problem: the trace fits (:func:`tlstrack.trace_fit.fit_traces`)
and the tracker's per-epoch two-defect frequency solves.  It runs a whole
stack of independent problems at once with closed-form 2x2 damped normal
equations, and each caller supplies its own residuals and analytic
derivatives.  :func:`_lm_loop` is the loop of every single-problem solve:
it owns the damping schedule, the stopping tests, the box clip and the
acceptance rule, and its caller supplies the linearisation and the damped
linear solve.  The generic :func:`levenberg_marquardt` (with
:func:`solve` and :func:`finite_difference_jacobian`) runs it with a dense
Jacobian and a direct solve, and the tracker's joint update with its
Schur-complement step in :mod:`tlstrack.tracker`.  All of them share the
tolerances, the finite-difference step and the damping schedule below.
The iteration budget is an argument, and so is an absolute cost-decrease
tolerance of :func:`_lm_loop`, 0 by default: the tracker's joint update
sets it on weighted series, whose cost is χ² in units of the measurement
variance, so a decrease far below 1 means nothing statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FitDivergedError, InvalidParameterError

GTOL = 1e-10         # infinity norm of the (projected) gradient
FTOL = 1e-12         # relative decrease of the cost between accepted steps
XTOL = 1e-12         # step norm relative to parameter norm
FD_STEP = 1e-8       # forward-difference step: max(FD_STEP, FD_STEP*|x|)
LAMBDA_INIT = 1e-3
LAMBDA_FACTOR = 10.0  # damping falls by this on an accepted step, rises by it on a rejected one
LAMBDA_MAX = 1e12


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
) -> np.ndarray:
    """Forward-difference Jacobian with step max(FD_STEP, FD_STEP*|x_i|).

    When a forward step would cross ``upper`` the difference is taken
    backward instead, so bounded problems never evaluate out of the box.
    """
    x = np.asarray(x, dtype=float)
    if r0 is None:
        r0 = _eval_residual(fn, x)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = max(FD_STEP, FD_STEP * abs(x[i]))
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
    max_iterations: int = 500,
) -> FitResult:
    """Minimize half the squared residual norm with damped Gauss-Newton steps.

    Bounds are enforced by projecting each trial step onto the box; the
    gradient test uses the projected gradient so active bounds count as
    converged.  Raises ``FitDivergedError`` if the residual turns non-finite
    away from the initial guess; an exhausted iteration budget returns an
    unconverged result instead of raising.
    """
    fn = problem.residual

    def jacobian_at(xp, rp):
        if problem.jacobian is not None:
            return np.asarray(problem.jacobian(xp), dtype=float)
        return finite_difference_jacobian(fn, xp, rp, problem.upper)

    def linearise(xp, rp):
        try:
            jac = jacobian_at(xp, rp)
        except FitDivergedError as err:
            raise FitDivergedError(str(err), xp) from None
        grad = jac.T @ rp
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0.0] = 1.0
        return grad, (jac, jtj, np.diag(diag), -grad)

    def damped_step(lin, lam):
        _, jtj, d, neg_grad = lin
        return np.linalg.solve(jtj + lam * d, neg_grad)

    x, r, cost, iterations, converged, lin = _lm_loop(
        problem.initial.copy(), problem.lower, problem.upper,
        lambda xp: np.atleast_1d(np.asarray(fn(xp), dtype=float)),
        linearise, damped_step, max_iterations)
    jac = jacobian_at(x, r) if lin is None else lin[0]
    return FitResult(x, math.sqrt(cost), converged, iterations, jac, cost)


def _lm_loop(x, lo, hi, residual, linearise, damped_step, max_iterations: int = 500,
             cost_atol: float = 0.0):
    """The bounded Levenberg-Marquardt loop of every single-problem solve.

    ``x`` starts inside [``lo``, ``hi``].  ``linearise(x, r)`` returns the
    gradient Jᵀr and ``lin``, from which ``damped_step(lin, lam)`` solves
    (JᵀJ + lam*D) step = -Jᵀr, D the diagonal of JᵀJ with entries <= 0 set
    to 1, or raises LinAlgError, which raises the damping.  The clipped
    trial ``x + step`` is accepted when it lowers the cost.  The loop stops
    at a projected gradient within ``GTOL``, at an accepted step below
    ``FTOL`` or ``XTOL`` (relative), at an accepted step that lowers the
    cost by less than ``cost_atol`` (absolute; 0 never fires), at damping
    above ``LAMBDA_MAX``, or after ``max_iterations`` linearisations,
    unconverged.  A
    non-finite residual raises ``InvalidParameterError`` at the start and
    ``FitDivergedError``, with the last accepted ``x``, at a trial.  Returns
    (x, r, cost, iterations, converged, lin), ``lin`` from the last
    linearisation or None.
    """
    r = residual(x)
    if not np.all(np.isfinite(r)):
        raise InvalidParameterError("residual is not finite at the initial guess")
    cost = float(r @ r)
    if cost == 0.0:
        return x, r, 0.0, 0, True, None

    lam = LAMBDA_INIT
    converged = False
    iteration = 0
    lin = None
    for iteration in range(1, max_iterations + 1):
        grad, lin = linearise(x, r)
        # projected gradient: directions pushing outside the box do not count
        if np.max(np.abs(np.where(_outward(x, grad, lo, hi), 0.0, grad))) <= GTOL:
            converged = True
            break
        while lam <= LAMBDA_MAX:
            try:
                step = damped_step(lin, lam)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_FACTOR
                continue
            x_new = np.clip(x + step, lo, hi)
            r_new = residual(x_new)
            if not np.all(np.isfinite(r_new)):
                raise FitDivergedError(
                    f"non-finite residual at trial parameters {x_new!r}", x
                )
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                step_norm = float(np.linalg.norm(x_new - x))
                decrease = cost - cost_new
                rel_decrease = decrease / cost
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / LAMBDA_FACTOR, 1e-14)
                converged = rel_decrease <= FTOL or decrease < cost_atol or step_norm <= XTOL * (
                    float(np.linalg.norm(x)) + XTOL
                )
                break
            lam *= LAMBDA_FACTOR
        else:
            # no descent direction within the damping budget: local minimum
            # to working precision
            converged = True
        if converged:
            break
    return x, r, cost, iteration, converged, lin


def solve(
    residual: Callable[[np.ndarray], np.ndarray],
    initial: Sequence[float],
    lower=None,
    upper=None,
    max_iterations: int = 500,
) -> FitResult:
    """Convenience wrapper around :func:`levenberg_marquardt`."""
    return levenberg_marquardt(LeastSquaresProblem(residual, initial, lower, upper),
                               max_iterations)


def _outward(x, grad, lo, hi):
    """Where the gradient pushes a coordinate on a bound outside it."""
    return ((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0))


def _damped_newton_2x2(x, lo, hi, residuals, linearise, max_iterations: int = 500):
    """Bounded Levenberg-Marquardt on a stack of independent 2-parameter problems.

    ``x`` has shape (2, n), one column per problem; it is clipped into
    [``lo``, ``hi``].  ``residuals(x, idx)`` returns ``(r, cost)`` for the
    problems ``idx`` at the columns of ``x``: a tuple ``r`` of arrays whose
    first axes run over those problems, and their costs (squared residual
    norms).  ``linearise(x, idx, r)`` returns ``(grad, h00, h01, h11)``:
    the gradient Jᵀr, shape (2, len(idx)), and the three distinct entries
    of JᵀJ.

    The damped normal equations (JᵀJ + λ·diag) step = -Jᵀr are solved in
    closed form.  The stopping tests and damping schedule are those of
    :func:`_lm_loop`, applied elementwise: a problem stops when its
    projected gradient is within ``GTOL``, when an accepted step lowers its
    cost by at most ``FTOL`` relative or moves it by at most ``XTOL``
    relative, or when λ exceeds ``LAMBDA_MAX`` without a lower cost (a
    local minimum to working precision).  Each pass works on the problems
    still active, and every problem's arithmetic is elementwise, so its
    result does not depend on the other problems in the stack.  Returns (x, r, cost, iterations,
    converged); ``iterations`` counts each problem's linearisations, and a
    problem still active after ``max_iterations`` is not converged.
    """
    x = np.clip(x, lo, hi)
    r, cost = residuals(x, np.arange(x.shape[1]))
    lam = np.full(cost.size, LAMBDA_INIT)
    iterations = np.zeros(cost.size, dtype=int)
    active = cost > 0.0
    for _ in range(max_iterations):
        cols = np.flatnonzero(active)
        if cols.size == 0:
            break
        iterations += active
        xa = x[:, cols]
        grad, h00, h01, h11 = linearise(xa, cols, tuple(ri.take(cols, axis=0) for ri in r))
        # projected gradient: directions pushing outside the box do not count
        stop = np.max(np.abs(np.where(_outward(xa, grad, lo, hi), 0.0, grad)), axis=0) <= GTOL
        active[cols[stop]] = False
        d0, d1 = np.where(h00 > 0.0, h00, 1.0), np.where(h11 > 0.0, h11, 1.0)
        pending = np.flatnonzero(~stop)      # positions in cols
        while pending.size:
            p = cols[pending]
            # no descent direction within the damping budget: a local minimum
            # to working precision
            exhausted = lam[p] > LAMBDA_MAX
            active[p[exhausted]] = False
            pending, p = pending[~exhausted], p[~exhausted]
            a = h00[pending] + lam[p] * d0[pending]
            c = h11[pending] + lam[p] * d1[pending]
            b = h01[pending]
            det = a * c - b * b
            g0, g1 = grad[:, pending]
            x_new = np.clip(x[:, p] + np.stack([b * g1 - c * g0, b * g0 - a * g1]) / det, lo, hi)
            r_new, cost_new = residuals(x_new, p)
            better = cost_new < cost[p]
            lam[p[~better]] *= LAMBDA_FACTOR
            acc, dx = p[better], x_new[:, better] - x[:, p[better]]
            rel_decrease = (cost[acc] - cost_new[better]) / cost[acc]
            x[:, acc], cost[acc] = x_new[:, better], cost_new[better]
            for ri, ri_new in zip(r, r_new):
                ri[acc] = ri_new[better]
            lam[acc] = np.maximum(lam[acc] / LAMBDA_FACTOR, 1e-14)
            x_norm = np.sqrt(x[0, acc] ** 2 + x[1, acc] ** 2)
            done = (rel_decrease <= FTOL) | (
                np.sqrt(dx[0] ** 2 + dx[1] ** 2) <= XTOL * (x_norm + XTOL))
            active[acc[done]] = False
            pending = pending[~better]
    return x, r, cost, iterations, ~active
