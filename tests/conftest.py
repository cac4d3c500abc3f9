"""Test-session setup, run by pytest before any test module imports numpy.

The suite runs with one OpenBLAS thread unless the caller chose otherwise.
OpenBLAS starts one thread per CPU by default, and on a machine with another
busy process those threads spin against it: on 2 CPUs beside a running
``track``, the suite took 371 s with the default pool and 118 s with one
thread.  Alone it took 76 s either way.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tlstrack.optimize import _lm_loop  # noqa: E402


def _dense_lm(residual, jacobian, x0, lo=-np.inf, hi=np.inf, max_iterations=500, cost_atol=0.0):
    """``_lm_loop`` from ``x0`` with the dense Jacobian ``jacobian(x)`` and a
    direct solve of (JᵀJ + lam*D) step = -Jᵀr; returns the loop's
    (x, r, cost, iterations, converged, lin)."""
    def linearise(x, r):
        jac = jacobian(x)
        grad, jtj = jac.T @ r, jac.T @ jac
        d = np.diag(jtj).copy()
        d[d <= 0.0] = 1.0
        return grad, (jtj, np.diag(d), -grad)

    def damped_step(lin, lam):
        jtj, d, neg_grad = lin
        return np.linalg.solve(jtj + lam * d, neg_grad)

    return _lm_loop(np.array(x0, dtype=float), lo, hi,
                    lambda x: np.atleast_1d(np.asarray(residual(x), dtype=float)),
                    linearise, damped_step, max_iterations, cost_atol)


@pytest.fixture
def dense_lm():
    """The loop that every single-problem solve runs, driven densely: the
    reference where a test asserts the batched solvers' shared damping
    schedule, and the way ``_lm_loop``'s own stopping rules are tested."""
    return _dense_lm
