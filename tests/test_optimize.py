import numpy as np
import pytest

from tlstrack.errors import FitDivergedError, InvalidParameterError
from tlstrack.optimize import (
    LeastSquaresProblem,
    _damped_newton_2x2,
    finite_difference_jacobian,
    levenberg_marquardt,
    solve,
)
from tlstrack.tls import lorentzian_density


class TestLinearProblems:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_direct_solve(self, seed):
        # misfit floor at a few percent, as in any realistic fit; the
        # forward-difference noise floor scales with the residual magnitude
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(12, 4))
        b = a @ rng.normal(size=4) + 0.05 * rng.normal(size=12)
        result = solve(lambda x: a @ x - b, np.zeros(4))
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(result.parameters - expected)) < 1e-8
        assert result.converged

    def test_quadratic_converges_fast(self):
        # three damped Gauss-Newton steps reach the analytic minimizer
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 3)) + np.eye(6, 3)
        b = a @ rng.normal(size=3) + 0.05 * rng.normal(size=6)
        result = solve(lambda x: a @ x - b, np.zeros(3), max_iterations=3)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert result.iterations <= 3
        assert np.max(np.abs(result.parameters - expected)) < 1e-8

    def test_zero_residual_at_start(self):
        result = solve(lambda x: np.zeros(3), np.array([1.0, 2.0]))
        assert result.converged
        assert result.iterations == 0
        assert result.residual_norm == 0.0
        assert np.array_equal(result.parameters, [1.0, 2.0])


class TestLorentzianFit:
    def test_center_recovery(self):
        probes = np.linspace(4850.0, 4950.0, 60)
        target = lorentzian_density(4900.0, 5.0, probes)

        def residual(p):
            return lorentzian_density(p[0], 5.0, probes) - target

        result = solve(residual, np.array([4893.0]),
                       lower=np.array([4850.0]), upper=np.array([4950.0]))
        assert abs(result.parameters[0] - 4900.0) < 1e-6

    def test_fd_jacobian_matches_analytic_gradient(self):
        # residual r(c) = L(c; probes) - data, so dr/dc = dL/dc; the
        # linewidth is wide enough that the forward-difference truncation
        # error (step ~ 1e-8 * center) stays below the 1e-5 target
        gamma = 25.0
        probes = np.linspace(4820.0, 4980.0, 25)

        def residual(p):
            return lorentzian_density(p[0], gamma, probes)

        for center in np.linspace(4885.3, 4915.3, 7):
            x = np.array([center])
            jac = finite_difference_jacobian(residual, x)
            detuning = probes - center
            analytic = 2.0 * gamma * detuning / (detuning**2 + gamma**2) ** 2
            # a relative comparison is ill-posed at the gradient's zero crossing
            mask = np.abs(detuning) > gamma / 4.0
            rel = np.abs(jac[mask, 0] - analytic[mask]) / np.abs(analytic[mask])
            assert np.max(rel) < 1e-5


class TestRobustness:
    def test_bounds_projection(self):
        result = solve(lambda x: x - 5.0, np.array([0.0]),
                       lower=np.array([-1.0]), upper=np.array([2.0]))
        assert result.parameters[0] == pytest.approx(2.0)
        assert result.converged

    def test_initial_outside_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            LeastSquaresProblem(lambda x: x, np.array([5.0]),
                                np.array([0.0]), np.array([1.0]))

    def test_non_finite_at_start_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve(lambda x: np.array([np.nan]), np.array([1.0]))

    def test_divergence_carries_last_good_parameters(self):
        def residual(x):
            if x[0] > 2.0:
                return np.array([np.nan])
            return np.array([x[0] - 10.0])

        with pytest.raises(FitDivergedError) as exc:
            solve(residual, np.array([0.0]))
        assert np.all(np.isfinite(exc.value.last_parameters))
        assert exc.value.last_parameters[0] <= 2.0

    def test_iteration_cap_flags_unconverged(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=8)
        result = solve(lambda x: a @ x - b, np.zeros(5), max_iterations=1)
        assert not result.converged
        assert result.iterations == 1

    def test_covariance_shape_and_symmetry(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=20)
        result = solve(lambda x: a @ x - b, np.zeros(3))
        cov = result.covariance
        assert cov.shape == (3, 3)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-12)
        assert np.all(result.standard_errors() >= 0.0)
        m, n = a.shape
        expected = np.linalg.inv(a.T @ a) * result.residual_norm**2 / (m - n)
        # the solver's Jacobian is a forward difference of the linear residual
        assert np.allclose(cov, expected, rtol=1e-6, atol=0.0)


class TestDampedNewton2x2:
    """The batched 2-parameter kernel shared by the trace fits and the tracker."""

    t = np.linspace(0.0, 4.0, 15)

    def decay_problems(self, data):
        # r = a*exp(-b*t) - data, one row of data per problem
        def model(x, idx):
            return x[0][:, None] * np.exp(-x[1][:, None] * self.t), data[idx]

        def residuals(x, idx):
            m, d = model(x, idx)
            r = m - d
            return (r,), np.sum(r * r, axis=1)

        def linearise(x, idx, rs):
            (r,) = rs
            e = np.exp(-x[1][:, None] * self.t)
            j0, j1 = e, -x[0][:, None] * self.t * e
            grad = np.stack([np.sum(j0 * r, axis=1), np.sum(j1 * r, axis=1)])
            return grad, np.sum(j0 * j0, axis=1), np.sum(j0 * j1, axis=1), np.sum(j1 * j1, axis=1)

        return residuals, linearise

    def test_matches_generic_lm_with_analytic_jacobian(self):
        rng = np.random.default_rng(8)
        truth = np.array([[1.0, 2.5, 0.7], [0.8, 0.3, 1.9]])
        data = (truth[0][:, None] * np.exp(-truth[1][:, None] * self.t)
                + 0.01 * rng.normal(size=(3, self.t.size)))
        x0 = np.array([[0.5, 1.0, 1.0], [0.5, 1.0, 0.5]])
        lo, hi = 0.01, 10.0
        x, _, cost, iterations, converged = _damped_newton_2x2(
            x0, lo, hi, *self.decay_problems(data))
        assert np.all(converged)
        for i in range(3):
            def residual(p):
                return p[0] * np.exp(-p[1] * self.t) - data[i]

            def jacobian(p):
                e = np.exp(-p[1] * self.t)
                return np.stack([e, -p[0] * self.t * e], axis=1)

            bounds = np.full(2, lo), np.full(2, hi)
            want = levenberg_marquardt(
                LeastSquaresProblem(residual, x0[:, i], *bounds, jacobian=jacobian))
            assert np.allclose(x[:, i], want.parameters, rtol=1e-9, atol=0.0)
            assert cost[i] <= want.cost * (1.0 + 1e-12) + 1e-15
            assert iterations[i] == want.iterations

    def test_outward_gradient_on_bound_stops_without_trials(self):
        # the minimum lies beyond the upper bound of the first parameter, and
        # the second already sits at its optimum: the projected gradient is 0
        calls = []

        def residuals(x, idx):
            calls.append(idx.size)
            r = (x - np.array([[2.0], [0.5]])).T
            return (r,), np.sum(r * r, axis=1)

        def linearise(x, idx, rs):
            return rs[0].T, np.ones(idx.size), np.zeros(idx.size), np.ones(idx.size)

        x, _, _, iterations, converged = _damped_newton_2x2(
            np.array([[1.0], [0.5]]), 0.0, 1.0, residuals, linearise)
        assert x.tolist() == [[1.0], [0.5]]
        assert calls == [1] and iterations.tolist() == [1] and converged.tolist() == [True]
