import numpy as np
import pytest

from tlstrack.errors import FitDivergedError, InvalidParameterError
from tlstrack.optimize import _damped_newton_2x2
from tlstrack.tls import lorentzian_density


def linear_problem(a, b):
    """The residual a @ x - b and its Jacobian."""
    return (lambda x: a @ x - b), (lambda x: a)


class TestLinearProblems:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_direct_solve(self, dense_lm, seed):
        # misfit floor at a few percent, as in any realistic fit
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(12, 4))
        b = a @ rng.normal(size=4) + 0.05 * rng.normal(size=12)
        x, _, _, _, converged, _ = dense_lm(*linear_problem(a, b), np.zeros(4))
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(x - expected)) < 1e-8
        assert converged

    def test_quadratic_converges_fast(self, dense_lm):
        # three damped Gauss-Newton steps reach the analytic minimizer
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 3)) + np.eye(6, 3)
        b = a @ rng.normal(size=3) + 0.05 * rng.normal(size=6)
        x, _, _, iterations, _, _ = dense_lm(*linear_problem(a, b), np.zeros(3), max_iterations=3)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert iterations <= 3
        assert np.max(np.abs(x - expected)) < 1e-8

    def test_zero_residual_at_start(self, dense_lm):
        x, _, cost, iterations, converged, _ = dense_lm(
            lambda x: np.zeros(3), lambda x: np.zeros((3, 2)), np.array([1.0, 2.0]))
        assert converged
        assert iterations == 0
        assert cost == 0.0
        assert np.array_equal(x, [1.0, 2.0])


class TestLorentzianFit:
    def test_center_recovery(self, dense_lm):
        gamma = 5.0
        probes = np.linspace(4850.0, 4950.0, 60)
        target = lorentzian_density(4900.0, gamma, probes)

        def residual(p):
            return lorentzian_density(p[0], gamma, probes) - target

        def jacobian(p):
            detuning = probes - p[0]
            return (2.0 * gamma * detuning / (detuning**2 + gamma**2) ** 2)[:, None]

        x, *_ = dense_lm(residual, jacobian, np.array([4893.0]), 4850.0, 4950.0)
        assert abs(x[0] - 4900.0) < 1e-6


class TestRobustness:
    def test_bounds_projection(self, dense_lm):
        x, _, _, _, converged, _ = dense_lm(lambda x: x - 5.0, lambda x: np.eye(1),
                                            np.array([0.0]), -1.0, 2.0)
        assert x[0] == pytest.approx(2.0)
        assert converged

    def test_non_finite_at_start_rejected(self, dense_lm):
        with pytest.raises(InvalidParameterError):
            dense_lm(lambda x: np.array([np.nan]), lambda x: np.eye(1), np.array([1.0]))

    def test_divergence_carries_last_good_parameters(self, dense_lm):
        def residual(x):
            if x[0] > 2.0:
                return np.array([np.nan])
            return np.array([x[0] - 10.0])

        with pytest.raises(FitDivergedError) as exc:
            dense_lm(residual, lambda x: np.eye(1), np.array([0.0]))
        assert np.all(np.isfinite(exc.value.last_parameters))
        assert exc.value.last_parameters[0] <= 2.0

    def test_iteration_cap_flags_unconverged(self, dense_lm):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=8)
        *_, iterations, converged, _ = dense_lm(*linear_problem(a, b), np.zeros(5),
                                                max_iterations=1)
        assert not converged
        assert iterations == 1


class TestLmLoopCostTolerance:
    """The absolute cost-decrease stop of :func:`_lm_loop`."""

    @staticmethod
    def run(dense_lm, **kwargs):
        """A Rosenbrock valley with a third residual, so that the minimum
        cost is not 0, from the classic start (-1.2, 1).  Returns the loop's
        output and the (x, cost) of every linearisation: the accepted states."""
        seen = []

        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 0.5 * (x[0] + x[1]) - 0.3])

        def jacobian(x):
            r = residual(x)
            seen.append((x.copy(), float(r @ r)))
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0], [0.5, 0.5]])

        return dense_lm(residual, jacobian, np.array([-1.2, 1.0]), **kwargs), seen

    def test_zero_tolerance_keeps_the_bits_it_had_without_one(self, dense_lm):
        # recorded before the tolerance existed; like the tracker digests they
        # assume the same numpy and LAPACK build
        for kwargs in ({}, {"cost_atol": 0.0}):
            (x, _, cost, iterations, converged, _), _ = self.run(dense_lm, **kwargs)
            assert [v.hex() for v in x] == ["0x1.5c4f7f77ab7fep-1", "0x1.d88532697722dp-2"]
            assert cost.hex() == "0x1.67f7e5aa287b0p-3"
            assert iterations == 16 and converged

    # at 0.1 the stop comes at the 7th step, and larger decreases follow it
    @pytest.mark.parametrize("tol", [0.1, 1e-3])
    def test_stops_at_first_accepted_step_below_tolerance(self, dense_lm, tol):
        _, seen = self.run(dense_lm)
        costs = [c for _, c in seen]
        decreases = np.array(costs[:-1]) - np.array(costs[1:])
        stop = int(np.argmax(decreases < tol)) + 1     # the accepted state it ends in
        assert decreases[stop - 1] < tol and np.all(decreases[: stop - 1] >= tol)
        (x, _, cost, iterations, converged, _), seen_tol = self.run(dense_lm, cost_atol=tol)
        assert converged and iterations == stop == len(seen_tol)
        assert np.array_equal(x, seen[stop][0]) and cost == seen[stop][1]


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

    def test_matches_generic_lm_with_analytic_jacobian(self, dense_lm):
        rng = np.random.default_rng(8)
        truth = np.array([[1.0, 2.5, 0.7], [0.8, 0.3, 1.9]])
        data = (truth[0][:, None] * np.exp(-truth[1][:, None] * self.t)
                + 0.01 * rng.normal(size=(3, self.t.size)))
        # each data row from a near start, where every trial is accepted, and
        # from two far starts, whose rejected trials raise the damping before
        # accepted ones lower it: a change to either factor of the shared
        # schedule changes an iteration count
        rows = np.tile(np.arange(3), 3)
        x0 = np.array([[0.5, 1.0, 1.0, 9.0, 9.0, 9.0, 5.0, 5.0, 5.0],
                       [0.5, 1.0, 0.5, 9.0, 9.0, 9.0, 8.0, 8.0, 8.0]])
        lo, hi = 0.01, 10.0
        x, _, cost, iterations, converged = _damped_newton_2x2(
            x0, lo, hi, *self.decay_problems(data[rows]))
        assert np.all(converged)
        rejected = []
        for i, row in enumerate(rows):
            trials = []

            def residual(p):
                trials.append(p)
                return p[0] * np.exp(-p[1] * self.t) - data[row]

            def jacobian(p):
                e = np.exp(-p[1] * self.t)
                return np.stack([e, -p[0] * self.t * e], axis=1)

            want_x, _, want_cost, want_iterations, _, _ = dense_lm(
                residual, jacobian, x0[:, i], np.full(2, lo), np.full(2, hi))
            assert np.allclose(x[:, i], want_x, rtol=1e-9, atol=0.0)
            assert cost[i] <= want_cost * (1.0 + 1e-12) + 1e-15
            assert iterations[i] == want_iterations
            # one evaluation at the start and one per trial, of which at most
            # one per iteration is accepted
            rejected.append(len(trials) - 1 - want_iterations > 0)
        assert rejected[3:6] == [True] * 3

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
