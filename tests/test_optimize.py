import numpy as np
import pytest

from tlstrack.errors import (
    FitDivergedError,
    InvalidObjectiveError,
    InvalidParameterError,
)
from tlstrack.optimize import (
    FitOptions,
    LeastSquaresProblem,
    finite_difference_jacobian,
    grid_refine,
    grid_refine_1d,
    levenberg_marquardt,
    solve,
)
from tlstrack.tls import DeviceFrequencies, lorentzian_density


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
        result = solve(lambda x: a @ x - b, np.zeros(3),
                       options=FitOptions(max_iterations=3))
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
        result = solve(lambda x: a @ x - b, np.zeros(5),
                       options=FitOptions(max_iterations=1, gtol=0.0, ftol=0.0, xtol=0.0))
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


class TestGridRefine:
    def test_parabola(self):
        x = grid_refine_1d(lambda w: (w - 4900.0) ** 2, (4800.0, 5000.0), 21)
        assert abs(x - 4900.0) <= 1e-4

    def test_two_minima_picks_deeper(self):
        def objective(w):
            return min((w - 2.0) ** 2 + 0.5, 2.0 * (w - 8.0) ** 2)

        x = grid_refine_1d(objective, (0.0, 10.0), 41)
        assert abs(x - 8.0) <= 1e-4

    def test_never_worse_than_coarse_best(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            coeffs = rng.normal(size=4)

            def objective(w):
                return float(np.polyval(coeffs, w) + 0.05 * np.sin(7.0 * w))

            xs = np.linspace(-2.0, 2.0, 31)
            best_coarse = min(objective(float(v)) for v in xs)
            x = grid_refine_1d(objective, (-2.0, 2.0), 31)
            assert objective(x) <= best_coarse + 1e-12

    def test_single_tls_frequency_recovery(self):
        # two-channel relative-misfit objective around a known defect
        device = DeviceFrequencies(4822.08, -280.37)
        b, g, w_true = 9.9, 14.0, 4642.0
        g10 = b * lorentzian_density(w_true, g, device.omega_01)
        g21 = b * lorentzian_density(w_true, g, device.omega_12)

        def objective(w):
            m10 = b * lorentzian_density(w, g, device.omega_01)
            m21 = b * lorentzian_density(w, g, device.omega_12)
            return (1.0 - m10 / g10) ** 2 + (1.0 - m21 / g21) ** 2

        x = grid_refine_1d(objective, (device.omega_12, device.omega_01), 257)
        assert abs(x - w_true) <= 1e-3

    def test_matches_scalar_golden_section(self):
        # the batched search takes the same steps as the textbook scalar loop
        def reference(objective, lo, hi, n, tol):
            xs = np.linspace(lo, hi, n)
            fs = np.array([objective(float(x)) for x in xs])
            i = int(np.argmin(fs))
            a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n - 1)])
            golden = (5.0**0.5 - 1.0) / 2.0
            c, d = b - golden * (b - a), a + golden * (b - a)
            fc, fd = objective(c), objective(d)
            best_x, best_f = (c, fc) if fc <= fd else (d, fd)
            while b - a > tol:
                if fc <= fd:
                    b, d, fd = d, c, fc
                    c = b - golden * (b - a)
                    fc = objective(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + golden * (b - a)
                    fd = objective(d)
                if fc < best_f:
                    best_x, best_f = c, fc
                if fd < best_f:
                    best_x, best_f = d, fd
            return best_x if best_f < fs[i] else float(xs[i])

        rng = np.random.default_rng(12)
        for _ in range(20):
            coeffs = rng.normal(size=5)

            def objective(w):
                return float(np.polyval(coeffs, w) + 0.3 * np.cos(5.0 * w))

            for n, tol in ((3, 1e-4), (17, 1e-9), (40, 1e-2)):
                got = grid_refine_1d(objective, (-1.5, 2.0), n, tol)
                assert got == reference(objective, -1.5, 2.0, n, tol)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            grid_refine_1d(lambda w: w, (1.0, 1.0), 10)
        with pytest.raises(InvalidParameterError):
            grid_refine_1d(lambda w: w, (0.0, 1.0), 2)
        with pytest.raises(InvalidObjectiveError):
            grid_refine_1d(lambda w: float("nan"), (0.0, 1.0), 5)

    def test_batch_rejects_empty_interval(self):
        with pytest.raises(InvalidParameterError, match=r"hi > lo, got \(2.0, 2.0\)"):
            grid_refine(lambda w: w, np.array([0.0, 2.0, 3.0]), np.array([1.0, 2.0, 1.0]), 3)
