import dataclasses
import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from tlstrack.dynamics import DecayRates
from tlstrack.errors import InvalidParameterError, UndefinedCorrelationError
from tlstrack.synth import DriftProcess, Scenario, TlsTruth, bundled_scenario, \
    bundled_scenario_path, generate_trajectories, load_scenario, true_lifetime_series
from tlstrack import optimize, tracker
from tlstrack.cli import main
from tlstrack.tls import DeviceFrequencies, lorentzian_rates, rate_series
from tlstrack.tracker import (
    DEFAULT_TRACKER_CONFIG,
    LifetimeSeries,
    TrackerConfig,
    information_score,
    lifetime_correlation,
    reconstruct_trajectory,
    select_model,
    track_tls,
    write_correlation_csv,
    write_trajectory_csv,
)

DEVICE_A = DeviceFrequencies(4822.08, -280.37)
DEVICE_B = DeviceFrequencies(5810.32, -201.32)


def synthetic_series(device, truths, background, epochs=100, seed=5):
    sc = Scenario(
        name="synthetic",
        device=device,
        tls_truth=truths,
        background=background,
        epochs=epochs,
        epoch_spacing_hr=0.25,
        delays_us=np.geomspace(3.0, 600.0, 25),
        shots_per_delay=2000,
        exact_populations=True,
        master_seed=seed,
    )
    truth = generate_trajectories(sc)
    return true_lifetime_series(sc, truth), truth


@pytest.fixture(scope="module")
def single_tls_case():
    # one defect wandering between the transitions, nonzero floor
    truths = [
        TlsTruth(DriftProcess("ornstein_uhlenbeck", 4642.0, 9.6, 0.32, seed=11), 9.9, 14.0)
    ]
    series, truth = synthetic_series(DEVICE_A, truths, DecayRates(2.2e-3, 2.11e-3), 120)
    fit = track_tls(series, DEVICE_A, 1)
    return series, truth, fit


class TestLifetimeSeries:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LifetimeSeries(np.array([0.0, 0.0]), np.ones(2), np.ones(2))
        with pytest.raises(InvalidParameterError):
            LifetimeSeries(np.array([0.0, 1.0]), np.array([1.0, -1.0]), np.ones(2))
        with pytest.raises(InvalidParameterError):
            LifetimeSeries(np.array([0.0, 1.0]), np.ones(3), np.ones(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                LifetimeSeries(np.array([0.0, bad]), np.ones(2), np.ones(2))
            with pytest.raises(InvalidParameterError):
                LifetimeSeries(np.array([0.0, 1.0]), np.array([1.0, bad]), np.ones(2))
            with pytest.raises(InvalidParameterError):
                LifetimeSeries(np.array([0.0, 1.0]), np.ones(2), np.array([bad, 1.0]))
            with pytest.raises(InvalidParameterError):
                LifetimeSeries(np.array([0.0, 1.0]), np.ones(2), np.ones(2),
                               np.array([0.1, bad]), np.ones(2))
        # errors on one channel only would leave the fit silently unweighted
        for one_sided in ({"err_e_us": np.ones(2)}, {"err_f_us": np.ones(2)}):
            with pytest.raises(InvalidParameterError, match="both be given or both omitted"):
                LifetimeSeries(np.arange(2.0), np.ones(2), np.ones(2), **one_sided)

    def test_csv_round_trip(self, tmp_path):
        series = LifetimeSeries(
            np.array([0.0, 0.5, 1.0]),
            np.array([150.0, 140.0, 160.0]),
            np.array([60.0, 65.0, 58.0]),
            np.array([2.0, 2.1, 1.9]),
            np.array([1.0, 1.1, 0.9]),
        )
        path = tmp_path / "series.csv"
        series.to_csv(path)
        back = LifetimeSeries.from_csv(path)
        assert back.has_errors
        assert np.array_equal(back.t1e_us, series.t1e_us)
        assert np.array_equal(back.err_f_us, series.err_f_us)

    def test_csv_ignores_extra_columns(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "timestamp_hr,t1e_us,t1f_us,err_e,err_f,converged\n"
            "0.0,150.0,60.0,2.0,1.0,1\n"
            "0.5,140.0,65.0,2.0,1.0,1\n"
        )
        series = LifetimeSeries.from_csv(path)
        assert series.n_epochs == 2
        assert series.has_errors

    def test_csv_without_errors(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp_hr,t1e_us,t1f_us\n0.0,150.0,60.0\n1.0,140.0,61.0\n")
        assert not LifetimeSeries.from_csv(path).has_errors

    def test_csv_partly_blank_errors_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "timestamp_hr,t1e_us,t1f_us,err_e,err_f\n"
            "0.0,150.0,60.0,2.0,1.0\n"
            "0.5,140.0,65.0,2.0,\n"
            "1.0,145.0,62.0,2.0,\n"
        )
        with pytest.raises(InvalidParameterError, match=r"series\.csv: line 3: err_f"):
            LifetimeSeries.from_csv(path)


class TestCorrelation:
    def test_exact_anticorrelation(self):
        t1e = np.linspace(100.0, 200.0, 20)
        series = LifetimeSeries(np.arange(20.0), t1e, 300.0 - 1.2 * t1e)
        assert lifetime_correlation(series) == pytest.approx(-1.0, abs=1e-12)

    def test_independent_noise_uncorrelated(self):
        rng = np.random.default_rng(17)
        series = LifetimeSeries(
            np.arange(1000.0),
            100.0 + rng.normal(size=1000),
            60.0 + rng.normal(size=1000),
        )
        assert abs(lifetime_correlation(series)) < 0.1

    def test_single_tls_series_anticorrelated(self, single_tls_case):
        series, _, _ = single_tls_case
        assert lifetime_correlation(series) <= -0.8

    def test_zero_variance_rejected(self):
        series = LifetimeSeries(np.arange(3.0), np.full(3, 100.0), np.array([60.0, 61.0, 62.0]))
        with pytest.raises(UndefinedCorrelationError):
            lifetime_correlation(series)

    def test_too_few_epochs(self):
        series = LifetimeSeries(np.arange(2.0), np.array([100.0, 101.0]), np.array([60.0, 61.0]))
        with pytest.raises(InvalidParameterError):
            lifetime_correlation(series)


class TestSingleTlsTracking:
    def test_trajectory_recovery(self, single_tls_case):
        _, truth, fit = single_tls_case
        w_fit = fit.parameters.defects[0].trajectory_mhz
        rms = np.sqrt(np.mean((w_fit - truth.defects[0].trajectory_mhz) ** 2))
        assert rms <= 0.5

    def test_linewidth_recovery(self, single_tls_case):
        _, _, fit = single_tls_case
        assert fit.parameters.defects[0].linewidth_mhz == pytest.approx(14.0, rel=0.10)

    def test_forward_inverse_consistency(self, single_tls_case):
        series, _, fit = single_tls_case
        g10, g21 = fit.fitted_rates
        assert np.max(np.abs(1.0 - g10 * series.t1e_us)) <= 1e-3
        assert np.max(np.abs(1.0 - g21 * series.t1f_us)) <= 1e-3

    def test_anticorrelation_of_fitted_lifetimes(self):
        # zero-background model on zero-background truth: fitted lifetime
        # channels must anti-correlate while the defect stays between the
        # transitions
        truths = [
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 4660.0, 8.0, 0.32, seed=3), 9.0, 12.0)
        ]
        series, _ = synthetic_series(DEVICE_A, truths, DecayRates(0.0, 0.0), 60)
        cfg = TrackerConfig(fit_background=False)
        fit = track_tls(series, DEVICE_A, 1, cfg)
        w = fit.parameters.defects[0].trajectory_mhz
        assert np.all(w > DEVICE_A.omega_12) and np.all(w < DEVICE_A.omega_01)
        g10, g21 = fit.fitted_rates
        r = np.corrcoef(1.0 / g10, 1.0 / g21)[0, 1]
        assert r < 0.0

    def test_constant_series_constant_trajectory(self):
        truths = [TlsTruth(DriftProcess("static", 4650.0), 9.9, 14.0)]
        series, _ = synthetic_series(DEVICE_A, truths, DecayRates(1e-3, 1e-3), 30)
        fit = track_tls(series, DEVICE_A, 1)
        w = fit.parameters.defects[0].trajectory_mhz
        assert np.max(w) - np.min(w) <= 2e-3

    def test_mirror_tiebreak_prefers_continuity(self):
        # defect close to omega_01: the f channel barely discriminates the
        # mirror image, so continuity must keep the trajectory on one side
        truths = [
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 4814.0, 2.0, 0.32, seed=9), 0.8, 10.0)
        ]
        series, truth = synthetic_series(DEVICE_A, truths, DecayRates(1e-3, 1e-2), 80)
        fit = track_tls(series, DEVICE_A, 1)
        w = fit.parameters.defects[0].trajectory_mhz
        side = np.sign(w - DEVICE_A.omega_01)
        assert np.all(side == side[0])
        tv_fit = np.sum(np.abs(np.diff(w)))
        mirrored = 2.0 * DEVICE_A.omega_01 - w
        tv_mirror = np.sum(np.abs(np.diff(mirrored)))
        assert tv_fit <= tv_mirror + 1e-9


@pytest.fixture(scope="module")
def two_tls_case():
    truths = [
        TlsTruth(DriftProcess("ornstein_uhlenbeck", 5770.32, 6.235, 0.24, seed=21), 1.0, 12.0),
        TlsTruth(DriftProcess("static", 5639.0), 1.0, 10.0),
    ]
    series, truth = synthetic_series(DEVICE_B, truths, DecayRates(0.0, 0.0), 100, seed=9)
    fit = track_tls(series, DEVICE_B, 2)
    return series, truth, fit


class TestTwoTlsTracking:
    def test_static_defect_recovered(self, two_tls_case):
        _, truth, fit = two_tls_case
        w2 = fit.parameters.defects[1].trajectory_mhz
        assert np.sqrt(np.mean((w2 - 5639.0) ** 2)) <= 1.0

    def test_stable_t1f_reproduced(self, two_tls_case):
        series, _, fit = two_tls_case
        _, g21 = fit.fitted_rates
        t1f_fit = 1.0 / g21
        assert np.std(t1f_fit) / np.mean(t1f_fit) < 0.02
        assert np.max(np.abs(t1f_fit / series.t1f_us - 1.0)) < 0.02

    def test_two_distinct_stable_trajectories(self, two_tls_case):
        _, _, fit = two_tls_case
        w1 = fit.parameters.defects[0].trajectory_mhz
        w2 = fit.parameters.defects[1].trajectory_mhz
        # labels stay put: trajectories never cross
        assert np.all(w1 > w2 + 50.0)

    def test_label_permutation_leaves_rates_unchanged(self, two_tls_case):
        _, _, fit = two_tls_case
        params = fit.parameters
        swapped = type(params)(defects=params.defects[::-1], background=params.background)
        g10a, g21a = rate_series(params, DEVICE_B)
        g10b, g21b = rate_series(swapped, DEVICE_B)
        # equal up to floating-point addition reordering
        assert np.allclose(g10a, g10b, rtol=1e-14, atol=0)
        assert np.allclose(g21a, g21b, rtol=1e-14, atol=0)


def epoch_cost_function(ws, coupling, linewidth, bg):
    """cost(freqs, e): epoch e's squared two-channel misfit at frequencies of
    shape (order, ...), written out independently of the tracker."""
    def cost(freqs, e):
        g10, g21 = lorentzian_rates(ws.device, coupling, linewidth, freqs, bg,
                                    ws.config.f_multiplier)
        return ((ws.w_e[e] * (1.0 - g10 / ws.g10_meas[e])) ** 2
                + (ws.w_f[e] * (1.0 - g21 / ws.g21_meas[e])) ** 2)

    return cost


def select_candidate(cands, ref):
    """The continuity rule on one epoch's (x, cost) list: of the candidates
    within the tie band of the best cost, the nearest (L1) the reference;
    first wins on ties."""
    fbest = min(f for _, f in cands)
    near = [(x, f) for x, f in cands if f <= fbest * (1.0 + tracker.TIE_REL) + tracker.TIE_ABS]
    return min(near, key=lambda c: float(np.sum(np.abs(c[0] - ref))))[0]


def reference_solve_epochs(ws, coupling, linewidth, bg, prev_traj, solve):
    """Stage (i) one epoch at a time, then the continuity selection.
    ``solve(e)`` gives epoch e's candidates.  Returns the trajectory and each
    epoch's best candidate cost."""
    traj, best = np.empty((ws.order, ws.n)), np.empty(ws.n)
    ref = prev_traj[:, 0].copy()
    for e in range(ws.n):
        cands = solve(e)
        ref = traj[:, e] = select_candidate(cands, ref)
        best[e] = min(f for _, f in cands)
    return traj, best


GRID_POINTS_2D = 60     # per-axis size of the reference two-defect seed grid
GRID_SEEDS_2D = 4       # best separated grid points that seed the reference solve


def grid_seeded(ws, coupling, linewidth, bg, prev_traj, solve_pair):
    """An independent two-defect epoch solve: one ``solve_pair(e, start)``
    candidate per start, the starts being the ``GRID_SEEDS_2D`` best points
    of a ``GRID_POINTS_2D`` x ``GRID_POINTS_2D`` grid over the band that lie
    more than 1.5 cells (max norm) apart, plus the previous pair."""
    cost = epoch_cost_function(ws, coupling, linewidth, bg)
    m = GRID_POINTS_2D
    axis = np.linspace(ws.band[0], ws.band[1], m)
    w1, w2 = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([w1.ravel(), w2.ravel()])
    cell = (ws.band[1] - ws.band[0]) / (m - 1)

    def solve(e):
        seeds = []
        for i in np.argsort(cost(grid, e)):
            if all(np.max(np.abs(grid[:, i] - s)) > 1.5 * cell for s in seeds):
                seeds.append(grid[:, i])
            if len(seeds) >= GRID_SEEDS_2D:
                break
        seeds.append(prev_traj[:, e])
        return [solve_pair(e, seed) for seed in seeds]

    return solve


def bounded_scalar_minima(ws, coupling, linewidth, bg, points=257):
    """An independent one-defect solve: every local minimum of a uniform
    grid, each refined by scipy's bounded scalar search between its grid
    neighbours (the better of the two points is kept)."""
    cost = epoch_cost_function(ws, coupling, linewidth, bg)
    xs = np.linspace(ws.band[0], ws.band[1], points)

    def solve(e):
        fs = cost(xs[None, :], e)
        padded = np.concatenate([[np.inf], fs, [np.inf]])
        minima = [i for i in range(points) if fs[i] <= min(padded[i], padded[i + 2])]
        cands = []
        for i in minima:
            result = minimize_scalar(lambda w: float(cost(np.array([[w]]), e)[0]),
                                     bounds=(xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]),
                                     method="bounded", options={"xatol": 1e-7})
            x, f = (result.x, result.fun) if result.fun < fs[i] else (xs[i], fs[i])
            cands.append((np.array([x]), float(f)))
        return cands

    return solve


def one_epoch_workspaces(ws, coupling, linewidth, bg, prev_traj):
    """The tracker's epoch solve on a workspace holding epoch e alone."""
    s = ws.series

    def solve(e):
        one = slice(e, e + 1)
        series = LifetimeSeries(s.epochs_hr[one], s.t1e_us[one], s.t1f_us[one],
                                s.err_e_us[one], s.err_f_us[one])
        alone = tracker._Workspace(series, ws.device, ws.order, ws.config)
        if ws.order == 1:
            _, x, f = tracker._candidates_1d(alone, coupling, linewidth, bg)
        else:
            _, x, f = tracker._candidates_2d(alone, coupling, linewidth, bg, prev_traj[:, one])
        return [(x[:, j], float(f[j])) for j in range(f.size)]

    return solve


def scalar_lm_pair(dense_lm, ws, coupling, linewidth, bg):
    """Scalar bounded LM on one epoch's two frequencies, with the analytic
    Jacobian written out independently of the tracker."""
    cfg = ws.config
    lo, hi = np.full(2, ws.band[0]), np.full(2, ws.band[1])

    def solve_pair(e, seed):
        def residual(p):
            g10, g21 = lorentzian_rates(ws.device, coupling, linewidth, p[:, None], bg,
                                        cfg.f_multiplier)
            return np.array([ws.w_e[e] * (1.0 - g10[0] / ws.g10_meas[e]),
                             ws.w_f[e] * (1.0 - g21[0] / ws.g21_meas[e])])

        def jacobian(p):
            de, df = ws.device.omega_01 - p, ws.device.omega_12 - p
            g2 = linewidth**2
            dg10 = 2.0 * coupling * linewidth * de / (de**2 + g2) ** 2
            dg21 = 2.0 * cfg.f_multiplier * coupling * linewidth * df / (df**2 + g2) ** 2
            return np.array([-ws.w_e[e] / ws.g10_meas[e] * dg10,
                             -ws.w_f[e] / ws.g21_meas[e] * dg21])

        x, _, cost, _, _, _ = dense_lm(residual, jacobian, np.clip(seed, lo, hi), lo, hi, 100)
        return x, cost

    return solve_pair


def epoch_solve_cases(order):
    """Fixed globals (perturbed starts) and previous trajectories on a small
    noisy two-defect series; last, the first start with the floor at its
    upper bound, where epoch 3 has the smallest rate in both channels."""
    ws = floor_workspace(order)
    for k, (glob, traj) in enumerate(tracker._initial_states(ws)):
        coupling, linewidth, bg = ws.unpack_globals(glob * (1.0 + 0.3 * k))
        yield ws, coupling, linewidth, bg, traj + 7.0 * k
    ws = floor_workspace(order, floor_epoch=3)
    glob, traj = tracker._initial_states(ws)[0]
    coupling, linewidth, _ = ws.unpack_globals(glob)
    yield ws, coupling, linewidth, ws.global_bounds()[1][ws.n_globals - 2:], traj


def floor_workspace(order, floor_epoch=None):
    """The small noisy series of :func:`epoch_solve_cases`; ``floor_epoch``
    gets the longest lifetimes in both channels, so a floor at its upper
    bound equals that epoch's measured rates."""
    truths = [
        TlsTruth(DriftProcess("ornstein_uhlenbeck", 5770.32, 6.235, 0.24, seed=21), 1.0, 12.0),
        TlsTruth(DriftProcess("ornstein_uhlenbeck", 5639.0, 3.0, 0.3, seed=22), 0.8, 10.0),
    ]
    clean, _ = synthetic_series(DEVICE_B, truths, DecayRates(1e-3, 2e-3), 12, seed=4)
    rng = np.random.default_rng(8)
    t1e = clean.t1e_us * (1.0 + 0.02 * rng.standard_normal(12))
    t1f = clean.t1f_us * (1.0 + 0.02 * rng.standard_normal(12))
    if floor_epoch is not None:
        t1e[floor_epoch], t1f[floor_epoch] = 1.2 * t1e.max(), 1.2 * t1f.max()
    series = LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.02 * t1e, 0.02 * t1f)
    return tracker._Workspace(series, DEVICE_B, order, TrackerConfig())


def second_start_case():
    """The ``track_digest`` series at its second order-2 start, which clips
    defect 1's coupling to its lower bound, and that start's trajectory."""
    series, scenario = digest_series()
    ws = tracker._Workspace(series, scenario.device, 2, DEFAULT_TRACKER_CONFIG)
    glob, traj = tracker._initial_states(ws)[1]
    return (ws, *ws.unpack_globals(glob), traj)


class TestBatchedEpochSolves:
    @pytest.mark.parametrize("order", [1, 2])
    def test_bit_identical_to_one_epoch_at_a_time(self, order):
        cases = list(epoch_solve_cases(order))
        if order == 2:
            ws, coupling, linewidth, bg, traj = second_start_case()
            cases.append((ws, coupling, linewidth, bg, traj))
        for ws, coupling, linewidth, bg, prev in cases:
            got = tracker._solve_epochs(ws, coupling, linewidth, bg, prev)
            want, _ = reference_solve_epochs(ws, coupling, linewidth, bg, prev,
                                             one_epoch_workspaces(ws, coupling, linewidth, bg,
                                                                  prev))
            assert got.tobytes() == want.tobytes()

    def test_order2_best_cost_not_above_scalar_lm(self, dense_lm):
        for ws, coupling, linewidth, bg, prev in epoch_solve_cases(2):
            epochs, _, f = tracker._candidates_2d(ws, coupling, linewidth, bg, prev)
            got = best_costs(ws.n, epochs, f)
            _, want = reference_solve_epochs(
                ws, coupling, linewidth, bg, prev,
                grid_seeded(ws, coupling, linewidth, bg, prev,
                            scalar_lm_pair(dense_lm, ws, coupling, linewidth, bg)))
            assert np.all(got <= want * (1.0 + 1e-12) + 1e-15)

    def test_no_exact_solution_falls_back_near_one_defect_minimum(self):
        # with defect 1's coupling at 1e-10, no epoch has an exact solution,
        # and the least-squares minimum is all but the exact one-defect
        # minimum of defect 2 alone
        ws, coupling, linewidth, bg, traj = second_start_case()
        assert coupling[0] == ws.config.coupling_bounds[0]
        epochs, _, f = tracker._candidates_2d(ws, coupling, linewidth, bg, traj)
        got = best_costs(ws.n, epochs, f)
        one = tracker._Workspace(ws.series, ws.device, 1, ws.config)
        e1, _, f1 = tracker._candidates_1d(one, coupling[1:], linewidth[1:], bg)
        want = best_costs(ws.n, e1, f1)
        assert np.all(got > tracker.TIE_ABS)
        assert np.all(got <= want * 1.002)

    def test_each_start_solved_once(self, monkeypatch):
        # at the floor's upper bound, epoch 3's leading coefficients vanish, so
        # its dropped-coefficient roots repeat exact starts, and with conjugate
        # pairs and clipped roots they repeat fallback starts
        *_, (ws, coupling, linewidth, bg, prev) = epoch_solve_cases(2)
        calls = []
        solve = tracker._solve_frequency_pairs

        def recording(ws, coupling, linewidth, bg, epochs, x):
            calls.append((epochs.copy(), x.copy()))
            return solve(ws, coupling, linewidth, bg, epochs, x)

        monkeypatch.setattr(tracker, "_solve_frequency_pairs", recording)
        tracker._candidates_2d(ws, coupling, linewidth, bg, prev)
        assert len(calls) == 2 and 3 in calls[1][0]
        for epochs, x in calls:
            pairs = np.column_stack([epochs, x.T])
            assert len(np.unique(pairs, axis=0)) == len(pairs)

    def test_candidate_memory_does_not_grow_with_epochs(self):
        def peak(epochs):
            scenario = dataclasses.replace(bundled_scenario("device_B"), epochs=epochs)
            ws = tracker._Workspace(true_lifetime_series(scenario), scenario.device, 2,
                                    DEFAULT_TRACKER_CONFIG)
            glob, traj = tracker._initial_states(ws)[0]
            tracemalloc.start()
            try:
                tracker._candidates_2d(ws, *ws.unpack_globals(glob), traj)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a (400, 3600) grid of costs alone would take 11.5 MB; the roots'
        # and candidates' own arrays grow by about 2.3 kB an epoch
        assert peak(400) - peak(100) < 1e6


def select_from(monkeypatch, epochs, x, f, prev_traj):
    """``_solve_epochs``'s pick from hand-made candidates after ``prev_traj``:
    ``x`` has one row per defect and one column per candidate of ``epochs``."""
    x = np.array(x, dtype=float)
    ws = SimpleNamespace(order=x.shape[0], n=max(epochs) + 1)
    made = (np.array(epochs), x, np.array(f, dtype=float))
    monkeypatch.setattr(tracker, "_candidates_1d" if ws.order == 1 else "_candidates_2d",
                        lambda *args: made)
    return tracker._solve_epochs(ws, None, None, None, np.array(prev_traj, dtype=float))


class TestCandidateSelection:
    def test_single_candidate_in_tie_band_ignores_previous(self, monkeypatch):
        # the candidate at 0.0 sits on the previous pick but costs 10% more
        got = select_from(monkeypatch, [0, 0], [[10.0, 0.0]], [1.0, 1.1], [[0.0]])
        assert got.tolist() == [[10.0]]

    def test_tie_goes_to_nearest_previous_pick(self, monkeypatch):
        got = select_from(monkeypatch, [0, 0], [[10.0, 0.0]], [1.0, 1.04], [[1.0]])
        assert got.tolist() == [[0.0]]

    def test_equal_cost_and_distance_first_wins(self, monkeypatch):
        got = select_from(monkeypatch, [0, 0], [[-1.0, 1.0]], [1.0, 1.0], [[0.0]])
        assert got.tolist() == [[-1.0]]
        got = select_from(monkeypatch, [0, 0], [[1.0, -1.0]], [1.0, 1.0], [[0.0]])
        assert got.tolist() == [[1.0]]

    def test_order_2_distance_sums_both_frequencies(self, monkeypatch):
        # epoch 0 from (0, 0): (0, 3) is nearer in L1 though (2, 2) is nearer
        # in the max or Euclidean norm; epoch 1 from (0, 3): (0.5, 3) is
        # nearer in L1 though (0, 4) matches the first frequency
        got = select_from(monkeypatch, [0, 0, 1, 1],
                          [[2.0, 0.0, 0.0, 0.5], [2.0, 3.0, 4.0, 3.0]],
                          [1.0, 1.0, 1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        assert got.tolist() == [[0.0, 0.5], [3.0, 3.0]]

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_the_rule_epoch_by_epoch(self, monkeypatch, order):
        # one to five candidates an epoch on a small integer grid, so ties
        # in cost and in distance are common
        rng = np.random.default_rng(order)
        prev = rng.integers(0, 4, (order, 1))
        epochs = np.repeat(np.arange(40), rng.integers(1, 6, 40))
        x = rng.integers(0, 4, (order, epochs.size)).astype(float)
        f = rng.choice([1.0, 1.02, 1.2], epochs.size)
        got = select_from(monkeypatch, epochs.tolist(), x, f, prev)
        ref, want = prev[:, 0], []
        for e in range(40):
            ref = select_candidate([(x[:, i], f[i]) for i in np.flatnonzero(epochs == e)], ref)
            want.append(ref)
        assert got.tobytes() == np.array(want).T.tobytes()


def best_costs(n, epochs, costs):
    best = np.full(n, np.inf)
    np.minimum.at(best, epochs, costs)
    return best


def assert_not_above_bounded_scalar(ws, coupling, linewidth, bg):
    """Every exact candidate is a local minimum in the band, and every
    epoch's best costs no more than the best of the grid-plus-bounded-search
    comparator."""
    epochs, x, f = tracker._candidates_1d(ws, coupling, linewidth, bg)
    assert np.all(np.isfinite(f)) and np.all((x >= ws.band[0]) & (x <= ws.band[1]))
    cost = epoch_cost_function(ws, coupling, linewidth, bg)
    for step in (-1e-3, 1e-3):
        assert np.all(cost(np.clip(x + step, *ws.band), epochs) >= f * (1.0 - 1e-9) - 1e-15)
    solve = bounded_scalar_minima(ws, coupling, linewidth, bg)
    want = np.array([min(f for _, f in solve(e)) for e in range(ws.n)])
    assert np.all(best_costs(ws.n, epochs, f) <= want * (1.0 + 1e-9) + 1e-15)


class TestExactOneDefectSolve:
    def test_noiseless_recovery_at_true_globals(self):
        b, g, bg = np.array([9.9]), np.array([14.0]), np.array([0.0, 0.0])
        truth = np.array([[4642.0, 4600.0, 4700.0, 4560.0, 4850.0]])
        g10, g21 = lorentzian_rates(DEVICE_A, b, g, truth, bg)
        series = LifetimeSeries(np.arange(5.0), 1.0 / g10, 1.0 / g21)
        ws = tracker._Workspace(series, DEVICE_A, 1, DEFAULT_TRACKER_CONFIG)
        epochs, x, f = tracker._candidates_1d(ws, b, g, bg)
        # candidates come in increasing cost, so an epoch's first is its best
        first = np.unique(epochs, return_index=True)[1]
        assert np.max(np.abs(x[0, first] - truth[0])) <= 1e-6

    def test_initial_states_not_above_bounded_scalar(self):
        for ws, coupling, linewidth, bg, _ in epoch_solve_cases(1):
            assert_not_above_bounded_scalar(ws, coupling, linewidth, bg)

    def test_floor_at_upper_bound(self):
        # epoch 3 has the smallest rate in both channels, so a floor at its
        # upper bound zeroes that epoch's leading coefficient
        ws = floor_workspace(1, floor_epoch=3)
        _, hi = ws.global_bounds()
        assert hi[2] == ws.g10_meas[3] and hi[3] == ws.g21_meas[3]
        for glob, _ in tracker._initial_states(ws):
            coupling, linewidth, _ = ws.unpack_globals(glob)
            assert_not_above_bounded_scalar(ws, coupling, linewidth, hi[2:])

    @pytest.mark.parametrize("linewidth", [0.05, 500.0])
    def test_linewidth_at_bound(self, linewidth):
        ws = floor_workspace(1)
        assert linewidth in ws.config.linewidth_bounds_mhz
        for coupling in (1e-3, 0.3, 30.0):
            assert_not_above_bounded_scalar(ws, np.array([coupling * linewidth]),
                                            np.array([linewidth]), np.array([1e-3, 2e-3]))

    @settings(max_examples=30, deadline=None)
    @example(coupling=10.0 ** (-3.5), linewidth=0.05, floor=(0.0, 1.0))
    @given(coupling=st.one_of(st.sampled_from(TrackerConfig().coupling_bounds),
                              st.floats(-10.0, 8.0).map(lambda v: 10.0**v)),
           linewidth=st.one_of(st.sampled_from(TrackerConfig().linewidth_bounds_mhz),
                               st.floats(np.log10(0.05), np.log10(500.0)).map(lambda v: 10.0**v)),
           floor=st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2))
    def test_property_not_above_bounded_scalar(self, coupling, linewidth, floor):
        # floor (1, 1) puts the floor at its upper bound: epoch 5's rates
        ws = floor_workspace(1, floor_epoch=5)
        lo, hi = ws.global_bounds()
        assert_not_above_bounded_scalar(ws, np.clip([coupling], lo[0], hi[0]),
                                        np.clip([linewidth], lo[1], hi[1]),
                                        np.array(floor) * hi[2:])


class TestExactTwoDefectSolve:
    coupling, linewidth, bg = np.array([1.0, 0.8]), np.array([12.0, 10.0]), np.array([1e-3, 2e-3])

    def test_noiseless_recovery_at_true_globals(self):
        truth = np.array([[5770.0, 5775.5, 5768.2, 5790.0], [5639.0, 5641.0, 5630.0, 5650.0]])
        g10, g21 = lorentzian_rates(DEVICE_B, self.coupling, self.linewidth, truth, self.bg)
        series = LifetimeSeries(np.arange(4.0), 1.0 / g10, 1.0 / g21)
        ws = tracker._Workspace(series, DEVICE_B, 2, DEFAULT_TRACKER_CONFIG)
        prev = np.vstack([np.full(ws.n, 5700.0), np.full(ws.n, 5650.0)])
        epochs, x, f = tracker._candidates_2d(ws, self.coupling, self.linewidth, self.bg, prev)
        assert np.all(best_costs(ws.n, epochs, f) <= 1e-20)
        # every exact solution is a candidate, the true pair among them
        dist = np.full(ws.n, np.inf)
        np.minimum.at(dist, epochs, np.max(np.abs(x - truth[:, epochs]), axis=0))
        assert np.all(dist <= 1e-6)
        assert np.all(np.bincount(epochs) <= 8)

    def test_row_wise_products_match_numpy(self):
        rng = np.random.default_rng(9)
        p, q = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        prod = tracker._polymul(p, q)
        for i in range(5):
            assert np.allclose(prod[i], np.polymul(p[i], q[i]), rtol=1e-14, atol=1e-14)
        # the same bits as a sum of zero-padded shifted products, in the same order
        padded = sum(np.pad(p[:, i, None] * q, ((0, 0), (i, 2 - i))) for i in range(3))
        assert np.array_equal(prod, padded)

    def test_roots_drop_leading_zeros(self):
        # (u - 1)(u - 2) written with two leading zeros, next to a full row
        coef = np.array([[0.0, 0.0, 1.0, -3.0, 2.0], [1.0, -10.0, 35.0, -50.0, 24.0]])
        roots = tracker._polynomial_roots(coef)
        assert np.allclose(np.sort(roots.real, axis=1), [[0, 0, 1, 2], [1, 2, 3, 4]])
        assert np.all(roots.imag == 0.0)

    @settings(max_examples=30, deadline=None)
    @example(coupling=(1e-10, 1e8), linewidth=(0.05, 500.0), floor=(1.0, 1.0))
    @given(coupling=st.tuples(*[st.floats(-10.0, 8.0).map(lambda v: 10.0**v)] * 2),
           linewidth=st.tuples(*[st.floats(np.log10(0.05), np.log10(500.0))
                                 .map(lambda v: 10.0**v)] * 2),
           floor=st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2))
    def test_property_never_above_the_fallback_starts(self, coupling, linewidth, floor):
        # floor (1, 1) puts the floor at its upper bound: epoch 5's rates
        ws = floor_workspace(2, floor_epoch=5)
        lo, hi = ws.global_bounds()
        coupling = np.clip(coupling, lo[0], hi[0])
        linewidth = np.clip(linewidth, lo[1], hi[1])
        bg = np.array(floor) * hi[4:]
        prev = np.vstack([np.full(ws.n, 5700.0), np.full(ws.n, 5650.0)])
        epochs, x, f = tracker._candidates_2d(ws, coupling, linewidth, bg, prev)
        assert np.all(np.diff(epochs) >= 0) and np.array_equal(np.unique(epochs), np.arange(ws.n))
        assert np.all(np.isfinite(f)) and np.all((x >= ws.band[0]) & (x <= ws.band[1]))
        # an epoch without an exact solution does no worse than its fixed starts
        marks = [ws.band[0], DEVICE_B.omega_12, DEVICE_B.omega_01, ws.band[1]]
        starts = np.concatenate([np.reshape(np.meshgrid(marks, marks), (2, 16)), prev[:, :1]],
                                axis=1)
        cost = epoch_cost_function(ws, coupling, linewidth, bg)
        start_best = np.min(cost(starts[:, None, :], np.arange(ws.n)[:, None]), axis=1)
        best = best_costs(ws.n, epochs, f)
        assert np.all((best <= tracker.TIE_ABS) | (best <= start_best))


class TestFrequencyPairSolve:
    coupling, linewidth, bg = np.array([1.0, 0.8]), np.array([12.0, 10.0]), np.array([1e-3, 2e-3])
    truth = np.array([[5770.0, 5775.5, 5768.2, 5790.0], [5639.0, 5641.0, 5630.0, 5650.0]])

    def workspace(self, truth, config=DEFAULT_TRACKER_CONFIG, lift_e=1.0):
        g10, g21 = lorentzian_rates(DEVICE_B, self.coupling, self.linewidth, truth, self.bg)
        series = LifetimeSeries(np.arange(truth.shape[1], dtype=float), 1.0 / (lift_e * g10),
                                1.0 / g21)
        return tracker._Workspace(series, DEVICE_B, 2, config)

    def solve(self, ws, epochs, x0):
        return tracker._solve_frequency_pairs(ws, self.coupling, self.linewidth, self.bg,
                                              epochs, x0)

    def start_cost(self, ws, epochs, x0):
        g10, g21 = lorentzian_rates(DEVICE_B, self.coupling, self.linewidth, x0, self.bg)
        return ws.epoch_cost(g10, g21, epochs)

    @pytest.mark.parametrize("offset", [(3.0, -3.0), (-4.0, 2.0), (5.0, 5.0)])
    def test_noiseless_starts_reach_truth(self, offset):
        ws = self.workspace(self.truth)
        x, _ = self.solve(ws, np.arange(4), self.truth + np.array(offset)[:, None])
        assert np.max(np.abs(x - self.truth)) <= 1e-6

    def test_outward_gradient_stays_on_band_edge(self):
        # defect 0 sits above the band, so the cost falls outward from its edge
        truth = np.array([[5830.0, 5835.0], [5639.0, 5645.0]])
        ws = self.workspace(truth, TrackerConfig(band_margin_mhz=10.0))
        x0 = np.array([[ws.band[1], ws.band[1]], [5639.0, 5645.0]])
        x, cost = self.solve(ws, np.arange(2), x0)
        assert np.all(x[0] == ws.band[1])
        assert np.all(cost <= self.start_cost(ws, np.arange(2), x0))

    @settings(max_examples=60, deadline=None)
    @given(starts=st.lists(st.tuples(*[st.floats(*TrackerConfig().band(DEVICE_B))] * 2,
                                     st.integers(0, 3)), min_size=1, max_size=8))
    def test_property_cost_never_rises_and_stays_in_band(self, starts):
        # a 3% lift on the measured Gamma10 leaves every problem a non-zero cost
        ws = self.workspace(self.truth, lift_e=1.03)
        data = np.array(starts)
        x0, epochs = data[:, :2].T, data[:, 2].astype(int)
        x, cost = self.solve(ws, epochs, x0)
        assert np.all(cost <= self.start_cost(ws, epochs, x0))
        assert np.all((x >= ws.band[0]) & (x <= ws.band[1]))


def seven_epoch_series():
    """A small noisy two-defect series with reported errors."""
    truths = [
        TlsTruth(DriftProcess("ornstein_uhlenbeck", 5770.32, 6.235, 0.24, seed=21), 1.0, 12.0),
        TlsTruth(DriftProcess("ornstein_uhlenbeck", 5639.0, 3.0, 0.3, seed=22), 0.8, 10.0),
    ]
    clean, _ = synthetic_series(DEVICE_B, truths, DecayRates(1e-3, 2e-3), 7, seed=4)
    rng = np.random.default_rng(3)
    t1e = clean.t1e_us * (1.0 + 0.02 * rng.standard_normal(7))
    t1f = clean.t1f_us * (1.0 + 0.02 * rng.standard_normal(7))
    return LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.02 * t1e, 0.02 * t1f)


def joint_cases():
    """(workspace, globals, trajectory) for both orders, with and without a
    fitted floor, each also with the linewidth at its lower bound and one
    frequency on the band's lower edge."""
    series = seven_epoch_series()
    for order in (1, 2):
        for fit_background in (True, False):
            ws = tracker._Workspace(series, DEVICE_B, order,
                                    TrackerConfig(fit_background=fit_background))
            lo, hi = ws.global_bounds()
            glob, traj = tracker._initial_states(ws)[0]
            traj = tracker._solve_epochs(ws, *ws.unpack_globals(glob), traj)
            glob = np.clip(1.3 * glob, lo, hi)
            if fit_background:
                glob[-2:] = 0.3 * hi[-2:]
            yield ws, glob, traj
            glob, traj = glob.copy(), traj.copy()
            glob[1], traj[0, 3] = lo[1], ws.band[0]
            yield ws, glob, traj


def dense_normal_equations(ws, normal):
    """JᵀJ and Jᵀr assembled densely from the arrow pieces, parameters in
    the order globals, then the trajectory defect by defect."""
    u, v, w, grad_g, grad_w = normal
    g, n, k = ws.n_globals, ws.n, ws.order
    m = np.zeros((g + k * n, g + k * n))
    m[:g, :g] = u
    for e in range(n):
        idx = g + np.arange(k) * n + e
        m[np.ix_(idx, idx)] = v[e]
        m[:g, idx] = w[e]
        m[idx, :g] = w[e].T
    return m, np.concatenate([grad_g, grad_w.T.ravel()])


def finite_difference_jacobian(ws, glob, traj):
    """The dense joint Jacobian by central differences of ``_Workspace.residuals``."""
    def residuals(g, w):
        return ws.residuals(*ws.unpack_globals(g), w)

    g, n, k = ws.n_globals, ws.n, ws.order
    jac = np.zeros((2 * n, g + k * n))
    for i in range(g):
        step = np.zeros(g)
        step[i] = 1e-6 * max(abs(glob[i]), 1e-6)
        jac[:, i] = (residuals(glob + step, traj) - residuals(glob - step, traj)) / (2 * step[i])
    for j in range(k):
        step = np.zeros_like(traj)
        step[j] = 1e-4
        # a frequency moves only its own epoch's two residuals
        col = (residuals(glob, traj + step) - residuals(glob, traj - step)) / 2e-4
        for e in range(n):
            jac[2 * e : 2 * e + 2, g + j * n + e] = col[2 * e : 2 * e + 2]
    return jac


class TestJointUpdate:
    def test_pieces_match_finite_differences(self):
        for ws, glob, traj in joint_cases():
            r = ws.residuals(*ws.unpack_globals(glob), traj)
            m, grad = dense_normal_equations(ws, tracker._normal_equations(ws, glob, traj, r))
            jac = finite_difference_jacobian(ws, glob, traj)
            # entries of a Gram matrix are bounded by sqrt(m_ii m_jj), of Jᵀr
            # by sqrt(m_ii)|r|
            scale = np.sqrt(np.diag(m))
            assert np.all(np.abs(m - jac.T @ jac) <= 1e-6 * np.outer(scale, scale))
            assert np.all(np.abs(grad - jac.T @ r) <= 1e-6 * scale * np.linalg.norm(r))

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    def test_schur_step_solves_dense_damped_system(self, lam):
        for ws, glob, traj in joint_cases():
            r = ws.residuals(*ws.unpack_globals(glob), traj)
            normal = tracker._normal_equations(ws, glob, traj, r)
            m, grad = dense_normal_equations(ws, normal)
            d = np.diag(m).copy()
            d[d <= 0.0] = 1.0
            want = np.linalg.solve(m + lam * np.diag(d), -grad)
            g = ws.n_globals
            step_g, step_w = tracker._schur_step(normal, lam)
            assert np.linalg.norm(step_g - want[:g]) <= 1e-10 * np.linalg.norm(want[:g])
            assert (np.linalg.norm(step_w.T.ravel() - want[g:])
                    <= 1e-10 * np.linalg.norm(want[g:]))

    def test_update_from_cases_lowers_cost_within_bounds(self):
        for ws, glob, traj in joint_cases():
            assert_update_not_above_start(ws, glob, traj)

    @settings(max_examples=25, deadline=None)
    @given(order=st.sampled_from([1, 2]), fit_background=st.booleans(),
           u=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           v=st.lists(st.floats(0.0, 1.0), min_size=14, max_size=14))
    def test_property_update_never_raises_cost_and_stays_in_bounds(self, order,
                                                                   fit_background, u, v):
        ws = tracker._Workspace(seven_epoch_series(), DEVICE_B, order,
                                TrackerConfig(fit_background=fit_background))
        lo, hi = ws.global_bounds()
        u = np.array(u[: ws.n_globals])
        # couplings and linewidths log-uniform within their bounds, floors uniform
        glob = np.where(lo > 0.0, lo * (hi / np.where(lo > 0.0, lo, 1.0)) ** u, u * hi)
        traj = ws.band[0] + np.array(v).reshape(2, 7)[:order] * (ws.band[1] - ws.band[0])
        assert_update_not_above_start(ws, np.clip(glob, lo, hi), traj)

    # sha256 over the updated globals and trajectory from digest_series()'s
    # first start, recorded before weighted updates stopped on small χ²
    # decreases; like TRACK_DIGESTS they assume the same numpy and BLAS build
    UPDATE_DIGESTS = {
        False: "f2e9dd2436622426dc73692559bd1784d1b34f995fb2160e31c1da691a7ff25c",
        True: "2dd4c934fe9ab34f95078097a6e491dc52f8cc8e8e254f2cc62f62b67d55c59b",
    }

    @staticmethod
    def update_digest(weighted):
        series, scenario = digest_series()
        if not weighted:
            series = LifetimeSeries(series.epochs_hr, series.t1e_us, series.t1f_us)
        ws = tracker._Workspace(series, scenario.device, 1, DEFAULT_TRACKER_CONFIG)
        glob, traj = tracker._initial_states(ws)[0]
        traj = tracker._solve_epochs(ws, *ws.unpack_globals(glob), traj)
        glob, traj = tracker._joint_update(ws, glob, traj)
        return hashlib.sha256(glob.tobytes() + traj.tobytes()).hexdigest()

    def test_unweighted_update_keeps_its_bits(self):
        assert self.update_digest(False) == self.UPDATE_DIGESTS[False]

    def test_weighted_update_without_chi2_stop_keeps_its_bits(self, monkeypatch):
        monkeypatch.setattr(tracker, "JOINT_CHI2_ATOL", 0.0)
        assert self.update_digest(True) == self.UPDATE_DIGESTS[True]

    def test_weighted_chi2_stop_cuts_lm_iterations(self, monkeypatch):
        # 786 iterations over the 6 joint updates of this fit without the
        # stop, five of them at the JOINT_LM_ITERATIONS cap; 157 with it
        iterations = []

        def counting(*args):
            out = optimize._lm_loop(*args)
            iterations.append(out[3])
            return out

        monkeypatch.setattr(tracker, "_lm_loop", counting)
        series, scenario = digest_series()
        track_tls(series, scenario.device, 1)
        assert sum(iterations) <= 200

    def test_peak_memory_linear_in_epochs(self):
        # noiseless device_A at N = 2000: the dense joint LM peaked at 161 MB,
        # and any single (N, N) float array alone takes 32 MB
        scenario = dataclasses.replace(bundled_scenario("device_A"), epochs=2000)
        series = true_lifetime_series(scenario)
        ws = tracker._Workspace(series, scenario.device, 1, DEFAULT_TRACKER_CONFIG)
        glob, traj = tracker._initial_states(ws)[0]
        traj = tracker._solve_epochs(ws, *ws.unpack_globals(glob), traj)
        tracemalloc.start()
        try:
            tracker._joint_update(ws, glob, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def assert_update_not_above_start(ws, glob, traj):
    lo, hi = ws.global_bounds()
    glob_new, traj_new = tracker._joint_update(ws, glob, traj)
    assert np.all((glob_new >= lo) & (glob_new <= hi))
    assert np.all((traj_new >= ws.band[0]) & (traj_new <= ws.band[1]))
    assert (ws.misfit(*ws.unpack_globals(glob_new), traj_new)
            <= ws.misfit(*ws.unpack_globals(glob), traj))


class TestWarningsAndErrors:
    def test_bad_order(self):
        series = LifetimeSeries(np.arange(30.0), np.full(30, 100.0), np.full(30, 60.0))
        with pytest.raises(InvalidParameterError):
            track_tls(series, DEVICE_A, 3)

    def test_too_few_epochs_rejected(self):
        series = LifetimeSeries(np.arange(2.0), np.array([100.0, 99.0]), np.array([60.0, 61.0]))
        with pytest.raises(InvalidParameterError):
            track_tls(series, DEVICE_A, 1)

    def test_empty_search_rejected(self):
        series = LifetimeSeries(np.arange(30.0), np.full(30, 100.0), np.full(30, 60.0))
        for margin in (-200.0, -(DEVICE_A.omega_01 - DEVICE_A.omega_12) / 2):
            with pytest.raises(InvalidParameterError,
                               match=r"^band_margin_mhz: expected a value in \[0, 100000\], "):
                track_tls(series, DEVICE_A, 2, TrackerConfig(band_margin_mhz=margin))

    def test_few_epoch_warnings(self):
        truths = [TlsTruth(DriftProcess("static", 4650.0), 9.9, 14.0)]
        series, _ = synthetic_series(DEVICE_A, truths, DecayRates(1e-3, 1e-3), 5)
        fit = track_tls(series, DEVICE_A, 2)
        text = " ".join(fit.warnings)
        assert "5 epochs" in text
        assert "fewer than 25" in text


class TestModelSelection:
    def make_noisy(self, series, rel, seed):
        rng = np.random.default_rng(seed)
        t1e = series.t1e_us * (1.0 + rel * rng.standard_normal(series.n_epochs))
        t1f = series.t1f_us * (1.0 + rel * rng.standard_normal(series.n_epochs))
        return LifetimeSeries(series.epochs_hr, t1e, t1f,
                              rel * t1e, rel * t1f)

    @pytest.fixture(scope="class")
    def weighted_single_tls(self):
        truths = [
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 4642.0, 9.6, 0.32, seed=11), 9.9, 14.0)
        ]
        clean, _ = synthetic_series(DEVICE_A, truths, DecayRates(2.2e-3, 2.11e-3), 60)
        noisy = self.make_noisy(clean, 0.01, 1)
        return noisy, select_model(noisy, DEVICE_A)

    def test_single_tls_selects_order_1(self, weighted_single_tls):
        _, fit = weighted_single_tls
        assert fit.model_order == 1
        assert fit.model_scores[1] < fit.model_scores[2]

    def test_saturated_order_2_threshold(self, weighted_single_tls):
        noisy, fit = weighted_single_tls
        n, log_n = noisy.n_epochs, np.log(2 * noisy.n_epochs)
        chi1_sq = fit.misfit**2
        # order 2's score is its parameter penalty alone: chi_2^2 ~ 0
        assert fit.model_scores[2] == pytest.approx((2 * n + 6) * log_n, abs=1e-6)
        assert fit.model_scores[2] - fit.model_scores[1] == pytest.approx(
            (n + 2) * log_n - chi1_sq, abs=1e-6)
        assert (fit.model_order == 1) == (chi1_sq < (n + 2) * log_n)

    def test_two_tls_selects_order_2(self):
        truths = [
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 5800.32, 6.235, 0.24, seed=21), 0.15, 12.0),
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 5639.0, 0.98, 0.12, seed=22), 1.042, 9.0),
        ]
        clean, _ = synthetic_series(DEVICE_B, truths, DecayRates(2e-3, 1.5e-3), 60, seed=9)
        noisy = self.make_noisy(clean, 0.01, 2)
        fit = select_model(noisy, DEVICE_B)
        assert fit.model_order == 2

    def test_constant_noiseless_selects_order_1(self):
        truths = [TlsTruth(DriftProcess("static", 4650.0), 9.9, 14.0)]
        series, _ = synthetic_series(DEVICE_A, truths, DecayRates(1e-3, 1e-3), 30)
        fit = select_model(series, DEVICE_A)
        assert fit.model_order == 1
        assert set(fit.model_scores) == {1, 2}
        assert fit.information_score == fit.model_scores[1]


class TestSelectionShortcut:
    """``select_model`` skips order 2 when its score floor already loses; the
    decision must be that of fitting both orders."""

    @staticmethod
    def single_tls_series(seed, weighted):
        truths = [TlsTruth(
            DriftProcess("ornstein_uhlenbeck", 4642.0, 9.6, 0.32, seed=10 + seed), 9.9, 14.0)]
        clean, _ = synthetic_series(DEVICE_A, truths, DecayRates(2.2e-3, 2.11e-3), 30, seed=seed)
        if not weighted:
            return clean  # noiseless, no error columns: the common-variance branch
        rng = np.random.default_rng(seed)
        t1e = clean.t1e_us * (1.0 + 0.01 * rng.standard_normal(clean.n_epochs))
        t1f = clean.t1f_us * (1.0 + 0.01 * rng.standard_normal(clean.n_epochs))
        return LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.01 * t1e, 0.01 * t1f)

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_same_decision_as_full_comparison(self, seed, weighted, monkeypatch):
        series = self.single_tls_series(seed, weighted)
        assert series.has_errors == weighted
        full = {order: track_tls(series, DEVICE_A, order) for order in (1, 2)}
        scores = {order: information_score(f, series) for order, f in full.items()}
        expected = min(sorted(scores), key=lambda order: scores[order])
        floor = tracker._score(2, 0.0, series, DEFAULT_TRACKER_CONFIG)
        # an actual order-2 fit never scores below the floor, exactly
        assert scores[2] >= floor

        fitted = []

        def counting_track_tls(series, device, order, config):
            fitted.append(order)
            return track_tls(series, device, order, config)

        monkeypatch.setattr(tracker, "track_tls", counting_track_tls)
        fit = select_model(series, DEVICE_A)
        assert fit.model_order == expected
        assert fit.misfit == full[expected].misfit
        for got, want in zip(fit.parameters.defects, full[expected].parameters.defects):
            assert np.array_equal(got.trajectory_mhz, want.trajectory_mhz)
        assert fit.information_score == scores[expected]
        assert fitted == [order for order in (1, 2) if order not in fit.skipped_orders]
        assert fit.skipped_orders == ([2] if scores[1] <= floor else [])
        if fit.skipped_orders:
            assert fit.model_scores == {1: scores[1], 2: floor}
        else:
            assert fit.model_scores == scores
        if weighted:
            k2 = DEFAULT_TRACKER_CONFIG.n_globals(2) + 2 * series.n_epochs
            assert floor == k2 * np.log(2 * series.n_epochs)
            assert fit.skipped_orders == [2]

    def test_two_tls_fits_both_orders(self):
        truths = [
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 5800.32, 6.235, 0.24, seed=21), 0.15, 12.0),
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 5639.0, 0.98, 0.12, seed=22), 1.042, 9.0),
        ]
        clean, _ = synthetic_series(DEVICE_B, truths, DecayRates(2e-3, 1.5e-3), 40, seed=9)
        rng = np.random.default_rng(3)
        t1e = clean.t1e_us * (1.0 + 0.01 * rng.standard_normal(clean.n_epochs))
        t1f = clean.t1f_us * (1.0 + 0.01 * rng.standard_normal(clean.n_epochs))
        series = LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.01 * t1e, 0.01 * t1f)
        fit = select_model(series, DEVICE_B)
        assert fit.model_order == 2
        assert fit.skipped_orders == []
        assert fit.information_score == fit.model_scores[2] < fit.model_scores[1]
        assert fit.to_json_dict()["skipped_orders"] == []


def winner_with_stop(misfits):
    """The probe ``track_tls`` keeps from probes with these misfits: it takes
    them in turn and stops once the winner so far is <= PROBE_TIE_ABS."""
    for k in range(1, len(misfits) + 1):
        best = tracker._probe_winner(misfits[:k])
        if misfits[best] <= tracker.PROBE_TIE_ABS:
            break
    return best


class TestProbeStop:
    """``track_tls`` stops probing starts once the winner so far has misfit
    <= PROBE_TIE_ABS; it must keep the probe that probing every start keeps."""

    edges = [0.0, tracker.PROBE_TIE_ABS, np.nextafter(tracker.PROBE_TIE_ABS, 1.0),
             2.0 * tracker.PROBE_TIE_ABS, tracker.PROBE_TIE_ABS / tracker.TIE_REL,
             tracker.PROBE_TIE_ABS / tracker.TIE_REL * (1.0 + tracker.TIE_REL)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(edges),
                              st.floats(0.0, 3.0 * tracker.PROBE_TIE_ABS),
                              st.floats(0.0, 1e6)), min_size=1, max_size=6))
    @example([tracker.PROBE_TIE_ABS, 0.0])
    @example([2.0 * tracker.PROBE_TIE_ABS, tracker.PROBE_TIE_ABS, 0.0])
    def test_property_stop_keeps_the_full_winner(self, misfits):
        assert winner_with_stop(misfits) == tracker._probe_winner(misfits)

    @staticmethod
    def count(monkeypatch, series, device, order, config=DEFAULT_TRACKER_CONFIG,
              updates=None):
        """_solve_epochs calls of one fit, and the probe misfits each winner
        was chosen from; each _joint_update call appends to ``updates``."""
        solves, probed = [], []
        updates = [] if updates is None else updates
        solve_epochs, probe_winner = tracker._solve_epochs, tracker._probe_winner
        joint_update = tracker._joint_update

        def counting_solve(*args):
            solves.append(1)
            return solve_epochs(*args)

        def counting_update(*args):
            updates.append(1)
            return joint_update(*args)

        def recording_winner(misfits):
            probed.append(list(misfits))
            return probe_winner(misfits)

        monkeypatch.setattr(tracker, "_solve_epochs", counting_solve)
        monkeypatch.setattr(tracker, "_joint_update", counting_update)
        monkeypatch.setattr(tracker, "_probe_winner", recording_winner)
        fit = track_tls(series, device, order, config)
        return fit, len(solves), probed

    @pytest.fixture(scope="class")
    def track_b_series(self, tmp_path_factory):
        """device_B at 150 epochs, shot-sampled and fitted, at master seed 7000."""
        root = tmp_path_factory.mktemp("track_b")
        doc = json.loads(bundled_scenario_path("device_B").read_text())
        doc["epochs"] = 150
        (root / "scenario.json").write_text(json.dumps(doc))
        assert main(["simulate", str(root / "scenario.json"), "--out", str(root / "run"),
                     "--seed", "7000"]) == 0
        assert main(["fit-series", str(root / "run"), "--out", str(root / "fit")]) == 0
        return LifetimeSeries.from_csv(root / "fit" / "series.csv"), DEVICE_B

    @pytest.mark.parametrize("case", ["digest", "track_B"])
    def test_saturated_order_2_probes_one_start(self, case, request, monkeypatch):
        # the first start's first epoch solve interpolates, so it is the fit:
        # no joint update, probe cycle or sync solve follows it
        if case == "digest":
            series, scenario = digest_series()
            device = scenario.device
        else:
            series, device = request.getfixturevalue("track_b_series")
        updates = []
        fit, solves, probed = self.count(monkeypatch, series, device, 2, updates=updates)
        assert fit.misfit <= tracker.PROBE_TIE_ABS
        assert (solves, len(updates), fit.iterations) == (1, 0, 1)
        assert len(probed) == 1
        assert fit.converged

    def test_unsaturated_order_2_runs_every_cycle(self, monkeypatch):
        # couplings capped at 0.05 cannot reach the digest rates, so no epoch
        # solve saturates and every cycle runs: 3 starts' probe cycles, 2 more
        # on start 2 and the sync solve, 9 solves and 8 joint updates
        series, scenario = digest_series()
        config = TrackerConfig(coupling_bounds=(1e-10, 0.05))
        updates = []
        fit, solves, probed = self.count(monkeypatch, series, scenario.device, 2, config,
                                         updates)
        assert (solves, len(updates), fit.iterations) == (9, 8, 4)
        assert [len(m) for m in probed] == [1, 2, 3]
        assert fit.misfit == pytest.approx(29.952354, rel=1e-6)
        assert not any("saturated" in w for w in fit.warnings)

    def test_weighted_order_1_probes_every_start(self, monkeypatch):
        series, scenario = digest_series()
        fit, solves, probed = self.count(monkeypatch, series, scenario.device, 1)
        assert [len(m) for m in probed] == [1, 2, 3]
        assert min(probed[-1]) > tracker.PROBE_TIE_ABS
        # every start's probe cycles, the kept one's further cycles, the final sync
        extra = fit.iterations - tracker.PROBE_ITERATIONS
        assert solves == 3 * tracker.PROBE_ITERATIONS + extra + 1


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    """name -> (series.csv, scenario.json) of the bundled scenario,
    simulated at its bundled seed and fitted."""
    root, runs = tmp_path_factory.mktemp("bundled"), {}

    def run(name):
        if name not in runs:
            out = root / name
            assert main(["simulate", str(bundled_scenario_path(name)),
                         "--out", str(out)]) == 0
            assert main(["fit-series", str(out), "--out", str(out / "fit")]) == 0
            runs[name] = out / "fit" / "series.csv", out / "scenario.json"
        return runs[name]
    return run


class TestSaturation:
    """An epoch solve that interpolates every epoch ends the fit, and the fit
    says that the data do not determine its couplings and linewidths."""

    @staticmethod
    def fit(run, order, config=DEFAULT_TRACKER_CONFIG):
        series, scenario = run
        return track_tls(LifetimeSeries.from_csv(series), load_scenario(scenario).device, order,
                         config)

    def test_device_b_order_2_warns(self, bundled_run, tmp_path, capsys):
        series, scenario = bundled_run("device_B")
        capsys.readouterr()
        assert main(["track", str(series), "--device", str(scenario), "--order", "2",
                     "--out", str(tmp_path / "fit")]) == 0
        doc = json.loads((tmp_path / "fit" / "fit.json").read_text())
        saturated = [w for w in doc["warnings"] if w.startswith("saturated")]
        assert len(saturated) == 1
        assert "start 1 interpolates every epoch at outer cycle 1" in saturated[0]
        assert "(linewidths 10, 10 MHz) and the data do not determine them" in saturated[0]
        assert saturated[0] in capsys.readouterr().out
        assert doc["iterations"] == 1 and doc["converged"]
        assert [d["gamma_mhz"] for d in doc["tls"]] == [tracker.LINEWIDTH_INIT_MHZ] * 2

    def test_device_a_order_1_does_not_warn(self, bundled_run):
        fit = self.fit(bundled_run("device_A"), 1)
        assert fit.misfit > tracker.PROBE_TIE_ABS
        assert not any("saturated" in w for w in fit.warnings)

    def test_globals_follow_the_start(self, bundled_run, monkeypatch):
        # moving the start's linewidth moves the reported globals, and the fit
        # interpolates as well as before: the data do not determine them
        run = bundled_run("device_B")
        default = self.fit(run, 2)
        monkeypatch.setattr(tracker, "LINEWIDTH_INIT_MHZ", 12.0)
        moved = self.fit(run, 2)
        assert [d.linewidth_mhz for d in default.parameters.defects] == [10.0, 10.0]
        assert [d.linewidth_mhz for d in moved.parameters.defects] == [12.0, 12.0]
        for a, b in zip(default.parameters.defects, moved.parameters.defects):
            assert abs(b.coupling_weight / a.coupling_weight - 1.0) > 0.05
        assert max(default.misfit, moved.misfit) <= tracker.PROBE_TIE_ABS
        assert "(linewidths 12, 12 MHz)" in moved.warnings[-1]


class TestWideBand:
    """A band margin past the input domain is refused before the fit, naming
    the key; the domain keeps the transitions resolved in band units."""

    def test_bundled_fit_unchanged_up_to_1e16(self, bundled_run):
        # the fit is the same at every margin the domain admits; margins up to
        # 1e16, which once fitted unchanged, now lie past its limit and are refused
        run = bundled_run("device_A")
        for margin in (200.0, tracker.DOMAIN["band_margin_mhz"][1]):
            fit = TestSaturation.fit(run, 1, TrackerConfig(band_margin_mhz=margin))
            assert round(fit.misfit, 6) == 16.117262
            assert fit.iterations == 2
        with pytest.raises(InvalidParameterError, match=r"^band_margin_mhz: .* got 1e\+16$"):
            TestSaturation.fit(run, 1, TrackerConfig(band_margin_mhz=1e16))

    @pytest.mark.parametrize("order", [1, 2])
    def test_refused_just_past_the_resolution_limit(self, order):
        # past the margin at which the transitions lie eps apart in band units,
        # and well before it, the margin is refused naming the key; at the
        # domain's corner of the least anharmonicity and the widest margin they
        # lie 1e-7 apart, and the fit runs there without a numpy warning
        series = LifetimeSeries(np.arange(30.0), np.full(30, 100.0), np.full(30, 60.0))
        sep = DEVICE_A.omega_01 - DEVICE_A.omega_12
        # the band's half-width is sep/2 + margin
        limit = sep / np.finfo(float).eps - sep / 2.0
        for margin in (0.99 * limit, 1.01 * limit):
            with pytest.raises(InvalidParameterError, match="^band_margin_mhz: "):
                track_tls(series, DEVICE_A, order, TrackerConfig(band_margin_mhz=margin))
        alpha, margin = tracker.DOMAIN["anharmonicity_mhz"][1], tracker.DOMAIN["band_margin_mhz"][1]
        assert -alpha / (-alpha / 2.0 + margin) == pytest.approx(1e-7)
        fit = track_tls(series, DeviceFrequencies(DEVICE_A.omega_01, alpha), order,
                        TrackerConfig(band_margin_mhz=margin))
        assert np.isfinite(fit.misfit)

    def test_bundled_1e20_exits_2(self, bundled_run, tmp_path, capsys):
        # without a check this fit ran its 50 outer cycles to misfit 357.92
        series, scenario = bundled_run("device_A")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {"band_margin_mhz": 1e20}}))
        capsys.readouterr()
        assert main(["track", str(series), "--device", str(scenario), "--order", "auto",
                     "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == ("error: band_margin_mhz: expected a value in "
                                           "[0, 100000], the tracker's input domain, got 1e+20\n")
        assert not (tmp_path / "fit" / "fit.json").exists()


def constant_series(t1e, t1f=None, n=12, **errors):
    return LifetimeSeries(np.arange(float(n)), np.full(n, t1e), np.full(n, t1f or t1e), **errors)


class TestLifetimeRange:
    """A lifetime that no defect within the coupling and linewidth bounds
    can give is refused before the fit starts, naming its column and the
    supported range."""

    @staticmethod
    def default_range(device):
        # the fastest rate: b_hi at resonance with the narrowest line; the
        # slowest: b_lo at the widest detuning in the band, |alpha| + margin
        cfg = TrackerConfig()
        (b_lo, b_hi), (g_lo, _) = cfg.coupling_bounds, cfg.linewidth_bounds_mhz
        d = device.omega_01 - device.omega_12 + cfg.band_margin_mhz
        return g_lo / b_hi, (d**2 + g_lo**2) / (b_lo * g_lo)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("side, inside, outside", [(0, 1.01, 0.99), (1, 0.99, 1.01)])
    def test_edges(self, order, side, inside, outside):
        edge = self.default_range(DEVICE_A)[side]
        track_tls(constant_series(inside * edge), DEVICE_A, order)
        with pytest.raises(InvalidParameterError,
                           match=r"^t1e_us: .* us at epoch 0 is outside the supported range "):
            track_tls(constant_series(outside * edge), DEVICE_A, order)

    def test_t1f_range_scales_with_f_multiplier(self):
        lo, _ = self.default_range(DEVICE_A)
        series = constant_series(100.0, 0.5 * lo)
        with pytest.raises(InvalidParameterError, match="^t1f_us: "):
            track_tls(series, DEVICE_A, 1)
        track_tls(series, DEVICE_A, 1, TrackerConfig(f_multiplier=4.0))

    @pytest.mark.parametrize("lifetime", [1e-300, 1e-100, 1e-20, 1e154, 1e300])
    @pytest.mark.parametrize("order", ["1", "2", "auto"])
    def test_extreme_lifetimes_exit_2_naming_the_column(self, tmp_path, capsys, lifetime,
                                                        order):
        # each of these once ended in a traceback, numpy warnings, a message
        # blaming band_margin_mhz or a silent misfit of sqrt(2N)
        series, device = tmp_path / "series.csv", tmp_path / "device.json"
        constant_series(lifetime).to_csv(series)
        device.write_text(json.dumps({"omega01_mhz": DEVICE_A.omega_01,
                                      "anharmonicity_mhz": DEVICE_A.anharmonicity}))
        assert main(["track", str(series), "--device", str(device), "--order", order,
                     "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: t1e_us: {lifetime!r} us at epoch 0 is outside the supported "
                       "range [5e-10, 4.62e+16] us, the lifetimes that one defect within "
                       "coupling_bounds and linewidth_bounds_mhz can give\n")

    @pytest.mark.parametrize("lifetime", [1e154, 1e-300])
    @pytest.mark.parametrize("order", ["1", "2", "auto"])
    def test_past_the_joint_update_range_exit_2_under_wide_bounds(self, tmp_path, capsys,
                                                                   lifetime, order):
        # coupling_bounds [1e-300, 1e300] would let one defect give these
        # lifetimes; they once ended in numpy overflow warnings from the joint
        # update and a wrong stop, or in a message that named no key
        series, device, config = (tmp_path / n for n in ("series.csv", "device.json",
                                                          "config.json"))
        constant_series(lifetime).to_csv(series)
        device.write_text(json.dumps({"omega01_mhz": DEVICE_A.omega_01,
                                      "anharmonicity_mhz": DEVICE_A.anharmonicity}))
        config.write_text(json.dumps({"tracker": {"coupling_bounds": [1e-300, 1e300]}}))
        assert main(["track", str(series), "--device", str(device), "--order", order,
                     "--config", str(config), "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: coupling_bounds: expected both ends in [1e-20, 1e+20], the "
                       "tracker's input domain, got [1e-300, 1e+300]\n")

    @pytest.mark.parametrize("edge, outside, bounds", [(1e100, 1.01, (1e-300, 1e8)),
                                                       (1e-100, 0.99, (1e-10, 1e300))])
    def test_joint_update_range_edges(self, edge, outside, bounds):
        # the joint update's old range [1e-100, 1e100] us took bounds past the
        # input domain, which are now refused; inside it, the longest (shortest)
        # lifetime the domain's bound gives fits without a numpy warning, which
        # pytest turns into an error, and one just past it is refused
        with pytest.raises(InvalidParameterError, match="^coupling_bounds: "):
            track_tls(constant_series(edge), DEVICE_A, 1, TrackerConfig(coupling_bounds=bounds))
        lo, hi = tracker.DOMAIN["coupling_bounds"]
        config = TrackerConfig(coupling_bounds=(max(bounds[0], lo), min(bounds[1], hi)))
        edge = TestInputDomain.supported_lifetimes(DEVICE_A, config)[0][int(outside > 1.0)]
        for order in (1, 2):
            assert np.isfinite(track_tls(constant_series(edge), DEVICE_A, order, config).misfit)
        with pytest.raises(InvalidParameterError, match=r"^t1e_us: .* the lifetimes that one "):
            track_tls(constant_series(outside * edge), DEVICE_A, 1, config)

    @pytest.mark.parametrize("order", [1, 2])
    def test_fit_scales_with_the_lifetimes_inside_the_range(self, bundled_run, order):
        # T -> s T with B -> B/s leaves the model unchanged while B stays
        # within its bounds: on device_A's fitted series from 10^-6 to 10^10
        series, scenario = bundled_run("device_A")
        base = LifetimeSeries.from_csv(series)
        device = load_scenario(scenario).device
        fits = []
        for k in (0, -6, 10):
            s = 10.0**k
            fits.append(track_tls(LifetimeSeries(base.epochs_hr, s * base.t1e_us,
                                                 s * base.t1f_us, s * base.err_e_us,
                                                 s * base.err_f_us), device, order))
        for k, fit in zip((-6, 10), fits[1:]):
            assert fit.misfit == pytest.approx(fits[0].misfit, rel=1e-9, abs=1e-9)
            for a, b in zip(fit.parameters.defects, fits[0].parameters.defects):
                assert np.allclose(a.trajectory_mhz, b.trajectory_mhz, rtol=0, atol=1e-9)
                assert a.coupling_weight * 10.0**k == pytest.approx(b.coupling_weight, rel=1e-9)


class TestScaleGuards:
    """Inputs that once under- or overflowed the per-epoch polynomials are
    refused before the fit, naming the key outside the input domain."""

    def test_underflowing_weights_reach_the_roots_check(self, monkeypatch):
        # errors whose weights' squares would underflow are refused under every
        # order before any polynomial is formed, naming the column and the epoch
        monkeypatch.setattr(tracker, "_polynomial_roots", lambda coef: pytest.fail("reached"))
        series = constant_series(100.0, 60.0, err_e_us=np.full(12, 1e200),
                                 err_f_us=np.full(12, 1e200))
        for fit in (lambda: track_tls(series, DEVICE_A, 1), lambda: track_tls(series, DEVICE_A, 2),
                    lambda: select_model(series, DEVICE_A)):
            with pytest.raises(InvalidParameterError) as exc:
                fit()
            assert str(exc.value) == ("err_e: 1e+200 us at epoch 0 is more than 1e+10 times its "
                                      "lifetime, the tracker's input domain")

    def test_underflowing_eliminant_reaches_the_roots_check(self, monkeypatch):
        # under a lower coupling bound of 1e-300 the two-defect eliminant at
        # lifetimes of 1e100 us, with errors of an ordinary 2%, once underflowed
        # to a row of zeros; that bound is now refused before any roots are
        # taken, and at the domain's lowest bound and the longest lifetime it
        # gives, every polynomial handed to the roots has finite, nonzero rows
        roots = []
        real = tracker._polynomial_roots
        monkeypatch.setattr(tracker, "_polynomial_roots",
                            lambda coef: roots.append(coef) or real(coef))
        series = constant_series(1e100, 6e99, err_e_us=np.full(12, 2e98),
                                 err_f_us=np.full(12, 1.2e98))
        with pytest.raises(InvalidParameterError, match=r"^coupling_bounds: .* got \[1e-300, "):
            track_tls(series, DEVICE_A, 2, TrackerConfig(coupling_bounds=(1e-300, 1e8)))
        assert not roots
        config = TrackerConfig(coupling_bounds=(tracker.DOMAIN["coupling_bounds"][0], 1e8))
        t1e, t1f = (hi for _, hi in TestInputDomain.supported_lifetimes(DEVICE_A, config))
        series = constant_series(t1e, 0.6 * t1f, err_e_us=np.full(12, 0.02 * t1e),
                                 err_f_us=np.full(12, 0.012 * t1f))
        assert np.isfinite(track_tls(series, DEVICE_A, 2, config).misfit)
        assert roots
        for coef in roots:
            assert np.any(coef, axis=1).all() and np.isfinite(coef).all()

    def test_two_defect_overflow_is_refused_without_warnings(self):
        # the eliminant's coefficients grow as the fourth power of the rates;
        # pytest turns any numpy warning on the way into an error
        config = TrackerConfig(coupling_bounds=(1e-10, 1e300))
        with pytest.raises(InvalidParameterError) as exc:
            track_tls(constant_series(1e-100), DEVICE_A, 2, config)
        assert str(exc.value) == ("coupling_bounds: expected both ends in [1e-20, 1e+20], the "
                                  "tracker's input domain, got [1e-10, 1e+300]")


def domain_input(device=(DEVICE_A.omega_01, DEVICE_A.anharmonicity), rel_e=0.02, rel_f=0.02,
                 n=12, **tracker_keys):
    """A constant series with relative errors (rel_e, rel_f), a device and tracker keys."""
    return constant_series(100.0, 60.0, n, err_e_us=np.full(n, 100.0 * rel_e),
                           err_f_us=np.full(n, 60.0 * rel_f)), device, tracker_keys


class TestInputDomain:
    """``tracker.DOMAIN``: an input just inside a limit fits without a numpy
    warning (pytest makes one an error); just outside it, ``track_tls`` and
    ``track`` refuse it, naming the key."""

    # key, end, and the changes to domain_input() just inside and just outside it
    EDGES = [
        ("omega01_mhz", "lo", dict(device=(1.01e-2, -1e-2)), dict(device=(0.99e-2, -0.5e-2))),
        ("omega01_mhz", "hi", dict(device=(1e6, -280.37)), dict(device=(1.01e6, -280.37))),
        ("anharmonicity_mhz", "lo", dict(device=(1e6, -1e5)), dict(device=(1e6, -1.01e5))),
        ("anharmonicity_mhz", "hi", dict(device=(4822.08, -1e-2)),
         dict(device=(4822.08, -0.99e-2))),
        ("band_margin_mhz", "lo", dict(band_margin_mhz=0.0), dict(band_margin_mhz=-1e-3)),
        ("band_margin_mhz", "hi", dict(band_margin_mhz=1e5), dict(band_margin_mhz=1.01e5)),
        ("linewidth_bounds_mhz", "lo", dict(linewidth_bounds_mhz=(1e-6, 500.0)),
         dict(linewidth_bounds_mhz=(0.99e-6, 500.0))),
        ("linewidth_bounds_mhz", "hi", dict(linewidth_bounds_mhz=(0.05, 1e6)),
         dict(linewidth_bounds_mhz=(0.05, 1.01e6))),
        ("coupling_bounds", "lo", dict(coupling_bounds=(1e-20, 1e8)),
         dict(coupling_bounds=(0.99e-20, 1e8))),
        ("coupling_bounds", "hi", dict(coupling_bounds=(1e-10, 1e20)),
         dict(coupling_bounds=(1e-10, 1.01e20))),
        ("f_multiplier", "lo", dict(f_multiplier=1e-3), dict(f_multiplier=0.99e-3)),
        ("f_multiplier", "hi", dict(f_multiplier=1e3), dict(f_multiplier=1.01e3)),
        # an error's lower limit, 0, is LifetimeSeries' own
        ("err_e", "hi", dict(rel_e=1e10), dict(rel_e=1.01e10)),
        ("err_f", "hi", dict(rel_f=1e10), dict(rel_f=1.01e10)),
    ]

    def test_edges_cover_every_key(self):
        ends = {key: [e[1] for e in self.EDGES if e[0] == key] for key in tracker.DOMAIN}
        assert len(self.EDGES) == sum(map(len, ends.values()))
        assert all(v == (["hi"] if k.startswith("err_") else ["lo", "hi"])
                   for k, v in ends.items())

    @pytest.mark.parametrize("key, end, inside, outside", EDGES,
                             ids=[f"{e[0]}-{e[1]}" for e in EDGES])
    def test_inside_fits_outside_refused(self, tmp_path, capsys, key, end, inside, outside):
        series, device, keys = domain_input(**inside)
        for order in (1, 2):
            assert np.isfinite(track_tls(series, DeviceFrequencies(*device), order,
                                         TrackerConfig(**keys)).misfit)
        series, device, keys = domain_input(**outside)
        with pytest.raises(InvalidParameterError, match=f"^{key}: "):
            track_tls(series, DeviceFrequencies(*device), 1, TrackerConfig(**keys))
        paths = [tmp_path / name for name in ("series.csv", "device.json", "config.json")]
        series.to_csv(paths[0])
        paths[1].write_text(json.dumps(dict(zip(("omega01_mhz", "anharmonicity_mhz"), device))))
        paths[2].write_text(json.dumps({"tracker": keys}))
        capsys.readouterr()
        assert main(["track", str(paths[0]), "--device", str(paths[1]), "--order", "1",
                     "--config", str(paths[2]), "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("omega01", [1e120, 1e160, 1e200])
    def test_devices_far_above_transmon_scales_exit_2(self, tmp_path, capsys, omega01):
        # at these frequencies numpy once warned of overflow or invalid values
        series, device = tmp_path / "series.csv", tmp_path / "device.json"
        constant_series(1.0).to_csv(series)
        device.write_text(json.dumps({"omega01_mhz": omega01, "anharmonicity_mhz": -omega01 / 10}))
        assert main(["track", str(series), "--device", str(device), "--order", "1",
                     "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == (
            "error: omega01_mhz: expected a value in [0.01, 1e+06], the tracker's input domain, "
            f"got {omega01!r}\n")

    @staticmethod
    def log_uniform(lo, hi):
        """Either end of [lo, hi], or a log-uniform point inside it (lo, hi > 0)."""
        return st.one_of(st.sampled_from([lo, hi]), st.floats(np.log10(lo), np.log10(hi)).map(
            lambda e: min(max(10.0**e, lo), hi)))

    @classmethod
    def ordered_pair(cls, key):
        lo, hi = tracker.DOMAIN[key]
        return st.tuples(cls.log_uniform(lo, hi), cls.log_uniform(lo, hi)).map(
            lambda p: (min(p), max(p)) if p[0] != p[1] else (lo, hi))

    @staticmethod
    def supported_lifetimes(device, config):
        """(lo, hi) of t1e and of t1f, computed as track_tls computes them."""
        (b_lo, b_hi), (g_lo, g_hi) = config.coupling_bounds, config.linewidth_bounds_mhz
        d = config.band(device)[1] - device.omega_12
        slowest = b_lo * min(g / (d * d + g * g) for g in (g_lo, g_hi))
        return [1.0 / (s * np.array([b_hi / g_lo, slowest])) for s in (1.0, config.f_multiplier)]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_property_inside_fits_outside_names_its_key(self, data):
        draw, inside = data.draw, self.log_uniform
        alpha = -draw(inside(1e-2, 1e5))
        # omega_01 above |alpha|, so that omega_12 > 0
        omega01 = draw(st.one_of(st.just(1e6), inside(1e-6, 1e8).map(
            lambda t: min(-alpha * (1.0 + t), 1e6))))
        keys = dict(band_margin_mhz=draw(st.one_of(st.just(0.0), inside(1e-3, 1e5))),
                    fit_background=draw(st.booleans()),
                    f_multiplier=draw(inside(1e-3, 1e3)),
                    linewidth_bounds_mhz=draw(self.ordered_pair("linewidth_bounds_mhz")),
                    coupling_bounds=draw(self.ordered_pair("coupling_bounds")))
        device, config = DeviceFrequencies(omega01, alpha), TrackerConfig(**keys)
        n = draw(st.integers(3, 8))
        lifetimes = [np.array(draw(st.lists(inside(lo, hi), min_size=n, max_size=n)))
                     for lo, hi in self.supported_lifetimes(device, config)]
        relative = st.lists(st.one_of(st.just(0.0), inside(1e-14, 1e10)), min_size=n, max_size=n)
        errors = draw(st.one_of(st.none(), st.tuples(relative, relative)))
        errors = errors and [np.array(rel) * t for rel, t in zip(errors, lifetimes)]
        # one key just past a limit, or none
        outside = draw(st.one_of(st.none(), st.sampled_from(list(tracker.DOMAIN))))
        if outside == "omega01_mhz":
            device = DeviceFrequencies(1.01e6, alpha)
        elif outside == "anharmonicity_mhz":
            device = DeviceFrequencies(1e6, -1.01e5)
        elif outside in ("err_e", "err_f"):
            channel = int(outside == "err_f")
            errors = errors or [0.0 * t for t in lifetimes]
            errors[channel] = 1.01e10 * lifetimes[channel]
        elif outside is not None:
            past = 1.01 * tracker.DOMAIN[outside][1]
            value = keys[outside]
            config = dataclasses.replace(config, **{
                outside: (value[0], past) if isinstance(value, tuple) else past})
        series = LifetimeSeries(np.arange(float(n)), *lifetimes, *(errors or ()))
        order = draw(st.sampled_from([1, 2, "auto"]))

        def fit():
            if order == "auto":
                return select_model(series, device, config)
            return track_tls(series, device, order, config)

        if outside is None:
            assert np.isfinite(fit().misfit)
        else:
            with pytest.raises(InvalidParameterError, match=f"^{outside}: "):
                fit()

    def test_bundled_fitted_series_lie_a_decade_inside(self, bundled_run):
        # the domain never refuses the pipeline's own output
        for name in ("device_A", "device_B"):
            path, scenario = bundled_run(name)
            series, device = LifetimeSeries.from_csv(path), load_scenario(scenario).device
            cfg = DEFAULT_TRACKER_CONFIG
            values = {"omega01_mhz": device.omega_01, "anharmonicity_mhz": device.anharmonicity,
                      "band_margin_mhz": cfg.band_margin_mhz,
                      "linewidth_bounds_mhz": cfg.linewidth_bounds_mhz,
                      "coupling_bounds": cfg.coupling_bounds, "f_multiplier": cfg.f_multiplier,
                      "err_e": series.err_e_us / series.t1e_us,
                      "err_f": series.err_f_us / series.t1f_us}
            for key, value in values.items():
                lo, hi = tracker.DOMAIN[key]
                for limit in (lo, hi):
                    if limit != 0.0:
                        ratio = np.asarray(value) / limit
                        assert np.all((ratio <= 0.1) | (ratio >= 10.0)), key
                assert np.all((lo <= np.asarray(value)) & (np.asarray(value) <= hi)), key
            lo, hi = TestLifetimeRange.default_range(device)
            for lifetimes in (series.t1e_us, series.t1f_us):
                assert 10 * lo <= lifetimes.min() and lifetimes.max() <= hi / 10


class TestTrajectoryOutputs:
    def test_fitted_rates_are_the_forward_model(self, single_tls_case):
        series, _, fit = single_tls_case
        d = fit.parameters.defects[0]
        bg = fit.parameters.background
        expected = lorentzian_rates(DEVICE_A, [d.coupling_weight], [d.linewidth_mhz],
                                    d.trajectory_mhz[None], (bg.gamma_10, bg.gamma_21))
        assert fit.fitted_rates.shape == (2, series.n_epochs)
        assert np.array_equal(fit.fitted_rates, expected)

    def test_reconstruct(self, single_tls_case):
        _, _, fit = single_tls_case
        points = reconstruct_trajectory(fit, 0)
        assert len(points) == 120
        t, w, g = points[0]
        assert t == 0.0
        assert g == fit.parameters.defects[0].linewidth_mhz
        with pytest.raises(InvalidParameterError):
            reconstruct_trajectory(fit, 1)

    def test_static_reconstruction_constant(self):
        truths = [TlsTruth(DriftProcess("static", 4650.0), 9.9, 14.0)]
        series, _ = synthetic_series(DEVICE_A, truths, DecayRates(1e-3, 1e-3), 30)
        fit = track_tls(series, DEVICE_A, 1)
        omegas = [w for _, w, _ in reconstruct_trajectory(fit, 0)]
        assert max(omegas) - min(omegas) <= 1e-3

    def test_csv_outputs(self, single_tls_case, tmp_path):
        series, _, fit = single_tls_case
        write_trajectory_csv(fit, tmp_path / "trajectory.csv")
        write_correlation_csv(fit, series, tmp_path / "correlation.csv")
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t_hr,tls,omega_mhz,gamma_mhz"
        assert len(lines) == 1 + 120
        lines = (tmp_path / "correlation.csv").read_text().splitlines()
        assert lines[0] == "t1e_us,t1f_us,t1e_fit_us,t1f_fit_us"
        assert len(lines) == 1 + 120

    def test_fit_json(self, single_tls_case):
        _, _, fit = single_tls_case
        doc = fit.to_json_dict()
        assert doc["model_order"] == 1
        assert doc["n_epochs"] == 120
        assert len(doc["tls"]) == 1


def test_tracker_config_is_frozen():
    # the default is every fit's shared default argument
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TRACKER_CONFIG.band_margin_mhz = 50.0
    assert DEFAULT_TRACKER_CONFIG == TrackerConfig()
    wide = dataclasses.replace(DEFAULT_TRACKER_CONFIG, band_margin_mhz=400.0)
    assert wide.band_margin_mhz == 400.0 and DEFAULT_TRACKER_CONFIG.band_margin_mhz == 200.0


def test_information_score_penalizes_order(single_tls_case):
    series, _, fit = single_tls_case
    s1 = information_score(fit, series)
    assert np.isfinite(s1)


def digest_series():
    """A 40-epoch weighted device_A series and its scenario: the true
    lifetimes with 1% seeded noise and error columns."""
    scenario = dataclasses.replace(bundled_scenario("device_A"), epochs=40)
    clean = true_lifetime_series(scenario)
    rng = np.random.default_rng(14)
    t1e = clean.t1e_us * (1.0 + 0.01 * rng.standard_normal(40))
    t1f = clean.t1f_us * (1.0 + 0.01 * rng.standard_normal(40))
    return LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.01 * t1e, 0.01 * t1f), scenario


def track_digest(order, tmp_path, weighted=True, tracker_config=None):
    """SHA-256 over trajectory.csv, correlation.csv and fit.json of
    ``track --order order`` on :func:`digest_series`, without its error
    columns unless ``weighted``, and with the ``tracker`` config section
    ``tracker_config`` when given.  The series is built from the rate model,
    not from synthesized traces, so only the tracker moves the digest."""
    series, scenario = digest_series()
    if not weighted:
        series = LifetimeSeries(series.epochs_hr, series.t1e_us, series.t1f_us)
    series_path, device_path = tmp_path / "series.csv", tmp_path / "device.json"
    series.to_csv(series_path)
    device_path.write_text(json.dumps({"omega01_mhz": scenario.device.omega_01,
                                       "anharmonicity_mhz": scenario.device.anharmonicity}))
    out = tmp_path / "fit"
    argv = ["track", str(series_path), "--device", str(device_path), "--order", order,
            "--out", str(out)]
    if tracker_config is not None:
        (tmp_path / "config.json").write_text(json.dumps({"tracker": tracker_config}))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 0
    h = hashlib.sha256()
    for name in ("trajectory.csv", "correlation.csv", "fit.json"):
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


# "1" and "auto" were re-recorded when weighted joint updates began to stop
# at an accepted step lowering chi^2 by less than JOINT_CHI2_ATOL: the
# order-1 fit slides along the (B, gamma) ridge from (8.60, 6.73) to
# (10.75, 5.39), A = B*gamma moves from 57.87 to 57.94, and the misfit
# rises from 6.985816 to 6.986051 (chi^2 by 0.0033).  "2" was re-recorded
# when the two-defect epoch solve became exact: its polished roots differ
# from the grid seeds' Newton results in the last digits, which moves the
# trajectory by < 3e-12 MHz, the globals in their last digits and the
# misfit from 1.6e-11 to 9.7e-12.  "2" was re-recorded again when a fit
# began to end at an epoch solve that interpolates every epoch: the fit is
# now the first start's first solve, without the joint updates and the sync
# solve that followed it, so the misfit moves from 9.7e-12 to 3.9e-11 and
# fit.json gains the saturation warning and reports 1 iteration, not 2.
# Like the synthesis digests they assume the same numpy and BLAS build, and
# any change to a tracker output shows here
TRACK_DIGESTS = {
    "1": "77525da13ddc79792ceb8f9c66a295421cec11538ce7f170df1587c2f4765b88",
    "2": "6f16a17ecd110fec8dfccaf67bd5a654b25d5b603d65f1a61dd904a2029d0767",
    "auto": "2cade89a24bdd50a31fd2f04d0730a23fc37057395a537bd13fcfc525f834779",
}


@pytest.mark.parametrize("order", sorted(TRACK_DIGESTS))
def test_track_outputs_match_golden_digest(order, tmp_path):
    assert track_digest(order, tmp_path) == TRACK_DIGESTS[order]


# TRACK_DIGESTS' order 2 saturates at its first epoch solve, so these pin the
# tracker paths it misses: couplings capped at 0.05 keep every order-2 solve
# from saturating, so every cycle runs, the two-defect fallback fires and 8
# 2x2-block joint updates run; without error columns the order-1 joint
# updates are unweighted (7 outer cycles).  name -> (order, weighted,
# tracker config, digest)
PATH_DIGESTS = {
    "order2_capped_couplings": (
        "2", True, {"coupling_bounds": [1e-10, 0.05]},
        "c45a4207883bd7a0c3bb3210c73614dca91e7bed3946fb169c5f3a7a7283e7bd"),
    "order1_unweighted": (
        "1", False, None, "3e81e3537611fa574ff2625a80125d01c165f7f6b1cffd9ba9af7bae6b5e8243"),
}


@pytest.mark.parametrize("name", sorted(PATH_DIGESTS))
def test_track_paths_match_golden_digest(name, tmp_path):
    order, weighted, tracker_config, digest = PATH_DIGESTS[name]
    assert track_digest(order, tmp_path, weighted, tracker_config) == digest
