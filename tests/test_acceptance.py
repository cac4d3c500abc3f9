"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tlstrack import tracker
from tlstrack.dynamics import (
    DecayRates,
    PopulationTrace,
    closed_form_populations,
    closed_form_trace,
)
from tlstrack.optimize import _damped_newton_2x2
from tlstrack.readout import ConfusionMatrix, mitigate_trace, simulate_confusion_matrix
from tlstrack.synth import bundled_scenario, generate_trajectories, \
    synthesize_experiment, true_lifetime_series
from tlstrack.tls import lorentzian_rates, rate_series, TlsParameterSet, TlsDefect
from tlstrack.trace_fit import fit_trace
from tlstrack.tracker import LifetimeSeries, lifetime_correlation, select_model, track_tls

DEVICE_A_RATES = DecayRates(1.0 / 155.0, 1.0 / 64.0)

_runs: dict = {}


def pipeline_run(name: str) -> dict:
    """simulate -> mitigate -> fit-series for a bundled scenario, cached."""
    if name not in _runs:
        start = time.time()
        scenario = bundled_scenario(name)
        traces, confusion, truth = synthesize_experiment(scenario)
        t1e, t1f, err_e, err_f = [], [], [], []
        for trace in traces:
            fit = fit_trace(mitigate_trace(confusion, trace))
            t1e.append(fit.t1e)
            t1f.append(fit.t1f)
            err_e.append(fit.stderr_t1e)
            err_f.append(fit.stderr_t1f)
        series = LifetimeSeries(
            scenario.epoch_times_hr, np.array(t1e), np.array(t1f),
            np.array(err_e), np.array(err_f),
        )
        _runs[name] = {
            "scenario": scenario,
            "confusion": confusion,
            "truth": truth,
            "series": series,
            "elapsed": time.time() - start,
        }
    return _runs[name]


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({title}): FAIL [{time.time() - start:.1f}s]")
        raise
    elapsed = time.time() - start
    print(f"CRITERION {number} ({title}): PASS [{elapsed:.1f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_closed_form_matches_rk4():
    # the reference is scipy's adaptive Runge-Kutta of order 8 (DOP853)
    with criterion(1, "closed form vs Runge-Kutta", 10.0):
        for g10 in np.geomspace(1.0 / 300.0, 1.0 / 20.0, 10):
            for ratio in np.geomspace(0.2, 20.0, 10):
                g21 = g10 * ratio
                a = np.array([[0.0, g10, 0.0], [0.0, -g10, g21], [0.0, 0.0, -g21]])
                delays = np.linspace(0.01, 10.0 / g10, 25)
                ode = solve_ivp(lambda _t, p: a @ p, (0.0, delays[-1]), [0.0, 0.0, 1.0],
                                method="DOP853", t_eval=delays, rtol=1e-12, atol=1e-14)
                ref = closed_form_populations(DecayRates(g10, g21), delays)
                assert np.max(np.abs(ode.y - ref)) <= 1e-8


def test_criterion_2_normalization():
    with criterion(2, "normalization", 10.0):
        g10_grid = np.geomspace(1.0 / 300.0, 1.0 / 20.0, 10)
        ratios = np.concatenate([
            np.geomspace(0.2, 20.0, 10),
            [1.0, 1.0 + 0.5e-9, 1.0 - 0.5e-9, 1.0 + 2e-9],  # degenerate branch
        ])
        for g10 in g10_grid:
            for ratio in ratios:
                rates = DecayRates(g10, g10 * ratio)
                t = np.linspace(0.0, 10.0 * max(rates.t1e, rates.t1f), 120)
                p = closed_form_populations(rates, t)
                assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-9


def test_criterion_3_mitigation_round_trip():
    with criterion(3, "mitigation round trip", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            m = 0.6 * np.eye(3) + 0.4 * rng.dirichlet(np.ones(3), size=3).T
            cm = ConfusionMatrix(m / m.sum(axis=0))
            p = rng.dirichlet(np.ones(3))
            observed = PopulationTrace([0.0], [cm.m @ p])
            recovered = mitigate_trace(cm, observed, clip=False).populations[0]
            assert np.max(np.abs(recovered - p)) <= 1e-10


def test_criterion_4_readout_fidelity_calibration():
    with criterion(4, "readout fidelity calibration", 30.0):
        scenario = bundled_scenario("device_A")
        cm = simulate_confusion_matrix(scenario.blobs, 100_000, seed=777)
        assert abs(cm.fidelity - 0.899) <= 0.01


def test_criterion_5_lifetime_extraction():
    with criterion(5, "lifetime extraction round trip", 120.0):
        delays = np.geomspace(1.0, 600.0, 30)
        fit = fit_trace(closed_form_trace(DEVICE_A_RATES, delays))
        assert fit.t1e == pytest.approx(155.0, rel=1e-6)
        assert fit.t1f == pytest.approx(64.0, rel=1e-6)

        ideal = closed_form_populations(DEVICE_A_RATES, delays).T
        hits = 0
        reps = 200
        for seed in range(reps):
            rng = np.random.default_rng(31_000 + seed)
            observed = np.empty_like(ideal)
            for i in range(delays.size):
                p = np.clip(ideal[i], 0.0, None)
                observed[i] = rng.multinomial(2000, p / p.sum()) / 2000.0
            trace = PopulationTrace(delays, observed, np.full(delays.size, 2000))
            fit = fit_trace(trace, weighting="binomial")
            ok_e = abs(fit.t1e - 155.0) <= 3.0 * fit.stderr_t1e
            ok_f = abs(fit.t1f - 64.0) <= 3.0 * fit.stderr_t1f
            hits += ok_e and ok_f
        assert hits / reps >= 0.95


def test_criterion_6_single_tls_inversion():
    with criterion(6, "single-TLS inversion", 300.0):
        scenario = bundled_scenario("device_A")
        truth = generate_trajectories(scenario)
        w_true = truth.defects[0].trajectory_mhz

        noiseless = true_lifetime_series(scenario, truth)
        fit0 = track_tls(noiseless, scenario.device, 1)
        w0 = fit0.parameters.defects[0].trajectory_mhz
        assert np.sqrt(np.mean((w0 - w_true) ** 2)) <= 0.5

        run = pipeline_run("device_A")
        fit1 = track_tls(run["series"], scenario.device, 1)
        w1 = fit1.parameters.defects[0].trajectory_mhz
        assert np.sqrt(np.mean((w1 - w_true) ** 2)) <= 3.0
        lo = scenario.device.omega_12 - 200.0
        hi = scenario.device.omega_01 + 200.0
        assert np.all(w1 >= lo) and np.all(w1 <= hi)


def test_criterion_7_correlation_signatures():
    with criterion(7, "correlation signatures", 600.0):
        run_a = pipeline_run("device_A")
        r_a = lifetime_correlation(run_a["series"])
        assert r_a <= -0.8

        run_b = pipeline_run("device_B")
        series_b = run_b["series"]
        r_b = lifetime_correlation(series_b)
        assert abs(r_b) <= 0.3
        assert np.any(series_b.t1e_us < series_b.t1f_us)
        assert run_a["elapsed"] + run_b["elapsed"] < 600.0


def test_criterion_8_model_selection():
    with criterion(8, "model selection", 600.0):
        run_a = pipeline_run("device_A")
        fit_a = select_model(run_a["series"], run_a["scenario"].device)
        assert fit_a.model_order == 1

        run_b = pipeline_run("device_B")
        fit_b = select_model(run_b["series"], run_b["scenario"].device)
        assert fit_b.model_order == 2


def test_criterion_9_off_resonant_influence():
    with criterion(9, "off-resonant TLS influence", 10.0):
        scenario = bundled_scenario("device_A")
        device = scenario.device
        background = scenario.background
        defect = scenario.tls_truth[0]
        t1e_floor = background.t1e
        placed = TlsParameterSet(
            [TlsDefect(defect.coupling_weight, defect.linewidth_mhz,
                       np.array([device.omega_01 - 100.0]))],
            background,
        )
        g10, _ = rate_series(placed, device)
        shift = (t1e_floor - 1.0 / g10[0]) / t1e_floor
        assert shift >= 0.10


def test_criterion_10_optimizer_sanity(dense_lm):
    with criterion(10, "optimizer sanity", 10.0):
        # the batched 2x2 solver on a stack of linear least-squares problems
        rng = np.random.default_rng(10)
        a = rng.normal(size=(10, 15, 2))
        b = np.einsum("kmi,ik->km", a, rng.normal(size=(2, 10))) + 0.05 * rng.normal(size=(10, 15))

        def residuals(x, idx):
            r = np.einsum("kmi,ik->km", a[idx], x) - b[idx]
            return (r,), np.sum(r * r, axis=1)

        def linearise(x, idx, rs):
            h = np.einsum("kmi,kmj->kij", a[idx], a[idx])
            return np.einsum("kmi,km->ik", a[idx], rs[0]), h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]

        x, *_, converged = _damped_newton_2x2(np.zeros((2, 10)), -np.inf, np.inf,
                                             residuals, linearise)
        expected = np.array([np.linalg.lstsq(a[k], b[k], rcond=None)[0] for k in range(10)]).T
        assert np.all(converged) and np.max(np.abs(x - expected)) < 1e-8

        # the single-problem loop on dense linear problems
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(15, 4))
            b = a @ rng.normal(size=4) + 0.05 * rng.normal(size=15)
            x, *_ = dense_lm(lambda x: a @ x - b, lambda x: a, np.zeros(4))
            expected = np.linalg.lstsq(a, b, rcond=None)[0]
            assert np.max(np.abs(x - expected)) < 1e-8

        # the tracker's analytic frequency derivatives against central
        # differences of the forward model
        device = bundled_scenario("device_A").device
        coupling, linewidth, f_multiplier, h = 5.14, 14.0, 2.0, 1e-3
        w = np.linspace(device.omega_12 - 150.0, device.omega_01 + 150.0, 61)

        def rates(freqs):
            return np.array(lorentzian_rates(device, [coupling], [linewidth], freqs[None, :],
                                             (0.0, 0.0), f_multiplier))

        quotient = (rates(w + h) - rates(w - h)) / (2.0 * h)
        analytic = np.array(tracker._frequency_derivatives(device, coupling, linewidth, w,
                                                           1.0, f_multiplier))
        # a relative comparison is ill-posed at each channel's zero crossing
        detuning = np.array([device.omega_01, device.omega_12])[:, None] - w
        mask = np.abs(detuning) > linewidth / 4.0
        rel = np.abs(analytic[mask] - quotient[mask]) / np.abs(analytic[mask])
        assert np.max(rel) < 1e-5
