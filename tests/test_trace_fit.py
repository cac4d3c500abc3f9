import numpy as np
import pytest

from tlstrack.dynamics import (
    DecayRates,
    PopulationTrace,
    bosonic_ratio,
    closed_form_populations,
    closed_form_trace,
)
from tlstrack.errors import InvalidParameterError
from tlstrack.trace_fit import default_delay_grid, fit_trace, initial_guess

DEVICE_A = DecayRates(1.0 / 155.0, 1.0 / 64.0)
DELAYS = np.geomspace(1.0, 600.0, 30)


def sampled_trace(rates, delays, shots, rng):
    ideal = closed_form_populations(rates, delays).T
    observed = np.empty_like(ideal)
    for i in range(delays.size):
        p = np.clip(ideal[i], 0.0, None)
        observed[i] = rng.multinomial(shots, p / p.sum()) / shots
    return PopulationTrace(delays, observed, np.full(delays.size, shots))


class TestInitialGuess:
    def test_pure_exponential_p2(self):
        g21 = 0.02
        trace = closed_form_trace(DecayRates(0.004, g21), np.geomspace(1.0, 500.0, 40))
        guess = initial_guess(trace)
        assert guess.gamma_21 == pytest.approx(g21, rel=0.01)

    def test_zero_p2_falls_back(self):
        delays = np.geomspace(1.0, 300.0, 20)
        pops = np.zeros((20, 3))
        pops[:, 0] = 1.0
        guess = initial_guess(PopulationTrace(delays, pops))
        assert guess.gamma_21 == pytest.approx(1.0 / 300.0)

    def test_degenerate_rates_within_25_percent(self):
        g = 0.01
        trace = closed_form_trace(DecayRates(g, g), np.geomspace(5.0, 400.0, 40))
        guess = initial_guess(trace)
        assert guess.gamma_10 == pytest.approx(g, rel=0.25)
        assert guess.gamma_21 == pytest.approx(g, rel=0.25)

    def test_always_finite(self):
        delays = np.geomspace(1.0, 100.0, 8)
        pops = np.zeros((8, 3))
        pops[:, 0] = 1.0
        guess = initial_guess(PopulationTrace(delays, pops))
        assert np.isfinite(guess.gamma_10) and np.isfinite(guess.gamma_21)


class TestNoiselessFit:
    def test_device_a_round_trip(self):
        fit = fit_trace(closed_form_trace(DEVICE_A, DELAYS))
        assert fit.t1e == pytest.approx(155.0, rel=1e-6)
        assert fit.t1f == pytest.approx(64.0, rel=1e-6)
        assert fit.converged
        # derived lifetimes are exact reciprocals
        assert fit.t1e == 1.0 / fit.rates.gamma_10
        assert fit.t1f == 1.0 / fit.rates.gamma_21

    def test_bosonic_consistency(self):
        rates = DecayRates(0.005, 0.010)
        fit = fit_trace(closed_form_trace(rates, DELAYS))
        assert bosonic_ratio(fit.rates) == pytest.approx(1.0, rel=1e-6)

    def test_round_trip_grid_no_label_swap(self):
        # p2's pure exponential pins gamma_21, so the fitter must never
        # swap the rate labels anywhere on the grid
        for g10 in np.geomspace(1.0 / 300.0, 1.0 / 20.0, 10):
            for ratio in np.geomspace(0.2, 20.0, 10):
                rates = DecayRates(g10, g10 * ratio)
                delays = default_delay_grid(rates.t1e, rates.t1f)
                fit = fit_trace(closed_form_trace(rates, delays))
                assert fit.rates.gamma_10 == pytest.approx(rates.gamma_10, rel=1e-6)
                assert fit.rates.gamma_21 == pytest.approx(rates.gamma_21, rel=1e-6)


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            fit_trace(closed_form_trace(DEVICE_A, np.linspace(1.0, 100.0, 4)))

    def test_unknown_weighting(self):
        with pytest.raises(InvalidParameterError):
            fit_trace(closed_form_trace(DEVICE_A, DELAYS), weighting="fancy")

    def test_binomial_requires_shots(self):
        with pytest.raises(InvalidParameterError):
            fit_trace(closed_form_trace(DEVICE_A, DELAYS), weighting="binomial")


class TestSampledFits:
    def test_binomial_weighting_recovers(self):
        rng = np.random.default_rng(10)
        trace = sampled_trace(DEVICE_A, DELAYS, 4000, rng)
        fit = fit_trace(trace, weighting="binomial")
        assert fit.t1e == pytest.approx(155.0, rel=0.1)
        assert fit.t1f == pytest.approx(64.0, rel=0.1)

    def test_three_sigma_coverage(self):
        hits = 0
        reps = 80
        for seed in range(reps):
            rng = np.random.default_rng(1000 + seed)
            fit = fit_trace(sampled_trace(DEVICE_A, DELAYS, 2000, rng))
            ok_e = abs(fit.t1e - 155.0) <= 3.0 * fit.stderr_t1e
            ok_f = abs(fit.t1f - 64.0) <= 3.0 * fit.stderr_t1f
            hits += ok_e and ok_f
        assert hits / reps >= 0.90

    def test_stderr_scales_with_shots(self):
        # slope of log(stderr) vs log(shots) should be -1/2
        shot_grid = [500, 2000, 8000, 32000]
        med = []
        for shots in shot_grid:
            errs = []
            for seed in range(12):
                rng = np.random.default_rng(seed + shots)
                fit = fit_trace(sampled_trace(DEVICE_A, DELAYS, shots, rng))
                errs.append(fit.stderr_t1e)
            med.append(np.median(errs))
        slope = np.polyfit(np.log(shot_grid), np.log(med), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


def test_default_delay_grid_convention():
    grid = default_delay_grid(155.0, 64.0)
    assert grid.size == 30
    assert grid[0] == pytest.approx(64.0 / 20.0)
    assert grid[-1] == pytest.approx(4.0 * 155.0)
    assert np.all(np.diff(grid) > 0.0)


def test_fit_json_schema():
    fit = fit_trace(closed_form_trace(DEVICE_A, DELAYS))
    doc = fit.to_json_dict()
    assert set(doc) == {
        "t1e_us", "t1f_us", "gamma10", "gamma21",
        "stderr_t1e", "stderr_t1f", "residual_norm", "converged", "iterations",
    }
