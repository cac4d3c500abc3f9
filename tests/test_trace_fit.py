import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import approx_fprime

from tlstrack import trace_fit
from tlstrack.dynamics import (
    DecayRates,
    PopulationTrace,
    _cascade,
    closed_form_populations,
    closed_form_trace,
)
from tlstrack.errors import FitDivergedError, InvalidParameterError
from tlstrack.readout import mitigate_trace
from tlstrack.synth import bundled_scenario, synthesize_experiment
from tlstrack.trace_fit import (
    TraceFit,
    default_delay_grid,
    fit_trace,
    fit_traces,
    initial_guess,
)

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
        # ideal bosonic decay: gamma_21 = 2 gamma_10
        assert fit.rates.gamma_21 / (2.0 * fit.rates.gamma_10) == pytest.approx(1.0, rel=1e-6)

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


# -- batched analytic-Jacobian fit ----------------------------------------------

RTOL = 1e-9


@settings(max_examples=200, deadline=None)
@example(g=1.0, rel=0.001, gt=[0.01])
@given(g=st.floats(-3.0, 0.5).map(lambda v: 10.0**v),
       rel=st.one_of(st.sampled_from([0.0, 0.5 * RTOL, -0.5 * RTOL, RTOL, -RTOL, 1.5 * RTOL,
                                      -1.5 * RTOL, 3.0 * RTOL, 1e-7, 1e-4, 0.05]),
                     st.floats(-0.9, 9.0)),
       gt=st.lists(st.floats(-3.0, np.log10(30.0)).map(lambda v: 10.0**v), min_size=1,
                   max_size=6))
def test_property_jacobian_matches_central_differences(g, rel, gt):
    # rates inside, at and just outside the degenerate band, and far apart
    g10, g21 = g, g * (1.0 + rel)
    t = np.array(gt) / g
    _, d10, d21 = _cascade(g10, g21, t, jacobian=True)
    for analytic, axis in ((d10, 0), (d21, 1)):
        h = 1e-3 * (g10, g21)[axis]
        step = np.array([h, 0.0]) if axis == 0 else np.array([0.0, h])
        up = closed_form_populations(DecayRates(*np.array([g10, g21]) + step), t)
        down = closed_form_populations(DecayRates(*np.array([g10, g21]) - step), t)
        # central-difference truncation and rounding both stay far below 1e-6 * t
        assert np.all(np.abs(np.stack(analytic) - (up - down) / (2.0 * h)) <= 1e-6 * t)


def bundled_traces(name: str, epochs: int):
    scenario = dataclasses.replace(bundled_scenario(name), epochs=epochs)
    traces, confusion, _ = synthesize_experiment(scenario)
    return [mitigate_trace(confusion, trace) for trace in traces]


@pytest.fixture(scope="module")
def short_runs():
    return {name: bundled_traces(name, 12) for name in ("device_A", "device_B")}


def fit_key(fit: TraceFit) -> str:
    # repr keeps every bit of each float, and the sign of zero
    return repr(fit.to_json_dict())


def generic_cost_and_fit(dense_lm, trace: PopulationTrace, weighting: str):
    """Final cost and convergence of the dense LM loop with forward-difference
    Jacobians from the same start, and the cost of ``fit_trace`` -- both by
    one formula."""
    weights = trace_fit._weights(trace.populations, trace.shots, weighting)

    def residual(params):
        model = closed_form_populations(DecayRates(params[0], params[1]), trace.delays).T
        return ((model - trace.populations) * weights).ravel()

    guess = initial_guess(trace)
    _, _, generic_cost, _, converged, _ = dense_lm(
        residual, lambda p: approx_fprime(p, residual, 1e-8),
        [guess.gamma_10, guess.gamma_21], trace_fit.RATE_LOWER, trace_fit.RATE_UPPER)
    fit = fit_trace(trace, weighting)
    r = residual([fit.rates.gamma_10, fit.rates.gamma_21])
    return float(r @ r), generic_cost, converged


def polyfit_guess(trace: PopulationTrace) -> list[float]:
    """The (gamma_10, gamma_21) seeds by per-trace ``np.polyfit`` regressions,
    the rule of ``initial_guess`` written out one trace at a time."""
    t, p1, p2 = trace.delays, trace.populations[:, 1], trace.populations[:, 2]

    def rate(x, y):
        slope = np.polyfit(x, y, 1)[0] if x.size >= 3 else np.nan
        return -slope if np.isfinite(slope) and slope < 0.0 else None

    g21 = rate(t[p2 > 0.05], np.log(p2[p2 > 0.05]))
    tail = (np.arange(t.size) >= np.argmax(p1)) & (p1 > 0.02)
    g10 = rate(t[tail], np.log(p1[tail]))
    if g10 is not None and g21 is not None and 0.5 <= g10 / g21 <= 2.0 and np.all(t[tail] > 0):
        g10 = rate(t[tail], np.log(p1[tail]) - np.log(t[tail])) or g10
    fallback = 1.0 / t[-1] if t[-1] > 0.0 else 1.0
    return [min(max(fallback if g is None else g, trace_fit.RATE_LOWER), trace_fit.RATE_UPPER)
            for g in (g10, g21)]


class TestBatchedFit:
    def test_seeds_match_per_trace_polyfit(self, short_runs):
        # near-degenerate, p2-free and short traces beside the bundled ones;
        # the batch sums in another order than polyfit, so they agree to rounding
        flat = np.zeros((30, 3))
        flat[:, 0] = 1.0
        # p1 peaks at delay 0, so the near-degenerate ln(p1) - ln(t) regression is skipped
        t0 = np.linspace(0.0, 400.0, 30)
        p12 = np.stack([0.5 * np.exp(-0.01 * t0), 0.5 * np.exp(-0.0105 * t0)], axis=1)
        extra = [closed_form_trace(DecayRates(0.01, 0.011), DELAYS),
                 closed_form_trace(DecayRates(0.01, 0.01), t0),
                 PopulationTrace(t0, np.column_stack([1.0 - p12.sum(axis=1), p12])),
                 PopulationTrace(DELAYS, flat), closed_form_trace(DEVICE_A, DELAYS[::6])]
        for traces in (short_runs["device_A"] + short_runs["device_B"], extra[:4], extra[4:]):
            got = trace_fit._initial_rates(np.stack([tr.delays for tr in traces]),
                                           np.stack([tr.populations for tr in traces]))
            want = np.array([polyfit_guess(tr) for tr in traces]).T
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", ["device_A", "device_B"])
    @pytest.mark.parametrize("weighting", ["uniform", "binomial"])
    def test_cost_not_above_generic_lm(self, dense_lm, short_runs, name, weighting):
        for trace in short_runs[name]:
            cost, generic_cost, converged = generic_cost_and_fit(dense_lm, trace, weighting)
            assert converged
            assert cost <= generic_cost * (1.0 + 1e-12) + 1e-15

    def test_batch_independent(self, short_runs):
        traces = short_runs["device_A"][:6] + short_runs["device_B"][:6]
        # a shorter trace makes a second group of equal lengths
        cut = traces[3]
        traces.append(PopulationTrace(cut.delays[:20], cut.populations[:20], cut.shots[:20]))
        for weighting in ("uniform", "binomial"):
            alone = [fit_key(fit_traces([t], weighting)[0]) for t in traces]
            assert [fit_key(f) for f in fit_traces(traces, weighting)] == alone
            order = np.random.default_rng(3).permutation(len(traces))
            shuffled = fit_traces([traces[i] for i in order], weighting)
            assert [fit_key(f) for f in shuffled] == [alone[i] for i in order]
            pair = fit_traces([traces[5], traces[0]], weighting)
            assert [fit_key(f) for f in pair] == [alone[5], alone[0]]

    def test_fit_trace_is_batch_of_one(self, short_runs):
        trace = short_runs["device_B"][0]
        assert fit_key(fit_trace(trace, "binomial")) == fit_key(fit_traces([trace], "binomial")[0])

    def test_errors_name_the_trace(self):
        good = closed_form_trace(DEVICE_A, DELAYS)
        short = closed_form_trace(DEVICE_A, DELAYS[:4])
        with pytest.raises(InvalidParameterError, match="trace 1: need at least 5"):
            fit_traces([good, short])
        with pytest.raises(InvalidParameterError, match="trace 0: binomial"):
            fit_traces([good], "binomial")
        assert fit_traces([]) == []

    def test_non_finite_trial_residual_raises(self, monkeypatch):
        # every trial after the first evaluation turns non-finite from the
        # second problem of the call on, so trace 0 never fails
        calls = []

        def cascade(g10, g21, t, jacobian=False):
            out = _cascade(g10, g21, t, jacobian)
            if jacobian:
                return out
            calls.append(None)
            if len(calls) > 1:
                out = tuple(np.where(np.arange(len(p))[:, None] >= 1, np.nan, p) for p in out)
            return out

        monkeypatch.setattr(trace_fit, "_cascade", cascade)
        rng = np.random.default_rng(4)
        traces = [sampled_trace(DEVICE_A, DELAYS, 2000, rng) for _ in range(3)]
        with pytest.raises(FitDivergedError, match="trace 1: non-finite") as err:
            fit_traces(traces)
        assert np.all(np.isfinite(err.value.last_parameters))
