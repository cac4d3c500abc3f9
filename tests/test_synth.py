import dataclasses
import hashlib
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlstrack import synth
from tlstrack.dynamics import DecayRates, closed_form_populations
from tlstrack.errors import InvalidParameterError, ScenarioSchemaError
from tlstrack.readout import IqBlobModel, equilateral_blobs, simulate_confusion_matrix
from tlstrack.synth import (
    DriftProcess,
    Scenario,
    TlsTruth,
    _STREAM_EPOCH,
    _epoch_scratch,
    _ideal_populations,
    _sample_epoch_trace,
    bundled_scenario,
    derive_rng,
    generate_trajectories,
    load_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    synthesize_experiment,
    true_lifetime_series,
    true_rate_arrays,
    write_run_directory,
)
from tlstrack.tls import DeviceFrequencies
from tlstrack.trace_fit import fit_trace

DEVICE = DeviceFrequencies(4822.08, -280.37)


def small_scenario(**overrides):
    base = dict(
        name="unit",
        device=DEVICE,
        tls_truth=[
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 4642.0, 4.8, 0.32, seed=1), 9.9, 14.0)
        ],
        background=DecayRates(2.2e-3, 2.1e-3),
        epochs=6,
        epoch_spacing_hr=0.25,
        delays_us=np.geomspace(3.2, 620.0, 20),
        shots_per_delay=500,
        calibration_shots=2000,
        blobs=equilateral_blobs(1.81),
        master_seed=99,
    )
    base.update(overrides)
    return Scenario(**base)


class TestDriftProcess:
    def test_static_constant(self):
        rng = np.random.default_rng(0)
        w = DriftProcess("static", 4700.0).realize(100, 0.25, rng)
        assert np.all(w == 4700.0)

    def test_random_walk_zero_sigma_constant(self):
        rng = np.random.default_rng(0)
        w = DriftProcess("random_walk", 4700.0, 0.0).realize(100, 0.25, rng)
        assert np.all(w == 4700.0)

    def test_random_walk_steps(self):
        rng = np.random.default_rng(1)
        w = DriftProcess("random_walk", 4700.0, 2.0, seed=0).realize(2000, 0.25, rng)
        steps = np.diff(w)
        assert np.std(steps) == pytest.approx(2.0, rel=0.1)

    def test_ou_stationary_variance(self):
        # theta * dt = 0.1, sigma = 3 MHz / sqrt(hr): expect var = sigma^2 / (2 theta)
        dt = 0.25
        theta = 0.4
        sigma = 3.0
        rng = np.random.default_rng(7)
        w = DriftProcess("ornstein_uhlenbeck", 5000.0, sigma, theta).realize(10_000, dt, rng)
        expected = sigma**2 / (2.0 * theta)
        assert np.var(w[100:]) == pytest.approx(expected, rel=0.10)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DriftProcess("brownian", 4700.0)
        with pytest.raises(InvalidParameterError):
            DriftProcess("static", 4700.0, sigma_mhz=-1.0)
        with pytest.raises(InvalidParameterError):
            DriftProcess("ornstein_uhlenbeck", 4700.0, 1.0, theta_per_hr=-0.1)


class TestTrajectories:
    def test_deterministic(self):
        sc = small_scenario()
        a = generate_trajectories(sc)
        b = generate_trajectories(sc)
        assert np.array_equal(a.defects[0].trajectory_mhz, b.defects[0].trajectory_mhz)

    def test_seed_isolation(self):
        two = [
            TlsTruth(DriftProcess("random_walk", 4642.0, 2.0, seed=1), 9.9, 14.0),
            TlsTruth(DriftProcess("random_walk", 4580.0, 2.0, seed=2), 1.0, 9.0),
        ]
        sc = small_scenario(tls_truth=two)
        base = generate_trajectories(sc)
        two_changed = [
            two[0],
            TlsTruth(DriftProcess("random_walk", 4580.0, 2.0, seed=3), 1.0, 9.0),
        ]
        changed = generate_trajectories(small_scenario(tls_truth=two_changed))
        assert np.array_equal(
            base.defects[0].trajectory_mhz, changed.defects[0].trajectory_mhz
        )
        assert not np.array_equal(
            base.defects[1].trajectory_mhz, changed.defects[1].trajectory_mhz
        )

    def test_background_carried(self):
        truth = generate_trajectories(small_scenario())
        assert truth.background == DecayRates(2.2e-3, 2.1e-3)


class TestSynthesis:
    def test_bit_identical_repeats(self):
        sc = small_scenario()
        t1, c1, _ = synthesize_experiment(sc)
        t2, c2, _ = synthesize_experiment(sc)
        assert np.array_equal(c1.m, c2.m)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.populations, b.populations)

    @pytest.mark.parametrize("build, expected", [
        (lambda: dataclasses.replace(bundled_scenario("device_A"), epochs=2, master_seed=-1),
         "master_seed: expected an integer >= 0, got -1"),
        (lambda: small_scenario(master_seed=2.0), "master_seed: expected an integer >= 0, got 2.0"),
        (lambda: small_scenario(master_seed=True), "master_seed: expected an integer >= 0, got True"),
        (lambda: DriftProcess("static", 4700.0, seed=-3), "seed: expected an integer >= 0, got -3"),
    ])
    def test_bad_seed_refused_when_built_in_python(self, build, expected):
        # numpy refuses negative seeds only when the first stream is drawn
        with pytest.raises(InvalidParameterError) as info:
            build()
        assert str(info.value) == expected
        assert small_scenario(master_seed=np.int64(99)).master_seed == 99

    def test_large_shot_limit_matches_closed_form(self):
        sc = small_scenario(epochs=1, shots_per_delay=100_000, blobs=None)
        traces, confusion, truth = synthesize_experiment(sc)
        assert np.array_equal(confusion.m, np.eye(3))
        series = true_lifetime_series(sc, truth)
        rates = DecayRates(1.0 / series.t1e_us[0], 1.0 / series.t1f_us[0])
        ideal = closed_form_populations(rates, sc.delays_us).T
        assert np.max(np.abs(traces[0].populations - ideal)) < 0.005

    def test_exact_populations_oracle_chain(self):
        sc = small_scenario(exact_populations=True, blobs=None)
        traces, _, truth = synthesize_experiment(sc)
        series = true_lifetime_series(sc, truth)
        for e, trace in enumerate(traces):
            fit = fit_trace(trace)
            assert fit.t1e == pytest.approx(series.t1e_us[e], rel=1e-6)
            assert fit.t1f == pytest.approx(series.t1f_us[e], rel=1e-6)

    def test_shot_trace_carries_counts(self):
        traces, _, _ = synthesize_experiment(small_scenario())
        assert traces[0].shots is not None
        assert np.all(traces[0].shots == 500)

    @pytest.mark.parametrize("overrides, expected", [
        (dict(tls_truth=[], background=DecayRates(0.0, 0.0)),
         "epoch 0: decay rates must be strictly positive, got (0.0, 0.0)"),
        (dict(delays_us=np.append(np.geomspace(3.2, 620.0, 19), np.inf)),
         "delay times must be finite and >= 0"),
    ])
    def test_unsynthesizable_scenario_built_in_python(self, overrides, expected):
        # the JSON reader refuses both; a Scenario built in Python reaches synthesis
        with pytest.raises(InvalidParameterError) as info:
            synthesize_experiment(small_scenario(**overrides))
        assert str(info.value) == expected


class TestIdealPopulations:
    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.tuples(st.floats(1e-5, 10.0), st.floats(1e-5, 10.0)),
                       min_size=1, max_size=8),
        near=st.floats(-1e-6, 1e-6),
        delays=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=30, unique=True).map(sorted),
    )
    def test_rows_match_closed_form_per_epoch(self, rates, near, delays):
        # the appended epoch has nearly equal rates, where the series branch runs
        g10, g21 = np.array(rates + [(rates[0][0], rates[0][0] * (1.0 + near))]).T
        delays = np.array(delays)
        ideal = _ideal_populations(g10, g21, delays)
        assert ideal.shape == (g10.size, delays.size, 3)
        for e in range(g10.size):
            expected = closed_form_populations(DecayRates(g10[e], g21[e]), delays).T
            assert np.array_equal(ideal[e], expected)

    @pytest.mark.parametrize("g10, delays, expected", [
        ([1.0, 1.0, 0.0, -1.0], [0.0, 1.0], "epoch 2: decay rates must be strictly positive, "
                                            "got (0.0, 1.0)"),
        ([1.0, np.nan], [0.0, 1.0], "epoch 1: gamma_10 must be finite and >= 0, got nan"),
        ([1.0, 0.0], [0.0, np.inf], "delay times must be finite and >= 0"),
        ([0.0, 1.0], [0.0, np.inf], "epoch 0: decay rates must be strictly positive, "
                                    "got (0.0, 1.0)"),
        ([1.0, 1.0], [np.nan, 1.0], "delay times must be finite and >= 0"),
    ])
    def test_first_failing_epoch_is_named(self, g10, delays, expected):
        # per epoch, the rates are checked before the delays that all epochs share
        with pytest.raises(InvalidParameterError) as info:
            _ideal_populations(np.array(g10), np.ones(len(g10)), np.array(delays))
        assert str(info.value) == expected


CORRELATED_BLOBS = IqBlobModel(
    np.array([[0.0, 1.7], [-1.5, -0.9], [1.5, -0.9]]),
    np.array([
        [[1.0, 0.6], [0.6, 0.8]],
        [[0.5, -0.3], [-0.3, 1.4]],
        [[2.0, 0.9], [0.9, 0.7]],
    ]),
)


def reference_epoch_trace(delays, rates, shots, blobs, rng):
    """Per-(delay, state) sampling and classification: a multinomial draw per
    delay, then each non-zero state's shots drawn from its own Cholesky
    factor and classified with a fresh inverse, determinant and einsum."""
    ideal = closed_form_populations(rates, delays).T
    observed = np.empty_like(ideal)
    for i in range(delays.size):
        p = np.clip(ideal[i], 0.0, None)
        counts = rng.multinomial(shots, p / p.sum())
        if blobs is None:
            observed[i] = counts / float(shots)
            continue
        assigned = np.zeros(3, dtype=int)
        for k in range(3):
            if counts[k] == 0:
                continue
            z = rng.standard_normal((int(counts[k]), 2))
            pts = blobs.means[k] + z @ np.linalg.cholesky(blobs.covariances[k]).T
            ll = np.empty((pts.shape[0], 3))
            for j in range(3):
                d = pts - blobs.means[j]
                cov = blobs.covariances[j]
                ll[:, j] = (-0.5 * np.einsum("ni,ij,nj->n", d, np.linalg.inv(cov), d)
                            - 0.5 * math.log(float(np.linalg.det(cov))))
            assigned += np.bincount(np.argmax(ll, axis=1), minlength=3)
        observed[i] = assigned / float(shots)
    return observed


class TestEpochStreams:
    @pytest.mark.parametrize("blobs", [CORRELATED_BLOBS, None], ids=["correlated", "no_blobs"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_per_state_loop(self, blobs, seed):
        # delay 0 prepares |2> only, so states 0 and 1 draw no shots there
        delays = np.concatenate([[0.0], np.geomspace(0.5, 900.0, 11)])
        rates = DecayRates(1 / 60.0, 1 / 25.0)
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ideal = closed_form_populations(rates, delays).T
        got = _sample_epoch_trace(delays, ideal, 300, blobs, False, got_rng,
                                  _epoch_scratch(delays.size * 300, 1)[0])
        expected = reference_epoch_trace(delays, rates, 300, blobs, ref_rng)
        assert np.array_equal(got.populations, expected)
        assert np.array_equal(got.shots, np.full(delays.size, 300))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def random_spd_blobs(seed):
    """Blob means and symmetric positive definite covariances, correlated
    and anisotropic, from one seed."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 2, 2))
    covs = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(2)
    return IqBlobModel(rng.normal(scale=2.0, size=(3, 2)), covs)


def reference_assignments(blobs, points):
    """Argmax of einsum log-likelihoods with a fresh inverse and determinant."""
    ll = np.empty((points.shape[0], 3))
    for j in range(3):
        d = points - blobs.means[j]
        cov = blobs.covariances[j]
        ll[:, j] = (-0.5 * np.einsum("ni,ij,nj->n", d, np.linalg.inv(cov), d)
                    - 0.5 * math.log(float(np.linalg.det(cov))))
    return np.argmax(ll, axis=1)


class TestEpochSamplerProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        blob_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        shots=st.sampled_from([1, 2, 3, 7, 300]),
        n_delays=st.integers(1, 12),
        t1e=st.floats(5.0, 500.0),
        t1f=st.floats(5.0, 500.0),
        shared=st.booleans(),
    )
    def test_matches_per_state_reference(self, blob_seed, seed, shots, n_delays, t1e, t1f,
                                         shared):
        # delay 0 prepares |2> only, so states 0 and 1 draw no shots there;
        # blobs that share one covariance are classified by linear discriminants
        delays = np.concatenate([[0.0], np.geomspace(0.5, 900.0, n_delays)])
        rates = DecayRates(1.0 / t1e, 1.0 / t1f)
        blobs = random_spd_blobs(blob_seed)
        if shared:
            blobs = IqBlobModel(blobs.means, np.repeat(blobs.covariances[:1], 3, axis=0))
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ideal = closed_form_populations(rates, delays).T
        got = _sample_epoch_trace(delays, ideal, shots, blobs, False, got_rng,
                                  _epoch_scratch(delays.size * shots, 1)[0])
        expected = reference_epoch_trace(delays, rates, shots, blobs, ref_rng)
        assert np.array_equal(got.populations, expected)
        assert np.array_equal(got.shots, np.full(delays.size, shots))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("shots", [1, 2, 3, 7, 300])
    @pytest.mark.parametrize("blob_seed", [0, 1, 2])
    def test_confusion_matches_per_state_reference(self, blob_seed, shots):
        blobs = random_spd_blobs(blob_seed)
        rng = np.random.default_rng(blob_seed + 10)
        expected = np.zeros((3, 3))
        for k in range(3):
            z = rng.standard_normal((shots, 2))
            points = blobs.means[k] + z @ np.linalg.cholesky(blobs.covariances[k]).T
            expected[:, k] = np.bincount(reference_assignments(blobs, points), minlength=3) / shots
        got = simulate_confusion_matrix(blobs, shots, blob_seed + 10)
        assert np.array_equal(got.m, expected)


def serial_traces(sc):
    """The traces of a plain serial loop over the epochs, one stream each."""
    g10, g21 = true_rate_arrays(sc)
    ideal = _ideal_populations(g10, g21, sc.delays_us)
    # each epoch gets new buffers, so reused ones must not change a trace
    return [_sample_epoch_trace(sc.delays_us, ideal[e], sc.shots_per_delay, sc.blobs,
                                sc.exact_populations, derive_rng(sc.master_seed, _STREAM_EPOCH, e),
                                _epoch_scratch(sc.delays_us.size * sc.shots_per_delay, 1)[0])
            for e in range(sc.epochs)]


def assert_same_traces(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.delays, b.delays)
        assert np.array_equal(a.populations, b.populations)
        assert (a.shots is None) == (b.shots is None)
        if b.shots is not None:
            assert np.array_equal(a.shots, b.shots)


def epoch_of(rng):
    """The epoch index of an epoch stream from ``derive_rng``."""
    return rng.bit_generator.seed_seq.entropy[-1]


# odd and even epoch counts, one epoch (the worker gets none), no blobs,
# exact populations, and unequal covariances
THREAD_CASES = {
    "odd": dict(epochs=7),
    "even": dict(epochs=6),
    "one_epoch": dict(epochs=1),
    "no_blobs": dict(epochs=5, blobs=None),
    "exact": dict(epochs=4, exact_populations=True),
    "correlated": dict(epochs=5, blobs=CORRELATED_BLOBS),
}


class TestEpochThreads:
    """The epochs are sampled on two threads where more than one CPU is
    available; the traces and faults are those of the serial loop."""

    @pytest.fixture()
    def threads_seen(self, monkeypatch):
        """Epoch index -> the thread that sampled it."""
        seen = {}
        sample = synth._sample_epoch_trace

        def recording(*args, **kwargs):
            seen[epoch_of(args[5])] = threading.current_thread()
            return sample(*args, **kwargs)

        monkeypatch.setattr(synth, "_sample_epoch_trace", recording)
        return seen

    @pytest.mark.parametrize("overrides", THREAD_CASES.values(), ids=THREAD_CASES.keys())
    def test_two_cpus_match_serial_loop(self, monkeypatch, threads_seen, overrides):
        monkeypatch.setattr(synth, "_cpu_count", lambda: 2)
        sc = small_scenario(**overrides)
        before = threading.active_count()
        traces, _, _ = synthesize_experiment(sc)
        assert threading.active_count() == before
        assert_same_traces(traces, serial_traces(sc))
        # the caller takes the even epochs and one worker the odd ones
        caller = threading.current_thread()
        assert sorted(threads_seen) == list(range(sc.epochs))
        assert all((threads_seen[e] is caller) == (e % 2 == 0) for e in threads_seen)

    def test_frequent_thread_switches(self, monkeypatch):
        monkeypatch.setattr(synth, "_cpu_count", lambda: 2)
        sc = small_scenario(epochs=31, shots_per_delay=50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            traces, _, _ = synthesize_experiment(sc)
        finally:
            sys.setswitchinterval(interval)
        assert_same_traces(traces, serial_traces(sc))

    @pytest.mark.parametrize("overrides", THREAD_CASES.values(), ids=THREAD_CASES.keys())
    def test_one_cpu_runs_serial_loop_on_caller(self, monkeypatch, threads_seen, overrides):
        monkeypatch.setattr(synth, "_cpu_count", lambda: 1)
        sc = small_scenario(**overrides)
        traces, _, _ = synthesize_experiment(sc)
        assert_same_traces(traces, serial_traces(sc))
        assert set(threads_seen.values()) == {threading.current_thread()}

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing, raised", [
        ((3, 6), 3), ((4, 5), 4), ((5,), 5), ((0, 1), 0), ((6,), 6),
    ])
    def test_lowest_failing_epoch_raises(self, monkeypatch, cpus, failing, raised):
        monkeypatch.setattr(synth, "_cpu_count", lambda: cpus)
        sample = synth._sample_epoch_trace

        def failing_epochs(*args, **kwargs):
            e = epoch_of(args[5])
            if e in failing:
                raise InvalidParameterError(f"epoch {e} cannot be sampled")
            return sample(*args, **kwargs)

        monkeypatch.setattr(synth, "_sample_epoch_trace", failing_epochs)
        before = threading.active_count()
        with pytest.raises(InvalidParameterError) as info:
            synthesize_experiment(small_scenario(epochs=7))
        assert str(info.value) == f"epoch {raised} cannot be sampled"
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_fault_stops_the_other_thread(self, monkeypatch, threads_seen, failing):
        monkeypatch.setattr(synth, "_cpu_count", lambda: 2)
        recording = synth._sample_epoch_trace

        def failing_epoch(*args, **kwargs):
            e = epoch_of(args[5])
            if e == failing:
                raise InvalidParameterError(f"epoch {e} cannot be sampled")
            time.sleep(0.01)    # the other thread's 20 epochs take 0.2 s or more
            return recording(*args, **kwargs)

        monkeypatch.setattr(synth, "_sample_epoch_trace", failing_epoch)
        before = threading.active_count()
        with pytest.raises(InvalidParameterError, match=f"^epoch {failing} cannot"):
            synthesize_experiment(small_scenario(epochs=40))
        assert threading.active_count() == before
        # the other thread stops before its next epoch above the fault
        assert len([e for e in threads_seen if e > failing]) < 10

    def test_interrupt_stops_and_joins_worker(self, monkeypatch, threads_seen):
        monkeypatch.setattr(synth, "_cpu_count", lambda: 2)
        recording = synth._sample_epoch_trace

        def interrupted(*args, **kwargs):
            e = epoch_of(args[5])
            if e == 2:
                raise KeyboardInterrupt
            if e % 2:
                time.sleep(0.01)    # the worker's 20 epochs take 0.2 s or more
            return recording(*args, **kwargs)

        monkeypatch.setattr(synth, "_sample_epoch_trace", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            synthesize_experiment(small_scenario(epochs=40))
        assert threading.active_count() == before
        # the worker stops after the epoch it was sampling, not after its last
        assert 0 in threads_seen and sum(e % 2 for e in threads_seen) < 20


def run_digest(name, out_dir, epochs=6):
    """SHA-256 over the trace CSVs and confusion.json of a short synthesis
    of a bundled scenario at its bundled seed.  A name ending in
    ``+correlated`` swaps the scenario's blobs for ``CORRELATED_BLOBS``."""
    scenario_name, _, variant = name.partition("+")
    sc = bundled_scenario(scenario_name)
    sc.epochs = epochs
    if variant:
        sc.blobs = CORRELATED_BLOBS
    out = Path(out_dir)
    write_run_directory(sc, out)
    h = hashlib.sha256()
    for path in [out / "confusion.json", *sorted((out / "traces").glob("epoch_*.csv"))]:
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# recorded before the blocked sampler and classifier replaced the
# per-(delay, state) ones; any change to a synthesized stream shows here
GOLDEN_DIGESTS = {
    "device_A": "6321e1ab01c5004f80f7311661fea53c516a33b3e5abb1b9e61fa7b8165ef8c5",
    "device_B": "7f24498cfb04fd493c27da7e4bab2a4cdb7f7ccb833ff26ddbf12fcee175758a",
}
# recorded before shots were classified from their standard normals; the
# bundled blobs share one isotropic covariance, so only this entry pins the
# streams of unequal, anisotropic covariances
GOLDEN_DIGESTS["device_A+correlated"] = "b383c4a129ea7055140c7b4cc0c78e632b30a5a643d154a81d7ec6d7b307f4bf"


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_bundled_streams_match_golden_digest(name, tmp_path):
    assert run_digest(name, tmp_path / "run") == GOLDEN_DIGESTS[name]


class TestScenarioJson:
    def test_round_trip(self):
        sc = small_scenario()
        doc = scenario_to_json_dict(sc)
        back = scenario_from_json_dict(doc)
        assert back.name == sc.name
        assert back.master_seed == sc.master_seed
        assert np.allclose(back.delays_us, sc.delays_us)
        a, _, ta = synthesize_experiment(sc)
        b, _, tb = synthesize_experiment(back)
        assert np.array_equal(a[0].populations, b[0].populations)
        assert np.array_equal(
            ta.defects[0].trajectory_mhz, tb.defects[0].trajectory_mhz
        )

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.pop("device"), "device"),
            (lambda d: d["device"].pop("omega01_mhz"), "device.omega01_mhz"),
            (lambda d: d["tls"][0].pop("drift"), "tls[0].drift"),
            (lambda d: d["tls"][0]["drift"].update(kind="wiggle"), "tls[0]"),
            (lambda d: d.update(epochs="many"), "epochs"),
            (lambda d: d["delays"].update(kind="cubic"), "delays.kind"),
            (lambda d: d.update(schema_version=42), "schema_version"),
        ],
    )
    def test_schema_errors_carry_field_paths(self, mutate, path):
        doc = scenario_to_json_dict(small_scenario())
        mutate(doc)
        with pytest.raises(ScenarioSchemaError) as exc:
            scenario_from_json_dict(doc)
        assert exc.value.field_path == path

    @pytest.mark.parametrize("name", [None, "", "../escaped", "a/b", "..", ".", "/abs", "a/",
                                      "nul\0byte", 7])
    def test_name_must_be_a_plain_file_name(self, name):
        # simulate writes to <name>_run in the working directory
        doc = scenario_to_json_dict(small_scenario())
        doc["name"] = name
        with pytest.raises(ScenarioSchemaError) as exc:
            scenario_from_json_dict(doc)
        assert str(exc.value) == f"name: expected a plain file name, got {name!r}"

    @pytest.mark.parametrize("name", ["unit", "device A", "..hidden", "a.b"])
    def test_plain_names_are_kept(self, name):
        doc = scenario_to_json_dict(small_scenario())
        doc["name"] = name
        assert scenario_from_json_dict(doc).name == name
        del doc["name"]
        assert scenario_from_json_dict(doc).name == "scenario"

    @pytest.mark.parametrize("content", [b'{"epochs": 3,', b'\xff\xfe{'])
    def test_unreadable_json_is_a_schema_error(self, tmp_path, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioSchemaError, match="not valid JSON") as exc:
            load_scenario(path)
        assert exc.value.field_path == str(path)
        assert str(exc.value).startswith(f"{path}: not valid JSON")

    def test_log_delay_grid_expansion(self):
        doc = scenario_to_json_dict(small_scenario())
        doc["delays"] = {"kind": "log", "n": 10, "min_us": 1.0, "max_us": 100.0}
        sc = scenario_from_json_dict(doc)
        assert sc.delays_us[0] == pytest.approx(1.0)
        assert sc.delays_us[-1] == pytest.approx(100.0)
        assert sc.delays_us.size == 10


class TestBundledScenarios:
    @pytest.mark.parametrize("name", ["device_A", "device_B"])
    def test_loadable_and_valid(self, name):
        sc = bundled_scenario(name)
        assert sc.epochs == 250
        assert sc.shots_per_delay == 2000
        assert sc.blobs is not None
        assert sc.device.omega_01 > 0

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            bundled_scenario("device_Z")


class TestRunDirectory:
    def test_layout(self, tmp_path):
        sc = small_scenario(epochs=3)
        out = tmp_path / "run"
        written = write_run_directory(sc, out)
        assert sorted(written) == sorted(p for p in out.rglob("*") if p.is_file())
        assert (out / "confusion.json").exists()
        assert (out / "truth.json").exists()
        assert (out / "truth_series.csv").exists()
        assert not (out / "series.csv").exists()
        assert (out / "scenario.json").exists()
        files = sorted(p.name for p in (out / "traces").iterdir())
        assert files == ["epoch_0000.csv", "epoch_0001.csv", "epoch_0002.csv"]
        reloaded = load_scenario(out / "scenario.json")
        assert reloaded.master_seed == sc.master_seed


def test_derive_rng_streams_independent():
    a = derive_rng(1, 2, 3).standard_normal(5)
    b = derive_rng(1, 2, 3).standard_normal(5)
    c = derive_rng(1, 2, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
