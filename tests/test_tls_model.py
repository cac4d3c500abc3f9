import json

import numpy as np
import pytest

from tlstrack.dynamics import DecayRates
from tlstrack.errors import InvalidParameterError
from tlstrack.tls import (
    DeviceFrequencies,
    TlsDefect,
    TlsParameterSet,
    lorentzian_density,
    lorentzian_rates,
    rate_series,
    rates_with_background,
    transition_rates,
)

DEVICE_A = DeviceFrequencies(4822.08, -280.37)
DEVICE_B = DeviceFrequencies(5810.32, -201.32)


class TestLorentzian:
    def test_on_resonance_peak(self):
        assert lorentzian_density(5000.0, 10.0, 5000.0) == pytest.approx(0.1, rel=1e-14)

    def test_half_maximum_at_one_linewidth(self):
        assert lorentzian_density(5000.0, 10.0, 5010.0) == pytest.approx(0.05, rel=1e-14)

    def test_far_detuned_value(self):
        expected = 5.0 / (77.92**2 + 25.0)
        assert lorentzian_density(4900.0, 5.0, 4822.08) == pytest.approx(expected, rel=1e-13)

    def test_symmetry(self):
        assert lorentzian_density(4900.0, 5.0, 4950.0) == lorentzian_density(
            4950.0, 5.0, 4900.0
        )

    def test_vectorized(self):
        probes = np.array([4990.0, 5000.0, 5010.0])
        out = lorentzian_density(5000.0, 10.0, probes)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.1)

    def test_invalid_linewidth(self):
        with pytest.raises(InvalidParameterError):
            lorentzian_density(5000.0, 0.0, 5000.0)
        with pytest.raises(InvalidParameterError):
            lorentzian_density(5000.0, -1.0, 5000.0)


class TestDeviceFrequencies:
    def test_omega_12(self):
        assert DEVICE_A.omega_12 == pytest.approx(4541.71)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DeviceFrequencies(-1.0, -100.0)
        with pytest.raises(InvalidParameterError):
            DeviceFrequencies(4822.0, 100.0)
        with pytest.raises(InvalidParameterError):
            DeviceFrequencies(100.0, -200.0)


def single_tls(omega, coupling=2.5, linewidth=1.0):
    return TlsParameterSet([TlsDefect(coupling, linewidth, np.array([omega]))])


class TestTransitionRates:
    def test_tls_on_qubit_transition(self):
        b, g = 2.5, 1.0
        rates = transition_rates(single_tls(DEVICE_A.omega_01, b, g), DEVICE_A, 0)
        assert rates.gamma_10 == pytest.approx(b / g, rel=1e-12)
        alpha = DEVICE_A.anharmonicity
        assert rates.gamma_21 == pytest.approx(b * g / (alpha**2 + g**2), rel=1e-12)
        # numeric sanity on the suppression factor
        assert rates.gamma_21 / rates.gamma_10 == pytest.approx(1.272e-5, rel=1e-3)

    def test_additivity(self):
        d1 = TlsDefect(1.5, 8.0, np.array([4700.0]))
        d2 = TlsDefect(0.7, 3.0, np.array([4600.0]))
        both = transition_rates(TlsParameterSet([d1, d2]), DEVICE_A, 0)
        r1 = transition_rates(TlsParameterSet([d1]), DEVICE_A, 0)
        r2 = transition_rates(TlsParameterSet([d2]), DEVICE_A, 0)
        assert both.gamma_10 == pytest.approx(r1.gamma_10 + r2.gamma_10, rel=1e-14)
        assert both.gamma_21 == pytest.approx(r1.gamma_21 + r2.gamma_21, rel=1e-14)

    def test_midpoint_symmetry(self):
        mid = DEVICE_A.omega_01 + DEVICE_A.anharmonicity / 2.0
        rates = transition_rates(single_tls(mid), DEVICE_A, 0)
        assert rates.gamma_10 == pytest.approx(rates.gamma_21, rel=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            transition_rates(TlsParameterSet([]), DEVICE_A, 0)

    def test_epoch_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            transition_rates(single_tls(4700.0), DEVICE_A, 1)

    def test_f_multiplier(self):
        base = transition_rates(single_tls(4700.0), DEVICE_A, 0)
        doubled = transition_rates(single_tls(4700.0), DEVICE_A, 0, f_multiplier=2.0)
        assert doubled.gamma_10 == base.gamma_10
        assert doubled.gamma_21 == pytest.approx(2.0 * base.gamma_21, rel=1e-14)


class TestBackground:
    def test_empty_set_returns_floor(self):
        bg = DecayRates(1 / 155.0, 1 / 64.0)
        rates = rates_with_background(TlsParameterSet([]), DEVICE_A, bg, 0)
        assert rates == bg

    def test_zero_floor_equals_transition_rates(self):
        tls = single_tls(4700.0)
        assert rates_with_background(tls, DEVICE_A, DecayRates(0.0, 0.0), 0) == \
            transition_rates(tls, DEVICE_A, 0)

    def test_floor_adds_componentwise(self):
        tls = single_tls(DEVICE_A.omega_01)
        b = 7e-4
        rates = rates_with_background(tls, DEVICE_A, DecayRates(b, b), 0)
        bare = transition_rates(tls, DEVICE_A, 0)
        assert rates.gamma_10 == pytest.approx(bare.gamma_10 + b, rel=1e-14)
        assert rates.gamma_21 == pytest.approx(bare.gamma_21 + b, rel=1e-14)

    def test_default_floor_comes_from_parameter_set(self):
        tls = TlsParameterSet(
            [TlsDefect(1.0, 5.0, np.array([4650.0]))], DecayRates(1e-3, 2e-3)
        )
        rates = rates_with_background(tls, DEVICE_A, epoch=0)
        bare = transition_rates(tls, DEVICE_A, 0)
        assert rates.gamma_10 == pytest.approx(bare.gamma_10 + 1e-3)
        assert rates.gamma_21 == pytest.approx(bare.gamma_21 + 2e-3)


class TestForwardModel:
    def test_public_functions_match_forward_model(self):
        defects = [
            TlsDefect(1.7, 8.0, np.linspace(4600.0, 4700.0, 6)),
            TlsDefect(0.3, 2.0, np.linspace(4580.0, 4560.0, 6)),
        ]
        bg = DecayRates(1e-3, 2e-3)
        tls = TlsParameterSet(defects, bg)
        coupling = np.array([d.coupling_weight for d in defects])
        linewidth = np.array([d.linewidth_mhz for d in defects])
        freqs = np.array([d.trajectory_mhz for d in defects])
        with_bg = lorentzian_rates(DEVICE_A, coupling, linewidth, freqs,
                                   (bg.gamma_10, bg.gamma_21), f_multiplier=2.0)
        bare = lorentzian_rates(DEVICE_A, coupling, linewidth, freqs, (0.0, 0.0),
                                f_multiplier=2.0)
        for e in range(tls.n_epochs):
            assert rates_with_background(tls, DEVICE_A, epoch=e, f_multiplier=2.0) == \
                DecayRates(with_bg[0][e], with_bg[1][e])
            assert transition_rates(tls, DEVICE_A, e, f_multiplier=2.0) == \
                DecayRates(bare[0][e], bare[1][e])
        series = rate_series(tls, DEVICE_A, f_multiplier=2.0)
        assert np.array_equal(series[0], with_bg[0])
        assert np.array_equal(series[1], with_bg[1])


class TestModelProperties:
    def test_anticorrelation_mechanism(self):
        # moving the defect toward omega_01 raises gamma_10 and lowers gamma_21
        grid = np.linspace(DEVICE_A.omega_12 + 1.0, DEVICE_A.omega_01 - 1.0, 400)
        tls = TlsParameterSet([TlsDefect(3.0, 9.0, grid)])
        g10, g21 = rate_series(tls, DEVICE_A)
        assert np.all(np.diff(g10) > 0.0)
        assert np.all(np.diff(g21) < 0.0)

    def test_scale_covariance_exact(self):
        tls = TlsParameterSet([
            TlsDefect(1.7, 8.0, np.array([4700.0])),
            TlsDefect(0.3, 2.0, np.array([4580.0])),
        ])
        scaled = TlsParameterSet([
            TlsDefect(2.0 * d.coupling_weight, d.linewidth_mhz, d.trajectory_mhz)
            for d in tls.defects
        ])
        base = transition_rates(tls, DEVICE_A, 0)
        doubled = transition_rates(scaled, DEVICE_A, 0)
        assert doubled.gamma_10 == 2.0 * base.gamma_10
        assert doubled.gamma_21 == 2.0 * base.gamma_21

    def test_peak_bound(self):
        b, g = 4.0, 6.0
        for omega in np.linspace(4400.0, 5100.0, 50):
            rates = transition_rates(single_tls(omega, b, g), DEVICE_A, 0)
            assert rates.gamma_10 <= b / g + 1e-15
            assert rates.gamma_21 <= b / g + 1e-15


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        tls = TlsParameterSet(
            [
                TlsDefect(9.9, 14.0, np.linspace(4630.0, 4650.0, 5)),
                TlsDefect(1.0, 9.0, np.full(5, 4570.0)),
            ],
            DecayRates(2e-3, 1.5e-3),
        )
        path = tmp_path / "tls.json"
        tls.to_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"schema_version", "tls", "background"}
        assert set(doc["tls"][0]) == {"B", "gamma_mhz", "omega_mhz"}
        back = TlsParameterSet.from_json(path)
        assert len(back) == 2
        assert back.background == tls.background
        for a, b in zip(back.defects, tls.defects):
            assert a.coupling_weight == b.coupling_weight
            assert np.array_equal(a.trajectory_mhz, b.trajectory_mhz)

    def test_mismatched_trajectories_rejected(self):
        with pytest.raises(InvalidParameterError):
            TlsParameterSet([
                TlsDefect(1.0, 1.0, np.zeros(3) + 4600),
                TlsDefect(1.0, 1.0, np.zeros(4) + 4700),
            ])

    def test_defect_validation(self):
        with pytest.raises(InvalidParameterError):
            TlsDefect(0.0, 1.0, np.array([4600.0]))
        with pytest.raises(InvalidParameterError):
            TlsDefect(1.0, -2.0, np.array([4600.0]))
