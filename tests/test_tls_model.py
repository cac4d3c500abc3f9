import json

import numpy as np
import pytest

from tlstrack.dynamics import DecayRates
from tlstrack.errors import InvalidParameterError, TlstrackError
from tlstrack.tls import (
    DeviceFrequencies,
    TlsDefect,
    TlsParameterSet,
    lorentzian_density,
    lorentzian_rates,
    rate_series,
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
        g10, g21 = rate_series(single_tls(DEVICE_A.omega_01, b, g), DEVICE_A)
        assert g10[0] == pytest.approx(b / g, rel=1e-12)
        alpha = DEVICE_A.anharmonicity
        assert g21[0] == pytest.approx(b * g / (alpha**2 + g**2), rel=1e-12)
        # numeric sanity on the suppression factor
        assert g21[0] / g10[0] == pytest.approx(1.272e-5, rel=1e-3)

    def test_additivity(self):
        d1 = TlsDefect(1.5, 8.0, np.array([4700.0]))
        d2 = TlsDefect(0.7, 3.0, np.array([4600.0]))
        both = rate_series(TlsParameterSet([d1, d2]), DEVICE_A)
        r1 = rate_series(TlsParameterSet([d1]), DEVICE_A)
        r2 = rate_series(TlsParameterSet([d2]), DEVICE_A)
        assert both[0][0] == pytest.approx(r1[0][0] + r2[0][0], rel=1e-14)
        assert both[1][0] == pytest.approx(r1[1][0] + r2[1][0], rel=1e-14)

    def test_midpoint_symmetry(self):
        mid = DEVICE_A.omega_01 + DEVICE_A.anharmonicity / 2.0
        g10, g21 = rate_series(single_tls(mid), DEVICE_A)
        assert g10[0] == pytest.approx(g21[0], rel=1e-12)

    def test_f_multiplier(self):
        base = rate_series(single_tls(4700.0), DEVICE_A)
        doubled = rate_series(single_tls(4700.0), DEVICE_A, f_multiplier=2.0)
        assert doubled[0][0] == base[0][0]
        assert doubled[1][0] == pytest.approx(2.0 * base[1][0], rel=1e-14)


class TestBackground:
    def test_floor_adds_componentwise(self):
        tls = single_tls(DEVICE_A.omega_01)
        b = 7e-4
        g10, g21 = rate_series(TlsParameterSet(tls.defects, DecayRates(b, b)), DEVICE_A)
        bare = rate_series(tls, DEVICE_A)
        assert g10[0] == pytest.approx(bare[0][0] + b, rel=1e-14)
        assert g21[0] == pytest.approx(bare[1][0] + b, rel=1e-14)

    def test_default_floor_comes_from_parameter_set(self):
        tls = TlsParameterSet(
            [TlsDefect(1.0, 5.0, np.array([4650.0]))], DecayRates(1e-3, 2e-3)
        )
        g10, g21 = rate_series(tls, DEVICE_A)
        bare = rate_series(TlsParameterSet(tls.defects), DEVICE_A)
        assert g10[0] == pytest.approx(bare[0][0] + 1e-3)
        assert g21[0] == pytest.approx(bare[1][0] + 2e-3)


class TestForwardModel:
    def test_public_functions_match_forward_model(self):
        defects = [
            TlsDefect(1.7, 8.0, np.linspace(4600.0, 4700.0, 6)),
            TlsDefect(0.3, 2.0, np.linspace(4580.0, 4560.0, 6)),
        ]
        bg = DecayRates(1e-3, 2e-3)
        coupling = np.array([d.coupling_weight for d in defects])
        linewidth = np.array([d.linewidth_mhz for d in defects])
        freqs = np.array([d.trajectory_mhz for d in defects])
        with_bg = lorentzian_rates(DEVICE_A, coupling, linewidth, freqs,
                                   (bg.gamma_10, bg.gamma_21), f_multiplier=2.0)
        bare = lorentzian_rates(DEVICE_A, coupling, linewidth, freqs, (0.0, 0.0),
                                f_multiplier=2.0)
        series = rate_series(TlsParameterSet(defects, bg), DEVICE_A, f_multiplier=2.0)
        assert np.array_equal(series[0], with_bg[0])
        assert np.array_equal(series[1], with_bg[1])
        series = rate_series(TlsParameterSet(defects), DEVICE_A, f_multiplier=2.0)
        assert np.array_equal(series[0], bare[0])
        assert np.array_equal(series[1], bare[1])


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
        base = rate_series(tls, DEVICE_A)
        doubled = rate_series(scaled, DEVICE_A)
        assert doubled[0][0] == 2.0 * base[0][0]
        assert doubled[1][0] == 2.0 * base[1][0]

    def test_peak_bound(self):
        b, g = 4.0, 6.0
        tls = TlsParameterSet([TlsDefect(b, g, np.linspace(4400.0, 5100.0, 50))])
        g10, g21 = rate_series(tls, DEVICE_A)
        assert np.all(g10 <= b / g + 1e-15)
        assert np.all(g21 <= b / g + 1e-15)


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

    @pytest.mark.parametrize("content, message", [
        ('{"schema_version": 1, "tls": [', "not valid JSON: "),
        ("[]", "expected a JSON object"),
    ])
    def test_unreadable_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "tls.json"
        path.write_text(content)
        with pytest.raises(TlstrackError) as exc:
            TlsParameterSet.from_json(path)
        assert str(exc.value).startswith(f"{path}: {message}")

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
