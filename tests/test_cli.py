import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlstrack
from tlstrack import cli, trace_fit
from tlstrack.cli import main
from tlstrack.dynamics import DecayRates
from tlstrack.readout import ConfusionMatrix
from tlstrack.synth import (
    DriftProcess,
    Scenario,
    TlsTruth,
    bundled_scenario,
    bundled_scenario_path,
    scenario_to_json_dict,
    true_lifetime_series,
    generate_trajectories,
    write_run_directory,
)
from tlstrack.errors import TlstrackError
from tlstrack.tls import DeviceFrequencies, TlsParameterSet
from tlstrack.tracker import LifetimeSeries, TrackerConfig

DEVICE = DeviceFrequencies(4822.08, -280.37)


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        device=DEVICE,
        tls_truth=[
            TlsTruth(DriftProcess("ornstein_uhlenbeck", 4642.0, 4.8, 0.32, seed=1), 9.9, 14.0)
        ],
        background=DecayRates(2.2e-3, 2.1e-3),
        epochs=4,
        epoch_spacing_hr=0.25,
        delays_us=np.geomspace(3.2, 620.0, 20),
        shots_per_delay=400,
        calibration_shots=3000,
        blobs=None,
        master_seed=42,
    )
    base.update(overrides)
    return Scenario(**base)


def write_scenario(path, scenario):
    with open(path, "w") as fh:
        json.dump(scenario_to_json_dict(scenario), fh)
    return path


@pytest.fixture()
def run_dir(tmp_path):
    spath = write_scenario(tmp_path / "scenario.json", tiny_scenario())
    out = tmp_path / "run"
    assert main(["simulate", str(spath), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_epochs_1_single_trace(self, tmp_path):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario(epochs=1))
        out = tmp_path / "run"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "traces").iterdir()) == ["epoch_0000.csv"]
        assert (out / "manifest.json").exists()

    def test_malformed_json_no_partial_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        out = tmp_path / "run"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_schema_violation_reports_field_path(self, tmp_path, capsys):
        doc = scenario_to_json_dict(tiny_scenario())
        del doc["device"]["omega01_mhz"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", str(bad), "--out", str(tmp_path / 'run')]) == 2
        assert "device.omega01_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda d: d.update(calibration_shots="abc"), "calibration_shots"),
            (lambda d: d.update(calibration_shots=2.5), "calibration_shots"),
            (lambda d: d.update(background=[0.1]), "background"),
            (lambda d: d["background"].update(gamma10="x"), "background.gamma10"),
            (lambda d: d["background"].update(gamma21=None), "background.gamma21"),
            (lambda d: d["tls"][0]["drift"].update(sigma_mhz="abc"), "tls[0].drift.sigma_mhz"),
            (lambda d: d["tls"][0]["drift"].update(theta_per_hr=[0.3]),
             "tls[0].drift.theta_per_hr"),
            (lambda d: d["tls"][0]["drift"].update(seed=1.5), "tls[0].drift.seed"),
            (lambda d: d.update(exact_populations="false"), "exact_populations"),
            (lambda d: d.update(blobs=5), "blobs"),
            (lambda d: d["delays"].update(values_us=["a", 2]), "delays.values_us[0]"),
            (lambda d: d.update(blobs={"means": [[0.0, 1.0], [1.0, "x"], [-1.0, 0.0]],
                                       "covariances": [[[1.0, 0.0], [0.0, 1.0]]] * 3}),
             "blobs.means[1][1]"),
            # without defects the floor alone sets the rates, so both must be > 0
            pytest.param(lambda d: d.update(tls=[], background={"gamma10": 2.2e-3, "gamma21": 0.0}),
                         "background", id="no-defects-zero-floor"),
        ],
    )
    def test_bad_optional_field_exit_2(self, tmp_path, capsys, mutate, path):
        doc = scenario_to_json_dict(tiny_scenario())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        assert f"error: {path}: expected" in capsys.readouterr().err
        assert not out.exists()

    # 5001 digits pass Python's int-to-str limit: json.load itself refuses them
    @pytest.mark.parametrize("digits, expected", [
        (401, "epoch_spacing_hr: expected a finite number, got 1000"),
        (5001, "not valid JSON: Exceeds the limit"),
    ])
    def test_int_beyond_float_range_exit_2(self, tmp_path, capsys, digits, expected):
        doc = scenario_to_json_dict(tiny_scenario())
        doc["epoch_spacing_hr"] = "HUGE"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * (digits - 1)))
        out = tmp_path / "run"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_no_defects_gives_floor_lifetimes(self, tmp_path):
        floor = DecayRates(2.2e-3, 2.1e-3)
        spath = write_scenario(tmp_path / "s.json", tiny_scenario(tls_truth=[], background=floor))
        out = tmp_path / "run"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        truth = LifetimeSeries.from_csv(out / "truth_series.csv")
        assert truth.n_epochs == 4
        assert np.all(truth.t1e_us == 1.0 / floor.gamma_10)
        assert np.all(truth.t1f_us == 1.0 / floor.gamma_21)

    def test_unknown_scenario_name(self, tmp_path):
        assert main(["simulate", "device_Z", "--out", str(tmp_path / "run")]) == 2

    def test_seed_override_changes_outputs(self, tmp_path):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(spath), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["simulate", str(spath), "--out", str(out2), "--seed", "2"]) == 0
        t1 = (out1 / "traces" / "epoch_0000.csv").read_text()
        t2 = (out2 / "traces" / "epoch_0000.csv").read_text()
        assert t1 != t2

    @pytest.mark.parametrize("flags, mutate, expected", [
        (["--seed", "-1"], None, "seed: expected an integer >= 0, got -1"),
        ([], lambda d: d.update(master_seed=-5), "master_seed: expected an integer >= 0, got -5"),
        ([], lambda d: d["tls"][0]["drift"].update(seed=-3),
         "tls[0].drift.seed: expected an integer >= 0, got -3"),
    ], ids=["flag", "master_seed", "drift"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, flags, mutate, expected):
        # numpy refuses negative seeds; they are refused before any output
        doc = json.loads(bundled_scenario_path("device_A").read_text())
        if mutate is not None:
            mutate(doc)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", str(spath), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_bundled_name_full_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "device_A", "--out", str(out), "--jobs", "2"]) == 0
        assert len(list((out / "traces").glob("epoch_*.csv"))) == 250
        assert (out / "confusion.json").exists()
        assert (out / "truth.json").exists()

    def test_jobs_deterministic(self, tmp_path):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(spath), "--out", str(out1)]) == 0
        assert main(["simulate", str(spath), "--out", str(out2), "--jobs", "2"]) == 0
        for name in ("traces/epoch_0000.csv", "traces/epoch_0003.csv", "truth_series.csv"):
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_manifest_lists_only_files_written(self, tmp_path):
        # a rerun into a used run directory lists neither the old manifest
        # nor the fit-series outputs in run/fit
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        out = tmp_path / "run"
        argv = ["simulate", str(spath), "--out", str(out)]
        assert main(argv) == 0
        fresh = json.loads((out / "manifest.json").read_text())["outputs"]
        assert fresh == sorted(["scenario.json", "confusion.json", "truth.json",
                                "truth_series.csv"]
                               + [f"traces/epoch_{e:04d}.csv" for e in range(4)])
        assert main(["fit-series", str(out), "--out", str(out / "fit")]) == 0
        assert main(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["outputs"] == fresh


    def test_rerun_with_fewer_epochs_leaves_no_stale_traces(self, tmp_path):
        out = tmp_path / "run"
        for epochs in (6, 3):
            spath = write_scenario(tmp_path / "s.json", tiny_scenario(epochs=epochs))
            assert main(["simulate", str(spath), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "traces").iterdir()) == \
            [f"epoch_{e:04d}.csv" for e in range(3)]
        assert main(["fit-series", str(out)]) == 0
        assert len(json.loads((out / "fits.json").read_text())["fits"]) == 3


class TestFitSeries:
    def test_outputs_and_oracle_chain(self, tmp_path):
        # exact populations and no readout noise: fitted series must match
        # the simulated truth series to high precision
        sc = tiny_scenario(exact_populations=True)
        spath = write_scenario(tmp_path / "s.json", sc)
        out = tmp_path / "run"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        truth_bytes = (out / "truth_series.csv").read_bytes()
        truth_series = LifetimeSeries.from_csv(out / "truth_series.csv")
        assert main(["fit-series", str(out)]) == 0
        # fitting into the run directory leaves the ground truth alone
        assert (out / "truth_series.csv").read_bytes() == truth_bytes
        fitted = LifetimeSeries.from_csv(out / "series.csv")
        assert np.allclose(fitted.t1e_us, truth_series.t1e_us, rtol=1e-6)
        assert np.allclose(fitted.t1f_us, truth_series.t1f_us, rtol=1e-6)
        doc = json.loads((out / "fits.json").read_text())
        assert len(doc["fits"]) == 4
        assert all(f["converged"] for f in doc["fits"])
        assert all(type(f["iterations"]) is int and f["iterations"] > 0 for f in doc["fits"])

    def test_converged_flag_column(self, run_dir):
        assert main(["fit-series", str(run_dir)]) == 0
        header = (run_dir / "series.csv").read_text().splitlines()[0]
        assert header == "timestamp_hr,t1e_us,t1f_us,err_e,err_f,converged"

    def test_missing_confusion_matrix(self, run_dir, capsys):
        (run_dir / "confusion.json").unlink()
        assert main(["fit-series", str(run_dir)]) == 2
        assert "confusion" in capsys.readouterr().err
        assert main(["fit-series", str(run_dir), "--no-mitigation"]) == 0

    def test_empty_run_dir(self, tmp_path):
        assert main(["fit-series", str(tmp_path)]) == 2

    def test_out_is_a_file_exit_3(self, run_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["fit-series", str(run_dir), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: [Errno 17] File exists")

    def test_near_singular_confusion_matrix_exit_2(self, run_dir, capsys):
        m = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.5]])
        m[0, 1] -= 1e-9
        m[1, 1] += 1e-9
        ConfusionMatrix(m).to_json(run_dir / "confusion.json")
        assert main(["fit-series", str(run_dir)]) == 2
        assert capsys.readouterr().err == ("error: confusion matrix condition number 1.332e+09 "
                                           "exceeds the mitigation stability limit\n")
        assert not (run_dir / "fits.json").exists()

    @pytest.mark.parametrize("spacing", ["x", -1, 0, -0.25, None, True, [1.0], float("inf")])
    def test_bad_epoch_spacing_exit_2(self, run_dir, capsys, spacing):
        scenario = run_dir / "scenario.json"
        doc = json.loads(scenario.read_text())
        doc["epoch_spacing_hr"] = spacing
        scenario.write_text(json.dumps(doc))
        assert main(["fit-series", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {scenario}: epoch_spacing_hr: expected a finite number > 0, "
                       f"got {spacing!r}\n")
        assert not (run_dir / "fits.json").exists() and not (run_dir / "series.csv").exists()

    def test_idempotent(self, run_dir):
        assert main(["fit-series", str(run_dir)]) == 0
        first_series = (run_dir / "series.csv").read_bytes()
        first_fits = (run_dir / "fits.json").read_bytes()
        first_manifest = json.loads((run_dir / "manifest.json").read_text())
        assert main(["fit-series", str(run_dir)]) == 0
        assert (run_dir / "series.csv").read_bytes() == first_series
        assert (run_dir / "fits.json").read_bytes() == first_fits
        second_manifest = json.loads((run_dir / "manifest.json").read_text())
        for key in ("started_at", "duration_s"):
            first_manifest.pop(key)
            second_manifest.pop(key)
        assert first_manifest == second_manifest

    def test_jobs_identical(self, tmp_path):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", str(spath), "--out", str(out)]) == 0
        assert main(["fit-series", str(a)]) == 0
        assert main(["fit-series", str(b), "--jobs", "2"]) == 0
        # --jobs is still accepted and recorded, and changes nothing
        for name in ("fits.json", "series.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert json.loads((b / "manifest.json").read_text())["resolved_config"]["jobs"] == 2

    def test_confusion_matrix_read_once(self, run_dir, monkeypatch):
        made = []
        from_json_dict = cli.ConfusionMatrix.from_json_dict
        monkeypatch.setattr(cli.ConfusionMatrix, "from_json_dict",
                            lambda doc: made.append(doc) or from_json_dict(doc))
        assert main(["fit-series", str(run_dir)]) == 0
        assert len(made) == 1

    def test_unconverged_epochs_listed(self, run_dir, monkeypatch, capsys):
        doc_of = lambda: json.loads((run_dir / "fits.json").read_text())
        assert main(["fit-series", str(run_dir)]) == 0
        assert doc_of()["unconverged_epochs"] == []
        assert "flagged" not in capsys.readouterr().out
        # one iteration leaves every trace unconverged
        monkeypatch.setattr(trace_fit, "MAX_ITERATIONS", 1)
        assert main(["fit-series", str(run_dir)]) == 0
        doc = doc_of()
        assert doc["unconverged_epochs"] == [0, 1, 2, 3]
        assert [f["converged"] for f in doc["fits"]] == [False] * 4
        assert "(4 unconverged, flagged: epochs 0, 1, 2, 3)" in capsys.readouterr().out

    @pytest.mark.parametrize("edit,where", [
        (lambda rows: rows[3].__setitem__(1, "abc"), "line 4: column 'p0': expected a finite "
                                                     "number, got 'abc'"),
        (lambda rows: [row.pop(2) for row in rows], "line 1: missing column 'p1'"),
        (lambda rows: rows[2].__setitem__(3, "nan"), "line 3: column 'p2': expected a finite "
                                                     "number, got 'nan'"),
        (lambda rows: rows[5].__setitem__(4, "2.5"), "line 6: column 'shots': expected an "
                                                     "integer, got '2.5'"),
        # the lone surrogate is written as the byte 0xff, which is not UTF-8
        (lambda rows: rows[3].__setitem__(1, "1\udcff"), "line 4: column 'p0': expected a "
                                                         "finite number, got '1\ufffd'"),
    ])
    def test_bad_trace_cell_exit_2(self, run_dir, capsys, edit, where):
        path = run_dir / "traces" / "epoch_0002.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(path, "w", newline="", errors="surrogateescape") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["fit-series", str(run_dir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {where}\n"
        assert not (run_dir / "fits.json").exists()

    def test_mitigation_reduces_error(self, tmp_path):
        # paired comparison on the same seeded run with readout corruption
        from tlstrack.readout import equilateral_blobs

        sc = tiny_scenario(epochs=8, shots_per_delay=2000,
                           blobs=equilateral_blobs(1.8148436104016574),
                           calibration_shots=60000)
        spath = write_scenario(tmp_path / "s.json", sc)
        out = tmp_path / "run"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        truth = LifetimeSeries.from_csv(out / "truth_series.csv")

        on = tmp_path / "mit_on"
        off = tmp_path / "mit_off"
        assert main(["fit-series", str(out), "--out", str(on)]) == 0
        assert main(["fit-series", str(out), "--out", str(off), "--no-mitigation"]) == 0
        err = {}
        for label, path in (("on", on), ("off", off)):
            s = LifetimeSeries.from_csv(path / "series.csv")
            err[label] = np.median(
                np.abs(np.concatenate([s.t1e_us - truth.t1e_us, s.t1f_us - truth.t1f_us]))
            )
        assert err["on"] < err["off"]


def fit_digest(name, tmp_path, epochs=6):
    """SHA-256 over fits.json and series.csv of ``fit-series`` on a short
    synthesis of a bundled scenario at its bundled seed.  ``name`` is the
    scenario, then any ``fit-series`` flags."""
    scenario, *flags = name.split()
    sc = bundled_scenario(scenario)
    sc.epochs = epochs
    run = tmp_path / "run"
    write_run_directory(sc, run)
    assert main(["fit-series", str(run), *flags]) == 0
    h = hashlib.sha256()
    for file in ("fits.json", "series.csv"):
        h.update(file.encode() + b"\0")
        h.update((run / file).read_bytes())
    return h.hexdigest()


# recorded before fit-series read, mitigated and fitted the run as stacked
# arrays; like the synthesis digests they assume the same numpy and BLAS build
FIT_DIGESTS = {
    "device_A":
        "deb6c4f35d4aee6d68507a50758897a24b10f93b1eee6cee0c87458d94d79936",
    "device_A --no-mitigation":
        "def550ca975a11cadedd145d570910f0e86fb97b614b95a17a6709bcdd172eec",
    "device_A --weighting binomial":
        "b399f714021cd5937a8f8bdba4fbb416953d0f821e42abc54f52731a214bc5db",
    "device_B":
        "e7696bba03f085a5e582ca0e85edd4649b48a0b03127ab794f28bed1243f4e99",
    "device_B --no-mitigation":
        "05cfa2a0ddcf789644f01da7e4ad0a18f7adbde0d7cfc8fd01642382a9f3113a",
    "device_B --weighting binomial":
        "8dc6004a471e47fe87fedf8cc58b075d16ba2e236eea7982cfc3002907212fed",
}


@pytest.mark.parametrize("name", sorted(FIT_DIGESTS))
def test_fit_outputs_match_golden_digest(name, tmp_path):
    assert fit_digest(name, tmp_path) == FIT_DIGESTS[name]


class TestTrack:
    def make_series_csv(self, tmp_path, epochs=30):
        sc = tiny_scenario(epochs=epochs, exact_populations=True)
        truth = generate_trajectories(sc)
        series = true_lifetime_series(sc, truth)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        dev = tmp_path / "device.json"
        dev.write_text(json.dumps({
            "omega01_mhz": DEVICE.omega_01,
            "anharmonicity_mhz": DEVICE.anharmonicity,
        }))
        return path, dev, truth

    def test_order_1_outputs(self, tmp_path):
        spath, dev, truth = self.make_series_csv(tmp_path)
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["model_order"] == 1
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        omegas = np.array([float(r.split(",")[2]) for r in rows])
        w12, w01 = DEVICE.omega_12, DEVICE.omega_01
        assert np.all(omegas > w12) and np.all(omegas < w01)
        assert (out / "correlation.csv").exists()

    def test_device_from_scenario_file(self, tmp_path):
        spath, _, _ = self.make_series_csv(tmp_path, epochs=12)
        scenario_path = write_scenario(tmp_path / "scen.json", tiny_scenario())
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(scenario_path),
                     "--order", "1", "--out", str(out)]) == 0

    def test_short_series_order_2_warns(self, tmp_path):
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=5)
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "2", "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert any("fewer than 25" in w for w in doc["warnings"])

    def test_series_without_rows_exit_2_under_default_order(self, tmp_path, capsys):
        # --order auto is the default; model selection must reach the epoch-count check
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        spath.write_text(spath.read_text().splitlines()[0] + "\n")
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need at least 3 epochs to track\n"
        assert not out.exists()

    def test_bad_device_file(self, tmp_path):
        spath, _, _ = self.make_series_csv(tmp_path, epochs=12)
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps({"frequency": 1.0}))
        assert main(["track", str(spath), "--device", str(dev), "--order", "1"]) == 2

    @pytest.mark.parametrize("doc, where", [
        ({"omega01_mhz": -5, "anharmonicity_mhz": -280},
         "omega01_mhz: omega_01 must be positive, got -5"),
        ({"device": {"omega01_mhz": 4822.08, "anharmonicity_mhz": 3}},
         "device.anharmonicity_mhz: anharmonicity must be negative"),
        ({"omega01_mhz": 200, "anharmonicity_mhz": -280},
         "omega01_mhz + anharmonicity_mhz: omega_12"),
        ({"omega01_mhz": True, "anharmonicity_mhz": -0.5},
         "omega01_mhz: expected a finite number, got True"),
        ({"device": {"omega01_mhz": "5000", "anharmonicity_mhz": -280}},
         "device.omega01_mhz: expected a finite number, got '5000'"),
    ])
    def test_bad_device_value_names_file_and_key(self, tmp_path, capsys, doc, where):
        spath, _, _ = self.make_series_csv(tmp_path, epochs=12)
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps(doc))
        assert main(["track", str(spath), "--device", str(dev), "--order", "1"]) == 2
        assert f"error: {dev}: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("device, where", [
        ({"omega01_mhz": -5, "anharmonicity_mhz": -280},
         "device.omega01_mhz: omega_01 must be positive, got -5.0"),
        ({"omega01_mhz": 4822.08, "anharmonicity_mhz": 3},
         "device.anharmonicity_mhz: anharmonicity must be negative, got 3.0"),
        ({"omega01_mhz": 200, "anharmonicity_mhz": -280},
         "device.omega01_mhz + device.anharmonicity_mhz: "
         "omega_12 = omega_01 + anharmonicity must be positive"),
        ({"omega01_mhz": True, "anharmonicity_mhz": -0.5},
         "device.omega01_mhz: expected a finite number, got True"),
        ({"omega01_mhz": 4822.08}, "device.anharmonicity_mhz: missing required field"),
        (5, "device: expected an object, got 5"),
    ])
    def test_device_file_and_scenario_section_give_one_message(self, tmp_path, capsys,
                                                               device, where):
        # one function reads both, so a fault has one key path and message
        spath, _, _ = self.make_series_csv(tmp_path, epochs=12)
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps({"device": device}))
        assert main(["track", str(spath), "--device", str(dev), "--order", "1",
                     "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == f"error: {dev}: {where}\n"
        doc = scenario_to_json_dict(tiny_scenario())
        doc["device"] = device
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main(["simulate", str(scenario), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {where}\n"
        assert not (tmp_path / "fit").exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("digits, expected", [
        (401, "omega01_mhz: expected a finite number, got 1000"),
        (5001, "not valid JSON: Exceeds the limit"),
    ])
    def test_device_int_beyond_float_range_exit_2(self, tmp_path, capsys, digits, expected):
        spath, _, _ = self.make_series_csv(tmp_path, epochs=12)
        dev = tmp_path / "dev.json"
        dev.write_text('{"omega01_mhz": 1%s, "anharmonicity_mhz": -280}' % ("0" * (digits - 1)))
        assert main(["track", str(spath), "--device", str(dev), "--order", "1"]) == 2
        assert f"error: {dev}: {expected}" in capsys.readouterr().err

    def test_non_finite_series_exit_2(self, tmp_path, capsys):
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        lines = spath.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "nan"
        lines[3] = ",".join(cells)
        spath.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "1", "--out", str(out)]) == 2
        assert main(["correlate", str(spath), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(
            f"{spath}: line 4: column 't1e_us': expected a positive finite number, got 'nan'") == 2

    def test_non_numeric_series_exit_2(self, tmp_path, capsys):
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        lines = spath.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "abc"
        lines[3] = ",".join(cells)
        spath.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "1", "--out", str(out)]) == 2
        assert main(["correlate", str(spath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("line 4: column 't1e_us': expected a positive finite number, got 'abc'") == 2
        assert not out.exists()

    @pytest.mark.parametrize("header, blank", [
        ("timestamp_hr,t1e_us,t1f_us,err_e", ""),
        ("timestamp_hr,t1e_us,t1f_us,err_e,err_f", ","),
    ], ids=["no-err_f-column", "blank-err_f-column"])
    def test_one_sided_series_errors_exit_2(self, tmp_path, capsys, header, blank):
        # errors on one channel only would leave the fit silently unweighted
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        rows = spath.read_text().splitlines()[1:]
        spath.write_text("".join(f"{line}\n" for line in
                                 [header] + [f"{row},0.5{blank}" for row in rows]))
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "1", "--out", str(out)]) == 2
        assert main(["correlate", str(spath), "--out", str(out)]) == 2
        message = f"error: {spath}: err_e_us and err_f_us must both be given or both omitted\n"
        assert capsys.readouterr().err == message * 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "correlate"])
    @pytest.mark.parametrize("column, text, expected", [
        ("t1e_us", "inf", "a positive finite number"),
        ("t1f_us", "-3", "a positive finite number"),
        ("err_e", "nan", "a finite number >= 0"),
        ("timestamp_hr", None, "a finite time after "),
    ], ids=["inf-lifetime", "negative-lifetime", "nan-error", "repeated-timestamp"])
    def test_bad_series_value_names_line_and_column(self, tmp_path, capsys, command, column,
                                                    text, expected):
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        series = LifetimeSeries.from_csv(spath)
        LifetimeSeries(series.epochs_hr, series.t1e_us, series.t1f_us,
                       0.01 * series.t1e_us, 0.01 * series.t1f_us).to_csv(spath)
        lines = spath.read_text().splitlines()
        cells = lines[3].split(",")
        # None repeats the previous row's timestamp
        text = lines[2].split(",")[0] if text is None else text
        cells[lines[0].split(",").index(column)] = text
        lines[3] = ",".join(cells)
        spath.write_text("\n".join(lines) + "\n")
        argv = [command, str(spath), "--out", str(tmp_path / "out")]
        if command == "track":
            argv += ["--device", str(dev), "--order", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spath}: line 4: column {column!r}: expected {expected}")
        assert err.endswith(f", got {text!r}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("tracker, path", [
        ({"coarse_points": 257}, "tracker.coarse_points"),
        ({"outer_iterations": 2.5}, "tracker.outer_iterations"),
        ({"drift_penalty": 0.1}, "tracker.drift_penalty: unknown"),
        ({"refine_tol_mhz": 1e-4}, "tracker.refine_tol_mhz: unknown"),
        ({"coarse_points_2d": 1}, "tracker.coarse_points_2d: unknown"),
        ({"band_margin_mhz": -1000.0}, "empty search band"),
        ({"max_candidates": 0}, "tracker.max_candidates: unknown"),
        ({"linewidth_bounds_mhz": [500, 0.05]}, "linewidth_bounds_mhz: expected 0 < lo < hi"),
        ({"linewidth_bounds_mhz": [0, 10]}, "linewidth_bounds_mhz: expected 0 < lo < hi"),
        ({"coupling_bounds": [-1, 5]}, "coupling_bounds: expected 0 < lo < hi"),
        ({"f_multiplier": 0}, "f_multiplier: expected > 0"),
        ({"f_multiplier": -1}, "f_multiplier: expected > 0"),
        ({"band_margin_mhz": 1e160}, "band_margin_mhz: the frequency polynomials"),
        ({"band_margin_mhz": 1e308}, "band_margin_mhz: the frequency polynomials"),
        ({"fixed_background": {"gamma10": 0.0, "gamma21": 0.0}},
         "tracker.fixed_background: unknown tracker config key"),
        ({"fit_background": "yes"}, "tracker.fit_background: expected true or false, got 'yes'"),
        ({"band_margin_mhz": "200"}, "tracker.band_margin_mhz: expected a finite number, got '200'"),
        ({"coupling_bounds": [1e-10, 1.0, 1e8]},
         "tracker.coupling_bounds: expected two finite numbers, got [1e-10, 1.0, 100000000.0]"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_tracker_config_exit_2(self, tmp_path, capsys, tracker, path):
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": tracker}))
        assert main(["track", str(spath), "--device", str(dev), "--order", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert path in err
        (key,) = tracker
        if key not in {f.name for f in fields(TrackerConfig)}:
            assert f"tracker.{key}: unknown tracker config key" in err

    def test_fixed_zero_floor(self, tmp_path):
        spath, dev, _ = self.make_series_csv(tmp_path, epochs=12)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tracker": {"fit_background": False}}))
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev), "--order", "1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "fit.json").read_text())["background"] == \
            {"gamma10": 0.0, "gamma21": 0.0}

    def test_order_auto_selects_two_tls(self, tmp_path):
        device_b = DeviceFrequencies(5810.32, -201.32)
        sc = tiny_scenario(
            device=device_b,
            tls_truth=[
                TlsTruth(DriftProcess("ornstein_uhlenbeck", 5800.32, 6.235, 0.24, seed=21),
                         0.15, 12.0),
                TlsTruth(DriftProcess("ornstein_uhlenbeck", 5639.0, 0.98, 0.12, seed=22),
                         1.042, 9.0),
            ],
            background=DecayRates(2e-3, 1.5e-3),
            epochs=40,
            exact_populations=True,
        )
        truth = generate_trajectories(sc)
        clean = true_lifetime_series(sc, truth)
        rng = np.random.default_rng(4)
        t1e = clean.t1e_us * (1.0 + 0.01 * rng.standard_normal(40))
        t1f = clean.t1f_us * (1.0 + 0.01 * rng.standard_normal(40))
        series = LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.01 * t1e, 0.01 * t1f)
        spath = tmp_path / "series.csv"
        series.to_csv(spath)
        dev = tmp_path / "device.json"
        dev.write_text(json.dumps({
            "omega01_mhz": device_b.omega_01,
            "anharmonicity_mhz": device_b.anharmonicity,
        }))
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "auto", "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["model_order"] == 2
        assert doc["model_scores"]["2"] < doc["model_scores"]["1"]

    def test_order_auto_skips_order_2(self, tmp_path):
        # a single defect with 1% errors: order 1's score is already below
        # order 2's floor k ln(2N), so order 2 is not fitted
        spath, dev, _ = self.make_series_csv(tmp_path)
        clean = LifetimeSeries.from_csv(spath)
        rng = np.random.default_rng(4)
        t1e = clean.t1e_us * (1.0 + 0.01 * rng.standard_normal(clean.n_epochs))
        t1f = clean.t1f_us * (1.0 + 0.01 * rng.standard_normal(clean.n_epochs))
        LifetimeSeries(clean.epochs_hr, t1e, t1f, 0.01 * t1e, 0.01 * t1f).to_csv(spath)
        out = tmp_path / "fit"
        assert main(["track", str(spath), "--device", str(dev),
                     "--order", "auto", "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        n = clean.n_epochs
        floor = (TrackerConfig().n_globals(2) + 2 * n) * math.log(2 * n)
        assert doc["model_order"] == 1
        assert doc["skipped_orders"] == [2]
        assert doc["model_scores"]["2"] == floor
        assert doc["information_score"] == doc["model_scores"]["1"] <= floor


def loaded_after_cli_import(prefix: str) -> str:
    """The modules under ``prefix`` that a fresh ``import tlstrack.cli`` loads."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, tlstrack.cli; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.')))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_cli_import_does_not_load_scipy():
    assert loaded_after_cli_import("scipy") == "[]"


def test_pipeline_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: in an interpreter where importing
    # scipy fails, a short bundled run goes through simulate, fit-series and
    # track --order auto
    doc = json.loads(bundled_scenario_path("device_A").read_text())
    doc["epochs"] = 6
    scenario, run = tmp_path / "device_A.json", tmp_path / "run"
    scenario.write_text(json.dumps(doc))
    argvs = [["simulate", str(scenario), "--out", str(run)], ["fit-series", str(run)],
             ["track", str(run / "series.csv"), "--device", str(scenario), "--order", "auto"]]
    code = ("import json, sys; sys.modules['scipy'] = None; from tlstrack.cli import main; "
            "sys.exit(0 if all(main(argv) == 0 for argv in json.loads(sys.argv[1])) else 1)")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "track: order 1" in done.stdout
    assert json.loads((run / "fit.json").read_text())["model_order"] == 1


def test_public_api():
    # a name leaves or joins the package's namespace only in a diff that says so
    assert sorted(tlstrack.__all__) == [
        "ConfusionMatrix", "DecayRates", "DeviceFrequencies", "DriftProcess", "FitDivergedError",
        "InvalidParameterError", "IqBlobModel", "LifetimeSeries", "MitigationUnstableError",
        "PopulationTrace", "Scenario", "ScenarioSchemaError", "TlsDefect",
        "TlsParameterSet", "TlsTruth", "TlstrackError", "TraceFit", "TrackerConfig", "TrackerFit",
        "UndefinedCorrelationError", "bundled_scenario", "closed_form_trace",
        "default_delay_grid", "dynamics", "equilateral_blobs", "errors", "fit_trace",
        "fit_traces", "generate_trajectories", "initial_guess", "lifetime_correlation",
        "load_scenario", "lorentzian_density", "mitigate_trace", "optimize",
        "rate_series", "readout", "reconstruct_trajectory", "select_model",
        "simulate_confusion_matrix", "synth", "synthesize_experiment", "tls", "trace_fit",
        "track_tls", "tracker", "write_run_directory",
    ]


def test_cli_import_does_not_load_process_pool():
    # no command starts worker processes, so none needs the pool's modules
    assert loaded_after_cli_import("concurrent.futures.process") == "[]"


class TestCorrelate:
    def test_exact_anticorrelation(self, tmp_path, capsys):
        t1e = np.linspace(100.0, 200.0, 10)
        series = LifetimeSeries(np.arange(10.0), t1e, 280.0 - 0.9 * t1e)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        assert main(["correlate", str(path), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pearson_r = -1.000000" in out
        scatter = (tmp_path / "correlation_scatter.csv").read_text().splitlines()
        assert scatter[0] == "t1e_us,t1f_us"
        assert len(scatter) == 11

    def test_zero_variance_exit_2(self, tmp_path):
        series = LifetimeSeries(np.arange(5.0), np.full(5, 100.0),
                                np.linspace(50.0, 60.0, 5))
        path = tmp_path / "series.csv"
        series.to_csv(path)
        assert main(["correlate", str(path)]) == 2


class TestConfigPrecedence:
    def test_flag_beats_config(self, tmp_path):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        assert main(["simulate", str(spath), "--out", str(out),
                     "--config", str(cfg), "--jobs", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["jobs"] == 1

    def test_config_beats_default(self, tmp_path):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        assert main(["simulate", str(spath), "--out", str(out), "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["jobs"] == 2

    @pytest.mark.parametrize("jobs", ["abc", 2.5, 0, True])
    def test_bad_jobs_exit_2(self, run_dir, tmp_path, capsys, jobs):
        spath = write_scenario(tmp_path / "s.json", tiny_scenario())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": jobs}))
        out = tmp_path / "run2"
        assert main(["simulate", str(spath), "--out", str(out), "--config", str(cfg)]) == 2
        assert not out.exists()
        assert main(["fit-series", str(run_dir), "--config", str(cfg)]) == 2
        assert not (run_dir / "fits.json").exists()
        assert capsys.readouterr().err.count(f"jobs: expected an integer >= 1, got {jobs!r}") == 2

    def test_bad_weighting_config_exit_2(self, run_dir, tmp_path, capsys, monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("a trace was read")

        monkeypatch.setattr("tlstrack.cli.read_traces", no_read)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weighting": "fancy"}))
        assert main(["fit-series", str(run_dir), "--config", str(cfg)]) == 2
        assert not (run_dir / "fits.json").exists()
        assert capsys.readouterr().err == \
            "error: weighting: expected 'uniform' or 'binomial', got 'fancy'\n"

    def test_zero_jobs_flag_exit_2(self, run_dir, capsys):
        assert main(["fit-series", str(run_dir), "--jobs", "0"]) == 2
        assert "jobs: expected an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit-series", "track", "correlate"])
    def test_unknown_top_level_key_exit_2(self, cli_inputs, tmp_path, command):
        # a misspelt key once changed nothing without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weighing": "binomial"}))
        assert run_cli(cli_inputs, command, tmp_path, config=cfg) == \
            (2, "error: weighing: unknown config key\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "fit-series", "track", "correlate"])
    def test_one_config_serves_every_command(self, cli_inputs, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 1, "weighting": "binomial",
                                   "tracker": {"fit_background": True}}))
        inputs = dict(cli_inputs)
        if command == "fit-series":
            inputs["run"] = tmp_path / "run"
            shutil.copytree(cli_inputs["run"], inputs["run"])
        assert run_cli(inputs, command, tmp_path, config=cfg) == (0, "")

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TLSTRACK_OUT_ROOT", str(tmp_path / "root"))
        spath = write_scenario(tmp_path / "s.json", tiny_scenario(epochs=1))
        assert main(["simulate", str(spath), "--out", "nested/run"]) == 0
        assert (tmp_path / "root" / "nested" / "run" / "manifest.json").exists()


# -- property: malformed input exits 2 with a one-line error -----------------


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A valid scenario, run directory, series CSV and device file, so that
    each example breaks exactly one input."""
    root = tmp_path_factory.mktemp("cli_inputs")
    scenario = write_scenario(root / "scenario.json", tiny_scenario())
    run = root / "run"
    assert main(["simulate", str(scenario), "--out", str(run)]) == 0
    sc = tiny_scenario(epochs=12, exact_populations=True)
    clean = true_lifetime_series(sc, generate_trajectories(sc))
    series = root / "series.csv"
    LifetimeSeries(clean.epochs_hr, clean.t1e_us, clean.t1f_us,
                   0.02 * clean.t1e_us, 0.02 * clean.t1f_us).to_csv(series)
    device = root / "device.json"
    device.write_text(json.dumps({"omega01_mhz": DEVICE.omega_01,
                                  "anharmonicity_mhz": DEVICE.anharmonicity}))
    return {"scenario": scenario, "run": run, "series": series, "device": device}


def run_cli(inputs, command, tmp, config=None, series=None) -> tuple[int, str]:
    argv = {
        "simulate": ["simulate", str(inputs["scenario"])],
        "fit-series": ["fit-series", str(inputs["run"])],
        "track": ["track", str(series or inputs["series"]), "--device", str(inputs["device"]),
                  "--order", "1"],
        "correlate": ["correlate", str(series or inputs["series"])],
    }[command] + ["--out", str(tmp / "out")]
    if config is not None:
        argv += ["--config", str(config)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _not_an_object(text: str) -> bool:
    try:
        return not isinstance(json.loads(text), dict)
    except ValueError:
        return True


# values of a type no tracker field accepts
_WRONG_TYPE = st.one_of(st.none(), st.text(max_size=4), st.lists(st.text(max_size=2), max_size=1))
_FIELDS = [f.name for f in fields(TrackerConfig)]
# names of removed fields among them
_UNKNOWN_KEY = st.one_of(st.sampled_from(["coarse_points", "refine_tol_mhz", "drift_penalty",
                                          "coarse_points_2d", "max_candidates", "outer_iterations",
                                          "probe_iterations", "joint_lm_iterations", "misfit_rtol",
                                          "misfit_floor", "use_reported_errors",
                                          "noise_floor_factor", "tie_rel", "tie_abs",
                                          "probe_tie_abs", "linewidth_init_mhz",
                                          "fixed_background"]),
                         st.text(max_size=6).filter(lambda k: k not in _FIELDS))

# (commands it applies to, config document text)
_BAD_CONFIGS = st.one_of(
    st.tuples(st.just(("simulate", "fit-series", "track", "correlate")), st.one_of(
        st.text(max_size=8).map(lambda t: "{" + t).filter(_not_an_object),
        st.one_of(st.none(), st.integers(), st.text(max_size=4),
                  st.lists(st.integers(), max_size=2)).map(json.dumps),
    )),
    st.tuples(st.just(("simulate", "fit-series")), st.one_of(
        _WRONG_TYPE, st.booleans(), st.floats(allow_nan=False), st.integers(max_value=0),
    ).map(lambda v: json.dumps({"jobs": v}))),
    # a top-level key that no command reads
    st.tuples(st.just(("simulate", "fit-series", "track", "correlate")), st.builds(
        lambda k, v: json.dumps({k: v}),
        st.text(max_size=8).filter(lambda k: k not in ("jobs", "weighting", "tracker")),
        st.integers())),
    st.tuples(st.just(("fit-series",)), st.one_of(
        st.none(), st.integers(), st.text(max_size=8).filter(lambda w: w not in ("uniform", "binomial")),
    ).map(lambda v: json.dumps({"weighting": v}))),
    st.tuples(st.just(("track",)), st.one_of(
        _WRONG_TYPE.map(lambda v: {"tracker": v}),
        st.builds(lambda k, v: {"tracker": {k: v}}, _UNKNOWN_KEY, st.integers()),
        st.builds(lambda k, v: {"tracker": {k: v}}, st.sampled_from(_FIELDS), _WRONG_TYPE),
    ).map(json.dumps)),
)

# (column, bad cell) pairs: each cell breaks the row wherever it sits; the
# file is written as Latin-1, so "\xff" and "\xc3(" are bytes that are not UTF-8
_BAD_CELLS = st.one_of(
    st.tuples(st.sampled_from(["t1e_us", "t1f_us"]),
              st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "0", "-0", "-1.5",
                               "1\xff", "1\xc3(", "1\x00"])),
    st.tuples(st.just("timestamp_hr"), st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400"])),
    st.tuples(st.sampled_from(["err_e", "err_f"]), st.sampled_from(["", "abc", "nan", "-1"])),
)


# (file, bad bytes): the device file of ``track`` or a run directory file of
# ``fit-series``; truncated or non-UTF-8 text, or JSON that is not an object
_BAD_JSON_FILES = st.tuples(
    st.sampled_from(["device.json", "scenario.json", "confusion.json"]),
    st.one_of(
        st.text(max_size=8).map(lambda t: "{" + t).filter(_not_an_object),
        st.one_of(st.none(), st.integers(), st.text(max_size=4),
                  st.lists(st.integers(), max_size=2)).map(json.dumps),
        st.sampled_from(['{"omega01_mhz": 4822.08,', "\udcff{}", '{"a": "\udcc3("}']),
    ).map(lambda t: t.encode("utf-8", "surrogateescape")),
) | st.tuples(st.just("confusion.json"), st.sampled_from([
    # valid JSON objects that are not a confusion document
    {"schema_version": 1}, {"schema_version": 1, "matrix_row_major": "abc"},
    {"schema_version": 1, "matrix_row_major": [0.5] * 8},
    {"schema_version": 1, "matrix_row_major": [[1, 0, 0], [0, 1]]},
    {"schema_version": 1, "matrix_row_major": [float("nan")] * 9},
]).map(lambda d: json.dumps(d).encode()))


class TestMalformedInputProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=_BAD_CONFIGS, pick=st.integers(0, 3))
    @example(case=(("track",), '{"tracker": {"coarse_points": 257}}'), pick=0)
    @example(case=(("track",), '{"tracker": {"refine_tol_mhz": 0.0001}}'), pick=0)
    @example(case=(("simulate", "fit-series", "track", "correlate"), '{"jobs": "\udcff"}'), pick=3)
    def test_bad_config_exit_2(self, cli_inputs, case, pick):
        commands, text = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "cfg.json"
            # surrogateescape writes "\udcff" as the byte 0xff, which is not UTF-8
            cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
            code, err = run_cli(cli_inputs, commands[pick % len(commands)], tmp, config=cfg)
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        if '"tracker": {' in text:
            assert "tracker." in err

    @settings(max_examples=40, deadline=None)
    @given(case=_BAD_JSON_FILES)
    @example(case=("device.json", b'{"omega01_mhz": 4822.08,'))
    @example(case=("scenario.json", b"\xff{}"))
    @example(case=("confusion.json", b"[]"))
    @example(case=("confusion.json", b'{"schema_version": 1}'))
    @example(case=("confusion.json",
                   b'{"schema_version": 1, "matrix_row_major": [1%s, 0, 0, 0, 1, 0, 0, 0, 1]}'
                   % (b"0" * 400)))
    def test_bad_json_file_exit_2(self, cli_inputs, case):
        name, content = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            run = tmp / "run"
            shutil.copytree(cli_inputs["run"], run)
            bad = tmp / name if name == "device.json" else run / name
            bad.write_bytes(content)
            command = "track" if name == "device.json" else "fit-series"
            code, err = run_cli({**cli_inputs, "device": bad, "run": run}, command, tmp)
            assert not (tmp / "out").exists()
        assert code == 2, err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
        if content == b'{"schema_version": 1}':
            assert "matrix_row_major" in err

    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["track", "correlate"]), row=st.integers(1, 12),
           damage=st.one_of(
               st.tuples(st.just("cell"), _BAD_CELLS),
               st.tuples(st.just("repeat timestamp"), st.none()),
               st.tuples(st.just("rename column"),
                         st.sampled_from(["timestamp_hr", "t1e_us", "t1f_us"])),
               st.tuples(st.just("keep lines"), st.integers(0, 3)),
           ))
    @example(command="correlate", row=2, damage=("cell", ("t1e_us", "1\xff")))
    @example(command="track", row=2, damage=("cell", ("t1f_us", "1\xc3(")))
    def test_bad_series_exit_2(self, cli_inputs, command, row, damage):
        lines = cli_inputs["series"].read_text().splitlines()
        header = lines[0].split(",")
        kind, what = damage
        if kind == "cell":
            cells = lines[row].split(",")
            cells[header.index(what[0])] = what[1]
            lines[row] = ",".join(cells)
        elif kind == "repeat timestamp":
            target = max(row, 2)
            cells = lines[target].split(",")
            cells[0] = lines[target - 1].split(",")[0]
            lines[target] = ",".join(cells)
        elif kind == "rename column":
            lines[0] = lines[0].replace(what, what + "_x")
        else:
            # an empty file, or fewer than the 3 epochs both commands need
            lines = lines[:what]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            series = tmp / "series.csv"
            series.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
            code, err = run_cli(cli_inputs, command, tmp, series=series)
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err


# -- one contract for the trace and series tables -----------------------------


def _set_cell(line: str, column: int, text: str) -> str:
    cells = line.split(",")
    cells[column] = text
    return ",".join(cells)


# damage to a table's lines (header first), and for each table it applies to
# the error it must raise after the file's name; the trace's optional last column is
# ``shots``, the series' is ``err_f``; files are written as Latin-1, so
# "\xff" is a byte that is not UTF-8
_TABLE_DAMAGE = {
    "short row": (
        lambda lines: lines[:3] + [",".join(lines[3].split(",")[:2])] + lines[4:],
        {"trace": "line 4: column 'p1': expected a finite number, got ''",
         "series": "line 4: column 't1f_us': expected a positive finite number, got ''"}),
    "repeated column": (
        lambda lines: [line + "," + line.split(",")[1] for line in lines],
        {"trace": "line 1: repeated column 'p0'",
         "series": "line 1: repeated column 't1e_us'"}),
    "empty file": (
        lambda lines: [],
        {"trace": "line 1: missing column 'delay_us'",
         "series": "line 1: missing column 'timestamp_hr'"}),
    "partly blank optional column": (
        lambda lines: lines[:2] + [_set_cell(lines[2], -1, "")] + lines[3:],
        {"trace": "line 3: shots is blank but other rows have it",
         "series": "line 3: err_f is blank but other rows have it"}),
    "non-UTF-8 byte": (
        lambda lines: lines[:3] + [_set_cell(lines[3], 1, "1\xff")] + lines[4:],
        {"trace": "line 4: column 'p0': expected a finite number, got '1\ufffd'",
         "series": "line 4: column 't1e_us': expected a positive finite number, got '1\ufffd'"}),
    "cell over the csv field limit": (
        lambda lines: lines[:3] + [_set_cell(lines[3], 1, "1" * 200_000)] + lines[4:],
        {"trace": "line 4: field larger than field limit (131072)",
         "series": "line 4: field larger than field limit (131072)"}),
    "integer beyond int64": (
        lambda lines: lines[:2] + [_set_cell(lines[2], -1, "9" * 20)] + lines[3:],
        {"trace": "line 3: column 'shots': expected an integer, got '99999999999999999999'"}),
}


class TestMalformedTable:
    @pytest.mark.parametrize("damage,table", [(damage, table) for damage, (_, where)
                                              in _TABLE_DAMAGE.items() for table in where])
    def test_malformed_table_exit_2(self, cli_inputs, tmp_path, table, damage):
        edit, where = _TABLE_DAMAGE[damage]
        if table == "trace":
            # the damaged file first, not first, and before a file with any
            # damage: the first damaged file's error wins
            cases = [{0: damage}, {2: damage}]
            cases += [{1: damage, 3: later} for later in _TABLE_DAMAGE if "trace" in
                      _TABLE_DAMAGE[later][1]]
            for i, case in enumerate(cases):
                run = tmp_path / f"run{i}"
                shutil.copytree(cli_inputs["run"], run)
                for epoch, name in case.items():
                    path = run / "traces" / f"epoch_{epoch:04d}.csv"
                    lines = _TABLE_DAMAGE[name][0](path.read_text().splitlines())
                    path.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
                path = run / "traces" / f"epoch_{min(case):04d}.csv"
                code, err = run_cli({**cli_inputs, "run": run}, "fit-series", tmp_path)
                assert (code, err) == (2, f"error: {path}: {where[table]}\n"), case
                assert not (tmp_path / "out").exists()
        else:
            path = tmp_path / "series.csv"
            shutil.copy(cli_inputs["series"], path)
            lines = edit(path.read_text().splitlines())
            path.write_bytes("".join(line + "\n" for line in lines).encode("latin-1"))
            for command in ("track", "correlate"):
                code, err = run_cli({**cli_inputs, "series": path}, command, tmp_path)
                assert (code, err) == (2, f"error: {path}: {where[table]}\n")
                assert not (tmp_path / "out").exists()


def _key_paths(doc, path=""):
    """(field path, parent, key) of every key of a JSON document, keys of
    objects inside lists included, e.g. ``tls[0].drift.seed``."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        sub = f"{path}[{key}]" if isinstance(doc, list) else f"{path}.{key}" if path else key
        if isinstance(doc, dict):
            yield sub, doc, key
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, sub)


def _with_value(doc, path, value):
    """A copy of ``doc`` with the key at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    _, parent, key = next(k for k in _key_paths(doc) if k[0] == path)
    parent[key] = value
    return doc


def _names_key(err, prefix, path):
    """Whether ``err`` is one ``error: <prefix><field>: `` line, with no
    traceback, whose field is ``path`` or an object that holds it (a device
    fault may name both frequency keys, joined by " + ")."""
    if err.count("\n") != 1 or not err.startswith(f"error: {prefix}") or "Traceback" in err:
        return False
    field = err[len(f"error: {prefix}"):].split(": ")[0]
    cuts = [i for i, c in enumerate(path) if c in ".["] + [len(path)]
    return bool(field) and any(path[:i] in field.split(" + ") for i in cuts)


# an out-of-range value of each scalar scenario key's own type, by key name;
# both booleans are valid exact_populations
_OUT_OF_RANGE = {
    "name": "../escaped", "schema_version": 2, "omega01_mhz": -5.0, "anharmonicity_mhz": 5.0,
    "gamma10": -1.0, "gamma21": -1.0, "coupling_weight": -1.0, "linewidth_mhz": -1.0,
    "kind": "wiggle", "start_mhz": math.inf, "sigma_mhz": -1.0, "theta_per_hr": -1.0, "seed": -1,
    "epochs": 0, "epoch_spacing_hr": -1.0, "n": 1, "min_us": -5.0, "max_us": -5.0,
    "shots_per_delay": 0, "calibration_shots": 0, "radius": -1.0, "sigma": -1.0, "master_seed": -1,
}
_ALWAYS_VALID = ("exact_populations",)


def _scenario_keys():
    """(scenario, key path, key, value) of every scalar key of the bundled
    scenarios that has values out of range."""
    for name in ("device_A", "device_B"):
        doc = json.loads(bundled_scenario_path(name).read_text())
        for path, parent, key in _key_paths(doc):
            if not isinstance(parent[key], (dict, list)) and key not in _ALWAYS_VALID:
                yield name, path, key, parent[key]


_SCENARIO_KEYS = list(_scenario_keys())

# every key of a run's truth.json (one defect) and confusion.json
_RUN_FILE_KEYS = {
    "truth.json": ["schema_version", "tls", "tls[0].B", "tls[0].gamma_mhz", "tls[0].omega_mhz",
                   "background", "background.gamma10", "background.gamma21"],
    "confusion.json": ["schema_version", "matrix_row_major", "assignment_fidelity",
                       "condition_number"],
}


@pytest.mark.parametrize("name", [None, "", "../escaped", "a/b", ".."])
def test_simulate_refuses_a_name_that_is_not_a_plain_file_name(tmp_path, monkeypatch, name):
    # without --out, simulate writes to <name>_run in the working directory
    doc = scenario_to_json_dict(tiny_scenario(epochs=1))
    doc["name"] = name
    work = tmp_path / "work"
    work.mkdir()
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(doc))
    monkeypatch.chdir(work)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["simulate", str(scenario)]) == 2
    assert err.getvalue() == f"error: name: expected a plain file name, got {name!r}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json", "work"]


class TestEveryFaultNamesItsKey:
    """One fault per key of each JSON input: a scalar key of a bundled
    scenario set out of its range, and each key of a run's ``truth.json`` and
    ``confusion.json`` set to a value of the wrong type.  Each fault names
    its key, or an object that holds it, and never an empty path."""

    def test_every_key_has_a_case(self, cli_inputs):
        assert {key for _, _, key, _ in _SCENARIO_KEYS} == set(_OUT_OF_RANGE)
        for file, paths in _RUN_FILE_KEYS.items():
            doc = json.loads((cli_inputs["run"] / file).read_text())
            assert sorted(path for path, _, _ in _key_paths(doc)) == sorted(paths)

    @pytest.mark.parametrize("name, path, key, value", _SCENARIO_KEYS,
                             ids=[f"{name}-{path}" for name, path, _, _ in _SCENARIO_KEYS])
    def test_scenario_range_fault(self, cli_inputs, tmp_path, name, path, key, value):
        doc = json.loads(bundled_scenario_path(name).read_text())
        bad = _OUT_OF_RANGE[key]
        assert type(bad) is type(value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(_with_value(doc, path, bad)))
        code, err = run_cli({**cli_inputs, "scenario": scenario}, "simulate", tmp_path)
        assert code == 2 and _names_key(err, "", path), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("file, path", [(file, path) for file, paths in _RUN_FILE_KEYS.items()
                                            for path in paths])
    def test_run_file_type_fault(self, cli_inputs, tmp_path, file, path):
        run = tmp_path / "run"
        shutil.copytree(cli_inputs["run"], run)
        bad = run / file
        bad.write_text(json.dumps(_with_value(json.loads(bad.read_text()), path, "x")))
        if file == "confusion.json":
            code, err = run_cli({**cli_inputs, "run": run}, "fit-series", tmp_path)
            assert code == 2 and _names_key(err, f"{bad}: ", path), err
            assert not (tmp_path / "out").exists()
        else:
            # no command reads truth.json; its reader raises what a command prints
            with pytest.raises(TlstrackError) as exc:
                TlsParameterSet.from_json(bad)
            assert _names_key(f"error: {exc.value}\n", f"{bad}: ", path), exc.value
