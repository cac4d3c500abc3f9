"""Workload definitions: inputs made from the seed, the CLI commands of a pass,
and the checks every command's outputs must pass.

Why each workload exists, and which layer metric should move which end-to-end
metric on it, is recorded in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STAGES = ("simulate", "fit-series", "track")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str             # bundled scenario the inputs are derived from
    epochs: int
    instances: int            # distinct inputs per run, each with its own master seed
    loop: tuple[str, ...]     # CLI stages of a timed pass; the others run in set-up
    order: str                # track --order
    expected_order: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_A", "device_A", 250, 3, STAGES, "auto", 1),
        Workload("track_B", "device_B", 150, 3, ("track",), "2", 2),
    )
}


class CheckFailed(Exception):
    """A command's outputs are missing, unparsable or out of bounds."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


class Instance:
    """One input of a workload: its master seed, directories and commands."""

    def __init__(self, pkg, workload: Workload, root: Path, seed: int, index: int):
        self.pkg = pkg
        self.workload = workload
        # distinct per (seed, index) for any instance count below 1000
        self.master_seed = seed * 1000 + index
        self.dir = root / f"instance{index}"
        self.scenario_in = self.dir / "scenario_in.json"
        self.run = self.dir / "run"
        self.fit = self.run / "fit"
        self.out = self.dir / "track"
        self.quality: dict[str, float] = {}

    def write_scenario(self) -> None:
        """The bundled scenario, resized to the workload's epoch count."""
        doc = _json(self.pkg.synth.bundled_scenario_path(self.workload.scenario))
        doc["epochs"] = self.workload.epochs
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.scenario_in, "w") as fh:
            json.dump(doc, fh, indent=1)

    def argv(self, stage: str) -> list[str]:
        if stage == "simulate":
            return ["simulate", str(self.scenario_in), "--out", str(self.run),
                    "--seed", str(self.master_seed), "--jobs", "1"]
        if stage == "fit-series":
            return ["fit-series", str(self.run), "--out", str(self.fit), "--jobs", "1"]
        return ["track", str(self.fit / "series.csv"),
                "--device", str(self.run / "scenario.json"),
                "--order", self.workload.order, "--out", str(self.out)]

    # -- ground truth, read back from what simulate wrote ----------------------

    def truth(self):
        synth, tls = self.pkg.synth, self.pkg.tls
        scenario = synth.load_scenario(self.run / "scenario.json")
        defects = tls.TlsParameterSet.from_json(self.run / "truth.json")
        return scenario, defects

    # -- output checks, one per stage ---------------------------------------

    def check(self, stage: str) -> None:
        {"simulate": self._check_simulate, "fit-series": self._check_fit_series,
         "track": self._check_track}[stage]()

    def _check_simulate(self) -> None:
        pkg, n = self.pkg, self.workload.epochs
        _json(self.run / "manifest.json")
        scenario, defects = self.truth()
        _require(scenario.epochs == n and defects.n_epochs == n,
                 f"simulate: expected {n} epochs")
        _require(scenario.master_seed == self.master_seed, "simulate: seed not applied")
        pkg.readout.ConfusionMatrix.from_json(self.run / "confusion.json")
        traces = sorted((self.run / "traces").glob("epoch_*.csv"))
        _require(len(traces) == n, f"simulate: {len(traces)} trace files, expected {n}")
        for path in traces:
            pkg.dynamics.PopulationTrace.from_csv(path)

    def _check_fit_series(self) -> None:
        n = self.workload.epochs
        _json(self.fit / "manifest.json")
        fits = _json(self.fit / "fits.json")["fits"]
        _require(len(fits) == n, f"fit-series: {len(fits)} fits, expected {n}")
        fitted = self.pkg.tracker.LifetimeSeries.from_csv(self.fit / "series.csv")
        _require(fitted.n_epochs == n and fitted.has_errors,
                 "fit-series: series.csv lacks epochs or errors")
        scenario, defects = self.truth()
        true = self.pkg.synth.true_lifetime_series(scenario, defects)
        rel = np.concatenate([fitted.t1e_us / true.t1e_us, fitted.t1f_us / true.t1f_us]) - 1.0
        _require(bool(np.all(np.isfinite(rel))), "fit-series: non-finite lifetimes")
        self.quality["lifetime_rel_rms"] = float(np.sqrt(np.mean(rel**2)))

    def _check_track(self) -> None:
        w, n = self.workload, self.workload.epochs
        _json(self.out / "manifest.json")
        fit = _json(self.out / "fit.json")
        order = fit["model_order"]
        _require(order == w.expected_order,
                 f"track: selected order {order}, expected {w.expected_order}")
        _require(math.isfinite(fit["misfit"]), "track: misfit is not finite")
        rows = _csv_rows(self.out / "trajectory.csv")
        _require(len(rows) == order * n, f"track: {len(rows)} trajectory rows")
        pairs = _csv_rows(self.out / "correlation.csv")
        _require(len(pairs) == n, "track: correlation rows")
        measured = self.pkg.tracker.LifetimeSeries.from_csv(self.fit / "series.csv")
        scenario, defects = self.truth()
        true = self.pkg.synth.true_lifetime_series(scenario, defects)
        chi_fit = chi(measured, np.array([float(r["t1e_fit_us"]) for r in pairs]),
                      np.array([float(r["t1f_fit_us"]) for r in pairs]))
        chi_true = chi(measured, true.t1e_us, true.t1f_us)
        _require(chi_fit <= chi_true,
                 f"track: fitted lifetimes have chi {chi_fit:.4g}, the true ones {chi_true:.4g}")
        fitted = np.array([[float(r["omega_mhz"]) for r in rows if int(r["tls"]) == k]
                           for k in range(order)])
        rms = trajectory_rms(fitted, scenario, defects)
        self.quality.update(traj_rms_mhz=rms, misfit=float(fit["misfit"]))


def chi(measured, t1e_us: np.ndarray, t1f_us: np.ndarray) -> float:
    """Chi of model lifetimes against a measured series with reported errors.

    Each epoch and channel gives the residual of the model rate against the
    measured rate, in units of the rate's standard error, propagated from the
    reported lifetime error: (T_meas / T_model - 1) * T_meas / err.
    """
    r = np.concatenate([
        (measured.t1e_us / t1e_us - 1.0) * measured.t1e_us / measured.err_e_us,
        (measured.t1f_us / t1f_us - 1.0) * measured.t1f_us / measured.err_f_us,
    ])
    _require(bool(np.all(np.isfinite(r))), "track: non-finite lifetime residuals")
    return float(np.sqrt(np.sum(r**2)))


def trajectory_rms(fitted: np.ndarray, scenario, defects) -> float:
    """RMS error (MHz) of the dominant true defect's trajectory against the
    fitted defect that follows it best.

    The dominant defect adds the largest mean rate to the two decay channels.
    """
    dev = scenario.device

    def mean_rate(d) -> float:
        w, g = d.trajectory_mhz, d.linewidth_mhz
        return float(np.mean(d.coupling_weight * g * (1.0 / ((dev.omega_01 - w) ** 2 + g**2)
                                                      + 1.0 / ((dev.omega_12 - w) ** 2 + g**2))))

    dominant = max(defects.defects, key=mean_rate).trajectory_mhz
    return min(float(np.sqrt(np.mean((row - dominant) ** 2))) for row in fitted)
