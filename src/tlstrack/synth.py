"""End-to-end synthetic experiments: drifting defects -> per-epoch rates ->
shot-sampled, readout-corrupted population traces.

Everything is deterministic for a fixed master seed.  Sub-streams are
derived per consumer (one per defect trajectory, one for the confusion
calibration, one per epoch), so changing one defect's seed never perturbs
the other draws.  An epoch's draws come from its own stream of (master
seed, epoch index), which pins the traces bit for bit; the ideal
populations of all epochs come from one evaluation of the cascade.

Where more than one CPU is available, the epochs are sampled on two
threads, whatever ``--jobs`` says; each epoch still draws from its own
stream into its own slot, so no output depends on the thread count.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import (DecayRates, PopulationTrace, _boolean, _cascade, _check, _field, _integer,
                       _need, _number, _number_array, _read_json)
from .errors import InvalidParameterError, ScenarioSchemaError
from .readout import ConfusionMatrix, IDENTITY_CONFUSION, IqBlobModel, _classify_frame, \
    equilateral_blobs, simulate_confusion_matrix
from .tls import DeviceFrequencies, TlsDefect, TlsParameterSet, rate_series
from .tracker import LifetimeSeries

SCENARIO_SCHEMA_VERSION = 1

# fixed stream tags for sub-seed derivation
_STREAM_TLS = 101
_STREAM_CONFUSION = 202
_STREAM_EPOCH = 303

DRIFT_KINDS = ("static", "random_walk", "ornstein_uhlenbeck")


def derive_rng(master_seed: int, *keys: int) -> np.random.Generator:
    """Independent deterministic stream for (master seed, key...)."""
    return np.random.default_rng([int(master_seed), *[int(k) for k in keys]])


def _require_seed(name: str, value) -> None:
    """numpy seeds with integers >= 0 only; refuse anything else up front."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 0:
        raise InvalidParameterError(f"{name}: expected an integer >= 0, got {value!r}")


@dataclass(frozen=True)
class DriftProcess:
    """Seeded frequency-drift process for one defect.

    ``sigma_mhz`` is the per-step kick for a random walk and the continuous
    diffusion strength (MHz per sqrt hour) for the Ornstein-Uhlenbeck kind,
    whose stationary variance is sigma^2 / (2 theta).  ``theta_per_hr`` is
    the OU mean-reversion rate and is ignored by the other kinds.
    """

    kind: str
    start_mhz: float
    sigma_mhz: float = 0.0
    theta_per_hr: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise InvalidParameterError(f"unknown drift kind {self.kind!r}")
        if not math.isfinite(self.start_mhz):
            raise InvalidParameterError("start_mhz must be finite")
        if self.sigma_mhz < 0.0:
            raise InvalidParameterError("sigma_mhz must be >= 0")
        if self.theta_per_hr < 0.0:
            raise InvalidParameterError("theta_per_hr must be >= 0")
        _require_seed("seed", self.seed)

    def realize(self, n_epochs: int, dt_hr: float, rng: np.random.Generator) -> np.ndarray:
        if n_epochs < 1:
            raise InvalidParameterError("n_epochs must be >= 1")
        w = np.full(n_epochs, self.start_mhz)
        if self.kind == "static" or self.sigma_mhz == 0.0 or n_epochs == 1:
            return w
        if self.kind == "random_walk":
            steps = rng.normal(0.0, self.sigma_mhz, n_epochs - 1)
            w[1:] += np.cumsum(steps)
            return w
        # Ornstein-Uhlenbeck, exact discretization around the start value
        theta = self.theta_per_hr
        if theta == 0.0:
            steps = rng.normal(0.0, self.sigma_mhz * math.sqrt(dt_hr), n_epochs - 1)
            w[1:] += np.cumsum(steps)
            return w
        decay = math.exp(-theta * dt_hr)
        step_sd = math.sqrt(self.sigma_mhz**2 / (2.0 * theta) * (1.0 - decay**2))
        x = self.start_mhz
        for i in range(1, n_epochs):
            x = self.start_mhz + (x - self.start_mhz) * decay + rng.normal(0.0, step_sd)
            w[i] = x
        return w

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind, "start_mhz": self.start_mhz,
               "sigma_mhz": self.sigma_mhz, "seed": self.seed}
        if self.kind == "ornstein_uhlenbeck":
            doc["theta_per_hr"] = self.theta_per_hr
        return doc


@dataclass(frozen=True)
class TlsTruth:
    """Ground-truth defect: drift process plus coupling weight and linewidth."""

    drift: DriftProcess
    coupling_weight: float
    linewidth_mhz: float

    def __post_init__(self):
        if self.coupling_weight <= 0.0 or self.linewidth_mhz <= 0.0:
            raise InvalidParameterError("coupling_weight and linewidth_mhz must be positive")


@dataclass
class Scenario:
    """Complete description of one synthetic long-run experiment."""

    name: str
    device: DeviceFrequencies
    tls_truth: list[TlsTruth]
    background: DecayRates
    epochs: int
    epoch_spacing_hr: float
    delays_us: np.ndarray
    shots_per_delay: int
    calibration_shots: int = 100_000
    blobs: Optional[IqBlobModel] = None
    exact_populations: bool = False
    master_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidParameterError("epochs must be >= 1")
        if self.epoch_spacing_hr <= 0.0:
            raise InvalidParameterError("epoch_spacing_hr must be positive")
        if self.shots_per_delay < 1:
            raise InvalidParameterError("shots_per_delay must be >= 1")
        if self.calibration_shots < 1:
            raise InvalidParameterError("calibration_shots must be >= 1")
        _require_seed("master_seed", self.master_seed)
        self.delays_us = np.asarray(self.delays_us, dtype=float)
        if self.delays_us.size < 1 or self.delays_us[0] < 0.0 or np.any(
            np.diff(self.delays_us) <= 0.0
        ):
            raise InvalidParameterError("delays must be >= 0 and strictly increasing")

    @property
    def epoch_times_hr(self) -> np.ndarray:
        return np.arange(self.epochs) * self.epoch_spacing_hr

    def confusion_matrix(self) -> ConfusionMatrix:
        if self.blobs is None:
            return IDENTITY_CONFUSION
        return simulate_confusion_matrix(
            self.blobs, self.calibration_shots, derive_rng(self.master_seed, _STREAM_CONFUSION)
        )


def _delays_from_doc(doc: dict, path: str) -> np.ndarray:
    """The delay grid of ``doc``; a fault names the key it comes from."""
    kind = _need(doc, "kind", path)
    key = path
    if kind == "explicit":
        key = f"{path}.values_us"
        values = _need(doc, "values_us", path)
        if not isinstance(values, list) or not values:
            raise ScenarioSchemaError(key, "expected a non-empty list")
        delays = _number_array(values, key)
        if delays.ndim != 1:
            raise ScenarioSchemaError(key, "expected a list of numbers")
    elif kind in ("log", "linear"):
        n = _integer(doc, "n", path)
        lo = _number(doc, "min_us", path)
        hi = _number(doc, "max_us", path)
        if n < 2 or hi <= lo or (kind == "log" and lo <= 0.0):
            raise ScenarioSchemaError(path, f"invalid delay grid (n={n}, min={lo}, max={hi})")
        delays = np.geomspace(lo, hi, n) if kind == "log" else np.linspace(lo, hi, n)
    else:
        raise ScenarioSchemaError(f"{path}.kind", f"unknown delay grid kind {kind!r}")
    # Scenario's own check, run here so that a fault names its key
    if delays[0] < 0.0 or np.any(np.diff(delays) <= 0.0):
        raise ScenarioSchemaError(key, "delays must be >= 0 and strictly increasing")
    return delays


def _blobs_from_doc(doc, path: str) -> Optional[IqBlobModel]:
    if doc is None:
        return None
    kind = _need(doc, "kind", path, "explicit")
    try:
        if kind == "equilateral":
            return equilateral_blobs(_number(doc, "radius", path), _number(doc, "sigma", path))
        if kind == "explicit":
            return IqBlobModel(_number_array(_need(doc, "means", path), f"{path}.means"),
                               _number_array(_need(doc, "covariances", path),
                                             f"{path}.covariances"))
    except InvalidParameterError as err:
        raise ScenarioSchemaError(path, str(err)) from None
    raise ScenarioSchemaError(f"{path}.kind", f"unknown blob kind {kind!r}")


def device_from_json_dict(doc: dict, path: str) -> DeviceFrequencies:
    """The device whose keys ``omega01_mhz`` and ``anharmonicity_mhz`` are in
    ``doc``, the object at field path ``path`` ("" for a whole document).
    A fault names the key at fault, or both keys where their sum is."""
    names = ("omega01_mhz", "anharmonicity_mhz")
    try:
        return DeviceFrequencies(*[_number(doc, k, path) for k in names])
    except InvalidParameterError as err:
        keys = [f"{path}.{k}" if path else k for k in names]
        # DeviceFrequencies names omega_01 or the anharmonicity, or else their sum
        word = str(err).split()[0]
        key = {"omega_01": keys[0], "anharmonicity": keys[1]}.get(word, " + ".join(keys))
        raise ScenarioSchemaError(key, str(err)) from None


def _plain_file_name(v) -> bool:
    """Whether ``v`` names a file in the working directory: ``simulate``
    writes to ``<name>_run`` there unless ``--out`` is given."""
    return (isinstance(v, str) and v not in ("", ".", "..") and "\0" not in v
            and Path(v).name == v)


def scenario_from_json_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioSchemaError("", "scenario document must be a JSON object")
    version = _integer(doc, "schema_version", "")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioSchemaError("schema_version", f"unsupported version {version}")
    device = device_from_json_dict(_need(doc, "device", ""), "device")

    bg_doc = _need(doc, "background", "", {})
    try:
        background = DecayRates(_number(bg_doc, "gamma10", "background", 0.0),
                                _number(bg_doc, "gamma21", "background", 0.0))
    except InvalidParameterError as err:
        raise ScenarioSchemaError("background", str(err)) from None

    tls_doc = _need(doc, "tls", "")
    if not isinstance(tls_doc, list):
        raise ScenarioSchemaError("tls", "expected a list of defects")
    truths = []
    for i, entry in enumerate(tls_doc):
        path = f"tls[{i}]"
        drift_doc = _need(entry, "drift", path)
        drift_path = f"{path}.drift"
        try:
            drift = DriftProcess(
                kind=_need(drift_doc, "kind", drift_path),
                start_mhz=_number(drift_doc, "start_mhz", drift_path),
                sigma_mhz=_number(drift_doc, "sigma_mhz", drift_path, 0.0),
                theta_per_hr=_number(drift_doc, "theta_per_hr", drift_path, 0.0),
                seed=_integer(drift_doc, "seed", drift_path, i, minimum=0),
            )
            truths.append(
                TlsTruth(drift, _number(entry, "coupling_weight", path),
                         _number(entry, "linewidth_mhz", path))
            )
        except InvalidParameterError as err:
            raise ScenarioSchemaError(path, str(err)) from None
    if not truths and min(background.gamma_10, background.gamma_21) <= 0.0:
        raise ScenarioSchemaError(
            "background", "expected gamma10 and gamma21 > 0 in a scenario without defects, "
            f"got ({background.gamma_10!r}, {background.gamma_21!r})"
        )

    exact = _boolean(doc, "exact_populations", "", False)
    # each range that Scenario checks is checked where its key is read
    return Scenario(
        name=_field(doc, "name", "", "scenario", _plain_file_name, "a plain file name"),
        device=device,
        tls_truth=truths,
        background=background,
        epochs=_integer(doc, "epochs", "", minimum=1),
        epoch_spacing_hr=_check(_number(doc, "epoch_spacing_hr", ""), "epoch_spacing_hr",
                                lambda v: v > 0.0, "a number > 0"),
        delays_us=_delays_from_doc(_need(doc, "delays", ""), "delays"),
        shots_per_delay=_integer(doc, "shots_per_delay", "", minimum=1),
        calibration_shots=_integer(doc, "calibration_shots", "", 100_000, minimum=1),
        blobs=_blobs_from_doc(doc.get("blobs"), "blobs"),
        exact_populations=exact,
        master_seed=_integer(doc, "master_seed", "", minimum=0),
    )


def scenario_to_json_dict(s: Scenario) -> dict:
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": s.name,
        "device": {
            "omega01_mhz": s.device.omega_01,
            "anharmonicity_mhz": s.device.anharmonicity,
        },
        "background": {"gamma10": s.background.gamma_10, "gamma21": s.background.gamma_21},
        "tls": [
            {
                "coupling_weight": t.coupling_weight,
                "linewidth_mhz": t.linewidth_mhz,
                "drift": t.drift.to_json_dict(),
            }
            for t in s.tls_truth
        ],
        "epochs": s.epochs,
        "epoch_spacing_hr": s.epoch_spacing_hr,
        "delays": {"kind": "explicit", "values_us": [float(t) for t in s.delays_us]},
        "shots_per_delay": s.shots_per_delay,
        "calibration_shots": s.calibration_shots,
        "blobs": None if s.blobs is None else s.blobs.to_json_dict(),
        "exact_populations": s.exact_populations,
        "master_seed": s.master_seed,
    }


def load_scenario(path) -> Scenario:
    return scenario_from_json_dict(_read_json(path))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (device_A, device_B)."""
    fname = name if name.endswith(".json") else f"{name}.json"
    ref = resources.files("tlstrack").joinpath("scenarios", fname)
    if not ref.is_file():
        raise InvalidParameterError(f"no bundled scenario named {name!r}")
    return Path(str(ref))


def bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))


# -- generation -------------------------------------------------------------


def generate_trajectories(scenario: Scenario) -> TlsParameterSet:
    """Realize every defect's drift process on the epoch grid."""
    defects = []
    for truth in scenario.tls_truth:
        rng = derive_rng(scenario.master_seed, _STREAM_TLS, truth.drift.seed)
        w = truth.drift.realize(scenario.epochs, scenario.epoch_spacing_hr, rng)
        defects.append(TlsDefect(truth.coupling_weight, truth.linewidth_mhz, w))
    return TlsParameterSet(defects, scenario.background)


def true_rate_arrays(scenario: Scenario, truth: Optional[TlsParameterSet] = None):
    if truth is None:
        truth = generate_trajectories(scenario)
    if truth.defects:
        return rate_series(truth, scenario.device)
    n = scenario.epochs
    return (np.full(n, scenario.background.gamma_10),
            np.full(n, scenario.background.gamma_21))


def true_lifetime_series(scenario: Scenario, truth: Optional[TlsParameterSet] = None) -> LifetimeSeries:
    g10, g21 = true_rate_arrays(scenario, truth)
    return LifetimeSeries(scenario.epoch_times_hr, 1.0 / g10, 1.0 / g21)


def _sample_epoch_trace(
    delays: np.ndarray,
    ideal: np.ndarray,
    shots: int,
    blobs: Optional[IqBlobModel],
    exact: bool,
    rng: np.random.Generator,
    scratch: Optional[tuple[np.ndarray, np.ndarray]],
) -> PopulationTrace:
    """One epoch's observed trace from its ideal populations (delays, 3).
    ``scratch`` is passed on to :func:`_classified_counts`; it is not read
    unless the shots are classified (``blobs`` given and not ``exact``)."""
    if exact:
        return PopulationTrace(delays.copy(), ideal)
    p = np.clip(ideal, 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    if blobs is None:
        # one stacked call draws the rows in order, as a call per row would
        counts = rng.multinomial(shots, p)
    else:
        counts = _classified_counts(p, shots, blobs, rng, scratch)
    return PopulationTrace(delays.copy(), counts / float(shots), np.full(delays.size, shots))


def _epoch_scratch(n: int, threads: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each thread's buffers for :func:`_classified_counts` of ``n`` shots
    per epoch: the normals (2n, 2) and the labels (n,).  All threads'
    normals are one allocation: two 1.9 MB blocks freed together went back
    to the OS, and the next command faulted their pages in again."""
    z = np.empty((threads, 2 * n, 2))
    labels = np.empty((threads, n), dtype=np.uint8)
    return list(zip(z, labels))


def _classified_counts(
    p: np.ndarray, shots: int, blobs: IqBlobModel, rng: np.random.Generator,
    scratch: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per-delay assignment counts (delays, 3) of ``shots`` prepared shots
    per delay, each drawn from its state's blob and classified.

    The stream is the per-delay one: a multinomial draw of the prepared
    states, then each state's normals in state order.  Each state's normals
    go into their own region of one buffer, and each region is classified
    in one call, from the normals themselves.  ``scratch`` holds one
    thread's buffers from :func:`_epoch_scratch` for these ``delays * shots``
    shots; every element that is read is written first.
    """
    n_delays = p.shape[0]
    n = n_delays * shots
    # state 0 fills z[:n] upwards and state 2 fills it downwards from n, so
    # both end where their labels go (they never meet, as n0 + n2 <= n);
    # state 1 fills z[n:] upwards and its labels go between the two
    z, labels = scratch
    prepared = []
    top0, top1, bottom2 = 0, n, n
    for row in p:
        # Python ints, which slice faster than numpy scalars
        n0, n1, n2 = drawn = rng.multinomial(shots, row).tolist()
        prepared.append(drawn)
        rng.standard_normal(out=z[top0:top0 + n0])
        rng.standard_normal(out=z[top1:top1 + n1])
        rng.standard_normal(out=z[bottom2 - n2:bottom2])
        top0, top1, bottom2 = top0 + n0, top1 + n1, bottom2 - n2
    _classify_frame(blobs, 0, z[:top0], labels[:top0])
    _classify_frame(blobs, 1, z[n:top1], labels[top0:bottom2])
    _classify_frame(blobs, 2, z[bottom2:n], labels[bottom2:])
    # the labels form one run per (state, delay), state 2's from the last
    # delay to the first; per run, the label sum is n1 + 2 n2 and the sum of
    # label >> 1 is n2 (reduceat needs the empty runs left out)
    prepared = np.array(prepared)
    runs = np.concatenate([prepared[:, 0], prepared[:, 1], prepared[::-1, 2]])
    filled = runs > 0
    starts = (np.cumsum(runs) - runs)[filled]
    sums = np.zeros((2, 3 * n_delays), dtype=np.int64)
    sums[0, filled] = np.add.reduceat(labels, starts, dtype=np.int64)
    sums[1, filled] = np.add.reduceat(labels >> 1, starts, dtype=np.int64)
    sums = sums.reshape(2, 3, n_delays)
    label_sum, twos = sums[:, 0] + sums[:, 1] + sums[:, 2, ::-1]
    return np.column_stack([shots - label_sum + twos, label_sum - 2 * twos, twos])


def _ideal_populations(g10: np.ndarray, g21: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """Every epoch's cascade populations from |2>, shape (epochs, delays, 3),
    from one closed-form evaluation after the one-epoch closed form's rate
    and delay checks, run once in its order; a rate fault names its epoch."""
    bad = np.flatnonzero(~(np.isfinite(g10) & np.isfinite(g21) & (g10 > 0.0) & (g21 > 0.0)))
    delays_ok = bool(np.all(np.isfinite(delays)) and np.all(delays >= 0.0))
    # epoch 0 checks its rates before the delays, which every epoch shares
    if bad.size and (bad[0] == 0 or delays_ok):
        try:
            DecayRates(float(g10[bad[0]]), float(g21[bad[0]])).require_positive()
        except InvalidParameterError as err:
            raise InvalidParameterError(f"epoch {bad[0]}: {err}") from None
    if not delays_ok:
        raise InvalidParameterError("delay times must be finite and >= 0")
    return np.stack(_cascade(g10[:, None], g21[:, None], delays), axis=-1)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity query on this platform
        return os.cpu_count() or 1


def _sample_epochs(scenario: Scenario, ideal: np.ndarray) -> list[PopulationTrace]:
    """Every epoch's trace from its ideal populations, in epoch order.

    With more than one CPU and epoch, the calling thread samples the even
    epochs and one worker thread the odd ones; numpy releases the GIL while
    it draws, so the two overlap.  Each epoch draws from its own stream into
    its own slot, so the traces are the serial loop's bit for bit.  A thread
    stops at its first fault, or before an epoch above the other thread's
    fault, and the fault re-raised here is the lowest failing epoch's, as in
    the serial loop.  The buffers of both threads are made here, once, and
    reused by every epoch.
    """
    n_epochs = scenario.epochs
    threads = 2 if n_epochs > 1 and _cpu_count() > 1 else 1
    traces: list = [None] * n_epochs
    faults: list[tuple[int, Exception]] = []
    stop = threading.Event()
    shots = scenario.shots_per_delay
    if scenario.blobs is not None and not scenario.exact_populations:
        scratch = _epoch_scratch(scenario.delays_us.size * shots, threads)
    else:
        scratch = [None] * threads

    def sample(first: int) -> None:
        for e in range(first, n_epochs, threads):
            if stop.is_set() or any(f < e for f, _ in faults):
                return
            try:
                traces[e] = _sample_epoch_trace(
                    scenario.delays_us, ideal[e], shots, scenario.blobs,
                    scenario.exact_populations,
                    derive_rng(scenario.master_seed, _STREAM_EPOCH, e), scratch[first])
            except Exception as err:
                faults.append((e, err))
                return

    if threads == 1:
        sample(0)
    else:
        worker = threading.Thread(target=sample, args=(1,), name="tlstrack-epochs")
        try:
            worker.start()
            sample(0)
            worker.join()
        finally:
            # a worker still running here, after an interrupt, ends after its epoch
            stop.set()
            if worker.is_alive():
                worker.join()
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    return traces


def synthesize_experiment(
    scenario: Scenario,
) -> tuple[list[PopulationTrace], ConfusionMatrix, TlsParameterSet]:
    """Full synthetic run: per-epoch traces, the simulated confusion matrix,
    and the ground-truth defect parameters.

    The epochs are sampled on two threads where more than one CPU is
    available (see :func:`_sample_epochs`); the outputs are the same bytes
    on one thread or two."""
    truth = generate_trajectories(scenario)
    g10, g21 = true_rate_arrays(scenario, truth)
    confusion = scenario.confusion_matrix()
    ideal = _ideal_populations(g10, g21, scenario.delays_us)
    return _sample_epochs(scenario, ideal), confusion, truth


def write_run_directory(scenario: Scenario, out_dir) -> list[Path]:
    """Materialize a run: traces/epoch_XXXX.csv, confusion.json, truth.json,
    scenario.json, and the ground-truth lifetime series as truth_series.csv
    (``fit-series`` writes the measured series.csv beside it).  Returns the
    paths it wrote, in order.  A trace file ``traces/epoch_*.csv`` that an
    earlier run left in ``out_dir`` is deleted unless this run rewrites it,
    so the directory holds one run's traces; other files are left alone."""
    out = Path(out_dir)
    traces, confusion, truth = synthesize_experiment(scenario)
    (out / "traces").mkdir(parents=True, exist_ok=True)
    names = {f"epoch_{e:04d}.csv" for e in range(len(traces))}
    for stale in (out / "traces").glob("epoch_*.csv"):
        if stale.name not in names:
            stale.unlink()
    written = [out / name for name in ("scenario.json", "confusion.json", "truth.json",
                                       "truth_series.csv")]
    scenario_path, confusion_path, truth_path, series_path = written
    with open(scenario_path, "w") as fh:
        json.dump(scenario_to_json_dict(scenario), fh, indent=1)
    confusion.to_json(confusion_path)
    truth.to_json(truth_path)
    true_lifetime_series(scenario, truth).to_csv(series_path)
    for e, trace in enumerate(traces):
        written.append(out / "traces" / f"epoch_{e:04d}.csv")
        trace.to_csv(written[-1])
    return written
