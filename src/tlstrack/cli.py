"""Command-line pipeline: simulate -> fit-series -> track / correlate.

Every command writes a ``manifest.json`` next to its outputs recording the
tool version, the resolved configuration (flags beat the config file, which
beats built-in defaults), seeds, and timing.  Exit codes: 0 success
(possibly with warnings), 2 input or validation error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dynamics import DecayRates, PopulationTrace
from .errors import (
    InvalidParameterError,
    ScenarioSchemaError,
    TlstrackError,
    UndefinedCorrelationError,
)
from .readout import ConfusionMatrix, mitigate_trace
from .synth import bundled_scenario_path, scenario_from_json_dict, write_run_directory
from .tls import DeviceFrequencies
from .trace_fit import fit_traces
from .tracker import (
    LifetimeSeries,
    TrackerConfig,
    lifetime_correlation,
    select_model,
    track_tls,
    write_correlation_csv,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

OUT_ROOT_ENV = "TLSTRACK_OUT_ROOT"


def _resolve_out(raw: str | None, default: Path) -> Path:
    if raw is None:
        return default
    out = Path(raw)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _read_json(path) -> dict:
    """The JSON object in ``path``; anything else is an input error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as err:   # bad JSON or UTF-8, or an int past Python's digit limit
        raise InvalidParameterError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{path}: expected a JSON object")
    return doc


def _resolve(flag_value, config: dict, key: str, default):
    """flags > config file > built-in default"""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _write_manifest(out_dir: Path, subcommand: str, resolved: dict, inputs: list[str],
                    outputs: list[str], seed, started: float) -> None:
    manifest = {
        "tool": "tlstrack",
        "version": __version__,
        "subcommand": subcommand,
        "resolved_config": resolved,
        "inputs": inputs,
        "outputs": sorted(outputs),
        "master_seed": seed,
        "started_at": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "duration_s": time.time() - started,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def _is_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def _valid_tracker_value(value, default) -> bool:
    """Whether a JSON ``value`` has the type of the tracker field's ``default``."""
    if isinstance(default, DecayRates):
        return (isinstance(value, dict) and set(value) <= {"gamma10", "gamma21"}
                and all(_is_number(v) and v >= 0.0 for v in value.values()))
    if isinstance(default, tuple):
        return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
    if isinstance(default, float):
        return _is_number(value)
    return type(value) is bool


_EXPECTED = {DecayRates: "an object of finite gamma10, gamma21 >= 0", tuple: "two finite numbers",
             float: "a finite number", bool: "true or false"}


def _jobs(args, config: dict) -> int:
    jobs = _resolve(args.jobs, config, "jobs", 1)
    if type(jobs) is not int or jobs < 1:
        raise InvalidParameterError(f"jobs: expected an integer >= 1, got {jobs!r}")
    return jobs


def _tracker_config(config: dict) -> TrackerConfig:
    cfg = TrackerConfig()
    section = config.get("tracker", {})
    if not isinstance(section, dict):
        raise InvalidParameterError("tracker: expected an object")
    known = {f.name for f in fields(TrackerConfig)}
    for key, value in section.items():
        if key not in known:
            raise InvalidParameterError(f"tracker.{key}: unknown tracker config key")
        default = getattr(cfg, key)
        if not _valid_tracker_value(value, default):
            raise InvalidParameterError(
                f"tracker.{key}: expected {_EXPECTED[type(default)]}, got {value!r}"
            )
        if isinstance(default, DecayRates):
            value = DecayRates(value.get("gamma10", 0.0), value.get("gamma21", 0.0))
        setattr(cfg, key, tuple(value) if isinstance(default, tuple) else value)
    return cfg


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args, config: dict) -> int:
    started = time.time()
    scenario_path = Path(args.scenario)
    if not scenario_path.exists():
        try:
            scenario_path = bundled_scenario_path(args.scenario)
        except InvalidParameterError:
            raise InvalidParameterError(
                f"scenario {args.scenario!r} is neither a file nor a bundled name"
            ) from None
    # validate fully before creating any output
    scenario = scenario_from_json_dict(_read_json(scenario_path))
    if args.seed is not None:
        scenario.master_seed = args.seed
    jobs = _jobs(args, config)

    out = _resolve_out(args.out, Path(f"{scenario.name}_run"))
    out.mkdir(parents=True, exist_ok=True)
    write_run_directory(scenario, out, jobs=jobs)
    outputs = [str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()]
    _write_manifest(out, "simulate", {"jobs": jobs, "scenario": str(scenario_path)},
                    [str(scenario_path)], outputs, scenario.master_seed, started)
    print(f"simulate: wrote {scenario.epochs} epochs to {out}")
    return EXIT_OK


def cmd_fit_series(args, config: dict) -> int:
    started = time.time()
    run_dir = Path(args.run_dir)
    traces_dir = run_dir / "traces"
    trace_files = sorted(traces_dir.glob("epoch_*.csv")) if traces_dir.is_dir() else []
    if not trace_files:
        raise InvalidParameterError(f"{run_dir}: no traces/epoch_*.csv files found")

    confusion = None
    if not args.no_mitigation:
        confusion_path = run_dir / "confusion.json"
        if not confusion_path.exists():
            raise InvalidParameterError(
                f"{run_dir}: confusion.json missing (pass --no-mitigation to skip)"
            )
        confusion_doc = _read_json(confusion_path)
        try:
            confusion = ConfusionMatrix.from_json_dict(confusion_doc)
        except InvalidParameterError as err:
            raise InvalidParameterError(f"{confusion_path}: {err}") from None

    weighting = _resolve(args.weighting, config, "weighting", "uniform")
    if weighting not in ("uniform", "binomial"):
        raise InvalidParameterError(
            f"weighting: expected 'uniform' or 'binomial', got {weighting!r}"
        )
    # accepted and recorded, but reading and mitigating need no worker processes
    jobs = _jobs(args, config)
    scenario_path = run_dir / "scenario.json"
    scenario_doc = _read_json(scenario_path) if scenario_path.exists() else {}
    spacing = scenario_doc.get("epoch_spacing_hr", 1.0)
    if not (_is_number(spacing) and spacing > 0):
        raise InvalidParameterError(
            f"{scenario_path}: epoch_spacing_hr: expected a finite number > 0, got {spacing!r}"
        )

    traces = []
    for path in trace_files:
        trace = PopulationTrace.from_csv(path)
        traces.append(trace if confusion is None else mitigate_trace(confusion, trace))
    # every trace is fitted in one batched solve
    fits = [fit.to_json_dict() for fit in fit_traces(traces, weighting)]
    unconverged = [i for i, fit in enumerate(fits) if not fit["converged"]]

    out = _resolve_out(args.out, run_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "fits.json", "w") as fh:
        json.dump({"epoch_spacing_hr": spacing, "unconverged_epochs": unconverged, "fits": fits},
                  fh, indent=1)
    series_path = out / "series.csv"
    with open(series_path, "w", newline="") as fh:
        fh.write("timestamp_hr,t1e_us,t1f_us,err_e,err_f,converged\n")
        for i, fit in enumerate(fits):
            fh.write(
                f"{i * spacing!r},{fit['t1e_us']!r},{fit['t1f_us']!r},"
                f"{fit['stderr_t1e']!r},{fit['stderr_t1f']!r},{int(fit['converged'])}\n"
            )
    _write_manifest(out, "fit-series",
                    {"weighting": weighting, "jobs": jobs,
                     "mitigation": confusion is not None},
                    [str(run_dir)], ["fits.json", "series.csv"], None, started)
    print(f"fit-series: {len(fits)} epochs -> {series_path}"
          + (f" ({len(unconverged)} unconverged, flagged: epochs "
             f"{', '.join(map(str, unconverged))})" if unconverged else ""))
    return EXIT_OK


def _load_device(path: str) -> DeviceFrequencies:
    doc = _read_json(path)
    dev = doc.get("device", doc)
    prefix = "device." if dev is not doc else ""
    keys = [prefix + k for k in ("omega01_mhz", "anharmonicity_mhz")]
    try:
        values = [dev["omega01_mhz"], dev["anharmonicity_mhz"]]
    except (KeyError, TypeError):
        raise InvalidParameterError(
            f"{path}: expected omega01_mhz and anharmonicity_mhz (or a scenario file)"
        ) from None
    for key, value in zip(keys, values):
        if not _is_number(value):
            raise InvalidParameterError(f"{path}: {key}: expected a finite number, got {value!r}")
    try:
        return DeviceFrequencies(*values)
    except InvalidParameterError as err:
        # DeviceFrequencies names omega_01 or the anharmonicity, or else their sum
        word = str(err).split()[0]
        key = {"omega_01": keys[0], "anharmonicity": keys[1]}.get(word, " + ".join(keys))
        raise InvalidParameterError(f"{path}: {key}: {err}") from None


def cmd_track(args, config: dict) -> int:
    started = time.time()
    series = LifetimeSeries.from_csv(args.series)
    device = _load_device(args.device)
    tracker_cfg = _tracker_config(config)

    if args.order == "auto":
        fit = select_model(series, device, tracker_cfg)
    else:
        fit = track_tls(series, device, int(args.order), tracker_cfg)

    out = _resolve_out(args.out, Path(args.series).resolve().parent)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(fit, out / "trajectory.csv")
    write_correlation_csv(fit, series, out / "correlation.csv")
    with open(out / "fit.json", "w") as fh:
        json.dump(fit.to_json_dict(), fh, indent=1)
    _write_manifest(out, "track", {"order": args.order, "device": args.device},
                    [args.series], ["trajectory.csv", "correlation.csv", "fit.json"],
                    None, started)
    msg = f"track: order {fit.model_order}, misfit {fit.misfit:.3e} -> {out}"
    if fit.warnings:
        msg += f" [warnings: {'; '.join(fit.warnings)}]"
    print(msg)
    return EXIT_OK


def cmd_correlate(args, config: dict) -> int:
    started = time.time()
    series = LifetimeSeries.from_csv(args.series)
    r = lifetime_correlation(series)
    out = _resolve_out(args.out, Path(args.series).resolve().parent)
    out.mkdir(parents=True, exist_ok=True)
    scatter = out / "correlation_scatter.csv"
    with open(scatter, "w", newline="") as fh:
        fh.write("t1e_us,t1f_us\n")
        for a, b in zip(series.t1e_us, series.t1f_us):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
    _write_manifest(out, "correlate", {}, [args.series],
                    ["correlation_scatter.csv"], None, started)
    print(f"pearson_r = {r:.6f}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlstrack",
        description="Simulate and analyze three-level relaxation runs to track TLS defects.",
    )
    parser.add_argument("--version", action="version", version=f"tlstrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic run directory from a scenario")
    p.add_argument("scenario", help="scenario JSON path or bundled name (device_A, device_B)")
    p.add_argument("--out", help="output run directory")
    p.add_argument("--seed", type=int, help="override the scenario master seed")
    p.add_argument("--jobs", type=int, help="parallel workers for epoch synthesis")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit-series", help="mitigate and fit every trace in a run directory")
    p.add_argument("run_dir", help="run directory produced by simulate")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.add_argument("--weighting", choices=["uniform", "binomial"])
    p.add_argument("--no-mitigation", action="store_true",
                   help="skip readout mitigation even if confusion.json exists")
    p.add_argument("--jobs", type=int,
                   help="accepted and recorded in the manifest; no longer changes anything")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_fit_series)

    p = sub.add_parser("track", help="invert a lifetime series into TLS trajectories")
    p.add_argument("series", help="series CSV (timestamp_hr,t1e_us,t1f_us[,err_e,err_f])")
    p.add_argument("--device", required=True,
                   help="device JSON with omega01_mhz and anharmonicity_mhz (a scenario file works)")
    p.add_argument("--order", choices=["1", "2", "auto"], default="auto")
    p.add_argument("--out", help="output directory (default: series directory)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("correlate", help="Pearson correlation of the two lifetime channels")
    p.add_argument("series", help="series CSV")
    p.add_argument("--out", help="output directory (default: series directory)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = {} if args.config is None else _read_json(args.config)
        return args.func(args, config)
    except (ScenarioSchemaError, InvalidParameterError, UndefinedCorrelationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except TlstrackError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
