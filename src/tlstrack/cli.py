"""Command-line pipeline: simulate -> fit-series -> track / correlate.

Every command writes a ``manifest.json`` next to its outputs recording the
tool version, the resolved configuration (flags beat the config file, which
beats built-in defaults), seeds, and timing.  Exit codes: 0 success
(possibly with warnings), 2 input or validation error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dynamics import (_boolean, _check, _field, _finite, _integer, _number, _pair, _read_json,
                       _read_json_as, _write_csv, _write_json, read_traces)
from .errors import InvalidParameterError, TlstrackError
from .readout import ConfusionMatrix, mitigate_stack
from .synth import bundled_scenario_path, device_from_json_dict, load_scenario, write_run_directory
from .tls import DeviceFrequencies
from .trace_fit import fit_stack
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
    _write_json(out_dir / "manifest.json", manifest)


def _jobs(args, config: dict) -> int:
    """``jobs``, checked and recorded in the manifest; every command runs in one process."""
    return _integer(config if args.jobs is None else vars(args), "jobs", "", 1, minimum=1)


def _tracker_config(config: dict) -> TrackerConfig:
    section = config.get("tracker", {})
    if not isinstance(section, dict):
        raise InvalidParameterError("tracker: expected an object")
    defaults = {f.name: f.default for f in fields(TrackerConfig)}
    values = {}
    for key in section:
        if key not in defaults:
            raise InvalidParameterError(f"tracker.{key}: unknown tracker config key")
        check = {float: _number, bool: _boolean, tuple: _pair}[type(defaults[key])]
        values[key] = check(section, key, "tracker")
    return TrackerConfig(**values)


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
    scenario = load_scenario(scenario_path)
    if args.seed is not None:
        scenario.master_seed = _integer(vars(args), "seed", "", minimum=0)
    jobs = _jobs(args, config)

    out = _resolve_out(args.out, Path(f"{scenario.name}_run"))
    out.mkdir(parents=True, exist_ok=True)
    outputs = [str(p.relative_to(out)) for p in write_run_directory(scenario, out)]
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
        confusion = ConfusionMatrix.from_json(confusion_path)

    weighting = _field(config if args.weighting is None else vars(args), "weighting", "",
                       "uniform", lambda w: w in ("uniform", "binomial"), "'uniform' or 'binomial'")
    jobs = _jobs(args, config)
    scenario_path = run_dir / "scenario.json"
    scenario_doc = _read_json(scenario_path) if scenario_path.exists() else {}
    spacing = scenario_doc.get("epoch_spacing_hr", 1.0)
    # checked, and written as read: an integer spacing stays one in the outputs
    _check(spacing, f"{scenario_path}: epoch_spacing_hr", lambda v: _finite(v) and v > 0,
           "a finite number > 0")

    # the run travels as one stack of rows: read, mitigated and fitted at once
    stack = read_traces(trace_files)
    if confusion is not None:
        stack = mitigate_stack(confusion, stack)
    fits = [fit.to_json_dict() for fit in fit_stack(stack, weighting)]
    unconverged = [i for i, fit in enumerate(fits) if not fit["converged"]]

    out = _resolve_out(args.out, run_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "fits.json",
                {"epoch_spacing_hr": spacing, "unconverged_epochs": unconverged, "fits": fits})
    series_path = out / "series.csv"
    _write_csv(series_path, ["timestamp_hr", "t1e_us", "t1f_us", "err_e", "err_f", "converged"],
               ([i * spacing, fit["t1e_us"], fit["t1f_us"], fit["stderr_t1e"], fit["stderr_t1f"],
                 int(fit["converged"])] for i, fit in enumerate(fits)))
    _write_manifest(out, "fit-series",
                    {"weighting": weighting, "jobs": jobs,
                     "mitigation": confusion is not None},
                    [str(run_dir)], ["fits.json", "series.csv"], None, started)
    print(f"fit-series: {len(fits)} epochs -> {series_path}"
          + (f" ({len(unconverged)} unconverged, flagged: epochs "
             f"{', '.join(map(str, unconverged))})" if unconverged else ""))
    return EXIT_OK


def _load_device(path: str) -> DeviceFrequencies:
    """The device of a device file, or of a scenario file's ``device`` section."""
    return _read_json_as(path, lambda doc: device_from_json_dict(doc["device"], "device")
                         if "device" in doc else device_from_json_dict(doc, ""))


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
    _write_json(out / "fit.json", fit.to_json_dict())
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
    _write_csv(scatter, ["t1e_us", "t1f_us"], zip(series.t1e_us.tolist(), series.t1f_us.tolist()))
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
    p.add_argument("--jobs", type=int,
                   help="accepted and recorded in the manifest; no longer changes anything")
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
        for key in config:   # one config file serves every command
            if key not in ("jobs", "weighting", "tracker"):
                raise InvalidParameterError(f"{key}: unknown config key")
        return args.func(args, config)
    except TlstrackError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:   # numpy's names the size it could not allocate
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
