"""Benchmark of the tlstrack pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload pipeline_A --seed 1 --seconds 40 --trace 0

It imports the package from ``src/`` of the checkout (and refuses any other
copy), prepares the workload's inputs from ``--seed``, then drives the real
CLI in-process through ``tlstrack.cli.main(argv)`` with ``--jobs 1`` in a
closed loop: each command starts when the previous one has finished.  Passes
cycle over the workload's inputs until ``--seconds`` is spent (every input is
run at least once).  Every command's exit code and outputs are checked.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones, taken
from a separate traced round whose spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  The line before it is the
provenance block (machine, library versions, BLAS, source revision, seed).
Exit code 0 on a completed run (check failures are counted, not fatal), 2 when
the checkout has no importable package, 1 when set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread, like --jobs 1: on a small shared machine a second BLAS
# thread adds more run-to-run noise than speed.  Set before numpy loads; an
# explicit setting in the environment wins and is recorded in the provenance.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import STAGES, WORKLOADS, CheckFailed, Instance, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Least number of timed set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "simulate_s": "s",
    "fit_series_s": "s",
    "track_s": "s",
    "peak_rss_mb": "MB",
    "lifetime_rel_rms": "ratio",
}
#: Per-layer metrics that come from the traced run's outputs, not its spans.
RUN_UNITS = {
    "quality.traj_rms_mhz": "MHz",
    "quality.misfit": "chi",
    "trace_overhead": "ratio",
}


class NoPackage(Exception):
    pass


def import_package():
    """Import tlstrack from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import tlstrack
        import tlstrack.cli
    except ImportError as err:
        raise NoPackage(f"cannot import tlstrack from {SRC}: {err}") from None
    origin = Path(tlstrack.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise NoPackage(f"tlstrack imported from {origin}, not from {SRC}")
    return tlstrack


def run_command(pkg, argv: list[str], tracer: Tracer | None = None):
    """One CLI command in-process: (exit code or None on an exception, seconds)."""
    main = pkg.cli.main if tracer is None else tracer.wrap(pkg.cli.main, f"cli.{argv[0]}")
    sink = io.StringIO()
    rc = None
    with contextlib.redirect_stdout(sink):
        start = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exit_:
            rc = exit_.code
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
        seconds = perf_counter() - start
    return rc, seconds


def import_seconds() -> float:
    """Time for a fresh interpreter to import the CLI, as a user's command pays."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import tlstrack.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def set_up(pkg, workload: Workload, instances: list[Instance]):
    """Prepare every input, timing each instance's set-up on its own.

    One set-up is a fresh interpreter's import of the CLI plus one instance's
    inputs.  Set-ups cycle over the instances until each has run and at least
    SETUP_SAMPLES are timed.  Returns the set-up times and, per instance, the
    seconds of each stage that set-up runs (the stages the loop leaves out).
    """
    totals = []
    stage_times = [{s: [] for s in STAGES if s not in workload.loop} for _ in instances]
    for k in range(max(SETUP_SAMPLES, len(instances))):
        inst, times = instances[k % len(instances)], stage_times[k % len(instances)]
        total = import_seconds()
        start = perf_counter()
        inst.write_scenario()
        for stage in times:
            rc, seconds = run_command(pkg, inst.argv(stage))
            if rc != 0:
                raise RuntimeError(f"set-up command {inst.argv(stage)} exited {rc}")
            times[stage].append(seconds)
        totals.append(total + perf_counter() - start)
    for inst in instances:
        for stage in STAGES:
            if stage not in workload.loop:
                inst.check(stage)
    return totals, stage_times


class Loop:
    """Closed-loop passes over the instances, with per-command checks."""

    def __init__(self, pkg, workload: Workload, instances: list[Instance]):
        self.pkg = pkg
        self.workload = workload
        self.instances = instances
        self.attempted = 0
        self.failed = 0
        # per instance: stage -> list of seconds, plus "wall"
        self.times = [{s: [] for s in (*workload.loop, "wall")} for _ in instances]

    def one_pass(self, index: int, tracer: Tracer | None = None) -> float:
        inst = self.instances[index]
        wall = 0.0
        for stage in self.workload.loop:
            self.attempted += 1
            rc, seconds = run_command(self.pkg, inst.argv(stage), tracer)
            wall += seconds
            self.times[index][stage].append(seconds)
            try:
                if rc != 0:
                    raise CheckFailed(f"{stage} exited with {rc}")
                inst.check(stage)
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as err:
                self.failed += 1
                print(f"check failed on instance {index}: {err}", file=sys.stderr)
        self.times[index]["wall"].append(wall)
        print(f"pass: instance {index} wall {wall:.3f} s", file=sys.stderr)
        return wall

    def run_for(self, seconds: float) -> None:
        """Every instance once, then more passes while they fit in ``seconds``."""
        start = perf_counter()
        walls = []
        index = 0
        while True:
            walls.append(self.one_pass(index % len(self.instances)))
            index += 1
            elapsed = perf_counter() - start
            if index >= len(self.instances) and elapsed + statistics.median(walls) > seconds:
                break

    def stage_seconds(self, stage: str) -> float:
        """Mean over instances of each instance's median time."""
        return statistics.fmean(statistics.median(t[stage]) for t in self.times)


def end_to_end(loop: Loop, setup_totals, setup_stages) -> dict[str, float]:
    metrics = {"setup_s": statistics.median(setup_totals), "wall_s": loop.stage_seconds("wall")}
    for stage in STAGES:
        key = stage.replace("-", "_") + "_s"
        if stage in loop.workload.loop:
            metrics[key] = loop.stage_seconds(stage)
        else:
            metrics[key] = statistics.fmean(statistics.median(t[stage]) for t in setup_stages)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["lifetime_rel_rms"] = mean_quality(loop.instances, "lifetime_rel_rms")
    return metrics


def mean_quality(instances: list[Instance], key: str) -> float:
    """Mean over the instances whose outputs got far enough to measure ``key``;
    0 when none did (the run then reports its failed commands)."""
    values = [i.quality[key] for i in instances if key in i.quality]
    return statistics.fmean(values) if values else 0.0


def traced_round(pkg, loop: Loop, header: dict, path: Path) -> dict:
    """One untraced and then one traced pass of instance 0; trace_overhead is
    the ratio of their wall times.  One instance keeps a traced run about as
    long as an untraced one."""
    untraced = loop.one_pass(0)
    tracer = Tracer()
    with tracer:
        tracer.install(pkg)
        traced = loop.one_pass(0, tracer)
    tracer.dump(path, header)
    metrics = layer_metrics(tracer.spans)
    metrics["trace_overhead"] = traced / untraced
    for key in ("traj_rms_mhz", "misfit"):
        metrics[f"quality.{key}"] = mean_quality(loop.instances, key)
    return metrics


# -- provenance ---------------------------------------------------------------


def blas_info() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["threads"] = threads
    info["env"] = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    return info


def source_revision() -> dict:
    """The checkout's git SHA, if it is a git repository of its own, and a
    hash of src/ that identifies the code either way."""
    sha = None
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def provenance(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "provenance": {
            "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "epochs": workload.epochs, "instances": workload.instances,
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), **source_revision(),
        }
    }


# -- entry point --------------------------------------------------------------


def run_benchmark(pkg, workload: Workload, seed: int, seconds: float, trace: bool,
                  prov: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        instances = [Instance(pkg, workload, work, seed, i) for i in range(workload.instances)]
        setup_totals, setup_stages = set_up(pkg, workload, instances)
        loop = Loop(pkg, workload, instances)
        if trace:
            path = OUT / f"trace-{workload.name}-seed{seed}.json"
            values = traced_round(pkg, loop, prov, path)
            units = {**PER_LAYER_UNITS, **RUN_UNITS}
        else:
            loop.run_for(seconds)
            values = end_to_end(loop, setup_totals, setup_stages)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg = import_package()
    except NoPackage as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    prov = provenance(workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run_benchmark(pkg, workload, args.seed, args.seconds, bool(args.trace), prov)
    except (RuntimeError, CheckFailed, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
