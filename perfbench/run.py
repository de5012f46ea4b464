"""Benchmark of the bklab CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed set of ``bklab`` CLI calls (see workloads.py;
BENCHMARK.json lists the ones the benchmark measures)
made in-process through ``bklab.cli.main`` with generated config files;
the seed becomes every config's ``master_seed``. The CLI's own CSVs are
read back after every pass to count failed cells and to digest them
(checks.py).

--trace 0 measures the end-to-end metrics: passes at ``--threads``
equal to the usable core count, repeated until they add up to --seconds,
and set-up time in three fresh interpreters (setup_probe.py) spread
between them. Each timing is scaled to a nominal host speed by the
reference work timed around it (reference.py). It reports medians.

--trace 1 measures the per-layer metrics: rounds of an untraced pass at
the core count, an untraced pass at one thread and a traced pass at one
thread, repeated until --seconds have passed. The traced pass wraps
every layer's public functions with the span recorder (tracing.py); the
last one's spans give the layer metrics and go to
perfbench/.work/spans-*.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full result,
with the environment and the output digests, goes to perfbench/.work/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# Before numpy loads (tracing imports it), so that --threads is the core
# count actually used.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
from checks import Outcome, check_call  # noqa: E402
from reference import HostClock  # noqa: E402
from workloads import NAMES, SIZES, workload_calls  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 3

E2E_UNITS = {
    "wall_ref_s": "s",
    "samples_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed beside the end-to-end metrics: the same timings before scaling,
# and the reference time that scales them
UNSCALED_UNITS = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "setup_unscaled_s": "s",
    "reference_s": "s",
}
LAYER_UNITS = {
    "bk.residual_sup.self_s": "s",
    "bk.weighted_residual_sup.self_s": "s",
    "bk.residual_values.self_s": "s",
    "bk.residual_values.calls": "count",
    "bk.residual_values.points": "count",
    "bk.points_per_sample": "points/sample",
    "bk.self_s": "s",
    "bk.errors": "count",
    "empirical.jump_grid.self_s": "s",
    "empirical.jump_grid.points": "count",
    "empirical.from_sample.self_s": "s",
    "empirical.from_sample.calls": "count",
    "empirical.sup_abs.self_s": "s",
    "empirical.self_s": "s",
    "empirical.errors": "count",
    "model.build_oracle_s": "s",
    "model.cdf.self_s": "s",
    "model.cdf.points": "count",
    "model.pdf.self_s": "s",
    "model.quantile.self_s": "s",
    "model.quantile.points": "count",
    "model.self_s": "s",
    "model.errors": "count",
    "paths.simulate_path.self_s": "s",
    "paths.simulate_path.samples": "count",
    "paths.pit_transform.self_s": "s",
    "paths.self_s": "s",
    "paths.errors": "count",
    "decomp.y_summands.self_s": "s",
    "decomp.covariance_gamma.self_s": "s",
    "decomp.self_s": "s",
    "decomp.errors": "count",
    "harness.self_s": "s",
    "harness.increment_modulus.self_s": "s",
    "harness.cells": "count",
    "harness.cell_ms.top.p50": "ms",
    "harness.cell_ms.top.p90": "ms",
    "harness.cell_ms.bottom.p50": "ms",
    "harness.csv_bytes": "bytes",
    "harness.speedup": "ratio",
    "harness.errors": "count",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(SIZES),
                   help="'smoke' runs tiny inputs for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_cli():
    """Import bklab from the checkout's own sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bklab", "cli.py")):
        raise SystemExit(f"perfbench: no bklab sources under {SRC}")
    sys.path.insert(0, SRC)
    import bklab.cli
    if not os.path.abspath(bklab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported bklab from {bklab.cli.__file__}")
    return bklab.cli


def usable_cores():
    return len(os.sched_getaffinity(0))


def environment(threads):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bklab", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": usable_cores(), "cpu_model": cpu, "threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
        "source_sha256": sources.hexdigest(),
        "blas_threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_configs(calls, run_dir):
    os.makedirs(run_dir, exist_ok=True)
    paths = []
    for i, call in enumerate(calls):
        path = os.path.join(run_dir, f"{i}-{call.command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(call.config, fh, indent=1)
        paths.append(path)
    return paths


def probe_setup(config_paths):
    """Set-up seconds of one fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    res = subprocess.run([sys.executable, probe, SRC, *config_paths],
                         capture_output=True, text=True, timeout=150,
                         check=True)
    return float(res.stdout.split()[-1])


@dataclass
class Pass:
    wall: float
    outcome: Outcome
    csv_bytes: int


def run_pass(main, calls, config_paths, out_root, threads):
    """Make every CLI call of a workload once, then check the outputs."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_dirs = [os.path.join(out_root, f"{i}-{c.command}")
                for i, c in enumerate(calls)]
    codes = []
    start = time.perf_counter()
    for call, cfg, out in zip(calls, config_paths, out_dirs):
        argv = [call.command, "--config", cfg, "--out", out,
                "--threads", str(threads)]
        try:
            codes.append(main(argv))
        except Exception as exc:  # a raising call fails all its cells
            traceback.print_exc(file=sys.stderr)
            codes.append(f"raised {type(exc).__name__}")
    wall = time.perf_counter() - start
    outcome = Outcome()
    for call, out, code in zip(calls, out_dirs, codes):
        outcome.add(check_call(call, out, code))
    csv_bytes = sum(os.path.getsize(p) for d in out_dirs
                    for p in glob.glob(os.path.join(d, "*.csv")))
    return Pass(wall, outcome, csv_bytes)


def run(args):
    cli = load_cli()
    nproc = usable_cores()
    calls = workload_calls(args.workload, args.seed, args.size)
    samples = sum(c.samples() for c in calls)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    cfgs = write_configs(calls, run_dir)
    out_root = os.path.join(run_dir, "out")
    total = Outcome()
    digests = {}
    problems = []

    def tally(p):
        """Add a pass to the totals; every pass must write the same CSVs."""
        if not digests:
            digests.update(p.outcome.digests)
        elif p.outcome.digests != digests:
            problems.append("outputs differ between passes of one seed")
        total.add(p.outcome)
        return p

    def make_pass(main, threads):
        return tally(run_pass(main, calls, cfgs, out_root, threads))

    if args.trace == 0:
        threads = nproc
        clock = HostClock()
        setups, setups_ref, walls, walls_ref = [], [], [], []

        def probe():
            setups.append(probe_setup(cfgs))
            setups_ref.append(clock.scale(setups[-1]))

        # Set-up probes are spread over the run, between passes, so that
        # their median does not rest on one phase of a noisy host.
        probe()
        while not walls or sum(walls) < args.seconds:
            walls.append(make_pass(cli.main, nproc).wall)
            walls_ref.append(clock.scale(walls[-1]))
            if (len(setups) < SETUP_REPEATS
                    and sum(walls) >= args.seconds * len(setups) / SETUP_REPEATS):
                probe()
        while len(setups) < SETUP_REPEATS:
            probe()
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_ref_s": statistics.median(walls_ref),
            "samples_per_ref_s": statistics.median(
                samples / w for w in walls_ref),
            "setup_s": statistics.median(setups_ref),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = E2E_UNITS
        unscaled = {
            "wall_s": statistics.median(walls),
            "samples_per_s": statistics.median(samples / w for w in walls),
            "setup_unscaled_s": statistics.median(setups),
            "reference_s": statistics.median(clock.refs),
        }
        detail = {"passes": len(walls), "walls_s": walls,
                  "walls_ref_s": walls_ref, "setups_s": setups,
                  "setups_ref_s": setups_ref, "references_s": clock.refs,
                  "unscaled": unscaled}
    else:
        threads = 1
        wide, serial, traced = [], [], []
        start = time.perf_counter()
        while not wide or time.perf_counter() - start < args.seconds:
            wide.append(make_pass(cli.main, nproc))
            serial.append(make_pass(cli.main, 1))
            rec = tracing.Recorder()
            with tracing.installed(rec):
                traced.append(make_pass(
                    rec.wrap("cli.main", cli.main, cell="outside"), 1))
        wall_n = statistics.median(p.wall for p in wide)
        wall_1 = statistics.median(p.wall for p in serial)
        wall_t = statistics.median(p.wall for p in traced)
        # the layer metrics come from the last traced pass alone
        metrics = tracing.layer_metrics(rec, samples)
        metrics["harness.csv_bytes"] = traced[-1].csv_bytes
        metrics["harness.speedup"] = wall_1 / wall_n
        metrics["trace.overhead_frac"] = (wall_t - wall_1) / wall_1
        problems += tracing.consistency_problems(rec, traced[-1].wall,
                                                 wall_1)
        rec.write(os.path.join(WORK, f"spans-{tag}.json"))
        units = LAYER_UNITS
        cells = tracing.cell_table(rec)
        detail = {"passes": len(wide), "wall_nproc_s": wall_n,
                  "wall_1_s": wall_1, "wall_traced_s": wall_t,
                  "cell_medians_s": {str(n): row for n, row in
                                     tracing.stage_medians(cells).items()}}
        print_stage_medians(detail["cell_medians_s"])

    problems = list(dict.fromkeys(problems + total.problems))
    metrics = {name: metrics[name] for name in units}
    env = environment(threads)
    result = {
        "correct": not problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "digests": digests, "problems": problems, **detail,
              **result}
    with open(os.path.join(WORK, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for name, digest in sorted(digests.items()):
        print(f"sha256 {digest}  {name}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"failed_frac {total.failed / total.attempted!r} fraction "
          f"({total.failed} of {total.attempted} cells)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in detail.get("unscaled", {}).items():
        print(f"{name} {value!r} {UNSCALED_UNITS[name]} (unscaled)")
    print(json.dumps(result))
    return 0


def print_stage_medians(table):
    print("traced per-cell medians in seconds (stages inclusive, "
          "'.self' = self time):")
    for n, row in table.items():
        parts = " ".join(f"{k}={v:.4g}" for k, v in row.items())
        print(f"  n={n}: {parts}")


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
