"""Per-stage wall times of one rate-scan cell, and wall times of whole
rate-scan commands, written as a BENCH record.

Usage:

    python tools/bench_cells.py --tree parent=DIR --tree change=DIR \
        [--rounds 5] [-o BENCH.json]

Each DIR is a checkout of this repository. A round runs one fresh
interpreter per tree, in turn, and each round starts one tree later than
the one before (with two trees, they alternate which runs first), so that
neither a slow spell of the host nor the order favours a tree. The
interpreter imports bklab from ``DIR/src``. For each reference model it
times the gate (``build_model`` and ``gate_conditions`` on a model of its
own) and the build of the oracle, runs one warm-up cell per n and then
times one cell per n, stage by stage:

- simulate: ``simulate_path``
- sort+PIT: sorting the sample and the PIT of the sorted sample
- lil sups: ``sup_abs_beta`` and ``sup_abs_u``
- breakpoints, sweep, bisection: the exact residual sup, split into
  building the breakpoints, the pass over all pieces, and the bisection
  rounds after that pass
- pointwise: ``residual_pointwise`` at 1/2

The stages replay ``harness._rate_cell`` step by step; the record also
holds the wall time of the real ``_rate_cell`` on the same cell, and the
replay's row is checked against it. Next to the cell stages, the
increment stage times ``harness.increment_modulus(us, rate_lambda(n))``
on the cell's sorted PIT ``us``, after one warm-up call. Medians and
minima are over rounds.

Before any of that, the same interpreter records its start-up: the wall
time of ``import bklab.cli``, the peak resident set size (``ru_maxrss``)
right after it, and the public ``scipy.*`` modules the import loaded.

Right after the start-up record, before the cells grow the process that
a pool forks, it times whole commands: one in-process ``bklab.cli.main``
``rate-scan`` at ``--threads`` 1 and 2, after one warm-up call, for two
shapes: the benchmark's ``scan-logistic`` (logistic power-law tau=3,
n = 16 and 24, one replicate), where set-up and workers dominate, and a
Gaussian power-law scan at n = 2^18 with two replicates (nu = 2.5),
where the cells do.

After the cells it times the covariance stage of ``covariance-check`` on
the benchmark's block (Gaussian MA(1) [1, 0.5], lag horizon 8, 40 000
draws): ``harness.covariance_gamma`` at x = -1, 0 and 1 with the seeds
``run_covariance_check`` derives, after one warm-up call, and records the
three values it returned.
"""

import argparse
import contextlib
import functools
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

N_VALUES = (2 ** 12, 2 ** 18)
STAGES = ("simulate", "sort+PIT", "lil sups", "breakpoints", "sweep",
          "bisection", "pointwise")
POWER_LAW = {"coefficients": {"kind": "power_law", "tau": 3.0}, "rho": 0.45,
             "gamma1": 1.0, "gamma2": 1.0}
MODELS = {
    "iid-uniform": ({"innovation": {"name": "uniform"},
                     "coefficients": {"kind": "finite", "values": [1.0]},
                     "rho": 0.3}, None),
    "gaussian-powerlaw": (dict(POWER_LAW, innovation={"name": "gaussian"}),
                          2.5),
    "logistic-powerlaw": (dict(POWER_LAW, innovation={"name": "logistic"}),
                          2.5),
}
# the covariance block of the benchmark's diagnostics workload
COVARIANCE_MODEL = {"innovation": {"name": "gaussian"},
                    "coefficients": {"kind": "finite", "values": [1.0, 0.5]},
                    "rho": 0.45, "gamma1": 1.0, "gamma2": 1.0}
COVARIANCE = {"n": 2 ** 14, "replicates": 1000, "x_grid": [-1.0, 0.0, 1.0],
              "lag_horizon": 8, "mc_draws": 40_000}
# whole rate-scan commands: name -> (model, n grid, replicates, nu)
COMMANDS = {
    "logistic-powerlaw n=16,24 x1": (
        {"innovation": {"name": "logistic"},
         "coefficients": {"kind": "power_law", "tau": 3.0}, "rho": 0.45},
        (16, 24), 1, None),
    "gaussian-powerlaw n=2^18 x2": (MODELS["gaussian-powerlaw"][0],
                                    (2 ** 18,), 2, 2.5),
}
COMMAND_THREADS = (1, 2)


def _config(model, nu, seed, n_grid=N_VALUES, replicates=1):
    return {"version": 1, "model": model,
            "scan": {"n_grid": list(n_grid), "replicates": replicates,
                     "master_seed": seed, "interval": [0.05, 0.95],
                     "nu": nu}}


class _Clock:
    """Seconds per stage, plus marks for the stage split of the sup."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.marks = {}

    @contextlib.contextmanager
    def stage(self, name):
        start = time.perf_counter()
        yield
        self.seconds[name] += time.perf_counter() - start

    def timed(self, name, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.marks.setdefault(name, []).append((start, end))
        return run


def _patch(owner, attr, wrap, undo):
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrap(owner.__dict__[attr]))


def _sup_split(bk, clock):
    """Wrap the sup's internals; return a function that turns the marks of
    one sup call into (breakpoints, bisection) seconds."""
    undo = []
    if hasattr(bk, "_Breakpoints"):
        _patch(bk._Breakpoints, "__init__",
               lambda f: clock.timed("breakpoints", f), undo)
        _patch(bk._Breakpoints, "block",
               lambda f: clock.timed("breakpoints", f), undo)
        _patch(bk, "_bisect", lambda f: clock.timed("bisect", f), undo)

        def split(marks):
            return (sum(e - s for s, e in marks.get("breakpoints", [])),
                    sum(e - s for s, e in marks.get("bisect", [])))
    else:
        # whole-array pass: bisection rounds start at the first take of
        # the failing pieces and end with the last bound of a round
        _patch(bk, "_breakpoints", lambda f: clock.timed("breakpoints", f),
               undo)
        _patch(bk._Pieces, "take", lambda f: clock.timed("take", f), undo)
        _patch(bk._Pieces, "bound", lambda f: clock.timed("bound", f), undo)

        def split(marks):
            takes = marks.get("take", [])
            rounds = (marks["bound"][-1][1] - takes[0][0]) if takes else 0.0
            return sum(e - s for s, e in marks["breakpoints"]), rounds
    return split, undo


def _replay(harness, model, oracle, config, n, r, clock, split):
    """The steps of ``harness._rate_cell``, timed; returns its row."""
    from bklab.empirical import EmpiricalSummary
    from bklab.seeds import mix_seed

    seed = mix_seed(config.master_seed, n, r)
    with clock.stage("simulate"):
        path = harness.simulate_path(model, n, seed,
                                     trunc_tol=config.trunc_tol)
    one_pass = "cdf" in inspect.signature(harness._sorted_pit).parameters
    with clock.stage("sort+PIT"):
        xs = EmpiricalSummary.from_sample(path.x, seed=seed)
        if one_pass:
            fx = oracle.cdf(xs.sorted)
            u = harness._sorted_pit(path, oracle, xs.sorted, fx)
        else:
            fx = None
            u = harness._sorted_pit(path, oracle, xs.sorted)
        us = EmpiricalSummary(n=n, sorted=u, source_seed=seed)
    with clock.stage("lil sups"):
        norm = math.sqrt(2.0 * math.log(math.log(n)))
        beta = (harness.sup_abs_beta(xs, oracle, fx) if one_pass
                else harness.sup_abs_beta(xs, oracle))
        lil = (beta / norm, harness.sup_abs_u(us) / norm)
    a, b = config.interval
    clock.marks.clear()
    start = time.perf_counter()
    if config.nu is None:
        rs = harness.residual_sup(xs, us, oracle, a, b, seed=seed)
        weighted = math.nan
    else:
        rs = harness.weighted_residual_sup(xs, us, oracle, config.nu,
                                           seed=seed, interval=(a, b))
        weighted = rs.weighted_sup
    total = time.perf_counter() - start
    points, rounds = split(clock.marks)
    clock.seconds["breakpoints"] += points
    clock.seconds["bisection"] += rounds
    clock.seconds["sweep"] += total - points - rounds
    with clock.stage("pointwise"):
        mid = abs(harness.residual_pointwise(xs, us, oracle, 0.5))
    return (n, r, seed, rs.sup_abs, weighted, mid) + lil


def measure(tree, seed, replicate):
    """One timed cell per (model, n) of the checkout at ``tree``."""
    sys.path.insert(0, os.path.join(tree, "src"))
    start = time.perf_counter()
    import bklab.cli  # noqa: F401  (the entry point imports every layer)
    out = {"startup": {
        "import_s": time.perf_counter() - start,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scipy_modules": sorted(m for m in sys.modules
                                if m.count(".") == 1 and m.startswith("scipy.")
                                and not m.startswith("scipy._"))}}
    out["commands"] = _command_stage(seed)
    from bklab import bk, harness

    for name, (model_block, nu) in MODELS.items():
        config = harness.config_from_dict(_config(model_block, nu, seed))
        start = time.perf_counter()
        harness.gate_conditions(config, harness.build_model(config))
        gate_s = time.perf_counter() - start
        model = harness.build_model(config)
        start = time.perf_counter()
        oracle = harness.build_oracle(model, config)
        cells = {"gate_s": gate_s,
                 "oracle_build_s": time.perf_counter() - start}
        for n in N_VALUES:
            harness._rate_cell(model, oracle, config, n, 0)  # warm-up
            clock = _Clock()
            split, undo = _sup_split(bk, clock)
            try:
                row = _replay(harness, model, oracle, config, n, replicate,
                              clock, split)
            finally:
                for owner, attr, orig in reversed(undo):
                    setattr(owner, attr, orig)
            start = time.perf_counter()
            real = harness._rate_cell(model, oracle, config, n, replicate)[0]
            cell_s = time.perf_counter() - start
            expected = (real.n, real.replicate, real.seed, real.sup_abs,
                        real.weighted_sup, real.pointwise_mid, real.lil_beta,
                        real.lil_u)
            if repr(row) != repr(expected):
                raise RuntimeError(f"replay of {name} n={n} differs from "
                                   f"_rate_cell: {row} vs {expected}")
            cells[str(n)] = dict(clock.seconds, cell=cell_s,
                                 increment=_increment_stage(
                                     harness, model, oracle, config, n,
                                     replicate))
        out[name] = cells
    out["covariance"] = _covariance_stage(harness, seed)
    return out


def _increment_stage(harness, model, oracle, config, n, r):
    """Seconds of one ``increment_modulus`` call at d = lambda_n on the
    sorted PIT of cell (n, r), after one warm-up call."""
    import numpy as np
    from bklab.bk import rate_lambda
    from bklab.seeds import mix_seed

    path = harness.simulate_path(model, n, mix_seed(config.master_seed, n, r),
                                 trunc_tol=config.trunc_tol)
    us = harness._sorted_pit(path, oracle, np.sort(path.x))
    harness.increment_modulus(us, rate_lambda(n))  # warm-up
    start = time.perf_counter()
    harness.increment_modulus(us, rate_lambda(n))
    return time.perf_counter() - start


def _covariance_stage(harness, seed):
    """Seconds of the three Gamma(x, x) calls of ``run_covariance_check``
    on the benchmark's block, and the (x, gamma, converged) they returned."""
    from bklab.seeds import mix_seed

    config = harness.config_from_dict(dict(
        _config(COVARIANCE_MODEL, None, seed), covariance=COVARIANCE))
    model = harness.build_model(config)
    oracle = harness.build_oracle(model, config)
    n = COVARIANCE["n"]

    def gamma(ix, x):
        return harness.covariance_gamma(
            model, oracle, x, x, lag_horizon=COVARIANCE["lag_horizon"],
            mc_draws=COVARIANCE["mc_draws"],
            seed=mix_seed(config.master_seed, n, 1_000_000 + ix),
            trunc_tol=config.trunc_tol)

    gamma(0, COVARIANCE["x_grid"][0])  # warm-up
    start = time.perf_counter()
    ests = [gamma(ix, x) for ix, x in enumerate(COVARIANCE["x_grid"])]
    return {"gamma_s": time.perf_counter() - start,
            "values": [[e.x, e.gamma, bool(e.converged)] for e in ests]}


def _command_stage(seed):
    """Seconds of one ``bklab.cli.main`` rate-scan per shape of
    ``COMMANDS`` and thread count, each after one warm-up call."""
    from bklab.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        for name, (model, n_grid, replicates, nu) in COMMANDS.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_config(model, nu, seed, n_grid, replicates), fh)
            for threads in COMMAND_THREADS:
                argv = ["rate-scan", "--config", path, "--out",
                        os.path.join(work, "out"), "--threads", str(threads)]
                if main(argv) != 0:  # warm-up
                    raise RuntimeError(f"rate-scan {name} failed")
                start = time.perf_counter()
                main(argv)
                out[f"{name} threads={threads}"] = (time.perf_counter()
                                                    - start)
    return out


def _commit(tree):
    def git(*args):
        try:
            return subprocess.run(["git", "-C", tree, *args], check=True,
                                  capture_output=True, text=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no", "src")
    return {"commit": head.strip() if head else None,
            "uncommitted_src_changes": bool(dirty)}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _summary(samples):
    samples = sorted(samples)
    mid = len(samples) // 2
    median = (samples[mid] if len(samples) % 2
              else 0.5 * (samples[mid - 1] + samples[mid]))
    return {"median_ms": round(1e3 * median, 3),
            "min_ms": round(1e3 * samples[0], 3)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", action="append", default=[],
                   help="LABEL=DIR of a checkout to measure")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--seed", type=int, default=20260)
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--measure", help=argparse.SUPPRESS)
    p.add_argument("--replicate", type=int, default=1,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        json.dump(measure(args.measure, args.seed, args.replicate),
                  sys.stdout)
        return 0
    trees = dict(t.split("=", 1) for t in args.tree)
    if not trees:
        p.error("give at least one --tree LABEL=DIR")
    raw = {label: [] for label in trees}
    labels = list(trees)
    for rnd in range(args.rounds):
        shift = rnd % len(labels)
        for label in labels[shift:] + labels[:shift]:
            tree = trees[label]
            run = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--measure",
                 os.path.abspath(tree), "--seed", str(args.seed),
                 "--replicate", str(rnd + 1)],
                check=True, capture_output=True, text=True,
                env=dict(os.environ, OMP_NUM_THREADS="1",
                         OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"))
            raw[label].append(json.loads(run.stdout))
    record = {
        "tool": "tools/bench_cells.py",
        "host": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                 "python": platform.python_version()},
        "rounds": args.rounds, "seed": args.seed,
        "order": "round r starts with tree r mod len(trees)",
        "stages": list(STAGES),
        "trees": {},
    }
    for label, tree in trees.items():
        runs = raw[label]
        startup = [r["startup"] for r in runs]
        rss = [s["maxrss_mb"] for s in startup]
        models = {}
        for name in MODELS:
            entry = {key[:-2]: _summary([r[name][key] for r in runs])
                     for key in ("gate_s", "oracle_build_s")}
            for n in N_VALUES:
                keys = (*STAGES, "cell", "increment")
                entry[f"n={n}"] = {k: _summary([r[name][str(n)][k]
                                                 for r in runs])
                                   for k in keys}
            models[name] = entry
        models["covariance"] = {
            "gamma(x,x) at x=-1,0,1": _summary(
                [r["covariance"]["gamma_s"] for r in runs]),
            "values_round_1": runs[0]["covariance"]["values"]}
        models["rate-scan command"] = {
            key: _summary([r["commands"][key] for r in runs])
            for key in runs[0]["commands"]}
        record["trees"][label] = dict(_commit(tree), startup={
            "import_bklab_cli": _summary([s["import_s"] for s in startup]),
            "maxrss_after_import_mb": {"median": statistics.median(rss),
                                       "min": min(rss)},
            "scipy_modules": sorted({m for s in startup
                                     for m in s["scipy_modules"]}),
        }, models=models)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
