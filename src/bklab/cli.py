"""Command line interface.

Subcommands (each reads a JSON config, writes CSVs plus a run manifest):

  simulate          write a path dump for the config's simulate block
  rate-scan         replicated residual-rate scan across the n-grid
  lil-scan          normalized sup statistics per replicate
  increment-check   increment modulus of the centered empirical CDF
  covariance-check  replicate variance against the estimated Gamma
  check-model       validate the model's admissibility conditions

Exit codes: 0 success, 1 usage, 2 config/condition error, 3 numerical
failure.
"""

import argparse
import os
import sys

from .errors import ConfigError, ModelError, NumericalError
from .harness import (build_model, build_oracle, config_from_file,
                      gate_conditions, run_covariance_check,
                      run_increment_check, run_lil_scan, run_rate_scan,
                      write_manifest)
from .model import check_dependence_condition, validate_innovation
from .paths import simulate_path, write_path_dump
from .seeds import mix_seed

_COMMANDS = ("simulate", "rate-scan", "lil-scan", "increment-check",
             "covariance-check", "check-model")


def _parser():
    p = argparse.ArgumentParser(prog="bklab", add_help=True)
    p.add_argument("command", choices=_COMMANDS)
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", default=None,
                   help="output directory (default: config 'outputs')")
    p.add_argument("--threads", type=int, default=1,
                   help="worker count; 0 means one per CPU this process "
                        "may run on")
    p.add_argument("--verbose", action="store_true")
    return p


def _threads(k):
    if k != 0:
        return max(k, 1)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(config, out_dir, threads, verbose):
    model = build_model(config)
    sim = config.simulate
    n = int(sim.get("n", config.n_grid[0]))
    seed = int(sim.get("seed", mix_seed(config.master_seed, n, 0)))
    path = simulate_path(model, n, seed, trunc_tol=config.trunc_tol)
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.join(out_dir, "path.csv")
    with open(target, "w", encoding="utf-8") as fh:
        write_path_dump(path, fh)
    if verbose:
        print(f"wrote {n}-row path dump to {target}")
    return 0


def cmd_rate_scan(config, out_dir, threads, verbose):
    result = run_rate_scan(config, threads=threads, out_dir=out_dir)
    if verbose:
        for n, cert in result.certificates.items():
            print(f"n={n}: min certificate margin={cert['min_margin']:.4g} "
                  f"refined pieces={cert['refined']}", file=sys.stderr)
        for name, fit in result.fits.items():
            print(f"{name}: slope={fit.slope:+.4f} "
                  f"ratio_stability={fit.ratio_stability:.3f}")
    return 0


def cmd_lil_scan(config, out_dir, threads, verbose):
    _, summary = run_lil_scan(config, threads=threads, out_dir=out_dir)
    if verbose:
        for n, s in summary.items():
            print(f"n={n}: median={s['median']:.4f} max={s['max']:.4f}")
    return 0


def cmd_increment_check(config, out_dir, threads, verbose):
    rule = config.increments.get("d_n_rule", "lambda_n")
    rows = run_increment_check(config, d_n_rule=rule, threads=threads,
                               out_dir=out_dir)
    if verbose:
        print(f"wrote {len(rows)} increment rows")
    return 0


def cmd_covariance_check(config, out_dir, threads, verbose):
    rows = run_covariance_check(config, threads=threads, out_dir=out_dir)
    if verbose:
        for r in rows:
            print(f"x={r.x:+.3f}: var={r.var_emp:.5g} gamma={r.gamma:.5g}")
    return 0


def cmd_check_model(config, out_dir, threads, verbose):
    model = build_model(config)
    dep = check_dependence_condition(model.coefficients, model.rho)
    print(dep.describe())
    smooth = validate_innovation(model.innovations)
    print(smooth.describe())
    gate_conditions(config, model)
    oracle = build_oracle(model, config)
    print(f"oracle: {oracle.kind}, CDF error bound "
          f"{oracle.cdf_error_bound:.3g}")
    print("model accepted")
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "rate-scan": cmd_rate_scan,
    "lil-scan": cmd_lil_scan,
    "increment-check": cmd_increment_check,
    "covariance-check": cmd_covariance_check,
    "check-model": cmd_check_model,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _parser().print_help()
        return 0 if argv else 1
    if argv[0] not in _COMMANDS:
        print(f"unknown subcommand {argv[0]!r}; choose from "
              f"{', '.join(_COMMANDS)}", file=sys.stderr)
        return 1
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        try:
            config = config_from_file(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        out_dir = args.out or config.outputs
        threads = _threads(args.threads)
        code = _DISPATCH[args.command](config, out_dir, threads, args.verbose)
        if code == 0 and args.command != "check-model":
            write_manifest(config, args.command, out_dir)
        return code
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
