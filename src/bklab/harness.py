"""Experiment orchestration: replicated scans across sample sizes.

Every scan runs its (n, replicate) cells through :func:`map_cells`, the
one cell runner, and writes its CSVs through :func:`write_csv`. A cell
derives its stream seed through the fixed splitmix64 chain in
:mod:`bklab.seeds`. Each command builds its model and oracle once, in
the calling process, and forked workers inherit them; both builds are
deterministic, so outputs are a pure function of the config file: reruns
are byte-identical at any worker count, and per-replicate rows can always
be re-aggregated from the CSVs.
"""

import csv
import functools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import ndtri

from . import __version__
from .bk import (csr_nu_min, rate_b, rate_kiefer_pointwise, rate_lambda,
                 residual_pointwise, residual_sup, weighted_residual_sup)
from .coefficients import make_coefficients
from .decomp import covariance_gamma, y_summands
from .empirical import EmpiricalSummary, sup_abs_beta, sup_abs_u
from .errors import ConfigError, ModelError
from .innovations import get_innovation
from .model import (LinearProcessModel, build_marginal_oracle,
                    check_dependence_condition, exact_marginal_oracle,
                    validate_innovation)
from .paths import pit_transform, simulate_path
from .seeds import mix_seed

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    n_grid: tuple
    replicates: int
    master_seed: int
    interval: tuple = (0.05, 0.95)
    nu: float | None = None
    trunc_tol: float | None = None
    oracle: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    increments: dict = field(default_factory=dict)
    covariance: dict = field(default_factory=dict)
    outputs: str = "out"
    raw: dict = field(default_factory=dict, repr=False)
    # kind and error bound of the oracle that a cell run of this config built
    built_oracle: dict = field(default_factory=dict, repr=False,
                               compare=False)

    def __post_init__(self):
        if not self.n_grid:
            raise ConfigError("n_grid must list at least one n")
        if any(int(n) < 16 for n in self.n_grid):
            raise ConfigError("every n in n_grid must be at least 16")
        if list(self.n_grid) != sorted(set(int(n) for n in self.n_grid)):
            raise ConfigError("n_grid must be strictly increasing")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        a, b = self.interval
        if not (0.0 < a < b < 1.0):
            raise ConfigError(f"interval must satisfy 0 < a < b < 1, got {self.interval}")


def config_from_dict(d):
    if not isinstance(d, dict):
        raise ConfigError("config root must be a mapping")
    if d.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got "
                          f"{d.get('version')!r}")
    try:
        model = d["model"]
        scan = d["scan"]
        return ExperimentConfig(
            model=model,
            n_grid=tuple(int(n) for n in scan["n_grid"]),
            replicates=int(scan["replicates"]),
            master_seed=int(scan["master_seed"]),
            interval=tuple(scan.get("interval", (0.05, 0.95))),
            nu=scan.get("nu"),
            trunc_tol=scan.get("trunc_tol"),
            oracle=d.get("oracle", {}),
            simulate=d.get("simulate", {}),
            increments=d.get("increments", {}),
            covariance=d.get("covariance", {}),
            outputs=d.get("outputs", "out"),
            raw=d,
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def config_from_file(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return config_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def build_model(config):
    m = config.model
    try:
        innov_spec = dict(m["innovation"])
        coeff_spec = dict(m["coefficients"])
        rho = float(m["rho"])
    except KeyError as exc:
        raise ConfigError(f"model block is missing {exc}") from exc
    try:
        innov = get_innovation(innov_spec.pop("name"), **innov_spec)
        coeffs = make_coefficients(coeff_spec.pop("kind"), **coeff_spec)
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model block: {exc}") from exc
    return LinearProcessModel(
        innovations=innov, coefficients=coeffs, rho=rho,
        gamma1=m.get("gamma1"), gamma2=m.get("gamma2"))


def build_oracle(model, config):
    """The config's oracle. ``auto`` picks the exact oracle for Gaussian
    innovations, the single-point oracle for a memoryless kernel and the
    Fourier engine otherwise; ``exact`` requires Gaussian innovations."""
    spec = config.oracle
    mode = spec.get("mode", "auto")
    if mode == "exact":
        return exact_marginal_oracle(model)
    if mode == "auto":
        if model.innovations.name == "gaussian":
            return exact_marginal_oracle(model)
        return build_marginal_oracle(model)
    raise ConfigError(f"unknown oracle mode {mode!r}")


def gate_conditions(config, model):
    """Abort-style condition checks shared by the scan entry points.

    The squared-tail decay check applies to every kernel but the power
    law, whose analytic verdict (tau > 5/2, rho >= 2/(2 tau - 1)) a model
    meets by construction; its numerical product would only fill the
    kernel's squared-tail caches up to 2^17. The density-smoothness check
    applies only to models with actual dependence (a memoryless kernel is
    the classical i.i.d. case and needs no innovation smoothness). Returns
    the two reports, None where a check did not run.
    """
    dep = None
    if model.coefficients.kind != "power_law":
        dep = check_dependence_condition(model.coefficients, model.rho)
        if not dep.admissible:
            raise ModelError(
                "dependence gate failed: squared coefficient tails do not "
                f"decay like i^(-2/rho) log(i)^-3 at rho={model.rho}\n"
                + dep.describe())
    smooth = None
    if model.has_memory:
        smooth = validate_innovation(model.innovations)
        if not model.innovations.smooth or smooth.violation:
            raise ModelError(
                "smoothness gate failed: a dependent model needs the "
                "innovation density and its first two derivatives bounded "
                f"on the line\n" + smooth.describe())
    if config.nu is not None:
        if model.gamma_min is None:
            raise ModelError(
                "weighted scan requested (nu set) but the model does not "
                "declare gamma1/gamma2")
        if model.gamma_min < 1.0:
            raise ModelError(
                f"weighted scan needs gamma = min(gamma1, gamma2) >= 1, "
                f"got {model.gamma_min}")
        threshold = csr_nu_min(model.gamma_min)
        if not config.nu > threshold:
            raise ModelError(
                f"weight exponent nu={config.nu} is not admissible for "
                f"gamma={model.gamma_min}: need nu > max(2*gamma, 3*gamma-2) "
                f"= {threshold}")
    return dep, smooth


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    ratio_stability: float


def fit_rate(pairs, normalizer=rate_b):
    """OLS of log statistic on log n, plus max/min of statistic/normalizer.

    Parameters
    ----------
    pairs : sequence of (n, statistic)
        At least 3 pairs, all statistics strictly positive.
    normalizer : callable
        Rate used for the ratio-stability diagnostic (default rate_b).
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 (n, statistic) pairs")
    ns = np.array([float(n) for n, _ in pairs])
    stats = np.array([float(s) for _, s in pairs])
    if np.any(stats <= 0.0):
        raise ValueError("rate fit needs strictly positive statistics")
    slope, intercept = np.polyfit(np.log(ns), np.log(stats), 1)
    ratios = stats / np.array([normalizer(int(n)) for n in ns])
    return RateFit(slope=float(slope), intercept=float(intercept),
                   ratio_stability=float(ratios.max() / ratios.min()))


# ---------------------------------------------------------------------------
# cell runner and CSV output


_WORKER = {}


def _oracle_record(oracle):
    return {"kind": oracle.kind, "cdf_error_bound": oracle.cdf_error_bound}


def _run_cell(n, r):
    return _WORKER["cell"](n, r)


def map_cells(cell, model, oracle, config, n_grid, replicates, threads):
    """Rows of ``cell(model, oracle, config, n, r)`` for every (n, r), in
    (n, r) order.

    The caller builds the model and oracle once. With one worker or one
    task the cells run in this process; otherwise ``min(threads, tasks)``
    workers are forked after the cell is bound in ``_WORKER`` and inherit
    it, so they build nothing and a row depends on its cell alone. The
    runner asks for the ``fork`` start method by name: a worker started
    any other way would not inherit ``_WORKER``. The oracle's kind and
    error bound go to ``config.built_oracle``.
    """
    tasks = [(n, r) for n in n_grid for r in range(replicates)]
    bound = functools.partial(cell, model, oracle, config)
    workers = min(threads, len(tasks))
    if workers <= 1:
        rows = [bound(n, r) for n, r in tasks]
    else:
        _WORKER["cell"] = bound
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                rows = pool.starmap(_run_cell, tasks, chunksize=max(
                    1, replicates // (4 * workers)))
        finally:
            _WORKER.clear()
    config.built_oracle.update(_oracle_record(oracle))
    return rows


def _csv_field(value):
    if isinstance(value, bool):
        return int(value)
    return repr(float(value)) if isinstance(value, float) else value


def write_csv(path, header, rows):
    """Write ``rows`` under ``header``: floats as ``repr`` (exact round
    trip), bools as 0/1, ints and strings as they are."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_csv_field(v) for v in row] for row in rows)


def write_rows_csv(path, rows, row_type):
    """Dataclass rows, one column per field of ``row_type``."""
    names = [f.name for f in fields(row_type)]
    write_csv(path, names, ([getattr(row, k) for k in names] for row in rows))


def _aggregate(values):
    arr = np.asarray(values, dtype=float)
    if np.all(np.isnan(arr)):
        return {"mean": math.nan, "median": math.nan, "max": math.nan}
    return {"mean": float(np.mean(arr)), "median": float(np.median(arr)),
            "max": float(np.max(arr))}


# ---------------------------------------------------------------------------
# iterated-logarithm scan


@dataclass(frozen=True)
class LilRow:
    n: int
    replicate: int
    seed: int
    lil_beta: float
    lil_u: float


def _sorted_pit(path, oracle, x_sorted, cdf=None):
    """The PIT sample in ascending order, F(X_(1)) <= ... <= F(X_(n)), from
    ``cdf`` = F(x_sorted) when it is given.

    F is nondecreasing, so the sorted sample needs no second sort; the
    check catches an oracle whose rounding breaks monotonicity.
    """
    u = pit_transform(replace(path, x=x_sorted), oracle, cdf)
    return u if np.all(np.diff(u) >= 0.0) else np.sort(u)


def _lil_sample(model, oracle, config, n, r):
    """Sample summary, PIT summary and normalized sup row of cell (n, r)."""
    seed = mix_seed(config.master_seed, n, r)
    path = simulate_path(model, n, seed, trunc_tol=config.trunc_tol)
    xs = EmpiricalSummary.from_sample(path.x, seed=seed)
    # one CDF pass serves both the PIT and sup |beta|
    fx = np.asarray(oracle.cdf(xs.sorted), dtype=float)
    us = EmpiricalSummary(n=n, sorted=_sorted_pit(path, oracle, xs.sorted, fx),
                          source_seed=seed)
    norm = math.sqrt(2.0 * math.log(math.log(n)))
    return xs, us, LilRow(n=n, replicate=r, seed=seed,
                          lil_beta=sup_abs_beta(xs, oracle, fx) / norm,
                          lil_u=sup_abs_u(us) / norm)


def _lil_cell(model, oracle, config, n, r):
    return _lil_sample(model, oracle, config, n, r)[2]


def run_lil_scan(config, threads=1, out_dir=None):
    """Per-replicate normalized sup statistics and their per-n summaries.

    A rate-scan cell computes the same rows, so they equal its
    ``lil_beta``/``lil_u`` columns, but this scan evaluates no residual:
    only sup|beta| / (2 log log n)^(1/2) and its PIT-side counterpart.
    Returns the rows and {n: {"mean", "median", "max"}} of ``lil_beta``.
    """
    model = build_model(config)
    gate_conditions(config, model)
    rows = map_cells(_lil_cell, model, build_oracle(model, config), config,
                     config.n_grid, config.replicates, threads)
    summary = {n: _aggregate([r.lil_beta for r in rows if r.n == n])
               for n in config.n_grid}
    if out_dir is not None:
        write_rows_csv(os.path.join(out_dir, "lil_scan.csv"), rows, LilRow)
        write_csv(os.path.join(out_dir, "lil_summary.csv"),
                  ["n", "median", "max"],
                  [(n, s["median"], s["max"]) for n, s in summary.items()])
    return rows, summary


# ---------------------------------------------------------------------------
# rate scan


@dataclass(frozen=True)
class RateRow:
    n: int
    replicate: int
    seed: int
    sup_abs: float
    weighted_sup: float
    pointwise_mid: float
    lil_beta: float
    lil_u: float


@dataclass(frozen=True)
class RateScanResult:
    rows: list
    per_n: dict     # n -> {stat: {"mean","median","max"}}
    fits: dict      # statistic name -> RateFit
    certificates: dict  # n -> {"min_margin", "refined"} of the residual sups


def _rate_cell(model, oracle, config, n, r):
    """Row of cell (n, r) plus the certificate margin and refined-piece
    count of its residual sup."""
    xs, us, lil = _lil_sample(model, oracle, config, n, r)
    seed = lil.seed
    a, b = config.interval
    if config.nu is None:
        rs = residual_sup(xs, us, oracle, a, b, seed=seed)
        weighted = math.nan
    else:
        # one pass on the weight interval serves the plain sup on (a, b)
        rs = weighted_residual_sup(xs, us, oracle, config.nu, seed=seed,
                                   interval=(a, b))
        weighted = rs.weighted_sup
    mid = abs(residual_pointwise(xs, us, oracle, 0.5))
    row = RateRow(
        n=n, replicate=r, seed=seed, sup_abs=rs.sup_abs,
        weighted_sup=weighted, pointwise_mid=mid,
        lil_beta=lil.lil_beta, lil_u=lil.lil_u)
    return row, rs.min_margin, rs.refined


def run_rate_scan(config, threads=1, out_dir=None):
    """Replicated residual-rate scan over the config's n-grid.

    For each (n, replicate): simulate, PIT, residual sup on the working
    interval, weighted sup when nu is set, pointwise residual at 1/2,
    and both normalized sup statistics for the iterated-logarithm check.
    Aggregates medians/means/maxima per n and fits log-log slopes.
    """
    model = build_model(config)
    gate_conditions(config, model)
    cells = map_cells(_rate_cell, model, build_oracle(model, config), config,
                      config.n_grid, config.replicates, threads)
    rows = [row for row, _, _ in cells]
    certificates = {
        n: {"min_margin": float(np.min([m for row, m, _ in cells
                                        if row.n == n])),
            "refined": sum(k for row, _, k in cells if row.n == n)}
        for n in config.n_grid}

    per_n = {}
    for n in config.n_grid:
        sub = [r for r in rows if r.n == n]
        per_n[n] = {
            stat: _aggregate([getattr(r, stat) for r in sub])
            for stat in ("sup_abs", "weighted_sup", "pointwise_mid",
                         "lil_beta", "lil_u")
        }

    fits = {}
    if len(config.n_grid) >= 3:
        fits["sup_abs"] = fit_rate([(n, per_n[n]["sup_abs"]["median"])
                                    for n in config.n_grid])
        if config.nu is not None:
            fits["weighted_sup"] = fit_rate(
                [(n, per_n[n]["weighted_sup"]["median"]) for n in config.n_grid])
        fits["pointwise_mid"] = fit_rate(
            [(n, per_n[n]["pointwise_mid"]["median"]) for n in config.n_grid],
            normalizer=rate_kiefer_pointwise)

    if out_dir is not None:
        write_rows_csv(os.path.join(out_dir, "rate_scan.csv"), rows, RateRow)
        write_csv(os.path.join(out_dir, "fit.csv"),
                  ["statistic", "slope", "intercept", "ratio_stability"],
                  [(name, fit.slope, fit.intercept, fit.ratio_stability)
                   for name, fit in fits.items()])
    return RateScanResult(rows=rows, per_n=per_n, fits=fits,
                          certificates=certificates)


# ---------------------------------------------------------------------------
# increment modulus

_EXTREMA_BLOCK = 1 << 14  # queries per block of _range_extrema: fits in cache


def _range_extrema(a, first, last):
    """Max and min of ``a[first[q]:last[q] + 1]`` for each query q, for
    nondecreasing ``first`` and ``last``. Each block of queries builds the
    sparse-table levels of its span of ``a`` one at a time (level k: the
    extrema of 2^k entries) and answers each query at its level."""
    big, small = np.empty(first.size), np.empty(first.size)
    for s in range(0, first.size, _EXTREMA_BLOCK):
        lo, hi = first[s:s + _EXTREMA_BLOCK], last[s:s + _EXTREMA_BLOCK]
        top = bottom = a[lo[0]:hi[-1] + 1]
        lo, hi, start = lo - lo[0], hi - lo[0], 0
        level = np.frexp(hi - lo + 1)[1] - 1
        order = np.argsort(level, kind="stable")
        for k, stop in enumerate(np.cumsum(np.bincount(level))):
            if k:
                h = 1 << (k - 1)
                top = np.maximum(top[:-h], top[h:])
                bottom = np.minimum(bottom[:-h], bottom[h:])
            q = order[start:stop]
            i, j = lo[q], hi[q] + 1 - (1 << k)
            big[s + q] = np.maximum(top[i], top[j])
            small[s + q] = np.minimum(bottom[i], bottom[j])
            start = stop
    return big, small


def increment_modulus(pit_sorted, d):
    """Exact sup of |g(v) - g(u)| over u, v in [0, 1] with |u - v| <= d,
    for g = E_n - id. With P_0 = 0 <= P_1 <= ... <= P_n the sorted sample,
    P_{n+1} = 1, a_k = k/n - P_k and d capped at 1, it is the largest of:
    rise (P_i-, P_j], 1/n + a_j - a_i over i <= j with 0 < P_i, P_j < P_i + d;
    fall (P_i, P_m-), 1/n + a_i - a_m over 0 <= i < m with P_m <= P_i + d;
    window (P_i, P_i + d] for P_i + d < 1, d - (its point count)/n.
    One search of P + d gives each row's last point and window count; a
    row with a point at exactly P_i + d is queried again for rise."""
    us = np.asarray(pit_sorted, dtype=float)
    n = us.size
    if not 0.0 < d:
        raise ValueError("window width d must be positive")
    d = min(d, 1.0)
    p = np.concatenate([[0.0], us])
    a = np.arange(n + 1) / n - p
    ends = p + d
    last = np.searchsorted(p, ends, side="right") - 1
    big, small = _range_extrema(a, np.arange(n + 1), last)
    tied = np.flatnonzero((p[last] == ends) & (ends > p))
    big[tied] = _range_extrema(a, tied, np.searchsorted(p, ends[tied]) - 1)[0]
    zero = np.searchsorted(p, 0.0, side="right")  # rise needs P_i > 0
    inside = ends < 1.0
    return max(1.0 / n + float((big[zero:n + 1] - a[zero:]).max(initial=-1)),
               1.0 / n + float((a - small[:n + 1]).max()),
               float(a[~inside].max(initial=0.0)),  # fall to P_{n+1}
               d - (last - np.arange(n + 1))[inside].min(initial=n) / n)


@dataclass(frozen=True)
class IncrementRow:
    n: int
    replicate: int
    seed: int
    d_n: float
    modulus: float
    normalized: float


def _increment_cell(model, oracle, config, n, r, d_of):
    d = d_of[n]
    seed = mix_seed(config.master_seed, n, r)
    path = simulate_path(model, n, seed, trunc_tol=config.trunc_tol)
    us = _sorted_pit(path, oracle, np.sort(path.x))
    mod = increment_modulus(us, d)
    norm = math.sqrt(d * math.log(n) / n)
    return IncrementRow(n=n, replicate=r, seed=seed, d_n=d, modulus=mod,
                        normalized=mod / norm)


def run_increment_check(config, d_n_rule="lambda_n", threads=1, out_dir=None):
    """Increment modulus of the centered empirical CDF at window d_n.

    d_n_rule is either "lambda_n" (d_n = n^(-1/2) (2 log log n)^(1/2)) or
    a mapping n -> d_n. The modulus is normalized by
    sqrt(d_n log n) / sqrt(n); the second, Lipschitz-driven term of the
    increment bound is negligible at this window choice and is omitted
    from the normalizer.
    """
    model = build_model(config)
    gate_conditions(config, model)
    if d_n_rule == "lambda_n":
        d_of = {n: rate_lambda(n) for n in config.n_grid}
    elif isinstance(d_n_rule, dict):
        d_of = {}
        for key, d in d_n_rule.items():
            try:
                d_of[int(key)] = float(d)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"d_n_rule entry {key!r}: {d!r} is not a "
                                  "sample size and a window") from exc
    else:
        raise ConfigError(f"unknown d_n rule {d_n_rule!r}")
    for n in config.n_grid:
        if n not in d_of:
            raise ConfigError(f"d_n_rule has no window for n={n}")
        d = d_of[n]
        if not (0.0 < d <= 1.0):
            raise ConfigError(f"d_n must lie in (0, 1], got {d} at n={n}")
        if n * d / math.log(n) < 10.0:
            raise ConfigError(
                f"window too small at n={n}: need n*d_n/log(n) >= 10, "
                f"got {n * d / math.log(n):.3g}")

    cell = functools.partial(_increment_cell, d_of=d_of)
    rows = map_cells(cell, model, build_oracle(model, config), config,
                     config.n_grid, config.replicates, threads)
    if out_dir is not None:
        write_rows_csv(os.path.join(out_dir, "increments.csv"), rows,
                       IncrementRow)
    return rows


# ---------------------------------------------------------------------------
# covariance cross-check


@dataclass(frozen=True)
class CovarianceCheckRow:
    x: float
    n: int
    replicates: int
    var_emp: float
    var_se: float
    gamma: float
    gamma_se: float
    qq_max_dev: float
    converged: bool


def _covariance_cell(model, oracle, config, n, r, x_grid):
    """sqrt(n) N(x) of replicate r, for each x of the grid."""
    seed = mix_seed(config.master_seed, n, r)
    path = simulate_path(model, n, seed, trunc_tol=config.trunc_tol)
    return [math.sqrt(n) * float(np.mean(y_summands(path, oracle, x)))
            for x in x_grid]


def run_covariance_check(config, x_grid=None, threads=1, out_dir=None):
    """Replicate variance of sqrt(n) N(x) against Gamma(x, x).

    ``gamma_se`` is the certified error bound of Gamma plus, for Monte
    Carlo lag terms (non-Gaussian laws), their standard error; ``converged``
    says the bound is at most ``decomp.GAMMA_TOL``. Also reports a
    quantile-quantile deviation of the replicate sample against the
    centered Gaussian with variance Gamma.
    """
    cov = config.covariance
    if x_grid is None:
        x_grid = cov.get("x_grid", [-1.0, 0.0, 1.0])
    try:
        n = int(cov.get("n", 16384))
        reps = int(cov.get("replicates", 1000))
        lag_horizon = int(cov.get("lag_horizon", 8))
        mc_draws = int(cov.get("mc_draws", 4000))
        x_grid = [float(x) for x in x_grid]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed covariance block: {exc}") from exc
    if n < 1 or reps < 2:
        raise ConfigError("covariance needs n >= 1 and replicates >= 2, got "
                          f"n={n}, replicates={reps}")
    if not x_grid or not all(map(math.isfinite, x_grid)):
        raise ConfigError(
            f"covariance x_grid must list finite x, got {x_grid}")
    model = build_model(config)
    # Monte Carlo lag terms, the only ones these keys reach
    if model.innovations.name != "gaussian" and (lag_horizon < 1
                                                 or mc_draws < 1000):
        raise ConfigError(
            "covariance needs lag_horizon >= 1 and mc_draws >= 1000 for "
            f"{model.innovations.name} innovations, got lag_horizon="
            f"{lag_horizon}, mc_draws={mc_draws}")
    gate_conditions(config, model)
    oracle = build_oracle(model, config)
    samples = map_cells(functools.partial(_covariance_cell, x_grid=x_grid),
                        model, oracle, config, [n], reps, threads)
    rows = []
    probs = np.arange(1, 10) / 10.0
    for ix, x in enumerate(x_grid):
        est = covariance_gamma(
            model, oracle, x, x, lag_horizon=lag_horizon, mc_draws=mc_draws,
            seed=mix_seed(config.master_seed, n, 1_000_000 + ix),
            trunc_tol=config.trunc_tol)
        s = np.array([row[ix] for row in samples])
        var_emp = float(np.var(s, ddof=1))
        var_se = var_emp * math.sqrt(2.0 / (reps - 1))
        sd = math.sqrt(max(est.gamma, 0.0))
        qq = float(np.max(np.abs(np.quantile(s, probs) - sd * ndtri(probs))))
        rows.append(CovarianceCheckRow(
            x=x, n=n, replicates=reps, var_emp=var_emp, var_se=var_se,
            gamma=est.gamma, gamma_se=est.bound + est.stderr, qq_max_dev=qq,
            converged=est.converged))
    if out_dir is not None:
        write_rows_csv(os.path.join(out_dir, "covariance.csv"), rows,
                       CovarianceCheckRow)
    return rows


# ---------------------------------------------------------------------------
# manifest


def oracle_summary(config):
    """Kind and CDF error bound of the config's oracle. Both depend on the
    config alone, so a cell run's record serves, and an oracle is built
    here only when no cell has run."""
    if config.built_oracle:
        return dict(config.built_oracle)
    return _oracle_record(build_oracle(build_model(config), config))


def write_manifest(config, command, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    import scipy

    seeds = [[n, r, mix_seed(config.master_seed, n, r)]
             for n in config.n_grid for r in range(config.replicates)]
    manifest = {
        "tool": "bklab",
        "version": __version__,
        "command": command,
        "seed_mixing": "seed = splitmix64(splitmix64(master ^ n) ^ replicate)",
        "master_seed": config.master_seed,
        "derived_seeds": seeds,
        "config": config.raw,
        "library_versions": {"numpy": np.__version__,
                             "scipy": scipy.__version__},
    }
    if command != "simulate":
        manifest["oracle"] = oracle_summary(config)
    with open(os.path.join(out_dir, "run_manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
