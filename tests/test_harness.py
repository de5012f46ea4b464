import json
import math

import numpy as np
import pytest

from bklab import harness
from bklab.bk import rate_b, rate_lambda
from bklab.cli import main as cli_main
from bklab.empirical import EmpiricalSummary, sup_abs_u
from bklab.errors import ConfigError, ModelError
from bklab.harness import (build_model, build_oracle, config_from_dict,
                           fit_rate, gate_conditions, increment_modulus,
                           run_covariance_check, run_increment_check,
                           run_lil_scan, run_rate_scan, write_manifest)
from bklab.paths import pit_transform, simulate_path
from bklab.seeds import mix_seed, splitmix64

from conftest import make_config


class TestFitRate:
    def test_exact_quarter_power(self):
        pairs = [(n, n ** -0.25) for n in (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)]
        fit = fit_rate(pairs)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_exact_half_power(self):
        pairs = [(n, n ** -0.5) for n in (2 ** 10, 2 ** 12, 2 ** 14)]
        assert fit_rate(pairs).slope == pytest.approx(-0.5, abs=1e-12)

    def test_ratio_stability_of_rate_b(self):
        pairs = [(n, 3.7 * rate_b(n)) for n in (2 ** 10, 2 ** 13, 2 ** 16)]
        assert fit_rate(pairs).ratio_stability == pytest.approx(1.0, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate([(16, 1.0), (32, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(16, 1.0), (32, 0.5), (64, 0.0)])


class TestSeeds:
    def test_deterministic(self):
        assert mix_seed(13, 4096, 7) == mix_seed(13, 4096, 7)

    def test_distinct_across_grid(self):
        seeds = {mix_seed(99, n, r)
                 for n in (16, 64, 256, 1024, 4096, 16384, 65536)
                 for r in range(500)}
        assert len(seeds) == 7 * 500

    def test_splitmix_is_64bit(self):
        z = splitmix64(2 ** 63 + 12345)
        assert 0 <= z < 2 ** 64


class TestConfig:
    def test_version_required(self):
        with pytest.raises(ConfigError, match="version"):
            config_from_dict({"model": {}, "scan": {}})

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError, match="16"):
            config_from_dict(make_config(n_grid=(8, 16)))

    def test_empty_grid_rejected(self):
        # an empty grid used to pass here and fail later: simulate raised
        # IndexError and rate-scan wrote header-only CSVs
        with pytest.raises(ConfigError, match="at least one n"):
            config_from_dict(make_config(n_grid=()))

    def test_non_increasing_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            config_from_dict(make_config(n_grid=(64, 32)))

    def test_missing_scan(self):
        with pytest.raises(ConfigError, match="missing"):
            config_from_dict({"version": 1, "model": {}})

    def test_bad_interval(self):
        with pytest.raises(ConfigError, match="interval"):
            config_from_dict(make_config(interval=(0.9, 0.1)))

    @pytest.mark.parametrize("interval", [(0.0, 0.95), (0.05, 1.0)])
    def test_interval_ends_must_be_open(self, interval):
        # the exact residual sup takes one-sided limits at both ends
        with pytest.raises(ConfigError, match="0 < a < b < 1"):
            config_from_dict(make_config(interval=interval))

    def test_unknown_innovation_is_config_error(self):
        cfg = config_from_dict(make_config(innovation="cauchy"))
        with pytest.raises(ConfigError, match="cauchy"):
            build_model(cfg)

    def test_bad_coefficient_kind_is_model_or_config_error(self):
        cfg = config_from_dict(make_config(
            coefficients={"kind": "fourier", "values": [1.0]}))
        with pytest.raises((ConfigError, ModelError)):
            build_model(cfg)


class TestGate:
    def test_power_law_takes_the_analytic_verdict(self, monkeypatch):
        # a power-law model meets tau > 5/2 and rho >= 2/(2 tau - 1) by
        # construction, so the gate runs no numerical tail product
        def no_product(*args, **kwargs):
            raise AssertionError("the gate evaluated the tail product")

        monkeypatch.setattr(harness, "check_dependence_condition",
                            no_product)
        cfg = config_from_dict(make_config(**POWER_LAW))
        dep, smooth = gate_conditions(cfg, build_model(cfg))
        assert dep is None and not smooth.violation

    def test_uniform_iid_passes(self):
        cfg = config_from_dict(make_config(innovation="uniform", rho=0.3))
        gate_conditions(cfg, build_model(cfg))

    def test_dependent_laplace_rejected(self):
        cfg = config_from_dict(make_config(
            innovation="laplace",
            coefficients={"kind": "finite", "values": [1.0, 0.5]}))
        with pytest.raises(ModelError, match="smoothness"):
            gate_conditions(cfg, build_model(cfg))

    def test_nu_threshold_rejected(self):
        cfg = config_from_dict(make_config(
            gamma1=1.0, gamma2=1.0, nu=2.0,
            coefficients={"kind": "finite", "values": [1.0, 0.5]}))
        with pytest.raises(ModelError, match="nu"):
            gate_conditions(cfg, build_model(cfg))

    def test_nu_above_threshold_passes(self):
        cfg = config_from_dict(make_config(
            gamma1=1.0, gamma2=1.0, nu=2.5,
            coefficients={"kind": "finite", "values": [1.0, 0.5]}))
        gate_conditions(cfg, build_model(cfg))


class TestRateScan:
    def test_single_cell_deterministic(self):
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(16,), replicates=1,
            master_seed=5))
        a = run_rate_scan(cfg)
        b = run_rate_scan(cfg)
        assert len(a.rows) == 1
        assert a.rows == b.rows

    def test_row_count_and_aggregates(self):
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(16, 32, 64),
            replicates=5, master_seed=2))
        res = run_rate_scan(cfg)
        assert len(res.rows) == 15
        sub = [r.sup_abs for r in res.rows if r.n == 32]
        assert res.per_n[32]["sup_abs"]["median"] == pytest.approx(
            float(np.median(sub)))
        assert "sup_abs" in res.fits and "pointwise_mid" in res.fits

    def test_lil_columns_match_direct_computation(self, iid_uniform):
        model, oracle = iid_uniform
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(64,), replicates=1,
            master_seed=21))
        res = run_rate_scan(cfg)
        row = res.rows[0]
        p = simulate_path(model, 64, row.seed)
        us = EmpiricalSummary.from_sample(pit_transform(p, oracle))
        norm = math.sqrt(2.0 * math.log(math.log(64)))
        assert row.lil_u == pytest.approx(sup_abs_u(us) / norm, abs=1e-12)
        # under the exact PIT the two normalized sups coincide
        assert row.lil_beta == pytest.approx(row.lil_u, abs=1e-12)

    def test_certificates_per_n(self):
        cfg = make_config(innovation="uniform", rho=0.3, n_grid=(16, 32),
                          replicates=2, master_seed=3)
        res = run_rate_scan(config_from_dict(cfg))
        # f = 1 on (0, 1): every piece is certified with margin 2
        assert res.certificates == {
            n: {"min_margin": 2.0, "refined": 0} for n in (16, 32)}

    def test_gate_failure_aborts(self):
        cfg = config_from_dict(make_config(
            innovation="laplace",
            coefficients={"kind": "finite", "values": [1.0, 0.5]},
            n_grid=(16,), replicates=1))
        with pytest.raises(ModelError):
            run_rate_scan(cfg)


POWER_LAW = {"coefficients": {"kind": "power_law", "tau": 3.0},
             "gamma1": 1.0, "gamma2": 1.0}


class TestLilScan:
    def test_matches_rate_scan_without_residuals(self, monkeypatch):
        cfg = config_from_dict(make_config(
            nu=2.5, n_grid=(16, 64, 256), replicates=3, master_seed=4,
            **POWER_LAW))
        scan = run_rate_scan(cfg)

        def no_residual(*args, **kwargs):
            raise AssertionError("lil-scan evaluated a residual")

        for name in ("residual_sup", "weighted_residual_sup",
                     "residual_pointwise"):
            monkeypatch.setattr(harness, name, no_residual)
        rows, summary = run_lil_scan(cfg)
        assert [(r.n, r.replicate, r.seed, r.lil_beta, r.lil_u)
                for r in rows] == [(r.n, r.replicate, r.seed, r.lil_beta,
                                    r.lil_u) for r in scan.rows]
        for n in cfg.n_grid:
            assert summary[n] == scan.per_n[n]["lil_beta"]


# command -> (config, output files); every scan command must write the
# same bytes in-process and on a worker pool
THREAD_CASES = {
    "rate-scan": (
        make_config(innovation="uniform", rho=0.3, n_grid=(16, 32, 64),
                    replicates=4, master_seed=11),
        ("rate_scan.csv", "fit.csv")),
    "lil-scan": (
        make_config(n_grid=(16, 32, 64), replicates=4, master_seed=12,
                    **POWER_LAW),
        ("lil_scan.csv", "lil_summary.csv")),
    # the increment window gate needs n * d_n / log(n) >= 10, so n >= 2048
    "increment-check": (
        make_config(n_grid=(2048,), replicates=4, master_seed=13,
                    **POWER_LAW),
        ("increments.csv",)),
    "covariance-check": (
        make_config(n_grid=(16,), replicates=1, master_seed=14,
                    extra={"covariance": {"n": 256, "replicates": 12,
                                          "x_grid": [-0.5, 0.5],
                                          "lag_horizon": 2,
                                          "mc_draws": 1000}},
                    **POWER_LAW),
        ("covariance.csv",)),
}


@pytest.mark.parametrize("command", THREAD_CASES)
def test_threads_equivalence(tmp_path, command):
    config, outputs = THREAD_CASES[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for threads in ("1", "2"):
        assert cli_main([command, "--config", str(path), "--out",
                         str(tmp_path / threads), "--threads", threads]) == 0
    for name in outputs + ("run_manifest.json",):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", THREAD_CASES)
def test_one_oracle_build_per_command(tmp_path, monkeypatch, command,
                                      threads):
    # each build appends a line to a file, so builds in forked workers
    # count too
    log = tmp_path / "builds.log"
    build = harness.build_oracle

    def logged_build(model, config):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("build\n")
        return build(model, config)

    monkeypatch.setattr(harness, "build_oracle", logged_build)
    config, _ = THREAD_CASES[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(path), "--out",
                     str(tmp_path / "out"), "--threads", threads]) == 0
    assert log.read_text().splitlines() == ["build"]


@pytest.mark.parametrize("command", THREAD_CASES)
def test_one_model_build_per_command(tmp_path, monkeypatch, command):
    builds = []
    build = harness.build_model

    def counted_build(config):
        builds.append(config)
        return build(config)

    monkeypatch.setattr(harness, "build_model", counted_build)
    config, _ = THREAD_CASES[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(path), "--out",
                     str(tmp_path / "out"), "--threads", "1"]) == 0
    assert len(builds) == 1


def test_one_task_creates_no_pool(monkeypatch):
    cfg = config_from_dict(make_config(innovation="uniform", rho=0.3,
                                       n_grid=(16,), replicates=1))
    model = build_model(cfg)
    oracle = build_oracle(model, cfg)
    serial = harness.map_cells(harness._lil_cell, model, oracle, cfg,
                               cfg.n_grid, cfg.replicates, 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-task run created a pool")

    monkeypatch.setattr(harness.multiprocessing, "get_context", no_pool)
    assert harness.map_cells(harness._lil_cell, model, oracle, cfg,
                             cfg.n_grid, cfg.replicates, 4) == serial


def test_logistic_powerlaw_rate_scan(tmp_path):
    # a dependent non-Gaussian model, served by the Fourier engine
    config = make_config(innovation="logistic", rho=0.45, n_grid=(4096,),
                         replicates=1, master_seed=15, **POWER_LAW)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for threads in ("1", "2"):
        assert cli_main(["rate-scan", "--config", str(path), "--out",
                         str(tmp_path / threads), "--threads", threads]) == 0
    for name in ("rate_scan.csv", "run_manifest.json"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()
    header, row = (tmp_path / "1" / "rate_scan.csv").read_text().split()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    for stat in ("sup_abs", "pointwise_mid", "lil_beta", "lil_u"):
        assert math.isfinite(values[stat]) and values[stat] > 0.0
    oracle = json.loads((tmp_path / "1" / "run_manifest.json")
                        .read_text())["oracle"]
    assert oracle["kind"] == "fourier"
    assert 0.0 < oracle["cdf_error_bound"] <= 1e-12


@pytest.mark.parametrize("model, kind", [
    ({"innovation": "uniform", "rho": 0.3}, "single-point"),
    (POWER_LAW, "exact"),
    (dict(innovation="logistic", **POWER_LAW), "fourier"),
])
def test_manifest_records_oracle(tmp_path, model, kind):
    cfg = config_from_dict(make_config(n_grid=(16,), replicates=1, **model))
    write_manifest(cfg, "rate-scan", str(tmp_path))
    oracle = json.loads((tmp_path / "run_manifest.json").read_text())["oracle"]
    assert oracle["kind"] == kind
    bound = oracle["cdf_error_bound"]
    assert bound == 0.0 if kind in ("single-point", "exact") else bound > 0.0
    write_manifest(cfg, "simulate", str(tmp_path))
    assert "oracle" not in json.loads(
        (tmp_path / "run_manifest.json").read_text())


@pytest.mark.parametrize("threads", [1, 2])
def test_manifest_takes_the_oracle_the_run_built(tmp_path, monkeypatch,
                                                 threads):
    cfg = config_from_dict(make_config(
        innovation="logistic", n_grid=(16,), replicates=2, **POWER_LAW))
    expected = harness.oracle_summary(cfg)
    run_lil_scan(cfg, threads=threads)

    def no_rebuild(*args):
        raise AssertionError("the manifest rebuilt the oracle")

    monkeypatch.setattr(harness, "build_oracle", no_rebuild)
    write_manifest(cfg, "lil-scan", str(tmp_path))
    oracle = json.loads((tmp_path / "run_manifest.json").read_text())["oracle"]
    assert oracle == expected and oracle["kind"] == "fourier"


def brute_modulus(us, d):
    """sup |g(v) - g(u)| for g = E_n - id over u, v in [0, 1] with
    |u - v| <= d, by comparing every pair of candidate positions.

    The candidates are 0, 1, d, 1 - d and each sample point shifted by 0,
    +d and -d, each taken as the point itself and as its left and right
    limit. A limit is the point moved by an infinitesimal, so a pair at
    distance exactly d qualifies only when the infinitesimals do not widen
    it. Exact when the sample and d are dyadic.
    """
    n = us.size
    d = min(d, 1.0)
    ys = np.concatenate([us, us + d, us - d, [0.0, 1.0, d, 1.0 - d]])
    ys = np.unique(ys[(ys >= 0.0) & (ys <= 1.0)])
    below = np.searchsorted(us, ys, side="left") / n - ys   # g(y-)
    at = np.searchsorted(us, ys, side="right") / n - ys     # g(y) = g(y+)
    pos, side, val = [], [], []
    for s, g in ((-1, below), (0, at), (1, at)):
        keep = ~(((ys == 0.0) & (s < 0)) | ((ys == 1.0) & (s > 0)))
        pos.append(ys[keep])
        side.append(np.full(int(keep.sum()), s))
        val.append(g[keep])
    pos, side, val = map(np.concatenate, (pos, side, val))
    gap = pos[None, :] - pos[:, None]
    tilt = side[None, :] - side[:, None]
    after = (gap > 0.0) | ((gap == 0.0) & (tilt >= 0))
    near = (gap < d) | ((gap == d) & (tilt <= 0))
    return float(np.abs(val[None, :] - val[:, None])[after & near].max())


def dyadic_cases(seed, count=60):
    """Small samples with dyadic windows, every other one on the 1/16 grid
    (ties, points at 0 and 1) and the rest on the 2^-20 grid. On the
    1/16 grid some points lie exactly d = k/16 apart and d = 2^-20 is
    below every nonzero gap; at d = 2^-60, P + d rounds to P for most
    points; d >= 1 covers the whole interval."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 41))
        steps = 16 if case % 2 else 2 ** 20
        us = np.sort(rng.integers(0, steps + 1, n) / steps)
        d = [rng.integers(1, 17) / 16.0, rng.integers(1, 65) / 64.0,
             2.0 ** -20, 2.0 ** -60, 1.0, 1.5][case // 2 % 6]
        yield us, float(d)


class TestIncrementModulus:
    def test_against_brute_force(self):
        for seed in (1, 2, 3):
            for us, d in dyadic_cases(seed):
                assert increment_modulus(us, d) == pytest.approx(
                    brute_modulus(us, d), abs=1e-15), (us.tolist(), d)

    def test_range_extrema_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(6)
        a = rng.random(300)
        first = np.sort(rng.integers(0, 300, 200))
        last = np.maximum.accumulate(
            np.minimum(first + rng.integers(0, 40, 200), 299))
        for block in (1, 7, 64, 1 << 14):
            monkeypatch.setattr(harness, "_EXTREMA_BLOCK", block)
            big, small = harness._range_extrema(a, first, last)
            assert big.tolist() == [a[i:j + 1].max()
                                    for i, j in zip(first, last)]
            assert small.tolist() == [a[i:j + 1].min()
                                      for i, j in zip(first, last)]

    def test_point_exactly_d_apart_is_outside_a_rise(self):
        # (0.25-, 0.5] would hold both points but is longer than d = 0.25
        us = np.array([0.25, 0.5])
        assert increment_modulus(us, 0.25) == 0.5
        assert increment_modulus(us, 0.25 + 2.0 ** -20) == 0.75

    def test_whole_line_reduces_to_range(self):
        rng = np.random.default_rng(9)
        us = np.sort(rng.random(50))
        mod = increment_modulus(us, 1.0)
        sup = sup_abs_u(EmpiricalSummary.from_sample(us)) / math.sqrt(50)
        assert mod <= 2.0 * sup + 1e-9

    def test_monotone_in_window(self):
        rng = np.random.default_rng(5)
        us = np.sort(rng.random(64))
        m1 = increment_modulus(us, 0.05)
        m2 = increment_modulus(us, 0.10)
        assert m2 >= m1 - 1e-12


class TestIncrementCheck:
    def test_small_n_violates_precondition(self):
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(16,), replicates=1))
        with pytest.raises(ConfigError, match="n\\*d_n"):
            run_increment_check(cfg)

    @pytest.mark.parametrize("rule, message", [
        ({"2048": 0.05}, "no window for n=4096"),
        ({"abc": 0.05}, "'abc'"),
        ({"4096": "wide"}, "'wide'"),
    ], ids=["missing-n", "bad-key", "bad-window"])
    def test_bad_d_n_mapping(self, rule, message):
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(4096,), replicates=1))
        with pytest.raises(ConfigError, match=message):
            run_increment_check(cfg, d_n_rule=rule)

    def test_d_n_mapping_from_config(self, tmp_path):
        config = make_config(innovation="uniform", rho=0.3, n_grid=(4096,),
                             replicates=1,
                             extra={"increments": {"d_n_rule": {"4096": 0.05},
                                                   "window_cells": 64}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli_main(["increment-check", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "increments.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "0.05"
        # the former window_cells key is ignored
        config["increments"] = {"d_n_rule": {"4096": 0.05}}
        path.write_text(json.dumps(config))
        assert cli_main(["increment-check", "--config", str(path), "--out",
                         str(tmp_path / "plain")]) == 0
        assert (tmp_path / "plain" / "increments.csv").read_bytes() == \
            (tmp_path / "out" / "increments.csv").read_bytes()

    def test_lambda_window_rows(self):
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(4096,), replicates=2,
            master_seed=3))
        rows = run_increment_check(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row.d_n == pytest.approx(rate_lambda(4096))
            assert row.modulus > 0.0
            assert row.normalized == pytest.approx(
                row.modulus / math.sqrt(row.d_n * math.log(4096) / 4096))


class TestCovarianceCheck:
    @pytest.mark.parametrize("block, message", [
        ({"replicates": 1}, "replicates >= 2"),
        ({"replicates": 0}, "replicates >= 2"),
        ({"n": 0}, "n >= 1"),
        ({"x_grid": ["left"]}, "malformed covariance block"),
        ({"x_grid": [0.0, None]}, "malformed covariance block"),
        ({"x_grid": []}, "x_grid"),
        ({"replicates": "many"}, "malformed covariance block"),
    ], ids=["one-replicate", "no-replicates", "n-zero", "word-x", "null-x",
            "empty-x", "word-replicates"])
    def test_bad_block_rejected_before_any_cell(self, monkeypatch, block,
                                                message):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(harness, "map_cells", no_cells)
        cfg = config_from_dict(make_config(
            n_grid=(16,), replicates=1,
            extra={"covariance": dict({"n": 64, "replicates": 4}, **block)}))
        with pytest.raises(ConfigError, match=message):
            run_covariance_check(cfg)

    @pytest.mark.parametrize("block", [
        {"mc_draws": 0}, {"mc_draws": 999}, {"lag_horizon": 0},
        {"lag_horizon": -1}], ids=["no-draws", "999-draws", "lag-0",
                                   "lag-minus-1"])
    def test_monte_carlo_keys_rejected_before_the_gate(self, monkeypatch,
                                                       block):
        def unreachable(*args, **kwargs):
            raise AssertionError("the gate or a cell ran")

        for name in ("gate_conditions", "map_cells"):
            monkeypatch.setattr(harness, name, unreachable)
        cfg = config_from_dict(make_config(
            innovation="logistic", n_grid=(16,), replicates=1,
            coefficients={"kind": "finite", "values": [1.0, 0.5]},
            extra={"covariance": dict({"n": 64, "replicates": 4}, **block)}))
        with pytest.raises(ConfigError, match="lag_horizon >= 1 and "
                                              "mc_draws >= 1000"):
            run_covariance_check(cfg)

    def test_monte_carlo_keys_exit_2(self, tmp_path, capsys):
        config = make_config(
            innovation="logistic", n_grid=(16,), replicates=1,
            coefficients={"kind": "finite", "values": [1.0, 0.5]},
            extra={"covariance": {"n": 256, "replicates": 10,
                                  "mc_draws": 0}})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli_main(["covariance-check", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert "mc_draws=0" in capsys.readouterr().err

    def test_monte_carlo_keys_ignored_for_gaussian(self):
        # the closed form takes neither key, so they are not checked
        cfg = config_from_dict(make_config(
            n_grid=(16,), replicates=1,
            coefficients={"kind": "finite", "values": [1.0, 0.5]},
            extra={"covariance": {"n": 64, "replicates": 4, "x_grid": [0.0],
                                  "mc_draws": 0, "lag_horizon": 0}}))
        assert run_covariance_check(cfg)[0].converged

    def test_iid_both_sides_zero(self):
        cfg = config_from_dict(make_config(
            innovation="uniform", rho=0.3, n_grid=(64,), replicates=1,
            extra={"covariance": {"n": 256, "replicates": 100,
                                  "x_grid": [0.3, 0.7], "lag_horizon": 2,
                                  "mc_draws": 1000}}))
        rows = run_covariance_check(cfg)
        for row in rows:
            assert row.var_emp == pytest.approx(0.0, abs=1e-25)
            assert row.gamma == pytest.approx(0.0, abs=1e-25)

    def test_ma1_variance_matches(self):
        cfg = config_from_dict(make_config(
            coefficients={"kind": "finite", "values": [1.0, 0.5]},
            gamma1=1.0, gamma2=1.0, n_grid=(64,), replicates=1,
            master_seed=8,
            extra={"covariance": {"n": 2048, "replicates": 400,
                                  "x_grid": [0.0], "lag_horizon": 4,
                                  "mc_draws": 8000}}))
        rows = run_covariance_check(cfg)
        row = rows[0]
        tol = 0.10 * row.gamma + 3.0 * math.hypot(row.var_se, row.gamma_se)
        assert abs(row.var_emp - row.gamma) < tol
        assert row.qq_max_dev < 0.05

    def test_doubling_n_stable(self):
        # the variance estimate is n-stable: doubling n moves it by less
        # than the combined standard error band
        def at(n):
            cfg = config_from_dict(make_config(
                coefficients={"kind": "finite", "values": [1.0, 0.5]},
                gamma1=1.0, gamma2=1.0, n_grid=(64,), replicates=1,
                master_seed=8,
                extra={"covariance": {"n": n, "replicates": 400,
                                      "x_grid": [0.0], "lag_horizon": 2,
                                      "mc_draws": 2000}}))
            return run_covariance_check(cfg)[0]
        a, b = at(1024), at(2048)
        assert abs(a.var_emp - b.var_emp) < 3.0 * math.hypot(a.var_se, b.var_se)


MA1 = {"coefficients": {"kind": "finite", "values": [1.0, 0.5]},
       "gamma1": 1.0, "gamma2": 1.0}


def _gamma_columns(tmp_path, model, covariance, seed, threads="1"):
    """The gamma, gamma_se and converged columns of covariance.csv, as
    written by the CLI at master seed ``seed``."""
    config = make_config(n_grid=(16,), replicates=1, master_seed=seed,
                         extra={"covariance": covariance}, **model)
    path = tmp_path / f"config-{seed}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"out-{seed}"
    assert cli_main(["covariance-check", "--config", str(path), "--out",
                     str(out), "--threads", threads]) == 0
    lines = (out / "covariance.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[5:] == ["gamma", "gamma_se", "qq_max_dev", "converged"]
    return [(r[5], r[6], r[8]) for r in (line.split(",") for line in lines[1:])]


@pytest.mark.parametrize("model", [MA1, POWER_LAW], ids=["ma1", "power-law"])
def test_gamma_columns_independent_of_seed(tmp_path, model):
    # Gamma is a property of the model: for Gaussian innovations its value,
    # bound and flag come out the same at every master seed
    covariance = {"n": 256, "replicates": 12, "x_grid": [-1.0, 0.0, 1.0],
                  "lag_horizon": 8, "mc_draws": 1000}
    columns = [_gamma_columns(tmp_path, model, covariance, seed)
               for seed in (1, 2, 131)]
    assert columns[0] == columns[1] == columns[2]
    assert [c[2] for c in columns[0]] == ["1", "1", "1"]


def test_converged_at_former_false_alarm_seeds(tmp_path):
    # the benchmark's covariance block, at the master seeds where the
    # half-horizon Monte Carlo test reported converged = 0
    covariance = {"n": 2 ** 14, "replicates": 1000,
                  "x_grid": [-1.0, 0.0, 1.0], "lag_horizon": 8,
                  "mc_draws": 40_000}
    for seed in (131, 135, 426):
        columns = _gamma_columns(tmp_path, MA1, covariance, seed, threads="2")
        assert [c[2] for c in columns] == ["1", "1", "1"]


def test_manifest_contents(tmp_path):
    cfg = config_from_dict(make_config(
        innovation="uniform", rho=0.3, n_grid=(16,), replicates=2,
        master_seed=31))
    write_manifest(cfg, "rate-scan", str(tmp_path))
    data = json.loads((tmp_path / "run_manifest.json").read_text())
    assert data["tool"] == "bklab"
    assert data["master_seed"] == 31
    assert data["derived_seeds"] == [[16, 0, mix_seed(31, 16, 0)],
                                     [16, 1, mix_seed(31, 16, 1)]]
    assert "splitmix64" in data["seed_mixing"]
    assert data["config"]["scan"]["master_seed"] == 31


class TestSortedPit:
    def test_matches_sorted_pit(self, powerlaw_gaussian):
        logistic = config_from_dict(make_config(
            innovation="logistic", rho=0.45, **POWER_LAW))
        model = build_model(logistic)
        for model, oracle in (powerlaw_gaussian,
                              (model, build_oracle(model, logistic))):
            p = simulate_path(model, 300, seed=17)
            u = harness._sorted_pit(p, oracle, np.sort(p.x))
            assert np.array_equal(u, np.sort(pit_transform(p, oracle)))

    def test_sorts_when_cdf_rounding_breaks_order(self, powerlaw_gaussian):
        model, oracle = powerlaw_gaussian

        class Decreasing:
            model_id = oracle.model_id

            def cdf(self, x):
                return oracle.cdf(-np.asarray(x))

        p = simulate_path(model, 50, seed=2)
        u = harness._sorted_pit(p, Decreasing(), np.sort(p.x))
        assert np.array_equal(u, np.sort(pit_transform(p, Decreasing())))
