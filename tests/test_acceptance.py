"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE] ...` pass/fail line (run with -s to see
them during the run; captured output is shown for failures regardless).
The two replicated scans are shared module-scoped fixtures.

Criterion tolerances are frozen here from the statements in the project
contract; none are tuned at runtime.
"""

import json
import math
import os

import numpy as np
import pytest

from bklab.bk import (csr_nu_min, rate_b, rate_kiefer_pointwise,
                      residual_pointwise)
from bklab.coefficients import make_finite_coefficients
from bklab.decomp import TruncatedMarginals, covariance_gamma, decompose, \
    truncated_summands
from bklab.empirical import (EmpiricalSummary, alpha_process, beta_process,
                             u_process)
from bklab.harness import (build_model, build_oracle, config_from_dict,
                           run_covariance_check, run_increment_check,
                           run_rate_scan)
from bklab.innovations import get_innovation
from bklab.model import (LinearProcessModel, build_marginal_oracle,
                         validate_innovation)
from bklab.paths import pit_transform, simulate_path
from bklab.cli import main as cli_main

from conftest import make_config
from test_decomp import gauss_hermite_gamma_ma1

MASTER_SEED = 20250808
N_GRID = tuple(2 ** k for k in range(12, 19))
REPLICATES = 200
THREADS = min(os.cpu_count() or 1, 4)


def report(num, name, ok, detail):
    print(f"[ACCEPTANCE] {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return ok


def uniform_config(**kw):
    return config_from_dict(make_config(
        innovation="uniform", rho=0.3, n_grid=N_GRID, replicates=REPLICATES,
        master_seed=MASTER_SEED, interval=(0.05, 0.95), **kw))


def powerlaw_config(**kw):
    return config_from_dict(make_config(
        coefficients={"kind": "power_law", "tau": 3.0}, rho=0.45,
        gamma1=1.0, gamma2=1.0, nu=2.5, n_grid=N_GRID,
        replicates=REPLICATES, master_seed=MASTER_SEED,
        interval=(0.05, 0.95), **kw))


@pytest.fixture(scope="module")
def uniform_scan():
    return run_rate_scan(uniform_config(), threads=THREADS)


@pytest.fixture(scope="module")
def powerlaw_scan():
    return run_rate_scan(powerlaw_config(), threads=THREADS)


# ---------------------------------------------------------------------------
# 1. decomposition identity


def test_01_decomposition_identity():
    logistic_ma2 = LinearProcessModel(
        innovations=get_innovation("logistic"),
        coefficients=make_finite_coefficients([1.0, 0.4, 0.2]), rho=0.45)
    models = {
        "iid-uniform": config_from_dict(make_config(innovation="uniform",
                                                    rho=0.3)),
        "iid-gaussian": config_from_dict(make_config(rho=0.3)),
        "ma1-gaussian": config_from_dict(make_config(
            coefficients={"kind": "finite", "values": [1.0, 0.5]})),
        "powerlaw-gaussian": config_from_dict(make_config(
            coefficients={"kind": "power_law", "tau": 3.0}, rho=0.45)),
    }
    cases = []
    for name, cfg in models.items():
        model = build_model(cfg)
        cases.append((name, model, build_oracle(model, cfg)))
    cases.append(("ma2-logistic", logistic_ma2,
                  build_marginal_oracle(logistic_ma2)))

    worst = 0.0
    n = 1000
    for name, model, oracle in cases:
        p = simulate_path(model, n, seed=MASTER_SEED + 1)
        xs = EmpiricalSummary.from_sample(p.x)
        for x in np.quantile(p.x, [0.1, 0.3, 0.5, 0.7, 0.9]):
            d = decompose(p, oracle, x)
            beta = beta_process(xs, oracle, x)
            err = abs(d.beta_check - beta) / max(1.0, abs(beta))
            worst = max(worst, err)
    ok = worst <= 1e-12
    assert report(1, "decomposition identity", ok,
                  f"worst relative error {worst:.3g} over 5 models x 5 points")


# ---------------------------------------------------------------------------
# 2. i.i.d. degeneration


def test_02_iid_degeneration():
    cfg = config_from_dict(make_config(innovation="uniform", rho=0.3))
    model = build_model(cfg)
    oracle = build_oracle(model, cfg)
    p = simulate_path(model, 1000, seed=MASTER_SEED + 2)
    u = pit_transform(p, oracle)
    xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))

    n_dev = max(abs(decompose(p, oracle, x).differentiable)
                for x in (0.1, 0.5, 0.9))
    est = covariance_gamma(model, oracle, 0.2, 0.8, lag_horizon=4,
                           mc_draws=2000, seed=3)
    tm = TruncatedMarginals(model, oracle)
    yhat_dev = float(np.max(np.abs(truncated_summands(p, tm, 0.3, 0.5))))
    res_dev = max(
        abs(residual_pointwise(xs, us, oracle, y)
            - float(u_process(us, y) - alpha_process(us, y)))
        for y in (0.11, 0.5, 0.9))
    ok = (n_dev <= 1e-12 and est.gamma == 0.0 and yhat_dev <= 1e-12
          and res_dev <= 1e-12)
    assert report(2, "i.i.d. degeneration", ok,
                  f"N dev {n_dev:.2g}, Gamma {est.gamma:.2g}, "
                  f"Yhat dev {yhat_dev:.2g}, residual dev {res_dev:.2g}")


# ---------------------------------------------------------------------------
# 3. uniform-interval rate scaling


def _slope_and_stability(scan):
    fit = scan.fits["sup_abs"]
    return fit.slope, fit.ratio_stability


def test_03_rate_scaling(uniform_scan, powerlaw_scan):
    su, ru = _slope_and_stability(uniform_scan)
    sp, rp = _slope_and_stability(powerlaw_scan)
    ok_u = -0.30 <= su <= -0.20 and ru <= 2.0
    ok_p = -0.30 <= sp <= -0.20 and rp <= 2.0
    ok = ok_u and ok_p
    assert report(3, "sup residual rate scaling", ok,
                  f"uniform slope {su:+.4f} stability {ru:.3f}; "
                  f"powerlaw slope {sp:+.4f} stability {rp:.3f}; "
                  f"window [-0.30, -0.20], stability <= 2")


# ---------------------------------------------------------------------------
# 4. pointwise scaling


def test_04_pointwise_scaling(uniform_scan, powerlaw_scan):
    detail = []
    ok = True
    for name, scan in (("uniform", uniform_scan), ("powerlaw", powerlaw_scan)):
        ratios = [scan.per_n[n]["pointwise_mid"]["median"]
                  / rate_kiefer_pointwise(n) for n in N_GRID]
        spread = max(ratios) / min(ratios)
        ok = ok and spread <= 2.0
        detail.append(f"{name} spread {spread:.3f}")
    assert report(4, "pointwise residual scaling", ok,
                  "; ".join(detail) + "; factor <= 2")


# ---------------------------------------------------------------------------
# 5. weighted residual


def test_05_weighted_residual(powerlaw_scan):
    fit = powerlaw_scan.fits["weighted_sup"]
    ok = -0.35 <= fit.slope <= -0.15 and fit.ratio_stability <= 2.0
    assert report(5, "weighted residual scaling", ok,
                  f"slope {fit.slope:+.4f} in [-0.35, -0.15], "
                  f"stability {fit.ratio_stability:.3f} <= 2")


# ---------------------------------------------------------------------------
# 6. covariance link


def test_06_covariance_link():
    cfg = config_from_dict(make_config(
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        gamma1=1.0, gamma2=1.0, n_grid=(16,), replicates=1,
        master_seed=MASTER_SEED,
        extra={"covariance": {"n": 2 ** 14, "replicates": 1000,
                              "x_grid": [-1.0, 0.0, 1.0],
                              "lag_horizon": 8, "mc_draws": 40_000}}))
    rows = run_covariance_check(cfg)
    ok = True
    details = []
    for row in rows:
        tol = 0.10 * row.gamma + 3.0 * math.hypot(row.var_se, row.gamma_se)
        ok_var = abs(row.var_emp - row.gamma) <= tol
        target = gauss_hermite_gamma_ma1(row.x, row.x)
        ok_quad = abs(row.gamma - target) <= 3.0 * row.gamma_se
        ok = ok and ok_var and ok_quad
        details.append(f"x={row.x:+.0f}: var {row.var_emp:.5f} vs "
                       f"gamma {row.gamma:.5f} (quad {target:.5f})")
    assert report(6, "covariance link", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. iterated-logarithm boundedness


def test_07_lil_boundedness(uniform_scan, powerlaw_scan):
    ok = True
    details = []
    for name, scan in (("uniform", uniform_scan), ("powerlaw", powerlaw_scan)):
        meds = [scan.per_n[n]["lil_beta"]["median"] for n in N_GRID]
        spread = max(meds) / min(meds)
        ok = ok and max(meds) <= 1.0 and spread <= 1.5
        details.append(f"{name} max median {max(meds):.3f} spread {spread:.3f}")
        # the beta- and PIT-side statistics agree exactly under an exact PIT
        dev = max(abs(r.lil_beta - r.lil_u) for r in scan.rows)
        ok = ok and dev <= 1e-12
        details.append(f"beta/u dev {dev:.1e}")
    assert report(7, "iterated-logarithm boundedness", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. increment modulus


@pytest.fixture(scope="module")
def increment_rows():
    rows_u = run_increment_check(uniform_config(), threads=THREADS)
    rows_p = run_increment_check(powerlaw_config(), threads=THREADS)
    return rows_u, rows_p


def test_08_increment_modulus(increment_rows):
    rows_u, rows_p = increment_rows
    ok = True
    details = []
    for name, rows in (("uniform", rows_u), ("powerlaw", rows_p)):
        meds = [float(np.median([r.normalized for r in rows if r.n == n]))
                for n in N_GRID]
        spread = max(meds) / min(meds)
        ok = ok and spread <= 2.0
        details.append(f"{name} spread {spread:.3f}")
    assert report(8, "increment modulus stability", ok,
                  "; ".join(details) + "; factor <= 2")


# ---------------------------------------------------------------------------
# 9. determinism


def test_09_determinism(tmp_path):
    cfg_dict = make_config(innovation="uniform", rho=0.3,
                           n_grid=(16, 32, 64), replicates=3,
                           master_seed=MASTER_SEED)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    outs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / tag
        code = cli_main(["rate-scan", "--config", str(cfg_path),
                         "--out", str(out), "--threads", threads])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (o / name).read_bytes()
        for o in outs[1:] for name in ("rate_scan.csv", "fit.csv",
                                       "run_manifest.json"))
    assert report(9, "determinism and order-independence", same,
                  "3 runs (threads 1/2/1) byte-identical")


# ---------------------------------------------------------------------------
# 10. condition gates


def test_10_condition_gates(tmp_path, capsys):
    def write(cfg, name):
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return str(p)

    checks = []
    # power-law decay at the boundary is rejected
    code = cli_main(["check-model", "--config", write(make_config(
        coefficients={"kind": "power_law", "tau": 2.5}, rho=0.45,
        n_grid=(16,), replicates=1), "tau.json")])
    checks.append(("tau=2.5 rejected", code == 2))
    # rho outside (0, 1/2)
    code = cli_main(["check-model", "--config", write(make_config(
        rho=0.6, n_grid=(16,), replicates=1), "rho.json")])
    checks.append(("rho=0.6 rejected", code == 2))
    code = cli_main(["check-model", "--config", write(make_config(
        rho=0.0, n_grid=(16,), replicates=1), "rho0.json")])
    checks.append(("rho=0 rejected", code == 2))
    # weight exponent at the threshold
    code = cli_main(["check-model", "--config", write(make_config(
        gamma1=1.0, gamma2=1.0, nu=csr_nu_min(1.0),
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        n_grid=(16,), replicates=1), "nu.json")])
    checks.append(("nu=2 at gamma=1 rejected", code == 2))
    # laplace flagged as violating the density-smoothness condition
    rep = validate_innovation(get_innovation("laplace"))
    checks.append(("laplace flagged", rep.violation))
    code = cli_main(["check-model", "--config", write(make_config(
        innovation="laplace",
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        n_grid=(16,), replicates=1), "laplace.json")])
    checks.append(("dependent laplace rejected", code == 2))
    capsys.readouterr()

    ok = all(flag for _, flag in checks)
    assert report(10, "condition gates", ok,
                  "; ".join(f"{name}: {'ok' if f else 'MISSED'}"
                            for name, f in checks))
