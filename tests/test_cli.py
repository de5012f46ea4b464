import json
import os
import subprocess
import sys

import pytest

from bklab import cli
from bklab.cli import main

from conftest import make_config


SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def write_config(tmp_path, d, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.signal, which loads stats, interpolate and optimize, is imported
    # only by the FFT convolution branch; nothing else imports scipy.optimize,
    # and nothing imports scipy.ndimage
    code = ("import sys, bklab.cli; print(' '.join(sorted(m for m in "
            "sys.modules if m.startswith('scipy.'))))")
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=SRC))
    loaded = set(run.stdout.split())
    for name in ("scipy.signal", "scipy.optimize", "scipy.stats",
                 "scipy.interpolate", "scipy.ndimage"):
        assert name not in loaded


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("innovation, oracle, message", [
    ("gaussian", {"mode": "mixture"}, "unknown oracle mode 'mixture'"),
    ("logistic", {"mode": "exact"}, "no closed-form marginal"),
], ids=["mixture-mode", "exact-logistic"])
def test_oracle_build_error_exits(tmp_path, threads, innovation, oracle,
                                  message):
    # a worker that cannot build the oracle fails the scan with the
    # config error, at any thread count, instead of respawning forever
    cfg = write_config(tmp_path, make_config(
        innovation=innovation, n_grid=(16,), replicates=2, oracle=oracle))
    run = subprocess.run(
        [sys.executable, "-m", "bklab.cli", "rate-scan", "--config", cfg,
         "--out", str(tmp_path / "out"), "--threads", threads],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 2
    assert f"error: {message}" in run.stderr


def test_threads_zero_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._threads(0) == 1


def test_unknown_subcommand(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x"]) == 1
    assert "unknown subcommand" in capsys.readouterr().err


def test_no_arguments():
    assert main([]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert main(["check-model", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


def test_unwritable_output_is_not_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        innovation="uniform", rho=0.3, n_grid=(16,), replicates=1))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert main(["lil-scan", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write outputs" in err
    assert "cannot read config" not in err


def test_check_model_accepts_good_model(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        coefficients={"kind": "power_law", "tau": 3.0}, rho=0.45,
        gamma1=1.0, gamma2=1.0, n_grid=(16,), replicates=1))
    assert main(["check-model", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "model accepted" in out
    assert "admissible" in out


def test_check_model_prints_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        innovation="logistic", coefficients={"kind": "power_law", "tau": 3.0},
        rho=0.45, n_grid=(16,), replicates=1))
    assert main(["check-model", "--config", cfg]) == 0
    line = [text for text in capsys.readouterr().out.splitlines()
            if text.startswith("oracle:")]
    assert len(line) == 1 and line[0].startswith("oracle: fourier, CDF error")
    assert float(line[0].rsplit(" ", 1)[1]) <= 1e-12


def test_check_model_rejects_small_tau(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        coefficients={"kind": "power_law", "tau": 2.0}, rho=0.45,
        n_grid=(16,), replicates=1))
    assert main(["check-model", "--config", cfg]) == 2
    assert "5/2" in capsys.readouterr().err


def test_check_model_rejects_tau_boundary(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        coefficients={"kind": "power_law", "tau": 2.5}, rho=0.45,
        n_grid=(16,), replicates=1))
    assert main(["check-model", "--config", cfg]) == 2


def test_check_model_rejects_bad_rho(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(rho=0.7, n_grid=(16,),
                                             replicates=1))
    assert main(["check-model", "--config", cfg]) == 2
    assert "rho" in capsys.readouterr().err


def test_check_model_rejects_inadmissible_nu(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        gamma1=1.0, gamma2=1.0, nu=2.0,
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        n_grid=(16,), replicates=1))
    assert main(["check-model", "--config", cfg]) == 2
    assert "nu" in capsys.readouterr().err


def test_check_model_flags_laplace(tmp_path, capsys):
    # dependent + laplace: the smoothness gate rejects with exit 2
    cfg = write_config(tmp_path, make_config(
        innovation="laplace",
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        n_grid=(16,), replicates=1))
    assert main(["check-model", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "smoothness" in err

    # i.i.d. laplace: accepted (classical case) but the flag is printed
    cfg2 = write_config(tmp_path, make_config(
        innovation="laplace", rho=0.3, n_grid=(16,), replicates=1),
        name="iid.json")
    assert main(["check-model", "--config", cfg2]) == 0
    assert "violated" in capsys.readouterr().out


def test_simulate_writes_dump(tmp_path):
    cfg = write_config(tmp_path, make_config(
        innovation="uniform", rho=0.3, n_grid=(16,), replicates=1,
        extra={"simulate": {"n": 3, "seed": 9},
               "outputs": str(tmp_path / "out")}))
    assert main(["simulate", "--config", cfg]) == 0
    dump = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert dump[2] == "i,x,pred"
    assert len(dump) == 6  # 2 header lines + column row + 3 data rows
    assert (tmp_path / "out" / "run_manifest.json").exists()


def test_rate_scan_byte_identical(tmp_path):
    base = make_config(innovation="uniform", rho=0.3, n_grid=(16, 32),
                       replicates=3, master_seed=77)
    cfg = write_config(tmp_path, base)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["rate-scan", "--config", cfg, "--out", out1]) == 0
    assert main(["rate-scan", "--config", cfg, "--out", out2,
                 "--threads", "2"]) == 0
    for name in ("rate_scan.csv", "fit.csv"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2


def test_rate_scan_verbose_reports_certificates(tmp_path, capsys):
    cfg = write_config(tmp_path, make_config(
        innovation="uniform", rho=0.3, n_grid=(16, 32), replicates=2,
        master_seed=5))
    assert main(["rate-scan", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"n={n}: min certificate margin=2 refined pieces=0"
                   for n in (16, 32)]
    header = (tmp_path / "out" / "rate_scan.csv").read_text().splitlines()[0]
    assert header == ("n,replicate,seed,sup_abs,weighted_sup,pointwise_mid,"
                      "lil_beta,lil_u")


def test_lil_scan_outputs(tmp_path):
    cfg = write_config(tmp_path, make_config(
        innovation="uniform", rho=0.3, n_grid=(16, 32), replicates=2,
        master_seed=5))
    out = str(tmp_path / "lil")
    assert main(["lil-scan", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "lil" / "lil_scan.csv").read_text().splitlines()
    assert lines[0] == "n,replicate,seed,lil_beta,lil_u"
    assert len(lines) == 5
    assert (tmp_path / "lil" / "lil_summary.csv").exists()


def test_increment_check_cli(tmp_path):
    cfg = write_config(tmp_path, make_config(
        innovation="uniform", rho=0.3, n_grid=(4096,), replicates=1,
        master_seed=5))
    out = str(tmp_path / "inc")
    assert main(["increment-check", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "inc" / "increments.csv").read_text().splitlines()
    assert lines[0] == "n,replicate,seed,d_n,modulus,normalized"
    assert len(lines) == 2


def test_covariance_check_cli(tmp_path):
    cfg = write_config(tmp_path, make_config(
        coefficients={"kind": "finite", "values": [1.0, 0.5]},
        gamma1=1.0, gamma2=1.0, n_grid=(16,), replicates=1, master_seed=5,
        extra={"covariance": {"n": 128, "replicates": 50, "x_grid": [0.0],
                              "lag_horizon": 2, "mc_draws": 1000}}))
    out = str(tmp_path / "cov")
    assert main(["covariance-check", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "cov" / "covariance.csv").read_text().splitlines()
    assert lines[0].startswith("x,n,replicates,var_emp")
    assert len(lines) == 2


def test_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["check-model", "--config", str(p)]) == 2
