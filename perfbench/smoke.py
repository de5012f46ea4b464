"""Smoke test of the benchmark itself, at tiny sizes.

Usage (from the repository root): python3 perfbench/smoke.py

For every workload it runs ``run.py --size smoke`` in both modes and
checks that the last line is the result object, that every metric
BENCHMARK.json names is printed with its unit, that nothing failed, and
that a traced and an untraced run of one seed wrote identical CSVs. It
then corrupts one row of each kind of CSV and checks that the failure
accounting counts it. Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_call  # noqa: E402
from workloads import NAMES, workload_calls  # noqa: E402

SEED = 3


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "smoke"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=False)
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(workload, trace, spec):
    lines, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, (workload, trace, lines)
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(line.startswith(f"{m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines), m
    assert any(line.startswith("failed_frac 0.0 ") for line in lines)
    with open(os.path.join(HERE, ".work", f"result-{workload}-seed{SEED}"
                           f"-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def corrupt(path, column, value):
    """Overwrite ``column`` of the first data row of a CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = value
    lines[1] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_corruption(workload, call_index, csv_name, column, value):
    """A corrupted row must count as a failed cell, nothing else."""
    call = workload_calls(workload, SEED, "smoke")[call_index]
    src = os.path.join(HERE, ".work", f"{workload}-seed{SEED}-trace0", "out",
                       f"{call_index}-{call.command}")
    dst = os.path.join(HERE, ".work", "corrupted")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    clean = check_call(call, dst, 0)
    assert clean.failed == 0 and not clean.problems, clean.problems
    corrupt(os.path.join(dst, csv_name), column, value)
    bad = check_call(call, dst, 0)
    assert bad.failed / bad.attempted > 0.0, (workload, csv_name, column)
    assert not bad.problems, bad.problems
    raised = check_call(call, dst, 1)
    assert raised.failed == raised.attempted
    shutil.rmtree(dst)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(NAMES)
    for workload in NAMES:
        untraced = check_metrics(workload, 0, spec)
        traced = check_metrics(workload, 1, spec)
        assert untraced == traced, f"{workload}: digests differ by mode"
        print(f"ok {workload}")
    check_corruption("scan-uniform", 0, "rate_scan.csv", "lil_u", "0.5")
    check_corruption("scan-uniform", 0, "rate_scan.csv", "sup_abs", "inf")
    check_corruption("scan-uniform", 0, "rate_scan.csv", "weighted_sup",
                     "0.1")
    check_corruption("scan-powerlaw", 0, "rate_scan.csv", "weighted_sup",
                     "nan")
    check_corruption("diagnostics", 0, "increments.csv", "modulus", "-0.1")
    check_corruption("diagnostics", 1, "covariance.csv", "converged", "0")
    print("ok corrupted rows count as failed cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
