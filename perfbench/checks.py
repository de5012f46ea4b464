"""Correctness checks on the CSVs the bklab CLI writes, and their digests.

Every output row is one cell. A cell fails when its call raised (or
exited non-zero), when its row is missing, or when its row breaks one of
the rules below:

* rate scan: a statistic is non-finite (``weighted_sup`` must instead be
  NaN exactly when ``nu`` is unset), or ``|lil_beta - lil_u| > 1e-12``
  (the two statistics agree exactly under an exact PIT);
* increment check: a non-finite value or ``modulus < 0``;
* covariance check: a non-finite value or ``converged = 0``.

Anything else that is wrong with the files (a wrong header, a row for a
cell that was not asked for, a seed that does not follow the documented
splitmix64 chain, a missing manifest or a non-finite fit) is a problem:
the outputs are then not correct at all.
"""

import csv
import hashlib
import math
import os

LIL_TOL = 1e-12
_MASK64 = (1 << 64) - 1

RATE_HEADER = ["n", "replicate", "seed", "sup_abs", "weighted_sup",
               "pointwise_mid", "lil_beta", "lil_u"]
INCREMENT_HEADER = ["n", "replicate", "seed", "d_n", "modulus", "normalized"]
COVARIANCE_HEADER = ["x", "n", "replicates", "var_emp", "var_se", "gamma",
                     "gamma_se", "qq_max_dev", "converged"]
FIT_HEADER = ["statistic", "slope", "intercept", "ratio_stability"]


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def cell_seed(master, n, replicate):
    """seed = splitmix64(splitmix64(master ^ n) ^ replicate), as documented."""
    z = _splitmix64((master & _MASK64) ^ n)
    return _splitmix64(z ^ replicate)


class Outcome:
    """Cells attempted and failed by one or more calls, plus problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.digests.update(other.digests)


def _read(path, header, problems):
    if not os.path.isfile(path):
        problems.append(f"{os.path.basename(path)} missing")
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        problems.append(f"{os.path.basename(path)} has header "
                        f"{rows[0] if rows else None}")
        return []
    return rows[1:]


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _floats(row, start):
    try:
        return [float(v) for v in row[start:]]
    except ValueError:
        return None


def _cell_rows(rows, call, problems, row_ok):
    """Count failed cells of an (n, replicate) keyed CSV."""
    master = call.config["scan"]["master_seed"]
    expected = {(n, r) for n in call.n_grid for r in range(call.replicates)}
    seen = set()
    failed = 0
    for row in rows:
        try:
            key = (int(row[0]), int(row[1]))
            seed = int(row[2])
        except (ValueError, IndexError):
            problems.append(f"malformed row {row}")
            continue
        if key not in expected or key in seen:
            problems.append(f"unexpected row for cell {key}")
            continue
        seen.add(key)
        if seed != cell_seed(master, *key):
            problems.append(f"cell {key} has seed {seed}, not the derived one")
        vals = _floats(row, 3)
        if vals is None or not row_ok(vals):
            failed += 1
    return failed + len(expected - seen)


def _rate_ok(nu):
    def ok(vals):
        sup_abs, weighted, mid, lil_beta, lil_u = vals
        if not _finite([sup_abs, mid, lil_beta, lil_u]):
            return False
        if math.isnan(weighted) != (nu is None):
            return False
        if nu is not None and not math.isfinite(weighted):
            return False
        return abs(lil_beta - lil_u) <= LIL_TOL
    return ok


def _increment_ok(vals):
    return _finite(vals) and vals[1] >= 0.0


def _check_fit(path, call, problems):
    rows = _read(path, FIT_HEADER, problems)
    want = []
    if len(call.n_grid) >= 3:
        want = ["sup_abs"] + (["weighted_sup"] if call.nu is not None
                              else []) + ["pointwise_mid"]
    if [r[0] for r in rows] != want:
        problems.append(f"fit.csv lists {[r[0] for r in rows]}, want {want}")
    for r in rows:
        vals = _floats(r, 1)
        if vals is None or not _finite(vals):
            problems.append(f"fit.csv row {r[0]} is not finite")


def _check_covariance(path, call, problems):
    rows = _read(path, COVARIANCE_HEADER, problems)
    want = [float(x) for x in call.config["covariance"]["x_grid"]]
    failed = max(len(want) - len(rows), 0)
    for i, row in enumerate(rows):
        vals = _floats(row, 0)
        if i >= len(want) or vals is None or vals[0] != want[i]:
            problems.append(f"unexpected covariance row {row}")
            continue
        if not _finite(vals) or row[8] != "1":
            failed += 1
    return failed


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_call(call, out_dir, exit_code):
    """Check the outputs one CLI call left in ``out_dir``."""
    out = Outcome()
    out.attempted = call.cells()
    if exit_code != 0:
        out.failed = out.attempted
        out.problems.append(f"{call.command} exited with {exit_code}")
        return out
    problems = out.problems
    if call.command == "rate-scan":
        rows = _read(os.path.join(out_dir, "rate_scan.csv"), RATE_HEADER,
                     problems)
        out.failed = _cell_rows(rows, call, problems, _rate_ok(call.nu))
        _check_fit(os.path.join(out_dir, "fit.csv"), call, problems)
    elif call.command == "increment-check":
        rows = _read(os.path.join(out_dir, "increments.csv"),
                     INCREMENT_HEADER, problems)
        out.failed = _cell_rows(rows, call, problems, _increment_ok)
    elif call.command == "covariance-check":
        out.failed = _check_covariance(
            os.path.join(out_dir, "covariance.csv"), call, problems)
    else:
        raise ValueError(f"no check for {call.command!r}")
    if not os.path.isfile(os.path.join(out_dir, "run_manifest.json")):
        problems.append(f"{call.command} wrote no run_manifest.json")
    out.failed = min(out.failed, out.attempted)
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        if name.endswith(".csv"):
            out.digests[f"{call.command}/{name}"] = sha256_file(
                os.path.join(out_dir, name))
    return out
