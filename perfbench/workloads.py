"""Workload definitions: the bklab CLI calls each workload makes.

A workload is a list of CLI calls, each a subcommand plus a config dict.
The benchmark seed becomes every config's ``master_seed``, so the same
seed gives byte-identical inputs and outputs. Two sizes exist: ``full``
is what the benchmark measures, ``smoke`` is the tiny variant the smoke
test runs.
"""

from dataclasses import dataclass

GRID = [2 ** 12, 2 ** 15, 2 ** 18]

UNIFORM_IID = {
    "innovation": {"name": "uniform"},
    "coefficients": {"kind": "finite", "values": [1.0]},
    "rho": 0.3,
}
GAUSSIAN_POWERLAW = {
    "innovation": {"name": "gaussian"},
    "coefficients": {"kind": "power_law", "tau": 3.0},
    "rho": 0.45, "gamma1": 1.0, "gamma2": 1.0,
}
LOGISTIC_POWERLAW = {
    "innovation": {"name": "logistic"},
    "coefficients": {"kind": "power_law", "tau": 3.0},
    "rho": 0.45,
}
GAUSSIAN_MA1 = {
    "innovation": {"name": "gaussian"},
    "coefficients": {"kind": "finite", "values": [1.0, 0.5]},
    "rho": 0.45, "gamma1": 1.0, "gamma2": 1.0,
}

# per size: (n-grid, replicates) of each scan, and the covariance block
SIZES = {
    "full": {
        "scan-uniform": (GRID, 8),
        "scan-powerlaw": (GRID, 4),
        "increment": (GRID, 4),
        "covariance": {"n": 2 ** 14, "replicates": 1000,
                       "x_grid": [-1.0, 0.0, 1.0], "lag_horizon": 8,
                       "mc_draws": 40_000},
        "scan-logistic": ([16, 24], 1),
    },
    "smoke": {
        "scan-uniform": ([16, 64, 256], 1),
        "scan-powerlaw": ([16, 64, 256], 1),
        # the increment window gate needs n * d_n / log(n) >= 10, so n >= 2048
        "increment": ([2048], 1),
        "covariance": {"n": 256, "replicates": 20,
                       "x_grid": [-1.0, 0.0, 1.0], "lag_horizon": 8,
                       "mc_draws": 1000},
        "scan-logistic": ([16], 1),
    },
}

# scan-uniform is not in BENCHMARK.json, which keeps three workloads so
# that each run can be 25 s long; it stays runnable for the traced
# per-cell cross-check against the uniform 2^18 cell time.
NAMES = ("scan-uniform", "scan-powerlaw", "diagnostics", "scan-logistic")


@dataclass(frozen=True)
class Call:
    """One CLI call: subcommand, config, and the cells it should produce."""

    command: str
    config: dict

    @property
    def n_grid(self):
        return self.config["scan"]["n_grid"]

    @property
    def replicates(self):
        return self.config["scan"]["replicates"]

    @property
    def nu(self):
        return self.config["scan"].get("nu")

    def cells(self):
        """Cells the call attempts, as the rows its main CSV must hold."""
        if self.command == "covariance-check":
            return len(self.config["covariance"]["x_grid"])
        return len(self.n_grid) * self.replicates

    def samples(self):
        """Simulated sample points over all cells (sum of path lengths)."""
        if self.command == "covariance-check":
            cov = self.config["covariance"]
            return cov["n"] * cov["replicates"]
        return sum(self.n_grid) * self.replicates


def _config(model, n_grid, replicates, seed, nu=None, covariance=None):
    d = {
        "version": 1,
        "model": model,
        "scan": {"n_grid": list(n_grid), "replicates": replicates,
                 "master_seed": seed, "interval": [0.05, 0.95], "nu": nu},
    }
    if covariance is not None:
        d["covariance"] = dict(covariance)
    return d


def workload_calls(name, seed, size="full"):
    """The CLI calls of workload ``name`` at benchmark seed ``seed``."""
    s = SIZES[size]
    if name == "scan-uniform":
        grid, reps = s[name]
        return [Call("rate-scan", _config(UNIFORM_IID, grid, reps, seed))]
    if name == "scan-powerlaw":
        grid, reps = s[name]
        return [Call("rate-scan",
                     _config(GAUSSIAN_POWERLAW, grid, reps, seed, nu=2.5))]
    if name == "diagnostics":
        grid, reps = s["increment"]
        return [
            Call("increment-check",
                 _config(GAUSSIAN_POWERLAW, grid, reps, seed)),
            # the scan block is unused by covariance-check but required
            Call("covariance-check",
                 _config(GAUSSIAN_MA1, [16], 1, seed,
                         covariance=s["covariance"])),
        ]
    if name == "scan-logistic":
        grid, reps = s[name]
        return [Call("rate-scan", _config(LOGISTIC_POWERLAW, grid, reps, seed))]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
