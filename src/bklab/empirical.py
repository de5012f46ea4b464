"""Empirical distribution/quantile functions and the normalized processes.

Conventions are fixed once for the whole package: the empirical CDF is
right-continuous, F_n(x) = #{X_i <= x}/n, and the empirical quantile is
the left-continuous generalized inverse Q_n(y) = X_{ceil(n y):n} for
y in (0, 1]. Under these conventions the pair is Galois:
Q_n(y) <= x iff y <= F_n(x).

The four normalized processes:

* beta(x)  = sqrt(n) (F_n(x) - F(x))          general empirical
* q(y)     = sqrt(n) (Q(y) - Q_n(y))          general quantile
* alpha(x) = sqrt(n) (E_n(x) - x)             uniform empirical (PIT scale)
* u(y)     = sqrt(n) (y - U_n(y))             uniform quantile (PIT scale)
"""

import math
from dataclasses import dataclass

import numpy as np

JUMP_OFFSET = 1e-12  # one-sided nudge used to sample both limits at jumps


@dataclass(frozen=True)
class EmpiricalSummary:
    """Order statistics of one sample."""

    n: int
    sorted: np.ndarray
    source_seed: int | None = None

    @classmethod
    def from_sample(cls, values, seed=None):
        arr = np.sort(np.asarray(values, dtype=float))
        return cls(n=arr.size, sorted=arr, source_seed=seed)


def edf(summary, x):
    """Right-continuous empirical CDF at scalar or array x."""
    counts = np.searchsorted(summary.sorted, x, side="right")
    out = counts / summary.n
    return float(out) if np.isscalar(x) or np.asarray(x).shape == () else out


def equantile(summary, y):
    """Empirical quantile X_{ceil(n y):n} for y in (0, 1]."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0) or np.any(y_arr > 1.0):
        raise ValueError("equantile argument must lie in (0, 1]")
    k = np.ceil(summary.n * y_arr).astype(np.int64)
    out = summary.sorted[k - 1]
    return float(out) if np.isscalar(y) or y_arr.shape == () else out


def beta_process(summary, oracle, x):
    """sqrt(n) (F_n(x) - F(x))."""
    return math.sqrt(summary.n) * (edf(summary, x) - oracle.cdf(x))


def alpha_process(pit_summary, x):
    """sqrt(n) (E_n(x) - x) for a PIT sample."""
    x_arr = np.asarray(x, dtype=float)
    return math.sqrt(pit_summary.n) * (edf(pit_summary, x_arr) - x_arr)


def q_process(summary, oracle, y):
    """sqrt(n) (Q(y) - Q_n(y))."""
    return math.sqrt(summary.n) * (oracle.quantile(y) - equantile(summary, y))


def u_process(pit_summary, y):
    """sqrt(n) (y - U_n(y)) for a PIT sample."""
    y_arr = np.asarray(y, dtype=float)
    return math.sqrt(pit_summary.n) * (y_arr - equantile(pit_summary, y_arr))


def jump_grid(pit_summary, a, b, refine):
    """Evaluation grid on (a, b) capturing both one-sided limits at jumps.

    The grid is the union of the step-function jump ordinates k/n, the
    PIT order statistics, each nudged by +-1e-12, and a uniform grid of
    ``refine`` interior points; duplicates and points outside the open
    interval are dropped.
    """
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got ({a}, {b})")
    n = pit_summary.n
    jumps = np.concatenate([np.arange(1, n) / n, pit_summary.sorted])
    jumps = jumps[(jumps > a) & (jumps < b)]
    pieces = [jumps - JUMP_OFFSET, jumps + JUMP_OFFSET]
    if refine > 0:
        pieces.append(np.linspace(a, b, refine + 2)[1:-1])
    grid = np.concatenate(pieces)
    grid = grid[(grid > a) & (grid < b)]
    return np.unique(grid)


def _sup_step_gap(values, n):
    """sqrt(n) max_i max(|i/n - v_i|, |(i-1)/n - v_i|) over v_1 .. v_n.

    (i-1)/n < i/n, so the larger of the two distances is
    max(i/n - v_i, v_i - (i-1)/n), and rounding keeps that exact.
    """
    steps = np.arange(n + 1) / n
    return math.sqrt(n) * float(max(np.max(steps[1:] - values),
                                    np.max(values - steps[:-1])))


def sup_abs_beta(summary, oracle, cdf=None):
    """sup over the whole line of |beta(x)|, exact for the step function.

    The supremum of |F_n - F| is attained at order statistics, comparing
    both one-sided values i/n and (i-1)/n against F(X_{i:n}). ``cdf`` is
    F at the order statistics when the caller has evaluated it already.
    """
    return _sup_step_gap(np.asarray(
        oracle.cdf(summary.sorted) if cdf is None else cdf, dtype=float),
        summary.n)


def sup_abs_u(pit_summary):
    """sup over (0, 1) of |u(y)|, exact for the step quantile function."""
    return _sup_step_gap(np.asarray(pit_summary.sorted, dtype=float),
                         pit_summary.n)
