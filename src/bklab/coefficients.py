"""Moving-average coefficient sequences and their tail diagnostics.

The process is X_i = sum_{k>=0} c_k eps_{i-k} with c_0 = 1 and summable
|c_k|. Three families are supported:

* ``power_law(tau)``: c_k = (1+k)^(-tau) * log(e+k)^(-3/2) for k >= 1.
  The shifted argument avoids a log singularity at k = 1 while keeping
  the k^(-tau) log^(-3/2) asymptotics. Admissible only for tau > 5/2,
  which makes the squared-tail decay fast enough for some truncation
  exponent rho in (0, 1/2).
* ``geometric(r)``: c_k = r^k, |r| < 1, with closed-form tails.
* ``finite(values)``: an MA(q) kernel, values[0] must equal 1.

``tail_sq(i)`` returns sum_{k>=i} c_k^2 and ``root_tail_sum(i)`` the
sum of sqrt(tail_sq(j)) over j >= i; for the power-law family the suffix
beyond a cached horizon is covered by an integral upper bound, so both
values are slight over-estimates, monotone in i.
"""

import math

import numpy as np

from .errors import ModelError

_LOG_SHIFT = math.e  # log(e + k) keeps the slowly varying factor positive


class CoefficientSequence:
    """One-sided MA coefficient sequence with tail-mass queries."""

    def __init__(self, kind, params, weights_fn, tail_sq_fn, root_tail_fn,
                 memory):
        self.kind = kind
        self.params = params
        self._weights_fn = weights_fn
        self._tail_sq_fn = tail_sq_fn
        self._sqrt_tail_sum_fn = root_tail_fn
        #: largest index with a nonzero coefficient, or None if infinite
        self.memory = memory

    def eval(self, k):
        """c_k for scalar or array lag k >= 0."""
        k = np.asarray(k)
        upto = int(k.max()) if k.size else 0
        w = self.weights(upto)
        return w[k] if k.shape else float(w[int(k)])

    def weights(self, upto):
        """Array of c_0 .. c_upto."""
        if upto < 0:
            raise ValueError("upto must be >= 0")
        return self._weights_fn(upto)

    def tail_sq(self, i):
        """sum_{k>=i} c_k^2 for integer i >= 0."""
        if i < 0:
            raise ValueError("tail index must be >= 0")
        return self._tail_sq_fn(int(i))

    def root_tail_sum(self, i):
        """sum_{j>=i} sqrt(tail_sq(j)) for integer i >= 0."""
        if i < 0:
            raise ValueError("tail index must be >= 0")
        return self._sqrt_tail_sum_fn(int(i))

    @property
    def sum_sq(self):
        """sum of all c_k^2 (marginal variance factor)."""
        return self.tail_sq(0)

    def label(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def _power_law_weights(tau):
    def weights(upto):
        k = np.arange(upto + 1, dtype=float)
        w = (1.0 + k) ** (-tau) * np.log(_LOG_SHIFT + k) ** (-1.5)
        w[0] = 1.0
        return w

    return weights


def make_power_law_coefficients(tau):
    """Power-law kernel c_k = (1+k)^(-tau) log(e+k)^(-3/2), c_0 = 1.

    Parameters
    ----------
    tau : float
        Decay exponent, must be strictly greater than 5/2: the squared
        tail then decays like i^(1-2*tau) log(i)^(-3), fast enough for an
        admissible truncation exponent rho in [2/(2*tau-1), 1/2).

    Raises
    ------
    ModelError
        If tau <= 5/2 (no rho in (0, 1/2) can satisfy the tail bound).
    """
    tau = float(tau)
    if not tau > 2.5:
        raise ModelError(
            f"power-law decay tau={tau} is not admissible: the squared-tail "
            "bound requires tau > 5/2")

    weights_fn = _power_law_weights(tau)
    suffixes = {}  # horizon -> suffix sums of c_k^2 over k < horizon, plus rem
    root_suffixes = {}  # horizon -> suffix sums of their square roots

    def horizon(i):
        # the horizon depends on i alone, so a value never depends on
        # which indices were queried before
        return max(4096, 1 << int(math.ceil(math.log2(max(4 * (i + 1), 2)))))

    def tail_sq(i):
        n = horizon(i)
        if n not in suffixes:
            w = weights_fn(n - 1)
            csq = w * w
            # integral upper bound on sum_{k>=n} c_k^2; keeps tail_sq an
            # over-estimate, monotone in i also across horizons
            rem = ((float(n)) ** (1.0 - 2.0 * tau) / (2.0 * tau - 1.0)
                   * math.log(_LOG_SHIFT + n) ** (-3.0))
            suffixes[n] = np.cumsum(csq[::-1])[::-1] + rem
        return float(suffixes[n][i])

    def root_tail_sum(i):
        n = horizon(i)
        if n not in root_suffixes:
            tail_sq(i)
            # the same bound at every j >= n, j^(1-2 tau) log(e+j)^-3 /
            # (2 tau - 1), has square roots summing to at most this integral
            rem = ((float(n) - 1.0) ** (1.5 - tau) / (tau - 1.5)
                   * math.log(_LOG_SHIFT + n) ** (-1.5)
                   / math.sqrt(2.0 * tau - 1.0))
            root_suffixes[n] = (np.cumsum(np.sqrt(suffixes[n])[::-1])[::-1]
                                + rem)
        return float(root_suffixes[n][i])

    return CoefficientSequence(
        kind="power_law", params={"tau": tau},
        weights_fn=weights_fn, tail_sq_fn=tail_sq,
        root_tail_fn=root_tail_sum, memory=None)


def make_geometric_coefficients(r):
    """Geometric kernel c_k = r^k with |r| < 1 (c_0 = 1 automatically)."""
    r = float(r)
    if not abs(r) < 1.0:
        raise ModelError(f"geometric ratio must satisfy |r| < 1, got {r}")

    def weights(upto):
        return r ** np.arange(upto + 1, dtype=float)

    def tail_sq(i):
        if r == 0.0:
            return 1.0 if i == 0 else 0.0
        return (r * r) ** i / (1.0 - r * r)

    def root_tail_sum(i):
        # sqrt(tail_sq(j)) = |r|^j / sqrt(1 - r^2), a geometric series
        return abs(r) ** i / ((1.0 - abs(r)) * math.sqrt(1.0 - r * r))

    return CoefficientSequence(
        kind="geometric", params={"r": r},
        weights_fn=weights, tail_sq_fn=tail_sq, root_tail_fn=root_tail_sum,
        memory=(0 if r == 0.0 else None))


def make_finite_coefficients(values):
    """Finite-memory kernel; values[0] must be exactly 1."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ModelError("finite coefficient list must be a nonempty 1-d sequence")
    if vals[0] != 1.0:
        raise ModelError(f"leading coefficient must be 1, got {vals[0]}")
    suffix = np.concatenate([np.cumsum((vals * vals)[::-1])[::-1], [0.0]])
    root_suffix = np.cumsum(np.sqrt(suffix)[::-1])[::-1]
    memory = int(np.max(np.nonzero(vals)[0]))

    def weights(upto):
        w = np.zeros(upto + 1)
        m = min(upto + 1, vals.size)
        w[:m] = vals[:m]
        return w

    def tail_sq(i):
        return float(suffix[min(i, vals.size)])

    def root_tail_sum(i):
        return float(root_suffix[min(i, vals.size)])

    return CoefficientSequence(
        kind="finite", params={"values": tuple(float(v) for v in vals)},
        weights_fn=weights, tail_sq_fn=tail_sq, root_tail_fn=root_tail_sum,
        memory=memory)


def make_coefficients(kind, **params):
    """Factory by kind name: power_law(tau=), geometric(r=), finite(values=)."""
    if kind == "power_law":
        return make_power_law_coefficients(params["tau"])
    if kind == "geometric":
        return make_geometric_coefficients(params["r"])
    if kind == "finite":
        return make_finite_coefficients(params["values"])
    raise ModelError(f"unknown coefficient kind {kind!r}")


def tail_horizon(tail, target, memory=None, max_lag=1 << 22):
    """Smallest K >= 0 with tail(K+1) <= target.

    ``tail`` is non-increasing and vanishes beyond ``memory`` (None for
    an infinite kernel). Returns None if the doubling search passes
    ``max_lag`` before the tail reaches the target.
    """
    if memory is not None:
        k = memory
        while k > 0 and tail(k) <= target:
            k -= 1
        return k
    hi = 1
    while tail(hi + 1) > target:
        hi *= 2
        if hi > max_lag:
            return None
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid + 1) <= target:
            hi = mid
        else:
            lo = mid + 1
    return hi


def truncation_horizon(coeffs, trunc_tol, max_lag=1 << 22):
    """Smallest K >= 0 with tail_sq(K+1) <= trunc_tol**2.

    Raises ModelError if no horizon below ``max_lag`` reaches the target
    (tail mass decays too slowly for the requested tolerance).
    """
    if trunc_tol <= 0:
        raise ValueError("trunc_tol must be positive")
    K = tail_horizon(coeffs.tail_sq, trunc_tol * trunc_tol, coeffs.memory,
                     max_lag)
    if K is None:
        raise ModelError(
            f"coefficient tail never reaches trunc_tol={trunc_tol:g} "
            f"within {max_lag} lags")
    return K
