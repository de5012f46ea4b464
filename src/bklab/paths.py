"""Sample-path generation for the linear process.

A path carries the realized values X_1..X_n, the one-step predictors
X_{i,i-1} = sum_{k>=1} c_k eps_{i-k}, and the driving innovations, so the
martingale decomposition and per-index truncation downstream are exact
rather than re-estimated. The infinite past is cut at a fixed horizon K
chosen from ``trunc_tol`` (keeping the simulated process stationary);
for Gaussian innovations an independent top-up with the discarded tail
variance is added to each predictor so the marginal law is exact.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ModelError

_DIRECT_LIMIT = 100_000_000  # K*n above this switches to FFT convolution


@dataclass(frozen=True)
class SamplePath:
    """Realized path with predictors and retained innovations.

    ``eps`` holds eps_{1-K} .. eps_n (length n + K), so eps_i is
    ``eps[K + i - 1]``. The identity x(i) = eps_i + pred(i) is exact in
    floating point by construction. ``eps_tail_var`` is the discarded
    tail variance per index (scalar for the primary path, 0 when the
    Gaussian compensator makes the marginal exact; an array for
    per-index truncated companions).
    """

    n: int
    x: np.ndarray
    pred: np.ndarray
    eps: np.ndarray
    lag_horizon: int
    eps_tail_var: object
    seed: int
    model: object
    model_id: str
    compensated: bool
    truncated_rho: float | None = None

    def lag0(self):
        """The retained lag-0 innovations eps_1 .. eps_n."""
        return self.eps[self.lag_horizon:]


def _convolve(eps, kernel, method):
    if method == "fft":
        # scipy.signal loads scipy.stats, optimize, sparse and more; only
        # this branch needs it, so it is imported here
        from scipy.signal import fftconvolve
        return fftconvolve(eps, kernel)
    return np.convolve(eps, kernel)


def simulate_path(model, n, seed, trunc_tol=None, method=None):
    """Simulate X_1..X_n with predictors.

    Parameters
    ----------
    model : LinearProcessModel
    n : int
        Path length, at least 1.
    seed : int
        Stream seed; identical (model, n, seed) reproduce bit-identical
        paths.
    trunc_tol : float, optional
        Horizon tolerance: K is the smallest lag with remaining tail
        standard deviation at most trunc_tol (default 1e-6 * sigma).
    method : {"direct", "fft"}, optional
        Convolution backend override; the default picks direct for
        K * n <= 1e8 and FFT beyond. Both agree to ~1e-9 relative. The
        FFT backend imports ``scipy.signal`` on its first use, so runs
        that stay on the direct backend never load it.
    """
    n = int(n)
    if n < 1:
        raise ValueError("path length must be at least 1")
    innov = model.innovations
    coeffs = model.coefficients
    K = model.horizon(trunc_tol)
    rng = np.random.default_rng(seed)
    eps = innov.sample(rng, n + K)

    if K == 0:
        pred = np.zeros(n)
    else:
        kernel = coeffs.weights(K)[1:]
        use = method or ("direct" if K * n <= _DIRECT_LIMIT else "fft")
        pred = _convolve(eps, kernel, use)[K - 1:K - 1 + n]

    tail_var = coeffs.tail_sq(K + 1) * innov.scale ** 2
    compensated = innov.name == "gaussian" and tail_var > 0.0
    if compensated:
        pred = pred + math.sqrt(tail_var) * rng.standard_normal(n)

    x = eps[K:] + pred
    return SamplePath(
        n=n, x=x, pred=pred, eps=eps, lag_horizon=K,
        eps_tail_var=(0.0 if compensated else tail_var),
        seed=int(seed), model=model, model_id=model.model_id,
        compensated=compensated)


def pit_transform(path, oracle, cdf=None):
    """U_i = F(X_i), clipped to the open interval (0, 1); ``cdf`` is F at
    ``path.x`` when the caller has evaluated it already."""
    if oracle.model_id != path.model_id:
        raise ValueError(
            f"oracle for {oracle.model_id!r} does not match path model "
            f"{path.model_id!r}")
    u = np.asarray(oracle.cdf(path.x) if cdf is None else cdf, dtype=float)
    tiny = 1e-15
    return np.clip(u, tiny, 1.0 - tiny)


def truncation_lags(n, rho, cap):
    """Per-index retained lag counts: number of lags k with k < i^rho."""
    i = np.arange(1, n + 1, dtype=float)
    return np.minimum(np.ceil(i ** rho), cap).astype(np.int64)


def truncate_path(path, rho):
    """Per-index truncated companion using only lags k < i^rho.

    Index i keeps ceil(i^rho) lags (at least lag 0), capped at the
    retained horizon. Returns a path whose x and pred are the truncated
    process and predictors computed from the same innovations.
    """
    if not (0.0 < rho < 0.5):
        raise ModelError(f"rho must lie strictly in (0, 1/2), got {rho}")
    if path.eps is None or path.eps.size != path.n + path.lag_horizon:
        raise ValueError("path does not retain its innovations")

    n, K = path.n, path.lag_horizon
    coeffs = path.model.coefficients
    lags = truncation_lags(n, rho, K + 1)
    max_lags = int(lags[-1])
    w = coeffs.weights(max(max_lags - 1, 0))

    eps = path.eps
    pred_hat = np.zeros(n)
    # lags is nondecreasing, so indices needing lag k form a suffix
    for k in range(1, max_lags):
        first = int(np.searchsorted(lags, k + 1))
        if first >= n:
            break
        # eps_{i-k} = eps[K + i - 1 - k] for path index i = first+1 .. n
        pred_hat[first:] += w[k] * eps[K + first - k:K + n - k]

    x_hat = eps[K:] + pred_hat
    tail = np.array([coeffs.tail_sq(int(m)) for m in lags]) * path.model.innovations.scale ** 2
    return replace(path, x=x_hat, pred=pred_hat, eps_tail_var=tail,
                   compensated=False, truncated_rho=rho)


def write_path_dump(path, fh):
    """Textual dump: header lines then one row per index: i, x_i, pred_i."""
    fh.write(f"# model_id={path.model_id}\n")
    fh.write(f"# seed={path.seed} n={path.n} lag_horizon={path.lag_horizon}\n")
    fh.write("i,x,pred\n")
    for i in range(path.n):
        fh.write(f"{i + 1},{float(path.x[i])!r},{float(path.pred[i])!r}\n")


def read_path_dump(fh):
    """Parse a dump written by :func:`write_path_dump`.

    Returns (header dict, x array, pred array).
    """
    header = {}
    x, pred = [], []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    header[k] = v
            continue
        if line.startswith("i,"):
            continue
        _, xv, pv = line.split(",")
        x.append(float(xv))
        pred.append(float(pv))
    return header, np.array(x), np.array(pred)
