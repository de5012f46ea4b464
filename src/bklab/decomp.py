"""Martingale/differentiable split of the empirical CDF and its limit
covariance.

At a point x the centered empirical CDF splits exactly into

    F_n(x) - F(x) = M(x) + N(x),
    M(x) = (1/n) sum_i [1{X_i <= x} - F_eps(x - P_i)],
    N(x) = (1/n) sum_i [F_eps(x - P_i) - F(x)],

with P_i the one-step predictor: M collects conditionally centered
indicators (a martingale average), N the smooth conditional-CDF part.
The summand Y_i(x) = F_eps(x - P_i) - F(x) has mean zero; its long-run
covariance

    Gamma(x, y) = E Y_0(x) Y_0(y) + sum_{i>=1} [E Y_0(x) Y_i(y)
                                                + E Y_0(y) Y_i(x)]

is the variance function of the Gaussian limit of sqrt(n) N(x). For
Gaussian innovations each lag term is a bivariate normal probability in
closed form (Owen's T-function), summed to the horizon a certified tail
bound picks; other laws average Monte Carlo predictor windows up to a
given horizon. Every estimate carries a certified error bound.

Per-index truncation (lags below i^rho) yields the finite-memory
companions Y-hat, each exactly centered by the CDF of its truncated
process: the marginal of the finite-kernel model that keeps those lags,
served by the model module's oracle for that model.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import owens_t

from .coefficients import (make_finite_coefficients, tail_horizon,
                           truncation_horizon)
from .errors import NumericalError
from .model import build_marginal_oracle, exact_marginal_oracle
from .paths import truncate_path, truncation_lags

# ---------------------------------------------------------------------------
# exact decomposition


@dataclass(frozen=True)
class DecompositionAt:
    x: float
    martingale: float       # M(x)
    differentiable: float   # N(x)
    beta_check: float       # sqrt(n) (M + N)


def decompose(path, oracle, x):
    """Evaluate the exact split at a point x.

    ``beta_check`` equals the empirical process beta(x) up to float
    rounding (1e-12 scale): the split is algebra, not asymptotics.
    """
    if oracle.model_id != path.model_id:
        raise ValueError("oracle does not match the path's model")
    if path.pred is None or path.pred.size != path.n:
        raise ValueError("path does not retain its predictors")
    x = float(x)
    f_eps = path.model.innovations.cdf
    cond = np.asarray(f_eps(x - path.pred), dtype=float)
    ind = (path.x <= x).astype(float)
    m = float(np.mean(ind - cond))
    nn = float(np.mean(cond) - float(oracle.cdf(x)))
    return DecompositionAt(x=x, martingale=m, differentiable=nn,
                           beta_check=math.sqrt(path.n) * (m + nn))


def y_summands(path, oracle, x):
    """Y_i(x) = F_eps(x - P_i) - F(x) for the full path."""
    f_eps = path.model.innovations.cdf
    return np.asarray(f_eps(float(x) - path.pred), dtype=float) - float(oracle.cdf(x))


# ---------------------------------------------------------------------------
# truncated summands


class TruncatedMarginals:
    """CDFs of the lag-truncated process, one per retained-lag count.

    X-hat with lags 0 .. L-1 is the marginal of the finite-kernel model
    with coefficients c_0 .. c_{L-1}, so its CDF is served by that model's
    oracle, chosen as ``harness.build_oracle`` chooses under ``auto``: the
    exact N(0, sigma_L^2) for Gaussian innovations, otherwise the innovation
    law itself at L = 1 and the Fourier engine, with its certified
    ``cdf_error_bound``, for L >= 2 (a smooth innovation law is needed).
    A lag count that retains every nonzero coefficient serves the
    full-marginal oracle, so the truncated summands reduce to the exact
    ones.

    Each oracle is built on the first request for its L and kept. A
    Fourier engine of a logistic power-law kernel takes 8-16 ms to build
    on a 2-vCPU Xeon and holds 0.85 MB (8192 table cells), so a path
    whose lag counts span many non-Gaussian L pays that once per L. No
    command of this package builds one; its tests build at most two.
    """

    def __init__(self, model, oracle):
        self.model = model
        self.oracle = oracle
        self._oracles = {}

    def cdf(self, lag_count, x):
        """P(X-hat <= x) where X-hat keeps lags 0 .. lag_count-1."""
        L = int(lag_count)
        if L < 1:
            raise ValueError("lag count must be at least 1")
        coeffs = self.model.coefficients
        if coeffs.tail_sq(L) == 0.0:
            return self.oracle.cdf(x)
        if L not in self._oracles:
            model = replace(self.model, coefficients=make_finite_coefficients(
                coeffs.weights(L - 1)))
            self._oracles[L] = (exact_marginal_oracle(model)
                                if model.innovations.name == "gaussian"
                                else build_marginal_oracle(model))
        return self._oracles[L].cdf(x)


def truncated_summands(path, trunc_marginals, rho, x):
    """Y-hat_i(x) = F_eps(x - P-hat_i) - F-hat_i(x) for the whole path.

    P-hat_i is the predictor restricted to lags 1 .. ceil(i^rho) - 1 and
    F-hat_i the CDF of the correspondingly truncated process, so each
    summand is exactly centered.
    """
    truncated = truncate_path(path, rho)
    x = float(x)
    lags = truncation_lags(path.n, rho, path.lag_horizon + 1)
    out = np.asarray(path.model.innovations.cdf(x - truncated.pred),
                     dtype=float)
    for L in np.unique(lags):
        out[lags == L] -= trunc_marginals.cdf(int(L), x)
    return out


# ---------------------------------------------------------------------------
# limit covariance


#: Tolerance on the certified error bound of a Gamma(x, y) estimate: an
#: estimate whose bound is at most this is reported as converged. The
#: Gaussian closed form picks its horizon so that the lags left out take at
#: most half of it, and its coefficient sums so that their remainders take
#: at most a quarter.
GAMMA_TOL = 1e-8
_MAX_LAGS = 1 << 16
# absolute error of one evaluated lag term Phi2 - Phi Phi, in units of the
# double rounding unit; against 40-digit quadrature of Plackett's integral
# the evaluation stays within 1.25 units on a grid of (x, y, rho)
_TERM_ULPS = 16
_UNIT = 2.0 ** -53


@dataclass(frozen=True)
class CovarianceEstimate:
    """Gamma(x, y) summed over lags 0 .. lag_horizon.

    ``bound`` certifies |gamma - Gamma(x, y)| for the closed form; for
    Monte Carlo lag terms it certifies the distance of their expectation
    from Gamma(x, y), and ``stderr`` reports their noise (0 for the closed
    form).
    """

    x: float
    y: float
    gamma: float
    lag_horizon: int
    bound: float
    stderr: float

    @property
    def converged(self):
        return self.bound <= GAMMA_TOL


def _summand_sd_bound(model):
    """Bound on sd(Y_0(x)) for every x: the innovation CDF is
    pdf_max-Lipschitz, so Var F_eps(x - P) <= pdf_max^2 Var P, and a
    value in [0, 1] has sd at most 1/2."""
    innov = model.innovations
    return min(0.5, innov.pdf_max * math.sqrt(
        innov.variance * model.coefficients.tail_sq(1)))


def lag_tail_bound(model, lag_horizon):
    """Certified bound on the lags beyond L = ``lag_horizon``:
    sum_{i>L} |E Y_0(x) Y_i(y)| + |E Y_0(y) Y_i(x)|, for every x and y.

    Y_i(y) sees the innovations before time 0 only through
    B_i = sum_{j>i} c_j eps_{i-j}. With B_i replaced by an independent
    copy B_i', the summand is independent of Y_0(x) and centered, and it
    moves by at most pdf_max |B_i - B_i'|. By Cauchy-Schwarz each term is
    then at most sd(Y_0) pdf_max sqrt(2 var_eps tail_sq(i + 1)).
    """
    innov = model.innovations
    return (2.0 * _summand_sd_bound(model) * innov.pdf_max
            * math.sqrt(2.0 * innov.variance)
            * model.coefficients.root_tail_sum(int(lag_horizon) + 2))


def _bvn_excess(h, k, rho):
    """Phi2(h, k; rho) - Phi(h) Phi(k) for an array of correlations.

    Owen's (1956) T-function form of Phi2, minus the same form at rho = 0,
    so that the half-probabilities cancel exactly and no value near 1/4 is
    subtracted; at rho = 0 the result is exactly 0.
    """
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    if h == 0.0:
        return owens_t(k, rho / root)
    if k == 0.0:
        return owens_t(h, rho / root)
    return ((owens_t(h, k / h) - owens_t(h, (k - rho * h) / (h * root)))
            + (owens_t(k, h / k) - owens_t(k, (h - rho * k) / (k * root))))


def _gaussian_horizon(model):
    """The default horizon of ``gaussian_gamma``."""
    L = tail_horizon(lambda j: lag_tail_bound(model, j - 1), 0.5 * GAMMA_TOL,
                     model.coefficients.memory, _MAX_LAGS)
    return _MAX_LAGS if L is None else L


def gaussian_gamma(model, x, y, lag_horizon=None):
    """Gamma(x, y) for Gaussian innovations, each lag term in closed form.

    F_eps(x - P_0) = P(eps' + P_0 <= x | P_0) for an independent copy
    eps' of the innovation, so E Y_0(x) Y_i(y) is a bivariate normal
    probability: with sigma^2 = sigma_eps^2 sum_k c_k^2,
    E Y_0(x) Y_i(y) = Phi2(x/sigma, y/sigma; rho_i) - Phi(x/sigma) Phi(y/sigma)
    with rho_i = sum_{k>=1} c_k c_{k+i} / sum_{k>=0} c_k^2. The lags run to
    ``lag_horizon``, by default the smallest L whose ``lag_tail_bound`` is
    at most GAMMA_TOL / 2 (capped at 2^16 lags). Each rho_i sums its
    first M products; by Cauchy-Schwarz the rest is at most tail_sq(M + 1).
    The bound adds the lags left out, those remainders and the rounding of
    the rho sums at the largest slope of Phi2 in rho,
    1 / (2 pi sqrt(1 - rho^2)), and the rounding of every term and of the
    sum.
    """
    coeffs = model.coefficients
    L = _gaussian_horizon(model) if lag_horizon is None else int(lag_horizon)
    if L < 0:
        raise ValueError("lag_horizon must be at least 0")
    var0 = coeffs.tail_sq(0)
    slope0 = 1.0 / (2.0 * math.pi * math.sqrt(
        1.0 - (coeffs.tail_sq(1) / var0) ** 2))
    M = truncation_horizon(coeffs, math.sqrt(
        0.25 * GAMMA_TOL * var0 / ((2 * L + 1) * slope0)))
    w = coeffs.weights(M + L)[1:]
    rho = (np.correlate(w, w[:M], "valid") if M else np.zeros(L + 1)) / var0
    rho_err = ((coeffs.tail_sq(M + 1) + (M + 2) * _UNIT * coeffs.tail_sq(1))
               / var0)
    rho_hi = float(np.max(np.abs(rho))) + rho_err
    slope = (1.0 / (2.0 * math.pi * math.sqrt(1.0 - rho_hi * rho_hi))
             if rho_hi < 1.0 else math.inf)

    terms = _bvn_excess(float(x) / model.sigma, float(y) / model.sigma, rho)
    terms[1:] *= 2.0
    gamma = float(np.sum(terms))
    rounding = ((2 * L + 1) * _TERM_ULPS
                + (L + 2) * float(np.sum(np.abs(terms)))) * _UNIT
    bound = (lag_tail_bound(model, L) + (2 * L + 1) * slope * rho_err
             + rounding)
    return CovarianceEstimate(x=float(x), y=float(y), gamma=gamma,
                              lag_horizon=L, bound=bound, stderr=0.0)


def monte_carlo_gamma(model, oracle, x, y, lag_horizon=8, mc_draws=4000,
                      seed=11, trunc_tol=None):
    """Monte Carlo estimate of Gamma(x, y) over lags 0 .. lag_horizon.

    Draws ``mc_draws`` independent predictor windows P_0 .. P_L, forms
    the summands at x and y, and averages the per-draw series
    Y_0(x)Y_0(y) + sum_{i=1..L} [Y_0(x)Y_i(y) + Y_0(y)Y_i(x)]; ``stderr``
    is the across-draw standard error.

    Each window is the direct convolution of one row of K + L
    innovations with the K lag coefficients, summed tap by tap in lag
    order: no FFT round-off enters, and the summation order is fixed.

    The bound adds ``lag_tail_bound`` and what the predictor truncation
    at K and the oracle's CDF error can move: each summand by at most
    delta = pdf_max sqrt(var_eps tail_sq(K + 1)) + cdf_error_bound in L2,
    so each of the 2L + 1 products by at most delta (2 sd(Y_0) + delta).
    """
    L = int(lag_horizon)
    R = int(mc_draws)
    if L < 1:
        raise ValueError("lag_horizon must be at least 1")
    if R < 1000:
        raise ValueError("mc_draws must be at least 1000")
    innov = model.innovations
    coeffs = model.coefficients
    K = model.horizon(trunc_tol)

    # predictor at positions 0..L of each row: the tap for lag j + 1 reads
    # the innovations j + 1 places back
    pred = np.zeros((R, L + 1))
    if K > 0:
        eps = innov.sample(np.random.default_rng(seed), (R, K + L))
        for j, c in enumerate(coeffs.weights(K)[1:]):
            pred += c * eps[:, K - 1 - j:K + L - j]

    def summands(pt):
        return (np.asarray(innov.cdf(float(pt) - pred), dtype=float)
                - float(oracle.cdf(pt)))

    yx = summands(x)
    yy = yx if y == x else summands(y)

    terms = np.empty((R, L + 1))
    terms[:, 0] = yx[:, 0] * yy[:, 0]
    for i in range(1, L + 1):
        terms[:, i] = yx[:, 0] * yy[:, i] + yy[:, 0] * yx[:, i]
    per_draw = terms.sum(axis=1)
    delta = (innov.pdf_max * math.sqrt(innov.variance * coeffs.tail_sq(K + 1))
             + oracle.cdf_error_bound)
    bound = (lag_tail_bound(model, L)
             + (2 * L + 1) * delta * (2.0 * _summand_sd_bound(model) + delta))
    return CovarianceEstimate(
        x=float(x), y=float(y), gamma=float(per_draw.mean()), lag_horizon=L,
        bound=bound, stderr=float(per_draw.std(ddof=1) / math.sqrt(R)))


def covariance_gamma(model, oracle, x, y, lag_horizon=8, mc_draws=4000,
                     seed=11, trunc_tol=None):
    """Gamma(x, y) with a certified error bound.

    Gaussian innovations take ``gaussian_gamma`` at its certified horizon,
    and the remaining arguments have no effect. Every other law takes
    ``monte_carlo_gamma`` with them.
    """
    if model.innovations.name == "gaussian":
        return gaussian_gamma(model, x, y)
    return monte_carlo_gamma(model, oracle, x, y, lag_horizon=lag_horizon,
                             mc_draws=mc_draws, seed=seed,
                             trunc_tol=trunc_tol)


# ---------------------------------------------------------------------------
# Gaussian limit sampling


def gaussian_limit_sample(gamma_matrix, seed, size=None, jitter_scale=1e-10):
    """Draw from the centered Gaussian with covariance Gamma on a grid.

    A Gamma matrix is positive semidefinite but can be singular (two
    grid points far in the same tail), and the error of its entries,
    rounding in the closed form or the noise of Monte Carlo lag terms,
    can push its smallest eigenvalue below zero; a diagonal jitter of
    jitter_scale * trace/d absorbs that. A matrix that fails to
    factorize beyond that signals an inconsistent estimate.
    """
    g = np.asarray(gamma_matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("gamma_matrix must be square")
    if not np.allclose(g, g.T, atol=1e-12, rtol=0.0):
        raise ValueError("gamma_matrix must be symmetric")
    d = g.shape[0]
    rng = np.random.default_rng(seed)
    shape = (d,) if size is None else (int(size), d)
    trace = float(np.trace(g))
    if trace == 0.0 and np.all(g == 0.0):
        return np.zeros(shape)
    jitter = jitter_scale * trace / d
    try:
        chol = np.linalg.cholesky(g + jitter * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "covariance grid is not positive semidefinite beyond the "
            "jitter tolerance; the Gamma estimate is inconsistent") from exc
    z = rng.standard_normal(shape)
    return z @ chol.T
