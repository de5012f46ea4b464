import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from bklab.coefficients import (make_finite_coefficients,
                                make_power_law_coefficients,
                                truncation_horizon)
from bklab.decomp import (GAMMA_TOL, TruncatedMarginals, covariance_gamma,
                          decompose, gaussian_gamma, gaussian_limit_sample,
                          lag_tail_bound, monte_carlo_gamma,
                          truncated_summands, y_summands)
from bklab.empirical import EmpiricalSummary, beta_process
from bklab.errors import ModelError, NumericalError
from bklab.innovations import get_innovation
from bklab.model import (LinearProcessModel, build_marginal_oracle,
                         exact_marginal_oracle)
from bklab.paths import pit_transform, simulate_path

SIGMA_MA1 = math.sqrt(1.25)


def gauss_hermite_gamma_ma1(x, y, c1=0.5, nodes=80):
    """Independent quadrature oracle for the MA(1) long-run covariance.

    Lag-0 term by 1-d Gauss-Hermite over the shared predictor innovation;
    lag-1 term by a genuine 2-d tensor quadrature over both innovations
    (it vanishes because the two predictors share no innovation).
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    e = math.sqrt(2.0) * t
    w = w / math.sqrt(math.pi)
    sig = math.sqrt(1.0 + c1 * c1)
    fx, fy = ndtr(x / sig), ndtr(y / sig)
    yx = ndtr(x - c1 * e) - fx
    yy = ndtr(y - c1 * e) - fy
    lag0 = float(np.sum(w * yx * yy))
    # 2-d tensor grid for E Y_0(x) Y_1(y): predictors driven by distinct
    # innovations a (for Y_0) and b (for Y_1)
    ya = ndtr(x - c1 * e) - fx
    yb = ndtr(y - c1 * e) - fy
    lag1_xy = float(np.sum(np.outer(w * ya, w * yb)))
    ya2 = ndtr(y - c1 * e) - fy
    yb2 = ndtr(x - c1 * e) - fx
    lag1_yx = float(np.sum(np.outer(w * ya2, w * yb2)))
    return lag0 + lag1_xy + lag1_yx


class TestQuadratureOracle:
    def test_closed_form_at_zero(self):
        # Var(Phi(-c1 eps)) = arcsin(c1^2/(1+c1^2)) / (2 pi)
        expected = math.asin(0.2) / (2.0 * math.pi)
        assert gauss_hermite_gamma_ma1(0.0, 0.0) == pytest.approx(
            expected, rel=1e-10)

    def test_lag_terms_vanish(self):
        # predictors one step apart share no innovation, so the cross
        # terms contribute exactly zero
        g_lag0_only = gauss_hermite_gamma_ma1(0.7, -0.3)
        t, w = np.polynomial.hermite.hermgauss(80)
        e = math.sqrt(2.0) * t
        w = w / math.sqrt(math.pi)
        yx = ndtr(0.7 - 0.5 * e) - ndtr(0.7 / SIGMA_MA1)
        yy = ndtr(-0.3 - 0.5 * e) - ndtr(-0.3 / SIGMA_MA1)
        assert g_lag0_only == pytest.approx(float(np.sum(w * yx * yy)),
                                            abs=1e-12)


class TestDecompose:
    def test_identity_five_models(self, iid_uniform, ma1_gaussian,
                                  powerlaw_gaussian, iid_gaussian):
        logistic = LinearProcessModel(
            innovations=get_innovation("logistic"),
            coefficients=make_finite_coefficients([1.0, 0.4, 0.2]), rho=0.45)
        cases = [iid_uniform, ma1_gaussian, powerlaw_gaussian, iid_gaussian,
                 (logistic, build_marginal_oracle(logistic))]
        for model, oracle in cases:
            p = simulate_path(model, 1000, seed=77)
            xs = EmpiricalSummary.from_sample(p.x)
            qs = np.quantile(p.x, [0.1, 0.3, 0.5, 0.7, 0.9])
            for x in qs:
                d = decompose(p, oracle, x)
                beta = beta_process(xs, oracle, x)
                assert d.beta_check == pytest.approx(beta, abs=1e-12)

    def test_iid_differentiable_part_vanishes(self, iid_uniform):
        model, oracle = iid_uniform
        p = simulate_path(model, 500, seed=3)
        for x in (0.1, 0.5, 0.9):
            d = decompose(p, oracle, x)
            assert d.differentiable == pytest.approx(0.0, abs=1e-15)

    def test_martingale_and_summands_center(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        reps, n = 300, 1024
        xs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        m_vals = np.empty((reps, xs.size))
        y_means = np.empty((reps, xs.size))
        for r in range(reps):
            p = simulate_path(model, n, seed=5000 + r)
            for j, x in enumerate(xs):
                d = decompose(p, oracle, x)
                m_vals[r, j] = d.martingale
                y_means[r, j] = float(np.mean(y_summands(p, oracle, x)))
        for arr in (m_vals, y_means):
            mean = arr.mean(axis=0)
            se = arr.std(axis=0, ddof=1) / math.sqrt(reps)
            assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)

    def test_oracle_mismatch(self, ma1_gaussian, iid_uniform):
        model, _ = ma1_gaussian
        _, wrong = iid_uniform
        p = simulate_path(model, 50, seed=1)
        with pytest.raises(ValueError):
            decompose(p, wrong, 0.0)


class TestTruncatedMarginals:
    def test_logistic_series_matches_quadrature(self):
        model = LinearProcessModel(
            innovations=get_innovation("logistic"),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        oracle = build_marginal_oracle(model)
        tm = TruncatedMarginals(model, oracle)
        innov = model.innovations
        c1 = float(model.coefficients.eval(1))
        x = np.array([-2.0, 0.3, 1.5])
        # two lags: P(eps_0 + c_1 eps_1 <= x) as a 1-d integral
        ref = [quad(lambda e: float(innov.cdf(v - c1 * e) * innov.pdf(e)),
                    -40.0, 40.0, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
               for v in x]
        assert np.max(np.abs(tm.cdf(2, x) - ref)) < 1e-13
        assert isinstance(tm.cdf(2, 0.3), float)
        # long truncations approach the full marginal
        assert np.max(np.abs(tm.cdf(4096, x) - oracle.cdf(x))) < 1e-12

    def test_logistic_past_the_horizon_is_the_oracle(self):
        # a lag count far past the oracle's horizon serves the same engine
        model = LinearProcessModel(
            innovations=get_innovation("logistic"),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        oracle = build_marginal_oracle(model)
        tm = TruncatedMarginals(model, oracle)
        x = np.linspace(-8.0, 8.0, 401)
        assert np.array_equal(tm.cdf(4096, x), oracle.cdf(x))

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_gaussian_matches_closed_form(self, scale):
        model = LinearProcessModel(
            innovations=get_innovation("gaussian", scale=scale),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        coeffs = model.coefficients
        tm = TruncatedMarginals(model, exact_marginal_oracle(model))
        x = np.linspace(-8.0, 8.0, 401)
        for L in (1, 2, 3, 8, 40, 75, 512, 4096):
            var = coeffs.tail_sq(0) - coeffs.tail_sq(L)
            ref = ndtr(x / (scale * math.sqrt(var)))
            assert np.max(np.abs(tm.cdf(L, x) - ref)) <= 1e-15

    def test_lag_count_below_one_rejected(self, ma1_gaussian):
        tm = TruncatedMarginals(*ma1_gaussian)
        with pytest.raises(ValueError, match="at least 1"):
            tm.cdf(0, 0.5)

    def test_non_smooth_innovation_rejected(self):
        model = LinearProcessModel(
            innovations=get_innovation("uniform"),
            coefficients=make_finite_coefficients([1.0, 0.5, 0.25]),
            rho=0.3)
        tm = TruncatedMarginals(model, None)
        with pytest.raises(ModelError, match="smooth"):
            tm.cdf(2, 0.5)


class TestTruncatedSummands:
    def test_iid_identically_zero(self, iid_uniform):
        model, oracle = iid_uniform
        p = simulate_path(model, 200, seed=9)
        tm = TruncatedMarginals(model, oracle)
        yhat = truncated_summands(p, tm, 0.3, 0.5)
        assert np.all(yhat == 0.0)

    def test_finite_memory_reduces_to_exact(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        p = simulate_path(model, 300, seed=9)
        tm = TruncatedMarginals(model, oracle)
        x = 0.4
        yhat = truncated_summands(p, tm, 0.45, x)
        y = y_summands(p, oracle, x)
        i = np.arange(1, 301)
        full = np.ceil(i ** 0.45) >= 2  # lag 1 retained
        assert np.allclose(yhat[full], y[full], atol=1e-15)

    def test_truncation_l2_slope(self):
        # sample second moment of Y - Y_hat follows the squared-tail decay:
        # log-log slope against i within [-1.3, -0.7] over [1e2, 1e4]
        model = LinearProcessModel(
            innovations=get_innovation("gaussian"),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        oracle = exact_marginal_oracle(model)
        tm = TruncatedMarginals(model, oracle)
        n, reps, x = 10_000, 160, 0.0
        probes = np.array([100, 316, 1000, 3162, 9999])
        sq = np.zeros((reps, probes.size))
        for r in range(reps):
            p = simulate_path(model, n, seed=31_000 + r)
            diff = (y_summands(p, oracle, x)
                    - truncated_summands(p, tm, 0.45, x))
            sq[r] = diff[probes - 1] ** 2
        norms = np.sqrt(sq.mean(axis=0))
        slope = np.polyfit(np.log(probes), np.log(norms), 1)[0]
        assert -1.3 <= slope <= -0.7


class TestCovariance:
    def test_iid_gamma_zero(self, iid_uniform):
        model, oracle = iid_uniform
        est = covariance_gamma(model, oracle, 0.3, 0.7, lag_horizon=3,
                               mc_draws=1500, seed=4)
        assert est.gamma == 0.0
        assert est.stderr == 0.0

    def test_ma1_matches_quadrature(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        for x, y in ((0.0, 0.0), (-1.0, -1.0), (0.5, -0.5), (1.0, 0.5)):
            est = covariance_gamma(model, oracle, x, y, lag_horizon=4,
                                   mc_draws=20_000, seed=8)
            target = gauss_hermite_gamma_ma1(x, y)
            assert abs(est.gamma - target) <= 1e-12
            assert abs(est.gamma - target) <= 3.0 * est.bound
            assert est.stderr == 0.0 and est.lag_horizon == 0

    def test_symmetry_with_shared_seed(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        a = covariance_gamma(model, oracle, -0.4, 0.9, lag_horizon=4,
                             mc_draws=2000, seed=12)
        b = covariance_gamma(model, oracle, 0.9, -0.4, lag_horizon=4,
                             mc_draws=2000, seed=12)
        assert a.gamma == b.gamma

    def test_convergence_flag(self, ma1_gaussian, powerlaw_gaussian):
        # converged means the certified bound is within GAMMA_TOL: the
        # closed form reaches it, Monte Carlo lag terms at L = 8 of an
        # infinite kernel do not, however many draws they take
        model, oracle = ma1_gaussian
        est = covariance_gamma(model, oracle, 0.0, 0.0, lag_horizon=8,
                               mc_draws=4000, seed=3)
        assert est.converged and est.bound <= GAMMA_TOL
        model, oracle = powerlaw_gaussian
        est = covariance_gamma(model, oracle, 0.0, 0.0)
        assert est.converged and est.lag_horizon > 8
        mc = monte_carlo_gamma(model, oracle, 0.0, 0.0, lag_horizon=8,
                               mc_draws=4000, seed=3)
        assert not mc.converged
        assert mc.bound >= lag_tail_bound(model, 8) > GAMMA_TOL

    def test_closed_form_tail_within_bound(self, powerlaw_gaussian):
        # Gamma at horizon L moves by at most bound(L) out to any L' > L
        model, _ = powerlaw_gaussian
        for x, y in ((0.0, 0.0), (1.0, 1.0), (-0.5, 1.5)):
            full = gaussian_gamma(model, x, y)
            assert full.converged
            for L in (1, 8, 64, 512):
                est = gaussian_gamma(model, x, y, lag_horizon=L)
                for longer in (2 * L, 4 * L, full.lag_horizon):
                    other = gaussian_gamma(model, x, y, lag_horizon=longer)
                    assert abs(est.gamma - other.gamma) <= est.bound
                assert est.bound > full.bound

    def test_closed_form_within_monte_carlo_noise(self, ma1_gaussian,
                                                  powerlaw_gaussian):
        # at a fixed seed, the Monte Carlo lag terms of the same horizon lie
        # within 3 stderr of the closed form
        for model, oracle in (ma1_gaussian, powerlaw_gaussian):
            for x, y in ((0.0, 0.0), (-1.0, 0.5)):
                mc = monte_carlo_gamma(model, oracle, x, y, lag_horizon=8,
                                       mc_draws=20_000, seed=17)
                exact = gaussian_gamma(model, x, y, lag_horizon=8)
                assert 0.0 < abs(mc.gamma - exact.gamma) <= 3.0 * mc.stderr

    def test_powerlaw_windows_match_row_convolution(self):
        # logistic power-law: a non-Gaussian law takes the Monte Carlo lag
        # terms. K = 73 lags, so every tap offset of the window loop is
        # used; the reference convolves each row of the same draws with
        # np.convolve
        model = LinearProcessModel(
            innovations=get_innovation("logistic"),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        oracle = build_marginal_oracle(model)
        L, R, seed, x, y = 8, 1000, 21, 0.3, -0.7
        est = covariance_gamma(model, oracle, x, y, lag_horizon=L,
                               mc_draws=R, seed=seed)
        innov, coeffs = model.innovations, model.coefficients
        K = truncation_horizon(coeffs, 1e-6 * model.sigma / innov.scale)
        assert K == 73
        eps = innov.sample(np.random.default_rng(seed), (R, K + L))
        kernel = coeffs.weights(K)[1:]
        pred = np.array([np.convolve(row, kernel)[K - 1:K + L]
                         for row in eps])
        yx = innov.cdf(x - pred) - oracle.cdf(x)
        yy = innov.cdf(y - pred) - oracle.cdf(y)
        terms = np.empty((R, L + 1))
        terms[:, 0] = yx[:, 0] * yy[:, 0]
        for i in range(1, L + 1):
            terms[:, i] = yx[:, 0] * yy[:, i] + yy[:, 0] * yx[:, i]
        gamma = terms.sum(axis=1).mean()
        assert abs(est.gamma - gamma) <= 1e-13 * abs(gamma)

    def test_variance_link(self, ma1_gaussian):
        # replicate variance of sqrt(n) N(x) against Gamma(x, x)
        model, oracle = ma1_gaussian
        n, reps, x = 4096, 400, 0.0
        vals = np.empty(reps)
        for r in range(reps):
            p = simulate_path(model, n, seed=9000 + r)
            vals[r] = math.sqrt(n) * float(np.mean(y_summands(p, oracle, x)))
        var = float(np.var(vals, ddof=1))
        est = covariance_gamma(model, oracle, x, x, lag_horizon=4,
                               mc_draws=20_000, seed=5)
        se = var * math.sqrt(2.0 / (reps - 1))
        tol = 0.10 * est.gamma + 3.0 * math.hypot(se, est.stderr)
        assert abs(var - est.gamma) < tol


class TestGaussianLimit:
    def test_zero_matrix(self):
        out = gaussian_limit_sample(np.zeros((3, 3)), seed=1)
        assert np.array_equal(out, np.zeros(3))
        out = gaussian_limit_sample(np.zeros((2, 2)), seed=1, size=5)
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_scalar_variance_concentration(self):
        v = 0.04
        draws = gaussian_limit_sample(np.array([[v]]), seed=2, size=10_000)
        sample_var = float(np.var(draws, ddof=1))
        assert abs(sample_var - v) < 3.0 * v * math.sqrt(2.0 / 10_000)

    def test_recovers_ma1_covariance(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        xs = (0.0, 1.0)
        g = np.empty((2, 2))
        for i, xi in enumerate(xs):
            for j, xj in enumerate(xs):
                g[i, j] = gauss_hermite_gamma_ma1(xi, xj)
        draws = gaussian_limit_sample(g, seed=3, size=10_000)
        emp = np.cov(draws.T)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((g[i, i] * g[j, j] + g[i, j] ** 2) / 10_000)
                assert abs(emp[i, j] - g[i, j]) < 4.0 * se

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            gaussian_limit_sample(np.array([[1.0, 2.0], [2.0, 1.0]]), seed=1)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gaussian_limit_sample(np.array([[1.0, 0.2], [0.1, 1.0]]), seed=1)
