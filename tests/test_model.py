import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from bklab.coefficients import (make_finite_coefficients,
                                make_power_law_coefficients)
from bklab.errors import ModelError
from bklab.innovations import get_innovation
from bklab.bk import _score_bound
from bklab.model import (FourierMarginal, LinearProcessModel,
                         build_marginal_oracle, exact_marginal_oracle)
from bklab.paths import simulate_path

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_model(values=(1.0, 0.5), **kw):
    return LinearProcessModel(
        innovations=get_innovation("gaussian"),
        coefficients=make_finite_coefficients(list(values)),
        rho=kw.pop("rho", 0.45), **kw)


class TestModelValidation:
    def test_rho_strictly_inside(self):
        for rho in (0.0, 0.5, 0.6, -0.2):
            with pytest.raises(ModelError):
                gaussian_model(rho=rho)

    def test_power_law_couples_rho(self):
        coeffs = make_power_law_coefficients(3.0)
        with pytest.raises(ModelError, match="rho"):
            LinearProcessModel(innovations=get_innovation("gaussian"),
                               coefficients=coeffs, rho=0.2)
        LinearProcessModel(innovations=get_innovation("gaussian"),
                           coefficients=coeffs, rho=0.4)  # boundary accepted

    def test_sigma(self):
        assert gaussian_model().sigma == pytest.approx(math.sqrt(1.25))

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_one_horizon_for_paths_and_engine(self, scale):
        model = LinearProcessModel(
            innovations=get_innovation("logistic", scale=scale),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        K = model.horizon()
        assert K == simulate_path(model, 16, seed=1).lag_horizon
        assert K == build_marginal_oracle(model).law.weights.size - 1
        assert model.horizon(1e-3) == simulate_path(
            model, 16, seed=1, trunc_tol=1e-3).lag_horizon < K
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError, match="trunc_tol must be positive"):
                model.horizon(tol)


class TestExactOracle:
    def test_requires_gaussian(self):
        model = LinearProcessModel(
            innovations=get_innovation("logistic"),
            coefficients=make_finite_coefficients([1.0]), rho=0.3)
        with pytest.raises(ModelError):
            exact_marginal_oracle(model)

    def test_gaussian_ma1_values(self, ma1_gaussian):
        # exact oracle: F(0) = 1/2, f(0) = phi(0)/sqrt(1.25), Q(.975)
        _, oracle = ma1_gaussian
        assert oracle.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert oracle.pdf(0.0) == pytest.approx(PHI0 / math.sqrt(1.25), rel=1e-12)
        assert oracle.quantile(0.975) == pytest.approx(
            2.191306351441454, rel=1e-9)

    def test_quantile_domain(self, ma1_gaussian):
        _, oracle = ma1_gaussian
        for y in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                oracle.quantile(y)

    def test_median_is_zero(self, ma1_gaussian):
        _, oracle = ma1_gaussian
        assert oracle.quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_identity_median(self, iid_uniform):
        _, oracle = iid_uniform
        assert oracle.quantile(0.5) == pytest.approx(0.5, abs=1e-12)


def powerlaw_model(innovation):
    return LinearProcessModel(
        innovations=get_innovation(innovation),
        coefficients=make_power_law_coefficients(3.0), rho=0.45,
        gamma1=1.0, gamma2=1.0)


@pytest.fixture(scope="module")
def logistic_engine():
    model = powerlaw_model("logistic")
    return model, build_marginal_oracle(model)


class TestFourierEngine:
    def test_gaussian_matches_closed_form(self):
        model = powerlaw_model("gaussian")
        oracle = build_marginal_oracle(model)
        assert oracle.kind == "fourier"
        assert isinstance(oracle.law, FourierMarginal)
        sigma = model.sigma
        x = np.linspace(-8.0 * sigma, 8.0 * sigma, 20_001)
        assert np.max(np.abs(oracle.cdf(x) - ndtr(x / sigma))) < 1e-12
        pdf = np.exp(-0.5 * (x / sigma) ** 2) / (math.sqrt(2.0 * math.pi)
                                                 * sigma)
        assert np.max(np.abs(oracle.pdf(x) - pdf)) < 1e-12
        # away from the tails, where an absolute CDF error of 1e-15
        # moves Q by at most 1e-15 / f(Q) < 1e-12
        y = np.linspace(1e-3, 1.0 - 1e-3, 20_001)
        assert np.max(np.abs(oracle.quantile(y) - sigma * ndtri(y))) < 1e-12
        assert oracle.cdf_error_bound <= 1e-12

    def test_series_converged(self, logistic_engine, monkeypatch):
        # twice the period at the same frequency cut-off: h halves and the
        # series doubles in length
        from bklab import model as model_module
        model, oracle = logistic_engine
        half_period = model_module.half_period
        monkeypatch.setattr(model_module, "half_period",
                            lambda *args: (2.0 * half_period(*args)[0],
                                           half_period(*args)[1]))
        finer = build_marginal_oracle(model)
        assert finer.law.half == 2.0 * oracle.law.half
        assert finer.law.n_terms >= 2 * oracle.law.n_terms - 1
        x = np.linspace(-30.0, 30.0, 6001)
        assert np.max(np.abs(finer.cdf(x) - oracle.cdf(x))) <= 1e-13
        assert np.max(np.abs(finer.pdf(x) - oracle.pdf(x))) <= 1e-13

    def test_monotone_and_inverse(self, logistic_engine):
        _, oracle = logistic_engine
        half = oracle.law.half
        x = np.linspace(-half, half, 2_000_001)
        assert np.all(np.diff(oracle.cdf(x)) >= 0.0)
        assert np.all(oracle.pdf(x) >= 0.0)
        y = np.concatenate([np.geomspace(1e-15, 0.5, 100_000),
                            1.0 - np.geomspace(0.5, 1e-15, 100_000)])
        q = oracle.quantile(y)
        assert np.all(np.diff(q) >= 0.0)
        assert np.max(np.abs(oracle.cdf(q) - y)) <= 1e-15

    def test_agrees_with_mixture(self, logistic_engine):
        # within five standard errors of the Monte Carlo mean
        # F(x) = mean_j F_eps(x - s_j) over predictor draws s_j, at each x
        model, oracle = logistic_engine
        innov = model.innovations
        w = model.coefficients.weights(73)[1:]  # the engine's 73 lags
        s = innov.sample(np.random.default_rng(0), (100_000, w.size)) @ w
        x = np.linspace(-6.0, 6.0, 41)
        terms = innov.cdf(x[:, None] - s[None, :])
        stderr = terms.std(axis=1) / math.sqrt(terms.shape[1])
        diff = np.abs(oracle.cdf(x) - terms.mean(axis=1))
        assert np.all(diff <= 5.0 * stderr + 1e-12)
        assert diff.max() > 1e-7  # the mixture is not the engine

    def test_scalar_and_outside_arguments(self, logistic_engine):
        _, oracle = logistic_engine
        half = oracle.law.half
        assert isinstance(oracle.cdf(0.3), float)
        assert isinstance(oracle.quantile(0.3), float)
        assert oracle.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # beyond the table the direct series serves F and f, unclipped
        far = np.array([-3.0 * half, -1.5 * half, 1.5 * half, 3.0 * half])
        assert np.all(np.abs(oracle.cdf(far) - [0, 0, 1, 1]) < 1e-14)
        assert np.all(np.abs(oracle.pdf(far)) < 1e-14)
        inner = np.array([-half, half])
        assert np.allclose(oracle.cdf(inner), [0.0, 1.0], atol=1e-14)

    def test_non_smooth_innovation_rejected(self):
        model = LinearProcessModel(
            innovations=get_innovation("laplace"),
            coefficients=make_finite_coefficients([1.0, 0.5]), rho=0.3)
        with pytest.raises(ModelError, match="smooth"):
            build_marginal_oracle(model)

    def test_memoryless_is_single_point(self):
        model = LinearProcessModel(
            innovations=get_innovation("logistic"),
            coefficients=make_finite_coefficients([1.0]), rho=0.3)
        oracle = build_marginal_oracle(model)
        assert oracle.kind == "single-point"
        assert oracle.cdf_error_bound == 0.0


EXACT_KERNELS = {
    "iid": lambda: make_finite_coefficients([1.0]),
    "ma1": lambda: make_finite_coefficients([1.0, 0.5]),
    "powerlaw": lambda: make_power_law_coefficients(3.0),
}


def gaussian_closed_form(sigma):
    """cdf, pdf and quantile of N(0, sigma^2), written out."""
    def pdf(x):
        z = np.asarray(x, dtype=float) / sigma
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma)

    return (lambda x: ndtr(np.asarray(x, dtype=float) / sigma), pdf,
            lambda y: sigma * ndtri(np.asarray(y, dtype=float)))


@pytest.mark.parametrize("name", ["gaussian", "logistic", "uniform",
                                  "laplace", "exponential", "exact-iid",
                                  "exact-ma1", "exact-powerlaw"])
def test_single_point_serves_innovation(name):
    # the memoryless oracle serves the innovation's own cdf, pdf and
    # quantile bit for bit; the exact oracle of Gaussian innovations (scale
    # 1.7) serves N(0, sigma^2) bit for bit, and its score bound is that
    # law's (0, 1/sigma^2)
    if name.startswith("exact-"):
        model = LinearProcessModel(
            innovations=get_innovation("gaussian", scale=1.7),
            coefficients=EXACT_KERNELS[name[len("exact-"):]](), rho=0.45)
        oracle = exact_marginal_oracle(model)
        assert oracle.kind == "exact"
        assert _score_bound(oracle, None) == (0.0, 1.0 / model.sigma ** 2)
        own = gaussian_closed_form(model.sigma)
    else:
        innov = get_innovation(name)
        model = LinearProcessModel(
            innovations=innov, coefficients=make_finite_coefficients([1.0]),
            rho=0.3)
        oracle = build_marginal_oracle(model)
        assert oracle.kind == "single-point"
        own = (innov.cdf, innov.pdf, innov.quantile)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 3.0, 2001),
                        [0.0, 0.5, 1.0, -1.0, 1e-300, 40.0, -40.0]])
    y = np.concatenate([rng.random(2001), [0.5, 1e-300, 1.0 - 1e-16]])
    for served, own_fn, v in zip((oracle.cdf, oracle.pdf, oracle.quantile),
                                 own, (x, x, y)):
        assert served(v).tobytes() == np.asarray(own_fn(v), float).tobytes()
        assert served(0.25) == float(own_fn(0.25))
        assert isinstance(served(0.25), float)


def test_oracle_kinds(ma1_gaussian):
    _, exact = ma1_gaussian
    assert exact.kind == "exact" and exact.cdf_error_bound == 0.0
