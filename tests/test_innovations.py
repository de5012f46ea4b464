import math

import numpy as np
import pytest
from scipy.integrate import quad

from bklab.innovations import get_innovation
from bklab.model import validate_innovation

ALL_NAMES = ["gaussian", "logistic", "uniform", "laplace", "exponential"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cdf_limits_and_monotone(name):
    law = get_innovation(name)
    grid = np.linspace(law.quantile(1e-9), law.quantile(1.0 - 1e-9), 2001)
    vals = law.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-15)
    assert law.cdf(grid[0]) < 1e-6
    assert law.cdf(grid[-1]) > 1.0 - 1e-6


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pdf_is_cdf_derivative(name):
    law = get_innovation(name)
    lo, hi = law.quantile(1e-7), law.quantile(1.0 - 1e-7)
    # stagger off the kink points of the non-smooth laws
    x = np.linspace(lo, hi, 1777)[1:-1] + 1e-4
    h = 1e-5
    fd = (law.cdf(x + h) - law.cdf(x - h)) / (2.0 * h)
    assert np.max(np.abs(fd - law.pdf(x))) < 1e-6


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quantile_inverts_cdf(name):
    law = get_innovation(name)
    y = np.linspace(1e-6, 1.0 - 1e-6, 501)
    x = law.quantile(y)
    assert np.max(np.abs(law.cdf(x) - y)) < 1e-9
    # and quantile(cdf(x)) = x in the support interior
    interior = x[(y > 1e-4) & (y < 1.0 - 1e-4)]
    back = law.quantile(law.cdf(interior))
    assert np.max(np.abs(back - interior)) < 1e-9


@pytest.mark.parametrize("name", ALL_NAMES)
def test_sampler_matches_cdf(name):
    law = get_innovation(name)
    rng = np.random.default_rng(42)
    x = law.sample(rng, 40_000)
    # Kolmogorov-Smirnov style bound: sup |F_n - F| <= 3/sqrt(n) is a
    # ~1e-7 level test for n = 40000
    u = np.sort(law.cdf(x))
    k = np.arange(1, u.size + 1)
    ks = np.max(np.maximum(np.abs(k / u.size - u), np.abs((k - 1) / u.size - u)))
    assert ks < 3.0 / math.sqrt(u.size)


def test_gaussian_sup_pdf():
    rep = validate_innovation(get_innovation("gaussian"))
    assert not rep.violation
    assert rep.sup_pdf == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-4)


def test_logistic_sup_pdf():
    rep = validate_innovation(get_innovation("logistic"))
    assert not rep.violation
    assert rep.sup_pdf == pytest.approx(0.25, abs=1e-5)


def test_laplace_kink_flagged():
    rep = validate_innovation(get_innovation("laplace"))
    assert rep.violation
    assert abs(rep.worst_x) < 0.1  # the kink sits at the origin


def test_uniform_edges_flagged():
    rep = validate_innovation(get_innovation("uniform"))
    assert rep.violation


def test_scale_parameter():
    law = get_innovation("gaussian", scale=2.0)
    assert law.cdf(0.0) == pytest.approx(0.5)
    assert law.pdf(0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi)))
    assert law.quantile(0.975) == pytest.approx(2.0 * 1.959963984540054, rel=1e-9)


def test_moment_order_declared():
    for name in ALL_NAMES:
        assert get_innovation(name).moment_order == math.inf


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown innovation"):
        get_innovation("cauchy")


def test_probe_grid_must_cover_support():
    with pytest.raises(ValueError, match="misses"):
        validate_innovation(get_innovation("gaussian"), lo=-1.0, hi=1.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cf_matches_quadrature(name):
    # E exp(i t eps) by adaptive quadrature of the density over the
    # support, split at the kinks of the non-smooth laws
    law = (get_innovation(name) if name == "uniform"
           else get_innovation(name, scale=1.3))
    lo, hi = float(law.quantile(1e-16)), float(law.quantile(1.0 - 1e-16))
    kinks = [0.0] if lo < 0.0 < hi else None
    for t in (0.0, 0.3, 1.0, 2.5, 7.0):
        re, im = (quad(lambda x: float(law.pdf(x)) * trig(t * x), lo, hi,
                       points=kinks, limit=400, epsabs=1e-14,
                       epsrel=1e-13)[0]
                  for trig in (math.cos, math.sin))
        assert abs(complex(law.cf(t)) - complex(re, im)) < 1e-12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_variance_and_pdf_max(name):
    # Var(eps) by quadrature of the density; the density's supremum
    # against a fine grid that contains the mode of every law
    law = (get_innovation(name) if name == "uniform"
           else get_innovation(name, scale=1.3))
    lo, hi = float(law.quantile(1e-16)), float(law.quantile(1.0 - 1e-16))
    kinks = [0.0] if lo < 0.0 < hi else None
    moment = [quad(lambda x: float(law.pdf(x)) * x ** p, lo, hi,
                   points=kinks, limit=400, epsabs=1e-13, epsrel=1e-11)[0]
              for p in (1, 2)]
    assert law.variance == pytest.approx(moment[1] - moment[0] ** 2,
                                         rel=1e-10)
    grid = np.concatenate([np.linspace(lo, hi, 200_001), [0.0]])
    assert law.pdf_max == pytest.approx(float(np.max(law.pdf(grid))),
                                        rel=1e-12)


def test_logistic_cf_stable_for_large_t():
    law = get_innovation("logistic", scale=0.5)
    t = np.array([0.0, 1e-8, 50.0, 1e3, -1e6])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        vals = law.cf(t)
    assert vals[0] == 1.0 and vals[1] == pytest.approx(1.0, abs=1e-15)
    assert vals[2] == pytest.approx(25 * math.pi / math.sinh(25 * math.pi),
                                    rel=1e-12)
    assert vals[3] == 0.0 and vals[4] == 0.0
    # at t = -i theta the closed form is the moment generating function
    assert complex(law.cf(-0.5j)).real == pytest.approx(
        0.25 * math.pi / math.sin(0.25 * math.pi), rel=1e-14)
