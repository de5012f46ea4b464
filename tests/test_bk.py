import functools
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from bklab import bk
from bklab.bk import (ResidualSeries, _jump_slots, _score_bound, csr_nu_min,
                      rate_b, rate_kiefer_pointwise, rate_lambda,
                      residual_pointwise, residual_sup, residual_values,
                      weighted_residual_sup)
from bklab.coefficients import (make_finite_coefficients,
                                make_power_law_coefficients)
from bklab.empirical import EmpiricalSummary, equantile, jump_grid
from bklab.errors import ModelError
from bklab.innovations import get_innovation
from bklab.model import (LinearProcessModel, build_marginal_oracle,
                         exact_marginal_oracle)
from bklab.paths import pit_transform, simulate_path
from bklab.seeds import mix_seed


class TestRates:
    def test_rate_b_values(self):
        # frozen from direct evaluation with natural logs
        assert rate_b(10_000) == pytest.approx(0.370460633953478, rel=1e-12)
        assert rate_b(16) == pytest.approx(0.8366416990837104, rel=1e-12)
        n = 10_000
        direct = n ** -0.25 * math.sqrt(math.log(n)) * math.log(math.log(n)) ** 0.25
        assert rate_b(n) == direct

    def test_rate_lambda_and_kiefer_values(self):
        assert rate_lambda(10_000) == pytest.approx(0.021072858403016172,
                                                    rel=1e-12)
        assert rate_kiefer_pointwise(10_000) == pytest.approx(
            0.1818916140227061, rel=1e-12)

    def test_domain(self):
        for fn in (rate_b, rate_lambda, rate_kiefer_pointwise):
            with pytest.raises(ValueError):
                fn(15)
            fn(16)

    def test_strictly_decreasing_dyadic(self):
        ns = [2 ** k for k in range(4, 31)]
        for fn in (rate_b, rate_lambda, rate_kiefer_pointwise):
            vals = [fn(n) for n in ns]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_quadrupling_ratio(self):
        # rate_b(4n)/rate_b(n) ~ (1/sqrt(2)) * sqrt(log(4n)/log(n)); exact
        # within 3% once the loglog factor has settled
        n = 2 ** 20
        ratio = rate_b(4 * n) / rate_b(n)
        approx = math.sqrt(0.5) * math.sqrt(math.log(4 * n) / math.log(n))
        assert ratio == pytest.approx(approx, rel=0.03)


class TestNuThreshold:
    def test_values(self):
        assert csr_nu_min(1.0) == 2.0
        assert csr_nu_min(2.0) == 4.0   # both branches meet
        assert csr_nu_min(3.0) == 7.0   # 3*gamma - 2 dominates

    def test_domain(self):
        with pytest.raises(ValueError):
            csr_nu_min(0.8)


def brute_force_residual(sample, oracle, y):
    """Ten-line independent evaluator of f(Q(y)) q(y) - alpha(y)."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    u = np.sort(np.asarray(oracle.cdf(xs), dtype=float))
    qy = oracle.quantile(y)
    qn = xs[math.ceil(n * y) - 1]
    en = np.sum(u <= y) / n
    return (oracle.pdf(qy) * math.sqrt(n) * (qy - qn)
            - math.sqrt(n) * (en - y))


class TestResiduals:
    def test_pointwise_uniform_reduction(self, iid_uniform):
        # f(Q(y)) = 1 so the residual is u(y) - alpha(y) exactly
        model, oracle = iid_uniform
        p = simulate_path(model, 64, seed=3)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        for y in (0.11, 0.5, 0.73):
            direct = residual_pointwise(xs, us, oracle, y)
            n = 64
            qy = y - xs.sorted[math.ceil(n * y) - 1]
            uy = np.sum(us.sorted <= y) / n - y
            assert direct == pytest.approx(math.sqrt(n) * (qy - uy), abs=1e-12)

    def test_pointwise_zero_when_both_terms_vanish(self, iid_uniform):
        # at y = 0.4 this sample has Q_5(0.4) = 0.4 = Q(0.4) and
        # E_5(0.4) = 2/5 = y, so both terms are exactly zero
        model, oracle = iid_uniform
        sample = [0.2, 0.4, 0.6, 0.8, 1.0 - 1e-9]
        xs = EmpiricalSummary.from_sample(sample)
        us = EmpiricalSummary.from_sample(sample)
        val = residual_pointwise(xs, us, oracle, 0.4)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_pointwise_hand_example(self, iid_uniform):
        # two-point sample {0.25, 0.75}: residual at 1/2 equals u - alpha
        model, oracle = iid_uniform
        xs = EmpiricalSummary.from_sample([0.25, 0.75])
        us = EmpiricalSummary.from_sample([0.25, 0.75])
        val = residual_pointwise(xs, us, oracle, 0.5)
        assert val == pytest.approx(math.sqrt(2.0) * 0.25, rel=1e-12)

    def test_sup_matches_brute_force_n1(self, iid_uniform):
        model, oracle = iid_uniform
        xs = EmpiricalSummary.from_sample([0.5])
        us = EmpiricalSummary.from_sample([0.5])
        series = residual_sup(xs, us, oracle, 0.25, 0.75, refine=8)
        brute = max(abs(brute_force_residual([0.5], oracle, y))
                    for y in series.y_grid)
        assert series.sup_abs == pytest.approx(brute, abs=1e-12)
        # the grid sup at the jump is 1/2 up to the one-sided offset
        assert series.sup_abs == pytest.approx(0.5, abs=1e-9)

    def test_sup_matches_brute_force_random(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        p = simulate_path(model, 37, seed=13)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        series = residual_sup(xs, us, oracle, 0.05, 0.95, refine=50)
        brute = max(abs(brute_force_residual(p.x, oracle, y))
                    for y in series.y_grid)
        assert series.sup_abs == pytest.approx(brute, rel=1e-12)

    def test_sup_dominates_pointwise(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        p = simulate_path(model, 128, seed=7)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        series = residual_sup(xs, us, oracle, 0.25, 0.75)
        mid = abs(residual_pointwise(xs, us, oracle, 0.5))
        assert series.sup_abs >= mid - 1e-15

    def test_refinement_doubling_stable(self, powerlaw_gaussian):
        model, oracle = powerlaw_gaussian
        n = 2 ** 12
        p = simulate_path(model, n, seed=19)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        s1 = residual_sup(xs, us, oracle, 0.05, 0.95, refine=4 * n)
        s2 = residual_sup(xs, us, oracle, 0.05, 0.95, refine=8 * n)
        assert abs(s2.sup_abs - s1.sup_abs) < 1e-3 * s1.sup_abs

    def test_scale_equivariance(self):
        # scaling the sample and the oracle together leaves the residual
        # unchanged: f scales by 1/s, q by s, alpha not at all
        base = LinearProcessModel(
            innovations=get_innovation("gaussian"),
            coefficients=make_finite_coefficients([1.0, 0.5]), rho=0.45)
        scaled = LinearProcessModel(
            innovations=get_innovation("gaussian", scale=3.0),
            coefficients=make_finite_coefficients([1.0, 0.5]), rho=0.45)
        o1, o2 = exact_marginal_oracle(base), exact_marginal_oracle(scaled)
        p = simulate_path(base, 100, seed=23)
        x2 = 3.0 * p.x
        u1 = np.asarray(o1.cdf(p.x))
        u2 = np.asarray(o2.cdf(x2))
        assert np.allclose(u1, u2, atol=1e-13)
        xs1, us1 = (EmpiricalSummary.from_sample(v) for v in (p.x, u1))
        xs2, us2 = (EmpiricalSummary.from_sample(v) for v in (x2, u2))
        for y in (0.2, 0.5, 0.8):
            r1 = residual_pointwise(xs1, us1, o1, y)
            r2 = residual_pointwise(xs2, us2, o2, y)
            assert r1 == pytest.approx(r2, abs=1e-10)

    def test_density_floor_error(self, iid_uniform):
        # probing the uniform marginal outside (0,1) hits zero density
        model, oracle = iid_uniform
        xs = EmpiricalSummary.from_sample([0.4, 0.6])
        us = EmpiricalSummary.from_sample([0.4, 0.6])
        series = residual_sup(xs, us, oracle, 0.05, 0.95, refine=4)
        assert series.sup_abs > 0.0  # interior is fine


class TestWeighted:
    def test_threshold_enforced(self, ma1_gaussian):
        model, oracle = ma1_gaussian  # gamma1 = gamma2 = 1 on this fixture
        p = simulate_path(model, 64, seed=3)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        ws = weighted_residual_sup(xs, us, oracle, 2.5)
        assert ws.weighted_sup > 0.0
        with pytest.raises(ModelError, match="nu"):
            weighted_residual_sup(xs, us, oracle, 2.0)

    def test_weight_value(self):
        # weight at the midpoint: (1/2 * 1/2)^2.5 = 2^-5
        assert (0.5 * 0.5) ** 2.5 == pytest.approx(0.03125, rel=1e-12)
        assert 0.25 ** 2.5 == pytest.approx(2.0 ** -5, rel=1e-12)

    def test_weighted_below_scaled_sup(self, ma1_gaussian):
        # max of the weight on (0,1) is 4^-nu at y = 1/2
        model, oracle = ma1_gaussian
        p = simulate_path(model, 128, seed=3)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        nu = 2.5
        ws = weighted_residual_sup(xs, us, oracle, nu)
        assert ws.weighted_sup <= 4.0 ** -nu * ws.sup_abs + 1e-15

    def test_nu_zero_equals_plain_sup(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        p = simulate_path(model, 64, seed=29)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        n = 64
        a, b = 1.0 / (n + 1), n / (n + 1.0)
        plain = residual_sup(xs, us, oracle, a, b, refine=128)
        grid = jump_grid(us, a, b, 128)
        assert plain.weighted_sup == plain.sup_abs
        assert np.array_equal(plain.y_grid, grid)

    def test_missing_gamma_rejected(self, iid_gaussian):
        model, oracle = iid_gaussian
        p = simulate_path(model, 64, seed=3)
        u = pit_transform(p, oracle)
        xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
        bare = exact_marginal_oracle(
            LinearProcessModel(innovations=model.innovations,
                               coefficients=model.coefficients,
                               rho=model.rho))
        with pytest.raises(ModelError, match="gamma"):
            weighted_residual_sup(xs, us, bare, 2.5)


def test_series_csv_roundtrip(ma1_gaussian):
    model, oracle = ma1_gaussian
    p = simulate_path(model, 32, seed=3)
    u = pit_transform(p, oracle)
    xs, us = (EmpiricalSummary.from_sample(v) for v in (p.x, u))
    series = residual_sup(xs, us, oracle, 0.1, 0.9, refine=8, seed=3)
    buf = io.StringIO()
    series.to_csv(buf)
    text = buf.getvalue()
    assert text.startswith("# n=32 seed=3")
    assert "y,residual,weight,weighted_abs" in text
    assert len(text.strip().splitlines()) == series.y_grid.size + 2


# ---------------------------------------------------------------------------
# exact piecewise sup


def summaries(model, oracle, n, seed):
    p = simulate_path(model, n, seed=seed)
    u = pit_transform(p, oracle)
    return tuple(EmpiricalSummary.from_sample(v) for v in (p.x, u))


def lipschitz(xs, oracle, y, score):
    """sqrt(n) (2 + L d), with L = max score(Q(y)) and d = max |Q(y) - Q_n(y)|
    over points y that sample both ends of every piece: a bound of |R'|."""
    q = np.asarray(oracle.quantile(y))
    d = np.max(np.abs(q - equantile(xs, y)))
    return 1.01 * math.sqrt(xs.n) * (2.0 + np.max(score(q)) * d)


def logistic_powerlaw_fourier():
    model = LinearProcessModel(
        innovations=get_innovation("logistic"),
        coefficients=make_power_law_coefficients(3.0), rho=0.45,
        gamma1=1.0, gamma2=1.0)
    return model, build_marginal_oracle(model)


class TestExactSup:
    @pytest.mark.parametrize("n, replicate, grid_sup",
                             [(16, 1, 0.82387), (256, 0, 0.67327)])
    def test_includes_interval_end_limits(self, iid_uniform, n, replicate,
                                          grid_sup):
        # both cells have their sup at R(0.05+), which the grid misses
        model, oracle = iid_uniform
        xs, us = summaries(model, oracle, n, mix_seed(11, n, replicate))
        a, b = 0.05, 0.95
        series = residual_sup(xs, us, oracle, a, b)
        ends = np.abs(residual_values(xs, us, oracle,
                                      np.array([a + 1e-12, b - 1e-12])))
        assert series.sup_abs >= ends.max() - 1e-12
        grid = residual_sup(xs, us, oracle, a, b, refine=4 * n)
        assert grid.sup_abs == pytest.approx(grid_sup, abs=1e-5)
        assert series.sup_abs > grid.sup_abs + 0.009

    def test_ties_against_exact_arithmetic(self, iid_uniform):
        # n = 20: a = 0.05 and b = 0.95 are jumps k/n, several order
        # statistics sit on jumps and two pairs are tied
        model, oracle = iid_uniform
        sample = [0.05, 0.1, 0.1, 0.25, 0.3, 0.33, 0.5, 0.5, 0.55, 0.6,
                  0.65, 0.7, 0.72, 0.8, 0.85, 0.9, 0.93, 0.95, 0.97, 0.99]
        n = len(sample)
        xs = EmpiricalSummary.from_sample(sample)
        a, b = 0.05, 0.95
        # Q(y) = y and f = 1, so R is linear between breakpoints and its
        # sup is the largest one-sided limit or point value
        xr = sorted(Fraction(v) for v in sample)
        ar, br = Fraction(a), Fraction(b)
        eps = Fraction(1, 10 ** 40)

        def r_exact(y):
            k = math.ceil(n * y)
            count = sum(v <= y for v in xr)
            return (y - xr[k - 1]) - (Fraction(count, n) - y)

        points = sorted({Fraction(k, n) for k in range(1, n)} | set(xr)
                        | {ar, br})
        vals = []
        for t in points:
            if ar < t <= br:
                vals.append(r_exact(t - eps))
            if ar <= t < br:
                vals.append(r_exact(t + eps))
            if ar < t < br:
                vals.append(r_exact(t))
        brute = math.sqrt(n) * max(abs(float(v)) for v in vals)
        series = residual_sup(xs, xs, oracle, a, b)
        assert series.sup_abs == pytest.approx(brute, abs=1e-12)
        assert series.min_margin == 2.0 and series.refined == 0

    def test_jump_slots_match_float_comparisons(self):
        rng = np.random.default_rng(3)
        for n in (3, 10, 20, 49, 100, 1000, 4096):
            jumps = np.arange(1, n) / n
            v = np.concatenate([jumps, np.nextafter(jumps, 0.0),
                                np.nextafter(jumps, 1.0), rng.random(200),
                                [1e-15, 1.0 - 1e-15]])
            below = (jumps[None, :] < v[:, None]).sum(axis=1)
            at_or_below = (jumps[None, :] <= v[:, None]).sum(axis=1)
            assert np.array_equal(_jump_slots(v, n, strict=True), below)
            assert np.array_equal(_jump_slots(v, n, strict=False),
                                  at_or_below)

    @pytest.mark.parametrize("n", [16, 64, 4096])
    def test_one_pass_matches_separate_sups(self, powerlaw_gaussian, n):
        model, oracle = powerlaw_gaussian
        for seed in range(5):
            xs, us = summaries(model, oracle, n, seed)
            both = weighted_residual_sup(xs, us, oracle, 2.5,
                                         interval=(0.05, 0.95))
            plain = residual_sup(xs, us, oracle, 0.05, 0.95)
            weighted = weighted_residual_sup(xs, us, oracle, 2.5)
            assert both.sup_abs == pytest.approx(plain.sup_abs, abs=1e-12)
            assert both.weighted_sup == pytest.approx(weighted.weighted_sup,
                                                      abs=1e-12)

    @pytest.mark.parametrize("innovation, replicate", [("uniform", 56),
                                                       ("logistic", 290)])
    def test_weighted_sup_inside_a_piece(self, innovation, replicate):
        # in these cells (y(1-y))^nu |R| peaks inside a certified piece,
        # above every breakpoint limit, so only bisection finds it
        model = LinearProcessModel(
            innovations=get_innovation(innovation),
            coefficients=make_finite_coefficients([1.0]), rho=0.3)
        oracle = build_marginal_oracle(model)
        n, nu = 16, 2.5
        xs, us = summaries(model, oracle, n, mix_seed(5, n, replicate))
        series = weighted_residual_sup(xs, us, oracle, nu, gamma=1.0)
        lo, hi = series.interval
        limits = jump_grid(us, lo, hi, 0)
        fine = np.concatenate([limits, np.linspace(lo, hi, 200_001)[1:-1]])
        on_limits, on_fine = ((y * (1 - y)) ** nu * np.abs(
            residual_values(xs, us, oracle, y)) for y in (limits, fine))
        assert on_fine.max() > on_limits.max() + 1e-7
        assert series.weighted_sup >= on_fine.max() - 1e-12
        assert series.weighted_sup - on_fine.max() < 1e-8
        assert series.refined > 0

    def test_exact_sup_rejects_closed_ends(self, iid_uniform):
        model, oracle = iid_uniform
        xs, us = summaries(model, oracle, 64, 1)
        with pytest.raises(ValueError, match="0 < a < b < 1"):
            residual_sup(xs, us, oracle, 0.0, 0.5)
        assert residual_sup(xs, us, oracle, 0.0, 0.5, refine=8).sup_abs > 0


# model name -> (oracle fixture, or a function that builds a logistic
# oracle; n values)
CROSS_CHECK = {
    "gaussian-powerlaw": ("powerlaw_gaussian", (2 ** 14,)),
    "iid-uniform": ("iid_uniform", (2 ** 14,)),
    "logistic-powerlaw-fourier": (logistic_powerlaw_fourier, (16, 24)),
}


@pytest.mark.parametrize("name", list(CROSS_CHECK))
def test_exact_sup_against_refinement_grids(request, name):
    """Over 20 seeds per n: the grid sups never exceed the exact ones, and
    the exact ones exceed them by at most the Lipschitz bound of R times
    the distance from the sup to the grid: 2e-12 when the sup sits at a
    breakpoint limit (no piece was bisected; the interval-end limits are
    added to the grid), the grid spacing h = (b - a)/(refine + 1)
    otherwise."""
    fixture, n_values = CROSS_CHECK[name]
    if not isinstance(fixture, str):
        model, oracle = fixture()
        score = lambda q: np.ones_like(q)
    else:
        model, oracle = request.getfixturevalue(fixture)
        # an exact or single-point oracle's bound does not read f_ends
        alpha, beta = _score_bound(oracle, None)
        score = lambda q: alpha + beta * np.abs(q)
    nu, a, b = 2.5, 0.05, 0.95
    refined = 0
    for n in n_values:
        lo, hi = 1.0 / (n + 1), n / (n + 1.0)
        for r in range(20):
            xs, us = summaries(model, oracle, n, mix_seed(41, n, r))
            plain = residual_sup(xs, us, oracle, a, b)
            weighted = weighted_residual_sup(xs, us, oracle, nu, gamma=1.0)
            refined += plain.refined
            ends = np.array([a + 1e-12, b - 1e-12])
            lip = lipschitz(xs, oracle, np.concatenate(
                [jump_grid(us, a, b, 0), ends]), score)
            lip_w = lipschitz(xs, oracle, np.concatenate(
                [jump_grid(us, lo, hi, 0), [lo + 1e-12, hi - 1e-12]]), score)
            # |(w |R|)'| <= max w |R'| + max |w'| sup |R|
            lip_w = (4.0 ** -nu * lip_w
                     + nu * 4.0 ** (1 - nu) * weighted.sup_abs)
            end_sup = np.abs(residual_values(xs, us, oracle, ends)).max()
            for refine in (4 * n, 8 * n):
                g = residual_sup(xs, us, oracle, a, b, refine=refine)
                gw = weighted_residual_sup(xs, us, oracle, nu, gamma=1.0,
                                           refine=refine)
                grid_end = max(g.sup_abs, end_sup)
                assert plain.sup_abs >= g.sup_abs - 1e-12
                step = 2e-12 if plain.refined == 0 else (b - a) / (refine + 1)
                assert plain.sup_abs - grid_end <= lip * step + 1e-12

                assert weighted.weighted_sup >= gw.weighted_sup - 1e-12
                step = (2e-12 if weighted.refined == 0
                        else (hi - lo) / (refine + 1))
                assert (weighted.weighted_sup - gw.weighted_sup
                        <= lip_w * step + 1e-12)
    if not isinstance(fixture, str):
        # the logistic oracle has pieces whose certificate fails and that
        # the plain sup must bisect
        assert refined > 0


class TestFourierCertificate:
    def test_bounds_the_served_score(self):
        model, oracle = logistic_powerlaw_fourier()
        lo, hi = oracle.quantile(np.array([1e-6, 1.0 - 1e-6]))
        f_ends = float(np.min(oracle.pdf(np.array([lo, hi]))))
        alpha, beta = _score_bound(oracle, f_ends)
        assert beta == 0.0
        assert 1.0 < alpha < 1.0 + 1e-6  # logistic scale 1, widened
        x = np.linspace(lo, hi, 400_001)
        j, t = oracle.law._cell(x)
        f, df = oracle.law._pdf_at(j, t), oracle.law._deriv_at(j, t)
        assert np.max(np.abs(df / f)) <= alpha

    def test_needs_density_above_engine_error(self):
        _, oracle = logistic_powerlaw_fourier()
        with pytest.raises(ModelError, match="Fourier"):
            _score_bound(oracle, 1e-15)

    def test_gaussian_engine_has_no_bounded_score(self):
        model = LinearProcessModel(
            innovations=get_innovation("gaussian"),
            coefficients=make_power_law_coefficients(3.0), rho=0.45)
        with pytest.raises(ModelError, match="bounded innovation score"):
            _score_bound(build_marginal_oracle(model), 0.1)


# ---------------------------------------------------------------------------
# block sweep of the exact sup


def gaussian_cells(powerlaw_gaussian):
    model, oracle = powerlaw_gaussian
    for n in (2 ** 10, 2 ** 11, 2 ** 12):
        xs, us = summaries(model, oracle, n, mix_seed(41, n, 1))
        yield ("gaussian", n, "w"), functools.partial(
            weighted_residual_sup, xs, us, oracle, 2.5,
            interval=(0.05, 0.95))


def logistic_cells():
    model, oracle = logistic_powerlaw_fourier()
    for n in (16, 24, 256):
        for r in range(3):
            xs, us = summaries(model, oracle, n, mix_seed(41, n, r))
            yield ("logistic", n, r, "w"), functools.partial(
                weighted_residual_sup, xs, us, oracle, 2.5, gamma=1.0,
                interval=(0.05, 0.95))
            yield ("logistic", n, r, "p"), functools.partial(
                residual_sup, xs, us, oracle, 0.05, 0.95)


def tied_uniform_cells(iid_uniform):
    # order statistics on the jumps k/n, with ties
    _, oracle = iid_uniform
    for n in (20, 64):
        for r in range(2):
            rng = np.random.default_rng(r)
            xs = EmpiricalSummary.from_sample(rng.integers(1, n, n) / n)
            yield ("uniform-ties", n, r, "w"), functools.partial(
                weighted_residual_sup, xs, xs, oracle, 2.5, gamma=1.0,
                interval=(0.05, 0.95))
            yield ("uniform-ties", n, r, "p"), functools.partial(
                residual_sup, xs, xs, oracle, 0.05, 0.95)


def sweep_fields(series):
    return (repr(series.sup_abs), repr(series.weighted_sup),
            repr(series.min_margin), series.refined)


@pytest.fixture(scope="module")
def sweep_cells(powerlaw_gaussian, iid_uniform):
    cells = [*gaussian_cells(powerlaw_gaussian), *logistic_cells(),
             *tied_uniform_cells(iid_uniform)]
    return [(key, run, sweep_fields(run())) for key, run in cells]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_sweep_independent_of_block_size(sweep_cells, monkeypatch, block):
    monkeypatch.setattr(bk, "_BLOCK", block)
    for key, run, fields in sweep_cells:
        assert sweep_fields(run()) == fields, key


# sup_abs, weighted_sup, min_margin and refined before the block sweep
# (whole-array breakpoint pass), as repr
PINNED = {
    ("gaussian", 1024, "w"): ("0.3760993237737522", "0.010573138360151993",
                              "0.7876821575302451", 1),
    ("gaussian", 4096, "w"): ("0.2107679430579483", "0.004525550628742283",
                              "1.0493053424985828", 0),
    ("logistic", 16, 0, "w"): ("0.8831859121925747", "0.016854253462607938",
                               "0.5324068419631718", 2),
    ("logistic", 24, 1, "w"): ("0.9516350291600448", "0.025339906013355253",
                               "-0.17541574495086687", 1),
    ("logistic", 256, 0, "p"): ("0.6124548916275718", "0.6124548916275718",
                                "1.6644465783499367", 0),
    ("uniform-ties", 20, 0, "w"): ("0.894427190999916",
                                   "0.020963137289060525", "2.0", 1),
    ("uniform-ties", 64, 1, "p"): ("0.75", "0.75", "2.0", 0),
}


def test_sweep_matches_pinned_values(sweep_cells):
    found = {key: fields for key, _, fields in sweep_cells}
    for key, fields in PINNED.items():
        assert found[key] == fields, key


def test_exact_series_keeps_no_values(powerlaw_gaussian):
    model, oracle = powerlaw_gaussian
    xs, us = summaries(model, oracle, 256, 5)
    series = weighted_residual_sup(xs, us, oracle, 2.5)
    assert series.y_grid is None and series.values is None
    with pytest.raises(ValueError, match="no grid"):
        series.to_csv(io.StringIO())
