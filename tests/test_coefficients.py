import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab.coefficients import (make_finite_coefficients,
                                make_geometric_coefficients,
                                make_power_law_coefficients,
                                truncation_horizon)
from bklab.errors import ModelError
from bklab.model import check_dependence_condition


class TestPowerLaw:
    def test_c0_is_one(self):
        c = make_power_law_coefficients(3.0)
        assert c.eval(0) == 1.0

    def test_c1_at_tau_10(self):
        # direct evaluation of c_1 = 2^-10 * log(e+1)^(-3/2)
        expected = 2.0 ** -10 * math.log(math.e + 1.0) ** -1.5
        c = make_power_law_coefficients(10.0)
        assert c.eval(1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.48893e-4, rel=1e-5)

    def test_rejects_tau_at_boundary(self):
        with pytest.raises(ModelError, match="5/2"):
            make_power_law_coefficients(2.5)
        with pytest.raises(ModelError):
            make_power_law_coefficients(2.0)

    def test_tau_3_tail_product_bounded(self):
        # tail_sq(i) * i^5 * log(i)^3 stays bounded over i in [10, 1e4]
        c = make_power_law_coefficients(3.0)
        prods = [c.tail_sq(i) * i ** 5 * math.log(i) ** 3
                 for i in (10, 100, 1000, 10_000)]
        assert max(prods) < 10.0 * min(p for p in prods if p > 0)

    def test_tail_ratio_matches_decay_exponent(self):
        # tail_sq(2i)/tail_sq(i) -> 2^(1-2*tau), but the (log i)^-3 factor
        # converges very slowly; at finite i the ratio carries the exact
        # correction (log(2i)/log(i))^-3, which we verify within 5%
        for tau in (3.0, 2.75):
            c = make_power_law_coefficients(tau)
            for i in (1000, 2000, 4000):
                ratio = c.tail_sq(2 * i) / c.tail_sq(i)
                plain = 2.0 ** (1.0 - 2.0 * tau)
                corrected = plain * (math.log(2 * i) / math.log(i)) ** -3
                assert ratio == pytest.approx(corrected, rel=0.05)
                assert corrected < plain  # the limit is approached from below

    def test_tail_sq_nonincreasing_and_total(self):
        c = make_power_law_coefficients(3.0)
        vals = [c.tail_sq(i) for i in range(0, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        direct = float(np.sum(c.weights(100_000) ** 2))
        assert c.tail_sq(0) == pytest.approx(direct, rel=1e-6)

    def test_tail_sq_independent_of_query_history(self):
        # a value depends on i alone, not on larger indices queried before
        c = make_power_law_coefficients(3.0)
        before = [c.tail_sq(i) for i in (0, 9, 1023)]
        c.tail_sq(20_000)
        assert [c.tail_sq(i) for i in (0, 9, 1023)] == before
        assert make_power_law_coefficients(3.0).tail_sq(9) == before[1]

    def test_tail_sq_monotone_across_horizons(self):
        # 1023 and 1024 fall on either side of a cached-horizon boundary
        c = make_power_law_coefficients(3.0)
        for i in (1023, 2047, 4095):
            assert c.tail_sq(i) > c.tail_sq(i + 1) > 0.0


class TestGeometricAndFinite:
    def test_geometric_closed_form(self):
        c = make_geometric_coefficients(0.5)
        assert c.eval(3) == 0.125
        assert c.tail_sq(0) == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-14)
        assert c.tail_sq(2) == pytest.approx(0.25 ** 2 / 0.75, rel=1e-14)

    def test_geometric_requires_contraction(self):
        with pytest.raises(ModelError):
            make_geometric_coefficients(1.0)

    def test_finite_suffix_sums(self):
        c = make_finite_coefficients([1.0, 0.5, 0.25])
        assert c.tail_sq(0) == pytest.approx(1.0 + 0.25 + 0.0625)
        assert c.tail_sq(1) == pytest.approx(0.25 + 0.0625)
        assert c.tail_sq(3) == 0.0
        assert c.memory == 2

    def test_finite_requires_unit_lead(self):
        with pytest.raises(ModelError):
            make_finite_coefficients([0.9, 0.5])


class TestRootTailSum:
    @pytest.mark.parametrize("coeffs", [
        make_power_law_coefficients(3.0), make_power_law_coefficients(2.75),
        make_geometric_coefficients(0.5), make_geometric_coefficients(-0.7),
        make_finite_coefficients([1.0, 0.5, -0.25])])
    def test_bounds_the_direct_sum(self, coeffs):
        # sum_j sqrt(sum_{k>=j} c_k^2) summed directly over 2^20 lags, which
        # misses less than 1e-6 of every value checked; the power-law
        # integral bounds beyond a cached horizon over-estimate by up to 2%
        w = coeffs.weights(1 << 20)
        tails = np.cumsum((w * w)[::-1])[::-1]
        direct = np.cumsum(np.sqrt(tails)[::-1])[::-1]
        for i in (0, 1, 2, 7, 100, 3000):
            got = coeffs.root_tail_sum(i)
            assert direct[i] * (1.0 - 1e-12) <= got <= direct[i] * 1.02

    def test_vanishes_beyond_memory(self):
        c = make_finite_coefficients([1.0, 0.5, -0.25])
        assert c.root_tail_sum(2) == 0.25
        assert c.root_tail_sum(3) == 0.0 == c.root_tail_sum(50)
        assert make_geometric_coefficients(0.0).root_tail_sum(1) == 0.0


class TestDependenceCondition:
    def test_power_law_admissible_interval(self):
        # analytic: rho >= 2/(2*tau-1) = 0.4 at tau=3
        c = make_power_law_coefficients(3.0)
        assert check_dependence_condition(c, 0.45).admissible
        assert check_dependence_condition(c, 0.40).admissible
        assert not check_dependence_condition(c, 0.20).admissible
        assert not check_dependence_condition(c, 0.39).admissible

    def test_finite_always_admissible(self):
        c = make_finite_coefficients([1.0, 0.5, 0.25])
        for rho in (0.05, 0.25, 0.45):
            rep = check_dependence_condition(c, rho)
            assert rep.admissible and rep.bounded

    def test_rho_domain_error(self):
        c = make_finite_coefficients([1.0])
        for rho in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ModelError):
                check_dependence_condition(c, rho)

    @settings(max_examples=25, deadline=None)
    @given(rho=st.floats(min_value=0.401, max_value=0.499),
           bump=st.floats(min_value=1e-4, max_value=0.09))
    def test_monotone_in_rho(self, rho, bump):
        # admissible at rho implies admissible at any larger rho below 1/2
        c = make_power_law_coefficients(3.0)
        rho2 = min(rho + bump, 0.499)
        rep1 = check_dependence_condition(c, rho)
        rep2 = check_dependence_condition(c, rho2)
        if rep1.admissible:
            assert rep2.admissible

    def test_geometric_bounded(self):
        c = make_geometric_coefficients(0.8)
        rep = check_dependence_condition(c, 0.1)
        assert rep.bounded and rep.admissible


class TestTruncationHorizon:
    def test_finite_memory_horizon(self):
        c = make_finite_coefficients([1.0, 0.5])
        assert truncation_horizon(c, 1e-9) == 1
        # a tolerance above the last coefficient drops it
        assert truncation_horizon(c, 0.6) == 0

    def test_monotone_in_tolerance(self):
        c = make_power_law_coefficients(3.0)
        tols = [1e-3, 1e-4, 1e-5, 1e-6]
        ks = [truncation_horizon(c, t) for t in tols]
        assert ks == sorted(ks)
        for t, k in zip(tols, ks):
            assert c.tail_sq(k + 1) <= t * t
            if k > 0:
                assert c.tail_sq(k) > t * t
