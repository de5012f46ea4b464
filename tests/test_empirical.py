import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab.empirical import (EmpiricalSummary, alpha_process, beta_process,
                             edf, equantile, jump_grid, q_process,
                             sup_abs_beta, sup_abs_u, u_process)
from bklab.paths import pit_transform, simulate_path


def summary(values):
    return EmpiricalSummary.from_sample(values)


class TestEdfEquantile:
    def test_edf_counts(self):
        s = summary([1.0, 2.0, 3.0])
        assert edf(s, 2.0) == pytest.approx(2.0 / 3.0)
        assert edf(s, 0.5) == 0.0
        assert edf(s, 3.0) == 1.0

    def test_equantile_convention(self):
        s = summary([0.1, 0.2, 0.3, 0.4])
        assert equantile(s, 0.5) == 0.2          # ceil(4*0.5) = 2
        assert equantile(s, 0.5 + 1e-9) == 0.3   # jump just past k/n
        assert equantile(s, 1.0) == 0.4

    def test_equantile_domain(self):
        s = summary([1.0])
        for y in (0.0, 1.0 + 1e-12, -0.3):
            with pytest.raises(ValueError):
                equantile(s, y)

    def test_edf_right_continuous(self):
        s = summary([0.5, 0.5, 1.0])
        assert edf(s, 0.5) == pytest.approx(2.0 / 3.0)
        assert edf(s, 0.5 - 1e-12) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.floats(min_value=-100, max_value=100,
                                   allow_nan=False), min_size=1, max_size=40),
           y=st.floats(min_value=1e-9, max_value=1.0))
    def test_galois_pair(self, data, y):
        s = summary(data)
        for x in s.sorted:
            assert (equantile(s, y) <= x) == (y <= edf(s, x))

    @settings(max_examples=40, deadline=None)
    @given(data=st.lists(st.floats(min_value=-50, max_value=50,
                                   allow_nan=False), min_size=2, max_size=30))
    def test_monotone(self, data):
        s = summary(data)
        xs = np.linspace(min(data) - 1, max(data) + 1, 23)
        vals = [edf(s, x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        ys = np.linspace(0.05, 1.0, 17)
        qs = [equantile(s, y) for y in ys]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


class TestProcesses:
    def test_alpha_at_balanced_point(self):
        s = summary([0.25, 0.75])
        assert alpha_process(s, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_u_at_half(self):
        # U_2(0.5) = first order statistic under the ceil convention
        s = summary([0.25, 0.75])
        assert u_process(s, 0.5) == pytest.approx(math.sqrt(2.0) * 0.25,
                                                  rel=1e-12)
        assert u_process(s, 0.5) == pytest.approx(0.3535533905932738,
                                                  rel=1e-9)

    def test_beta_zero_when_matched(self, iid_uniform):
        model, oracle = iid_uniform
        s = summary([0.2, 0.4, 0.6, 0.8, 1.0 - 1e-9])
        # at x = 0.4 the empirical CDF is 2/5 and F(0.4) = 0.4
        assert beta_process(s, oracle, 0.4) == pytest.approx(0.0, abs=1e-9)

    def test_beta_alpha_consistency(self, ma1_gaussian):
        # beta(Q(y)) = alpha(y) exactly when the PIT shares the oracle
        model, oracle = ma1_gaussian
        p = simulate_path(model, 200, seed=5)
        u = pit_transform(p, oracle)
        xs, us = summary(p.x), summary(u)
        for y in (0.1, 0.3, 0.5, 0.62, 0.9):
            b = beta_process(xs, oracle, oracle.quantile(y))
            a = alpha_process(us, y)
            assert b == pytest.approx(a, abs=1e-12)

    def test_q_u_identity_for_uniform(self, iid_uniform):
        model, oracle = iid_uniform
        p = simulate_path(model, 100, seed=9)
        u = pit_transform(p, oracle)
        xs, us = summary(p.x), summary(u)
        for y in np.linspace(0.01, 0.99, 23):
            assert q_process(xs, oracle, y) == pytest.approx(
                u_process(us, y), abs=1e-12)

    def test_sup_abs_beta_equals_sup_abs_u_under_pit(self, ma1_gaussian):
        model, oracle = ma1_gaussian
        p = simulate_path(model, 333, seed=6)
        u = pit_transform(p, oracle)
        xs, us = summary(p.x), summary(u)
        assert sup_abs_beta(xs, oracle) == pytest.approx(sup_abs_u(us),
                                                         abs=1e-12)


class TestJumpGrid:
    def test_contains_both_sided_jumps(self):
        s = summary([0.25, 0.75])
        grid = jump_grid(s, 0.0, 1.0, refine=0)
        for point in (0.25, 0.5, 0.75):
            assert np.any(np.isclose(grid, point - 1e-12, atol=1e-15))
            assert np.any(np.isclose(grid, point + 1e-12, atol=1e-15))

    def test_refine_points(self):
        s = summary([0.25, 0.75])
        grid = jump_grid(s, 0.0, 1.0, refine=4)
        for point in (0.2, 0.4, 0.6, 0.8):
            assert np.any(np.isclose(grid, point, atol=1e-12))

    def test_interval_restriction(self):
        s = summary([0.25, 0.75])
        grid = jump_grid(s, 0.4, 0.6, refine=0)
        assert np.all((grid > 0.4) & (grid < 0.6))
        assert not np.any(np.isclose(grid, 0.25, atol=1e-9))
        assert not np.any(np.isclose(grid, 0.75, atol=1e-9))

    def test_sorted_unique(self):
        s = summary(np.random.default_rng(1).random(40))
        grid = jump_grid(s, 0.0, 1.0, refine=16)
        assert np.all(np.diff(grid) > 0)

    def test_bad_interval(self):
        s = summary([0.5])
        with pytest.raises(ValueError):
            jump_grid(s, 0.7, 0.3, refine=0)
