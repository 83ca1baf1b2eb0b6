"""Simplex against a vertex-enumeration oracle, and the mechanism LP's known optima."""

import itertools

import numpy as np
import pytest

from auctionbench import (
    AuctionSetting,
    iu,
    lp_solve,
    make_item_distribution,
    make_rng,
    optimal_revenue,
    ronen_bound,
    srev,
    vcg_revenue,
)
from auctionbench.errors import InstanceTooLarge, Unbounded
from auctionbench.generators import random_setting
from auctionbench.lp import MechanismLP


def vertex_enumeration_optimum(c, a_ub, b_ub):
    """Max of c.x over {A x <= b, x >= 0} by checking every basic point.

    Stacks the rows with the nonnegativity bounds, solves every n-subset, and
    keeps the best feasible solution.  None when no feasible vertex exists.
    """
    n = len(c)
    rows = np.vstack([a_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = rows[list(subset)]
        b = rhs[list(subset)]
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, b)
        if np.all(x >= -1e-9) and np.all(a_ub @ x <= b_ub + 1e-9):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


class TestLPSolve:
    def test_single_variable(self):
        sol = lp_solve(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals == pytest.approx([1.0])

    def test_zero_objective(self):
        sol = lp_solve(np.array([0.0]), np.zeros((0, 1)), np.zeros(0))
        assert sol.objective == 0.0

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            lp_solve(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))

    def test_negative_rhs_feasible(self):
        # x >= 2 written as -x <= -2, maximize -x
        sol = lp_solve(np.array([-1.0]), np.array([[-1.0]]), np.array([-2.0]))
        assert sol.objective == pytest.approx(-2.0)

    def test_infeasible_certificate(self):
        # x <= 1 and x >= 2
        sol = lp_solve(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
        assert sol.status == "infeasible"

    def test_degenerate_does_not_cycle(self):
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0, 1.0, 2.0])
        sol = lp_solve(c, a, b)
        assert sol.objective == pytest.approx(2.0)

    def test_random_lps_match_vertex_enumeration(self):
        rng = make_rng(20)
        solved = 0
        while solved < 40:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.1, 2.0, size=m)
            c = rng.normal(size=n)
            # cap every variable so the region is bounded
            a_full = np.vstack([a, np.eye(n)])
            b_full = np.concatenate([b, np.full(n, 5.0)])
            oracle = vertex_enumeration_optimum(c, a_full, b_full)
            sol = lp_solve(c, a_full, b_full)
            assert sol.status == "optimal"
            assert oracle is not None
            assert sol.objective == pytest.approx(oracle, abs=1e-7)
            assert np.all(a_full @ sol.x <= b_full + 1e-8)
            solved += 1

    def test_random_lps_with_negative_rhs(self):
        # feasible by construction: b = A x0 + slack for a nonnegative x0,
        # so rows with negative coefficients produce negative rhs and force
        # the phase-one path
        rng = make_rng(24)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            a = rng.normal(size=(m, n))
            x0 = rng.uniform(0.0, 2.0, size=n)
            b = a @ x0 + rng.uniform(0.0, 1.0, size=m)
            c = rng.normal(size=n)
            a_full = np.vstack([a, np.eye(n)])
            b_full = np.concatenate([b, np.full(n, 6.0)])
            if np.all(b_full >= 0):
                continue
            oracle = vertex_enumeration_optimum(c, a_full, b_full)
            sol = lp_solve(c, a_full, b_full)
            assert sol.status == "optimal"
            assert oracle is not None
            assert sol.objective == pytest.approx(oracle, abs=1e-7)

    def test_duals_feasible_on_random_lps(self):
        rng = make_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            a = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
            b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 4.0)])
            c = rng.normal(size=n)
            sol = lp_solve(c, a, b)
            assert np.all(sol.duals >= -1e-8)
            assert np.all(a.T @ sol.duals >= c - 1e-7)


class TestOptimalRevenue:
    def test_single_bidder_single_item(self, setting_d2):
        value, mech = optimal_revenue(setting_d2, 1)
        assert value == pytest.approx(1.0, abs=1e-7)
        assert mech.revenue == pytest.approx(value)

    def test_two_bidders_matches_srev(self, setting_d2):
        value, _ = optimal_revenue(setting_d2, 2)
        assert value == pytest.approx(1.5, abs=1e-6)

    def test_two_items_dominates_simple_floors(self, setting_two_items):
        value, _ = optimal_revenue(setting_two_items, 1)
        assert value >= 2.25 - 1e-7  # grand bundle at 3
        assert value >= 2.0 - 1e-7  # selling separately

    def test_dominates_lower_bounds(self):
        rng = make_rng(22)
        for _ in range(15):
            setting = random_setting(rng, max_items=2, max_support=2, max_bidders=2, max_ghosts=3)
            value, _ = optimal_revenue(setting, setting.n)
            assert value >= srev(setting, setting.n) - 1e-6
            assert value >= ronen_bound(setting, setting.n) - 1e-6
            if setting.n >= 2:
                assert value >= vcg_revenue(setting, setting.n) - 1e-6

    def test_scaling_covariance(self, d2):
        base = AuctionSetting(items=(d2,), n=1, n_prime=2)
        scaled_item = make_item_distribution([3, 6], [0.5, 0.5])
        scaled = AuctionSetting(items=(scaled_item,), n=1, n_prime=2)
        v1, _ = optimal_revenue(base, 1)
        v3, _ = optimal_revenue(scaled, 1)
        assert v3 == pytest.approx(3.0 * v1, abs=1e-7)

    def test_step1_duality_on_seeded_instances(self):
        rng = make_rng(23)
        for _ in range(30):
            setting = random_setting(rng, max_items=2, max_support=2, max_bidders=2, max_ghosts=5)
            value, _ = optimal_revenue(setting, setting.n)
            for n_prime in range(1, 6):
                assert value <= iu(setting, setting.n, n_prime) + 1e-6

    def test_instance_too_large(self, d2):
        setting = AuctionSetting(items=(d2,) * 5, n=3, n_prime=3)
        with pytest.raises(InstanceTooLarge):
            optimal_revenue(setting, 3)

    def test_huge_bidder_count_refused_at_once(self, d2, point_mass):
        # n_vals^n is never formed in full; one valuation gives one profile but
        # too many variables
        for item in (d2, point_mass):
            setting = AuctionSetting(items=(item,), n=10**8, n_prime=10**8)
            with pytest.raises(InstanceTooLarge):
                MechanismLP(setting, 10**8)

    def test_interim_quantities_consistent(self, setting_d2):
        _, mech = optimal_revenue(setting_d2, 2)
        # interim allocation of the high type should be near 1 for some bidder
        assert np.all(mech.interim_alloc >= -1e-9)
        assert np.all(mech.interim_alloc <= 1 + 1e-9)
        # revenue recomputed from interim payments
        total = sum(
            mech.vprobs[vidx] * mech.pbar[i, vidx]
            for i in range(mech.n)
            for vidx in range(len(mech.valuations))
        )
        assert total == pytest.approx(mech.revenue, abs=1e-8)
