"""Benchmark auction revenues against enumeration oracles and the selling-separately floors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    bulow_klemperer_check,
    iid_max_expectation,
    iron,
    make_item_distribution,
    make_rng,
    ronen_bound,
    ronen_r_star,
    sequential_posted_price_bound,
    srev,
    srev_item,
    vcg_revenue,
    vcg_with_reserve_bound,
)
from auctionbench.errors import BadItemIndex, ShapeMismatch, TooFewBidders
from auctionbench.generators import random_item, random_setting


def enumerate_profiles(setting, n):
    """All bidder profiles with probabilities; a profile is an (n, m) value grid."""
    vals, vprobs = setting.valuations()
    for combo in itertools.product(range(len(vals)), repeat=n):
        prob = math.prod(vprobs[i] for i in combo)
        yield [vals[i] for i in combo], prob


def brute_force_vcg(setting, n):
    total = 0.0
    for profile, prob in enumerate_profiles(setting, n):
        for j in range(setting.m):
            bids = sorted((row[j] for row in profile), reverse=True)
            total += prob * bids[1]
    return total


def brute_force_spp(setting, prices, n):
    total = 0.0
    for profile, prob in enumerate_profiles(setting, n):
        for j in range(setting.m):
            best = max(prices[i][j] if profile[i][j] >= prices[i][j] else 0.0 for i in range(n))
            total += prob * best
    return total


class TestVCG:
    def test_examples(self, setting_d2, d2):
        assert vcg_revenue(setting_d2, 2) == pytest.approx(1.25)
        assert vcg_revenue(setting_d2, 3) == pytest.approx(1.5)
        two = AuctionSetting(items=(d2, d2), n=1, n_prime=2)
        assert vcg_revenue(two, 2) == pytest.approx(2.5)

    def test_needs_two_bidders(self, setting_d2):
        with pytest.raises(TooFewBidders):
            vcg_revenue(setting_d2, 1)

    def test_against_enumeration(self):
        rng = make_rng(11)
        for _ in range(20):
            setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=3)
            for n in (2, 3):
                assert vcg_revenue(setting, n) == pytest.approx(
                    brute_force_vcg(setting, n), abs=1e-12
                )

    def test_vcg_below_srev(self):
        rng = make_rng(12)
        for _ in range(50):
            setting = random_setting(rng, max_ghosts=5)
            for n in (2, 3, 4):
                assert vcg_revenue(setting, n) <= srev(setting, n) + 1e-9


def scan_r_star(item, x):
    """Reference: a per-price scan for max over atoms y > x of y Pr(v >= y), ties to the smallest y."""
    if x < 0:
        raise ValueError("threshold must be non-negative")
    best_rev = 0.0
    best_y = None
    tails = 1.0 - np.concatenate(([0.0], item.cdf_arr[:-1]))
    for y, tail in zip(item.values, tails):
        if y <= x:
            continue
        rev = y * float(tail)
        if best_y is None or rev > best_rev:
            best_rev, best_y = rev, y
    return (best_rev, best_y) if best_y is not None else (0.0, None)


@st.composite
def kernel_items(draw):
    """Items on the grid 0..16; masses in sixteenths make y Pr(v >= y) exact, so revenues often tie."""
    values = sorted(draw(st.sets(st.integers(0, 16), min_size=1, max_size=6)))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, 15), min_size=len(values) - 1, max_size=len(values) - 1)))
        probs = [(b - a) / 16 for a, b in zip([0] + cuts, cuts + [16])]
    else:
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
        probs = [w / sum(weights) for w in weights]
    return make_item_distribution(values, probs)


class TestPostedRevenueKernel:
    """The vectorised posted-revenue kernel against the old scan, bit for bit (==)."""

    @given(item=kernel_items())
    # the equal-revenue law: y Pr(v >= y) = 1 at every atom
    @example(item=make_item_distribution([1, 2, 4, 8], [0.5, 0.25, 0.125, 0.125]))
    def test_matches_the_scan(self, item):
        vals = list(item.values)
        # below the support (when 0 is not an atom), at every atom, between atoms and above the top
        thresholds = [0.0] + vals + [(a + b) / 2 for a, b in zip(vals, vals[1:])] + [vals[-1] + 1.0]
        want = [scan_r_star(item, x) for x in thresholds]
        assert [ronen_r_star(item, x) for x in thresholds] == want
        assert item.posted_revenue(np.array(thresholds)).tolist() == [rev for rev, _ in want]
        assert [float(item.posted_revenue(x)) for x in thresholds] == [rev for rev, _ in want]

    @given(item=kernel_items(), n=st.integers(1, 6))
    def test_srev_item_matches_the_mapped_law(self, item, n):
        table = iron(item)
        law = item.map_through(lambda x: max(table.phi_tilde[item.values.index(x)], 0.0))
        assert srev_item(item, n) == iid_max_expectation(law, n)


class TestRonen:
    def test_r_star_examples(self, d2):
        assert ronen_r_star(d2, 0.0) == (1.0, 1.0)  # tie broken toward the smaller price
        assert ronen_r_star(d2, 1.0) == (1.0, 2.0)
        assert ronen_r_star(d2, 2.0) == (0.0, None)

    def test_r_star_non_increasing(self):
        rng = make_rng(13)
        for _ in range(50):
            item = random_item(rng, max_support=5)
            revs = [ronen_r_star(item, x)[0] for x in (0.0,) + item.values]
            assert all(b <= a + 1e-12 for a, b in zip(revs, revs[1:]))
            assert ronen_r_star(item, item.values[-1]) == (0.0, None)

    def test_bound_examples(self, setting_d2, point_mass):
        assert ronen_bound(setting_d2, 1) == pytest.approx(1.0)
        assert ronen_bound(setting_d2, 2) == pytest.approx(1.0)
        pm = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        assert ronen_bound(pm, 2) == 0.0

    def test_bound_below_srev(self):
        rng = make_rng(14)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=4)
            for n in range(1, 5):
                assert ronen_bound(setting, n) <= srev(setting, n) + 1e-9


class TestReserveBound:
    def test_examples(self, setting_d2):
        assert vcg_with_reserve_bound(setting_d2, 0, 2.0, 2) == pytest.approx(1.5)
        assert vcg_with_reserve_bound(setting_d2, 0, 0.0, 1) == 0.0
        assert vcg_with_reserve_bound(setting_d2, 0, 2.0, 1) == pytest.approx(1.0)

    def test_bad_index(self, setting_d2):
        with pytest.raises(BadItemIndex):
            vcg_with_reserve_bound(setting_d2, 5, 1.0, 2)

    def test_below_srev_item(self):
        rng = make_rng(15)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=4)
            n = setting.n_prime
            for j, item in enumerate(setting.items):
                for x in (0.0,) + item.values:
                    assert vcg_with_reserve_bound(setting, j, x, n) <= srev_item(item, n) + 1e-9


class TestSequentialPostedPrice:
    def test_examples(self, setting_d2):
        assert sequential_posted_price_bound(setting_d2, [[2.0], [2.0]], 2) == pytest.approx(1.5)
        assert sequential_posted_price_bound(setting_d2, [[2.0], [1.0]], 2) == pytest.approx(1.5)
        assert sequential_posted_price_bound(setting_d2, [[0.0], [0.0]], 2) == 0.0

    def test_returns_a_python_float(self, setting_d2):
        # a float repr is what verify prints for a failed spp_le_srev record
        for prices in ([[2.0], [1.0]], np.array([[2.0], [1.0]])):
            value = sequential_posted_price_bound(setting_d2, prices, 2)
            assert type(value) is float and value == pytest.approx(1.5)

    def test_shape_mismatch(self, setting_d2):
        with pytest.raises(ShapeMismatch):
            sequential_posted_price_bound(setting_d2, [[2.0]], 2)

    def test_against_enumeration(self):
        rng = make_rng(16)
        for _ in range(20):
            setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=3)
            n = max(setting.n_prime, 2)
            prices = [
                [float(item.values[int(rng.integers(len(item.values)))]) for item in setting.items]
                for _ in range(n)
            ]
            assert sequential_posted_price_bound(setting, prices, n) == pytest.approx(
                brute_force_spp(setting, prices, n), abs=1e-12
            )

    def test_below_srev(self):
        rng = make_rng(17)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=4)
            n = setting.n_prime
            prices = np.array(
                [
                    [item.values[int(rng.integers(len(item.values)))] for item in setting.items]
                    for _ in range(n)
                ]
            )
            assert sequential_posted_price_bound(setting, prices, n) <= srev(setting, n) + 1e-9


class TestBulowKlemperer:
    def test_d2_equality(self, setting_d2):
        check = bulow_klemperer_check(setting_d2, 2)
        assert (check.lhs, check.rhs) == pytest.approx((1.5, 1.5))
        assert check.holds

    def test_d2_n1(self, setting_d2):
        check = bulow_klemperer_check(setting_d2, 1)
        assert (check.lhs, check.rhs) == pytest.approx((1.0, 1.25))
        assert check.holds

    def test_point_mass_degenerate_equality(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        check = bulow_klemperer_check(setting, 1)
        assert check.lhs == pytest.approx(check.rhs)
        assert check.holds

    def test_irregular_is_not_applicable(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=2)
        assert bulow_klemperer_check(setting, 1).holds is None
