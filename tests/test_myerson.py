"""Virtual values, the ironing sweep and its restricted variant, and per-item revenue."""

import pytest

from auctionbench import (
    AuctionSetting,
    iron,
    iron_restricted,
    make_rng,
    optimal_revenue,
    srev,
    srev_item,
    virtual_values,
)
from auctionbench.errors import FloorNotInSupport
from auctionbench.generators import random_item


def posted_price_optimum(item):
    """Best revenue from one posted price to one bidder: the n=1 oracle."""
    return max(p * item.tail(p) for p in item.values)


class TestVirtualValues:
    def test_d2(self, d2):
        assert virtual_values(d2) == pytest.approx([0.0, 2.0])

    def test_d3(self, d3):
        assert virtual_values(d3) == pytest.approx([10 / 3, 0.0, 10.0], abs=1e-12)

    def test_point_mass(self, point_mass):
        assert virtual_values(point_mass) == [1.0]

    def test_top_maps_to_itself(self):
        rng = make_rng(5)
        for _ in range(50):
            item = random_item(rng, max_support=5)
            assert virtual_values(item)[-1] == item.values[-1]


class TestIron:
    def test_d2_regular(self, d2):
        table = iron(d2)
        assert table.phi_tilde == pytest.approx((0.0, 2.0))
        assert table.regular

    def test_d3_hand_trace(self, d3):
        table = iron(d3)
        assert table.phi_tilde == pytest.approx((2.5, 2.5, 10.0))
        assert not table.regular

    def test_point_mass(self, point_mass):
        table = iron(point_mass)
        assert table.phi_tilde == (1.0,)
        assert table.regular

    def test_invariants_on_seeded_items(self):
        rng = make_rng(6)
        for _ in range(300):
            item = random_item(rng, max_support=6)
            table = iron(item)
            # monotone plateaus
            assert all(b - a >= -1e-12 for a, b in zip(table.phi_tilde, table.phi_tilde[1:]))
            # dominated by the identity
            assert all(pt <= v + 1e-12 for v, pt in zip(item.values, table.phi_tilde))
            # plateau means match the raw virtual values
            idx = 0
            while idx < len(item.values):
                end = idx
                while (
                    end + 1 < len(item.values)
                    and abs(table.phi_tilde[end + 1] - table.phi_tilde[idx]) <= 1e-12
                ):
                    end += 1
                mass = sum(item.probs[idx : end + 1])
                mean = sum(p * f for p, f in zip(table.phi[idx : end + 1], item.probs[idx : end + 1]))
                assert mean / mass == pytest.approx(table.phi_tilde[idx], abs=1e-9)
                idx = end + 1
            # global mean preserved
            total_phi = sum(p * f for p, f in zip(table.phi, item.probs))
            total_tilde = sum(p * f for p, f in zip(table.phi_tilde, item.probs))
            assert total_phi == pytest.approx(total_tilde, abs=1e-12)


class TestIronRestricted:
    def test_floor_at_bottom_reproduces_full(self, d3):
        table = iron(d3)
        restricted = iron_restricted(d3, 4.0)
        assert list(restricted.values()) == pytest.approx(list(table.phi_tilde))

    def test_single_point_restriction(self, d3):
        assert iron_restricted(d3, 10.0) == {10.0: 10.0}

    def test_floor_not_in_support(self, d3):
        with pytest.raises(FloorNotInSupport):
            iron_restricted(d3, 6.0)

    def test_partial_sum_dominance(self, d3):
        # partial sums of the restricted values dominate those of phi, equal at the floor
        phi = dict(zip(d3.values, virtual_values(d3)))
        for floor in d3.values:
            restricted = iron_restricted(d3, floor)
            domain = [v for v in d3.values if v >= floor]
            for y in domain:
                upper = [v for v in domain if v >= y]
                lhs = sum(d3.probs[d3.values.index(v)] * restricted[v] for v in upper)
                rhs = sum(d3.probs[d3.values.index(v)] * phi[v] for v in upper)
                assert lhs >= rhs - 1e-12
            full = [v for v in domain]
            lhs = sum(d3.probs[d3.values.index(v)] * restricted[v] for v in full)
            rhs = sum(d3.probs[d3.values.index(v)] * phi[v] for v in full)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dominated_by_full_ironing(self):
        rng = make_rng(7)
        for _ in range(100):
            item = random_item(rng, max_support=5)
            table = iron(item)
            for floor in item.values:
                restricted = iron_restricted(item, floor)
                for v, r in restricted.items():
                    assert r <= table.phi_tilde[item.values.index(v)] + 1e-12


class TestSRev:
    def test_examples(self, d2, d3):
        assert srev_item(d2, 1) == pytest.approx(1.0)
        assert srev_item(d2, 2) == pytest.approx(1.5)
        assert srev_item(d3, 1) == pytest.approx(4.0)

    def test_additivity(self, d2, d3):
        s = AuctionSetting(items=(d2, d2), n=1, n_prime=2)
        assert srev(s, 1) == pytest.approx(2.0)
        s2 = AuctionSetting(items=(d2, d3), n=1, n_prime=2)
        assert srev(s2, 1) == pytest.approx(5.0)

    def test_single_bidder_equals_posted_price(self):
        rng = make_rng(8)
        for _ in range(200):
            item = random_item(rng, max_support=5)
            assert srev_item(item, 1) == pytest.approx(posted_price_optimum(item), abs=1e-9)

    def test_matches_lp_small(self):
        rng = make_rng(9)
        for _ in range(25):
            item = random_item(rng, max_support=3)
            setting = AuctionSetting(items=(item,), n=1, n_prime=2)
            for n in (1, 2):
                value, _ = optimal_revenue(setting, n)
                assert srev_item(item, n) == pytest.approx(value, abs=1e-6)
