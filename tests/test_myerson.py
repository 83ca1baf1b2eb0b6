"""Virtual values, ironing and its restricted variant, and per-item revenue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    iron,
    iron_restricted,
    make_item_distribution,
    make_rng,
    optimal_revenue,
    srev,
    srev_item,
    virtual_values,
)
from auctionbench.errors import FloorNotInSupport
from auctionbench.generators import random_item


def _iron_sweep(values: tuple[float, ...], probs: tuple[float, ...], phi: list[float], lo: int) -> list[float]:
    """Plateau sweep over index range [lo, len(values)); returns that slice.

    Each round scans candidates y in [lo, x], computes the probability
    weighted mean of phi over [y, x], takes the argmax (ties toward larger y),
    flattens [y*, x] at that mean, and continues strictly below y*.  The
    restricted variant is the same sweep with lo > 0.
    """
    top = len(values) - 1
    out = [0.0] * (len(values) - lo)
    x_idx = top
    while True:
        best_a = None
        best_y = None
        mass = 0.0
        weighted = 0.0
        # scan y from x down to lo; ties broken toward larger y means a
        # strictly-greater test while scanning downward keeps the larger y
        for y_idx in range(x_idx, lo - 1, -1):
            mass += probs[y_idx]
            weighted += probs[y_idx] * phi[y_idx]
            a = weighted / mass
            if best_a is None or a > best_a:
                best_a = a
                best_y = y_idx
        assert best_y is not None and best_a is not None
        for idx in range(best_y, x_idx + 1):
            out[idx - lo] = best_a
        if best_y == lo:
            return out
        x_idx = best_y - 1


def floor_tables(item):
    """(floor index, ironed values from iron_restricted, the plateau sweep's) at every floor."""
    for lo, floor in enumerate(item.values):
        ironed = list(iron_restricted(item, floor).values())
        yield lo, ironed, _iron_sweep(item.values, item.probs, item.ironed.phi, lo)


@st.composite
def tie_heavy_items(draw):
    """Integer values with masses from {1, 2, 3}, or equal-mass arithmetic and geometric grids."""
    kind = draw(st.sampled_from(["integer", "arithmetic", "geometric"]))
    if kind == "integer":
        values = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=24, unique=True)))
        weights = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(values), max_size=len(values)))
    else:
        size = draw(st.integers(1, 24))
        if kind == "arithmetic":
            start, step = draw(st.integers(0, 10)), draw(st.sampled_from([1, 2, 3, 0.5, 0.25]))
            values = [start + k * step for k in range(size)]
        else:
            start, ratio = draw(st.integers(1, 10)), draw(st.sampled_from([1.25, 1.5, 2.0, 3.0]))
            values = [start * ratio**k for k in range(size)]
        weights = [1] * size
    total = sum(weights)
    return make_item_distribution(values, [w / total for w in weights])


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


class TestPlateauSweepReference:
    """Pool-adjacent-violators against the quadratic plateau sweep it replaced."""

    def test_equal_at_every_floor_on_seeded_items(self):
        rng = make_rng(20)
        for _ in range(2000):
            item = random_item(rng, max_support=13)
            for lo, ironed, reference in floor_tables(item):
                assert ironed == reference, (item.values, item.probs, lo)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_items())
    def test_within_4_ulps_on_tie_heavy_items(self, item):
        # Runs of exactly equal means may split into different plateaus, whose sums
        # round differently.  The rounding is relative to the summands, so the ulps
        # are those of the largest |phi| in the table: under cancellation a plateau
        # near -20 summed from phi near -132 differs by 3 ulps of 20.
        probs = np.asarray(item.probs)
        for lo, ironed, reference in floor_tables(item):
            ironed, reference = np.asarray(ironed), np.asarray(reference)
            phi, values, p = np.asarray(item.ironed.phi[lo:]), np.asarray(item.values[lo:]), probs[lo:]
            assert np.all(np.abs(ironed - reference) <= 4 * np.spacing(np.abs(phi).max())), (item.values, lo)
            scale = 1e-12 * max(1.0, float(np.abs(values).max()))
            assert np.all(np.diff(ironed) >= -scale)
            assert np.all(ironed <= values + scale)
            assert float(p @ ironed) == pytest.approx(float(p @ phi), rel=1e-12, abs=scale)


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
