"""Pinned instances where the classical inequalities fail in the discrete model.

These are regressions on toolkit *behavior*: the checks must detect and
report the violations.  See the README's criterion-10 paragraph, under
"Install and test", for the analysis; in short, with atoms the second-price
winner pays the second highest bid rather than the smallest winning support
value, so the classical add-one-bidder revenue comparison does not transfer
to discrete supports, and neither does the chain link built on it.
"""

import pytest

from auctionbench import (
    AuctionSetting,
    Instance,
    bulow_klemperer_check,
    iron,
    lemma_chain_check,
    make_item_distribution,
    optimal_revenue,
    srev,
    vcg_revenue,
)
from auctionbench.report import all_hold
from helpers import prior_dependent_links


class TestSecondPriceComparisonFails:
    def test_two_point_regular_counterexample(self):
        # regular by the monotone-virtual-value definition, yet the optimal
        # one-bidder revenue strictly beats second price with two bidders
        item = make_item_distribution([1, 100], [0.5, 0.5])
        assert iron(item).regular
        setting = AuctionSetting(items=(item,), n=1, n_prime=2)
        assert srev(setting, 1) == pytest.approx(50.0)
        assert vcg_revenue(setting, 2) == pytest.approx(25.75)
        check = bulow_klemperer_check(setting, 1)
        assert check.holds is False

    def test_counterexample_survives_independent_oracles(self):
        item = make_item_distribution([1, 100], [0.5, 0.5])
        setting = AuctionSetting(items=(item,), n=1, n_prime=2)
        posted = max(p * item.tail(p) for p in item.values)
        assert posted == pytest.approx(50.0)
        lp_value, _ = optimal_revenue(setting, 1)
        assert lp_value == pytest.approx(50.0, abs=1e-6)
        brute_vcg = sum(
            pa * pb * min(a, b)
            for a, pa in zip(item.values, item.probs)
            for b, pb in zip(item.values, item.probs)
        )
        assert brute_vcg == pytest.approx(25.75)

    def test_uniform_two_point_fails_one_bidder_past_equality(self):
        # the canonical {1,2} uniform item sits exactly at equality for two
        # bidders (1.5 vs 1.5) and violates the comparison with three
        item = make_item_distribution([1, 2], [0.5, 0.5])
        setting = AuctionSetting(items=(item,), n=3, n_prime=4)
        assert srev(setting, 2) == pytest.approx(vcg_revenue(setting, 3))
        assert srev(setting, 3) == pytest.approx(1.75)
        assert vcg_revenue(setting, 4) == pytest.approx(1.6875)
        assert bulow_klemperer_check(setting, 3).holds is False

    def test_zero_bottom_family_always_fails(self):
        # {0, c} with upper mass q: srev(1) = cq > cq^2 = vcg(2) for every q < 1
        for q in (0.1, 0.3, 0.5, 0.9):
            item = make_item_distribution([0, 4], [1 - q, q])
            assert iron(item).regular
            setting = AuctionSetting(items=(item,), n=1, n_prime=2)
            assert bulow_klemperer_check(setting, 1).holds is False


class TestRegularChainLinkFails:
    def test_thin_tail_zero_bottom_breaks_final_bound(self):
        # the prior-independent chain ends through the second-price comparison,
        # so a thin tail over a zero bottom breaks the 17x floor bound as well:
        # the benchmark scales like q while both floors scale like q^2
        item = make_item_distribution([0, 12], [0.97, 0.03])
        setting = AuctionSetting(items=(item,), n=1, n_prime=2)
        chain = lemma_chain_check(Instance(setting, 2), 1)
        assert chain.regular_branch
        by_name = {c.name: c for c in chain.checks}
        assert by_name["chain_g_bk"].holds is False
        assert by_name["chain_g_iu_n_prime"].holds is False
        # while every theorem-backed link still holds
        for name, check in by_name.items():
            if not name.startswith("chain_g_bk") and not name.startswith("chain_g_iu"):
                assert check.holds, name

    def test_prior_dependent_chain_unaffected(self):
        # links (a)-(f) avoid the second-price comparison and survive
        item = make_item_distribution([0, 12], [0.97, 0.03])
        setting = AuctionSetting(items=(item,), n=1, n_prime=2)
        chain = lemma_chain_check(Instance(setting, 2), 1)
        assert all_hold(prior_dependent_links(chain))
