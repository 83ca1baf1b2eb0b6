"""Region logic, exact benchmark tables against joint enumeration, and the growth inequality."""

import itertools
import math

import pytest

from auctionbench import (
    AuctionSetting,
    build_iu_tables,
    iu,
    make_item_distribution,
    make_rng,
    max_vector_distribution,
    monte_carlo_iu,
    region_of,
    step2_inequality_check,
    tie_break_independence_check,
)
from auctionbench.errors import EnumerationCapExceeded
from auctionbench.generators import random_setting
from auctionbench.iu import _region_probability
from auctionbench.myerson import iron


def joint_region_probability(setting, v, j, n_prime):
    """Oracle: literal sum over the joint max-vector support."""
    maxvec = max_vector_distribution(setting, n_prime - 1)
    return sum(prob for m_vec, prob in maxvec.joint() if region_of(v, m_vec) == j)


class TestRegionOf:
    def test_strict_winner(self):
        assert region_of((2.0, 1.0), (1.0, 1.0)) == 0

    def test_all_below(self):
        assert region_of((1.0, 1.0), (2.0, 2.0)) is None

    def test_tie_smallest_index(self):
        assert region_of((2.0, 2.0), (1.0, 1.0)) == 0

    def test_argmax_item_must_clear_its_own_max(self):
        # item 1 wins the utility comparison but is below its max
        assert region_of((5.0, 1.0), (6.0, 3.0)) is None

    def test_upward_closed(self):
        rng = make_rng(30)
        for _ in range(50):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=3)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            vals, _ = setting.valuations()
            for m_vec, _prob in maxvec.joint():
                for v in vals:
                    j = region_of(v, m_vec)
                    if j is None:
                        continue
                    support = setting.items[j].values
                    for higher in support[support.index(v[j]) + 1 :]:
                        raised = v[:j] + (higher,) + v[j + 1 :]
                        assert region_of(raised, m_vec) == j


class TestBuildTables:
    def test_single_item_example(self, setting_d2):
        tables = build_iu_tables(setting_d2, 2)
        assert dict(zip(tables.valuations, tables.p_region[:, 0])) == pytest.approx(
            {(1.0,): 0.5, (2.0,): 1.0}
        )
        assert dict(zip(tables.valuations, tables.phi[:, 0])) == pytest.approx(
            {(1.0,): 0.5, (2.0,): 2.0}
        )

    def test_n_prime_1_empty_max(self, setting_d2):
        tables = build_iu_tables(setting_d2, 1)
        ironed = iron(setting_d2.items[0])
        for vi, v in enumerate(tables.valuations):
            assert tables.p_region[vi, 0] == pytest.approx(1.0)
            assert tables.phi[vi, 0] == pytest.approx(ironed.phi_tilde_plus_at(v[0]))

    def test_two_item_probabilities_match_joint_enumeration(self, setting_two_items):
        tables = build_iu_tables(setting_two_items, 2)
        for vi, v in enumerate(tables.valuations):
            for j in range(2):
                oracle = joint_region_probability(setting_two_items, v, j, 2)
                assert tables.p_region[vi, j] == pytest.approx(oracle, abs=1e-12)
        # at v=(1,1) the low-utility item loses ties only to the smaller index,
        # so the first region also collects the max vector (1,2)
        vi = tables.valuations.index((1.0, 1.0))
        assert tables.p_region[vi, 0] == pytest.approx(0.5)
        assert tables.p_region[vi, 1] == pytest.approx(0.25)

    def test_factorized_matches_joint_on_seeded_settings(self):
        rng = make_rng(31)
        for _ in range(25):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            n_prime = setting.n_prime
            maxvec = max_vector_distribution(setting, n_prime - 1)
            vals, _ = setting.valuations()
            for v in vals:
                for j in range(setting.m):
                    fast = _region_probability(v, j, maxvec.per_item)
                    assert fast == pytest.approx(
                        joint_region_probability(setting, v, j, n_prime), abs=1e-12
                    )

    def test_region_mass_at_most_one(self):
        rng = make_rng(32)
        for _ in range(30):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            tables = build_iu_tables(setting, setting.n_prime)
            assert (tables.p_region.sum(axis=1) <= 1 + 1e-12).all()

    def test_phi_bounds(self):
        rng = make_rng(33)
        for _ in range(30):
            setting = random_setting(rng, max_items=2, max_support=4, max_ghosts=6)
            tables = build_iu_tables(setting, setting.n_prime)
            assert (tables.phi >= -1e-12).all()
            for vi, v in enumerate(tables.valuations):
                for j in range(setting.m):
                    assert tables.phi[vi, j] <= v[j] + 1e-12

    def test_cap_exceeded(self, d2):
        from auctionbench import Caps

        setting = AuctionSetting(items=(d2,) * 6, n=1, n_prime=2, caps=Caps(joint_terms=100))
        with pytest.raises(EnumerationCapExceeded):
            build_iu_tables(setting, 2)


class TestIU:
    def test_examples(self, setting_d2, point_mass):
        assert iu(setting_d2, 1, 2) == pytest.approx(1.25)
        assert iu(setting_d2, 2, 2) == pytest.approx(1.625)
        pm = AuctionSetting(items=(point_mass,), n=1, n_prime=1)
        assert iu(pm, 1, 1) == pytest.approx(1.0)

    def test_matches_profile_enumeration(self):
        rng = make_rng(34)
        for _ in range(15):
            setting = random_setting(rng, max_items=2, max_support=3, max_bidders=3, max_ghosts=4)
            if setting.product_support_size > 9:
                continue
            n_prime = setting.n_prime
            tables = build_iu_tables(setting, n_prime)
            for n in range(1, 4):
                oracle = 0.0
                idx = range(len(tables.valuations))
                for j in range(setting.m):
                    for combo in itertools.product(idx, repeat=n):
                        prob = math.prod(tables.vprobs[i] for i in combo)
                        oracle += prob * max(tables.phi[i, j] for i in combo)
                assert iu(setting, n, n_prime, tables) == pytest.approx(oracle, abs=1e-12)

    def test_monotone_in_bidders(self):
        rng = make_rng(35)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=6)
            tables = build_iu_tables(setting, setting.n_prime)
            values = [iu(setting, n, setting.n_prime, tables) for n in range(1, 6)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestStep2:
    def test_example(self, setting_d2):
        check = step2_inequality_check(setting_d2, 1, 2)
        assert check.lhs == pytest.approx(1.25)
        assert check.rhs == pytest.approx(2.0625)
        assert check.holds

    def test_point_mass(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        check = step2_inequality_check(setting, 1, 2)
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.5)
        assert check.holds

    def test_two_items(self, setting_two_items):
        assert step2_inequality_check(setting_two_items, 1, 2).holds

    def test_large_ghost_counts(self, d2):
        setting = AuctionSetting(items=(d2,), n=2, n_prime=40)
        assert step2_inequality_check(setting, 2, 40).holds


class TestMonteCarlo:
    def test_agrees_with_exact(self, setting_d2):
        est = monte_carlo_iu(setting_d2, 1, 2, 200_000, seed=7)
        exact = iu(setting_d2, 1, 2)
        assert est.std_error is not None
        assert abs(est.estimate - exact) <= 4 * est.std_error + 1e-9

    def test_single_sample_guards_std_error(self, setting_d2):
        est = monte_carlo_iu(setting_d2, 1, 2, 1, seed=3)
        assert est.std_error is None

    def test_deterministic_per_seed(self, setting_two_items):
        a = monte_carlo_iu(setting_two_items, 2, 3, 50_000, seed=11)
        b = monte_carlo_iu(setting_two_items, 2, 3, 50_000, seed=11)
        assert a == b

    def test_seed_changes_stream(self, setting_d2):
        a = monte_carlo_iu(setting_d2, 1, 2, 10_000, seed=1)
        b = monte_carlo_iu(setting_d2, 1, 2, 10_000, seed=2)
        assert a.estimate != b.estimate


class TestTieBreak:
    def test_two_point(self, d2):
        assert tie_break_independence_check(d2, 2) <= 1e-12

    def test_point_mass(self, point_mass):
        assert tie_break_independence_check(point_mass, 3) == 0.0

    def test_three_point(self):
        law = make_item_distribution([1, 2, 3], [0.2, 0.5, 0.3])
        assert tie_break_independence_check(law, 3) <= 1e-12

    def test_cap_refuses_before_enumerating(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated past the cap")

        law = make_item_distribution([1, 2, 3], [0.2, 0.5, 0.3])
        monkeypatch.setattr(itertools, "product", no_enumeration)
        with pytest.raises(EnumerationCapExceeded):
            tie_break_independence_check(law, 4, cap=10)  # 3^4 = 81 tuples

    def test_cap_is_inclusive(self):
        law = make_item_distribution([1, 2, 3], [0.2, 0.5, 0.3])
        assert tie_break_independence_check(law, 2, cap=9) <= 1e-12

    def test_seeded_laws(self):
        from auctionbench.generators import random_law

        rng = make_rng(36)
        for _ in range(20):
            law = random_law(rng, max_support=4)
            for k in range(1, 5):
                assert tie_break_independence_check(law, k) <= 1e-12
