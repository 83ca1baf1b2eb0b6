"""Region logic, exact benchmark tables against joint enumeration, and the growth inequality."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    Caps,
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
from auctionbench.cli import load_config
from auctionbench.errors import EnumerationCapExceeded
from auctionbench.generators import random_setting
from auctionbench.iu import region_kernel
from auctionbench.myerson import iron

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def joint_region_probability(setting, v, j, n_prime):
    """Oracle: literal sum over the joint max-vector support."""
    maxvec = max_vector_distribution(setting, n_prime - 1)
    return sum(prob for m_vec, prob in maxvec.joint() if region_of(v, m_vec) == j)


def scalar_region_probability(v, j, max_laws):
    """Reference: the one-valuation loop the region kernel replaced, kept verbatim.

    Conditions on M_j and multiplies the other coordinates' probabilities in
    item order: items before j strictly below the winning utility, items
    after j weakly below; atoms are added in order.
    """
    law_j = max_laws[j]
    total = 0.0
    for mu, p_mu in zip(law_j.values, law_j.probs):
        if mu > v[j]:
            continue
        u = v[j] - mu
        prob = p_mu
        for jp, law in enumerate(max_laws):
            if jp == j:
                continue
            threshold = v[jp] - u
            if jp < j:
                prob *= 1.0 - law.cdf(threshold)
            else:
                prob *= 1.0 - law.prob_below(threshold)
            if prob == 0.0:
                break
        total += prob
    return total


def assert_tables_match_scalar_reference(setting, n_prime):
    """p_region and phi equal (==) the one-valuation reference, value by value."""
    tables = build_iu_tables(setting, n_prime)
    laws = max_vector_distribution(setting, n_prime - 1).per_item
    ironed = [iron(item) for item in setting.items]
    for vi, v in enumerate(tables.valuations):
        for j in range(setting.m):
            p = scalar_region_probability(v, j, laws)
            assert tables.p_region[vi, j] == p
            assert tables.phi[vi, j] == v[j] * (1.0 - p) + ironed[j].phi_tilde_plus_at(v[j]) * p


@st.composite
def tied_settings(draw):
    # values on a coarse grid, so utilities tie across items
    def item():
        values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
        return make_item_distribution([v / 4 for v in values], [w / sum(weights) for w in weights])

    items = tuple(item() for _ in range(draw(st.integers(1, 3))))
    return AuctionSetting(items=items, n=1, n_prime=draw(st.integers(1, 8)))


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
            fast = region_kernel(np.array(vals), maxvec.per_item)
            for vi, v in enumerate(vals):
                for j in range(setting.m):
                    assert fast[vi, j] == pytest.approx(
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
        setting = AuctionSetting(items=(d2,) * 6, n=1, n_prime=2, caps=Caps(joint_terms=100))
        with pytest.raises(EnumerationCapExceeded):
            build_iu_tables(setting, 2)


class TestRegionKernel:
    @pytest.mark.parametrize("name", ["two_point", "two_items", "irregular_three_point", "near_uniform_many_items"])
    def test_configs_match_scalar_reference(self, name):
        setting = load_config(CONFIGS / f"{name}.json").setting
        assert_tables_match_scalar_reference(setting, setting.n_prime)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tied_settings())
    def test_drawn_settings_match_scalar_reference(self, setting):
        assert_tables_match_scalar_reference(setting, setting.n_prime)

    def test_sample_shaped_input(self):
        # the Monte-Carlo estimator passes (samples, bidders, m) arrays
        rng = make_rng(37)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            laws = max_vector_distribution(setting, setting.n_prime - 1).per_item
            vals = np.stack(
                [rng.choice(item.values_arr, size=(4, 3)) for item in setting.items], axis=-1
            )
            got = region_kernel(vals, laws)
            for idx in np.ndindex(4, 3):
                v = tuple(vals[idx].tolist())
                assert got[idx].tolist() == [scalar_region_probability(v, j, laws) for j in range(setting.m)]

    def test_strict_ties_and_weights(self, setting_two_items):
        # one item per M coordinate, M ~ d2 each: at v = (2, 2) item 0 keeps
        # the rival strictly below only when M_1 > M_0
        laws = max_vector_distribution(setting_two_items, 1).per_item
        v = np.array([[2.0, 2.0]])
        assert region_kernel(v, laws, strict_ties=True).tolist() == [[0.25, 0.25]]
        assert region_kernel(v, laws).tolist() == [[0.75, 0.25]]
        # weighted by u = v_j - mu: only mu = 1 (u = 1) survives the strict rule
        assert region_kernel(v, laws, strict_ties=True, weighted=True).tolist() == [[0.25, 0.25]]


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

    def test_chunk_shrinks_to_the_cap(self, d2, d3):
        # 2 bidders x 2 items = 4 cells per sample; a cap of 16 cells allows 4
        # samples per chunk, the same stream as asking for chunk=4
        capped = AuctionSetting(items=(d2, d3), n=2, n_prime=3, caps=Caps(joint_terms=16))
        free = AuctionSetting(items=(d2, d3), n=2, n_prime=3)
        assert monte_carlo_iu(capped, 2, 3, 50, seed=4) == monte_carlo_iu(free, 2, 3, 50, seed=4, chunk=4)
        assert monte_carlo_iu(free, 2, 3, 50, seed=4) != monte_carlo_iu(free, 2, 3, 50, seed=4, chunk=4)

    def test_bidder_cells_over_cap(self, d2):
        setting = AuctionSetting(items=(d2, d2), n=8, n_prime=8, caps=Caps(joint_terms=15))
        with pytest.raises(EnumerationCapExceeded):
            monte_carlo_iu(setting, 8, 8, 10, seed=0)

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
