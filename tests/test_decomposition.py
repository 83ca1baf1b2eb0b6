"""Capped-utility statistics, the five-term split, entry-fee floors, and the chains."""

import functools
import operator
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    build_iu_tables,
    build_utility_stats,
    bvcg_constructed_revenue,
    decomposition_terms,
    event_probabilities,
    lemma_chain_check,
    main_theorem_verdict,
    make_item_distribution,
    make_rng,
    max_vector_distribution,
    pi_bvcg_constructed_revenue,
    ronen_bound,
)
from auctionbench import decomposition
from auctionbench.cli import load_config
from auctionbench.decomposition import surplus_event_probability
from auctionbench.errors import NotRegular
from auctionbench.generators import random_setting
from auctionbench.simple_auctions import ronen_r_star

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def reference_item_laws(setting, m_vec, r_total):
    """Per-item raw and capped utility laws given M, one map_through each."""
    raw, capped = [], []
    for item, mj in zip(setting.items, m_vec):
        raw.append(item.map_through(lambda x, mj=mj: max(x - mj, 0.0)))

        def capped_util(x, mj=mj):
            u = max(x - mj, 0.0)
            return u if u <= r_total else 0.0

        capped.append(item.map_through(capped_util))
    return raw, capped


def reference_utility_stats(setting, n_prime):
    """The per-M fold that build_utility_stats batches: (m_vec, prob, r_total, law_u, law_u_hat)."""
    maxvec = max_vector_distribution(setting, n_prime - 1)
    out = []
    for m_vec, prob in maxvec.joint(setting.caps):
        r_total = functools.reduce(
            operator.add, [ronen_r_star(item, mj)[0] for item, mj in zip(setting.items, m_vec)]
        )
        raw, capped = reference_item_laws(setting, m_vec, r_total)
        fold = functools.partial(functools.reduce, lambda a, b: a.convolve(b))
        out.append((m_vec, prob, r_total, fold(raw), fold(capped)))
    return out


def assert_stats_bit_identical(setting, n_prime):
    got = build_utility_stats(setting, n_prime)
    want = reference_utility_stats(setting, n_prime)
    assert len(got) == len(want)
    for stat, (m_vec, prob, r_total, law_u, law_u_hat) in zip(got, want):
        assert stat.m_vec == m_vec
        assert stat.prob == prob
        assert stat.r_ron_total == r_total
        assert stat.thresholds == tuple(r_total + mj for mj in m_vec)
        assert stat.law_u == law_u
        assert stat.law_u_hat == law_u_hat
        e_hat = law_u_hat.expectation()
        assert stat.e_u_hat == e_hat
        assert stat.var_u_hat == law_u_hat.variance()
        assert stat.fee_pd == max(e_hat - 2.0 * r_total, 0.0)
        assert stat.nice_prob == (law_u_hat.tail(e_hat / 2.0) if e_hat > 0 else 1.0)


@st.composite
def small_settings(draw):
    # values on a coarse grid, so utilities tie and atoms merge
    def item():
        values = draw(st.lists(st.integers(0, 24), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
        total = sum(weights)
        return make_item_distribution([v / 4 for v in values], [w / total for w in weights])

    items = tuple(item() for _ in range(draw(st.integers(1, 3))))
    return AuctionSetting(items=items, n=1, n_prime=draw(st.integers(1, 8)))


def joint_u_hat_law(setting, m_vec, r_total):
    """Oracle for the capped-utility-sum law: enumerate the product support."""
    vals, vprobs = setting.valuations()
    atoms = {}
    for v, p in zip(vals, vprobs):
        total = 0.0
        for x, mj in zip(v, m_vec):
            u = max(x - mj, 0.0)
            total += u if u <= r_total else 0.0
        atoms[total] = atoms.get(total, 0.0) + p
    return atoms


class TestUtilityStats:
    def test_d2_hand_values(self, setting_d2):
        stats = {st.m_vec: st for st in build_utility_stats(setting_d2, 2)}
        low = stats[(1.0,)]
        assert low.r_ron_total == pytest.approx(1.0)
        assert low.thresholds == pytest.approx((2.0,))
        assert dict(zip(low.law_u_hat.values, low.law_u_hat.probs)) == pytest.approx(
            {0.0: 0.5, 1.0: 0.5}
        )
        assert low.e_u_hat == pytest.approx(0.5)
        assert low.var_u_hat == pytest.approx(0.25)
        assert low.fee_pd == 0.0
        assert low.nice_prob == pytest.approx(0.5)
        high = stats[(2.0,)]
        assert high.r_ron_total == 0.0
        assert high.e_u_hat == 0.0
        assert high.fee_pd == 0.0

    def test_point_mass_all_zero(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        (st,) = build_utility_stats(setting, 2)
        assert st.r_ron_total == 0.0
        assert st.e_u_hat == 0.0
        assert st.fee_pd == 0.0

    def test_convolution_matches_joint_enumeration(self):
        rng = make_rng(40)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            for st in build_utility_stats(setting, setting.n_prime):
                oracle = joint_u_hat_law(setting, st.m_vec, st.r_ron_total)
                got = dict(zip(st.law_u_hat.values, st.law_u_hat.probs))
                assert sorted(got) == pytest.approx(sorted(oracle), abs=1e-12)
                for (gv, gp), (ov, op) in zip(sorted(got.items()), sorted(oracle.items())):
                    assert gp == pytest.approx(op, abs=1e-12)

    def test_capped_below_cap_and_raw(self):
        rng = make_rng(41)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in maxvec.joint():
                r_total = sum(
                    ronen_r_star(item, mj)[0] for item, mj in zip(setting.items, m_vec)
                )
                raw, capped = reference_item_laws(setting, m_vec, r_total)
                for law_raw, law_hat in zip(raw, capped):
                    # every per-item capped atom is below the kernel total,
                    # and capping can only lower the mean
                    assert law_hat.values[-1] <= r_total + 1e-12
                    assert law_hat.expectation() <= law_raw.expectation() + 1e-12

    def test_variance_cap_lemma(self):
        rng = make_rng(42)
        for _ in range(50):
            setting = random_setting(rng, max_ghosts=6)
            for st in build_utility_stats(setting, setting.n_prime):
                assert st.var_u_hat <= 2.0 * st.r_ron_total**2 + 1e-9

    def test_per_item_cap_bound(self):
        # per item: max of u_hat(x) * Pr(u_hat >= u_hat(x)) stays below the posted kernel
        rng = make_rng(43)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=4)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in maxvec.joint():
                r_total = sum(
                    ronen_r_star(item, mj)[0] for item, mj in zip(setting.items, m_vec)
                )
                _, capped = reference_item_laws(setting, m_vec, r_total)
                for j, law in enumerate(capped):
                    bound = ronen_r_star(setting.items[j], m_vec[j])[0]
                    for value in law.values:
                        assert value * law.tail(value) <= bound + 1e-9

    def test_chebyshev_step(self):
        rng = make_rng(44)
        for _ in range(50):
            setting = random_setting(rng, max_ghosts=6)
            for st in build_utility_stats(setting, setting.n_prime):
                if st.fee_pd > 0:
                    assert st.law_u_hat.prob_below(st.fee_pd) <= 0.5 + 1e-12

    def test_nice_prob_on_high_pairs(self):
        rng = make_rng(45)
        for _ in range(50):
            setting = random_setting(rng, max_ghosts=6)
            for st in build_utility_stats(setting, setting.n_prime):
                if st.e_u_hat >= 6.0 * st.r_ron_total:
                    assert st.nice_prob >= 7.0 / 9.0 - 1e-12


class TestBatchedUtilityLaws:
    """build_utility_stats equals the per-M map_through / convolve fold exactly."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_configs(self, config):
        setting = load_config(config).setting
        assert_stats_bit_identical(setting, setting.n_prime)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_settings())
    def test_drawn_settings(self, setting):
        assert_stats_bit_identical(setting, setting.n_prime)

    def test_blocks_do_not_change_the_laws(self, monkeypatch):
        # a tiny pair budget splits the max vectors into many blocks
        item = make_item_distribution([0, 1, 2.5, 4], [0.1, 0.4, 0.2, 0.3])
        setting = AuctionSetting(items=(item, item, item), n=1, n_prime=3)
        monkeypatch.setattr(decomposition, "PAIR_BUDGET", 8)
        assert_stats_bit_identical(setting, 3)


class TestEventProbabilities:
    def test_single_item_has_no_rival(self, setting_d2):
        ev = event_probabilities((1.0,), setting_d2, 2)
        assert ev.p_nf == (0.0,)
        assert ev.p_und[0] == pytest.approx(0.5)

    def test_two_item_example(self, setting_two_items):
        ev = event_probabilities((2.0, 2.0), setting_two_items, 2)
        assert ev.p_nf[0] == pytest.approx(0.75)

    def test_event_union_covers_region_complement(self):
        rng = make_rng(46)
        for _ in range(30):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            tables = build_iu_tables(setting, setting.n_prime)
            for vi, v in enumerate(tables.valuations):
                ev = event_probabilities(v, setting, setting.n_prime)
                for j in range(setting.m):
                    assert 1.0 - tables.p_region[vi, j] <= ev.p_und[j] + ev.p_nf[j] + 1e-9

    def test_tail_probability_bound(self):
        # above the threshold, the rival event has mass at most r / (v_j - M_j)
        rng = make_rng(47)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            stats = build_utility_stats(setting, setting.n_prime)
            for st in stats:
                for j, item in enumerate(setting.items):
                    for x in item.values:
                        if x > st.thresholds[j]:
                            srp = surplus_event_probability(
                                setting, maxvec.per_item, j, x, st.m_vec
                            )
                            assert srp <= st.r_ron_total / (x - st.m_vec[j]) + 1e-9


class TestTerms:
    def test_d2_core(self, setting_d2):
        rep = decomposition_terms(setting_d2, 2, 1)
        assert rep.core == pytest.approx(0.5)

    def test_d2_terms_below_srev(self, setting_d2):
        rep = decomposition_terms(setting_d2, 2, 1)
        for term in (rep.single, rep.under, rep.over, rep.tail):
            assert term <= rep.srev_nprime + 1e-9

    def test_point_mass_terms(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        rep = decomposition_terms(setting, 2, 1)
        assert rep.single == pytest.approx(1.0)
        assert rep.over == pytest.approx(1.0)
        assert rep.under == 0.0
        assert rep.tail == 0.0
        assert rep.core == 0.0

    def test_core_equals_capped_utility_mass(self):
        rng = make_rng(48)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            n_prime = setting.n_prime
            stats = build_utility_stats(setting, n_prime)
            rep = decomposition_terms(setting, n_prime, setting.n, stats=stats)
            oracle = n_prime * sum(st.prob * st.e_u_hat for st in stats)
            assert rep.core == pytest.approx(oracle, abs=1e-9)

    def test_ronen_mass_matches_ronen_bound(self):
        rng = make_rng(49)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            rep = decomposition_terms(setting, setting.n_prime, setting.n)
            assert rep.ronen_mass == pytest.approx(
                ronen_bound(setting, setting.n_prime), abs=1e-9
            )

    def test_tail_clip_is_vacuous(self):
        # the per-(M, j) kernel never exceeds the posted kernel, so the clip is an identity
        rng = make_rng(50)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            rep = decomposition_terms(setting, setting.n_prime, setting.n)
            assert rep.tail == pytest.approx(rep.tail_unclipped, abs=1e-12)

    def test_surplus_between_core_and_split(self):
        rng = make_rng(51)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=4)
            rep = decomposition_terms(setting, setting.n_prime, setting.n)
            assert rep.surplus_bound <= rep.tail + rep.core + 1e-9

    def test_ubsplit(self):
        rng = make_rng(52)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            rep = decomposition_terms(setting, setting.n_prime, setting.n)
            assert rep.iu_nprime <= rep.single + rep.under + rep.over + rep.tail + rep.core + 1e-9

    def test_strict_core_not_larger(self, setting_d2):
        loose = decomposition_terms(setting_d2, 2, 1)
        strict = decomposition_terms(setting_d2, 2, 1, strict_core=True)
        assert strict.core <= loose.core + 1e-12


class TestFloors:
    def test_d2_fees_vanish(self, setting_d2):
        fee_mass, participation = bvcg_constructed_revenue(setting_d2, 2)
        assert fee_mass == 0.0
        assert participation == 0.0

    def test_point_mass_zero(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        assert bvcg_constructed_revenue(setting, 2) == (0.0, 0.0)
        assert pi_bvcg_constructed_revenue(setting, 2) == (0.0, 0.0)

    def test_pi_d2_hand_values(self, setting_d2):
        revenue_lb, s_all = pi_bvcg_constructed_revenue(setting_d2, 2)
        assert revenue_lb == pytest.approx(0.25)
        assert s_all == pytest.approx(0.125)
        assert s_all <= 4.0 * revenue_lb + 1e-12

    def test_fee_mass_vs_participation_seeded(self):
        rng = make_rng(53)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=6, max_support=4)
            fee_mass, participation = bvcg_constructed_revenue(setting, setting.n_prime)
            assert fee_mass <= 2.0 * participation + 1e-9

    def test_fee_positive_instance(self):
        # per-item capped means can only beat twice the posted kernel with deep
        # near-equal-revenue supports; five i.i.d. items on {0..4} do it at the
        # all-zeros max vector, making the entry fee strictly positive
        item = make_item_distribution([0, 1, 2, 3, 4], [0.1, 0.45, 0.15, 0.075, 0.225])
        setting = AuctionSetting(items=(item,) * 5, n=1, n_prime=2)
        stats = build_utility_stats(setting, 2)
        at_zero = next(st for st in stats if st.m_vec == (0.0,) * 5)
        assert at_zero.r_ron_total == pytest.approx(4.5)
        assert at_zero.e_u_hat == pytest.approx(5 * 1.875)
        assert at_zero.fee_pd == pytest.approx(0.375)
        fee_mass, participation = bvcg_constructed_revenue(setting, 2, stats)
        assert fee_mass > 0
        assert fee_mass <= 2.0 * participation + 1e-9

    def test_s_all_vs_revenue_lb(self):
        rng = make_rng(54)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=5)
            revenue_lb, s_all = pi_bvcg_constructed_revenue(setting, setting.n_prime)
            assert s_all <= 4.0 * revenue_lb + 1e-9


class TestChain:
    def test_d2_chain_a(self, setting_d2):
        chain = lemma_chain_check(setting_d2, 1, 2)
        by_name = {c.name: c for c in chain.checks}
        assert by_name["chain_a_iu_n_prime"].lhs == pytest.approx(1.625)
        assert by_name["chain_a_iu_n_prime"].rhs == pytest.approx(6.5)
        assert by_name["chain_a_iu_n_prime"].holds

    def test_point_mass_all_links_hold(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        chain = lemma_chain_check(setting, 1, 2)
        assert chain.core == 0.0
        assert chain.all_hold()

    def test_links_a_to_f_on_seeded_settings(self):
        rng = make_rng(55)
        for _ in range(40):
            setting = random_setting(rng, max_ghosts=6)
            chain = lemma_chain_check(setting, setting.n, setting.n_prime, regular_branch=False)
            for check in chain.checks:
                assert check.holds, f"{check.name}: {check.lhs} > {check.rhs}"

    def test_regular_branch_requires_regular(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=2)
        with pytest.raises(NotRegular):
            lemma_chain_check(setting, 1, 2, regular_branch=True)

    def test_regular_branch_runs_automatically(self, setting_d2):
        chain = lemma_chain_check(setting_d2, 1, 2)
        assert chain.regular_branch
        names = {c.name for c in chain.checks}
        assert "chain_g_s_all" in names and "chain_g_nice" in names

    def test_seeded_regular_two_item(self):
        rng = make_rng(56)
        found = 0
        while found < 10:
            setting = random_setting(
                rng, max_items=2, max_support=3, max_bidders=1, max_ghosts=3, regular_only=True
            )
            if setting.m != 2 or setting.n_prime != 3:
                continue
            found += 1
            chain = lemma_chain_check(setting, 1, 3)
            by_name = {c.name: c for c in chain.checks}
            # the theorem-backed links must hold; the second-price comparison
            # (chain_g_bk) is known to fail on discrete instances and is not asserted
            for name, check in by_name.items():
                if name == "chain_g_bk":
                    continue
                if name.startswith("chain_g_iu"):
                    continue
                assert check.holds, f"{name}: {check.lhs} > {check.rhs}"


class TestTheoremVerdict:
    def test_d2_branch1(self, setting_d2):
        verdict = main_theorem_verdict(setting_d2, 1, 1.0, 2)
        assert verdict.rev_n == pytest.approx(1.0, abs=1e-7)
        assert verdict.branch1_holds
        assert verdict.holds

    def test_point_mass(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        for eps in (0.5, 1.0):
            verdict = main_theorem_verdict(setting, 1, eps, 2)
            assert verdict.branch1_holds
            assert verdict.holds

    def test_d3_some_branch(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=3)
        verdict = main_theorem_verdict(setting, 1, 0.5, 3)
        assert verdict.holds

    def test_default_n_prime(self, setting_d2):
        verdict = main_theorem_verdict(setting_d2, 1, 1.0)
        assert verdict.n_prime == 20
