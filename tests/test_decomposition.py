"""Capped-utility statistics, the five-term split, entry-fee floors, and the chains."""

import functools
import itertools
import math
import operator
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    DecompositionReport,
    Instance,
    build_iu_tables,
    build_utility_stats,
    bvcg_constructed_revenue,
    decomposition_terms,
    lemma_chain_check,
    main_theorem_verdict,
    make_item_distribution,
    make_rng,
    max_vector_distribution,
    pi_bvcg_constructed_revenue,
)
from auctionbench import decomposition
from auctionbench.cli import load_config
from auctionbench.decomposition import surplus_event_probability
from auctionbench.dist import ScalarDistribution, Valuation, iid_max_expectation
from auctionbench.errors import InstanceTooLarge, TooFewBidders
from auctionbench.generators import random_setting
from auctionbench.report import all_hold
from auctionbench.simple_auctions import ronen_r_star
from helpers import joint, prior_dependent_links, reference_build_utility_stats, reference_region_kernel

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
    for m_vec, prob in joint(maxvec, setting.caps):
        r_total = functools.reduce(
            operator.add, [ronen_r_star(item, mj)[0] for item, mj in zip(setting.items, m_vec)]
        )
        raw, capped = reference_item_laws(setting, m_vec, r_total)
        fold = functools.partial(functools.reduce, lambda a, b: a.convolve(b))
        out.append((m_vec, prob, r_total, fold(raw), fold(capped)))
    return out


def utility_law_pairs(setting, n_prime):
    """(law_u, law_u_hat) per max vector in itertools.product order, from the per-M reference fold."""
    return [(law_u, law_u_hat) for *_, law_u, law_u_hat in reference_utility_stats(setting, n_prime)]


def assert_stats_bit_identical(setting, n_prime):
    """M, Pr(M) and r_ron_total equal the per-M fold's bit for bit; each statistic column
    matches the ScalarDistribution method on the reference law up to the order of its sum."""
    stats = build_utility_stats(Instance(setting, n_prime))
    want = reference_utility_stats(setting, n_prime)
    assert [tuple(m_vec) for m_vec in stats.m_vecs.tolist()] == [m_vec for m_vec, *_ in want]
    assert stats.prob.tolist() == [prob for _, prob, *_ in want]
    assert stats.r_ron_total.tolist() == [r_total for _, _, r_total, *_ in want]
    close = functools.partial(pytest.approx, rel=1e-13, abs=1e-15)
    for i, (_, _, r_total, law_u, law_u_hat) in enumerate(want):
        e_hat = law_u_hat.expectation()
        fee = max(e_hat - 2.0 * r_total, 0.0)
        assert stats.e_u_hat[i] == close(e_hat)
        assert stats.var_u_hat[i] == close(law_u_hat.variance())
        assert stats.fee_pd[i] == close(fee)
        assert stats.fee_accept[i] == close(law_u_hat.tail(fee))
        assert stats.nice_prob[i] == close(law_u_hat.tail(e_hat / 2.0))
        assert stats.pair_mass[i] == close(sum(p * a * law_u.tail(a) for a, p in zip(law_u.values, law_u.probs)))


def reference_terms(inst):
    """Term-by-term reference for decomposition_terms: Single, map_through Under and
    Over, the clipped per-(M, j) Tail, the per-(M, j, x) Core loop and the stats-sum
    Ronen mass."""
    setting, n_prime = inst.setting, inst.n_prime
    tables, stats, maxvec = inst.iu_tables, inst.stats, inst.ghost_max
    vals = np.array(tables.valuations)

    single = 0.0
    for j, item in enumerate(setting.items):
        weighted = item.ironed.phi_plus[item.values_arr.searchsorted(vals[:, j])] * tables.p_region[:, j]
        law = ScalarDistribution.from_atoms(zip(weighted.tolist(), tables.vprobs.tolist()), renorm_tol=1e-9)
        single += iid_max_expectation(law, n_prime)

    under = 0.0
    for j, item in enumerate(setting.items):
        law_j = maxvec.per_item[j]
        law = item.map_through(lambda x, law_j=law_j: x * (1.0 - law_j.cdf(x)))
        under += iid_max_expectation(law, n_prime)

    over = 0.0
    for j, item in enumerate(setting.items):
        law_j = maxvec.per_item[j]

        def h(x, law_j=law_j):
            mask = law_j.values_arr <= x
            return float(np.dot(law_j.values_arr[mask], law_j.probs_arr[mask]))

        over += iid_max_expectation(item.map_through(h), n_prime)

    tail = 0.0
    core = 0.0
    m_vecs, probs, r_totals = stats.m_vecs.tolist(), stats.prob.tolist(), stats.r_ron_total.tolist()
    r_star = [item.posted_revenue(stats.m_vecs[:, j]).tolist() for j, item in enumerate(setting.items)]
    for i, (m_vec, prob, r_total) in enumerate(zip(m_vecs, probs, r_totals)):
        for j, item in enumerate(setting.items):
            mj = m_vec[j]
            t_j = r_total + mj
            tail_term = r_total * (1.0 - item.cdf(t_j))
            tail += n_prime * prob * min(tail_term, r_star[j][i])
            for x, p in zip(item.values, item.probs):
                if mj <= x <= t_j:
                    core += n_prime * prob * p * (x - mj)

    ronen_mass = n_prime * sum(prob * r_total for prob, r_total in zip(probs, r_totals))
    return {"single": single, "under": under, "over": over, "tail": tail, "core": core, "ronen_mass": ronen_mass}


def assert_terms_match_reference(setting):
    inst = Instance(setting, setting.n_prime)
    rep = decomposition_terms(inst)
    for name, want in reference_terms(inst).items():
        got = inst.ronen_nprime if name == "ronen_mass" else getattr(rep, name)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), name


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
    """Oracle for the capped-utility-sum law: enumerate the product support; r_total = inf gives U."""
    atoms = {}
    for combo in itertools.product(*(zip(d.values, d.probs) for d in setting.items)):
        total = 0.0
        for (x, _), mj in zip(combo, m_vec):
            u = max(x - mj, 0.0)
            total += u if u <= r_total else 0.0
        p = math.prod(q for _, q in combo)
        atoms[total] = atoms.get(total, 0.0) + p
    return atoms


def joint_columns(setting, m_vec, r_total):
    """Every UtilityStats statistic at M from the product-support oracle laws of U_hat and U."""
    hat, raw = joint_u_hat_law(setting, m_vec, r_total), joint_u_hat_law(setting, m_vec, math.inf)
    mean = sum(a * p for a, p in hat.items())
    fee = max(mean - 2.0 * r_total, 0.0)
    return {
        "e_u_hat": mean,
        "var_u_hat": sum(p * (a - mean) ** 2 for a, p in hat.items()),
        "fee_pd": fee,
        "fee_accept": sum(p for a, p in hat.items() if a >= fee),
        "nice_prob": sum(p for a, p in hat.items() if a >= mean / 2.0),
        "pair_mass": sum(p * a * sum(q for b, q in raw.items() if b >= a) for a, p in raw.items()),
    }


class TestUtilityStats:
    def test_d2_hand_values(self, setting_d2):
        stats = build_utility_stats(Instance(setting_d2, 2))
        # M = (1,) then (2,)
        assert stats.m_vecs.tolist() == [[1.0], [2.0]]
        assert stats.prob.tolist() == pytest.approx([0.5, 0.5])
        (_, low_hat), _ = utility_law_pairs(setting_d2, 2)
        assert dict(zip(low_hat.values, low_hat.probs)) == pytest.approx({0.0: 0.5, 1.0: 0.5})
        assert stats.r_ron_total.tolist() == pytest.approx([1.0, 0.0])
        assert stats.e_u_hat.tolist() == pytest.approx([0.5, 0.0])
        assert stats.var_u_hat[0] == pytest.approx(0.25)
        assert stats.fee_pd.tolist() == [0.0, 0.0]
        assert stats.fee_accept.tolist() == [1.0, 1.0]
        assert stats.nice_prob[0] == pytest.approx(0.5)
        assert stats.pair_mass.tolist() == pytest.approx([0.25, 0.0])

    def test_point_mass_all_zero(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        stats = build_utility_stats(Instance(setting, 2))
        assert stats.r_ron_total.tolist() == [0.0]
        assert stats.e_u_hat.tolist() == [0.0]
        assert stats.fee_pd.tolist() == [0.0]

    def test_convolution_matches_joint_enumeration(self):
        rng = make_rng(40)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            stats = build_utility_stats(Instance(setting, setting.n_prime))
            for i, (m_vec, r_total) in enumerate(zip(stats.m_vecs.tolist(), stats.r_ron_total.tolist())):
                for name, want in joint_columns(setting, m_vec, r_total).items():
                    assert getattr(stats, name)[i] == pytest.approx(want, abs=1e-12), name

    def test_capped_below_cap_and_raw(self):
        rng = make_rng(41)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in joint(maxvec):
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
            stats = build_utility_stats(Instance(setting, setting.n_prime))
            assert (stats.var_u_hat <= 2.0 * stats.r_ron_total**2 + 1e-9).all()

    def test_per_item_cap_bound(self):
        # per item: max of u_hat(x) * Pr(u_hat >= u_hat(x)) stays below the posted kernel
        rng = make_rng(43)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=4)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in joint(maxvec):
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
            stats = build_utility_stats(Instance(setting, setting.n_prime))
            laws = utility_law_pairs(setting, setting.n_prime)
            for fee, accept, (_, law_u_hat) in zip(stats.fee_pd, stats.fee_accept, laws):
                if fee > 0:
                    assert law_u_hat.prob_below(fee) <= 0.5 + 1e-12
                    assert accept >= 0.5 - 1e-12

    def test_nice_prob_on_high_pairs(self):
        rng = make_rng(45)
        for _ in range(50):
            setting = random_setting(rng, max_ghosts=6)
            stats = build_utility_stats(Instance(setting, setting.n_prime))
            high = stats.e_u_hat >= 6.0 * stats.r_ron_total
            assert (stats.nice_prob[high] >= 7.0 / 9.0 - 1e-12).all()


    def test_stats_keep_only_columns(self):
        # fee_positive.json has 3,125 max vectors; a law per M held 8.5 MiB, and
        # the blocks of at most PAIR_BUDGET box cells bound the working memory
        setting = load_config(CONFIGS[0].parent / "fee_positive.json").setting
        inst = Instance(setting, setting.n_prime)
        tracemalloc.start()
        try:
            stats = inst.stats
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stats.prob) == 3125
        assert all(isinstance(column, np.ndarray) for column in stats)
        assert retained <= 1 << 20
        assert peak <= 4 << 20


class TestBatchedUtilityLaws:
    """build_utility_stats matches the per-M map_through / convolve fold, column by column."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_configs(self, config):
        setting = load_config(config).setting
        assert_stats_bit_identical(setting, setting.n_prime)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_settings())
    def test_drawn_settings(self, setting):
        assert_stats_bit_identical(setting, setting.n_prime)

    def test_blocks_do_not_change_the_laws(self, monkeypatch):
        # a tiny cell budget splits the max vectors into many blocks, and rows
        # wider than the budget get blocks of their own
        item = make_item_distribution([0, 1, 2.5, 4], [0.1, 0.4, 0.2, 0.3])
        setting = AuctionSetting(items=(item, item, item), n=1, n_prime=3)
        whole = build_utility_stats(Instance(setting, 3))
        monkeypatch.setattr(decomposition, "PAIR_BUDGET", 8)
        split = build_utility_stats(Instance(setting, 3))
        close = functools.partial(pytest.approx, rel=1e-13, abs=1e-15)
        for name, column in zip(split._fields, split):
            assert column == close(getattr(whole, name)), name
        assert_stats_bit_identical(setting, 3)

    def test_positive_fee_where_the_cap_binds(self):
        # test_fee_positive_instance's items with a rare value 50 on the last one:
        # at the single max vector (n' = 1) the fee is positive and the cap binds,
        # so the acceptance and the mean differ between the raw and capped laws
        item = make_item_distribution([0, 1, 2, 3, 4], [0.1, 0.45, 0.15, 0.075, 0.225])
        rare = make_item_distribution([0, 1, 2, 3, 4, 50], [0.1, 0.45, 0.15, 0.075, 0.224, 0.001])
        setting = AuctionSetting(items=(item,) * 4 + (rare,), n=1, n_prime=1)
        stats = build_utility_stats(Instance(setting, 1))
        ((law_u, law_u_hat),) = utility_law_pairs(setting, 1)
        assert stats.fee_pd[0] > 0
        assert law_u.tail(stats.fee_pd[0]) > law_u_hat.tail(stats.fee_pd[0])
        assert law_u.expectation() > law_u_hat.expectation()
        assert_stats_bit_identical(setting, 1)


def integer_setting(seed: int, m: int, atoms: int) -> AuctionSetting:
    """The benchmark ladder's shape: m items of `atoms` distinct integer values in 1..999, n = 2, n' = 40."""
    rng = make_rng(seed)
    items = []
    for _ in range(m):
        weights = rng.random(atoms) + 0.05
        values = np.sort(rng.choice(np.arange(1, 1000), atoms, replace=False))
        items.append(make_item_distribution(values.tolist(), (weights / weights.sum()).tolist()))
    return AuctionSetting(items=tuple(items), n=2, n_prime=40)


def assert_equals_reference(inst):
    """Every column of build_utility_stats equals the per-cell digit builder's, bit for bit."""
    stats, want = build_utility_stats(inst), reference_build_utility_stats(inst)
    for name, column, expected in zip(stats._fields, stats, want):
        assert np.array_equal(column, expected), name


class TestReferenceBuilder:
    """The ragged-product builder gives the per-cell digit builder's bits, pads included."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_configs(self, config):
        setting = load_config(config).setting
        assert_equals_reference(Instance(setting, setting.n_prime))

    def test_drawn_settings(self):
        for seed in range(1000):
            setting = random_setting(make_rng(seed), max_items=3, max_support=4)
            assert_equals_reference(Instance(setting, setting.n_prime))

    @pytest.mark.parametrize("m, atoms", [(2, 16), (4, 6)])
    def test_ladder_shapes(self, m, atoms):
        for seed in range(3):
            assert_equals_reference(Instance(integer_setting(seed, m, atoms), 40))

    def test_rows_wider_than_a_block(self, monkeypatch):
        # at 8 cells a block, a row wider than the budget is a block of its own
        # and narrower rows still share blocks padded to the widest of them
        monkeypatch.setattr(decomposition, "PAIR_BUDGET", 8)
        for config in CONFIGS:
            setting = load_config(config).setting
            assert_equals_reference(Instance(setting, setting.n_prime))
        for seed in range(100):
            setting = random_setting(make_rng(seed), max_items=3, max_support=4)
            assert_equals_reference(Instance(setting, setting.n_prime))
        assert_equals_reference(Instance(integer_setting(0, 4, 6), 40))


class EventProbabilities(NamedTuple):
    p_und: tuple[float, ...]  # per item: Pr(v_j < M_j)
    p_nf: tuple[float, ...]  # per item: Pr(v_j >= M_j and some other item matches the utility)


def event_probabilities(v: Valuation, setting: AuctionSetting, n_prime: int) -> EventProbabilities:
    """Probabilities over M of the undercut and non-favorite events at v.

    p_nf_j = Pr(M_j <= v_j) - Pr(M_j <= v_j and every other utility strictly below v_j - M_j).
    """
    laws = max_vector_distribution(setting, n_prime - 1).per_item
    rival_free = reference_region_kernel(np.array([v]), laws, strict_ties=True)[0].tolist()
    p_und = tuple(1.0 - law.cdf(vj) for law, vj in zip(laws, v))
    p_nf = tuple(max(law.cdf(vj) - free, 0.0) for law, vj, free in zip(laws, v, rival_free))
    return EventProbabilities(p_und, p_nf)


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
            tables = build_iu_tables(Instance(setting, setting.n_prime))
            for vi, v in enumerate(tables.valuations):
                ev = event_probabilities(v, setting, setting.n_prime)
                for j in range(setting.m):
                    assert 1.0 - tables.p_region[vi, j] <= ev.p_und[j] + ev.p_nf[j] + 1e-9

    def test_non_favorite_matches_joint_enumeration(self):
        rng = make_rng(45)
        for _ in range(25):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            vals, _ = setting.valuations()
            for v in vals:
                ev = event_probabilities(v, setting, setting.n_prime)
                for j in range(setting.m):
                    oracle = sum(
                        prob
                        for m_vec, prob in joint(maxvec)
                        if v[j] >= m_vec[j]
                        and any(v[k] - m_vec[k] >= v[j] - m_vec[j] for k in range(setting.m) if k != j)
                    )
                    assert ev.p_nf[j] == pytest.approx(oracle, abs=1e-12)

    def test_tail_probability_bound(self):
        # above the threshold, the rival event has mass at most r / (v_j - M_j)
        rng = make_rng(47)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=4)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            stats = build_utility_stats(Instance(setting, setting.n_prime))
            for m_vec, r_total in zip(map(tuple, stats.m_vecs.tolist()), stats.r_ron_total.tolist()):
                for j, item in enumerate(setting.items):
                    for x in item.values:
                        if x > r_total + m_vec[j]:
                            srp = surplus_event_probability(setting, maxvec.per_item, j, x, m_vec)
                            assert srp <= r_total / (x - m_vec[j]) + 1e-9


def surplus_by_valuation(inst: Instance) -> float:
    """Surplus, n' E_{M,v}[sum_j (v_j - M_j)^+ 1(some rival utility >= v_j - M_j)], summed over v first.

    The excess E_{M,v}[(v_j - M_j)^+] minus the part where every rival utility
    stays strictly below, read off the weighted strict-ties reference kernel.
    The chain bounds this term through Tail + Core instead of computing it.
    """
    setting, tables = inst.setting, inst.iu_tables
    laws = inst.ghost_max.per_item
    excess = sum(
        float(item.probs_arr @ (np.maximum(item.values_arr[:, None] - law.values_arr, 0.0) @ law.probs_arr))
        for item, law in zip(setting.items, laws)
    )
    vals = np.column_stack([item.values_arr[tables.codes[:, j]] for j, item in enumerate(setting.items)])
    rival_free = reference_region_kernel(vals, laws, strict_ties=True, weighted=True).sum(axis=1)
    return inst.n_prime * (excess - float(tables.vprobs @ rival_free))


def surplus_by_max_vector(inst: Instance) -> tuple[float, float]:
    """Surplus summed per (M, j, x) over surplus_event_probability, and its undifferenced mass."""
    setting, n_prime = inst.setting, inst.n_prime
    laws = max_vector_distribution(setting, n_prime - 1).per_item
    surplus = scale = 0.0
    for m_vec, prob in zip(map(tuple, inst.stats.m_vecs.tolist()), inst.stats.prob.tolist()):
        for j, item in enumerate(setting.items):
            for x, p in zip(item.values, item.probs):
                if x >= m_vec[j]:
                    w = n_prime * prob * p * (x - m_vec[j])
                    surplus += w * surplus_event_probability(setting, laws, j, x, m_vec)
                    scale += w
    return surplus, scale


class TestTerms:
    def test_d2_core(self, setting_d2):
        rep = decomposition_terms(Instance(setting_d2, 2))
        assert rep.core == pytest.approx(0.5)

    def test_d2_terms_below_srev(self, setting_d2):
        inst = Instance(setting_d2, 2)
        rep = decomposition_terms(inst)
        for term in (rep.single, rep.under, rep.over, rep.tail):
            assert term <= inst.srev_nprime + 1e-9

    def test_point_mass_terms(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        rep = decomposition_terms(Instance(setting, 2))
        assert rep.single == pytest.approx(1.0)
        assert rep.over == pytest.approx(1.0)
        assert rep.under == 0.0
        assert rep.tail == 0.0
        assert rep.core == 0.0

    def test_tail_clip_is_vacuous(self):
        # the per-(M, j) kernel never exceeds the posted kernel, so the clip is an identity
        rng = make_rng(50)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            inst = Instance(setting, setting.n_prime)
            rep = decomposition_terms(inst)
            assert rep.tail == pytest.approx(reference_terms(inst)["tail"], abs=1e-12)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_terms_match_reference_on_configs(self, config):
        assert_terms_match_reference(load_config(config).setting)

    def test_terms_match_reference_on_drawn_settings(self):
        # a value grid of 0..5 makes utilities tie across items; ghost atoms are
        # item atoms, so M_j = v_j ties at every item
        rng = make_rng(57)
        for _ in range(120):
            assert_terms_match_reference(random_setting(rng, max_items=3, max_ghosts=5, max_value=5))

    def test_ubsplit(self):
        rng = make_rng(52)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=5)
            inst = Instance(setting, setting.n_prime)
            rep = decomposition_terms(inst)
            assert inst.iu_tables.iu(inst.n_prime) <= rep.single + rep.under + rep.over + rep.tail + rep.core + 1e-9

    def test_surplus_between_core_and_split(self):
        rng = make_rng(51)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=4)
            inst = Instance(setting, setting.n_prime)
            rep = decomposition_terms(inst)
            assert surplus_by_valuation(inst) <= rep.tail + rep.core + 1e-9

    def test_surplus_matches_per_max_vector_sum(self):
        # reference: the per-(M, j, x) sum over surplus_event_probability.  The
        # valuation form is a difference of masses, so the tolerance is relative to
        # the undifferenced mass n' E[sum_j (v_j - M_j)^+]
        rng = make_rng(53)
        for _ in range(40):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            inst = Instance(setting, setting.n_prime)
            ref, scale = surplus_by_max_vector(inst)
            assert abs(surplus_by_valuation(inst) - ref) <= 1e-12 * max(scale, 1.0)
            rep = decomposition_terms(inst)
            assert ref <= rep.tail + rep.core + 1e-9


class TestFloors:
    def test_d2_fees_vanish(self, setting_d2):
        fee_mass, participation = bvcg_constructed_revenue(Instance(setting_d2, 2))
        assert fee_mass == 0.0
        assert participation == 0.0

    def test_point_mass_zero(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        assert bvcg_constructed_revenue(Instance(setting, 2)) == (0.0, 0.0)
        assert pi_bvcg_constructed_revenue(Instance(setting, 2)) == (0.0, 0.0)

    def test_pi_d2_hand_values(self, setting_d2):
        revenue_lb, s_all = pi_bvcg_constructed_revenue(Instance(setting_d2, 2))
        assert revenue_lb == pytest.approx(0.25)
        assert s_all == pytest.approx(0.125)
        assert s_all <= 4.0 * revenue_lb + 1e-12

    def test_fee_mass_vs_participation_seeded(self):
        rng = make_rng(53)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=6, max_support=4)
            fee_mass, participation = bvcg_constructed_revenue(Instance(setting, setting.n_prime))
            assert fee_mass <= 2.0 * participation + 1e-9

    def test_fee_positive_instance(self):
        # per-item capped means can only beat twice the posted kernel with deep
        # near-equal-revenue supports; five i.i.d. items on {0..4} do it at the
        # all-zeros max vector, making the entry fee strictly positive
        item = make_item_distribution([0, 1, 2, 3, 4], [0.1, 0.45, 0.15, 0.075, 0.225])
        setting = AuctionSetting(items=(item,) * 5, n=1, n_prime=2)
        inst = Instance(setting, 2)
        stats = inst.stats
        (at_zero,) = np.flatnonzero((stats.m_vecs == 0.0).all(axis=1))
        assert stats.r_ron_total[at_zero] == pytest.approx(4.5)
        assert stats.e_u_hat[at_zero] == pytest.approx(5 * 1.875)
        assert stats.fee_pd[at_zero] == pytest.approx(0.375)
        assert np.flatnonzero(stats.fee_pd).tolist() == [at_zero]
        fee_mass, participation = bvcg_constructed_revenue(inst)
        assert fee_mass > 0
        assert fee_mass <= 2.0 * participation + 1e-9

    def test_s_all_vs_revenue_lb(self):
        rng = make_rng(54)
        for _ in range(100):
            setting = random_setting(rng, max_ghosts=5)
            revenue_lb, s_all = pi_bvcg_constructed_revenue(Instance(setting, setting.n_prime))
            assert s_all <= 4.0 * revenue_lb + 1e-9


class TestChain:
    def test_d2_chain_a(self, setting_d2):
        chain = lemma_chain_check(Instance(setting_d2, 2), 1)
        by_name = {c.name: c for c in chain.checks}
        assert by_name["chain_a_iu_n_prime"].lhs == pytest.approx(1.625)
        assert by_name["chain_a_iu_n_prime"].rhs == pytest.approx(6.5)
        assert by_name["chain_a_iu_n_prime"].holds

    def test_point_mass_all_links_hold(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        chain = lemma_chain_check(Instance(setting, 2), 1)
        assert chain.core == 0.0
        assert all_hold(chain.checks)

    def test_links_a_to_f_on_seeded_settings(self):
        rng = make_rng(55)
        for _ in range(40):
            setting = random_setting(rng, max_ghosts=6)
            chain = lemma_chain_check(Instance(setting, setting.n_prime), setting.n)
            for check in prior_dependent_links(chain):
                assert check.holds, f"{check.name}: {check.lhs} > {check.rhs}"

    @pytest.mark.parametrize("n", [0, 3])
    def test_bidder_count_out_of_range(self, setting_d2, n):
        with pytest.raises(TooFewBidders):
            lemma_chain_check(Instance(setting_d2, 2), n)

    def test_regular_branch_runs_automatically(self, setting_d2):
        chain = lemma_chain_check(Instance(setting_d2, 2), 1)
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
            chain = lemma_chain_check(Instance(setting, 3), 1)
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
        verdict = main_theorem_verdict(Instance(setting_d2, 2), 1, 1.0)
        assert verdict.rev_n == pytest.approx(1.0, abs=1e-7)
        assert verdict.branch1_holds
        assert verdict.holds

    def test_point_mass(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        for eps in (0.5, 1.0):
            verdict = main_theorem_verdict(Instance(setting, 2), 1, eps)
            assert verdict.branch1_holds
            assert verdict.holds

    def test_d3_some_branch(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=3)
        verdict = main_theorem_verdict(Instance(setting, 3), 1, 0.5)
        assert verdict.holds

    def test_chain_report_ends_with_the_verdict_records(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=3)
        chain = lemma_chain_check(Instance(setting, 3), 1)
        verdict = main_theorem_verdict(Instance(setting, 3), 1, 0.5)
        assert isinstance(verdict, DecompositionReport)
        assert verdict.checks[: len(chain.checks)] == chain.checks
        added = [c.name for c in verdict.checks[len(chain.checks):]]
        assert added == ["step1", "branch1", "branch2", "theorem_dichotomy"]
        assert verdict.checks[-1].holds is verdict.holds is True

    def test_lp_out_of_cap_leaves_the_verdict_unknown(self, setting_d2, monkeypatch):
        def refuse(setting, n):
            raise InstanceTooLarge("refused")

        monkeypatch.setattr(decomposition, "optimal_revenue", refuse)
        verdict = main_theorem_verdict(Instance(setting_d2, 2), 1, 1.0)
        assert (verdict.rev_n, verdict.branch1_holds, verdict.branch2_holds, verdict.holds) == (None,) * 4
        assert verdict.checks == lemma_chain_check(Instance(setting_d2, 2), 1).checks
