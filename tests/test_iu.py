"""Region logic, exact benchmark tables against joint enumeration, and the growth inequality."""

import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    Instance,
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
from auctionbench.iu import KERNEL_CELLS, MC_STREAM, RANK_TABLE, benchmark_values, region_kernel
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
    tables = build_iu_tables(Instance(setting, n_prime))
    laws = max_vector_distribution(setting, n_prime - 1).per_item
    ironed = [iron(item) for item in setting.items]
    for vi, v in enumerate(tables.valuations):
        for j in range(setting.m):
            p = scalar_region_probability(v, j, laws)
            assert tables.p_region[vi, j] == p
            phi_plus = max(ironed[j].phi_tilde[setting.items[j].values.index(v[j])], 0.0)
            assert tables.phi[vi, j] == v[j] * (1.0 - p) + phi_plus * p


def per_draw_monte_carlo_iu(setting, n, n_prime, samples, seed, chunk=1 << 16):
    """Reference: the Monte-Carlo loop that evaluated Phi on every drawn bidder, kept verbatim."""
    cells = n * setting.m
    chunk = min(chunk, setting.caps.joint_terms // cells)
    rows = max(1, KERNEL_CELLS // cells)
    maxvec = max_vector_distribution(setting, n_prime - 1)
    rng = make_rng(seed, MC_STREAM)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        batch = min(chunk, samples - done)
        vals = np.empty((batch, n, setting.m))
        for j, item in enumerate(setting.items):
            idx = rng.choice(len(item.values), size=(batch, n), p=item.probs_arr)
            vals[:, :, j] = item.values_arr[idx]
        stat = np.zeros(batch)
        for lo in range(0, batch, rows):
            part = vals[lo : lo + rows]
            phi = benchmark_values(part, region_kernel(part, maxvec.per_item), setting.items)
            for j in range(setting.m):
                stat[lo : lo + rows] += phi[:, :, j].max(axis=1)
        total += float(stat.sum())
        total_sq += float((stat * stat).sum())
        done += batch
    mean = total / samples
    if samples == 1:
        return (mean, None)
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return (mean, math.sqrt(var / samples))


def assert_mc_matches_per_draw(setting, n, n_prime, samples, seed, chunk):
    got = monte_carlo_iu(setting, n, n_prime, samples, seed, chunk=chunk)
    assert tuple(got) == per_draw_monte_carlo_iu(setting, n, n_prime, samples, seed, chunk=chunk)


# the default draw chunk, one that splits the samples, and a tiny one
MC_CHUNKS = [1 << 16, 7000, 7]


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
        tables = build_iu_tables(Instance(setting_d2, 2))
        assert dict(zip(tables.valuations, tables.p_region[:, 0])) == pytest.approx(
            {(1.0,): 0.5, (2.0,): 1.0}
        )
        assert dict(zip(tables.valuations, tables.phi[:, 0])) == pytest.approx(
            {(1.0,): 0.5, (2.0,): 2.0}
        )

    def test_n_prime_1_empty_max(self, setting_d2):
        tables = build_iu_tables(Instance(setting_d2, 1))
        item = setting_d2.items[0]
        ironed = iron(item)
        for vi, v in enumerate(tables.valuations):
            assert tables.p_region[vi, 0] == pytest.approx(1.0)
            assert tables.phi[vi, 0] == pytest.approx(max(ironed.phi_tilde[item.values.index(v[0])], 0.0))

    def test_two_item_probabilities_match_joint_enumeration(self, setting_two_items):
        tables = build_iu_tables(Instance(setting_two_items, 2))
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
            tables = build_iu_tables(Instance(setting, setting.n_prime))
            assert (tables.p_region.sum(axis=1) <= 1 + 1e-12).all()

    def test_phi_bounds(self):
        rng = make_rng(33)
        for _ in range(30):
            setting = random_setting(rng, max_items=2, max_support=4, max_ghosts=6)
            tables = build_iu_tables(Instance(setting, setting.n_prime))
            assert (tables.phi >= -1e-12).all()
            for vi, v in enumerate(tables.valuations):
                for j in range(setting.m):
                    assert tables.phi[vi, j] <= v[j] + 1e-12

    def test_cap_exceeded(self, d2):
        setting = AuctionSetting(items=(d2,) * 6, n=1, n_prime=2, caps=Caps(joint_terms=100))
        with pytest.raises(EnumerationCapExceeded):
            build_iu_tables(Instance(setting, 2))

    def test_cap_message_states_a_huge_count_by_its_bit_length(self):
        # 16^3750 valuations times as many max vectors: 2^30000, 9,031 digits
        item = make_item_distribution(range(1, 17), [1 / 16] * 16)
        setting = AuctionSetting(items=(item,) * 3750, n=1, n_prime=2, caps=Caps(product_support=1 << 15_000))
        with pytest.raises(EnumerationCapExceeded, match=r"^valuations x max-vectors = about 2\^30000 exceeds cap "):
            build_iu_tables(Instance(setting, 2))


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


class TestKernelBlocks:
    """region_kernel walks its rows in blocks of KERNEL_CELLS // (most atoms of any M_j)."""

    # the two flag pairs the package calls the kernel with
    FLAGS = [{}, {"strict_ties": True, "weighted": True}]

    def assert_blocks_change_no_bit(self, monkeypatch, vals, laws):
        """Blocks of one row and of five rows (the last one ragged unless rows divide by 5) against one block."""
        module = importlib.import_module("auctionbench.iu")
        atoms = max(len(law.values) for law in laws)
        assert vals.size // vals.shape[-1] * atoms <= KERNEL_CELLS  # one block at the real cap
        for flags in self.FLAGS:
            whole = region_kernel(vals, laws, **flags)
            for rows in (1, 5):
                monkeypatch.setattr(module, "KERNEL_CELLS", rows * atoms + atoms - 1)
                blocked = region_kernel(vals, laws, **flags)
                monkeypatch.setattr(module, "KERNEL_CELLS", KERNEL_CELLS)
                assert blocked.shape == whole.shape and (blocked == whole).all()

    def test_drawn_settings(self, monkeypatch):
        rng = make_rng(38)
        ragged = 0
        for _ in range(25):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            laws = max_vector_distribution(setting, setting.n_prime - 1).per_item
            vals = np.array(setting.valuations()[0])
            ragged += len(vals) % 5 != 0
            self.assert_blocks_change_no_bit(monkeypatch, vals, laws)
        assert ragged

    def test_sample_shaped_input(self, monkeypatch):
        # the (4, 3, m) inputs of TestRegionKernel.test_sample_shaped_input: 12 rows, so five-row
        # blocks cross the leading axis and end in a ragged block of two
        rng = make_rng(37)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            laws = max_vector_distribution(setting, setting.n_prime - 1).per_item
            vals = np.stack([rng.choice(item.values_arr, size=(4, 3)) for item in setting.items], axis=-1)
            self.assert_blocks_change_no_bit(monkeypatch, vals, laws)

    def test_cap_below_the_atom_count_gives_one_row_blocks(self, monkeypatch):
        # KERNEL_CELLS below the atom count still walks one row at a time
        laws = max_vector_distribution(load_config(CONFIGS / "two_items.json").setting, 3).per_item
        vals = np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        whole = region_kernel(vals, laws)
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "KERNEL_CELLS", 1)
        assert (region_kernel(vals, laws) == whole).all()


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
            tables = build_iu_tables(Instance(setting, n_prime))
            for n in range(1, 4):
                oracle = 0.0
                idx = range(len(tables.valuations))
                for j in range(setting.m):
                    for combo in itertools.product(idx, repeat=n):
                        prob = math.prod(tables.vprobs[i] for i in combo)
                        oracle += prob * max(tables.phi[i, j] for i in combo)
                assert tables.iu(n) == pytest.approx(oracle, abs=1e-12)

    def test_monotone_in_bidders(self):
        rng = make_rng(35)
        for _ in range(30):
            setting = random_setting(rng, max_ghosts=6)
            tables = build_iu_tables(Instance(setting, setting.n_prime))
            values = [tables.iu(n) for n in range(1, 6)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestStep2:
    def test_example(self, setting_d2):
        check = step2_inequality_check(Instance(setting_d2, 2), 1)
        assert check.lhs == pytest.approx(1.25)
        assert check.rhs == pytest.approx(2.0625)
        assert check.holds

    def test_point_mass(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        check = step2_inequality_check(Instance(setting, 2), 1)
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.5)
        assert check.holds

    def test_two_items(self, setting_two_items):
        assert step2_inequality_check(Instance(setting_two_items, 2), 1).holds

    def test_large_ghost_counts(self, d2):
        setting = AuctionSetting(items=(d2,), n=2, n_prime=40)
        assert step2_inequality_check(Instance(setting, 40), 2).holds


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

    @pytest.mark.parametrize("chunk", MC_CHUNKS)
    @pytest.mark.parametrize("name", ["two_point", "two_items", "irregular_three_point", "near_uniform_many_items"])
    def test_configs_match_per_draw_reference(self, name, chunk):
        # estimate and SE equal (==) to Phi evaluated on every drawn bidder
        setting = load_config(CONFIGS / f"{name}.json").setting
        samples = 700 if chunk == 7 else 70_000
        for n in (1, setting.n_prime):
            assert_mc_matches_per_draw(setting, n, setting.n_prime, samples, 5, chunk)

    @pytest.mark.parametrize("chunk", MC_CHUNKS)
    def test_random_settings_match_per_draw_reference(self, chunk):
        rng = make_rng(38)
        for k in range(40):
            setting = random_setting(rng, max_items=4, max_support=4, max_bidders=4)
            assert_mc_matches_per_draw(setting, setting.n, setting.n_prime, 1500, k, chunk)

    def test_product_support_past_int64_matches_per_draw_reference(self, monkeypatch):
        # 70 binary items: the valuation code needs 70 bits.  The first items
        # take the top digits, so a code wrapped mod 2^64 would merge draws
        # that differ only there; most items barely move, so all draws would merge
        coin = make_item_distribution([1, 2], [0.5, 0.5])
        lopsided = make_item_distribution([1, 2], [1 - 1e-12, 1e-12])
        setting = AuctionSetting(
            items=(coin,) * 7 + (lopsided,) * 63, n=1, n_prime=3, caps=Caps(product_support=1 << 70)
        )
        assert setting.product_support_size > 1 << 63
        # 24 binary items fit int64 but not the presence table, so the
        # per-chunk rank sorts
        wide = AuctionSetting(items=(coin,) * 24, n=1, n_prime=3, caps=Caps(product_support=1 << 24))
        assert RANK_TABLE < wide.product_support_size < 1 << 63
        sorts = []
        unique = np.unique

        def counted_unique(*args, **kwargs):
            sorts.append(args[0].size)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted_unique)
        for chunk in MC_CHUNKS:
            assert_mc_matches_per_draw(setting, 2, 3, 3000 if chunk > 7 else 100, 8, chunk)
            sorts.clear()
            assert_mc_matches_per_draw(wide, 2, 3, 3000 if chunk > 7 else 100, 9, chunk)
            assert sorts

    def test_phi_once_per_distinct_valuation(self, monkeypatch):
        # 4 binary items: at most 16 distinct valuations per chunk, against
        # 200,000 x 8 drawn bidders; each kernel call stays within KERNEL_CELLS
        setting = load_config(CONFIGS / "near_uniform_many_items.json").setting
        assert setting.m == 4 and setting.product_support_size == 16
        rows = []

        def counted(vals, *args, **kwargs):
            rows.append(vals.size // vals.shape[-1])
            assert vals.size <= KERNEL_CELLS
            return region_kernel(vals, *args, **kwargs)

        def no_sort(*args, **kwargs):
            raise AssertionError("16 valuations rank through the presence table, not np.unique")

        # the package re-exports the function iu, so fetch the module itself
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "region_kernel", counted)
        monkeypatch.setattr(np, "unique", no_sort)
        monte_carlo_iu(setting, 8, 8, 200_000, seed=21)
        chunks = math.ceil(200_000 / (1 << 16))
        assert sum(rows) <= 16 * chunks


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
