"""Region logic, exact benchmark tables against joint enumeration, and the growth inequality."""

import importlib
import itertools
import math
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    step2_inequality_check,
    tie_break_independence_check,
)
from auctionbench.cli import load_config, run_analysis
from auctionbench.errors import EnumerationCapExceeded
from auctionbench.generators import random_setting
from auctionbench.iu import (
    COMPARE_ATOMS,
    KERNEL_CELLS,
    MC_STREAM,
    RANK_TABLE,
    TABLE_READS,
    _choice_edges,
    _draw_atoms,
    benchmark_values,
    region_kernel,
)
from auctionbench.dist import pad_rows, product_codes
from auctionbench.myerson import iron
from helpers import joint, random_law, reference_region_kernel, region_of

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def joint_region_probability(setting, v, j, n_prime):
    """Oracle: literal sum over the joint max-vector support."""
    maxvec = max_vector_distribution(setting, n_prime - 1)
    return sum(prob for m_vec, prob in joint(maxvec) if region_of(v, m_vec) == j)


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
    """Reference: the Monte-Carlo loop that evaluated Phi on every drawn bidder, on the reference kernel."""
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
        codes = np.empty((batch, n, setting.m), dtype=np.intp)
        for j, item in enumerate(setting.items):
            idx = rng.choice(len(item.values), size=(batch, n), p=item.probs_arr)
            vals[:, :, j] = item.values_arr[idx]
            codes[:, :, j] = idx
        stat = np.zeros(batch)
        for lo in range(0, batch, rows):
            part = vals[lo : lo + rows]
            p_region = reference_region_kernel(part, maxvec.per_item)
            phi = benchmark_values(codes[lo : lo + rows], p_region, setting.items)
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


def assert_mc_matches_per_draw(monkeypatch, setting, n, n_prime, samples, seed, chunk):
    monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "MC_CHUNK", chunk)
    got = monte_carlo_iu(setting, n, n_prime, samples, seed)
    assert tuple(got) == per_draw_monte_carlo_iu(setting, n, n_prime, samples, seed, chunk=chunk)


def estimator_peak(setting, n, n_prime, samples):
    """The tracemalloc peak of one monte_carlo_iu call.

    numpy imports numpy.random on first use, so the generator is warmed before
    tracing starts, or a run of one test alone traces that import too.
    """
    make_rng(0)
    tracemalloc.start()
    try:
        monte_carlo_iu(setting, n, n_prime, samples, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the default draw chunk, one that splits the samples, and a tiny one
MC_CHUNKS = [1 << 16, 7000, 7]


@st.composite
def choice_probs(draw):
    # both sides of the COMPARE_ATOMS rule; a mass of 2^-53 or 2^-60 of the total moves
    # the CDF by at most one ulp, so it puts two edges within one ulp or on one float
    atoms = draw(st.sampled_from([1, 2, 3, COMPARE_ATOMS - 1, COMPARE_ATOMS, COMPARE_ATOMS + 1]) | st.integers(4, 100))
    masses = st.floats(0.05, 1.0) | st.sampled_from([2.0**-53, 2.0**-60])
    weights = np.array(draw(st.lists(masses, min_size=atoms, max_size=atoms)))
    return weights / weights.sum()


def same_state(a, b):
    """Equal bit-generator states: nested dicts of ints, strings and uint64 arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


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
            for m_vec, _prob in joint(maxvec):
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
            fast = region_kernel(product_codes([len(item.values) for item in setting.items]), setting.items, maxvec)
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
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            laws = maxvec.per_item
            codes = np.stack([rng.choice(len(item.values), size=(4, 3)) for item in setting.items], axis=-1)
            vals = np.stack([item.values_arr[codes[..., j]] for j, item in enumerate(setting.items)], axis=-1)
            got = region_kernel(codes, setting.items, maxvec)
            for idx in np.ndindex(4, 3):
                v = tuple(vals[idx].tolist())
                assert got[idx].tolist() == [scalar_region_probability(v, j, laws) for j in range(setting.m)]

    def test_strict_ties_and_weights(self, setting_two_items):
        # one item per M coordinate, M ~ d2 each: at v = (2, 2) item 0 wins the
        # tie with item 1, which keeps its region only when M_1 < M_0
        maxvec = max_vector_distribution(setting_two_items, 1)
        v = np.array([[1, 1]])  # the atom codes of (2, 2)
        assert region_kernel(v, setting_two_items.items, maxvec).tolist() == [[0.75, 0.25]]


class TestKernelBlocks:
    """region_kernel walks its rows in blocks of KERNEL_CELLS // (m x most atoms of any M_j)."""

    def assert_blocks_change_no_bit(self, monkeypatch, codes, items, maxvec):
        """Blocks of one row and of five rows (the last one ragged unless rows divide by 5) against one block."""
        module = importlib.import_module("auctionbench.iu")
        cells = len(items) * max(len(law.values) for law in maxvec.per_item)
        assert codes.size // codes.shape[-1] * cells <= KERNEL_CELLS  # one block at the real cap
        whole = region_kernel(codes, items, maxvec)
        for rows in (1, 5):
            monkeypatch.setattr(module, "KERNEL_CELLS", rows * cells + cells - 1)
            blocked = region_kernel(codes, items, maxvec)
            monkeypatch.setattr(module, "KERNEL_CELLS", KERNEL_CELLS)
            assert blocked.shape == whole.shape and (blocked == whole).all()

    def test_drawn_settings(self, monkeypatch):
        rng = make_rng(38)
        ragged = 0
        for _ in range(25):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            codes = product_codes([len(item.values) for item in setting.items])
            ragged += len(codes) % 5 != 0
            self.assert_blocks_change_no_bit(monkeypatch, codes, setting.items, maxvec)
        assert ragged

    def test_sample_shaped_input(self, monkeypatch):
        # the (4, 3, m) inputs of TestRegionKernel.test_sample_shaped_input: 12 rows, so five-row
        # blocks cross the leading axis and end in a ragged block of two
        rng = make_rng(37)
        for _ in range(20):
            setting = random_setting(rng, max_items=3, max_support=3, max_ghosts=5)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            codes = np.stack([rng.choice(len(item.values), size=(4, 3)) for item in setting.items], axis=-1)
            self.assert_blocks_change_no_bit(monkeypatch, codes, setting.items, maxvec)

    def test_many_rows_peak_memory(self, monkeypatch):
        # the m = 16 Monte-Carlo shape: 16 binary items under 7 ghosts, 24,042 distinct rows
        # of 160,000 draws.  The (rows, m) output takes 2.9 MiB; with blocks of 2^16 cells
        # the peak is 6.2 MiB, and blocks of 2^18 cells take it to 15.9 MiB, with the same bits
        item = make_item_distribution([1, 1.25], [0.75, 0.25])
        setting = AuctionSetting(items=(item,) * 16, n=1, n_prime=8, caps=Caps(product_support=1 << 16))
        maxvec = max_vector_distribution(setting, 7)
        rng = make_rng(5)
        codes = np.unique(np.stack([rng.choice(2, 160_000, p=item.probs_arr) for _ in range(16)], axis=-1), axis=0)
        assert len(codes) > 24_000
        tracemalloc.start()
        try:
            whole = region_kernel(codes, setting.items, maxvec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "KERNEL_CELLS", 1 << 18)
        assert (region_kernel(codes, setting.items, maxvec) == whole).all()

    def test_cap_below_the_atom_count_gives_one_row_blocks(self, monkeypatch):
        # KERNEL_CELLS below the atom count still walks one row at a time
        setting = load_config(CONFIGS / "two_items.json").setting
        maxvec = max_vector_distribution(setting, 3)
        codes = np.array([[0, 1], [1, 0], [1, 1]])  # the valuations (1, 3), (2, 1) and (2, 3)
        whole = region_kernel(codes, setting.items, maxvec)
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "KERNEL_CELLS", 1)
        assert (region_kernel(codes, setting.items, maxvec) == whole).all()


class TestKernelReference:
    """region_kernel on atom codes against the float-valuation kernel it replaced (`reference_region_kernel`).

    Outputs are compared with == and sign bit by sign bit, so a -0.0 that turned +0.0 fails.
    """

    @staticmethod
    def assert_matches_reference(codes, items, maxvec):
        vals = np.stack([item.values_arr[codes[..., j]] for j, item in enumerate(items)], axis=-1)
        got = region_kernel(codes, items, maxvec)
        want = reference_region_kernel(vals, maxvec.per_item)
        assert got.shape == want.shape
        assert (got == want).all() and (np.signbit(got) == np.signbit(want)).all()

    @staticmethod
    def sample_codes(rng, items, shape):
        return np.stack([rng.integers(0, len(item.values), size=shape) for item in items], axis=-1)

    @staticmethod
    def grid_codes(items):
        return product_codes([len(item.values) for item in items])

    def test_seeded_draws(self):
        rng = make_rng(41)
        for _ in range(60):
            setting = random_setting(rng, max_items=4, max_support=4, max_ghosts=6)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            self.assert_matches_reference(self.grid_codes(setting.items), setting.items, maxvec)
            self.assert_matches_reference(self.sample_codes(rng, setting.items, (5, 7)), setting.items, maxvec)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tied_settings(), st.integers(0, 2**32 - 1))
    def test_drawn_tied_settings(self, setting, seed):
        maxvec = max_vector_distribution(setting, setting.n_prime - 1)
        self.assert_matches_reference(self.grid_codes(setting.items), setting.items, maxvec)
        self.assert_matches_reference(self.sample_codes(make_rng(seed), setting.items, (300,)), setting.items, maxvec)

    def test_both_lookup_paths(self, monkeypatch):
        # 300 rows hold TABLE_READS rows per cell of a table over supports of up to 4 atoms, so the
        # factors come from tables; one-row blocks (KERNEL_CELLS = 1, also one item per block) search
        module = importlib.import_module("auctionbench.iu")
        assert TABLE_READS * 4 * 4 <= 300
        rng = make_rng(42)
        for _ in range(30):
            setting = random_setting(rng, max_items=4, max_support=4, max_ghosts=6)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            codes = self.sample_codes(rng, setting.items, (300,))
            self.assert_matches_reference(codes, setting.items, maxvec)
            monkeypatch.setattr(module, "KERNEL_CELLS", 1)
            self.assert_matches_reference(codes, setting.items, maxvec)
            monkeypatch.setattr(module, "KERNEL_CELLS", KERNEL_CELLS)

    @pytest.mark.parametrize("cells", [TABLE_READS * 20 * 2 * 4, 20 * 20 * 2 * 4])
    def test_tables_across_blocks(self, monkeypatch, cells):
        # 20 binary items, 1,000 rows in blocks of cells // (20 x 2) >= TABLE_READS x 2^2 rows, so every block
        # reads factor tables.  The 20 tables of a call hold 20 x 20 x 2 x 4 cells: over the first cap, so
        # each block builds its own; within the second, so the first block's serve the rest
        module = importlib.import_module("auctionbench.iu")
        rng = make_rng(43)
        items = tuple(make_item_distribution([1 + j % 3, 2 + j % 5], [0.3 + j / 50, 0.7 - j / 50]) for j in range(20))
        setting = AuctionSetting(items=items, n=1, n_prime=3, caps=Caps(product_support=1 << 20))
        maxvec = max_vector_distribution(setting, 2)
        monkeypatch.setattr(module, "KERNEL_CELLS", cells)
        self.assert_matches_reference(self.sample_codes(rng, items, (1000,)), items, maxvec)

    @pytest.mark.parametrize("n_prime", [1, 2, 4])
    def test_one_item_reads_tables(self, monkeypatch, d3, n_prime):
        # one item's one rival step is the item itself: no slab on the search route, an all-ones table on the
        # table route, which TABLE_READS x S^2 rows of repeated codes take; one-row blocks search
        module = importlib.import_module("auctionbench.iu")
        built = []

        def counted_pad_rows(rows):
            built.append(len(rows))
            return pad_rows(rows)

        monkeypatch.setattr(module, "pad_rows", counted_pad_rows)
        maxvec = max_vector_distribution(AuctionSetting(items=(d3,), n=1, n_prime=n_prime), n_prime - 1)
        codes = np.tile(self.grid_codes((d3,)), (TABLE_READS * 3, 1))
        assert len(codes) == TABLE_READS * 3 * 3
        self.assert_matches_reference(codes, (d3,), maxvec)
        assert built == [1]
        monkeypatch.setattr(module, "KERNEL_CELLS", 1)
        self.assert_matches_reference(codes, (d3,), maxvec)
        assert built == [1]

    @pytest.mark.parametrize("n_prime", [1, 2, 5])
    def test_laws_of_one_width(self, monkeypatch, d3, n_prime):
        # three items on tying grids, each M_j with three atoms (one at n' = 1): no row of the padded laws is
        # padded, so each row's last atom is the last column.  300 rows read tables and add slice by slice;
        # one-row blocks search and accumulate
        module = importlib.import_module("auctionbench.iu")
        items = (d3, make_item_distribution([0, 1, 5], [0.5, 0.25, 0.25]), d3)
        maxvec = max_vector_distribution(AuctionSetting(items=items, n=1, n_prime=n_prime), n_prime - 1)
        mu, _, last = maxvec.padded
        assert (last == mu.shape[1] - 1).all()
        codes = self.sample_codes(make_rng(44), items, (300,))
        assert TABLE_READS * 3 * 3 <= 300
        self.assert_matches_reference(codes, items, maxvec)
        self.assert_matches_reference(self.grid_codes(items), items, maxvec)
        monkeypatch.setattr(module, "KERNEL_CELLS", 1)
        self.assert_matches_reference(codes, items, maxvec)

    def test_one_row_of_1024_binary_items_within_a_second(self):
        # 1,024 rival steps of one (1024, 2, 1) block; the (item, rival) pair loop took about 3 s here
        r = np.random.default_rng(1)
        items = []
        for j in range(1024):
            w = r.random(2) + 0.05
            items.append(make_item_distribution([1, 2 + j % 3], (w / w.sum()).tolist()))
        setting = AuctionSetting(items=tuple(items), n=1, n_prime=2, caps=Caps(product_support=1 << 20))
        maxvec = max_vector_distribution(setting, 1)
        codes = r.integers(0, 2, size=(1, 1024))
        maxvec.padded  # the law's constants are built once per law, not timed here
        start = time.perf_counter()
        region_kernel(codes, setting.items, maxvec)
        assert time.perf_counter() - start < 1.0


class TestIU:
    def test_once_per_bidder_count(self, monkeypatch):
        # exact analyze reads IU(n) and IU(n') in several checks; each is evaluated once, one
        # E[max] fold per item, on configs/two_items.json (n = 1, n' = 3)
        module = importlib.import_module("auctionbench.iu")
        folds = Counter()
        fold = module.iid_max_expectation

        def counted(law, n):
            folds[n] += 1
            return fold(law, n)

        monkeypatch.setattr(module, "iid_max_expectation", counted)
        cfg = load_config(CONFIGS / "two_items.json")
        run_analysis(cfg)
        assert {n: count / cfg.setting.m for n, count in folds.items()} == {1: 1, 3: 1}

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

    def test_chunk_shrinks_to_the_cap(self, monkeypatch, d2, d3):
        # 2 bidders x 2 items x 2 items x 3 atoms = 24 region-kernel cells per sample, the
        # most a cap of 24 allows; it holds 24 // (2 x 2) = 6 samples per chunk, the same
        # stream as a MC_CHUNK of 6
        capped = AuctionSetting(items=(d2, d3), n=2, n_prime=3, caps=Caps(joint_terms=24))
        free = AuctionSetting(items=(d2, d3), n=2, n_prime=3)
        capped_est, free_est = monte_carlo_iu(capped, 2, 3, 50, seed=4), monte_carlo_iu(free, 2, 3, 50, seed=4)
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "MC_CHUNK", 6)
        assert capped_est == monte_carlo_iu(free, 2, 3, 50, seed=4)
        assert free_est != monte_carlo_iu(free, 2, 3, 50, seed=4)
        with pytest.raises(EnumerationCapExceeded, match="^24 region-kernel cells per sample exceed cap 23$"):
            monte_carlo_iu(AuctionSetting(items=(d2, d3), n=2, n_prime=3, caps=Caps(joint_terms=23)), 2, 3, 50, seed=4)

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
    def test_configs_match_per_draw_reference(self, monkeypatch, name, chunk):
        # estimate and SE equal (==) to Phi evaluated on every drawn bidder
        setting = load_config(CONFIGS / f"{name}.json").setting
        samples = 700 if chunk == 7 else 70_000
        for n in (1, setting.n_prime):
            assert_mc_matches_per_draw(monkeypatch, setting, n, setting.n_prime, samples, 5, chunk)

    @pytest.mark.parametrize("chunk", MC_CHUNKS)
    def test_random_settings_match_per_draw_reference(self, monkeypatch, chunk):
        rng = make_rng(38)
        for k in range(40):
            setting = random_setting(rng, max_items=4, max_support=4, max_bidders=4)
            assert_mc_matches_per_draw(monkeypatch, setting, setting.n, setting.n_prime, 1500, k, chunk)

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
            assert_mc_matches_per_draw(monkeypatch, setting, 2, 3, 3000 if chunk > 7 else 100, 8, chunk)
            sorts.clear()
            assert_mc_matches_per_draw(monkeypatch, wide, 2, 3, 3000 if chunk > 7 else 100, 9, chunk)
            assert sorts

    @pytest.mark.parametrize("chunk", [1 << 16, 7])
    def test_narrow_code_boundaries_match_per_draw_reference(self, monkeypatch, chunk):
        # product supports on each side of the 8- and 16-bit code types: 8 and 16 binary
        # items, and one item of 257 or 65,537 equal-mass atoms (both primes), the wider
        # one under no ghosts (n' = 1), so its kernel reads one atom.  3,000 draws reach all 257 atoms
        # of the one item, so its ranks take 16 bits; 7 draws a chunk rank in 8.  One item of 256
        # or 65,536 atoms, alone or between point masses (radix still 1), is a support whose codes
        # fit the narrower type, but the fold multiplies by the atom count, so the code is wider
        coin = make_item_distribution([1, 2], [0.5, 0.5])
        point = make_item_distribution([1], [1.0])

        def flat(atoms):
            return make_item_distribution(list(range(1, atoms + 1)), [1 / atoms] * atoms)

        module = importlib.import_module("auctionbench.iu")
        rank = module._rank
        types = set()

        def recorded(code, radix):
            distinct, inverse = rank(code, radix)
            types.add((code.dtype, inverse.dtype))
            return distinct, inverse

        monkeypatch.setattr(module, "_rank", recorded)
        cases = [  # items, n', code type, rank type in a chunk of 3,000 draws
            ((coin,) * 8, 3, np.uint8, np.uint8),
            ((flat(256),), 3, np.uint16, np.uint8),
            ((point, flat(256), point), 3, np.uint16, np.uint8),
            ((flat(257),), 3, np.uint16, np.uint16),
            ((coin,) * 16, 3, np.uint16, np.uint16),
            ((flat(65_536),), 1, np.uint32, np.uint16),
            ((point, flat(65_536)), 1, np.uint32, np.uint16),
            ((flat(65_537),), 1, np.uint32, np.uint16),
        ]
        for items, n_prime, code_type, rank_type in cases:
            setting = AuctionSetting(items=items, n=1, n_prime=n_prime, caps=Caps(product_support=1 << 17))
            types.clear()
            assert_mc_matches_per_draw(monkeypatch, setting, 1, n_prime, 3000 if chunk > 7 else 100, 10, chunk)
            assert types == {(np.dtype(code_type), np.dtype(rank_type if chunk > 7 else np.uint8))}

    @settings(max_examples=80, deadline=None)
    @given(probs=choice_probs(), key=st.integers(0, 2**64 - 1), size=st.integers(1, 3000))
    # a last mass of 2^-60 puts the last edge on 1.0, which no word reaches: by comparison,
    # and past COMPARE_ATOMS atoms by binary search
    @example(probs=np.array([0.5, 0.5, 2.0**-60]), key=1, size=3000)
    @example(probs=np.append(np.full(COMPARE_ATOMS + 35, 1 / (COMPARE_ATOMS + 35)), 2.0**-60), key=2, size=3000)
    def test_draw_atoms_is_generator_choice(self, probs, key, size):
        # the same Philox key gives choice's indices and leaves the same state,
        # so both draws read the same uniforms; this pins the draw to the numpy it runs on
        want_rng, got_rng = make_rng(key), make_rng(key)
        want = want_rng.choice(len(probs), size=size, p=probs)
        out = np.empty(size, dtype=np.min_scalar_type(len(probs) - 1))
        assert np.array_equal(_draw_atoms(got_rng, _choice_edges(probs), out), want)
        assert same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)

    @settings(max_examples=80, deadline=None)
    @given(probs=choice_probs())
    @example(probs=np.array([0.5, 0.5, 2.0**-60]))
    def test_choice_edges_are_the_least_words_at_each_edge(self, probs):
        # choice's uniform of a raw word w is (w >> 11) x 2^-53: each threshold word is
        # the least whose uniform reaches its edge, and only edges of 1.0 are dropped
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        edges = cdf[:-1]
        words = _choice_edges(probs)
        assert (edges[len(words) :] == 1.0).all() and (edges[: len(words)] < 1.0).all()

        def uniform(word):
            return (word >> np.uint64(11)).astype(np.float64) * 2.0**-53

        reached = edges[: len(words)]
        assert (uniform(words) >= reached).all()
        assert (uniform(words[words > 0] - np.uint64(1)) < reached[words > 0]).all()

    @pytest.mark.parametrize("chunk", MC_CHUNKS)
    def test_wide_and_single_atom_items_match_per_draw_reference(self, monkeypatch, chunk, point_mass, d3):
        # a 70-atom item draws by binary search, the point mass from no edges at all
        weights = make_rng(40).random(70) + 0.05
        wide = make_item_distribution(list(range(1, 71)), (weights / weights.sum()).tolist())
        assert len(wide.values) > COMPARE_ATOMS and len(point_mass.values) == 1
        setting = AuctionSetting(items=(wide, point_mass, d3), n=2, n_prime=3)
        assert_mc_matches_per_draw(monkeypatch, setting, 2, 3, 3000 if chunk > 7 else 100, 6, chunk)

    def test_chunk_transient_memory(self):
        # one full chunk: 65,536 samples x 8 bidders x 4 binary items, 524,288 drawn
        # valuations.  One item's atom indices, the codes, the ranks and the ranks' (n, batch)
        # copy take a byte each, and raw words and intp indices come DRAW_SLICE at a time:
        # the peak is 3.1 MiB.  Every item's indices at once (1.5 MiB more) or one item's raw
        # words at once (4 MiB) passes the bound
        setting = load_config(CONFIGS / "near_uniform_many_items.json").setting
        assert estimator_peak(setting, 8, 8, 1 << 16) <= 4 << 20

    def test_many_items_estimator_memory(self):
        # the m = 16 benchmark shape: 16 binary items, n = n' = 8, 20,000 samples, one chunk of
        # 160,000 drawn valuations, about 24,000 distinct.  Their P and Phi share one (rows, m)
        # float64 buffer: the peak is 7.5 MiB, and a second 2.9 MiB buffer passes the bound
        item = make_item_distribution([1, 1.25], [0.75, 0.25])
        setting = AuctionSetting(items=(item,) * 16, n=1, n_prime=8, caps=Caps(product_support=1 << 16))
        assert estimator_peak(setting, 8, 8, 20_000) <= 8 << 20

    def test_many_distinct_rows_estimator_memory(self):
        # 64 binary items at n' = 40, 400 samples: 16,000 drawn valuations, almost all
        # distinct, so the (rows, m) float64 buffer takes 7.8 MiB.  The code passes
        # _CODE_LIMIT at the last item and is re-ranked by a sort.  The peak is 13.7 MiB, and
        # a second such buffer passes the bound
        coin = make_item_distribution([1, 2], [0.5, 0.5])
        setting = AuctionSetting(items=(coin,) * 64, n=8, n_prime=40, caps=Caps(product_support=1 << 64))
        assert estimator_peak(setting, 40, 40, 400) <= 16 << 20

    def test_phi_once_per_distinct_valuation(self, monkeypatch):
        # 4 binary items: at most 16 distinct valuations per chunk, against
        # 200,000 x 8 drawn bidders; each kernel call stays within KERNEL_CELLS
        setting = load_config(CONFIGS / "near_uniform_many_items.json").setting
        assert setting.m == 4 and setting.product_support_size == 16
        rows = []

        def counted(codes, *args, **kwargs):
            rows.append(codes.size // codes.shape[-1])
            assert codes.size <= KERNEL_CELLS
            return region_kernel(codes, *args, **kwargs)

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
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "TIE_BREAK_CAP", 10)
        with pytest.raises(EnumerationCapExceeded):
            tie_break_independence_check(law, 4)  # 3^4 = 81 tuples

    def test_cap_is_inclusive(self, monkeypatch):
        law = make_item_distribution([1, 2, 3], [0.2, 0.5, 0.3])
        monkeypatch.setattr(importlib.import_module("auctionbench.iu"), "TIE_BREAK_CAP", 9)
        assert tie_break_independence_check(law, 2) <= 1e-12

    def test_seeded_laws(self):
        rng = make_rng(36)
        for _ in range(20):
            law = random_law(rng, max_support=4)
            for k in range(1, 5):
                assert tie_break_independence_check(law, k) <= 1e-12
