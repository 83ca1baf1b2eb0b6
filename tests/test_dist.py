"""Distribution construction, order statistics against brute force, and the probability facts."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    ScalarDistribution,
    chebyshev_check,
    iid_max_expectation,
    iid_second_max_expectation,
    make_item_distribution,
    make_rng,
    max_vector_distribution,
    variance,
    variance_ub_check,
)
from auctionbench.dist import segmented_from_atoms
from auctionbench.errors import (
    EmptySupport,
    EnumerationCapExceeded,
    NegativeValue,
    NonPositiveProbability,
    ProbabilityMassError,
    TooFewBidders,
)
from auctionbench.generators import random_law


def brute_force_order_stat(law, n, which):
    """E of the max (which=1) or second max (which=2) by full enumeration."""
    total = 0.0
    for combo in itertools.product(range(len(law.values)), repeat=n):
        prob = math.prod(law.probs[i] for i in combo)
        draws = sorted((law.values[i] for i in combo), reverse=True)
        total += prob * draws[which - 1]
    return total


class TestConstruction:
    def test_two_point(self, d2):
        assert d2.cdf(1) == 0.5
        assert d2.cdf(2) == 1.0

    def test_point_mass(self, point_mass):
        assert point_mass.cdf(1) == 1.0

    def test_sort_on_construct(self):
        item = make_item_distribution([2, 1], [0.25, 0.75])
        assert item.values == (1.0, 2.0)
        assert item.probs == (0.75, 0.25)

    def test_duplicate_values_merged(self):
        item = make_item_distribution([1, 1, 2], [0.25, 0.25, 0.5])
        assert item.values == (1.0, 2.0)
        assert item.probs == (0.5, 0.5)

    def test_renormalizes_small_drift(self):
        item = make_item_distribution([1, 2], [0.5 + 1e-7, 0.5])
        assert abs(sum(item.probs) - 1.0) <= 1e-12

    def test_errors(self):
        with pytest.raises(NegativeValue):
            make_item_distribution([-1, 2], [0.5, 0.5])
        with pytest.raises(EmptySupport):
            make_item_distribution([], [])
        with pytest.raises(NonPositiveProbability):
            make_item_distribution([1, 2], [0.0, 1.0])
        with pytest.raises(ProbabilityMassError):
            make_item_distribution([1, 2], [0.5, 0.4])

    def test_cdf_monotone_ends_at_one(self):
        rng = make_rng(90)
        for _ in range(50):
            law = random_law(rng)
            cdf = [law.cdf(x) for x in law.values]
            assert all(b >= a for a, b in zip(cdf, cdf[1:]))
            assert cdf[-1] == 1.0

    def test_setting_cap(self, d2):
        with pytest.raises(TooFewBidders):
            AuctionSetting(items=(d2,), n=2, n_prime=1)
        big = make_item_distribution(list(range(1, 18)), [1 / 17] * 17)
        with pytest.raises(EnumerationCapExceeded):
            AuctionSetting(items=(big,) * 3, n=1, n_prime=2)


# laws as atom lists: values repeat so atoms merge, some masses are zero, and
# a law can have more than 8 atoms (numpy sums pairwise from 8 on)
_ATOMS = st.lists(
    st.tuples(st.sampled_from([k / 10 for k in range(16)]), st.sampled_from([0.0, 0.1, 1.0, 2.0, 3.0, 7.0])),
    min_size=1,
    max_size=30,
).filter(lambda atoms: any(p > 0 for _, p in atoms))


class TestSegmentedFromAtoms:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ATOMS, min_size=1, max_size=5))
    def test_matches_from_atoms_bit_for_bit(self, laws):
        laws = [[(v, p / sum(q for _, q in atoms)) for v, p in atoms] for atoms in laws]
        seg = np.repeat(np.arange(len(laws)), [len(atoms) for atoms in laws])
        values = np.array([v for atoms in laws for v, _ in atoms])
        weights = np.array([p for atoms in laws for _, p in atoms])
        got = segmented_from_atoms(seg, values, weights, len(laws)).laws()
        assert got == [ScalarDistribution.from_atoms(atoms) for atoms in laws]

    def test_rejects_what_from_atoms_rejects(self):
        seg = np.array([0, 0])
        with pytest.raises(NonPositiveProbability):
            segmented_from_atoms(seg, np.array([1.0, 2.0]), np.array([1.5, -0.5]), 1)
        with pytest.raises(EmptySupport):
            segmented_from_atoms(seg, np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1)
        with pytest.raises(ProbabilityMassError):
            segmented_from_atoms(seg, np.array([1.0, 2.0]), np.array([0.5, 0.4]), 1)


class TestMaxVector:
    def test_k1_identity(self, setting_d2, d2):
        law = max_vector_distribution(setting_d2, 1).per_item[0]
        assert law.values == d2.values
        assert law.probs == pytest.approx(d2.probs)

    def test_k2_cdf_exponentiation(self, setting_d2):
        law = max_vector_distribution(setting_d2, 2).per_item[0]
        assert dict(zip(law.values, law.probs)) == pytest.approx({1.0: 0.25, 2.0: 0.75})

    def test_k0_point_mass_at_zero(self, setting_two_items):
        mv = max_vector_distribution(setting_two_items, 0)
        for law in mv.per_item:
            assert law.values == (0.0,)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_cdf_power_invariant(self, setting_d3, k):
        item = setting_d3.items[0]
        law = max_vector_distribution(setting_d3, k).per_item[0]
        for x in item.values:
            assert law.cdf(x) == pytest.approx(item.cdf(x) ** k, abs=1e-12)


class TestOrderStatistics:
    def test_max_two_point(self):
        law = ScalarDistribution((0.0, 2.0), (0.5, 0.5))
        assert iid_max_expectation(law, 2) == pytest.approx(1.5)

    def test_max_point_mass(self):
        assert iid_max_expectation(ScalarDistribution.point_mass(3.0), 7) == 3.0

    def test_max_n1_is_mean(self, d2):
        assert iid_max_expectation(d2, 1) == pytest.approx(1.5)

    def test_second_max_examples(self, d2):
        assert iid_second_max_expectation(d2, 2) == pytest.approx(1.25)
        assert iid_second_max_expectation(d2, 3) == pytest.approx(1.5)
        assert iid_second_max_expectation(ScalarDistribution.point_mass(4.0), 3) == 4.0

    def test_second_max_needs_two(self, d2):
        with pytest.raises(TooFewBidders):
            iid_second_max_expectation(d2, 1)

    def test_against_brute_force(self):
        rng = make_rng(42)
        for _ in range(30):
            law = random_law(rng, max_support=4)
            for n in range(1, 5):
                assert iid_max_expectation(law, n) == pytest.approx(
                    brute_force_order_stat(law, n, 1), abs=1e-12
                )
                if n >= 2:
                    assert iid_second_max_expectation(law, n) == pytest.approx(
                        brute_force_order_stat(law, n, 2), abs=1e-12
                    )

    def test_max_monotone_in_n(self):
        rng = make_rng(1)
        for _ in range(20):
            law = random_law(rng)
            values = [iid_max_expectation(law, n) for n in range(1, 6)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_second_max_below_max(self):
        rng = make_rng(2)
        for _ in range(20):
            law = random_law(rng)
            for n in range(2, 5):
                assert iid_second_max_expectation(law, n) <= iid_max_expectation(law, n) + 1e-12


class TestVariance:
    def test_examples(self):
        assert variance(ScalarDistribution((0.0, 1.0), (0.5, 0.5))) == pytest.approx(0.25)
        assert variance(ScalarDistribution.point_mass(5.0)) == 0.0
        assert variance(ScalarDistribution((0.0, 2.0), (0.5, 0.5))) == pytest.approx(1.0)

    def test_ub_examples(self):
        lhs, rhs, holds = variance_ub_check(ScalarDistribution((0.0, 2.0), (0.5, 0.5)))
        assert (lhs, rhs) == pytest.approx((2.0, 4.0))
        assert holds
        lhs, rhs, holds = variance_ub_check(ScalarDistribution.point_mass(1.0))
        assert (lhs, rhs) == pytest.approx((1.0, 2.0))
        assert holds
        assert variance_ub_check(ScalarDistribution((1.0, 10.0), (0.9, 0.1))).holds

    def test_ub_rejects_negative(self):
        with pytest.raises(NegativeValue):
            variance_ub_check(ScalarDistribution((-1.0, 1.0), (0.5, 0.5)))

    def test_ub_on_seeded_laws(self):
        rng = make_rng(3)
        for _ in range(1000):
            assert variance_ub_check(random_law(rng)).holds

    def test_chebyshev_on_seeded_laws(self):
        rng = make_rng(4)
        for _ in range(200):
            law = random_law(rng)
            for a in (0.1, 0.5, 1.0, 3.0):
                assert chebyshev_check(law, a).holds


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
@example(atoms=[(100.0, 1.0), (99.99999999999999, 1.0)])  # E[X^2] - E[X]^2 gave -1.8e-12 here
def test_variance_ub_property(atoms):
    total = sum(p for _, p in atoms)
    law = ScalarDistribution.from_atoms(((v, p / total) for v, p in atoms), renorm_tol=1e-6)
    assert variance_ub_check(law).holds
    assert variance(law) >= -1e-12


@given(st.integers(min_value=0, max_value=63))
def test_rng_determinism(stream):
    a = make_rng(123, stream).integers(0, 2**31, size=8)
    b = make_rng(123, stream).integers(0, 2**31, size=8)
    assert np.array_equal(a, b)


def test_rng_keys_every_64_bit_seed():
    # seeds at or above 2^63, negative ones among them, keep their own streams
    def draws(seed):
        return make_rng(seed).integers(0, 2**31, size=8).tolist()

    assert draws(-1) == draws(2**64 - 1)
    assert len({tuple(draws(s)) for s in (0, -1, -2, 2**63, 2**63 + 1)}) == 5
