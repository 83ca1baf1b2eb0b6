"""Finite discrete distributions, product settings, and exact order statistics.

Everything here is a pure function over immutable values, so the module is
safe for unrestricted concurrent read use.  Monte-Carlo sampling elsewhere in
the package derives its generators from :func:`make_rng`, which splits
substreams from the root seed with a counter-based (Philox) scheme.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptySupport,
    EnumerationCapExceeded,
    NegativeValue,
    NonPositiveProbability,
    ProbabilityMassError,
    TooFewBidders,
    size_text,
)
from .report import CHECK_TOL, CheckRecord

if TYPE_CHECKING:
    from .myerson import IronedTable

# Tolerance for construction-time invariants (mass sums, CDF endpoints).
MASS_TOL = 1e-12

# Largest deviation of input probability mass from 1 that is silently
# renormalized; anything larger is treated as a bug in the input.
RENORM_TOL = 1e-6

Valuation = tuple[float, ...]
MaxVector = tuple[float, ...]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed.

    Substreams are split counter-style by keying Philox with (seed, stream),
    so results do not depend on how work is scheduled.
    """
    # an explicit uint64 key: numpy reads a list with an entry of 2^63 or more as float64,
    # which merges nearby seeds and overflows the cast at 2^64 - 1 (seed -1)
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Caps:
    """Enumeration caps; exceeding one raises EnumerationCapExceeded.

    `product_support` bounds each product grid built (valuations, ghost max vectors, the dual grid); `joint_terms`
    bounds valuations x max vectors, flow entries, posted prices and one Monte-Carlo sample's region-kernel cells.
    """

    product_support: int = 4096
    joint_terms: int = 1 << 24


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class ScalarDistribution:
    """Law of a scalar random variable with finitely many atoms.

    `values` are strictly increasing; `probs` are positive and sum to 1
    within MASS_TOL.  Use :meth:`from_atoms` to build one from unsorted or
    duplicated input.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]
    values_arr: np.ndarray = field(init=False, repr=False, compare=False)
    probs_arr: np.ndarray = field(init=False, repr=False, compare=False)
    cdf_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise EmptySupport("distribution needs at least one atom")
        if len(self.values) != len(self.probs):
            raise ProbabilityMassError("values and probs must have equal length")
        if not all(map(operator.lt, self.values, self.values[1:])):
            raise ProbabilityMassError("values must be strictly increasing")
        if min(self.probs) <= 0:
            raise NonPositiveProbability("all atom probabilities must be positive")
        # written so that a NaN mass, which fails every comparison, is refused
        if not abs(sum(self.probs) - 1.0) <= MASS_TOL:
            raise ProbabilityMassError("probabilities must sum to 1")
        probs_arr = np.asarray(self.probs, dtype=np.float64)
        cdf = np.cumsum(probs_arr)
        cdf[-1] = 1.0
        object.__setattr__(self, "values_arr", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "probs_arr", probs_arr)
        object.__setattr__(self, "cdf_arr", cdf)

    @classmethod
    def from_atoms(
        cls, pairs: Iterable[tuple[float, float]], renorm_tol: float = RENORM_TOL
    ) -> "ScalarDistribution":
        """Sort, merge equal values, drop zero masses, renormalize."""
        merged: dict[float, float] = {}
        for v, p in pairs:
            if not p >= 0:
                raise NonPositiveProbability(f"negative or NaN probability {p!r}")
            if p > 0:
                merged[float(v)] = merged.get(float(v), 0.0) + float(p)
        if not merged:
            raise EmptySupport("no atoms with positive probability")
        # left to right in order of first occurrence, which sum() does not
        # promise (3.12+ compensates)
        total = functools.reduce(operator.add, merged.values())
        if abs(total - 1.0) > renorm_tol:
            raise ProbabilityMassError(f"probability mass {total} too far from 1")
        values = tuple(sorted(merged))
        probs = tuple(merged[v] / total for v in values)
        return cls(values, probs)

    @classmethod
    def point_mass(cls, value: float) -> "ScalarDistribution":
        return cls((float(value),), (1.0,))

    def cdf(self, x: float) -> float:
        """Pr(X <= x)."""
        idx = self.values_arr.searchsorted(x, side="right")
        return 0.0 if idx == 0 else float(self.cdf_arr[idx - 1])

    def prob_below(self, x: float) -> float:
        """Pr(X < x)."""
        idx = self.values_arr.searchsorted(x, side="left")
        return 0.0 if idx == 0 else float(self.cdf_arr[idx - 1])

    def tail(self, x: float) -> float:
        """Pr(X >= x)."""
        return 1.0 - self.prob_below(x)

    def expectation(self) -> float:
        return float(np.dot(self.values_arr, self.probs_arr))

    def second_moment(self) -> float:
        return float(np.dot(self.values_arr**2, self.probs_arr))

    def variance(self) -> float:
        # centred, so roundoff cannot make it negative (E[X^2] - E[X]^2 can)
        return float(np.dot((self.values_arr - self.expectation()) ** 2, self.probs_arr))

    def posted_revenue(self, x: float | np.ndarray) -> np.ndarray:
        """Best posted revenue above x: max over atoms y > x of y Pr(X >= y), 0 if none; `x` may be an array."""
        revenue = self.values_arr * (1.0 - np.concatenate(([0.0], self.cdf_arr[:-1])))
        # the suffix max of y Pr(X >= y), read at the first atom above x
        best = np.append(np.maximum.accumulate(revenue[::-1])[::-1], 0.0)
        return best[self.values_arr.searchsorted(x, side="right")]

    def map_through(self, fn: Callable[[float], float]) -> "ScalarDistribution":
        """Law of fn(X); equal images are merged."""
        return ScalarDistribution.from_atoms(
            ((fn(v), p) for v, p in zip(self.values, self.probs)), renorm_tol=MASS_TOL * 10
        )

    def convolve(self, other: "ScalarDistribution") -> "ScalarDistribution":
        """Law of X + Y for independent X ~ self, Y ~ other."""
        pairs = [
            (a + b, pa * pb)
            for a, pa in zip(self.values, self.probs)
            for b, pb in zip(other.values, other.probs)
        ]
        return ScalarDistribution.from_atoms(pairs, renorm_tol=MASS_TOL * 10)


def product_grid(laws: Sequence[ScalarDistribution], cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The product of independent laws in ``itertools.product`` order: (K, m) values and K probabilities.

    Each probability is the product of its per-law masses taken left to right, as ``math.prod`` takes it.
    K above `cap` raises EnumerationCapExceeded before anything is built; this is the one product-support check.
    """
    sizes = [len(law.values) for law in laws]
    if (size := math.prod(sizes)) > cap:
        raise EnumerationCapExceeded(f"product support size {size_text(size)} exceeds cap {cap}")
    index = product_codes(sizes).T
    values = np.stack([law.values_arr[ix] for law, ix in zip(laws, index)], axis=1)
    return values, functools.reduce(operator.mul, [law.probs_arr[ix] for law, ix in zip(laws, index)])


def product_codes(sizes: Sequence[int]) -> np.ndarray:
    """The atom indices of each cell of the product of laws with `sizes` atoms, (K, m) in ``product_grid`` order."""
    return np.indices(sizes).reshape(len(sizes), -1).T


class ItemDistribution(ScalarDistribution):
    """One item's value distribution: non-negative support, all atoms charged; `ironed` is built once."""

    ironed: IronedTable

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.values[0] >= 0 and self.values[-1] < math.inf):
            raise NegativeValue("item values must be finite and non-negative")
        from .myerson import iron  # myerson imports this module

        object.__setattr__(self, "ironed", iron(self))


def make_item_distribution(values: Sequence[float], probs: Sequence[float]) -> ItemDistribution:
    """Build an item distribution with :meth:`ScalarDistribution.from_atoms`.

    Values and probabilities are paired position by position, every
    probability must be positive, and the mass is renormalized when its sum
    is within RENORM_TOL of 1; larger deviations raise ProbabilityMassError.
    """
    if len(values) != len(probs):
        raise ProbabilityMassError("values and probs must have equal length")
    if any(p <= 0 for p in probs):
        raise NonPositiveProbability("probabilities must be positive")
    return ItemDistribution.from_atoms(zip(values, probs))


@dataclass(frozen=True)
class AuctionSetting:
    """m independent items sold to n i.i.d. additive bidders.

    `n_prime` is the enhanced bidder count used by the benchmark machinery
    and `epsilon` the revenue slack parameter; both are carried here so the
    whole pipeline shares one immutable description of the instance.
    """

    items: tuple[ItemDistribution, ...]
    n: int
    n_prime: int
    epsilon: float = 1.0
    caps: Caps = field(default=DEFAULT_CAPS)

    def __post_init__(self) -> None:
        if len(self.items) < 1:
            raise EmptySupport("need at least one item")
        if self.n < 1:
            raise TooFewBidders("need n >= 1")
        if self.n_prime < self.n:
            raise TooFewBidders("need n_prime >= n")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")

    @property
    def m(self) -> int:
        return len(self.items)

    @cached_property
    def product_support_size(self) -> int:
        return math.prod(len(d.values) for d in self.items)

    def valuations(self) -> tuple[tuple[Valuation, ...], np.ndarray]:
        """Enumerate the product support with joint probabilities, within caps.product_support."""
        values, probs = product_grid(self.items, self.caps.product_support)
        return tuple(map(tuple, values.tolist())), probs


@dataclass(frozen=True)
class MaxVectorDistribution:
    """Law of the coordinate-wise maximum of k i.i.d. draws from the product.

    Components are independent, so the law is stored in product form: one
    scalar law per item with CDF F_j(x)^k.  k = 0 is the empty max, the point
    mass at the all-zeros vector.
    """

    per_item: tuple[ScalarDistribution, ...]

    def joint_size(self) -> int:
        return math.prod(len(d.values) for d in self.per_item)

    @cached_property
    def padded(self) -> PaddedLaws:
        """The per-item laws as rows of (m, most atoms) arrays, built once per law."""
        laws = self.per_item
        sizes = [len(law.values) for law in laws]
        probs = np.zeros((len(laws), max(sizes)))
        for law, size, p in zip(laws, sizes, probs):
            p[:size] = law.probs_arr
        return PaddedLaws(pad_rows([law.values_arr for law in laws]), probs, np.array(sizes) - 1)

    @cached_property
    def survivals(self) -> tuple[np.ndarray, ...]:
        """Per item, Pr(M_j > values[i - 1]) at i and 1 at i = 0: read at a `searchsorted` count of atoms."""
        return tuple(np.concatenate(([1.0], 1.0 - law.cdf_arr)) for law in self.per_item)


class PaddedLaws(NamedTuple):
    """Per-item laws as rows of (m, most atoms) arrays, each row padded at mass 0 with its last value."""

    values: np.ndarray
    probs: np.ndarray
    last: np.ndarray  # each row's last real atom


def pad_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """`rows` stacked into a (len(rows), longest) float64 array, each padded with its last entry."""
    out = np.empty((len(rows), max(len(row) for row in rows)))
    for row, dest in zip(rows, out):
        dest[: len(row)], dest[len(row) :] = row, row[-1]
    return out


def max_vector_distribution(setting: AuctionSetting, k: int) -> MaxVectorDistribution:
    """Exact law of max over k ghost draws; k = 0 is the all-zeros point mass."""
    if k < 0:
        raise TooFewBidders("k must be non-negative")
    if k == 0:
        return MaxVectorDistribution(tuple(ScalarDistribution.point_mass(0.0) for _ in setting.items))
    per_item = []
    for dist in setting.items:
        cdf_k = dist.cdf_arr**k
        pmf = np.diff(cdf_k, prepend=0.0)
        per_item.append(
            ScalarDistribution.from_atoms(zip(dist.values, pmf.tolist()), renorm_tol=MASS_TOL * 10)
        )
    return MaxVectorDistribution(tuple(per_item))


def iid_max_expectation(law: ScalarDistribution, n: int) -> float:
    """E[max of n i.i.d. draws], exact: sum_s s (F(s)^n - F(s-)^n)."""
    if n < 1:
        raise TooFewBidders("n must be >= 1")
    cdf = law.cdf_arr
    pmf_max = cdf**n - np.concatenate(([0.0], cdf[:-1])) ** n
    return float(np.dot(law.values_arr, pmf_max))


def iid_second_max_expectation(law: ScalarDistribution, n: int) -> float:
    """E[second-highest of n i.i.d. draws], exact.

    Uses Pr(2nd max <= s) = F(s)^n + n F(s)^(n-1) (1 - F(s)).
    """
    if n < 2:
        raise TooFewBidders("second order statistic needs n >= 2")
    cdf = law.cdf_arr
    g = cdf**n + n * cdf ** (n - 1) * (1.0 - cdf)
    pmf = g - np.concatenate(([0.0], g[:-1]))
    return float(np.dot(law.values_arr, pmf))


def variance_ub_check(law: ScalarDistribution, tol: float = CHECK_TOL) -> CheckRecord:
    """Second-moment bound for non-negative laws.

    lhs = E[X^2]; rhs = 2 (max_x x Pr(X >= x)) max(X).  Since Var <= E[X^2],
    lhs <= rhs also bounds the variance.
    """
    if law.values[0] < 0:
        raise NegativeValue("variance upper bound requires non-negative atoms")
    lhs = law.second_moment()
    rhs = 2.0 * float(law.posted_revenue(-math.inf)) * law.values[-1]
    return CheckRecord.leq("variance_ub", "E[X^2] <= 2 max_x(x Pr(X >= x)) max(X)", lhs, rhs, tol)


def chebyshev_check(law: ScalarDistribution, a: float, tol: float = CHECK_TOL) -> CheckRecord:
    """Exact tail mass Pr(|X - E[X]| >= a) against Var/a^2."""
    if a <= 0:
        raise ValueError("a must be positive")
    mean = law.expectation()
    lhs = float(np.sum(law.probs_arr[np.abs(law.values_arr - mean) >= a]))
    rhs = law.variance() / (a * a)
    return CheckRecord.leq("chebyshev", "Pr(|X - E[X]| >= a) <= Var(X)/a^2", lhs, rhs, tol)
