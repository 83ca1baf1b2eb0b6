"""Finite discrete distributions, product settings, and exact order statistics.

Everything here is a pure function over immutable values, so the module is
safe for unrestricted concurrent read use.  Monte-Carlo sampling elsewhere in
the package derives its generators from :func:`make_rng`, which splits
substreams from the root seed with a counter-based (Philox) scheme.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptySupport,
    EnumerationCapExceeded,
    NegativeValue,
    NonPositiveProbability,
    ProbabilityMassError,
    TooFewBidders,
)

if TYPE_CHECKING:
    from .myerson import IronedTable

# Combined absolute-plus-relative tolerance used by every inequality check.
CHECK_TOL = 1e-9

# Tolerance for construction-time invariants (mass sums, CDF endpoints).
MASS_TOL = 1e-12

# Largest deviation of input probability mass from 1 that is silently
# renormalized; anything larger is treated as a bug in the input.
RENORM_TOL = 1e-6

Valuation = tuple[float, ...]
MaxVector = tuple[float, ...]


def holds_leq(lhs: float, rhs: float, tol: float = CHECK_TOL) -> bool:
    """lhs <= rhs up to absolute-plus-relative tolerance `tol`."""
    return bool(rhs - lhs >= -tol * max(1.0, abs(lhs), abs(rhs)))


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
    """Enumeration caps; exceeding one raises EnumerationCapExceeded."""

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
        if abs(sum(self.probs) - 1.0) > MASS_TOL:
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
            if p < 0:
                raise NonPositiveProbability(f"negative probability {p!r}")
            if p > 0:
                merged[float(v)] = merged.get(float(v), 0.0) + float(p)
        if not merged:
            raise EmptySupport("no atoms with positive probability")
        # left to right in order of first occurrence; segmented_from_atoms
        # reproduces this order, which sum() does not promise (3.12+ compensates)
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


class Segments(NamedTuple):
    """Many finite laws in flat arrays: law s is values/probs[starts[s]:starts[s + 1]]."""

    starts: np.ndarray
    values: np.ndarray
    probs: np.ndarray

    def laws(self) -> list[ScalarDistribution]:
        values, probs, starts = self.values.tolist(), self.probs.tolist(), self.starts.tolist()
        return [ScalarDistribution(tuple(values[lo:hi]), tuple(probs[lo:hi])) for lo, hi in zip(starts, starts[1:])]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys starts."""
    new_run = np.empty(len(sorted_keys), dtype=bool)
    new_run[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    return new_run


def segmented_from_atoms(
    seg: np.ndarray, values: np.ndarray, weights: np.ndarray, n_seg: int, renorm_tol: float = RENORM_TOL
) -> Segments:
    """:meth:`ScalarDistribution.from_atoms` for many laws at once, bit for bit.

    Atom i belongs to law ``seg[i]``; ``seg`` must be non-decreasing, and the
    atoms of one law are in the order from_atoms would receive them.  As in
    from_atoms, zero masses are dropped, masses of equal values are added in
    input order (``np.bincount`` adds each bucket in index order), each law's
    total is summed left to right in order of first occurrence (a row-wise
    ``cumsum`` over a zero-padded matrix; ``np.sum`` would sum pairwise)
    and every mass is divided by its law's total.
    """
    if not (weights > 0).all():
        if (weights < 0).any():
            raise NonPositiveProbability("negative probability")
        keep = weights > 0
        seg, values, weights = seg[keep], values[keep], weights[keep]
    # one integer key per atom, (law, dense rank of its value): two plain
    # sorts beat np.lexsort
    by_value = values.argsort()
    rank = np.empty(len(values), dtype=np.int64)
    rank[by_value] = _run_starts(values[by_value]).cumsum() - 1
    key = seg * len(values) + rank
    order = key.argsort()
    new_run = _run_starts(key[order])
    group = np.empty(len(order), dtype=np.intp)
    group[order] = new_run.cumsum() - 1
    mass = np.bincount(group, weights=weights)
    heads = np.flatnonzero(new_run)
    group_vals, group_seg = values[order[heads]], seg[order[heads]]
    counts = np.bincount(group_seg, minlength=n_seg)
    if not counts.all():
        raise EmptySupport("no atoms with positive probability")
    starts = np.concatenate(([0], counts.cumsum()))
    # groups by (law, first occurrence): atoms are laid out law-major, so
    # first occurrences in atom order are already in that order
    is_first = np.zeros(len(order), dtype=bool)
    is_first[np.minimum.reduceat(order, heads)] = True
    by_first = group[is_first]
    row = group_seg[by_first]
    padded = np.zeros((n_seg, counts.max()))
    padded[row, np.arange(len(row)) - starts[row]] = mass[by_first]
    total = padded.cumsum(axis=1)[:, -1]
    if (np.abs(total - 1.0) > renorm_tol).any():
        raise ProbabilityMassError(f"probability mass too far from 1 (worst {total.min()}..{total.max()})")
    return Segments(starts, group_vals, mass / total[group_seg])


class ItemDistribution(ScalarDistribution):
    """One item's value distribution: non-negative support, all atoms charged; `ironed` is built once."""

    ironed: IronedTable

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.values[0] < 0:
            raise NegativeValue("item values must be non-negative")
        from .myerson import iron  # myerson imports this module

        object.__setattr__(self, "ironed", iron(self))


def make_item_distribution(
    values: Sequence[float], probs: Sequence[float], renorm_tol: float = RENORM_TOL
) -> ItemDistribution:
    """Build an item distribution with :meth:`ScalarDistribution.from_atoms`.

    Values and probabilities are paired position by position, every
    probability must be positive, and the mass is renormalized when its sum
    is within `renorm_tol` of 1; larger deviations raise ProbabilityMassError.
    """
    if len(values) != len(probs):
        raise ProbabilityMassError("values and probs must have equal length")
    if any(p <= 0 for p in probs):
        raise NonPositiveProbability("probabilities must be positive")
    return ItemDistribution.from_atoms(zip(values, probs), renorm_tol)


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
        if self.product_support_size > self.caps.product_support:
            raise EnumerationCapExceeded(
                f"product support size {self.product_support_size} exceeds cap "
                f"{self.caps.product_support}; raise the cap or use Monte-Carlo mode"
            )

    @property
    def m(self) -> int:
        return len(self.items)

    @cached_property
    def product_support_size(self) -> int:
        return math.prod(len(d.values) for d in self.items)

    def valuations(self) -> tuple[tuple[Valuation, ...], np.ndarray]:
        """Enumerate the product support with joint probabilities."""
        combos = tuple(itertools.product(*(d.values for d in self.items)))
        probs = np.array(
            [math.prod(d.probs[d.values.index(v)] for d, v in zip(self.items, combo)) for combo in combos]
        )
        return combos, probs

    def valuation_prob(self, v: Valuation) -> float:
        return math.prod(d.probs[d.values.index(x)] for d, x in zip(self.items, v))


@dataclass(frozen=True)
class MaxVectorDistribution:
    """Law of the coordinate-wise maximum of k i.i.d. draws from the product.

    Components are independent, so the law is stored in product form: one
    scalar law per item with CDF F_j(x)^k.  k = 0 is the empty max, the point
    mass at the all-zeros vector.
    """

    k: int
    per_item: tuple[ScalarDistribution, ...]

    def joint_size(self) -> int:
        return math.prod(len(d.values) for d in self.per_item)

    def check_joint_cap(self, caps: Caps) -> None:
        if self.joint_size() > caps.product_support:
            raise EnumerationCapExceeded(
                f"joint max-vector support {self.joint_size()} exceeds cap {caps.product_support}"
            )

    def joint(self, caps: Caps = DEFAULT_CAPS) -> Iterator[tuple[MaxVector, float]]:
        """Enumerate joint max-vectors with probabilities (product form)."""
        self.check_joint_cap(caps)
        for combo in itertools.product(*(zip(d.values, d.probs) for d in self.per_item)):
            vec = tuple(c[0] for c in combo)
            prob = math.prod(c[1] for c in combo)
            yield vec, prob


def max_vector_distribution(setting: AuctionSetting, k: int) -> MaxVectorDistribution:
    """Exact law of max over k ghost draws; k = 0 is the all-zeros point mass."""
    if k < 0:
        raise TooFewBidders("k must be non-negative")
    if k == 0:
        return MaxVectorDistribution(0, tuple(ScalarDistribution.point_mass(0.0) for _ in setting.items))
    per_item = []
    for dist in setting.items:
        cdf_k = dist.cdf_arr**k
        pmf = np.diff(cdf_k, prepend=0.0)
        per_item.append(
            ScalarDistribution.from_atoms(zip(dist.values, pmf.tolist()), renorm_tol=MASS_TOL * 10)
        )
    return MaxVectorDistribution(k, tuple(per_item))


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


def variance(law: ScalarDistribution) -> float:
    """Var(X) = E[(X - E[X])^2], exact."""
    return law.variance()


class VarianceUBCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def variance_ub_check(law: ScalarDistribution, tol: float = CHECK_TOL) -> VarianceUBCheck:
    """Second-moment bound for non-negative laws.

    lhs = E[X^2]; rhs = 2 (max_x x Pr(X >= x)) max(X).  Since Var <= E[X^2],
    lhs <= rhs also bounds the variance.
    """
    if law.values[0] < 0:
        raise NegativeValue("variance upper bound requires non-negative atoms")
    lhs = law.second_moment()
    rhs = 2.0 * float(law.posted_revenue(-math.inf)) * law.values[-1]
    return VarianceUBCheck(lhs, rhs, holds_leq(lhs, rhs, tol))


class ChebyshevCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def chebyshev_check(law: ScalarDistribution, a: float, tol: float = CHECK_TOL) -> ChebyshevCheck:
    """Exact tail mass Pr(|X - E[X]| >= a) against Var/a^2."""
    if a <= 0:
        raise ValueError("a must be positive")
    mean = law.expectation()
    lhs = float(np.sum(law.probs_arr[np.abs(law.values_arr - mean) >= a]))
    rhs = law.variance() / (a * a)
    return ChebyshevCheck(lhs, rhs, holds_leq(lhs, rhs, tol))
