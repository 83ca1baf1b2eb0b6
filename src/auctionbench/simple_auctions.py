"""Expected revenues of the benchmark simple auctions and the selling-separately lower bounds."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dist import (
    AuctionSetting,
    ItemDistribution,
    MaxVectorDistribution,
    iid_second_max_expectation,
    max_vector_distribution,
)
from .errors import BadItemIndex, ShapeMismatch, TooFewBidders
from .myerson import all_regular, srev
from .report import CHECK_TOL, CheckRecord, holds_leq


def vcg_revenue(setting: AuctionSetting, n: int) -> float:
    """Second-price-per-item revenue with n bidders: sum of expected second order statistics."""
    if n < 2:
        raise TooFewBidders("a second-price auction needs n >= 2")
    return sum(iid_second_max_expectation(item, n) for item in setting.items)


def ronen_r_star(item: ItemDistribution, x: float) -> tuple[float, float | None]:
    """Best posted revenue strictly above x: max over support y > x of y * Pr(v >= y).

    Ties go to the smallest maximizing y; an empty candidate set yields (0, None).
    """
    if x < 0:
        raise ValueError("threshold must be non-negative")
    best_rev = float(item.posted_revenue(x))
    # y * Pr(v >= y) is the product the kernel maximises, so the first y to reach it is the argmax
    best_y = next((y for y in item.values if y > x and y * item.tail(y) == best_rev), None)
    return (best_rev, best_y)


def ronen_bound(setting: AuctionSetting, n: int) -> float:
    """Revenue floor from offering each bidder the best price above the others' max.

    Exact: sum_j n * E_M[r*_j(M_j)] where M is the max vector of n-1 draws.
    """
    if n < 1:
        raise TooFewBidders("need n >= 1")
    return ronen_bound_from_law(setting, max_vector_distribution(setting, n - 1), n)


def ronen_bound_from_law(setting: AuctionSetting, maxvec: MaxVectorDistribution, n: int) -> float:
    """`ronen_bound` given `maxvec`, the law of the max vector of n - 1 draws."""
    total = 0.0
    for item, mlaw in zip(setting.items, maxvec.per_item):
        total += n * sum(p * r for r, p in zip(item.posted_revenue(mlaw.values_arr).tolist(), mlaw.probs))
    return total


def vcg_with_reserve_bound(setting: AuctionSetting, j: int, x: float, n: int) -> float:
    """Revenue floor of selling item j by second price with reserve x: x * Pr(max of n >= x)."""
    if not (0 <= j < setting.m):
        raise BadItemIndex(f"item index {j} out of range")
    if x < 0:
        raise ValueError("reserve must be non-negative")
    if n < 1:
        raise TooFewBidders("need n >= 1")
    item = setting.items[j]
    return x * (1.0 - item.prob_below(x) ** n)


def sequential_posted_price_bound(
    setting: AuctionSetting, prices: Sequence[Sequence[float]], n: int
) -> float:
    """Revenue floor of per-item sequential posted prices.

    `prices[i][j]` is bidder i's price for item j.  Offers are made in
    decreasing price order, so the realized price for item j is the highest
    accepted one; independence across bidders gives the survival-product form.
    """
    arr = np.asarray(prices, dtype=np.float64)
    if arr.shape != (n, setting.m):
        raise ShapeMismatch(f"prices must have shape ({n}, {setting.m})")
    if np.any(arr < 0):
        raise ValueError("prices must be non-negative")
    total = 0.0
    for j, item in enumerate(setting.items):
        none_higher_accepts = 1.0
        for price in np.sort(arr[:, j])[::-1].tolist():
            accept = item.tail(price)
            total += price * accept * none_higher_accepts
            none_higher_accepts *= 1.0 - accept
    return total


def bulow_klemperer_check(setting: AuctionSetting, n: int, tol: float = CHECK_TOL) -> CheckRecord:
    """Selling-separately optimum with n bidders vs second price with n+1.

    Only applicable when every item is regular; otherwise reported as
    not-applicable (holds None) rather than failed.
    """
    srev_n, vcg_n1 = srev(setting, n), vcg_revenue(setting, n + 1)
    holds = holds_leq(srev_n, vcg_n1, tol) if all_regular(setting) else None
    return CheckRecord("bulow_klemperer", "SRev(n) <= VCG(n+1) (regular items)", srev_n, vcg_n1, holds)
