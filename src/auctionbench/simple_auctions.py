"""Expected revenues of the benchmark simple auctions and the selling-separately lower bounds."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .dist import (
    AuctionSetting,
    CHECK_TOL,
    ItemDistribution,
    holds_leq,
    iid_second_max_expectation,
    max_vector_distribution,
)
from .errors import BadItemIndex, ShapeMismatch, TooFewBidders
from .myerson import all_regular, srev


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
    best_rev = 0.0
    best_y: float | None = None
    tails = 1.0 - np.concatenate(([0.0], item.cdf_arr[:-1]))
    for y, tail in zip(item.values, tails):
        if y <= x:
            continue
        rev = y * float(tail)
        if best_y is None or rev > best_rev:
            best_rev, best_y = rev, y
    return (best_rev, best_y) if best_y is not None else (0.0, None)


def ronen_bound(setting: AuctionSetting, n: int) -> float:
    """Revenue floor from offering each bidder the best price above the others' max.

    Exact: sum_j n * E_M[r*_j(M_j)] where M is the max vector of n-1 draws.
    """
    if n < 1:
        raise TooFewBidders("need n >= 1")
    maxvec = max_vector_distribution(setting, n - 1)
    total = 0.0
    for item, mlaw in zip(setting.items, maxvec.per_item):
        total += n * sum(p * ronen_r_star(item, mv)[0] for mv, p in zip(mlaw.values, mlaw.probs))
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
        col = np.sort(arr[:, j])[::-1]
        none_higher_accepts = 1.0
        for price in col:
            accept = item.tail(price)
            total += price * accept * none_higher_accepts
            none_higher_accepts *= 1.0 - accept
    return total


class BKCheck(NamedTuple):
    srev_n: float
    vcg_n1: float
    holds: bool | None  # None means not applicable (some item irregular)


def bulow_klemperer_check(setting: AuctionSetting, n: int, tol: float = CHECK_TOL) -> BKCheck:
    """Selling-separately optimum with n bidders vs second price with n+1.

    Only applicable when every item is regular; otherwise reported as
    not-applicable rather than failed.
    """
    srev_n = srev(setting, n)
    vcg_n1 = vcg_revenue(setting, n + 1)
    if not all_regular(setting):
        return BKCheck(srev_n, vcg_n1, None)
    return BKCheck(srev_n, vcg_n1, holds_leq(srev_n, vcg_n1, tol))
