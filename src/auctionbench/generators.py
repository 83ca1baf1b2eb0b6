"""Seeded random instances for property suites and the verify command."""

from __future__ import annotations

import numpy as np

from .dist import AuctionSetting, DEFAULT_CAPS, ItemDistribution, make_item_distribution
from .errors import EnumerationCapExceeded, size_text

MAX_VALUE = 12  # items are drawn on the value grid 0..MAX_VALUE


def random_item(rng: np.random.Generator, max_support: int = 4, max_value: int = MAX_VALUE) -> ItemDistribution:
    """Random item on a small integer grid with strictly positive masses."""
    size = int(rng.integers(1, max_support + 1))
    values = rng.choice(np.arange(0, max_value + 1), size=size, replace=False)
    weights = rng.random(size) + 0.05
    return make_item_distribution(sorted(float(v) for v in values), (weights / weights.sum()).tolist())


def random_regular_item(
    rng: np.random.Generator, max_support: int = 4, max_value: int = MAX_VALUE
) -> ItemDistribution:
    """Rejection-sample a regular item (monotone virtual values), 200 tries before a point mass."""
    for _ in range(200):
        item = random_item(rng, max_support, max_value)
        if item.ironed.regular:
            return item
    # monotone-phi fallback: a point mass is always regular
    return make_item_distribution([float(rng.integers(1, max_value + 1))], [1.0])


def random_setting(
    rng: np.random.Generator,
    max_items: int = 2,
    max_support: int = 3,
    max_bidders: int = 2,
    max_ghosts: int = 6,
    max_value: int = MAX_VALUE,
    regular_only: bool = False,
) -> AuctionSetting:
    m = int(rng.integers(1, max_items + 1))
    make = random_regular_item if regular_only else random_item
    cap = DEFAULT_CAPS.product_support
    items, size = [], 1  # refused as soon as the product support of the items drawn passes the cap
    while len(items) < m and size <= cap:
        items.append(make(rng, max_support, max_value))
        size *= len(items[-1].values)
    if size > cap:
        raise EnumerationCapExceeded(
            f"the first {len(items)} of {m} items span {size_text(size)} valuations, over cap {cap}"
        )
    n = int(rng.integers(1, max_bidders + 1))
    return AuctionSetting(items=tuple(items), n=n, n_prime=int(rng.integers(n, max_ghosts + 1)))

