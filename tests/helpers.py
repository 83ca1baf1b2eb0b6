"""Reference helpers the tests share.

``region_of`` and ``joint`` are the one-profile forms of what ``iu.region_kernel``,
``duality._regions`` and ``dist.product_grid`` compute as arrays; the tests
compare against them.  ``random_law`` draws laws for the property tests.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from auctionbench.dist import (
    DEFAULT_CAPS,
    Caps,
    MaxVector,
    MaxVectorDistribution,
    ScalarDistribution,
    Valuation,
    product_grid,
)


def region_of(v: Valuation, maxvec: MaxVector) -> int | None:
    """Index of the region containing v given ghost max vector `maxvec`.

    Returns the smallest j maximizing v_j - maxvec_j when that item also
    clears its own max (v_j >= maxvec_j); otherwise None (residual region).
    """
    utilities = [vj - mj for vj, mj in zip(v, maxvec)]
    best = max(utilities)
    j_star = utilities.index(best)
    return j_star if v[j_star] >= maxvec[j_star] else None


def joint(maxvec: MaxVectorDistribution, caps: Caps = DEFAULT_CAPS) -> Iterator[tuple[MaxVector, float]]:
    """Enumerate joint max-vectors with probabilities (product form), within caps.product_support."""
    values, probs = product_grid(maxvec.per_item, caps.product_support)
    return zip(map(tuple, values.tolist()), probs.tolist())


def random_law(rng: np.random.Generator, max_support: int = 5, max_value: float = 10.0) -> ScalarDistribution:
    """Random non-negative scalar law (not necessarily an item grid)."""
    size = int(rng.integers(1, max_support + 1))
    values = np.sort(rng.random(size)) * max_value
    values = np.unique(np.round(values, 6))
    weights = rng.random(len(values)) + 0.05
    return ScalarDistribution.from_atoms(zip(values.tolist(), (weights / weights.sum()).tolist()))
