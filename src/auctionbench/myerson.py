"""Virtual values, ironing, regularity, and per-item optimal revenue.

Ironing is the probability-weighted isotonic regression of the virtual values,
computed by one pool-adjacent-violators pass (Ayer, Brunk, Ewing, Reid &
Silverman 1955) in O(L) over L support points.  A floor-restricted variant of
the same pass backs the dual certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import MASS_TOL, AuctionSetting, ItemDistribution, ScalarDistribution, iid_max_expectation
from .errors import FloorNotInSupport, TooFewBidders

# Regularity is non-strict monotonicity of the virtual value up to this slack.
REGULARITY_TOL = 1e-12


def virtual_values(item: ItemDistribution) -> list[float]:
    """Virtual value at each support point.

    The top point maps to itself; below it,
    phi(x) = x - (x' - x) (1 - F(x)) / f(x) with x' the successor.
    All support points carry positive mass, so no zero-density branch exists.
    """
    vs, ps = item.values, item.probs
    cdf = item.cdf_arr
    phi = []
    for idx, x in enumerate(vs):
        if idx == len(vs) - 1:
            phi.append(x)
        else:
            phi.append(x - (vs[idx + 1] - x) * (1.0 - cdf[idx]) / ps[idx])
    return phi


@dataclass(frozen=True, eq=False)
class IronedTable:
    """Per-support-point virtual and ironed virtual values for one item.

    `phi_tilde` is exactly the pool-adjacent-violators output, each plateau's mean
    summed from its top atom down; `phi_plus` is max(phi_tilde, 0) per atom and
    `plus_law` the law of phi_tilde^+ under the item's distribution.
    """

    phi: tuple[float, ...]
    phi_tilde: tuple[float, ...]
    phi_plus: np.ndarray
    plus_law: ScalarDistribution
    regular: bool


def _iron_sweep(values: tuple[float, ...], probs: tuple[float, ...], phi: list[float], lo: int) -> list[float]:
    """Ironed phi over index range [lo, len(values)); returns that slice.

    Pool-adjacent-violators: scan upwards with a stack of (start, mass, weighted)
    blocks, merging the new atom into the block below while that block's mean is
    strictly greater, so equal means stay apart.  Each atom is pushed once and
    popped at most once.  Each plateau's value is then summed from its top atom
    down, the order of the plateau sweep the tests keep as the reference, so the
    two agree bit for bit wherever they pick the same plateaus.
    """
    blocks: list[tuple[int, float, float]] = []
    for y in range(lo, len(values)):
        start, mass, weighted = y, probs[y], probs[y] * phi[y]
        while blocks and blocks[-1][2] / blocks[-1][1] > weighted / mass:
            start, below_mass, below_weighted = blocks.pop()
            mass, weighted = mass + below_mass, weighted + below_weighted
        blocks.append((start, mass, weighted))
    out = [0.0] * (len(values) - lo)
    end = len(values)
    for start, _, _ in reversed(blocks):
        mass = weighted = 0.0
        for y in range(end - 1, start - 1, -1):
            mass += probs[y]
            weighted += probs[y] * phi[y]
        out[start - lo : end - lo] = [weighted / mass] * (end - start)
        end = start
    return out


def iron(item: ItemDistribution) -> IronedTable:
    """Ironed virtual value table; `regular` iff phi is already monotone.  Items hold theirs as `item.ironed`."""
    phi = virtual_values(item)
    phi_tilde = _iron_sweep(item.values, item.probs, phi, 0)
    phi_plus = np.maximum(np.asarray(phi_tilde), 0.0)
    plus_law = ScalarDistribution.from_atoms(zip(phi_plus.tolist(), item.probs), renorm_tol=MASS_TOL * 10)
    regular = all(b - a >= -REGULARITY_TOL for a, b in zip(phi, phi[1:]))
    return IronedTable(tuple(phi), tuple(phi_tilde), phi_plus, plus_law, regular)


def iron_restricted(item: ItemDistribution, floor: float) -> dict[float, float]:
    """Ironing restricted to support points >= floor.

    The pass starts at the floor, so the output covers exactly [floor, max].
    """
    try:
        lo = item.values.index(floor)
    except ValueError:
        raise FloorNotInSupport(f"{floor!r} is not a support point") from None
    restricted = _iron_sweep(item.values, item.probs, item.ironed.phi, lo)
    return dict(zip(item.values[lo:], restricted))


def srev_item(item: ItemDistribution, n: int) -> float:
    """Optimal revenue selling this single item to n bidders.

    Equals the expected maximum over bidders of the non-negative part of the
    ironed virtual value.
    """
    if n < 1:
        raise TooFewBidders("need n >= 1")
    return iid_max_expectation(item.ironed.plus_law, n)


def srev(setting: AuctionSetting, n: int) -> float:
    """Optimal selling-separately revenue: sum of per-item optima."""
    return sum(srev_item(item, n) for item in setting.items)


def all_regular(setting: AuctionSetting) -> bool:
    return all(item.ironed.regular for item in setting.items)
