"""Virtual values, ironing, regularity, and per-item optimal revenue.

The ironing routine is the plateau-averaging sweep from the top of the
support: repeatedly average the virtual value over candidate intervals
[y, x], assign the best average as a constant plateau, and recurse below it.
A floor-restricted variant of the same sweep backs the dual certificates.
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

    `phi_tilde` is exactly the sweep output; `phi_plus` is max(phi_tilde, 0)
    per atom and `plus_law` the law of phi_tilde^+ under the item's
    distribution.
    """

    phi: tuple[float, ...]
    phi_tilde: tuple[float, ...]
    phi_plus: np.ndarray
    plus_law: ScalarDistribution
    regular: bool


def _iron_sweep(values: tuple[float, ...], probs: tuple[float, ...], phi: list[float], lo: int) -> list[float]:
    """Plateau sweep over index range [lo, len(values)); returns that slice.

    Each round scans candidates y in [lo, x], computes the probability
    weighted mean of phi over [y, x], takes the argmax (ties toward larger y),
    flattens [y*, x] at that mean, and continues strictly below y*.  The
    restricted variant is the same sweep with lo > 0.
    """
    top = len(values) - 1
    out = [0.0] * (len(values) - lo)
    x_idx = top
    while True:
        best_a = None
        best_y = None
        mass = 0.0
        weighted = 0.0
        # scan y from x down to lo; ties broken toward larger y means a
        # strictly-greater test while scanning downward keeps the larger y
        for y_idx in range(x_idx, lo - 1, -1):
            mass += probs[y_idx]
            weighted += probs[y_idx] * phi[y_idx]
            a = weighted / mass
            if best_a is None or a > best_a:
                best_a = a
                best_y = y_idx
        assert best_y is not None and best_a is not None
        for idx in range(best_y, x_idx + 1):
            out[idx - lo] = best_a
        if best_y == lo:
            return out
        x_idx = best_y - 1


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

    The sweep's argmax only considers y >= floor and the recursion stops once
    the plateau reaches the floor, so the output covers exactly [floor, max].
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
