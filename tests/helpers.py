"""Reference helpers the tests share.

``region_of`` and ``joint`` are the one-profile forms of what ``iu.region_kernel``,
``duality._regions`` and ``dist.product_grid`` compute as arrays; the tests
compare against them.  ``reference_region_kernel`` is the region kernel on
float valuations, one (item, rival) pair per step, that ``iu.region_kernel``
replaced.  ``random_law`` draws laws for the property tests, and
``prior_dependent_links`` keeps a chain's records outside the regular branch.
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
from auctionbench.iu import KERNEL_CELLS
from auctionbench.report import CheckRecord


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


def reference_region_kernel(
    vals: np.ndarray,
    max_laws: tuple[ScalarDistribution, ...],
    strict_ties: bool = False,
    weighted: bool = False,
) -> np.ndarray:
    """Per item j: sum over atoms mu <= v_j of M_j of p_mu w prod_{j' != j} Pr(u_j' below u_j).

    `vals` is a (..., m) array of valuations, u_j = v_j - mu and u_j' = v_j' - M_j'
    with the coordinates of M independent.  "Below" is strict for j' < j and
    weak for j' > j (the smallest-index tie-break), which makes the result the
    region probability P_j(v); with `strict_ties` it is strict for every j'.
    The weight w is 1, or u_j when `weighted` (the tests' Surplus reference).
    Atoms sit on a leading axis and are added in atom order.  Rows go in blocks
    of KERNEL_CELLS // (most atoms of any M_j), so no (atoms x rows) temporary
    passes KERNEL_CELLS cells; a row's bits do not depend on its block.
    """
    vals = np.asarray(vals, dtype=np.float64)
    rows = vals.reshape(-1, vals.shape[-1])
    out = np.empty(rows.shape)
    block = max(1, KERNEL_CELLS // max(len(law.values) for law in max_laws))
    # survival[i] = Pr(M_j > values[i - 1]) and survival[0] = 1
    survivals = [np.concatenate(([1.0], 1.0 - law.cdf_arr)) for law in max_laws]
    for lo in range(0, len(rows), block):
        cols = rows[lo : lo + block].T.copy()  # contiguous per item: the rival loop reads whole columns
        for j, law in enumerate(max_laws):
            u = cols[j] - law.values_arr[:, None]
            term = np.where(u >= 0.0, law.probs_arr[:, None], 0.0)
            if weighted:
                term *= u
            for jp, rival in enumerate(max_laws):
                if jp != j:
                    # u_jp < u is M_jp > v_jp - u (search "right"), u_jp <= u is M_jp >= v_jp - u ("left")
                    side = "left" if jp > j and not strict_ties else "right"
                    term *= survivals[jp][rival.values_arr.searchsorted(cols[jp] - u, side=side)]
            out[lo : lo + block, j] = term.cumsum(axis=0)[-1]
    return out.reshape(vals.shape)


def random_law(rng: np.random.Generator, max_support: int = 5, max_value: float = 10.0) -> ScalarDistribution:
    """Random non-negative scalar law (not necessarily an item grid)."""
    size = int(rng.integers(1, max_support + 1))
    values = np.sort(rng.random(size)) * max_value
    values = np.unique(np.round(values, 6))
    weights = rng.random(len(values)) + 0.05
    return ScalarDistribution.from_atoms(zip(values.tolist(), (weights / weights.sum()).tolist()))


def prior_dependent_links(chain) -> list[CheckRecord]:
    """The records of `chain` (a DecompositionReport) outside the regular branch's chain_g_* links."""
    return [check for check in chain.checks if not check.name.startswith("chain_g_")]
