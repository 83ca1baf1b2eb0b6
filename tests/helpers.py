"""Reference helpers the tests share.

``region_of`` and ``joint`` are the one-profile forms of what ``iu.region_kernel``,
``duality._regions`` and ``dist.product_grid`` compute as arrays; the tests
compare against them.  ``reference_region_kernel`` is the region kernel on
float valuations, one (item, rival) pair per step, that ``iu.region_kernel``
replaced.  ``reference_lp_solve`` is the simplex on the full tableau, one
slack column per row, that ``lp.lp_solve`` replaced.
``reference_build_utility_stats`` is the utility-statistics builder on
per-cell digits (two integer divisions per item and cell) that
``decomposition.build_utility_stats`` replaced.  ``random_law`` draws
laws for the property tests, and ``prior_dependent_links`` keeps a chain's
records outside the regular branch.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator

import numpy as np

from auctionbench import decomposition, lp
from auctionbench.dist import (
    DEFAULT_CAPS,
    Caps,
    MaxVector,
    MaxVectorDistribution,
    ScalarDistribution,
    Valuation,
    product_grid,
)
from auctionbench.errors import LPNumericalFailure, MaxIterations, Unbounded
from auctionbench.iu import KERNEL_CELLS, Instance
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


def _reference_pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Rank-1 elimination on the block where the pivot column and row are nonzero.

    Elsewhere the dense update subtracts exactly 0, so the result is the same.
    """
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows, cols = np.flatnonzero(factors), np.flatnonzero(tableau[row])
    tableau[np.ix_(rows, cols)] -= np.outer(factors[rows], tableau[row, cols])


def _reference_simplex(tableau: np.ndarray, basis: np.ndarray) -> tuple[int, int]:
    """Maximize over the full tableau in place; returns (iterations, Bland switches).

    Same rules and constants as ``lp._run_simplex``, read from ``lp`` at each
    call so that a monkeypatch reaches both.  Column j is variable j, so
    np.argmax's first maximum is the smallest variable index.
    """
    n_rows = tableau.shape[0] - 1
    iters = switches = 0
    degenerate_run = 0
    while True:
        if iters >= lp._MAX_PIVOTS:
            raise MaxIterations(f"simplex exceeded {lp._MAX_PIVOTS} iterations")
        reduced = tableau[-1, :-1]
        bland = degenerate_run >= lp._DEGENERATE_LIMIT
        entering = np.flatnonzero(reduced > lp._PIVOT_TOL)
        if len(entering) == 0:
            return iters, switches
        col = int(entering[0] if bland else np.argmax(reduced))
        ratios = np.full(n_rows, np.inf)
        positive = tableau[:n_rows, col] > lp._PIVOT_TOL
        ratios[positive] = tableau[:n_rows, -1][positive] / tableau[:n_rows, col][positive]
        if not positive.any():
            raise Unbounded("no leaving row: the LP is unbounded")
        best = ratios.min()
        rows = np.nonzero(ratios <= best + lp._PIVOT_TOL * (1 + abs(best)))[0]
        row = int(rows[np.argmin(basis[rows])] if bland else rows[np.argmax(tableau[rows, col])])
        degenerate_run = degenerate_run + 1 if best <= lp._PIVOT_TOL else 0
        switches += degenerate_run == lp._DEGENERATE_LIMIT
        _reference_pivot(tableau, row, col)
        basis[row] = col
        iters += 1


def reference_lp_solve(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> lp.LPSolution:
    """``lp.lp_solve`` on the (rows + 1) x (variables + rows + 1) tableau [A | I | b].

    The same pivots as ``lp.lp_solve``; the duals are read from the slack columns.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_ub, dtype=np.float64)
    b = np.asarray(b_ub, dtype=np.float64)
    n_rows, n_vars = a.shape
    # columns: x vars | slacks | rhs; the last row holds the reduced costs
    tableau = np.zeros((n_rows + 1, n_vars + n_rows + 1))
    tableau[:n_rows, :n_vars] = a
    tableau[:n_rows, -1] = b
    basis = n_vars + np.arange(n_rows)
    tableau[np.arange(n_rows), basis] = 1.0
    tableau[-1, :n_vars] = c

    iters, switches = _reference_simplex(tableau, basis)

    x = np.zeros(n_vars + n_rows)
    x[basis] = tableau[:n_rows, -1]
    objective = float(c @ x[:n_vars])
    # the slack of row r has reduced cost -y_r
    duals = -tableau[-1, n_vars:-1]
    gap = abs(objective - float(duals @ b))
    if gap > lp._GAP_TOL * (1.0 + abs(objective)):
        raise LPNumericalFailure(f"duality gap {gap:.3e} exceeds tolerance at objective {objective:.6g}")
    return lp.LPSolution(x[:n_vars], objective, duals, iters, switches, gap)


def reference_build_utility_stats(inst: Instance) -> decomposition.UtilityStats:
    """``decomposition.build_utility_stats`` with every cell's digits recomputed per item.

    The same blocks (``decomposition.PAIR_BUDGET``, read at each call so that a
    monkeypatch reaches both), padded row length and sum order; digit j of
    cell c is c // strides[j] % sides[j], so a pad cell wraps onto the row's
    own cells.
    """
    items = inst.setting.items
    m_vecs, probs = product_grid(inst.ghost_max.per_item, inst.setting.caps.product_support)
    m_cols = m_vecs.T
    r_totals = functools.reduce(operator.add, [item.posted_revenue(m) for item, m in zip(items, m_cols)])
    lo = np.stack([np.maximum(item.values_arr.searchsorted(m, "right") - 1, 0) for item, m in zip(items, m_cols)])
    sides = np.array([[len(item.values)] for item in items]) - lo
    strides = np.cumprod(np.vstack((np.ones_like(sides[:1]), sides[:0:-1])), axis=0)[::-1]
    widths = strides[0] * sides[0]
    order = widths.argsort(kind="stable")
    widths, r_sorted = widths[order], r_totals[order]
    m_sorted, lo, sides, strides = (per_item[:, order] for per_item in (m_cols, lo, sides, strides))

    columns = np.empty((6, len(probs)))
    for a, b in decomposition._blocks(widths.tolist(), decomposition.PAIR_BUDGET):
        cells = np.arange(widths[b - 1])
        r = r_sorted[a:b, None]
        u = u_hat = 0.0
        mass = (cells < widths[a:b, None]).astype(np.float64)
        for item, m_col, lo_j, side, stride in zip(items, m_sorted, lo, sides, strides):
            digit = cells // stride[a:b, None] % side[a:b, None]
            atom = lo_j[a:b, None] + digit
            u_j = np.maximum(item.values_arr[atom] - m_col[a:b, None], 0.0)
            u, u_hat = u + u_j, u_hat + np.where(u_j <= r, u_j, 0.0)
            mass = mass * np.where(digit == 0, item.cdf_arr[atom], item.probs_arr[atom])
        mean = (mass * u_hat).sum(axis=1)
        fee = np.maximum(mean - 2.0 * r[:, 0], 0.0)
        var = (mass * (u_hat - mean[:, None]) ** 2).sum(axis=1)
        accept = 1.0 - np.where(u_hat < fee[:, None], mass, 0.0).sum(axis=1)
        nice = 1.0 - np.where(u_hat < mean[:, None] / 2.0, mass, 0.0).sum(axis=1)
        rows = np.arange(b - a)[:, None]
        by_u = u.argsort(axis=1)
        u, mass = u[rows, by_u], mass[rows, by_u]
        below = np.zeros_like(mass)
        mass[:, :-1].cumsum(axis=1, out=below[:, 1:])
        run_head = np.maximum.accumulate(np.where(u != np.roll(u, 1, axis=1), cells, 0), axis=1)
        pair = (mass * u * (1.0 - below[rows, run_head])).sum(axis=1)
        columns[:, a:b] = mean, var, fee, accept, nice, pair
    e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass = columns[:, order.argsort()]
    return decomposition.UtilityStats(
        m_vecs, probs, r_totals, e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass
    )


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
