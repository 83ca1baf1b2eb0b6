"""Exact optimal truthful revenue for tiny instances via a dense LP.

Bidders are i.i.d., so a symmetric mechanism is optimal (Daskalakis and Weinberg,
2012): the LP keeps bidder 0's ex-post rule, with ex-post feasibility (interim
feasibility is a known multi-item pitfall) and incentive rows on interim quantities.

The solver is a self-contained one-phase dense simplex so the oracle has no
dependency beyond numpy and pivots deterministically.  It needs b_ub >= 0:
the mechanism LP's right-hand side is 1 on allocation rows and 0 on the
others, so x = 0 is feasible and the slack basis starts it.  The tableau is
the condensed one (Tucker, 1960): it keeps only the nonbasic columns, and a
pivot swaps the entering and leaving variables in place.  Entering ties go to
the smallest variable index, ratio-test ties to the largest pivot element
(Harris, 1973), with Bland's rule (1977) only as the anti-cycling fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import AuctionSetting, Valuation
from .errors import InstanceTooLarge, LPNumericalFailure, MaxIterations, TooFewBidders, Unbounded

# LP size caps: ordered profile count, and (rows + 1) x (variables + rows + 1) cells, an upper
# bound on lp_solve's (rows + 1) x (variables + 1) tableau, its memory and the work of a pivot.
# Solving the 256-profile benchmark LP (a 0.9 MiB tableau) peaks at 2.3 MiB under tracemalloc.
PROFILE_CAP = 256
TABLEAU_CAP = 1 << 22

_PIVOT_TOL = 1e-10
_GAP_TOL = 1e-9  # relative duality gap an optimum must close
_MAX_PIVOTS = 100_000  # the solve's only time bound
# consecutive degenerate pivots before switching to Bland's rule
_DEGENERATE_LIMIT = 40


@dataclass
class LPSolution:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int
    bland_switches: int  # runs of degenerate pivots that switched to Bland's rule
    duality_gap: float  # |primal - dual objective|


def _pivot(tableau: np.ndarray, nonbasic: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Swap nonbasic[col] into the basis at `row` on the slack-free tableau.

    The entering column becomes the leaving variable's unit column, and only rows where it
    was nonzero get the rank-1 update: each cell is the full tableau's, up to a zero's sign.
    """
    factors = tableau[:, col].copy()
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    tableau[row] /= factors[row]
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * tableau[row]
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray) -> tuple[int, int]:
    """Maximize over the tableau in place; returns (iterations, Bland switches).

    Column k holds variable nonbasic[k]; row r's basic variable is basis[r].
    The last row holds the reduced costs c_j - z_j with minus the current
    objective in the rhs cell.  Entering variable: most positive reduced cost
    (Dantzig), ties to the smallest variable index; leaving row: minimum
    ratio, ties to the largest pivot element (Harris).  After a run of
    degenerate pivots both switch to Bland's smallest-index rule for
    anti-cycling, until a pivot makes progress.
    """
    n_rows = tableau.shape[0] - 1
    rhs = tableau[:n_rows, -1]
    ratios = np.empty(n_rows)
    iters = switches = degenerate_run = 0
    while True:
        if iters >= _MAX_PIVOTS:
            raise MaxIterations(f"simplex exceeded {_MAX_PIVOTS} iterations")
        reduced = tableau[-1, :-1]
        top = np.fmax.reduce(reduced, initial=-np.inf)  # skips NaN costs: none of them may enter
        if top <= _PIVOT_TOL:
            return iters, switches
        bland = degenerate_run >= _DEGENERATE_LIMIT
        entering = (reduced > _PIVOT_TOL if bland else reduced == top).nonzero()[0]
        col = int(entering[nonbasic[entering].argmin()])
        column = tableau[:n_rows, col]
        positive = column > _PIVOT_TOL
        if not positive.any():
            raise Unbounded("no leaving row: the LP is unbounded")
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=positive)
        best = ratios.min()
        rows = (ratios <= best + _PIVOT_TOL * (1 + abs(best))).nonzero()[0]
        row = int(rows[basis[rows].argmin()] if bland else rows[column[rows].argmax()])
        degenerate_run = degenerate_run + 1 if best <= _PIVOT_TOL else 0
        switches += degenerate_run == _DEGENERATE_LIMIT
        _pivot(tableau, nonbasic, basis, row, col)
        iters += 1


def lp_solve(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> LPSolution:
    """Maximize c.x subject to a_ub.x <= b_ub, x >= 0, given b_ub >= 0.

    One phase from the slack basis, which b_ub >= 0 makes feasible.  Returns
    an optimal solution with row duals after checking the duality gap.  Raises
    ValueError on inconsistent shapes, a negative or NaN b_ub entry or any
    entry of c, a_ub or b_ub that is not finite, Unbounded when the objective
    is unbounded above, MaxIterations on stall, LPNumericalFailure when the
    objective is not finite or the duality gap is not within tolerance.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_ub, dtype=np.float64)
    b = np.asarray(b_ub, dtype=np.float64)
    n_rows, n_vars = a.shape
    if b.shape != (n_rows,) or c.shape != (n_vars,):
        raise ValueError("inconsistent LP shapes")
    if not np.all(b >= 0):
        raise ValueError("b_ub must be >= 0, so that x = 0 is a feasible start")
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("c, a_ub and b_ub must be finite")
    # columns: the nonbasic variables (x first, slacks n_vars + r) | rhs; the last row holds the reduced costs
    tableau = np.zeros((n_rows + 1, n_vars + 1))
    tableau[:n_rows, :n_vars] = a
    tableau[:n_rows, -1] = b
    tableau[-1, :n_vars] = c
    basis, nonbasic = n_vars + np.arange(n_rows), np.arange(n_vars)

    iters, switches = _run_simplex(tableau, basis, nonbasic)

    x = np.zeros(n_vars + n_rows)
    x[basis] = tableau[:n_rows, -1]
    objective = float(c @ x[:n_vars])
    # a nonbasic slack of row r has reduced cost -y_r; a basic one has dual 0
    duals = np.zeros(n_rows)
    slack = nonbasic >= n_vars
    duals[nonbasic[slack] - n_vars] = -tableau[-1, :-1][slack]
    gap = abs(objective - float(duals @ b))
    # an overflowed tableau gives an infinite objective or a NaN gap; neither passes
    if not (math.isfinite(objective) and gap <= _GAP_TOL * (1.0 + abs(objective))):
        raise LPNumericalFailure(f"duality gap {gap:.3e} exceeds tolerance at objective {objective:.6g}")
    return LPSolution(x[:n_vars], objective, duals, iters, switches, gap)


@dataclass
class Mechanism:
    """Solved symmetric mechanism; `pbar` and `interim_alloc` repeat bidder 0's row as read-only views."""

    n: int
    valuations: tuple[Valuation, ...]
    vprobs: np.ndarray
    pi: np.ndarray  # (m, valuations, rivals' multisets): Pr(bidder 0 gets item j)
    pbar: np.ndarray  # (n, valuations): interim payment
    interim_alloc: np.ndarray  # (n, valuations, m)
    revenue: float


def _multisets(k: int, n_vals: int) -> np.ndarray:
    """Count vectors of k valuations out of n_vals, in descending lexicographic order."""
    if n_vals == 1:
        return np.array([[k]])
    counts, low = np.zeros((1, n_vals), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(k):
        # each multiset in turn, extended by each valuation from its largest up
        parent, low = np.nonzero(np.arange(n_vals) >= low[:, None])
        counts = counts[parent]
        counts[np.arange(len(parent)), low] += 1
    return counts


class MechanismLP:
    """Symmetric LP over bidder 0's ex-post rule, for n i.i.d. bidders.

    Multisets are count vectors over the V valuations, in descending
    lexicographic order.  Variables, each block in C order: x[j, v, s], the
    probability that bidder 0 gets item j holding v while the other n - 1 hold
    the multiset s; then p+[v] and p-[v], the interim payment p+ - p- at v.
    Rows: sum_v P[v] x[j, v, P - e_v] <= 1 per profile multiset P and item j;
    then, per true valuation a, the participation row and the incentive rows
    for reports b != a in ascending order, on the interim allocation sum_s
    Pr(s) x[j, v, s], with Pr(s) the multinomial coefficient times prod_v
    q_v^s_v (in ascending v).  The objective is n sum_v q_v (p+[v] - p-[v]).
    """

    def __init__(self, setting: AuctionSetting, n: int):
        if n < 1:
            raise TooFewBidders("need n >= 1")
        self.n = n
        self.m = m = setting.m
        self.valuations, self.vprobs = vals, vprobs = setting.valuations()
        self.n_vals = n_vals = len(vals)
        # the exponent is capped so a huge n costs nothing: 2^bit_length > cap
        if n_vals ** min(n, PROFILE_CAP.bit_length()) > PROFILE_CAP:
            raise InstanceTooLarge(f"{n_vals}^{n} profiles exceed the cap {PROFILE_CAP}")
        if n * n_vals * m * 8 > np.iinfo(np.intp).max:
            raise InstanceTooLarge(f"{n} bidders: the per-bidder views of the mechanism exceed numpy's array size")
        rivals, profiles = _multisets(n - 1, n_vals), _multisets(n, n_vals)
        n_s, n_alloc = len(rivals), len(profiles) * m
        self.n_pi = m * n_vals * n_s
        self.n_vars = self.n_pi + 2 * n_vals
        n_rows = n_alloc + n_vals**2
        cells = (n_rows + 1) * (self.n_vars + n_rows + 1)
        if cells > TABLEAU_CAP:
            raise InstanceTooLarge(
                f"{n_rows} rows x {self.n_vars} variables: {cells} tableau cells exceed the cap {TABLEAU_CAP}"
            )

        # Pr(s), with the multinomial coefficient as binomials so that a huge count costs nothing
        seen, q = np.cumsum(rivals, axis=1).tolist(), vprobs.tolist()
        self.rival_probs = probs = np.array(
            [math.prod(map(math.comb, t, s)) * math.prod(map(pow, q, s)) for t, s in zip(seen, rivals.tolist())]
        )
        self.c = np.concatenate([np.zeros(self.n_pi), n * vprobs, -n * vprobs])
        self.b_ub = np.concatenate([np.ones(n_alloc), np.zeros(n_vals**2)])
        self.a_ub = a_ub = np.zeros((n_rows, self.n_vars))
        # x[j, v, s] sits in the allocation row of the profile multiset s + e_v
        rank = {p: r for r, p in enumerate(map(tuple, profiles.tolist()))}
        joined = (np.eye(n_vals, dtype=np.int64)[:, None] + rivals).reshape(-1, n_vals)
        profile = np.array([rank[p] for p in map(tuple, joined.tolist())])
        j = np.arange(m)[:, None]
        a_ub[profile * m + j, j * n_vals * n_s + np.arange(n_vals * n_s)] = (rivals.T + 1).reshape(-1)

        value = np.array(vals, dtype=float)
        a, k, j, s = np.ix_(range(n_vals), range(n_vals), range(m), range(n_s))
        plus, minus = self.n_pi, self.n_pi + n_vals  # columns of p+[0] and p-[0]
        # every row of true valuation a charges a's truthful utility ...
        row = n_alloc + a * n_vals + k
        a_ub[row, (j * n_vals + a) * n_s + s] -= value[a, j] * probs[s]
        a_ub[row, plus + a] = 1.0
        a_ub[row, minus + a] = -1.0
        # ... and its k-th incentive row, k >= 1, credits the utility of reporting b
        k = k[:, 1:]
        b = k - (k <= a)
        row = n_alloc + a * n_vals + k
        a_ub[row, (j * n_vals + b) * n_s + s] += value[a, j] * probs[s]
        a_ub[row, plus + b] = -1.0
        a_ub[row, minus + b] = 1.0

    def solve(self) -> Mechanism:
        sol = lp_solve(self.c, self.a_ub, self.b_ub)
        pi = sol.x[: self.n_pi].reshape(self.m, self.n_vals, -1)
        plus, minus = sol.x[self.n_pi :].reshape(2, self.n_vals)
        pbar = np.broadcast_to(plus - minus, (self.n, self.n_vals))
        interim = np.broadcast_to(np.einsum("s,jvs->vj", self.rival_probs, pi), (self.n, self.n_vals, self.m))
        return Mechanism(self.n, self.valuations, self.vprobs, pi, pbar, interim, sol.objective)


def optimal_revenue(setting: AuctionSetting, n: int) -> tuple[float, Mechanism]:
    """Maximum expected revenue of any truthful auction, with its certificate."""
    mech = MechanismLP(setting, n).solve()
    return mech.revenue, mech
