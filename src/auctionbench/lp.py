"""Exact optimal truthful revenue for tiny instances via a dense LP.

The mechanism LP keeps full ex-post allocation variables for every bidder
profile (no interim-only relaxation: multi-item interim feasibility is a
known pitfall) and writes incentive and participation constraints on interim
quantities derived linearly from them, over the full deviation set.

The solver is a self-contained one-phase dense simplex so the oracle has no
dependency beyond numpy and pivots deterministically.  It needs b_ub >= 0:
the mechanism LP's right-hand side is 1 on allocation rows and 0 on the
others, so x = 0 is feasible and the slack basis starts it.  Ratio-test ties
go to the largest pivot element (Harris, 1973), with Bland's rule (1977) only
as the anti-cycling fallback, and each pivot updates only the block where the
pivot column and row are nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import AuctionSetting, Valuation
from .errors import InstanceTooLarge, LPNumericalFailure, MaxIterations, TooFewBidders, Unbounded

# LP size caps: profile count, and cells of the dense simplex tableau
# (rows + 1) x (variables + slacks + 1), which bounds lp_solve's memory and
# the work of each pivot.  Solving the 256-profile benchmark LP (a 7.9 MiB
# tableau) peaks at 12.0 MiB under tracemalloc.
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


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Rank-1 elimination on the block where the pivot column and row are nonzero.

    Elsewhere the dense update subtracts exactly 0, so the result is the same.
    """
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    rows, cols = np.flatnonzero(factors), np.flatnonzero(tableau[row])
    tableau[np.ix_(rows, cols)] -= np.outer(factors[rows], tableau[row, cols])


def _run_simplex(tableau: np.ndarray, basis: np.ndarray) -> tuple[int, int]:
    """Maximize over the tableau in place; returns (iterations, Bland switches).

    The last row holds the reduced costs c_j - z_j with minus the current
    objective in the rhs cell.  Entering column: most positive reduced cost
    (Dantzig); leaving row: minimum ratio, ties to the largest pivot element
    (Harris).  After a run of degenerate pivots both switch to Bland's
    smallest-index rule for anti-cycling, until a pivot makes progress.
    Each pivot is a rank-1 update of the nonzero block only (`_pivot`).
    """
    n_rows = tableau.shape[0] - 1
    iters = switches = 0
    degenerate_run = 0
    while True:
        if iters >= _MAX_PIVOTS:
            raise MaxIterations(f"simplex exceeded {_MAX_PIVOTS} iterations")
        reduced = tableau[-1, :-1]
        bland = degenerate_run >= _DEGENERATE_LIMIT
        entering = np.flatnonzero(reduced > _PIVOT_TOL)
        if len(entering) == 0:
            return iters, switches
        col = int(entering[0] if bland else np.argmax(reduced))
        ratios = np.full(n_rows, np.inf)
        positive = tableau[:n_rows, col] > _PIVOT_TOL
        ratios[positive] = tableau[:n_rows, -1][positive] / tableau[:n_rows, col][positive]
        if not positive.any():
            raise Unbounded("no leaving row: the LP is unbounded")
        best = ratios.min()
        rows = np.nonzero(ratios <= best + _PIVOT_TOL * (1 + abs(best)))[0]
        row = int(rows[np.argmin(basis[rows])] if bland else rows[np.argmax(tableau[rows, col])])
        degenerate_run = degenerate_run + 1 if best <= _PIVOT_TOL else 0
        switches += degenerate_run == _DEGENERATE_LIMIT
        _pivot(tableau, row, col)
        basis[row] = col
        iters += 1


def lp_solve(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> LPSolution:
    """Maximize c.x subject to a_ub.x <= b_ub, x >= 0, given b_ub >= 0.

    One phase from the slack basis, which b_ub >= 0 makes feasible.  Returns
    an optimal solution with row duals after checking the duality gap.  Raises
    ValueError on inconsistent shapes, a negative or NaN b_ub entry or any
    entry of c, a_ub or b_ub that is not finite, Unbounded when the objective
    is unbounded above, MaxIterations on stall.
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
    # columns: x vars | slacks | rhs; the last row holds the reduced costs
    tableau = np.zeros((n_rows + 1, n_vars + n_rows + 1))
    tableau[:n_rows, :n_vars] = a
    tableau[:n_rows, -1] = b
    basis = n_vars + np.arange(n_rows)
    tableau[np.arange(n_rows), basis] = 1.0
    tableau[-1, :n_vars] = c

    iters, switches = _run_simplex(tableau, basis)

    x = np.zeros(n_vars + n_rows)
    x[basis] = tableau[:n_rows, -1]
    objective = float(c @ x[:n_vars])
    # the slack of row r has reduced cost -y_r
    duals = -tableau[-1, n_vars:-1]
    gap = abs(objective - float(duals @ b))
    if gap > _GAP_TOL * (1.0 + abs(objective)):
        raise LPNumericalFailure(f"duality gap {gap:.3e} exceeds tolerance at objective {objective:.6g}")
    return LPSolution(x[:n_vars], objective, duals, iters, switches, gap)


@dataclass
class Mechanism:
    """Solved mechanism: ex-post allocations plus interim quantities.

    Profiles run in `itertools.product(valuations, repeat=n)` order.
    """

    n: int
    valuations: tuple[Valuation, ...]
    vprobs: np.ndarray
    pi: np.ndarray  # (n, m, profiles): Pr(bidder i gets item j | profile)
    pbar: np.ndarray  # (n, valuations): interim payment
    interim_alloc: np.ndarray  # (n, valuations, m)
    revenue: float


class MechanismLP:
    """LP over ex-post allocations and interim payments for n i.i.d. bidders.

    Variables, each block flattened in C order: pi[i, j, profile], then
    p+[i, v] and p-[i, v], whose difference is bidder i's interim payment at
    valuation v.  Rows: one allocation row (sum_i pi[i, j, profile] <= 1) per
    (profile, item); then, for each bidder i and true valuation a, the
    participation row followed by the incentive rows for reports b != a in
    ascending order.
    """

    def __init__(self, setting: AuctionSetting, n: int):
        if n < 1:
            raise TooFewBidders("need n >= 1")
        self.n = n
        self.m = m = setting.m
        vals, vprobs = setting.valuations()
        self.valuations = vals
        self.vprobs = vprobs
        self.n_vals = n_vals = len(vals)
        # the exponent is capped so a huge n costs nothing: 2^bit_length > cap
        if n_vals ** min(n, PROFILE_CAP.bit_length()) > PROFILE_CAP:
            raise InstanceTooLarge(
                f"{n_vals}^{n} profiles exceed the cap {PROFILE_CAP}"
            )
        self.n_profiles = n_p = n_vals**n
        self.n_pi = n * m * n_p
        self.n_vars = self.n_pi + 2 * n * n_vals
        # one allocation row per profile and item, n V^2 participation and incentive rows
        n_alloc = n_p * m
        n_rows = n_alloc + n * n_vals**2
        cells = (n_rows + 1) * (self.n_vars + n_rows + 1)
        if cells > TABLEAU_CAP:
            raise InstanceTooLarge(
                f"{n_rows} rows x {self.n_vars} variables: {cells} tableau cells exceed the cap {TABLEAU_CAP}"
            )

        # prof[i, p]: bidder i's valuation index in profile p, by mixed radix
        # (np.indices stops at 64 dimensions, and n can be larger when V = 1)
        prof = np.arange(n_p) // n_vals ** np.arange(n - 1, -1, -1)[:, None] % n_vals
        # Pr(profile), multiplied left to right over bidders
        profile_probs = vprobs[prof].prod(axis=0)
        others = profile_probs / vprobs[prof]
        # weights[i, v, p] = Pr(others' part of p) where bidder i holds v in p, else 0
        self.weights = np.zeros((n, n_vals, n_p))
        self.weights[np.arange(n)[:, None], prof, np.arange(n_p)] = others
        # own[i, v, q]: the q-th profile in which bidder i holds v
        own = np.argsort(prof, axis=1, kind="stable").reshape(n, n_vals, n_p // n_vals)

        self.c = np.concatenate([np.zeros(self.n_pi), np.tile(vprobs, n), np.tile(-vprobs, n)])
        self.b_ub = np.zeros(n_rows)
        self.b_ub[:n_alloc] = 1.0
        self.a_ub = a_ub = np.zeros((n_rows, self.n_vars))
        p, j, i = np.ix_(range(n_p), range(m), range(n))
        a_ub[p * m + j, (i * m + j) * n_p + p] = 1.0

        value = np.array(vals, dtype=float)
        i, a, k, j, q = np.ix_(range(n), range(n_vals), range(n_vals), range(m), range(n_p // n_vals))
        plus = self.n_pi + i * n_vals  # columns of p+[i, 0] and p-[i, 0]
        minus = plus + n * n_vals
        # every row of (bidder i, true valuation a) charges a's truthful utility ...
        row = n_alloc + (i * n_vals + a) * n_vals + k
        cols = own[i, a, q]
        a_ub[row, (i * m + j) * n_p + cols] -= value[a, j] * others[i, cols]
        a_ub[row, plus + a] = 1.0
        a_ub[row, minus + a] = -1.0
        # ... and its k-th incentive row, k >= 1, credits the utility of reporting b
        k = k[:, :, 1:]
        b = k - (k <= a)
        row = n_alloc + (i * n_vals + a) * n_vals + k
        cols = own[i, b, q]
        a_ub[row, (i * m + j) * n_p + cols] += value[a, j] * others[i, cols]
        a_ub[row, plus + b] = -1.0
        a_ub[row, minus + b] = 1.0

    def solve(self) -> Mechanism:
        sol = lp_solve(self.c, self.a_ub, self.b_ub)
        n = self.n
        pi = sol.x[: self.n_pi].reshape(n, self.m, self.n_profiles)
        plus, minus = sol.x[self.n_pi :].reshape(2, n, self.n_vals)
        return Mechanism(
            n=n,
            valuations=self.valuations,
            vprobs=self.vprobs,
            pi=pi,
            pbar=plus - minus,
            interim_alloc=np.einsum("ivp,ijp->ivj", self.weights, pi),
            revenue=sol.objective,
        )


def optimal_revenue(setting: AuctionSetting, n: int) -> tuple[float, Mechanism]:
    """Maximum expected revenue of any truthful auction, with its certificate."""
    mech = MechanismLP(setting, n).solve()
    return mech.revenue, mech
