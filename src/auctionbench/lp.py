"""Exact optimal truthful revenue for tiny instances via a dense LP.

The mechanism LP keeps full ex-post allocation variables for every bidder
profile (no interim-only relaxation: multi-item interim feasibility is a
known pitfall) and writes incentive and participation constraints on interim
quantities derived linearly from them, over the full deviation set.

The solver is a self-contained two-phase dense simplex so the oracle has no
dependency beyond numpy and pivots deterministically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dist import AuctionSetting, Valuation
from .errors import InstanceTooLarge, LPNumericalFailure, MaxIterations, TooFewBidders, Unbounded

# LP size caps: profile count and total variable count.
PROFILE_CAP = 256
VARIABLE_CAP = 20_000

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8
# consecutive degenerate pivots before switching to Bland's rule
_DEGENERATE_LIMIT = 40


@dataclass
class LPSolution:
    status: str  # "optimal" or "infeasible"
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def _run_simplex(tableau: np.ndarray, basis: list[int], maxiter: int) -> int:
    """Maximize over the tableau in place; returns iterations used.

    The last row holds the reduced costs c_j - z_j with minus the current
    objective in the rhs cell.  Entering column: most positive reduced cost
    (Dantzig), switching to Bland's smallest-index rule after a run of
    degenerate pivots; leaving row: minimum ratio, ties to the smallest basis
    index (Bland) for anti-cycling.
    """
    n_rows = tableau.shape[0] - 1
    iters = 0
    degenerate_run = 0
    while True:
        if iters >= maxiter:
            raise MaxIterations(f"simplex exceeded {maxiter} iterations")
        reduced = tableau[-1, :-1]
        if degenerate_run < _DEGENERATE_LIMIT:
            col = int(np.argmax(reduced))
            if reduced[col] <= _PIVOT_TOL:
                return iters
        else:
            candidates = np.nonzero(reduced > _PIVOT_TOL)[0]
            if len(candidates) == 0:
                return iters
            col = int(candidates[0])
        ratios = np.full(n_rows, np.inf)
        positive = tableau[:n_rows, col] > _PIVOT_TOL
        ratios[positive] = tableau[:n_rows, -1][positive] / tableau[:n_rows, col][positive]
        if not positive.any():
            raise Unbounded("no leaving row: the LP is unbounded")
        best = ratios.min()
        rows = np.nonzero(ratios <= best + _PIVOT_TOL * (1 + abs(best)))[0]
        row = int(min(rows, key=lambda r: basis[r]))
        degenerate_run = degenerate_run + 1 if best <= _PIVOT_TOL else 0
        _pivot(tableau, row, col)
        basis[row] = col
        iters += 1


def lp_solve(
    c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, *, maxiter: int = 100_000, tol: float = 1e-9
) -> LPSolution:
    """Maximize c.x subject to a_ub.x <= b_ub, x >= 0.

    Two-phase dense simplex.  Returns an optimal solution with row duals, or
    an infeasibility certificate (status "infeasible", duals from phase one).
    Raises Unbounded when the objective is unbounded above and MaxIterations
    on stall; verifies the duality gap before reporting optimal.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_ub, dtype=np.float64)
    b = np.asarray(b_ub, dtype=np.float64)
    n_rows, n_vars = a.shape
    if b.shape != (n_rows,) or c.shape != (n_vars,):
        raise ValueError("inconsistent LP shapes")

    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)
    art_rows = np.nonzero(flip)[0]
    n_art = len(art_rows)

    # columns: x vars | slacks | artificials | rhs
    n_total = n_vars + n_rows + n_art
    tableau = np.zeros((n_rows + 1, n_total + 1))
    tableau[:n_rows, :n_vars] = a
    slack_sign = np.where(flip, -1.0, 1.0)
    tableau[:n_rows, n_vars : n_vars + n_rows] = np.diag(slack_sign)
    for k, r in enumerate(art_rows):
        tableau[r, n_vars + n_rows + k] = 1.0
    tableau[:n_rows, -1] = b
    basis = [
        n_vars + n_rows + list(art_rows).index(r) if flip[r] else n_vars + r for r in range(n_rows)
    ]

    iters = 0
    if n_art:
        # phase 1: maximize minus the artificial mass
        phase1 = np.zeros(n_total)
        phase1[n_vars + n_rows :] = -1.0
        tableau[-1, :-1] = phase1
        tableau[-1, -1] = 0.0
        for r in art_rows:  # price out the initial artificial basis
            tableau[-1] += tableau[r]
        iters += _run_simplex(tableau, basis, maxiter)
        infeasibility = tableau[-1, -1]
        if infeasibility > _FEAS_TOL:
            x = np.zeros(n_vars)
            duals = -tableau[-1, n_vars : n_vars + n_rows]
            return LPSolution("infeasible", x, float("nan"), duals, iters)
        # drive any residual artificial out of the basis, then drop the columns
        for r in range(n_rows):
            if basis[r] >= n_vars + n_rows:
                pivot_cols = np.nonzero(np.abs(tableau[r, : n_vars + n_rows]) > _PIVOT_TOL)[0]
                if len(pivot_cols):
                    _pivot(tableau, r, int(pivot_cols[0]))
                    basis[r] = int(pivot_cols[0])
        tableau = np.delete(tableau, np.s_[n_vars + n_rows : n_total], axis=1)

    full_c = np.zeros(n_vars + n_rows)
    full_c[:n_vars] = c
    tableau[-1, :-1] = full_c
    tableau[-1, -1] = 0.0
    for r in range(n_rows):  # price out the current basis: row becomes c_j - z_j
        cb = full_c[basis[r]] if basis[r] < n_vars + n_rows else 0.0
        if cb != 0.0:
            tableau[-1] -= cb * tableau[r]

    iters += _run_simplex(tableau, basis, maxiter)

    x = np.zeros(n_vars + n_rows)
    for r in range(n_rows):
        if basis[r] < n_vars + n_rows:
            x[basis[r]] = tableau[r, -1]
    objective = float(c @ x[:n_vars])
    # row flips cancel in the dual read-out: the slack's reduced cost is -y_r
    # for unflipped rows and +w_r = -y_r for flipped ones
    duals = -tableau[-1, n_vars : n_vars + n_rows]
    gap = abs(objective - float(duals @ np.where(flip, -b, b)))
    if gap > tol * (1.0 + abs(objective)):
        raise LPNumericalFailure(
            f"duality gap {gap:.3e} exceeds tolerance at objective {objective:.6g}"
        )
    return LPSolution("optimal", x[:n_vars], objective, duals, iters)


@dataclass
class Mechanism:
    """Solved mechanism: ex-post allocations plus interim quantities."""

    setting: AuctionSetting
    n: int
    profiles: tuple[tuple[Valuation, ...], ...]
    profile_probs: np.ndarray
    valuations: tuple[Valuation, ...]
    vprobs: np.ndarray
    pi: np.ndarray  # (n, m, profiles)
    pbar: np.ndarray  # (n, valuations)
    interim_alloc: np.ndarray  # (n, valuations, m)
    revenue: float


class MechanismLP:
    """LP over ex-post allocations and interim payments for n i.i.d. bidders."""

    def __init__(self, setting: AuctionSetting, n: int):
        if n < 1:
            raise TooFewBidders("need n >= 1")
        self.setting = setting
        self.n = n
        self.m = setting.m
        vals, vprobs = setting.valuations()
        self.valuations = vals
        self.vprobs = vprobs
        self.n_vals = len(vals)
        # the exponent is capped so a huge n costs nothing: 2^bit_length > cap
        if self.n_vals ** min(n, PROFILE_CAP.bit_length()) > PROFILE_CAP:
            raise InstanceTooLarge(
                f"{self.n_vals}^{n} profiles exceed the cap {PROFILE_CAP}"
            )
        self.n_profiles = self.n_vals**n
        self.n_pi = n * self.m * self.n_profiles
        self.n_vars = self.n_pi + 2 * n * self.n_vals
        if self.n_vars > VARIABLE_CAP:
            raise InstanceTooLarge(f"{self.n_vars} variables exceed the cap {VARIABLE_CAP}")
        self.profiles = tuple(itertools.product(vals, repeat=n))
        self.profile_probs = np.array(
            [math.prod(vprobs[vals.index(v)] for v in prof) for prof in self.profiles]
        )
        self._build()

    def _pi_idx(self, i: int, j: int, pidx: int) -> int:
        return (i * self.m + j) * self.n_profiles + pidx

    def _pp_idx(self, i: int, vidx: int) -> int:
        return self.n_pi + i * self.n_vals + vidx

    def _pm_idx(self, i: int, vidx: int) -> int:
        return self.n_pi + self.n * self.n_vals + i * self.n_vals + vidx

    def _interim_weights(self, i: int) -> np.ndarray:
        """w[vidx, pidx] = Pr(others' profile) when bidder i reports valuation vidx."""
        w = np.zeros((self.n_vals, self.n_profiles))
        for pidx, prof in enumerate(self.profiles):
            vidx = self.valuations.index(prof[i])
            w[vidx, pidx] = self.profile_probs[pidx] / self.vprobs[vidx]
        return w

    def _build(self) -> None:
        n, m = self.n, self.m
        c = np.zeros(self.n_vars)
        for i in range(n):
            for vidx in range(self.n_vals):
                c[self._pp_idx(i, vidx)] = self.vprobs[vidx]
                c[self._pm_idx(i, vidx)] = -self.vprobs[vidx]

        rows: list[np.ndarray] = []
        rhs: list[float] = []
        # each item allocated at most once per profile
        for pidx in range(self.n_profiles):
            for j in range(m):
                row = np.zeros(self.n_vars)
                for i in range(n):
                    row[self._pi_idx(i, j, pidx)] = 1.0
                rows.append(row)
                rhs.append(1.0)
        # truthfulness and participation on interim quantities
        weights = [self._interim_weights(i) for i in range(n)]
        for i in range(n):
            w = weights[i]
            for a, va in enumerate(self.valuations):
                ir = np.zeros(self.n_vars)
                for j in range(m):
                    for pidx in np.nonzero(w[a])[0]:
                        ir[self._pi_idx(i, j, pidx)] -= va[j] * w[a, pidx]
                ir[self._pp_idx(i, a)] += 1.0
                ir[self._pm_idx(i, a)] -= 1.0
                rows.append(ir)
                rhs.append(0.0)
                for b in range(self.n_vals):
                    if b == a:
                        continue
                    row = np.zeros(self.n_vars)
                    for j in range(m):
                        for pidx in np.nonzero(w[a])[0]:
                            row[self._pi_idx(i, j, pidx)] -= va[j] * w[a, pidx]
                        for pidx in np.nonzero(w[b])[0]:
                            row[self._pi_idx(i, j, pidx)] += va[j] * w[b, pidx]
                    row[self._pp_idx(i, a)] += 1.0
                    row[self._pm_idx(i, a)] -= 1.0
                    row[self._pp_idx(i, b)] -= 1.0
                    row[self._pm_idx(i, b)] += 1.0
                    rows.append(row)
                    rhs.append(0.0)
        self.c = c
        self.a_ub = np.array(rows)
        self.b_ub = np.array(rhs)

    def solve(self) -> Mechanism:
        sol = lp_solve(self.c, self.a_ub, self.b_ub)
        if sol.status != "optimal":
            raise LPNumericalFailure("mechanism LP reported infeasible; construction bug")
        n, m = self.n, self.m
        pi = np.zeros((n, m, self.n_profiles))
        for i in range(n):
            for j in range(m):
                for pidx in range(self.n_profiles):
                    pi[i, j, pidx] = sol.x[self._pi_idx(i, j, pidx)]
        pbar = np.zeros((n, self.n_vals))
        for i in range(n):
            for vidx in range(self.n_vals):
                pbar[i, vidx] = sol.x[self._pp_idx(i, vidx)] - sol.x[self._pm_idx(i, vidx)]
        interim = np.zeros((n, self.n_vals, m))
        for i in range(n):
            w = self._interim_weights(i)
            for vidx in range(self.n_vals):
                for j in range(m):
                    interim[i, vidx, j] = float(w[vidx] @ pi[i, j])
        return Mechanism(
            setting=self.setting,
            n=n,
            profiles=self.profiles,
            profile_probs=self.profile_probs,
            valuations=self.valuations,
            vprobs=self.vprobs,
            pi=pi,
            pbar=pbar,
            interim_alloc=interim,
            revenue=sol.objective,
        )


def optimal_revenue(setting: AuctionSetting, n: int) -> tuple[float, Mechanism]:
    """Maximum expected revenue of any truthful auction, with its certificate."""
    mech = MechanismLP(setting, n).solve()
    return mech.revenue, mech
