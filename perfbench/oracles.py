"""Independent oracles for the correctness gate.

``highs_optimal_revenue`` is the benchmark's own encoding of the optimal
truthful mechanism LP, solved with scipy's HiGHS.  It shares no code with
``auctionbench.lp``, so a rewrite of ``MechanismLP`` cannot move its own
reference.  ``mc_within_4se`` compares Monte-Carlo estimates with the exact
independent-utilities benchmark.
"""

from __future__ import annotations

import itertools
import json
import math

LP_TOL = 1e-6


def highs_optimal_revenue(items: list[dict], n: int) -> float | None:
    """Optimal expected revenue over truthful mechanisms; None without scipy.

    Variables: ex-post allocations x[i, j, profile] >= 0 and free interim
    payments t[i, v].  Each item goes to at most one bidder per profile;
    interim IR and IC hold for every bidder over all pairs of valuations.
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import coo_matrix
    except ImportError:
        return None

    supports = [[float(v) for v in it["values"]] for it in items]
    masses = [[float(p) for p in it["probs"]] for it in items]
    m = len(items)
    vals = list(itertools.product(*[range(len(s)) for s in supports]))
    q = [math.prod(masses[j][c[j]] / sum(masses[j]) for j in range(m)) for c in vals]
    value = [[supports[j][c[j]] for j in range(m)] for c in vals]
    nv = len(vals)
    profiles = list(itertools.product(range(nv), repeat=n))
    n_x = n * m * len(profiles)
    n_vars = n_x + n * nv

    def xi(i: int, j: int, p: int) -> int:
        return (i * m + j) * len(profiles) + p

    def ti(i: int, v: int) -> int:
        return n_x + i * nv + v

    rows, cols, data, rhs = [], [], [], []
    r = 0
    for p in range(len(profiles)):
        for j in range(m):
            for i in range(n):
                rows.append(r), cols.append(xi(i, j, p)), data.append(1.0)
            rhs.append(1.0)
            r += 1
    # interim[i][v] = [(column, weight)] with x-bar_ij(v) = sum weight * x[i, j, p]
    interim = [[[] for _ in range(nv)] for _ in range(n)]
    for p, prof in enumerate(profiles):
        for i in range(n):
            w = math.prod(q[prof[k]] for k in range(n) if k != i)
            interim[i][prof[i]].append((p, w))

    def utility_terms(i: int, true_v: int, report: int, sign: float):
        """sign * (sum_j value_j(true_v) x-bar_ij(report) - t[i, report])."""
        for p, w in interim[i][report]:
            for j in range(m):
                yield xi(i, j, p), sign * value[true_v][j] * w
        yield ti(i, report), -sign

    for i in range(n):
        for v in range(nv):
            # IR: -(u(v -> v)) <= 0
            for c, d in utility_terms(i, v, v, -1.0):
                rows.append(r), cols.append(c), data.append(d)
            rhs.append(0.0)
            r += 1
            for b in range(nv):
                if b == v:
                    continue
                # IC: u(v -> b) - u(v -> v) <= 0
                for c, d in itertools.chain(utility_terms(i, v, b, 1.0), utility_terms(i, v, v, -1.0)):
                    rows.append(r), cols.append(c), data.append(d)
                rhs.append(0.0)
                r += 1
    a_ub = coo_matrix((data, (rows, cols)), shape=(r, n_vars)).tocsr()
    cost = np.zeros(n_vars)
    for i in range(n):
        for v in range(nv):
            cost[ti(i, v)] = -q[v]
    bounds = [(0, None)] * n_x + [(None, None)] * (n * nv)
    res = linprog(cost, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the mechanism LP: {res.message}")
    return float(-res.fun)


def lp_agrees(got: float, want: float) -> bool:
    return abs(got - want) <= LP_TOL * max(1.0, abs(want))


def mc_within_4se(config_path: str, report_text: str) -> list[str]:
    """Problems found comparing an MC analyze report with the exact benchmark."""
    from auctionbench.cli import load_config
    from auctionbench.iu import iu

    setting = load_config(config_path).setting
    scalars = json.loads(report_text)["scalars"]
    problems = []
    for label, bidders in (("n", setting.n), ("n_prime", setting.n_prime)):
        exact = iu(setting, bidders, setting.n_prime)
        est = scalars[f"iu_{label}_estimate"]
        se = scalars[f"iu_{label}_std_error"]
        if se is None or abs(est - exact) > 4.0 * se:
            problems.append(f"MC iu_{label} {est} vs exact {exact} exceeds 4 standard errors ({se})")
    return problems
