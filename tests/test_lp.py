"""Simplex against a vertex-enumeration oracle, and the mechanism LP's known optima."""

import importlib.util
import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    iu,
    lp_solve,
    make_item_distribution,
    make_rng,
    optimal_revenue,
    ronen_bound,
    srev,
    vcg_revenue,
)
from auctionbench import lp
from auctionbench.errors import InstanceTooLarge, LPNumericalFailure, MaxIterations, Unbounded
from auctionbench.generators import random_item, random_setting
from auctionbench.lp import MechanismLP, _pivot
from helpers import reference_lp_solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def vertex_enumeration_optimum(c, a_ub, b_ub):
    """Max of c.x over {A x <= b, x >= 0} by checking every basic point.

    Stacks the rows with the nonnegativity bounds, solves every n-subset, and
    keeps the best feasible solution.  None when no feasible vertex exists.
    """
    n = len(c)
    rows = np.vstack([a_ub, -np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n)])
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = rows[list(subset)]
        b = rhs[list(subset)]
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, b)
        if np.all(x >= -1e-9) and np.all(a_ub @ x <= b_ub + 1e-9):
            value = float(c @ x)
            if best is None or value > best:
                best = value
    return best


def reference_mechanism_lp(setting, n):
    """(c, a_ub, b_ub) of the mechanism LP, written row by row from MechanismLP's docstring."""
    vals, vprobs = setting.valuations()
    m, n_vals = setting.m, len(vals)
    profiles = list(itertools.product(range(n_vals), repeat=n))
    n_pi = n * m * len(profiles)
    n_vars = n_pi + 2 * n * n_vals

    def pi(i, j, p):
        return (i * m + j) * len(profiles) + p

    def plus(i, v):
        return n_pi + i * n_vals + v

    def minus(i, v):
        return n_pi + (n + i) * n_vals + v

    def add_utility(row, i, true, report, sign):
        """row += sign * (utility of valuation `true` reporting `report` at the interim)."""
        for p, prof in enumerate(profiles):
            if prof[i] == report:
                others = math.prod(vprobs[v] for v in prof) / vprobs[report]
                for j in range(m):
                    row[pi(i, j, p)] += sign * (vals[true][j] * others)
        row[plus(i, report)] -= sign
        row[minus(i, report)] += sign

    c = np.zeros(n_vars)
    for i in range(n):
        for v in range(n_vals):
            c[plus(i, v)] = vprobs[v]
            c[minus(i, v)] = -vprobs[v]
    rows, rhs = [], []
    for p in range(len(profiles)):
        for j in range(m):
            row = np.zeros(n_vars)
            for i in range(n):
                row[pi(i, j, p)] = 1.0
            rows.append(row)
            rhs.append(1.0)
    for i in range(n):
        for a in range(n_vals):
            for b in [None] + [b for b in range(n_vals) if b != a]:
                row = np.zeros(n_vars)
                add_utility(row, i, a, a, -1.0)
                if b is not None:
                    add_utility(row, i, a, b, 1.0)
                rows.append(row)
                rhs.append(0.0)
    return c, np.array(rows), np.array(rhs)


def symmetric_reference_lp(setting, n):
    """(c, a_ub, b_ub) of the symmetric mechanism LP, written row by row from MechanismLP's docstring.

    Also returns the rivals' multisets as count tuples, in the LP's order.
    """
    vals, vprobs = setting.valuations()
    m, n_vals = setting.m, len(vals)
    q = vprobs.tolist()

    def counts(multiset):
        return tuple(multiset.count(v) for v in range(n_vals))

    rivals = [counts(t) for t in itertools.combinations_with_replacement(range(n_vals), n - 1)]
    profiles = [counts(t) for t in itertools.combinations_with_replacement(range(n_vals), n)]
    n_x = m * n_vals * len(rivals)
    n_vars = n_x + 2 * n_vals

    def x(j, v, s):
        return (j * n_vals + v) * len(rivals) + rivals.index(s)

    def prob(s):
        coef = math.factorial(n - 1) // math.prod(math.factorial(k) for k in s)
        return coef * math.prod(q[v] ** k for v, k in enumerate(s))

    def add_utility(row, true, report, sign):
        """row += sign * (utility of valuation `true` reporting `report` at the interim)."""
        for s in rivals:
            for j in range(m):
                row[x(j, report, s)] += sign * (vals[true][j] * prob(s))
        row[n_x + report] -= sign
        row[n_x + n_vals + report] += sign

    c = np.zeros(n_vars)
    for v in range(n_vals):
        c[n_x + v] = n * vprobs[v]
        c[n_x + n_vals + v] = -n * vprobs[v]
    rows, rhs = [], []
    for profile in profiles:
        for j in range(m):
            row = np.zeros(n_vars)
            for v in range(n_vals):
                if profile[v]:
                    row[x(j, v, tuple(k - (u == v) for u, k in enumerate(profile)))] = profile[v]
            rows.append(row)
            rhs.append(1.0)
    for a in range(n_vals):
        for b in [None] + [b for b in range(n_vals) if b != a]:
            row = np.zeros(n_vars)
            add_utility(row, a, a, -1.0)
            if b is not None:
                add_utility(row, a, b, 1.0)
            rows.append(row)
            rhs.append(0.0)
    return c, np.array(rows), np.array(rhs), rivals


def expand_to_profiles(x, setting, n, rivals):
    """A symmetric LP point as a point of `reference_mechanism_lp`.

    Bidder i's allocation at the ordered profile p is x[j, p_i, counts(p_-i)];
    every bidder's payments are bidder 0's.
    """
    n_vals, m = len(setting.valuations()[0]), setting.m
    pi = x[: -2 * n_vals].reshape(m, n_vals, len(rivals))
    profiles = list(itertools.product(range(n_vals), repeat=n))
    full = np.zeros((n, m, len(profiles)))
    for p, profile in enumerate(profiles):
        for i in range(n):
            others = profile[:i] + profile[i + 1 :]
            s = rivals.index(tuple(others.count(v) for v in range(n_vals)))
            full[i, :, p] = pi[:, profile[i], s]
    plus, minus = x[-2 * n_vals :].reshape(2, n_vals)
    return np.concatenate([full.ravel(), np.tile(plus, n), np.tile(minus, n)])


def load_perfbench(name):
    """A perfbench module, loaded without installing anything."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_highs_oracle():
    """perfbench's HiGHS encoding of the mechanism LP."""
    return load_perfbench("oracles").highs_optimal_revenue


def defect_probe(seed, op_id):
    """The one item of an `lp_oracle` defect probe (8 atoms, n=2)."""
    probes = load_perfbench("workloads").lp_defects(seed, None)
    (item,) = next(op["items"] for op in probes if op["id"] == op_id)
    return item


def items_setting(items, n):
    dists = tuple(make_item_distribution([float(v) for v in item["values"]], item["probs"]) for item in items)
    return AuctionSetting(items=dists, n=n, n_prime=max(n, 2))


def one_item_setting(item, n):
    return items_setting([item], n)


def lp_oracle_lps(seeds):
    """The distinct LPs of `lp_oracle` runs: timed ops, defect probes and pinned LPs, as {op id: MechanismLP}."""
    workloads = load_perfbench("workloads")
    lps, seen = {}, set()
    for seed in seeds:
        for op in workloads.lp_oracle(seed, None) + workloads.lp_defects(seed, None):
            key = json.dumps([op["items"], op["n"]])
            if key not in seen:
                seen.add(key)
                lps[f"seed {seed} {op['id']}"] = MechanismLP(items_setting(op["items"], op["n"]), op["n"])
    return lps


def solve_record(solver, c, a_ub, b_ub):
    """What a solve returns or raises: (repr(objective), iterations, switches, gap, x, duals) or (type, message)."""
    try:
        sol = solver(c, a_ub, b_ub)
    except (LPNumericalFailure, MaxIterations, Unbounded) as exc:
        return type(exc), str(exc)
    return repr(sol.objective), sol.iterations, sol.bland_switches, sol.duality_gap, sol.x, sol.duals


def assert_reference_pivots(c, a_ub, b_ub, name=""):
    """lp_solve and the full-tableau reference give the same numbers, bit for bit, or the same error."""
    got, want = solve_record(lp_solve, c, a_ub, b_ub), solve_record(reference_lp_solve, c, a_ub, b_ub)
    assert got[:4] == want[:4], name
    if len(want) > 2:
        assert np.array_equal(got[4], want[4]) and np.array_equal(got[5], want[5]), name
    return got


@st.composite
def one_item(draw):
    """One item of at most 8 atoms in perfbench's draw format."""
    values = draw(st.lists(st.integers(1, 99), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.05), min_size=len(values), max_size=len(values)))
    return {"values": sorted(values), "probs": [w / sum(weights) for w in weights]}


class TestPivot:
    def test_sparse_update_equals_the_dense_rank_one_update(self):
        # the slack-free tableau against the nonbasic columns of the full one, [A | I | b]
        rng = make_rng(25)
        for _ in range(200):
            n_rows, n_vars = (int(k) for k in rng.integers(2, 12, size=2))
            # structural zeros, as in the mechanism LP's tableau; the last row holds the costs
            condensed = rng.normal(size=(n_rows + 1, n_vars + 1)) * (rng.random((n_rows + 1, n_vars + 1)) < 0.3)
            full = np.zeros((n_rows + 1, n_vars + n_rows + 1))
            full[:, :n_vars], full[:, -1] = condensed[:, :-1], condensed[:, -1]
            full[np.arange(n_rows), n_vars + np.arange(n_rows)] = 1.0
            basis, nonbasic = n_vars + np.arange(n_rows), np.arange(n_vars)
            for _ in range(3):
                row, col = int(rng.integers(n_rows)), int(rng.integers(n_vars))
                condensed[row, col] = full[row, nonbasic[col]] = rng.uniform(0.5, 2.0)
                entering, leaving = nonbasic[col], basis[row]
                full[row] /= full[row, entering]
                factors = full[:, entering].copy()
                factors[row] = 0.0
                full -= np.outer(factors, full[row])
                _pivot(condensed, nonbasic, basis, row, col)
                assert (basis[row], nonbasic[col]) == (entering, leaving)
                assert np.array_equal(condensed[:, :-1], full[:, nonbasic])
                assert np.array_equal(condensed[:, -1], full[:, -1])


class TestLPSolve:
    def test_single_variable(self):
        sol = lp_solve(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals == pytest.approx([1.0])
        assert (sol.iterations, sol.bland_switches, sol.duality_gap) == (1, 0, 0.0)

    def test_zero_objective(self):
        sol = lp_solve(np.array([0.0]), np.zeros((0, 1)), np.zeros(0))
        assert sol.objective == 0.0

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            lp_solve(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize("rhs", [-2.0, math.nan])
    def test_negative_or_nan_rhs_is_refused(self, rhs):
        # x = 0 must be a feasible start: the solver has no phase 1
        with pytest.raises(ValueError, match="b_ub must be >= 0"):
            lp_solve(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, rhs]))

    @pytest.mark.parametrize(
        "c, a, b",
        [
            ([math.nan], [[1.0]], [1.0]),
            ([1.0], [[math.nan]], [1.0]),
            ([1.0], [[1.0]], [math.inf]),
            ([1.0], [[math.inf]], [1.0]),
        ],
    )
    def test_non_finite_input_is_refused(self, c, a, b):
        # a NaN objective, a false Unbounded, an infinite or a 0.0 optimum before
        with pytest.raises(ValueError, match="must be finite"):
            lp_solve(np.array(c), np.array(a), np.array(b))

    def test_overflowed_tableau_is_a_numerical_failure(self):
        # finite entries whose pivot overflows: the objective reads inf and the
        # duality gap NaN, which a plain `gap > tol` test lets through
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LPNumericalFailure, match="gap nan"):
            lp_solve(np.array([1e200]), np.array([[1e-150], [1.0], [1e-200]]), np.array([1e200, 1e300, 1e250]))

    def test_degenerate_does_not_cycle(self):
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0, 1.0, 2.0])
        sol = lp_solve(c, a, b)
        assert sol.objective == pytest.approx(2.0)

    def test_bland_fallback_reaches_the_same_optimum(self, monkeypatch):
        # one degenerate pivot is enough to switch to Bland's rule
        setting = AuctionSetting(items=(random_item(make_rng(100), max_support=6),), n=2, n_prime=2)
        mech_lp = MechanismLP(setting, 2)
        harris = lp_solve(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub)
        monkeypatch.setattr(lp, "_DEGENERATE_LIMIT", 1)
        bland = lp_solve(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub)
        assert harris.bland_switches == 0 < bland.bland_switches
        assert bland.objective == pytest.approx(harris.objective, rel=1e-12)
        assert bland.objective == pytest.approx(srev(setting, 2), abs=1e-6)
        assert bland.duality_gap <= 1e-9 * (1 + abs(bland.objective))

    def test_bland_fallback_rescues_a_64_profile_lp(self, monkeypatch):
        # Bland's rule from the first degenerate pivot on, within 2,000 pivots
        setting = one_item_setting(defect_probe(0, "p64_8_n2_1"), 2)
        mech_lp = MechanismLP(setting, 2)
        harris = lp_solve(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub)
        monkeypatch.setattr(lp, "_DEGENERATE_LIMIT", 1)
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 2_000)
        bland = lp_solve(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub)
        assert bland.bland_switches > 0
        assert bland.objective == pytest.approx(harris.objective, rel=1e-12)
        assert bland.objective == pytest.approx(srev(setting, 2), abs=1e-6)

    def test_random_lps_match_vertex_enumeration(self):
        rng = make_rng(20)
        solved = 0
        while solved < 40:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.1, 2.0, size=m)
            c = rng.normal(size=n)
            # cap every variable so the region is bounded
            a_full = np.vstack([a, np.eye(n)])
            b_full = np.concatenate([b, np.full(n, 5.0)])
            oracle = vertex_enumeration_optimum(c, a_full, b_full)
            sol = lp_solve(c, a_full, b_full)
            assert oracle is not None
            assert sol.objective == pytest.approx(oracle, abs=1e-7)
            assert np.all(a_full @ sol.x <= b_full + 1e-8)
            solved += 1

    def test_duals_feasible_on_random_lps(self):
        rng = make_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            a = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
            b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 4.0)])
            c = rng.normal(size=n)
            sol = lp_solve(c, a, b)
            assert np.all(sol.duals >= -1e-8)
            assert np.all(a.T @ sol.duals >= c - 1e-7)


class TestReferenceSolver:
    """The slack-free tableau pivots as the full tableau [A | I | b] did (`helpers.reference_lp_solve`)."""

    def test_lp_oracle_lps(self):
        lps = lp_oracle_lps(range(10))
        assert {"seed 0 pinned_lp256", "seed 0 pinned_gap", "seed 0 pinned_stall"} <= lps.keys()
        for name, mech_lp in lps.items():
            assert_reference_pivots(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub, name)

    def test_in_cap_random_draws(self):
        # draw 11 fails the same way after about 1 s (3 s on the full tableau), so it is skipped
        rng = make_rng(12345)
        errors = {}
        for draw in range(150):
            setting = random_setting(rng, max_items=3, max_support=3, max_bidders=3)
            if draw == 11:
                continue
            try:
                mech_lp = MechanismLP(setting, setting.n)
            except InstanceTooLarge:
                continue
            got = assert_reference_pivots(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub, f"draw {draw}")
            if len(got) == 2:
                errors[draw] = got[0]
        assert errors == {114: LPNumericalFailure}

    def test_forced_bland(self, monkeypatch):
        monkeypatch.setattr(lp, "_DEGENERATE_LIMIT", 1)
        switches = 0
        for name, mech_lp in lp_oracle_lps([0]).items():
            # under Bland's rule from the first degenerate pivot on, the stall LP runs to MaxIterations (84 s)
            if name != "seed 0 pinned_stall":
                switches += assert_reference_pivots(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub, name)[2]
        assert switches > 0

    def test_pivot_cap_and_unbounded(self, monkeypatch):
        mech_lp = MechanismLP(one_item_setting(defect_probe(0, "p64_8_n2_1"), 2), 2)
        monkeypatch.setattr(lp, "_MAX_PIVOTS", 3)
        assert assert_reference_pivots(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub)[0] is MaxIterations
        assert assert_reference_pivots(np.array([1.0]), np.zeros((0, 1)), np.zeros(0))[0] is Unbounded


class TestOptimalRevenue:
    def test_single_bidder_single_item(self, setting_d2):
        value, mech = optimal_revenue(setting_d2, 1)
        assert value == pytest.approx(1.0, abs=1e-7)
        assert mech.revenue == pytest.approx(value)

    def test_two_bidders_matches_srev(self, setting_d2):
        value, _ = optimal_revenue(setting_d2, 2)
        assert value == pytest.approx(1.5, abs=1e-6)

    def test_two_items_dominates_simple_floors(self, setting_two_items):
        value, _ = optimal_revenue(setting_two_items, 1)
        assert value >= 2.25 - 1e-7  # grand bundle at 3
        assert value >= 2.0 - 1e-7  # selling separately

    def test_dominates_lower_bounds(self):
        rng = make_rng(22)
        for _ in range(15):
            setting = random_setting(rng, max_items=2, max_support=2, max_bidders=2, max_ghosts=3)
            value, _ = optimal_revenue(setting, setting.n)
            assert value >= srev(setting, setting.n) - 1e-6
            assert value >= ronen_bound(setting, setting.n) - 1e-6
            if setting.n >= 2:
                assert value >= vcg_revenue(setting, setting.n) - 1e-6

    def test_scaling_covariance(self, d2):
        base = AuctionSetting(items=(d2,), n=1, n_prime=2)
        scaled_item = make_item_distribution([3, 6], [0.5, 0.5])
        scaled = AuctionSetting(items=(scaled_item,), n=1, n_prime=2)
        v1, _ = optimal_revenue(base, 1)
        v3, _ = optimal_revenue(scaled, 1)
        assert v3 == pytest.approx(3.0 * v1, abs=1e-7)

    def test_step1_duality_on_seeded_instances(self):
        rng = make_rng(23)
        for _ in range(30):
            setting = random_setting(rng, max_items=2, max_support=2, max_bidders=2, max_ghosts=5)
            value, _ = optimal_revenue(setting, setting.n)
            for n_prime in range(1, 6):
                assert value <= iu(setting, setting.n, n_prime) + 1e-6

    def test_instance_too_large(self, d2):
        setting = AuctionSetting(items=(d2,) * 5, n=3, n_prime=3)
        with pytest.raises(InstanceTooLarge):
            optimal_revenue(setting, 3)

    def test_huge_bidder_count_refused_at_once(self, d2, point_mass):
        # 2^(10^8) profiles: n_vals^n is never formed in full
        with pytest.raises(InstanceTooLarge, match="profiles"):
            MechanismLP(AuctionSetting(items=(d2,), n=10**8, n_prime=10**8), 10**8)
        # one valuation fits any n whose per-bidder views numpy can shape
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        assert MechanismLP(setting, 2**60 - 1).solve().pbar.shape == (2**60 - 1, 1)
        for n in (2**60, 10**300):
            with pytest.raises(InstanceTooLarge, match="array size"):
                MechanismLP(setting, n)

    def test_one_valuation_solves_at_any_bidder_count(self, point_mass):
        # one profile multiset: 3 variables and 2 rows, with no array of length n
        n = 10**8
        setting = AuctionSetting(items=(point_mass,), n=n, n_prime=n)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            mech_lp = MechanismLP(setting, n)
            mech = mech_lp.solve()
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mech_lp.a_ub.shape == (2, 3)
        assert mech.revenue == pytest.approx(1.0, rel=1e-12)
        assert mech.pbar.shape == (n, 1) and mech.interim_alloc.shape == (n, 1, 1)
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_incentive_rows_count_toward_the_cap(self):
        # 2 items x 16 atoms, n=1: 256 profiles and 1,024 variables, but 66,048
        # rows (n V^2 incentive rows), a tableau of about 4.4e9 cells
        item = make_item_distribution(list(range(1, 17)), [1 / 16] * 16)
        setting = AuctionSetting(items=(item, item), n=1, n_prime=2)
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match="tableau cells"):
            MechanismLP(setting, 1)
        assert time.perf_counter() - start < 1.0

    def test_interim_quantities_consistent(self, setting_d2):
        _, mech = optimal_revenue(setting_d2, 2)
        # interim allocation of the high type should be near 1 for some bidder
        assert np.all(mech.interim_alloc >= -1e-9)
        assert np.all(mech.interim_alloc <= 1 + 1e-9)
        # revenue recomputed from interim payments
        total = sum(
            mech.vprobs[vidx] * mech.pbar[i, vidx]
            for i in range(mech.n)
            for vidx in range(len(mech.valuations))
        )
        assert total == pytest.approx(mech.revenue, abs=1e-8)


class TestMechanismLPOracles:
    def test_encoding_matches_the_row_by_row_reference(self):
        covered = set()
        for seed in range(40):
            setting = random_setting(make_rng(seed), max_items=2, max_support=3, max_bidders=3)
            n = setting.n
            try:
                lp = MechanismLP(setting, n)
            except InstanceTooLarge:
                continue
            c, a_ub, b_ub, _ = symmetric_reference_lp(setting, n)
            assert np.array_equal(lp.c, c) and np.array_equal(lp.b_ub, b_ub)
            assert np.array_equal(lp.a_ub, a_ub)
            if n == 1:
                # one bidder: the symmetric LP is the full LP, element for element
                c, a_ub, b_ub = reference_mechanism_lp(setting, n)
                assert np.array_equal(lp.c, c) and np.array_equal(lp.b_ub, b_ub)
                assert np.array_equal(lp.a_ub, a_ub)
            covered.add((n, setting.m))
        assert covered == {(n, m) for n in (1, 2, 3) for m in (1, 2)}

    def test_symmetric_optimum_is_the_full_lp_optimum(self):
        # Daskalakis & Weinberg (2012): for i.i.d. bidders some optimal
        # mechanism is symmetric, and the symmetric optimum, expanded to
        # ordered profiles, is a feasible point of the full LP
        covered = set()
        for seed in range(40):
            setting = random_setting(make_rng(seed), max_items=2, max_support=3, max_bidders=3)
            n = setting.n
            if n == 1:
                continue
            try:
                mech_lp = MechanismLP(setting, n)
            except InstanceTooLarge:
                continue
            sym = lp_solve(mech_lp.c, mech_lp.a_ub, mech_lp.b_ub)
            c, a_ub, b_ub = reference_mechanism_lp(setting, n)
            full = lp_solve(c, a_ub, b_ub)
            assert sym.objective == pytest.approx(full.objective, rel=1e-9, abs=0)
            point = expand_to_profiles(sym.x, setting, n, symmetric_reference_lp(setting, n)[3])
            assert np.all(a_ub @ point <= b_ub + 1e-9)
            assert np.all(point >= -1e-9)
            assert c @ point == pytest.approx(full.objective, rel=1e-9, abs=0)
            covered.add((n, setting.m))
        assert covered == {(n, m) for n in (2, 3) for m in (1, 2)}

    def test_one_item_equals_myerson(self):
        # Myerson (1981): for one item the optimum is the ironed
        # virtual-surplus auction, whose revenue srev computes
        for seed in range(40):
            item = random_item(make_rng(100 + seed), max_support=6)
            for n in (1, 2):
                setting = AuctionSetting(items=(item,), n=n, n_prime=2)
                value, _ = optimal_revenue(setting, n)
                assert value == pytest.approx(srev(setting, n), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(item=one_item(), n=st.integers(1, 2))
    # lp_oracle defect probes that failed while ratio-test ties went to the
    # smallest basis index (four duality-gap failures, one cycle)
    @example(item=defect_probe(0, "p64_8_n2_1"), n=2)
    @example(item=defect_probe(1, "p64_8_n2_4"), n=2)
    @example(item=defect_probe(3, "p64_8_n2_4"), n=2)
    @example(item=defect_probe(7, "p64_8_n2_7"), n=2)
    @example(item=defect_probe(9, "p64_8_n2_0"), n=2)
    def test_one_item_equals_myerson_on_drawn_items(self, item, n):
        setting = one_item_setting(item, n)
        value, _ = optimal_revenue(setting, n)
        assert value == pytest.approx(srev(setting, n), abs=1e-6)

    def test_pinned_gap_instance_equals_myerson(self):
        # 16 atoms, n=2: 256 profiles, a tableau of about 1e6 cells
        spec = json.loads((PERFBENCH / "pinned" / "gap.json").read_text())
        (item,) = spec["items"]
        setting = one_item_setting(item, spec["n"])
        value, _ = optimal_revenue(setting, spec["n"])
        assert value == pytest.approx(srev(setting, spec["n"]), abs=1e-6)

    def test_pinned_stall_instance_matches_highs(self):
        # two 4-atom items, n=2: the LP once stalled here, and the benchmark's refs record that failure
        pytest.importorskip("scipy")
        spec = json.loads((PERFBENCH / "pinned" / "stall.json").read_text())
        value, _ = optimal_revenue(items_setting(spec["items"], spec["n"]), spec["n"])
        assert value == pytest.approx(load_highs_oracle()(spec["items"], spec["n"]), rel=1e-6, abs=1e-6)

    def test_agrees_with_highs(self):
        pytest.importorskip("scipy")
        highs_optimal_revenue = load_highs_oracle()
        for seed in range(30):
            setting = random_setting(make_rng(seed), max_items=2, max_support=2, max_bidders=3)
            items = [{"values": list(item.values), "probs": list(item.probs)} for item in setting.items]
            value, _ = optimal_revenue(setting, setting.n)
            assert value == pytest.approx(highs_optimal_revenue(items, setting.n), rel=1e-6, abs=1e-6)
