"""Decomposition of the benchmark into simple-auction terms and the entry-fee floors.

Everything is computed exactly over the joint law of the ghost max vector M.
Bidders are exchangeable and the other bidders' profile enters only through
M, so per-bidder sums collapse to a factor n'.  Per item and conditional on
M, the capped utility depends only on that item's value, so the capped
utility sum is read off the product grid of the items' values, on the box
above M where some utility can be positive.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dist import (
    AuctionSetting,
    CHECK_TOL,
    MASS_TOL,
    MaxVector,
    ScalarDistribution,
    Valuation,
    iid_max_expectation,
    max_vector_distribution,
    product_grid,
)
from .errors import InstanceTooLarge, NotRegular, TooFewBidders
from .iu import Instance, region_kernel
from .lp import optimal_revenue
from .myerson import all_regular
from .report import CheckRecord
from .simple_auctions import vcg_revenue

HIGH_PAIR_FACTOR = 6.0  # capped-utility mean at least this multiple of the posted-revenue kernel
NICE_PROB_FLOOR = 7.0 / 9.0
HIGH_SQUARE_FACTOR = 81.0 / 49.0  # 1 / NICE_PROB_FLOOR^2
PI_CHAIN_CONSTANT = 17.0


class UtilityStats(NamedTuple):
    """Capped-utility statistics, one entry per ghost max vector M in ``itertools.product`` order.

    U is sum_j max(v_j - M_j, 0); U_hat counts item j's utility only where it is at most r_ron_total.
    """

    m_vecs: np.ndarray  # (K, m), row k is the max vector M
    prob: np.ndarray  # Pr(M)
    r_ron_total: np.ndarray  # sum over items of the best posted revenue above M_j
    e_u_hat: np.ndarray
    var_u_hat: np.ndarray
    fee_pd: np.ndarray  # prior-dependent fee max(E[U_hat] - 2 r, 0)
    fee_accept: np.ndarray  # Pr(U_hat >= fee_pd)
    nice_prob: np.ndarray  # Pr(U_hat >= E[U_hat] / 2)
    pair_mass: np.ndarray  # E[U(s) 1(U(s) <= U(w))] for s, w i.i.d.


# Box cells worked per block.  Max vectors are laid out in blocks under this
# budget, so peak memory does not grow with the joint support.
PAIR_BUDGET = 1 << 14


def _blocks(widths: list[int], budget: int):
    """Cut 0..len(widths), widths non-decreasing, into runs [lo, hi) with (hi - lo) * widths[hi - 1] <= budget.

    A single entry over the budget gets a run of its own.
    """
    lo = 0
    for i, width in enumerate(widths):
        if i > lo and (i + 1 - lo) * width > budget:
            yield lo, i
            lo = i
    yield lo, len(widths)


def build_utility_stats(inst: Instance) -> UtilityStats:
    """Exact per-M statistics over the joint max-vector support, as columns.

    Given M, item j's utility max(v_j - M_j, 0) is 0 at every atom at or
    below M_j, so the laws of U and U_hat live on the box of the product grid
    that starts, per item, at the last atom lo_j at or below M_j (the first
    atom if there is none), lo_j carrying the mass cdf_arr[lo_j].  Each M is
    one dense row of its box's cells in ``itertools.product`` order, padded
    with massless cells, and rows sorted by box width are worked in blocks of
    at most PAIR_BUDGET cells.  U and U_hat are summed in item order, as the
    per-M ``convolve`` fold adds them; the columns are mass-weighted row sums,
    so they may differ from the per-law methods in the last bits.
    """
    items = inst.setting.items
    inst.ghost_max.check_joint_cap(inst.setting.caps)
    m_vecs, probs = product_grid(inst.ghost_max.per_item)
    m_cols = m_vecs.T
    r_totals = functools.reduce(operator.add, [item.posted_revenue(m) for item, m in zip(items, m_cols)])
    lo = np.stack([np.maximum(item.values_arr.searchsorted(m, "right") - 1, 0) for item, m in zip(items, m_cols)])
    sides = np.array([[len(item.values)] for item in items]) - lo
    # strides[j] = sides[j + 1] * ... * sides[m - 1]; digit j of cell c is c // strides[j] % sides[j]
    strides = np.cumprod(np.vstack((np.ones_like(sides[:1]), sides[:0:-1])), axis=0)[::-1]
    widths = strides[0] * sides[0]
    # rows in order of box width, so each block is a slice
    order = widths.argsort(kind="stable")
    widths, r_sorted = widths[order], r_totals[order]
    m_sorted, lo, sides, strides = (per_item[:, order] for per_item in (m_cols, lo, sides, strides))

    columns = np.empty((6, len(probs)))
    for a, b in _blocks(widths.tolist(), PAIR_BUDGET):
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
        # Pr(U_hat >= x) = 1 - the mass strictly below x
        accept = 1.0 - np.where(u_hat < fee[:, None], mass, 0.0).sum(axis=1)
        nice = 1.0 - np.where(u_hat < mean[:, None] / 2.0, mass, 0.0).sum(axis=1)
        # E[U(s) 1(U(s) <= U(w))] = sum_a Pr(U = a) a Pr(U >= a): sort each row by U and
        # read Pr(U < a) at the first cell of a's run of equal values
        rows = np.arange(b - a)[:, None]
        by_u = u.argsort(axis=1)
        u, mass = u[rows, by_u], mass[rows, by_u]
        below = np.zeros_like(mass)
        mass[:, :-1].cumsum(axis=1, out=below[:, 1:])
        run_head = np.maximum.accumulate(np.where(u != np.roll(u, 1, axis=1), cells, 0), axis=1)
        pair = (mass * u * (1.0 - below[rows, run_head])).sum(axis=1)
        columns[:, a:b] = mean, var, fee, accept, nice, pair
    e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass = columns[:, order.argsort()]
    return UtilityStats(m_vecs, probs, r_totals, e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass)


class EventProbabilities(NamedTuple):
    p_und: tuple[float, ...]  # per item: Pr(v_j < M_j)
    p_nf: tuple[float, ...]  # per item: Pr(v_j >= M_j and some other item matches the utility)


def event_probabilities(v: Valuation, setting: AuctionSetting, n_prime: int) -> EventProbabilities:
    """Probabilities over M of the undercut and non-favorite events at v.

    p_nf_j = Pr(M_j <= v_j) - Pr(M_j <= v_j and every other utility strictly below v_j - M_j).
    """
    maxvec = max_vector_distribution(setting, n_prime - 1)
    maxvec.check_joint_cap(setting.caps)
    laws = maxvec.per_item
    rival_free = region_kernel(np.array([v]), laws, strict_ties=True)[0].tolist()
    p_und = tuple(1.0 - law.cdf(vj) for law, vj in zip(laws, v))
    p_nf = tuple(max(law.cdf(vj) - free, 0.0) for law, vj, free in zip(laws, v, rival_free))
    return EventProbabilities(p_und, p_nf)


def surplus_event_probability(
    setting: AuctionSetting, maxvec_laws: tuple[ScalarDistribution, ...], j: int, vj: float, m_vec: MaxVector
) -> float:
    """Pr over v_{-j} that some other item's utility weakly beats v_j - M_j.

    The per-M reference for ``decomposition_terms``' surplus bound, which sums
    the same events over v first (see there).
    """
    u = vj - m_vec[j]
    stay = 1.0
    for jp, item in enumerate(setting.items):
        if jp == j:
            continue
        stay *= item.prob_below(u + m_vec[jp])
    return 1.0 - stay


@dataclass
class DecompositionReport:
    """Split terms (core = n' E_M[E[U_hat | M]], tail = n' E_M[r sum_j Pr(v_j > T_j)]) and the chains' verdicts."""

    n: int
    n_prime: int
    srev_nprime: float
    single: float
    under: float
    over: float
    tail: float
    core: float
    surplus_bound: float
    iu_n: float
    iu_nprime: float
    ronen_mass: float  # n' * E_M[r_ron_total]
    fee_mass: float = 0.0
    participation_lb: float = 0.0
    pi_revenue_lb: float = 0.0
    s_all: float = 0.0
    pi_bvcg_floor: float = 0.0
    regular_branch: bool = False
    checks: list[CheckRecord] = field(default_factory=list)

    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.holds is not None)


def _at_or_below(law: ScalarDistribution, table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """table[k] at the last atom k of `law` at or below each x, 0 where there is none."""
    return np.concatenate(([0.0], table))[law.values_arr.searchsorted(x, side="right")]


def _max_mean(images: np.ndarray, probs: np.ndarray, n: int, renorm_tol: float) -> float:
    """E[max of n i.i.d. draws] of the law with mass probs[i] at images[i], equal images merged."""
    return iid_max_expectation(ScalarDistribution.from_atoms(zip(images.tolist(), probs.tolist()), renorm_tol), n)


def decomposition_terms(inst: Instance, n_dd: int) -> DecompositionReport:
    """Exact decomposition terms at bidder count n', each read from a table the instance holds.

    Core is n' E_M[E[U_hat | M]] (atom x keeps x - M_j iff M_j <= x <= T_j); Tail is n' E_M[r sum_j Pr(v_j > T_j)].
    """
    setting, n_prime = inst.setting, inst.n_prime
    if not (1 <= n_dd <= n_prime):
        raise TooFewBidders("need 1 <= n_dd <= n_prime")
    tables, stats, maxvec = inst.iu_tables, inst.stats, inst.ghost_max
    vals = np.array(tables.valuations)

    # per item, the max over n' of Single phi_tilde^+ P_j(v), Under v_j Pr(M_j > v_j), Over E[M_j; M_j <= v_j];
    # excess sums E_{M,v}[(v_j - M_j)^+] = E_v[v_j Pr(M_j <= v_j) - E[M_j; M_j <= v_j]] for Surplus
    single = under = over = excess = 0.0
    for j, (item, law_j) in enumerate(zip(setting.items, maxvec.per_item)):
        weighted = item.ironed.phi_plus[item.values_arr.searchsorted(vals[:, j])] * tables.p_region[:, j]
        single += _max_mean(weighted, tables.vprobs, n_prime, 1e-9)
        below = _at_or_below(law_j, law_j.cdf_arr, item.values_arr)
        under += _max_mean(item.values_arr * (1.0 - below), item.probs_arr, n_prime, MASS_TOL * 10)
        kept = _at_or_below(law_j, np.cumsum(law_j.values_arr * law_j.probs_arr), item.values_arr)
        over += _max_mean(kept, item.probs_arr, n_prime, MASS_TOL * 10)
        excess += float(item.probs_arr @ (item.values_arr * below - kept))

    prob, r = stats.prob, stats.r_ron_total
    # No clip at r*_j(M_j) is needed: the first atom y above T_j = M_j + r (r = r_ron_total)
    # has y > r, so r Pr(v_j > T_j) <= y Pr(v_j >= y) <= r*_j(M_j).
    thresholds = r[:, None] + stats.m_vecs
    above = sum(1.0 - _at_or_below(item, item.cdf_arr, thresholds[:, j]) for j, item in enumerate(setting.items))
    tail = n_prime * float(prob @ (r * above))
    core = n_prime * float(prob @ stats.e_u_hat)

    # Surplus: n' E_{M,v}[sum_j (v_j - M_j)^+ 1(some rival utility >= v_j - M_j)],
    # the excess minus the part where every rival utility stays strictly below.
    rival_free = region_kernel(vals, maxvec.per_item, strict_ties=True, weighted=True).sum(axis=1)
    surplus_bound = n_prime * (excess - float(tables.vprobs @ rival_free))

    return DecompositionReport(
        n=n_dd,
        n_prime=n_prime,
        srev_nprime=inst.srev_nprime,
        single=single,
        under=under,
        over=over,
        tail=tail,
        core=core,
        surplus_bound=surplus_bound,
        iu_n=tables.iu(n_dd),
        iu_nprime=tables.iu(n_prime),
        ronen_mass=inst.ronen_nprime,
    )


class BVCGFloor(NamedTuple):
    fee_mass: float
    participation_lb: float


def bvcg_constructed_revenue(inst: Instance) -> BVCGFloor:
    """Entry-fee mass of the constructed fee schedule and its collected floor.

    A bidder whose capped utility clears the fee pays at least the fee, so
    participation_lb is an exact lower bound on the best entry-fee revenue.
    Zero fees are always accepted.
    """
    stats = inst.stats
    fee_mass = inst.n_prime * float(stats.prob @ stats.fee_pd)
    return BVCGFloor(fee_mass, inst.n_prime * float((stats.prob * stats.fee_pd) @ stats.fee_accept))


class PIBVCGFloor(NamedTuple):
    revenue_lb: float
    s_all: float


def pi_bvcg_constructed_revenue(inst: Instance) -> PIBVCGFloor:
    """Fee revenue floor of the special-bidder construction at population n' + 1.

    The fee for a regular bidder is the special bidder's uncapped utility;
    it is collected whenever the bidder's own utility covers it:
    revenue_lb = n' E_M E_{s,w}[U_M(s) 1(U_M(s) <= U_M(w))] with s, w i.i.d.
    s_all is the nice-set weighted mean n' E_M[Pr(nice)^2 E[U_hat]].
    """
    stats = inst.stats
    revenue = float(stats.prob @ stats.pair_mass)
    s_all = float((stats.prob * stats.nice_prob**2) @ stats.e_u_hat)
    return PIBVCGFloor(inst.n_prime * revenue, inst.n_prime * s_all)


def lemma_chain_check(
    inst: Instance, n: int, regular_branch: bool | None = None, tol: float = CHECK_TOL
) -> DecompositionReport:
    """Verify every exactly computable link of the two inequality chains.

    The prior-dependent chain ends at iu <= 2 (entry-fee floor) + 6 SRev(n');
    the regular branch ends at iu <= 17 (prior-independent floor at n' + 1).
    `regular_branch=None` runs the latter exactly when all items are regular.
    """
    setting, n_prime = inst.setting, inst.n_prime
    is_regular = all_regular(setting)
    if regular_branch is True and not is_regular:
        raise NotRegular("the prior-independent chain requires all items regular")
    run_regular = is_regular if regular_branch is None else regular_branch

    rep = decomposition_terms(inst, n)
    fee_mass, participation_lb = bvcg_constructed_revenue(inst)
    rep.fee_mass = fee_mass
    rep.participation_lb = participation_lb
    srev_np = rep.srev_nprime

    def add_leq(name: str, statement: str, lhs: float, rhs: float) -> None:
        rep.checks.append(CheckRecord.leq(name, statement, lhs, rhs, tol))

    add_leq(
        "ubsplit",
        "IU(n',n') <= Single + Under + Over + Tail + Core",
        rep.iu_nprime,
        rep.single + rep.under + rep.over + rep.tail + rep.core,
    )
    for label, value in (("n", rep.iu_n), ("n_prime", rep.iu_nprime)):
        add_leq(
            f"chain_a_iu_{label}",
            "IU(n'',n') <= 4*SRev(n') + Core",
            value,
            4.0 * srev_np + rep.core,
        )
    add_leq("chain_b_single", "Single <= SRev(n')", rep.single, srev_np)
    add_leq("chain_b_under", "Under <= SRev(n')", rep.under, srev_np)
    add_leq("chain_b_over", "Over <= SRev(n')", rep.over, srev_np)
    add_leq("chain_b_tail", "Tail <= SRev(n')", rep.tail, srev_np)
    add_leq(
        "chain_c_core",
        "Core <= FeeMass + 2*n'*E_M[r_ron_total]",
        rep.core,
        fee_mass + 2.0 * rep.ronen_mass,
    )
    add_leq("chain_d_ronen", "n'*E_M[r_ron_total] <= SRev(n')", rep.ronen_mass, srev_np)
    add_leq("chain_e_fee", "FeeMass <= 2*ParticipationLB", fee_mass, 2.0 * participation_lb)
    for label, value in (("n", rep.iu_n), ("n_prime", rep.iu_nprime)):
        add_leq(
            f"chain_f_iu_{label}",
            "IU(n'',n') <= 2*ParticipationLB + 6*SRev(n')",
            value,
            2.0 * participation_lb + 6.0 * srev_np,
        )

    if run_regular:
        rep.regular_branch = True
        pi_revenue_lb, s_all = pi_bvcg_constructed_revenue(inst)
        rep.pi_revenue_lb = pi_revenue_lb
        rep.s_all = s_all
        vcg_next = vcg_revenue(setting, n_prime + 1)
        rep.pi_bvcg_floor = max(pi_revenue_lb, vcg_next)
        add_leq(
            "chain_g_core_split",
            "Core <= (81/49)*S_all + 6*n'*E_M[r_ron_total]",
            rep.core,
            HIGH_SQUARE_FACTOR * s_all + HIGH_PAIR_FACTOR * rep.ronen_mass,
        )
        add_leq("chain_g_s_all", "S_all <= 4*PIRevenueLB", s_all, 4.0 * pi_revenue_lb)
        add_leq("chain_g_bk", "SRev(n') <= VCG(n'+1)", srev_np, vcg_next)
        for label, value in (("n", rep.iu_n), ("n_prime", rep.iu_nprime)):
            add_leq(
                f"chain_g_iu_{label}",
                "IU(n'',n') <= 17*PIBVCGFloor(n'+1)",
                value,
                PI_CHAIN_CONSTANT * rep.pi_bvcg_floor,
            )
        stats = inst.stats
        high = stats.e_u_hat >= HIGH_PAIR_FACTOR * stats.r_ron_total
        if high.any():
            add_leq(
                "chain_g_nice",
                "Pr(nice) >= 7/9 on every high pair",
                NICE_PROB_FLOOR,
                float(stats.nice_prob[high].min()),
            )
    return rep


@dataclass
class TheoremVerdict:
    """Which branch of the main dichotomy holds for the instance."""

    rev_n: float | None  # None when the LP is out of cap range
    branch1_holds: bool | None  # (1 - eps) Rev(n) <= VCG(n')
    branch2_holds: bool | None  # Rev(n) <= max(entry-fee floor, SRev(n'))
    chain: DecompositionReport
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def holds(self) -> bool | None:
        if self.branch1_holds is None:
            return None
        return bool(self.branch1_holds or self.branch2_holds)


def main_theorem_verdict(inst: Instance, n: int, epsilon: float, tol: float = CHECK_TOL) -> TheoremVerdict:
    """Evaluate the enhanced-competition dichotomy on one instance.

    Branch 1: (1 - eps) Rev(n) <= VCG(n').  Branch 2: Rev(n) is at most the
    larger of the constructed entry-fee floor and SRev(n'), verified through
    the exactly computable chain.  When Rev(n) is not computable the verdict
    is reported as unknown, with every unconditional link still checked.
    """
    setting, n_prime = inst.setting, inst.n_prime
    if n_prime < max(n, 2):
        raise TooFewBidders("need n_prime >= max(n, 2)")
    chain = lemma_chain_check(inst, n, tol=tol)
    try:
        rev_n, _ = optimal_revenue(setting, n)
    except InstanceTooLarge:
        rev_n = None
    verdict = TheoremVerdict(rev_n=rev_n, branch1_holds=None, branch2_holds=None, chain=chain)
    if rev_n is not None:
        vcg_np = vcg_revenue(setting, n_prime)
        branch1 = CheckRecord.leq(
            "branch1", "(1-eps)*Rev(n) <= VCG(n')", (1.0 - epsilon) * rev_n, vcg_np, tol
        )
        branch2 = CheckRecord.leq(
            "branch2",
            "Rev(n) <= max(BVCGFloor(n'), SRev(n'))",
            rev_n,
            max(chain.participation_lb, vcg_np, chain.srev_nprime),
            tol,
        )
        step1 = CheckRecord.leq("step1", "Rev(n) <= IU(n,n')", rev_n, chain.iu_n, 1e-6)
        verdict.branch1_holds = branch1.holds
        verdict.branch2_holds = branch2.holds
        verdict.checks.extend([step1, branch1, branch2])
    return verdict
