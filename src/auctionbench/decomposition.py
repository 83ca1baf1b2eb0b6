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
    ItemDistribution,
    MASS_TOL,
    MaxVector,
    ScalarDistribution,
    iid_max_expectation,
    product_grid,
)
from .errors import InstanceTooLarge, TooFewBidders
from .iu import Instance
from .lp import optimal_revenue
from .myerson import all_regular
from .report import CHECK_TOL, CheckRecord
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


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(k) for k in counts."""
    ends = counts.cumsum()
    return np.arange(ends[-1]) - np.repeat(ends - counts, counts)


def _segments(
    item: ItemDistribution, lo: np.ndarray, m: np.ndarray, r: np.ndarray, span: np.ndarray, digit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Item j's utility, capped utility and mass at atoms lo + digit, span cells a row, the rows end to end.

    Digit 0 carries F_j(M_j), the mass at or below M_j.
    """
    atom = np.repeat(lo, span) + digit
    u = np.maximum(item.values_arr[atom] - np.repeat(m, span), 0.0)
    return u, u * (u <= np.repeat(r, span)), np.where(digit == 0, item.cdf_arr[atom], item.probs_arr[atom])


def build_utility_stats(inst: Instance) -> UtilityStats:
    """Exact per-M statistics over the joint max-vector support, as columns.

    Given M, item j's utility max(v_j - M_j, 0) is 0 at every atom at or
    below M_j, so the laws of U and U_hat live on the box of the product grid
    that starts, per item, at the last atom lo_j at or below M_j (the first
    atom if there is none), lo_j carrying the mass cdf_arr[lo_j].  Each M is
    one dense row of its box's cells in ``itertools.product`` order, padded to
    the block's widest row, and rows sorted by box width are worked in blocks
    of at most PAIR_BUDGET cells.  A block's cells are one ragged product over
    the items in item order: a row's prefix of digits 0..j-1 is repeated once
    per atom of item j and each copy takes that atom's term, truncated to the
    prefixes the padded row reads.  Item 0's digit wraps past the box, so a
    pad cell repeats the row's own cells, with mass 0: the pads' utilities
    set argsort's tie order and so the bits of pair_mass.  U and U_hat are
    summed in item order, as the per-M ``convolve`` fold adds them; the
    columns are mass-weighted row sums, so they may differ from the per-law
    methods in the last bits.
    """
    items = inst.setting.items
    m_vecs, probs = product_grid(inst.ghost_max.per_item, inst.setting.caps.product_support)
    m_cols = m_vecs.T
    r_totals = functools.reduce(operator.add, [item.posted_revenue(m) for item, m in zip(items, m_cols)])
    lo = np.stack([np.maximum(item.values_arr.searchsorted(m, "right") - 1, 0) for item, m in zip(items, m_cols)])
    sides = np.array([[len(item.values)] for item in items]) - lo
    # strides[j] = sides[j + 1] * ... * sides[m - 1], the cells under one prefix of digits 0..j
    strides = np.cumprod(np.vstack((np.ones_like(sides[:1]), sides[:0:-1])), axis=0)[::-1]
    widths = strides[0] * sides[0]
    # rows in order of box width, so each block is a slice
    order = widths.argsort(kind="stable")
    widths, r_sorted = widths[order], r_totals[order]
    m_sorted, lo, sides, strides = (per_item[:, order] for per_item in (m_cols, lo, sides, strides))

    columns = np.empty((6, len(probs)))
    for a, b in _blocks(widths.tolist(), PAIR_BUDGET):
        width, rows, r = widths[b - 1], b - a, r_sorted[a:b]
        # the padded row reads ceil(width / strides[j]) prefixes of digits 0..j
        counts = -(-width // strides[:, a:b])
        # digit 0 wraps past the box, so the pads repeat the row's own cells, with mass 0
        top = _ragged_arange(counts[0])
        digit = top % np.repeat(sides[0, a:b], counts[0])
        u, u_hat, mass = _segments(items[0], lo[0, a:b], m_sorted[0, a:b], r, counts[0], digit)
        mass[top != digit] = 0.0
        for j in range(1, len(items)):
            # each prefix takes the row's side digits of item j, a row's last prefix only those its padded row reads
            side, prefixes = sides[j, a:b], counts[j - 1]
            u_j, u_hat_j, mass_j = _segments(items[j], lo[j, a:b], m_sorted[j, a:b], r, side, _ragged_arange(side))
            repeats = np.repeat(side, prefixes)
            repeats[prefixes.cumsum() - 1] = counts[j] - (prefixes - 1) * side
            ends = repeats.cumsum()
            # copy k of a prefix reads its row's segment at digit k
            take = np.arange(ends[-1]) + np.repeat(np.repeat(side.cumsum() - side, prefixes) - ends + repeats, repeats)
            u = np.repeat(u, repeats) + u_j.take(take)
            u_hat = np.repeat(u_hat, repeats) + u_hat_j.take(take)
            mass = np.repeat(mass, repeats) * mass_j.take(take)
        u, u_hat, mass = (cells.reshape(rows, width) for cells in (u, u_hat, mass))
        mean = (mass * u_hat).sum(axis=1)
        fee = np.maximum(mean - 2.0 * r, 0.0)
        var = (mass * (u_hat - mean[:, None]) ** 2).sum(axis=1)
        # Pr(U_hat >= x) = 1 - the mass strictly below x
        accept = 1.0 - np.where(u_hat < fee[:, None], mass, 0.0).sum(axis=1)
        nice = 1.0 - np.where(u_hat < mean[:, None] / 2.0, mass, 0.0).sum(axis=1)
        # E[U(s) 1(U(s) <= U(w))] = sum_a Pr(U = a) a Pr(U >= a): sort each row by U and
        # read Pr(U < a) at the first cell of a's run of equal values
        by_u = u.argsort(axis=1) + np.arange(0, rows * width, width)[:, None]
        u, mass = u.take(by_u), mass.take(by_u)
        below = np.zeros_like(mass)
        mass[:, :-1].cumsum(axis=1, out=below[:, 1:])
        # below is non-decreasing along a row, so its running max over the run heads is its value at the last head
        head = np.zeros_like(u, dtype=bool)
        np.not_equal(u[:, 1:], u[:, :-1], out=head[:, 1:])
        run_below = np.maximum.accumulate(np.where(head, below, 0.0), axis=1)
        pair = (mass * u * (1.0 - run_below)).sum(axis=1)
        columns[:, a:b] = mean, var, fee, accept, nice, pair
    e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass = columns[:, order.argsort()]
    return UtilityStats(m_vecs, probs, r_totals, e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass)


def surplus_event_probability(
    setting: AuctionSetting, maxvec_laws: tuple[ScalarDistribution, ...], j: int, vj: float, m_vec: MaxVector
) -> float:
    """Pr over v_{-j} that some other item's utility weakly beats v_j - M_j.

    The rival event of the Surplus term of Cai, Devanur and Weinberg, which the
    chain bounds through Tail + Core (its ``ubsplit`` record) rather than
    computing it.
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
    """Split terms, the chains' records and, from ``main_theorem_verdict``, the dichotomy verdict."""

    single: float
    under: float
    over: float
    tail: float
    core: float
    fee_mass: float = 0.0
    participation_lb: float = 0.0
    pi_bvcg_floor: float = 0.0
    regular_branch: bool = False
    rev_n: float | None = None  # None when the LP is out of cap range
    branch1_holds: bool | None = None  # (1 - eps) Rev(n) <= VCG(n')
    branch2_holds: bool | None = None  # Rev(n) <= max(entry-fee floor, SRev(n'))
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def holds(self) -> bool | None:
        if self.branch1_holds is None:
            return None
        return bool(self.branch1_holds or self.branch2_holds)


def _at_or_below(law: ScalarDistribution, table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """table[k] at the last atom k of `law` at or below each x, 0 where there is none."""
    return np.concatenate(([0.0], table))[law.values_arr.searchsorted(x, side="right")]


def _max_mean(images: np.ndarray, probs: np.ndarray, n: int, renorm_tol: float) -> float:
    """E[max of n i.i.d. draws] of the law with mass probs[i] at images[i], equal images merged."""
    return iid_max_expectation(ScalarDistribution.from_atoms(zip(images.tolist(), probs.tolist()), renorm_tol), n)


def decomposition_terms(inst: Instance) -> DecompositionReport:
    """Exact decomposition terms at bidder count n', each read from a table the instance holds.

    Core is n' E_M[E[U_hat | M]] (atom x keeps x - M_j iff M_j <= x <= T_j); Tail is n' E_M[r sum_j Pr(v_j > T_j)].
    """
    setting, n_prime = inst.setting, inst.n_prime
    tables, stats, maxvec = inst.iu_tables, inst.stats, inst.ghost_max

    # per item, the max over n' of Single phi_tilde^+ P_j(v), Under v_j Pr(M_j > v_j), Over E[M_j; M_j <= v_j]
    single = under = over = 0.0
    for j, (item, law_j) in enumerate(zip(setting.items, maxvec.per_item)):
        weighted = item.ironed.phi_plus[tables.codes[:, j]] * tables.p_region[:, j]
        single += _max_mean(weighted, tables.vprobs, n_prime, 1e-9)
        below = _at_or_below(law_j, law_j.cdf_arr, item.values_arr)
        under += _max_mean(item.values_arr * (1.0 - below), item.probs_arr, n_prime, MASS_TOL * 10)
        kept = _at_or_below(law_j, np.cumsum(law_j.values_arr * law_j.probs_arr), item.values_arr)
        over += _max_mean(kept, item.probs_arr, n_prime, MASS_TOL * 10)

    prob, r = stats.prob, stats.r_ron_total
    # No clip at r*_j(M_j) is needed: the first atom y above T_j = M_j + r (r = r_ron_total)
    # has y > r, so r Pr(v_j > T_j) <= y Pr(v_j >= y) <= r*_j(M_j).
    thresholds = r[:, None] + stats.m_vecs
    above = sum(1.0 - _at_or_below(item, item.cdf_arr, thresholds[:, j]) for j, item in enumerate(setting.items))
    tail = n_prime * float(prob @ (r * above))
    core = n_prime * float(prob @ stats.e_u_hat)
    return DecompositionReport(single=single, under=under, over=over, tail=tail, core=core)


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


def lemma_chain_check(inst: Instance, n: int, tol: float = CHECK_TOL) -> DecompositionReport:
    """Verify every exactly computable link of the two inequality chains.

    The prior-dependent chain ends at iu <= 2 (entry-fee floor) + 6 SRev(n');
    the regular branch ends at iu <= 17 (prior-independent floor at n' + 1)
    and runs exactly when all items are regular.
    """
    setting, n_prime = inst.setting, inst.n_prime
    if not (1 <= n <= n_prime):
        raise TooFewBidders("need 1 <= n <= n_prime")

    rep = decomposition_terms(inst)
    fee_mass, participation_lb = bvcg_constructed_revenue(inst)
    rep.fee_mass = fee_mass
    rep.participation_lb = participation_lb
    srev_np, ronen_mass = inst.srev_nprime, inst.ronen_nprime
    iu_n, iu_np = inst.iu_tables.iu(n), inst.iu_tables.iu(n_prime)

    def add_leq(name: str, statement: str, lhs: float, rhs: float) -> None:
        rep.checks.append(CheckRecord.leq(name, statement, lhs, rhs, tol))

    add_leq(
        "ubsplit",
        "IU(n',n') <= Single + Under + Over + Tail + Core",
        iu_np,
        rep.single + rep.under + rep.over + rep.tail + rep.core,
    )
    for label, value in (("n", iu_n), ("n_prime", iu_np)):
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
        fee_mass + 2.0 * ronen_mass,
    )
    add_leq("chain_d_ronen", "n'*E_M[r_ron_total] <= SRev(n')", ronen_mass, srev_np)
    add_leq("chain_e_fee", "FeeMass <= 2*ParticipationLB", fee_mass, 2.0 * participation_lb)
    for label, value in (("n", iu_n), ("n_prime", iu_np)):
        add_leq(
            f"chain_f_iu_{label}",
            "IU(n'',n') <= 2*ParticipationLB + 6*SRev(n')",
            value,
            2.0 * participation_lb + 6.0 * srev_np,
        )

    if all_regular(setting):
        rep.regular_branch = True
        pi_revenue_lb, s_all = pi_bvcg_constructed_revenue(inst)
        vcg_next = vcg_revenue(setting, n_prime + 1)
        rep.pi_bvcg_floor = max(pi_revenue_lb, vcg_next)
        add_leq(
            "chain_g_core_split",
            "Core <= (81/49)*S_all + 6*n'*E_M[r_ron_total]",
            rep.core,
            HIGH_SQUARE_FACTOR * s_all + HIGH_PAIR_FACTOR * ronen_mass,
        )
        add_leq("chain_g_s_all", "S_all <= 4*PIRevenueLB", s_all, 4.0 * pi_revenue_lb)
        add_leq("chain_g_bk", "SRev(n') <= VCG(n'+1)", srev_np, vcg_next)
        for label, value in (("n", iu_n), ("n_prime", iu_np)):
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


def main_theorem_verdict(inst: Instance, n: int, epsilon: float, tol: float = CHECK_TOL) -> DecompositionReport:
    """Evaluate the enhanced-competition dichotomy on one instance: the chain's report with its verdict.

    Branch 1: (1 - eps) Rev(n) <= VCG(n').  Branch 2: Rev(n) is at most the
    larger of the constructed entry-fee floor and SRev(n'), verified through
    the exactly computable chain.  When Rev(n) is not computable the verdict
    is reported as unknown, with every unconditional link still checked.
    """
    setting, n_prime = inst.setting, inst.n_prime
    if n_prime < max(n, 2):
        raise TooFewBidders("need n_prime >= max(n, 2)")
    rep = lemma_chain_check(inst, n, tol=tol)
    try:
        rep.rev_n, _ = optimal_revenue(setting, n)
    except InstanceTooLarge:
        return rep
    vcg_np = vcg_revenue(setting, n_prime)
    branch1 = CheckRecord.leq(
        "branch1", "(1-eps)*Rev(n) <= VCG(n')", (1.0 - epsilon) * rep.rev_n, vcg_np, tol
    )
    branch2 = CheckRecord.leq(
        "branch2",
        "Rev(n) <= max(BVCGFloor(n'), SRev(n'))",
        rep.rev_n,
        max(rep.participation_lb, vcg_np, inst.srev_nprime),
        tol,
    )
    step1 = CheckRecord.leq("step1", "Rev(n) <= IU(n,n')", rep.rev_n, inst.iu_tables.iu(n), 1e-6)
    rep.branch1_holds = branch1.holds
    rep.branch2_holds = branch2.holds
    dichotomy = CheckRecord("theorem_dichotomy", "branch1 or branch2 holds", 0.0, float(rep.holds), rep.holds)
    rep.checks.extend([step1, branch1, branch2, dichotomy])
    return rep
