"""Decomposition of the benchmark into simple-auction terms and the entry-fee floors.

Everything is computed exactly over the joint law of the ghost max vector M.
Bidders are exchangeable and the other bidders' profile enters only through
M, so per-bidder sums collapse to a factor n'.  Per item and conditional on
M, the capped utility depends only on that item's value, so the law of the
capped utility sum is a convolution of per-item laws.
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
    Segments,
    Valuation,
    iid_max_expectation,
    max_vector_distribution,
    segmented_from_atoms,
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


# Pairs worked per kernel call.  Max vectors are folded in blocks under this
# budget, so the kernel's peak memory does not grow with the joint support.
PAIR_BUDGET = 1 << 16


def _item_utility_laws(item: ScalarDistribution, m_col: np.ndarray, caps: np.ndarray) -> Segments:
    """Per law s, the law of u if u <= caps[s] else 0, u = max(v - m_col[s], 0).

    The segmented twin of ``item.map_through``: atoms in item order.
    """
    u = np.maximum(item.values_arr[None, :] - m_col[:, None], 0.0)
    mapped = np.where(u <= caps[:, None], u, 0.0)
    seg = np.arange(len(caps)).repeat(len(item.values))
    weights = np.broadcast_to(item.probs_arr, u.shape).ravel()
    return segmented_from_atoms(seg, mapped.ravel(), weights, len(caps), MASS_TOL * 10)


def _convolve_segments(a: Segments, b: Segments) -> Segments:
    """Per law s, the law of X + Y for X ~ a[s], Y ~ b[s]: ``convolve``'s pairs, a-major."""
    len_a, len_b = a.starts[1:] - a.starts[:-1], b.starts[1:] - b.starts[:-1]
    n_pairs = len_a * len_b
    seg = np.arange(len(n_pairs)).repeat(n_pairs)
    k = np.arange(len(seg)) - (n_pairs.cumsum() - n_pairs).repeat(n_pairs)
    ia = a.starts[seg] + k // len_b[seg]
    ib = b.starts[seg] + k % len_b[seg]
    return segmented_from_atoms(
        seg, a.values[ia] + b.values[ib], a.probs[ia] * b.probs[ib], len(n_pairs), MASS_TOL * 10
    )


def _blocks(widths: list[int], laws: list[int], budget: int):
    """Cut 0..len(widths) into runs [lo, hi) with sum(laws) * max(widths) <= budget.

    A single entry over the budget gets a run of its own.
    """
    lo, widest, count = 0, 0, 0
    for i, (width, n_laws) in enumerate(zip(widths, laws)):
        widest, count = max(widest, width), count + n_laws
        if i > lo and count * widest > budget:
            yield lo, i
            lo, widest, count = i, width, n_laws
    yield lo, len(widths)


def utility_laws(setting: AuctionSetting, m_vecs: np.ndarray, r_totals: np.ndarray):
    """Yield (lo, hat, laws) per block of at most PAIR_BUDGET pairs, so memory is bounded per block.

    Law i of `laws` is the law of U given M = m_vecs[lo + i] and law hat[i]
    that of U_hat, capped at r_totals[lo + i]; hat[i] = i where the cap binds
    at no atom, since U_hat is U there.  The fold maps item 0, then convolves
    in items 1, 2, ... one at a time, and reproduces the per-M ``map_through``
    / ``convolve`` fold bit for bit: pairs in ``convolve``'s order (a-major),
    masses of equal values added in input order, each law's normalising total
    summed left to right in order of first occurrence, every stage renormalised.
    """
    m_cols = m_vecs.T
    # Per M, a bound on the atoms and pairs of every fold stage: item j's
    # utility law has at most 1 + #{v_j > M_j} atoms.
    sizes = [
        1 + len(item.values) - np.searchsorted(item.values_arr, m_col, side="right")
        for item, m_col in zip(setting.items, m_cols)
    ]
    widths = np.maximum(functools.reduce(operator.mul, sizes), max(len(item.values) for item in setting.items))
    # The cap binds at M when some item's top utility exceeds r_ron_total.
    binds = functools.reduce(
        operator.or_,
        [np.maximum(item.values_arr[-1] - m_col, 0.0) > r_totals for item, m_col in zip(setting.items, m_cols)],
    )
    for lo, hi in _blocks(widths.tolist(), (1 + binds).tolist(), PAIR_BUDGET):
        # laws of the block: the raw utility of every M, then the capped
        # utility of every M where the cap binds
        bound = lo + np.flatnonzero(binds[lo:hi])
        rows = np.concatenate((np.arange(lo, hi), bound))
        caps = np.concatenate((np.full(hi - lo, np.inf), r_totals[bound]))
        item_laws = (_item_utility_laws(item, m_col[rows], caps) for item, m_col in zip(setting.items, m_cols))
        laws = functools.reduce(_convolve_segments, item_laws)
        hat = np.arange(hi - lo)
        hat[bound - lo] = np.arange(hi - lo, len(rows))
        yield lo, hat, laws


def build_utility_stats(inst: Instance) -> UtilityStats:
    """Exact per-M statistics over the joint max-vector support, as columns.

    prob(M) is the left-to-right product of its per-item probabilities and
    r_ron_total the left-to-right sum of its per-item posted revenues.  Each
    block of ``utility_laws`` is reduced to its columns and dropped, so no
    per-M law is kept.  Means and masses are ``np.bincount`` sums per law, in
    another order than ``ScalarDistribution.expectation``'s ``np.dot``, so
    they may differ from the per-law methods in the last bits.
    """
    setting = inst.setting
    inst.ghost_max.check_joint_cap(setting.caps)
    laws = inst.ghost_max.per_item
    index = [ix.ravel() for ix in np.indices([len(law.values) for law in laws])]
    m_vecs = np.stack([law.values_arr[ix] for law, ix in zip(laws, index)], axis=1)
    probs = functools.reduce(operator.mul, [law.probs_arr[ix] for law, ix in zip(laws, index)])
    r_star = [item.posted_revenue(law.values_arr)[ix] for item, law, ix in zip(setting.items, laws, index)]
    r_totals = functools.reduce(operator.add, r_star)

    e_u_hat, var_u_hat, fee_pd, fee_accept, nice_prob, pair_mass = (np.empty(len(probs)) for _ in range(6))
    for lo, hat, block_laws in utility_laws(setting, m_vecs, r_totals):
        block = slice(lo, lo + len(hat))
        values, weights, counts = block_laws.values, block_laws.probs, np.diff(block_laws.starts)
        seg, rows = np.arange(len(counts)).repeat(counts), np.arange(len(counts))
        pos = np.arange(len(seg)) - block_laws.starts[seg]
        # below[s, k] = Pr(U < k-th atom of law s), a row-wise cumsum that sums
        # left to right as cdf_arr does, and 1 exactly past the last atom
        below = np.zeros((len(counts), counts.max() + 1))
        below[seg, pos + 1] = weights
        below = below.cumsum(axis=1)
        below[rows, counts] = 1.0

        def tail(x: np.ndarray) -> np.ndarray:  # Pr(U >= x[s]) per law s
            return 1.0 - below[rows, np.bincount(seg, values < x[seg]).astype(np.intp)]

        mean = np.bincount(seg, values * weights)
        fee = np.zeros(len(counts))
        fee[hat] = np.maximum(mean[hat] - 2.0 * r_totals[block], 0.0)
        e_u_hat[block], fee_pd[block] = mean[hat], fee[hat]
        var_u_hat[block] = np.bincount(seg, (values - mean[seg]) ** 2 * weights)[hat]
        fee_accept[block], nice_prob[block] = tail(fee)[hat], tail(mean / 2.0)[hat]
        # E[U(s) 1(U(s) <= U(w))] = sum_a p_a a Pr(U >= a), over the raw laws
        pair_mass[block] = np.bincount(seg, weights * values * (1.0 - below[seg, pos]))[: len(hat)]
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

    # per item, the max over n' of Single phi_tilde^+ P_j(v), Under v_j Pr(M_j > v_j), Over E[M_j; M_j <= v_j]
    single = under = over = 0.0
    for j, (item, law_j) in enumerate(zip(setting.items, maxvec.per_item)):
        weighted = item.ironed.phi_plus[item.values_arr.searchsorted(vals[:, j])] * tables.p_region[:, j]
        single += _max_mean(weighted, tables.vprobs, n_prime, 1e-9)
        undercut = 1.0 - _at_or_below(law_j, law_j.cdf_arr, item.values_arr)
        under += _max_mean(item.values_arr * undercut, item.probs_arr, n_prime, MASS_TOL * 10)
        kept = _at_or_below(law_j, np.cumsum(law_j.values_arr * law_j.probs_arr), item.values_arr)
        over += _max_mean(kept, item.probs_arr, n_prime, MASS_TOL * 10)

    prob, r = stats.prob, stats.r_ron_total
    # No clip at r*_j(M_j) is needed: the first atom y above T_j = M_j + r (r = r_ron_total)
    # has y > r, so r Pr(v_j > T_j) <= y Pr(v_j >= y) <= r*_j(M_j).
    thresholds = r[:, None] + stats.m_vecs
    above = sum(1.0 - _at_or_below(item, item.cdf_arr, thresholds[:, j]) for j, item in enumerate(setting.items))
    tail = n_prime * float(prob @ (r * above))
    core = n_prime * float(prob @ stats.e_u_hat)

    # Surplus: n' E_{M,v}[sum_j (v_j - M_j)^+ 1(some rival utility >= v_j - M_j)],
    # summed over M first for each v: E_M[(v_j - M_j)^+] minus the part where
    # every rival utility stays strictly below.
    excess = sum(
        np.maximum(vals[:, j, None] - law.values_arr, 0.0) @ law.probs_arr for j, law in enumerate(maxvec.per_item)
    )
    rival_free = region_kernel(vals, maxvec.per_item, strict_ties=True, weighted=True).sum(axis=1)
    surplus_bound = n_prime * float(tables.vprobs @ (excess - rival_free))

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
