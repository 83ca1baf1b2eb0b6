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


@dataclass(frozen=True)
class UtilityStats:
    """Capped-utility statistics for one ghost max vector M."""

    m_vec: MaxVector
    prob: float
    r_ron_total: float  # sum over items of the best posted revenue above M_j
    thresholds: tuple[float, ...]  # T_j = r_ron_total + M_j
    law_u: ScalarDistribution  # law of sum_j max(v_j - M_j, 0)
    law_u_hat: ScalarDistribution  # law of the capped sum
    e_u_hat: float
    var_u_hat: float
    fee_pd: float  # prior-dependent fee max(E[U_hat] - 2 r, 0)
    nice_prob: float  # Pr(U_hat >= E[U_hat] / 2)


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


def build_utility_stats(inst: Instance) -> tuple[UtilityStats, ...]:
    """Exact per-M table over the joint max-vector support.

    The raw and capped utility laws of every max vector M are built together,
    as flat per-M segments, by one fold over the items: map item 0, then
    convolve in items 1, 2, ... one at a time.  Every step reproduces the
    per-M ``from_atoms`` / ``map_through`` / ``convolve`` fold bit for bit:

    - pairs are formed in ``convolve``'s order, a-major and b-minor;
    - masses of equal values are added in input order;
    - each law's normalising total is summed left to right in order of first
      occurrence, and every stage is renormalised;
    - M runs in ``itertools.product`` order, prob(M) is the left-to-right
      product of its per-item probabilities and r_ron_total the left-to-right
      sum of its per-item posted revenues.

    Where the cap binds at no atom, the capped law is the raw law (the same
    object).  Max vectors are processed in blocks of at most PAIR_BUDGET
    pairs per kernel call, so memory is bounded per block.
    """
    setting = inst.setting
    inst.ghost_max.check_joint_cap(setting.caps)
    laws = inst.ghost_max.per_item
    index = [ix.ravel() for ix in np.indices([len(law.values) for law in laws])]
    m_cols = [law.values_arr[ix] for law, ix in zip(laws, index)]
    probs = functools.reduce(operator.mul, [law.probs_arr[ix] for law, ix in zip(laws, index)])
    r_star = [item.posted_revenue(law.values_arr)[ix] for item, law, ix in zip(setting.items, laws, index)]
    r_totals = functools.reduce(operator.add, r_star)

    # Per M, a bound on the atoms and pairs of every fold stage: item j's
    # utility law has at most 1 + #{v_j > M_j} atoms.
    sizes = [
        1 + len(item.values) - np.searchsorted(item.values_arr, m_col, side="right")
        for item, m_col in zip(setting.items, m_cols)
    ]
    widths = np.maximum(functools.reduce(operator.mul, sizes), max(len(item.values) for item in setting.items))
    # The cap binds at M when some item's top utility exceeds r_ron_total.
    # Elsewhere every capped utility equals the raw one, so the capped fold
    # would repeat the raw fold exactly: it is folded only where the cap binds.
    binds = functools.reduce(
        operator.or_,
        [np.maximum(item.values_arr[-1] - m_col, 0.0) > r_totals for item, m_col in zip(setting.items, m_cols)],
    )
    m_vecs = list(zip(*(m_col.tolist() for m_col in m_cols)))
    out = []
    for lo, hi in _blocks(widths.tolist(), (1 + binds).tolist(), PAIR_BUDGET):
        # laws of the block: the raw utility of every M, then the capped
        # utility of every M where the cap binds
        bound = lo + np.flatnonzero(binds[lo:hi])
        rows = np.concatenate((np.arange(lo, hi), bound))
        caps = np.concatenate((np.full(hi - lo, np.inf), r_totals[bound]))
        folded = None
        for item, m_col in zip(setting.items, m_cols):
            item_laws = _item_utility_laws(item, m_col[rows], caps)
            folded = item_laws if folded is None else _convolve_segments(folded, item_laws)
        block_laws = folded.laws()
        capped_law = dict(zip(bound.tolist(), block_laws[hi - lo :]))
        for i, prob, r_total in zip(range(lo, hi), probs[lo:hi].tolist(), r_totals[lo:hi].tolist()):
            law_u = block_laws[i - lo]
            law_u_hat = capped_law.get(i, law_u)
            e_hat = law_u_hat.expectation()
            out.append(
                UtilityStats(
                    m_vec=m_vecs[i],
                    prob=prob,
                    r_ron_total=r_total,
                    thresholds=tuple(r_total + mj for mj in m_vecs[i]),
                    law_u=law_u,
                    law_u_hat=law_u_hat,
                    e_u_hat=e_hat,
                    var_u_hat=law_u_hat.variance(),
                    fee_pd=max(e_hat - 2.0 * r_total, 0.0),
                    nice_prob=law_u_hat.tail(e_hat / 2.0) if e_hat > 0 else 1.0,
                )
            )
    return tuple(out)


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
    """Terms of the benchmark split plus the verdicts of the inequality chains."""

    n: int
    n_prime: int
    srev_nprime: float
    single: float
    under: float
    over: float
    tail: float
    tail_unclipped: float
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


def decomposition_terms(inst: Instance, n_dd: int) -> DecompositionReport:
    """Exact decomposition terms at bidder count n'."""
    setting, n_prime = inst.setting, inst.n_prime
    if not (1 <= n_dd <= n_prime):
        raise TooFewBidders("need 1 <= n_dd <= n_prime")
    tables, stats, maxvec = inst.iu_tables, inst.stats, inst.ghost_max
    vals = np.array(tables.valuations)

    # Single: expected max over n' bidders of phi_tilde^+ weighted by the region probability
    single = 0.0
    for j, item in enumerate(setting.items):
        weighted = item.ironed.phi_plus[item.values_arr.searchsorted(vals[:, j])] * tables.p_region[:, j]
        law = ScalarDistribution.from_atoms(zip(weighted.tolist(), tables.vprobs.tolist()), renorm_tol=1e-9)
        single += iid_max_expectation(law, n_prime)

    # Under: expected max of v_j * Pr(v_j undercut by the ghost max)
    under = 0.0
    for j, item in enumerate(setting.items):
        law_j = maxvec.per_item[j]
        law = item.map_through(lambda x, law_j=law_j: x * (1.0 - law_j.cdf(x)))
        under += iid_max_expectation(law, n_prime)

    # Over: expected max of E_M[M_j; M_j <= v_j]
    over = 0.0
    for j, item in enumerate(setting.items):
        law_j = maxvec.per_item[j]

        def h(x: float, law_j=law_j) -> float:
            mask = law_j.values_arr <= x
            return float(np.dot(law_j.values_arr[mask], law_j.probs_arr[mask]))

        over += iid_max_expectation(item.map_through(h), n_prime)

    # Tail and Core over the joint max-vector law
    tail_unclipped = 0.0
    tail = 0.0
    core = 0.0
    # per item, the best posted revenue above M_j for every M
    r_star = [item.posted_revenue([st.m_vec[j] for st in stats]).tolist() for j, item in enumerate(setting.items)]
    for i, st in enumerate(stats):
        for j, item in enumerate(setting.items):
            t_j = st.thresholds[j]
            mj = st.m_vec[j]
            tail_term = st.r_ron_total * (1.0 - item.cdf(t_j))
            tail_unclipped += n_prime * st.prob * tail_term
            tail += n_prime * st.prob * min(tail_term, r_star[j][i])
            for x, p in zip(item.values, item.probs):
                if mj <= x <= t_j:
                    core += n_prime * st.prob * p * (x - mj)

    # Surplus: n' E_{M,v}[sum_j (v_j - M_j)^+ 1(some rival utility >= v_j - M_j)],
    # summed over M first for each v: E_M[(v_j - M_j)^+] minus the part where
    # every rival utility stays strictly below.
    excess = sum(
        np.maximum(vals[:, j, None] - law.values_arr, 0.0) @ law.probs_arr for j, law in enumerate(maxvec.per_item)
    )
    rival_free = region_kernel(vals, maxvec.per_item, strict_ties=True, weighted=True).sum(axis=1)
    surplus_bound = n_prime * float(tables.vprobs @ (excess - rival_free))

    ronen_mass = n_prime * sum(st.prob * st.r_ron_total for st in stats)
    return DecompositionReport(
        n=n_dd,
        n_prime=n_prime,
        srev_nprime=inst.srev_nprime,
        single=single,
        under=under,
        over=over,
        tail=tail,
        tail_unclipped=tail_unclipped,
        core=core,
        surplus_bound=surplus_bound,
        iu_n=tables.iu(n_dd),
        iu_nprime=tables.iu(n_prime),
        ronen_mass=ronen_mass,
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
    fee_mass = inst.n_prime * sum(st.prob * st.fee_pd for st in inst.stats)
    participation = 0.0
    for st in inst.stats:
        accept = st.law_u_hat.tail(st.fee_pd) if st.fee_pd > 0 else 1.0
        participation += st.prob * st.fee_pd * accept
    return BVCGFloor(fee_mass, inst.n_prime * participation)


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
    revenue = 0.0
    s_all = 0.0
    for st in inst.stats:
        law = st.law_u
        # E_{s,w}[U(s) 1(U(s) <= U(w))] = sum_a p_a a Pr(U >= a)
        inner = sum(p * a * law.tail(a) for a, p in zip(law.values, law.probs))
        revenue += st.prob * inner
        s_all += st.prob * st.nice_prob**2 * st.e_u_hat
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
        high_nice = [
            st.nice_prob for st in inst.stats if st.e_u_hat >= HIGH_PAIR_FACTOR * st.r_ron_total
        ]
        if high_nice:
            add_leq(
                "chain_g_nice",
                "Pr(nice) >= 7/9 on every high pair",
                NICE_PROB_FLOOR,
                min(high_nice),
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
