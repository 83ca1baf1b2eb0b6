"""The independent-utilities benchmark over ghost-bidder max vectors.

For a valuation v and a ghost max vector M, item regions are decided by VCG
utilities u_j = v_j - M_j: v belongs to the region of the smallest index
attaining max_j u_j, provided that item's own max is cleared; otherwise v is
in the residual region (None).  Region probabilities are taken over the max
vector of n' - 1 i.i.d. ghost draws, whose per-item components are
independent with CDF F_j^(n'-1); that independence is what makes the exact
computation cheap.  One vectorised function, :func:`region_kernel`, computes
the resulting products for the exact tables, the Monte-Carlo estimator and
the decomposition's rival-event sums.  An :class:`Instance` holds the ghost
max-vector law, the IU tables and the utility statistics of one
(setting, n'), each built once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .dist import (
    AuctionSetting,
    CHECK_TOL,
    ItemDistribution,
    MaxVector,
    MaxVectorDistribution,
    ScalarDistribution,
    Valuation,
    holds_leq,
    iid_max_expectation,
    make_rng,
    max_vector_distribution,
)
from .errors import EnumerationCapExceeded, TooFewBidders, size_text
from .myerson import srev
from .simple_auctions import ronen_bound_from_law, vcg_revenue

if TYPE_CHECKING:
    from .decomposition import UtilityStats

MC_STREAM = 17  # substream label for the benchmark estimator
# atoms x valuation rows per region_kernel block; bounds the kernel's temporaries
KERNEL_CELLS = 1 << 18
# monte_carlo_iu re-ranks its valuation codes before their radix passes this
_CODE_LIMIT = 1 << 63
RANK_TABLE = 1 << 20  # largest radix _rank ranks through a presence table (9 bytes a slot)


def region_of(v: Valuation, maxvec: MaxVector) -> int | None:
    """Index of the region containing v given ghost max vector `maxvec`.

    Returns the smallest j maximizing v_j - maxvec_j when that item also
    clears its own max (v_j >= maxvec_j); otherwise None (residual region).
    """
    utilities = [vj - mj for vj, mj in zip(v, maxvec)]
    best = max(utilities)
    j_star = utilities.index(best)
    return j_star if v[j_star] >= maxvec[j_star] else None


@dataclass(frozen=True)
class IUTables:
    """Exact region probabilities and benchmark virtual values on the product support."""

    valuations: tuple[Valuation, ...]
    vprobs: np.ndarray  # probability of each valuation
    p_region: np.ndarray  # shape (len(valuations), m)
    phi: np.ndarray  # shape (len(valuations), m)
    law_phi: tuple[ScalarDistribution, ...]

    def iu(self, n: int) -> float:
        """IU(n, n'): sum over items of E[max over n bidders of Phi_j(v_i)]."""
        if n < 1:
            raise TooFewBidders("need n >= 1")
        return sum(iid_max_expectation(law, n) for law in self.law_phi)


@dataclass(frozen=True)
class Instance:
    """One (setting, n') pair and the tables the exact chain reads, each built once.

    `ghost_max`, the law of the max vector of n' - 1 ghost draws, `srev_nprime`, SRev(n'),
    and `ronen_nprime`, the Ronen floor at n', are built on construction; the IU tables and
    the utility statistics on first use.
    """

    setting: AuctionSetting
    n_prime: int
    ghost_max: MaxVectorDistribution = field(init=False, repr=False, compare=False)
    srev_nprime: float = field(init=False, repr=False, compare=False)
    ronen_nprime: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_prime < 1:
            raise TooFewBidders("need n_prime >= 1")
        object.__setattr__(self, "ghost_max", max_vector_distribution(self.setting, self.n_prime - 1))
        object.__setattr__(self, "srev_nprime", srev(self.setting, self.n_prime))
        object.__setattr__(self, "ronen_nprime", ronen_bound_from_law(self.setting, self.ghost_max, self.n_prime))

    @cached_property
    def iu_tables(self) -> IUTables:
        return build_iu_tables(self)

    @cached_property
    def stats(self) -> UtilityStats:
        from .decomposition import build_utility_stats  # decomposition imports this module

        return build_utility_stats(self)


def region_kernel(
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
    The weight w is 1, or u_j when `weighted`.  Atoms sit on a leading axis and
    are added in atom order.  Rows go in blocks of KERNEL_CELLS // (most atoms of any M_j),
    so no (atoms x rows) temporary passes KERNEL_CELLS cells; a row's bits do not depend on its block.
    """
    vals = np.asarray(vals, dtype=np.float64)
    rows = vals.reshape(-1, vals.shape[-1])
    out = np.empty(rows.shape)
    block = max(1, KERNEL_CELLS // max(len(law.values) for law in max_laws))
    for lo in range(0, len(rows), block):
        cols = rows[lo : lo + block].T.copy()  # contiguous per item: the rival loop reads whole columns
        for j, law in enumerate(max_laws):
            u = cols[j] - law.values_arr[:, None]
            term = np.where(u >= 0.0, law.probs_arr[:, None], 0.0)
            if weighted:
                term *= u
            for jp, rival in enumerate(max_laws):
                if jp != j:
                    # survival[i] = Pr(M_jp > values[i - 1]) and survival[0] = 1; u_jp < u
                    # is M_jp > v_jp - u (search "right"), u_jp <= u is M_jp >= v_jp - u ("left")
                    survival = np.concatenate(([1.0], 1.0 - rival.cdf_arr))
                    side = "left" if jp > j and not strict_ties else "right"
                    term *= survival[rival.values_arr.searchsorted(cols[jp] - u, side=side)]
            out[lo : lo + block, j] = term.cumsum(axis=0)[-1]
    return out.reshape(vals.shape)


def benchmark_values(vals: np.ndarray, p_region: np.ndarray, items: Sequence[ItemDistribution]) -> np.ndarray:
    """Phi_j(v) = v_j (1 - P_j(v)) + max(phi_tilde_j(v_j), 0) P_j(v), elementwise over (..., m)."""
    phi = np.empty(vals.shape)
    for j, item in enumerate(items):
        vj, pj = vals[..., j], p_region[..., j]
        phi_plus = item.ironed.phi_plus[item.values_arr.searchsorted(vj)]
        phi[..., j] = vj * (1.0 - pj) + phi_plus * pj
    return phi


def build_iu_tables(inst: Instance) -> IUTables:
    """Exact region probabilities P_j(v) and benchmark values Phi_j(v) for every v."""
    setting, maxvec = inst.setting, inst.ghost_max
    nv = setting.product_support_size
    if nv * maxvec.joint_size() > setting.caps.joint_terms:
        raise EnumerationCapExceeded(
            f"valuations x max-vectors = {size_text(nv * maxvec.joint_size())} exceeds cap "
            f"{setting.caps.joint_terms}; use monte_carlo_iu"
        )
    valuations, vprobs = setting.valuations()
    vals = np.array(valuations)
    p_region = region_kernel(vals, maxvec.per_item)
    phi = benchmark_values(vals, p_region, setting.items)
    law_phi = tuple(
        ScalarDistribution.from_atoms(zip(phi[:, j].tolist(), vprobs.tolist()), renorm_tol=1e-9)
        for j in range(setting.m)
    )
    return IUTables(valuations, vprobs, p_region, phi, law_phi)


def iu(setting: AuctionSetting, n: int, n_prime: int) -> float:
    """The benchmark IU(n, n'), exact."""
    return Instance(setting, n_prime).iu_tables.iu(n)


def _rank(code: np.ndarray, radix: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Distinct count, each code's rank in code order and one index per rank, for codes below `radix`.

    A presence table (O(radix)) up to RANK_TABLE slots and 16 per code, a sort (`np.unique`) above.
    """
    if radix > min(RANK_TABLE, 16 * len(code)):
        distinct, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        return len(distinct), inverse, first
    seen = np.zeros(radix, dtype=bool)
    seen[code] = True
    rank = np.cumsum(seen, dtype=np.intp) - 1
    inverse = rank[code]
    first = np.empty(rank[-1] + 1, dtype=np.intp)
    first[inverse] = np.arange(len(code))
    return len(first), inverse, first


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float | None


def monte_carlo_iu(
    setting: AuctionSetting, n: int, n_prime: int, samples: int, seed: int, chunk: int = 1 << 16
) -> MCEstimate:
    """Unbiased sampling estimator of the benchmark.

    Each sample draws n valuations; Phi_j is evaluated exactly through the
    per-item max CDFs, so the only randomness is in the valuations.  Output is
    deterministic for a given seed.  One sample holds n x m values; more than
    caps.joint_terms raises EnumerationCapExceeded.

    Draws come from the finite product support and mostly repeat, so each
    chunk keys its valuations by one mixed-radix code of their atom indices
    (re-ranked, not refused, where the radix would pass int64), ranks them
    with :func:`_rank` and evaluates Phi once per distinct valuation in one
    kernel call; each item's max over bidders then gathers Phi back bidder by
    bidder into a running maximum.  The kernel is row by row, max is exact and
    the per-sample sums keep their item order, so the estimate is the one a
    per-draw evaluation gives, bit for bit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1 or n_prime < 1:
        raise TooFewBidders("need n, n_prime >= 1")
    cells = n * setting.m
    if cells > setting.caps.joint_terms:
        raise EnumerationCapExceeded(
            f"bidders x items = {cells} exceeds cap {setting.caps.joint_terms} per sample"
        )
    # draws per chunk: the random stream and the memory of one chunk
    chunk = min(chunk, setting.caps.joint_terms // cells)
    sizes = [len(item.values) for item in setting.items]
    maxvec = max_vector_distribution(setting, n_prime - 1)
    rng = make_rng(seed, MC_STREAM)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        batch = min(chunk, samples - done)
        # per-item atom indices of the batch x n drawn valuations, folded into
        # one mixed-radix code per valuation
        idx = np.empty((setting.m, batch * n), dtype=np.min_scalar_type(max(sizes) - 1))
        code = np.zeros(batch * n, dtype=np.int64)
        radix = 1
        for j, item in enumerate(setting.items):
            idx[j] = rng.choice(sizes[j], size=batch * n, p=item.probs_arr)
            if radix * sizes[j] > _CODE_LIMIT:
                radix, code, _ = _rank(code, radix)
            code *= sizes[j]
            code += idx[j]
            radix *= sizes[j]
        _, inverse, first = _rank(code, radix)
        inverse = np.ascontiguousarray(inverse.reshape(batch, n).T)
        vals = np.stack([item.values_arr[idx[j, first]] for j, item in enumerate(setting.items)], axis=-1)
        phi = benchmark_values(vals, region_kernel(vals, maxvec.per_item), setting.items)
        stat = np.zeros(batch)
        for col in phi.T:
            best = col[inverse[0]]
            for ranks in inverse[1:]:
                np.maximum(best, col[ranks], out=best)
            stat += best
        total += float(stat.sum())
        total_sq += float((stat * stat).sum())
        done += batch
    mean = total / samples
    if samples == 1:
        return MCEstimate(mean, None)
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return MCEstimate(mean, math.sqrt(var / samples))


class Step2Check(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def step2_inequality_check(inst: Instance, n: int, tol: float = CHECK_TOL) -> Step2Check:
    """Unconditional growth inequality for the benchmark.

    iu(n, n') <= (n/n') iu(n', n') + vcg(n').  Holds for every setting with
    n <= n' and n' >= 2, before any assumption on revenues.
    """
    n_prime = inst.n_prime
    if n > n_prime:
        raise TooFewBidders("need n <= n_prime")
    if n_prime < 2:
        raise TooFewBidders("need n_prime >= 2 for the second-price term")
    lhs = inst.iu_tables.iu(n)
    rhs = (n / n_prime) * inst.iu_tables.iu(n_prime) + vcg_revenue(inst.setting, n_prime)
    return Step2Check(lhs, rhs, holds_leq(lhs, rhs, tol))


def tie_break_independence_check(law: ScalarDistribution, k: int, cap: int = 1 << 24) -> float:
    """Max deviation between Pr(max = s | winner = i) and Pr(max = s).

    Enumerates all k-tuples; ties are split uniformly over the argmax set.
    The deviation should be zero up to roundoff for every law.
    """
    if k < 1:
        raise TooFewBidders("need k >= 1")
    size = len(law.values)
    if size**k > cap:
        raise EnumerationCapExceeded(f"{size}^{k} tuples exceed cap {cap}")
    joint = np.zeros((size, k))  # Pr(max = value s, winner = i)
    marg = np.zeros(size)
    for combo in itertools.product(range(size), repeat=k):
        prob = math.prod(law.probs[c] for c in combo)
        best = max(combo)
        winners = [i for i, c in enumerate(combo) if c == best]
        marg[best] += prob
        for i in winners:
            joint[best, i] += prob / len(winners)
    deviation = 0.0
    for i in range(k):
        p_win = joint[:, i].sum()
        for s in range(size):
            cond = joint[s, i] / p_win
            deviation = max(deviation, abs(cond - marg[s]))
    return deviation
