"""The independent-utilities benchmark over ghost-bidder max vectors.

For a valuation v and a ghost max vector M, item regions are decided by VCG
utilities u_j = v_j - M_j: v belongs to the region of the smallest index
attaining max_j u_j, provided that item's own max is cleared; otherwise v is
in the residual region (None).  Region probabilities are taken over the max
vector of n' - 1 i.i.d. ghost draws, whose per-item components are
independent with CDF F_j^(n'-1); that independence is what makes the exact
computation cheap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import (
    AuctionSetting,
    CHECK_TOL,
    MaxVector,
    ScalarDistribution,
    Valuation,
    holds_leq,
    iid_max_expectation,
    make_rng,
    max_vector_distribution,
)
from .errors import EnumerationCapExceeded, TooFewBidders
from .myerson import IronedTable, iron
from .simple_auctions import vcg_revenue

MC_STREAM = 17  # substream label for the benchmark estimator


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

    setting: AuctionSetting
    n_prime: int
    valuations: tuple[Valuation, ...]
    vprobs: np.ndarray  # probability of each valuation
    p_region: np.ndarray  # shape (len(valuations), m)
    phi: np.ndarray  # shape (len(valuations), m)
    law_phi: tuple[ScalarDistribution, ...]

    def index_of(self, v: Valuation) -> int:
        return self.valuations.index(v)


def _region_probability(
    v: Valuation,
    j: int,
    max_laws: tuple[ScalarDistribution, ...],
) -> float:
    """Pr over the max vector that v falls in item j's region.

    Conditions on M_j and uses independence of the other coordinates:
    items before j must fall strictly below the winning utility and items
    after j weakly below (that is the smallest-index tie-break).
    """
    law_j = max_laws[j]
    total = 0.0
    for mu, p_mu in zip(law_j.values, law_j.probs):
        if mu > v[j]:
            continue
        u = v[j] - mu
        prob = p_mu
        for jp, law in enumerate(max_laws):
            if jp == j:
                continue
            threshold = v[jp] - u
            if jp < j:
                # utility at jp strictly below u: M_jp > v_jp - u
                prob *= 1.0 - law.cdf(threshold)
            else:
                # utility at jp weakly below u: M_jp >= v_jp - u
                prob *= 1.0 - law.prob_below(threshold)
            if prob == 0.0:
                break
        total += prob
    return total


def build_iu_tables(setting: AuctionSetting, n_prime: int, tables: tuple[IronedTable, ...] | None = None) -> IUTables:
    """Exact region probabilities P_j(v) and benchmark values Phi_j(v) for every v.

    Phi_j(v) = v_j (1 - P_j(v)) + max(phi_tilde_j(v_j), 0) P_j(v).
    """
    if n_prime < 1:
        raise TooFewBidders("need n_prime >= 1")
    maxvec = max_vector_distribution(setting, n_prime - 1)
    nv = setting.product_support_size
    if nv * maxvec.joint_size() > setting.caps.joint_terms:
        raise EnumerationCapExceeded(
            f"valuations x max-vectors = {nv * maxvec.joint_size()} exceeds cap "
            f"{setting.caps.joint_terms}; use monte_carlo_iu"
        )
    ironed = tables if tables is not None else tuple(iron(item) for item in setting.items)
    valuations, vprobs = setting.valuations()
    m = setting.m
    p_region = np.zeros((len(valuations), m))
    phi = np.zeros((len(valuations), m))
    for vi, v in enumerate(valuations):
        for j in range(m):
            p = _region_probability(v, j, maxvec.per_item)
            p_region[vi, j] = p
            phi_plus = ironed[j].phi_tilde_plus_at(v[j])
            phi[vi, j] = v[j] * (1.0 - p) + phi_plus * p
    law_phi = tuple(
        ScalarDistribution.from_atoms(zip(phi[:, j].tolist(), vprobs.tolist()), renorm_tol=1e-9)
        for j in range(m)
    )
    return IUTables(setting, n_prime, valuations, vprobs, p_region, phi, law_phi)


def iu(setting: AuctionSetting, n: int, n_prime: int, tables: IUTables | None = None) -> float:
    """The benchmark: sum over items of E[max over n bidders of Phi_j(v_i)], exact."""
    if n < 1:
        raise TooFewBidders("need n >= 1")
    t = tables if tables is not None and tables.n_prime == n_prime else build_iu_tables(setting, n_prime)
    return sum(iid_max_expectation(law, n) for law in t.law_phi)


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float | None


def monte_carlo_iu(
    setting: AuctionSetting, n: int, n_prime: int, samples: int, seed: int, chunk: int = 1 << 16
) -> MCEstimate:
    """Unbiased sampling estimator of the benchmark.

    Each sample draws n valuations; Phi_j is evaluated exactly through the
    per-item max CDFs, so the only randomness is in the valuations.  Output is
    deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1 or n_prime < 1:
        raise TooFewBidders("need n, n_prime >= 1")
    maxvec = max_vector_distribution(setting, n_prime - 1)
    ironed = [iron(item) for item in setting.items]
    m = setting.m

    # per-item lookup arrays for vectorized Phi evaluation
    supports = [np.asarray(item.values) for item in setting.items]
    phi_plus = [
        np.maximum(np.asarray(t.phi_tilde), 0.0) for t in ironed
    ]
    max_supports = [law.values_arr for law in maxvec.per_item]
    max_pmfs = [law.probs_arr for law in maxvec.per_item]
    max_cdfs = [law.cdf_arr for law in maxvec.per_item]

    def cdf_leq(j: int, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(max_supports[j], x, side="right")
        padded = np.concatenate(([0.0], max_cdfs[j]))
        return padded[idx]

    def cdf_lt(j: int, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(max_supports[j], x, side="left")
        padded = np.concatenate(([0.0], max_cdfs[j]))
        return padded[idx]

    rng = make_rng(seed, MC_STREAM)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        batch = min(chunk, samples - done)
        # value indices per (sample, bidder, item)
        vals = np.empty((batch, n, m))
        for j, item in enumerate(setting.items):
            idx = rng.choice(len(item.values), size=(batch, n), p=item.probs_arr)
            vals[:, :, j] = supports[j][idx]
        stat = np.zeros(batch)
        for j in range(m):
            vj = vals[:, :, j]
            p = np.zeros_like(vj)
            for mu, p_mu in zip(max_supports[j], max_pmfs[j]):
                live = vj >= mu
                if not live.any():
                    continue
                u = vj - mu
                term = np.where(live, p_mu, 0.0)
                for jp in range(m):
                    if jp == j:
                        continue
                    thresh = vals[:, :, jp] - u
                    factor = 1.0 - (cdf_leq(jp, thresh) if jp < j else cdf_lt(jp, thresh))
                    term = term * factor
                p += term
            idx = np.searchsorted(supports[j], vj)
            phi = vj * (1.0 - p) + phi_plus[j][idx] * p
            stat += phi.max(axis=1)
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


def step2_inequality_check(
    setting: AuctionSetting, n: int, n_prime: int, tol: float = CHECK_TOL, tables: IUTables | None = None
) -> Step2Check:
    """Unconditional growth inequality for the benchmark.

    iu(n, n') <= (n/n') iu(n', n') + vcg(n').  Holds for every setting with
    n <= n' and n' >= 2, before any assumption on revenues.  `tables` are the
    caller's IU tables, reused when built at n'.
    """
    if n > n_prime:
        raise TooFewBidders("need n <= n_prime")
    if n_prime < 2:
        raise TooFewBidders("need n_prime >= 2 for the second-price term")
    if tables is None or tables.n_prime != n_prime:
        tables = build_iu_tables(setting, n_prime)
    lhs = iu(setting, n, n_prime, tables)
    rhs = (n / n_prime) * iu(setting, n_prime, n_prime, tables) + vcg_revenue(setting, n_prime)
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
