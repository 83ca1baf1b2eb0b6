"""The independent-utilities benchmark over ghost-bidder max vectors.

For a valuation v and a ghost max vector M, item regions are decided by VCG
utilities u_j = v_j - M_j: v belongs to the region of the smallest index
attaining max_j u_j, provided that item's own max is cleared; otherwise v is
in the residual region (None).  Region probabilities are taken over the max
vector of n' - 1 i.i.d. ghost draws, whose per-item components are
independent with CDF F_j^(n'-1); that independence is what makes the exact
computation cheap.  One vectorised function, :func:`region_kernel`, computes
the resulting products for the exact tables, the Monte-Carlo estimator and
the decomposition's rival-event sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
# valuations x items per region_kernel call in monte_carlo_iu; bounds its memory
KERNEL_CELLS = 1 << 18


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
    are added in atom order.
    """
    vals = np.asarray(vals, dtype=np.float64)
    out = np.empty(vals.shape)
    atoms = (-1,) + (1,) * (vals.ndim - 1)
    for j, law in enumerate(max_laws):
        u = vals[..., j] - law.values_arr.reshape(atoms)
        term = np.where(u >= 0.0, law.probs_arr.reshape(atoms), 0.0)
        if weighted:
            term *= u
        for jp, rival in enumerate(max_laws):
            if jp != j:
                # survival[i] = Pr(M_jp > values[i - 1]) and survival[0] = 1; u_jp < u
                # is M_jp > v_jp - u (search "right"), u_jp <= u is M_jp >= v_jp - u ("left")
                survival = np.concatenate(([1.0], 1.0 - rival.cdf_arr))
                side = "left" if jp > j and not strict_ties else "right"
                term *= survival[rival.values_arr.searchsorted(vals[..., jp] - u, side=side)]
        out[..., j] = term.cumsum(axis=0)[-1]
    return out


def benchmark_values(vals: np.ndarray, p_region: np.ndarray, ironed: Sequence[IronedTable]) -> np.ndarray:
    """Phi_j(v) = v_j (1 - P_j(v)) + max(phi_tilde_j(v_j), 0) P_j(v), elementwise over (..., m)."""
    phi = np.empty(vals.shape)
    for j, table in enumerate(ironed):
        vj, pj = vals[..., j], p_region[..., j]
        phi_plus = np.maximum(np.asarray(table.phi_tilde), 0.0)[table.item.values_arr.searchsorted(vj)]
        phi[..., j] = vj * (1.0 - pj) + phi_plus * pj
    return phi


def build_iu_tables(setting: AuctionSetting, n_prime: int, tables: tuple[IronedTable, ...] | None = None) -> IUTables:
    """Exact region probabilities P_j(v) and benchmark values Phi_j(v) for every v."""
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
    vals = np.array(valuations)
    p_region = region_kernel(vals, maxvec.per_item)
    phi = benchmark_values(vals, p_region, ironed)
    law_phi = tuple(
        ScalarDistribution.from_atoms(zip(phi[:, j].tolist(), vprobs.tolist()), renorm_tol=1e-9)
        for j in range(setting.m)
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
    deterministic for a given seed.  One sample holds n x m values; more than
    caps.joint_terms raises EnumerationCapExceeded.
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
    # draws per chunk (the random stream) and valuations per kernel call (memory)
    chunk = min(chunk, setting.caps.joint_terms // cells)
    rows = max(1, KERNEL_CELLS // cells)
    maxvec = max_vector_distribution(setting, n_prime - 1)
    ironed = [iron(item) for item in setting.items]
    rng = make_rng(seed, MC_STREAM)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        batch = min(chunk, samples - done)
        vals = np.empty((batch, n, setting.m))
        for j, item in enumerate(setting.items):
            idx = rng.choice(len(item.values), size=(batch, n), p=item.probs_arr)
            vals[:, :, j] = item.values_arr[idx]
        stat = np.zeros(batch)
        for lo in range(0, batch, rows):
            part = vals[lo : lo + rows]
            phi = benchmark_values(part, region_kernel(part, maxvec.per_item), ironed)
            for j in range(setting.m):
                stat[lo : lo + rows] += phi[:, :, j].max(axis=1)
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
