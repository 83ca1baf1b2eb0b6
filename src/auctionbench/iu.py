"""The independent-utilities benchmark over ghost-bidder max vectors.

For a valuation v and a ghost max vector M, item regions are decided by VCG
utilities u_j = v_j - M_j: v belongs to the region of the smallest index
attaining max_j u_j, provided that item's own max is cleared; otherwise v is
in the residual region (None).  Region probabilities are taken over the max
vector of n' - 1 i.i.d. ghost draws, whose per-item components are
independent with CDF F_j^(n'-1); that independence is what makes the exact
computation cheap.  One vectorised function, :func:`region_kernel`, computes
the resulting products for the exact tables and the Monte-Carlo estimator.
It reads each valuation as atom codes, one index per item into that item's
support, takes one step per rival item over all items at once, and reads a
rival's factor from a table over (item, code, rival code, atom) once a block
is large enough to pay for the table, searching each cell below that.  An
:class:`Instance` holds the ghost max-vector law, the IU tables and the
utility statistics of one (setting, n'), each built once; the IU tables
evaluate IU(n) once per n.
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
    ItemDistribution,
    MaxVectorDistribution,
    ScalarDistribution,
    Valuation,
    iid_max_expectation,
    make_rng,
    max_vector_distribution,
    pad_rows,
    product_codes,
)
from .errors import EnumerationCapExceeded, TooFewBidders, size_text
from .myerson import srev
from .report import CHECK_TOL, CheckRecord
from .simple_auctions import ronen_bound_from_law, vcg_revenue

if TYPE_CHECKING:
    from .decomposition import UtilityStats

MC_STREAM = 17  # substream label for the benchmark estimator
MC_CHUNK = 1 << 16  # most draws monte_carlo_iu samples at once; caps.joint_terms // (n x m) when smaller
# atoms x valuation rows per region_kernel block; bounds the kernel's temporaries.  Of 2^14-2^18, 2^16
# was the fastest on one 4,096-atom item and 8-10% behind the fastest on 24k rows of 16 binary items,
# whose peak it holds to 6.2 MiB against 15.9 MiB at 2^18
KERNEL_CELLS = 1 << 16
# monte_carlo_iu re-ranks its valuation codes before their radix passes this
_CODE_LIMIT = 1 << 63
RANK_TABLE = 1 << 20  # largest radix _rank ranks through a presence table (at most 5 bytes a slot)
COMPARE_ATOMS = 64  # most atoms _draw_atoms counts by comparison; a binary search above
# draws per slice where a step would hold 8 B a draw: the raw Philox words _draw_atoms reads, a binary
# search's intp result, the intp copy `take` makes of its indices
DRAW_SLICE = 1 << 15
# region_kernel reads rival factors from per-rival tables, not a search per cell, once a block holds
# this many rows per table cell: a table costs a dozen numpy calls per rival to build and read
TABLE_READS = 16
# region_kernel adds the atoms of a block slice by slice once a slice holds this many cells: an
# accumulate along the atom axis pays about 15 ns a row, a slice step a few us
SUM_SLICE = 512
TIE_BREAK_CAP = 1 << 24  # most k-tuples tie_break_independence_check enumerates


@dataclass(frozen=True)
class IUTables:
    """Exact region probabilities and benchmark virtual values on the product support."""

    valuations: tuple[Valuation, ...]
    codes: np.ndarray  # shape (len(valuations), m): each valuation's atom indices
    vprobs: np.ndarray  # probability of each valuation
    p_region: np.ndarray  # shape (len(valuations), m)
    phi: np.ndarray  # shape (len(valuations), m)
    law_phi: tuple[ScalarDistribution, ...]
    _iu: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def iu(self, n: int) -> float:
        """IU(n, n'): sum over items of E[max over n bidders of Phi_j(v_i)], evaluated once per n."""
        if n < 1:
            raise TooFewBidders("need n >= 1")
        if n not in self._iu:
            self._iu[n] = sum(iid_max_expectation(law, n) for law in self.law_phi)
        return self._iu[n]


@dataclass(frozen=True)
class Instance:
    """One (setting, n') pair and the tables the exact chain reads, each built once.

    `ghost_max`, the law of the max vector of n' - 1 ghost draws, `srev_nprime`, SRev(n'),
    and `ronen_nprime`, the Ronen floor at n', are built on construction; the IU tables and
    the utility statistics on first use.  Valuations x max vectors past caps.joint_terms are
    refused on construction, before either table is built.
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
        caps = self.setting.caps
        if (terms := self.setting.product_support_size * self.ghost_max.joint_size()) > caps.joint_terms:
            raise EnumerationCapExceeded(
                f"valuations x max-vectors = {size_text(terms)} exceeds cap {caps.joint_terms}; use monte_carlo_iu"
            )
        object.__setattr__(self, "srev_nprime", srev(self.setting, self.n_prime))
        object.__setattr__(self, "ronen_nprime", ronen_bound_from_law(self.setting, self.ghost_max, self.n_prime))

    @cached_property
    def iu_tables(self) -> IUTables:
        return build_iu_tables(self)

    @cached_property
    def stats(self) -> UtilityStats:
        from .decomposition import build_utility_stats  # decomposition imports this module

        return build_utility_stats(self)


def region_kernel(codes: np.ndarray, items: Sequence[ScalarDistribution], maxvec: MaxVectorDistribution) -> np.ndarray:
    """Per item j: P_j(v) = sum over atoms mu <= v_j of M_j of p_mu prod_{j' != j} Pr(u_j' below u_j).

    `codes` is a (..., m) array of atom indices: a row is the valuation v with
    v_j = items[j].values_arr[code_j].  u_j = v_j - mu and u_j' = v_j' - M_j',
    with M ~ `maxvec`, whose coordinates are independent.  "Below" is strict for
    j' < j and weak for j' > j: the smallest-index tie-break.

    A block is an (items, rows, atoms) array of at most KERNEL_CELLS cells, the
    atoms padded to the most of any M_j at mass 0: all m items and
    KERNEL_CELLS // (m x atoms) rows, or, where m x atoms alone passes the cap,
    fewer items and one row.  The block takes one step per rival j', which
    multiplies every item's term by its factor, so each term multiplies its
    rivals in j' order; then each item adds its own atoms, in atom order, up
    to its last real atom (the last column on a law of the widest width).  One
    item's one rival is itself: no factor on a search, an all-ones table.  A
    rival factor depends only on (j, code_j, code_j', mu), so once the block
    holds TABLE_READS rows per (code_j, code_j') pair (S^2 for S the largest
    support), it is read with one `take` from a table built by the same two
    subtractions and one `searchsorted` per side, and the masses from one over
    (j, code_j, mu); the tables are built once per call where all of them fit
    KERNEL_CELLS, else once per block.  Smaller blocks search every cell.
    Either way a row's bits do not depend on its block or on the path.
    """
    codes = np.asarray(codes)
    m = codes.shape[-1]
    rows = codes.reshape(-1, m)
    out = np.empty(rows.shape)
    mu, p_mu, last = maxvec.padded
    survivals = maxvec.survivals
    atoms = mu.shape[1]
    mu, p_mu = mu[:, None, :], p_mu[:, None, :]  # (items, 1, atoms): blocks are (items, rows, atoms)
    size = max(len(item.values) for item in items)  # S
    group = max(1, min(m, KERNEL_CELLS // atoms))  # items per block
    block = max(1, KERNEL_CELLS // (group * atoms))  # rows per block
    support = None  # the items' values, padded to S, once some block reads tables
    tables: dict[tuple[int, int], np.ndarray] = {}  # (first item of the group, rival) -> factor table
    keep = m * group * atoms * size * size <= KERNEL_CELLS  # every table of the call fits the cap

    for lo in range(0, len(rows), block):
        cols = rows[lo : lo + block].T.astype(np.intp)  # contiguous per item: the rival loop reads whole rows
        tabled = TABLE_READS * size * size <= cols.shape[1]
        if tabled and support is None:
            support = pad_rows([item.values_arr for item in items])
        if not tabled:
            vals = np.array([item.values_arr[col] for item, col in zip(items, cols)])
        for j0 in range(0, m, group):
            own, span = slice(j0, j0 + group), min(group, m - j0)
            if tabled:
                # u and the masses at each (j, code_j, mu), read per row at the row of (j, code_j);
                # each row's index in a rival's (items x S x S, atoms) table is that row times S plus the
                # rival's code.  The index and factor buffers serve every rival, as fresh block-sized
                # arrays cost page faults
                u_codes = support[own, :, None] - mu[own]
                first = np.arange(span)[:, None] * size + cols[own]
                # p_mu at the atoms at or below v_j, +0.0 above
                term = ((u_codes >= 0.0) * p_mu[own]).reshape(-1, atoms).take(first, axis=0, mode="wrap")
                base, index, factor = first * size, np.empty_like(first), np.empty_like(term)
            else:
                u = vals[own, :, None] - mu[own]
                term = (u >= 0.0) * p_mu[own]
            for jp in range(m):
                # u_jp < u is M_jp > v_jp - u (search "right"), u_jp <= u is M_jp >= v_jp - u ("left"):
                # items before jp read the weak side, items after it the strict side, and jp itself no factor
                cut = min(max(jp - j0, 0), span)
                slabs = ((slice(0, cut), "left"), (slice(min(max(jp + 1 - j0, 0), span), span), "right"))
                rival = maxvec.per_item[jp].values_arr
                if tabled:
                    table = tables.get((j0, jp))
                    if table is None:
                        table = np.ones((span, size, size, atoms))
                        for slab, side in slabs:
                            if slab.start < slab.stop:
                                threshold = support[jp, :, None] - u_codes[slab, :, None]
                                table[slab] = survivals[jp][rival.searchsorted(threshold, side=side)]
                        if keep:
                            tables[j0, jp] = table
                    np.add(base, cols[jp], out=index)
                    # every index is in range, so wrap moves none
                    term *= table.reshape(-1, atoms).take(index, axis=0, out=factor, mode="wrap")
                else:
                    for slab, side in slabs:
                        if slab.start < slab.stop:
                            term[slab] *= survivals[jp][rival.searchsorted(vals[jp, :, None] - u[slab], side=side)]
            # each item adds its own atoms in atom order: a slice of the block at a time once a slice holds
            # SUM_SLICE cells, else by an accumulate along the atom axis, one short inner loop per row
            if span * cols.shape[1] >= SUM_SLICE:
                total = term[:, :, 0].copy()
                for a in range(1, atoms):
                    np.add(total, term[:, :, a], out=total, where=last[own, None] >= a)
            else:
                total = np.add.accumulate(term, axis=2)[np.arange(span), :, last[own]]
            out[lo : lo + block, own] = total.T
    return out.reshape(codes.shape)


def benchmark_values(codes: np.ndarray, p_region: np.ndarray, items: Sequence[ItemDistribution]) -> np.ndarray:
    """Phi_j(v) = v_j (1 - P_j(v)) + max(phi_tilde_j(v_j), 0) P_j(v), elementwise over (..., m) atom codes.

    Phi is written over `p_region`, which is returned.
    """
    for j, item in enumerate(items):
        code, pj = codes[..., j], p_region[..., j]
        pj[...] = item.values_arr[code] * (1.0 - pj) + item.ironed.phi_plus[code] * pj
    return p_region


def build_iu_tables(inst: Instance) -> IUTables:
    """Exact region probabilities P_j(v) and benchmark values Phi_j(v) for every v."""
    setting = inst.setting
    valuations, vprobs = setting.valuations()
    codes = product_codes([len(item.values) for item in setting.items])
    p_region = region_kernel(codes, setting.items, inst.ghost_max)
    phi = benchmark_values(codes, p_region.copy(), setting.items)
    law_phi = tuple(
        ScalarDistribution.from_atoms(zip(phi[:, j].tolist(), vprobs.tolist()), renorm_tol=1e-9)
        for j in range(setting.m)
    )
    return IUTables(valuations, codes, vprobs, p_region, phi, law_phi)


def iu(setting: AuctionSetting, n: int, n_prime: int) -> float:
    """The benchmark IU(n, n'), exact."""
    return Instance(setting, n_prime).iu_tables.iu(n)


def _rank(code: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes, ascending, and each code's rank among them, for codes below `radix`.

    A presence table (O(radix)) up to RANK_TABLE slots and 16 per code, a sort (`np.unique`) above.
    The ranks come in the narrowest unsigned type that holds the distinct count less one; the
    table's are read DRAW_SLICE codes at a time, as `take` copies its indices to intp.
    """
    if radix > min(RANK_TABLE, 16 * len(code)):
        distinct, inverse = np.unique(code, return_inverse=True)
        return distinct, inverse.astype(np.min_scalar_type(len(distinct) - 1))
    seen = np.zeros(radix, dtype=bool)
    seen[code] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(radix, dtype=np.min_scalar_type(len(distinct) - 1))  # read only where a code lies
    rank[distinct] = np.arange(len(distinct))
    inverse = np.empty(len(code), dtype=rank.dtype)
    for lo in range(0, len(code), DRAW_SLICE):
        # every code is in range, so wrap moves none
        rank.take(code[lo : lo + DRAW_SLICE], out=inverse[lo : lo + DRAW_SLICE], mode="wrap")
    return distinct, inverse


def _decode(code: np.ndarray, sizes: Sequence[int], known: np.ndarray) -> np.ndarray:
    """The atom indices of mixed-radix codes, one column per code: an (items, len(code)) array.

    The last len(sizes) digits, radices `sizes` with the last item least significant, come by
    divmod; the quotient left over names a column of `known`, the atom indices of the items before.
    """
    rows = np.empty((len(known) + len(sizes), len(code)), dtype=known.dtype)
    for j in range(len(sizes) - 1, -1, -1):
        code, rows[len(known) + j] = np.divmod(code, sizes[j])
    rows[: len(known)] = known[:, code]
    return rows


def _choice_edges(probs: np.ndarray) -> np.ndarray:
    """The CDF edges `Generator.choice` searches for atom probabilities `probs`, as raw Philox words.

    As choice builds them: the cumsum divided by its last entry, that entry then
    dropped.  `ScalarDistribution.cdf_arr` sets its last entry to 1.0 instead.
    choice's uniform is (w >> 11) x 2^-53 for a raw 64-bit word w, so it is at
    or above an edge e exactly when w >= ceil(e x 2^53) << 11; an edge of 1.0,
    which no uniform reaches, is dropped.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    edges = cdf[:-1]
    return np.ceil(edges[edges < 1.0] * 2.0**53).astype(np.uint64) << np.uint64(11)


def _draw_atoms(rng: np.random.Generator, edges: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill `out` with the atom indices `rng.choice(len(probs), len(out), p=probs)` draws.

    Inverse-CDF on the raw words under the uniforms choice reads: an index is the
    number of `edges` (:func:`_choice_edges`) at or below its word, counted one
    comparison per edge up to COMPARE_ATOMS atoms and by binary search above.
    Philox is counter-based, so the words come DRAW_SLICE at a time in the order
    one call would read them.
    """
    for lo in range(0, len(out), DRAW_SLICE):
        part = out[lo : lo + DRAW_SLICE]
        words = rng.bit_generator.random_raw(len(part))
        if len(edges) >= COMPARE_ATOMS:
            part[...] = edges.searchsorted(words, side="right")
        else:
            part[...] = 0
            for edge in edges:
                part += words >= edge
    return out


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float | None


def monte_carlo_iu(setting: AuctionSetting, n: int, n_prime: int, samples: int, seed: int) -> MCEstimate:
    """Unbiased sampling estimator of the benchmark.

    Each sample draws n valuations; Phi_j is evaluated exactly through the
    per-item max CDFs, so the only randomness is in the valuations.  Output is
    deterministic for a given seed.  One sample costs n x m x m x (most atoms of any M_j)
    region-kernel cells; more than caps.joint_terms raises EnumerationCapExceeded.

    Each item's atom indices come from :func:`_draw_atoms`: inverse-CDF on the
    raw Philox words under the uniforms `rng.choice` reads, counted by
    comparison up to COMPARE_ATOMS atoms, so they are choice's indices without
    its float conversion or its binary search.

    Draws come in chunks of MC_CHUNK, or of caps.joint_terms // (n x m) where
    that is smaller.  They come from the finite product support and mostly
    repeat, so each chunk draws one item's atom indices at a time into one
    buffer and folds them into one mixed-radix code per valuation, in the
    narrowest type that holds the product support and every item's atom count
    (int64, re-ranked rather than refused, where the radix would pass
    _CODE_LIMIT; each rank keeps the atom indices it stands for).
    :func:`_rank` returns the distinct codes and each draw's rank in the
    narrowest type that holds the distinct count; each distinct valuation's
    atom indices are decoded from its code by :func:`_decode`, and Phi is
    evaluated once per distinct valuation in one kernel call, written over the
    kernel's output; each item's max over bidders then gathers Phi back bidder
    by bidder into a running maximum.  So on small supports a drawn valuation
    is held in bytes, not words: one item's atom index at a time, its code,
    its rank and the rank's copy in (n, batch) order; a distinct one in its m
    atom indices and m float64 values of Phi.  The kernel is row by row, max
    is exact and the per-sample sums keep their item order, so the estimate is
    the one a per-draw evaluation gives, bit for bit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1 or n_prime < 1:
        raise TooFewBidders("need n, n_prime >= 1")
    maxvec = max_vector_distribution(setting, n_prime - 1)
    cells = n * setting.m * setting.m * max(len(law.values) for law in maxvec.per_item)
    if cells > setting.caps.joint_terms:
        raise EnumerationCapExceeded(f"{size_text(cells)} region-kernel cells per sample exceed cap {setting.caps.joint_terms}")
    # draws per chunk: the random stream and the memory of one chunk
    chunk = min(MC_CHUNK, setting.caps.joint_terms // (n * setting.m))
    sizes = [len(item.values) for item in setting.items]
    support = setting.product_support_size
    # the type holds each code and each radix the fold multiplies by: one item of 256 atoms is a
    # support of 256 whose codes fit in 8 bits, but its `code *= 256` needs 16
    code_type = np.min_scalar_type(max(support - 1, *sizes)) if support <= _CODE_LIMIT else np.dtype(np.int64)
    edges = [_choice_edges(item.probs_arr) for item in setting.items]
    rng = make_rng(seed, MC_STREAM)
    total = 0.0
    total_sq = 0.0
    done = 0
    # one item's atom indices at a time, folded into one mixed-radix code per drawn valuation
    digits = np.empty(min(chunk, samples) * n, dtype=np.min_scalar_type(max(sizes) - 1))
    while done < samples:
        batch = min(chunk, samples - done)
        draws = digits[: batch * n]
        code = np.zeros(batch * n, dtype=code_type)
        radix = 1
        known, first = np.empty((0, 1), dtype=digits.dtype), 0  # the atom indices of items before `first`, per rank
        for j in range(setting.m):
            _draw_atoms(rng, edges[j], draws)
            if radix * sizes[j] > _CODE_LIMIT:
                # re-rank, keeping each rank's digits; the ranks come narrow: back to int64 before the next fold
                distinct, ranks = _rank(code, radix)
                known, first, radix = _decode(distinct, sizes[first:j], known), j, len(distinct)
                code = ranks.astype(np.int64)
            code *= sizes[j]
            code += draws
            radix *= sizes[j]
        distinct, inverse = _rank(code, radix)
        inverse = np.ascontiguousarray(inverse.reshape(batch, n).T)
        codes = _decode(distinct, sizes[first:], known).T
        phi = benchmark_values(codes, region_kernel(codes, setting.items, maxvec), setting.items)
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


def step2_inequality_check(inst: Instance, n: int, tol: float = CHECK_TOL) -> CheckRecord:
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
    return CheckRecord.leq("step2", "IU(n,n') <= (n/n')*IU(n',n') + VCG(n')", lhs, rhs, tol)


def tie_break_independence_check(law: ScalarDistribution, k: int) -> float:
    """Max deviation between Pr(max = s | winner = i) and Pr(max = s).

    Enumerates all k-tuples, refusing more than TIE_BREAK_CAP; ties are split
    uniformly over the argmax set.  The deviation should be zero up to
    roundoff for every law.
    """
    if k < 1:
        raise TooFewBidders("need k >= 1")
    size = len(law.values)
    if size**k > TIE_BREAK_CAP:
        raise EnumerationCapExceeded(f"{size}^{k} tuples exceed cap {TIE_BREAK_CAP}")
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
