"""Dual-flow certificates for the region-based revenue upper bound.

For a fixed ghost max vector M, a non-negative mass transport on valuations
(with a sink state for exits) certifies that any truthful auction's revenue
is at most the expected region-mixed virtual welfare.  The flow has two
parts: downward chains inside each item region plus exits to the sink, and a
symmetric adjacent-pair correction derived from the floor-restricted ironing
of each region slice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .dist import AuctionSetting, MaxVector, Valuation, holds_leq
from .errors import EnumerationCapExceeded
from .iu import region_of
from .lp import Mechanism, optimal_revenue
from .myerson import iron_restricted

SINK = None  # dummy valuation with zero allocation and payment

FlowKey = tuple[Valuation, Valuation | None]


@dataclass
class DualFlow:
    """Non-negative flow on valuations for one fixed max vector."""

    setting: AuctionSetting
    m_vec: MaxVector
    lam: dict[FlowKey, float]

    def min_entry(self) -> float:
        return min(self.lam.values(), default=0.0)


def _check_cap(setting: AuctionSetting) -> None:
    nv = setting.product_support_size
    if nv * nv > setting.caps.joint_terms:
        raise EnumerationCapExceeded(f"{nv}^2 flow entries exceed cap {setting.caps.joint_terms}")


def _dec(setting: AuctionSetting, v: Valuation, j: int) -> Valuation | None:
    """Predecessor of v along item j; the sink when v_j is the bottom of the support."""
    values = setting.items[j].values
    idx = values.index(v[j])
    if idx == 0:
        return SINK
    return v[:j] + (values[idx - 1],) + v[j + 1 :]


def build_lambda_prime(setting: AuctionSetting, m_vec: MaxVector) -> DualFlow:
    """Region chains and sink exits.

    Residual-region mass goes straight to the sink; inside an item region,
    mass Pr(y >= v_j) f_{-j}(v_{-j}) flows to the predecessor along j while it
    stays in the region, and exits to the sink where the predecessor leaves it.
    """
    _check_cap(setting)
    lam: dict[FlowKey, float] = {}
    valuations, _ = setting.valuations()
    for v in valuations:
        region = region_of(v, m_vec)
        if region is None:
            lam[(v, SINK)] = setting.valuation_prob(v)
            continue
        j = region
        item = setting.items[j]
        f_minus_j = math.prod(
            d.probs[d.values.index(x)] for jj, (d, x) in enumerate(zip(setting.items, v)) if jj != j
        )
        weight = item.tail(v[j]) * f_minus_j
        dec = _dec(setting, v, j)
        if dec is not SINK and region_of(dec, m_vec) == j:
            lam[(v, dec)] = weight
        else:
            lam[(v, SINK)] = weight
    return DualFlow(setting, m_vec, lam)


def _region_slices(setting: AuctionSetting, m_vec: MaxVector):
    """Each non-empty slice of an item region, as (j, rest, members, restricted).

    The slice fixes the other items' values `rest` (in item order, j left
    out); `members` are item j's values x whose valuation lies in region j,
    and `restricted` is item j's ironing restricted to the support points at
    or above the slice floor min(members).
    """
    for j, item in enumerate(setting.items):
        others = [d.values for jj, d in enumerate(setting.items) if jj != j]
        for rest in itertools.product(*others):
            members = [x for x in item.values if region_of(rest[:j] + (x,) + rest[j:], m_vec) == j]
            if members:
                yield j, rest, members, iron_restricted(item, members[0])


def build_lambda_star(setting: AuctionSetting, m_vec: MaxVector) -> DualFlow:
    """Symmetric adjacent-pair weights from restricted ironing of region slices.

    For each item j and fixed off-coordinates, the slice of the region along
    j is an upper set with some floor x*; the weight between consecutive
    values x < x' is the ironing surplus above x spread over the gap.  Both
    directions carry the same weight, so the net flow is zero everywhere.
    """
    _check_cap(setting)
    lam: dict[FlowKey, float] = {}
    for j, rest, _, restricted in _region_slices(setting, m_vec):
        item = setting.items[j]
        phi = item.ironed.phi
        f_minus_j = math.prod(
            d.probs[d.values.index(x)]
            for d, x in zip((dd for jj, dd in enumerate(setting.items) if jj != j), rest)
        )
        lo = len(item.values) - len(restricted)
        for idx in range(lo, len(item.values) - 1):
            x, x_next = item.values[idx], item.values[idx + 1]
            surplus = sum(
                item.probs[k] * (restricted[item.values[k]] - phi[k])
                for k in range(idx + 1, len(item.values))
            )
            weight = f_minus_j / (x_next - x) * surplus
            if weight == 0.0:
                continue
            a, b = rest[:j] + (x,) + rest[j:], rest[:j] + (x_next,) + rest[j:]
            lam[(a, b)] = lam.get((a, b), 0.0) + weight
            lam[(b, a)] = lam.get((b, a), 0.0) + weight
    return DualFlow(setting, m_vec, lam)


def combine_flows(prime: DualFlow, star: DualFlow) -> DualFlow:
    lam = dict(prime.lam)
    for key, w in star.lam.items():
        lam[key] = lam.get(key, 0.0) + w
    return DualFlow(prime.setting, prime.m_vec, lam)


def flow_residuals(setting: AuctionSetting, flow: DualFlow) -> dict[Valuation, float]:
    """Conservation residual f(v) - out(v) + in(v) at every valuation."""
    valuations, _ = setting.valuations()
    out: dict[Valuation, float] = {v: 0.0 for v in valuations}
    inc: dict[Valuation, float] = {v: 0.0 for v in valuations}
    for (a, b), w in flow.lam.items():
        out[a] += w
        if b is not SINK:
            inc[b] += w
    return {v: setting.valuation_prob(v) - out[v] + inc[v] for v in valuations}


def phi_from_flow(setting: AuctionSetting, flow: DualFlow) -> dict[Valuation, tuple[float, ...]]:
    """Flow virtual value per item: v_j minus the normalized incoming drift."""
    valuations, _ = setting.valuations()
    incoming: dict[Valuation, list[tuple[Valuation, float]]] = {v: [] for v in valuations}
    for (a, b), w in flow.lam.items():
        if b is not SINK:
            incoming[b].append((a, w))
    out = {}
    for v in valuations:
        fv = setting.valuation_prob(v)
        out[v] = tuple(
            v[j] - sum(w * (a[j] - v[j]) for a, w in incoming[v]) / fv for j in range(setting.m)
        )
    return out


def region_form_phi(setting: AuctionSetting, m_vec: MaxVector) -> dict[Valuation, tuple[float, ...]]:
    """The simplified form: v_j off-region, restricted-ironed value on-region."""
    valuations, _ = setting.valuations()
    out = {v: list(v) for v in valuations}
    for j, rest, members, restricted in _region_slices(setting, m_vec):
        for x in members:
            out[rest[:j] + (x,) + rest[j:]][j] = restricted[x]
    return {v: tuple(row) for v, row in out.items()}


class DualCertificate(NamedTuple):
    flow_residual_max: float
    phi_match_max: float
    bound_holds: bool


def verify_dual_certificate(
    setting: AuctionSetting,
    n: int,
    m_vec: MaxVector,
    mechanism: Mechanism | None = None,
    tol: float = 1e-6,
) -> DualCertificate:
    """Check the certificate for one max vector against the optimal mechanism.

    Verifies conservation of the combined flow, agreement of the flow virtual
    values with the simplified region form, and that the region-mixed virtual
    welfare (with the non-negative part of the ironed virtual value) dominates
    the LP-optimal revenue under the LP's own interim allocations.
    """
    if mechanism is None:
        _, mechanism = optimal_revenue(setting, n)
    flow = combine_flows(build_lambda_prime(setting, m_vec), build_lambda_star(setting, m_vec))
    residuals = flow_residuals(setting, flow)
    flow_residual_max = max(abs(r) for r in residuals.values())

    phi_flow = phi_from_flow(setting, flow)
    phi_region = region_form_phi(setting, m_vec)
    phi_match_max = max(
        abs(a - b) for v in phi_flow for a, b in zip(phi_flow[v], phi_region[v])
    )

    # the mechanism is symmetric: every bidder's interim allocation is bidder 0's
    bound = 0.0
    for vidx, v in enumerate(mechanism.valuations):
        region = region_of(v, m_vec)
        fv = mechanism.vprobs[vidx]
        for j, item in enumerate(setting.items):
            kernel = item.ironed.phi_plus[item.values.index(v[j])] if region == j else v[j]
            bound += fv * mechanism.interim_alloc[0, vidx, j] * kernel
    return DualCertificate(
        flow_residual_max,
        phi_match_max,
        holds_leq(mechanism.revenue, mechanism.n * bound, tol),
    )
