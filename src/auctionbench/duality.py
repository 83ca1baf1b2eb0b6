"""Dual-flow certificates for the region-based revenue upper bound (Cai, Devanur and Weinberg, 2016).

For a fixed ghost max vector M, a non-negative flow on valuations, with a sink for exits, bounds any
truthful auction's revenue by the expected region-mixed virtual welfare.  Arrays run over the product
support in ``product_grid`` order, where index i's neighbours along item j are i -/+ stride_j.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dist import AuctionSetting, MaxVector, product_codes, product_grid
from .errors import EnumerationCapExceeded, size_text
from .lp import Mechanism
from .myerson import iron_restricted
from .report import holds_leq


class DualFlow(NamedTuple):
    """Non-negative flow on the product support for one fixed max vector."""

    chain: np.ndarray  # (nv, m): lambda' from v to its predecessor along j
    exit: np.ndarray  # (nv,): lambda' from v to the sink
    pair: np.ndarray  # (nv, m): lambda* between v and its successor along j, the same each way


class _Grid(NamedTuple):
    vals: np.ndarray  # (nv, m) valuations
    vprobs: np.ndarray  # (nv,) their probabilities
    idx: np.ndarray  # (nv, m) atom index of v_j in item j
    sizes: list[int]  # atoms of each item
    stride: np.ndarray  # (m,) index step between neighbours along item j
    gap: np.ndarray  # (nv, m) from v_j up to the next atom; 1 at the top, which nothing crosses


def _grid(setting: AuctionSetting) -> _Grid:
    sizes = [len(item.values) for item in setting.items]
    vals, vprobs = product_grid(setting.items, setting.caps.product_support)
    idx = product_codes(sizes)
    stride = np.array([math.prod(sizes[j + 1 :]) for j in range(len(sizes))])
    gap = _gather(idx, [np.append(np.diff(item.values_arr), 1.0) for item in setting.items])
    return _Grid(vals, vprobs, idx, sizes, stride, gap)


def _gather(idx: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """(nv, m): item j's per-atom table read at each valuation's atom index idx[:, j]."""
    return np.stack([table[idx[:, j]] for j, table in enumerate(tables)], axis=1)


def _step(g: _Grid, a: np.ndarray, step: int) -> np.ndarray:
    """a at v's neighbour `step` atoms along j, a[i + step * stride_j, j], for every (i, j); 0 off the grid."""
    on_grid = (g.idx + step >= 0) & (g.idx + step < g.sizes)
    rows = np.where(on_grid, np.arange(len(a))[:, None] + step * g.stride, len(a))
    return np.concatenate([a, np.zeros((1, a.shape[1]), a.dtype)])[rows, np.arange(a.shape[1])]


def _regions(g: _Grid, m_vec: MaxVector) -> np.ndarray:
    """(nv, m) mask of v in region j: the smallest j maximizing u_j = v_j - M_j, if u_j >= 0 (else no region)."""
    u = g.vals - np.asarray(m_vec)
    return np.eye(u.shape[1], dtype=bool)[u.argmax(axis=1)] & (u.max(axis=1) >= 0.0)[:, None]


def _slice_ironing(setting: AuctionSetting, g: _Grid, own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The region-form phi, and per v in region j the surplus sum_{x > v_j} f_j(x) (r(x) - phi_j(x)), 0 elsewhere.

    r is item j's ironing restricted to the floor of v's slice (the other items' values fixed), which
    region j meets in an upper set of item j's atoms: item j is ironed once per floor that occurs.
    """
    phi_region, surplus = g.vals.copy(), np.zeros(own.shape)
    for j, item in enumerate(setting.items):
        # the atom index of each slice's floor: its member count below the top of item j
        floor = np.broadcast_to(g.sizes[j] - own[:, j].reshape(g.sizes).sum(axis=j, keepdims=True), g.sizes).ravel()
        for lo in np.unique(floor[own[:, j]]).tolist():
            ironed = list(iron_restricted(item, item.values[lo]).values())
            terms = [p * (r - phi) for p, r, phi in zip(item.probs[lo:], ironed, item.ironed.phi[lo:])]
            rows = own[:, j] & (floor == lo)
            k = g.idx[rows, j] - lo
            phi_region[rows, j] = np.array(ironed)[k]
            surplus[rows, j] = np.array([sum(terms[t + 1 :]) for t in range(len(terms))])[k]
    return phi_region, surplus


def dual_flow(setting: AuctionSetting, m_vec: MaxVector) -> DualFlow:
    """Region chains and sink exits (lambda'), and the adjacent-pair correction (lambda*).

    Residual-region mass goes to the sink.  In region j, Pr(y >= v_j) f_{-j}(v_{-j}) flows to the
    predecessor along j, or to the sink where that leaves the region.  lambda* carries f_{-j}(v_{-j}) /
    (x' - v_j) times the surplus above v_j between slice members v_j < x' each way: no net mass.
    """
    nv = setting.product_support_size
    if nv * nv > setting.caps.joint_terms:
        raise EnumerationCapExceeded(f"{size_text(nv * nv)} flow entries exceed cap {setting.caps.joint_terms}")
    g = _grid(setting)
    own = _regions(g, m_vec)
    mass = _gather(g.idx, [item.probs_arr for item in setting.items])
    # f_{-j}(v_{-j}): the other items' masses multiplied left to right, as math.prod does
    f_minus = np.stack([np.delete(mass, j, axis=1).prod(axis=1) for j in range(setting.m)], axis=1)
    weight = (1.0 - _gather(g.idx, [np.append(0.0, item.cdf_arr[:-1]) for item in setting.items])) * f_minus
    chains = own & _step(g, own, -1)
    return DualFlow(
        np.where(chains, weight, 0.0),
        np.where(own.any(axis=1), np.where(own & ~chains, weight, 0.0).sum(axis=1), g.vprobs),
        f_minus / g.gap * _slice_ironing(setting, g, own)[1],
    )


def flow_residuals(setting: AuctionSetting, flow: DualFlow) -> np.ndarray:
    """Conservation residual f(v) - out(v) + in(v) at every valuation; lambda* moves no net mass."""
    g = _grid(setting)
    return g.vprobs - flow.exit - flow.chain.sum(axis=1) + _step(g, flow.chain, 1).sum(axis=1)


def phi_from_flow(setting: AuctionSetting, flow: DualFlow) -> np.ndarray:
    """Flow virtual value per item, (nv, m): v_j minus the normalized incoming drift along j."""
    g = _grid(setting)
    from_above = _step(g, flow.chain, 1) + flow.pair
    from_below = _step(g, flow.pair, -1)
    return g.vals - (from_above * g.gap - from_below * _step(g, g.gap, -1)) / g.vprobs[:, None]


def region_form_phi(setting: AuctionSetting, m_vec: MaxVector) -> np.ndarray:
    """The simplified form, (nv, m): v_j off region j, r(v_j) on it."""
    g = _grid(setting)
    return _slice_ironing(setting, g, _regions(g, m_vec))[0]


class DualCertificate(NamedTuple):
    flow_residual_max: float
    phi_match_max: float
    bound_holds: bool


def verify_dual_certificate(setting: AuctionSetting, m_vec: MaxVector, mechanism: Mechanism) -> DualCertificate:
    """Check the certificate for one max vector against `mechanism`, a symmetric mechanism on this setting.

    Verifies conservation of the combined flow, agreement of the flow virtual values with the simplified
    region form, and that the region-mixed virtual welfare (with the non-negative part of the ironed
    virtual value) dominates the mechanism's revenue under its own interim allocations, within 1e-6.
    """
    want = (setting.product_support_size, setting.m)  # (valuations, items)
    if mechanism.interim_alloc.shape != want:
        raise ValueError(f"interim allocation of shape {mechanism.interim_alloc.shape}, not {want}")
    flow = dual_flow(setting, m_vec)
    g = _grid(setting)
    kernel = np.where(_regions(g, m_vec), _gather(g.idx, [item.ironed.phi_plus for item in setting.items]), g.vals)
    # the mechanism is symmetric: every bidder's interim allocation is bidder 0's
    bound = mechanism.vprobs @ (mechanism.interim_alloc * kernel).sum(axis=1)
    return DualCertificate(
        float(np.abs(flow_residuals(setting, flow)).max()),
        float(np.abs(phi_from_flow(setting, flow) - region_form_phi(setting, m_vec)).max()),
        holds_leq(mechanism.revenue, mechanism.n * float(bound), 1e-6),
    )
