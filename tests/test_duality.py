"""The per-max-vector flow certificates and the region-form revenue bound.

The flows are arrays in ``product_grid`` order; the dict implementation they
replaced is kept verbatim at the end of this file as the reference they are
checked against, entry by entry.
"""

import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench import (
    AuctionSetting,
    Caps,
    duality,
    iu,
    make_item_distribution,
    make_rng,
    max_vector_distribution,
    optimal_revenue,
)
from auctionbench.dist import MaxVector, Valuation
from auctionbench.errors import EnumerationCapExceeded
from auctionbench.generators import random_item, random_setting
from auctionbench.lp import Mechanism
from auctionbench.myerson import iron_restricted
from auctionbench.report import holds_leq
from helpers import joint, region_of

dual_flow = duality.dual_flow


def flow_min(flow):
    return min(flow.chain.min(), flow.exit.min(), flow.pair.min())


def reference_arrays(setting, m_vec):
    """The reference's lambda', lambda*, region-form phi and combined-flow phi, laid out as the arrays are."""
    vals, _ = setting.valuations()
    row = {v: i for i, v in enumerate(vals)}
    chain, sink, pair = np.zeros((len(vals), setting.m)), np.zeros(len(vals)), np.zeros((len(vals), setting.m))
    prime, star = build_lambda_prime(setting, m_vec), build_lambda_star(setting, m_vec)
    for (a, b), w in prime.lam.items():
        if b is SINK:
            sink[row[a]] = w
        else:
            (j,) = [j for j in range(setting.m) if a[j] != b[j]]
            assert b[j] < a[j]
            chain[row[a], j] = w
    for (a, b), w in star.lam.items():
        (j,) = [j for j in range(setting.m) if a[j] != b[j]]
        assert star.lam[(b, a)] == w
        if a[j] < b[j]:
            pair[row[a], j] = w
    phi_region = np.array([region_form_phi(setting, m_vec)[v] for v in vals])
    phi_flow = phi_from_flow(setting, combine_flows(prime, star))
    return chain, sink, pair, phi_region, np.array([phi_flow[v] for v in vals])


def assert_matches_reference(setting, m_vec):
    chain, sink, pair, phi_region, phi_flow = reference_arrays(setting, m_vec)
    flow = dual_flow(setting, m_vec)
    assert np.array_equal(flow.chain, chain)
    assert np.array_equal(flow.exit, sink)
    assert np.abs(flow.pair - pair).max() <= 1e-15
    assert np.array_equal(duality.region_form_phi(setting, m_vec), phi_region)
    np.testing.assert_allclose(duality.phi_from_flow(setting, flow), phi_flow, rtol=1e-12, atol=0.0)


def assert_verdicts_match_reference(setting, mech):
    for m_vec, _prob in joint(max_vector_distribution(setting, setting.n_prime - 1)):
        assert_matches_reference(setting, m_vec)
        cert = duality.verify_dual_certificate(setting, mech.n, m_vec, mechanism=mech)
        assert cert.bound_holds == verify_dual_certificate(setting, mech.n, m_vec, mechanism=mech).bound_holds


class TestLambdaPrime:
    def test_point_mass_one_state(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        flow = dual_flow(setting, (1.0,))
        assert (flow.chain.tolist(), flow.exit.tolist(), flow.pair.tolist()) == ([[0.0]], [1.0], [[0.0]])
        assert duality.flow_residuals(setting, flow)[0] == pytest.approx(0.0, abs=1e-15)

    def test_d2_low_max(self, setting_d2):
        # valuations (1.0,) and (2.0,) sit at indices 0 and 1
        flow = dual_flow(setting_d2, (1.0,))
        assert flow.chain[1, 0] == pytest.approx(0.5)  # chain edge (2,) -> (1,) inside the region
        assert flow.exit[0] == pytest.approx(1.0)  # exit at the region bottom

    def test_d2_high_max(self, setting_d2):
        flow = dual_flow(setting_d2, (2.0,))
        assert flow.exit[1] == pytest.approx(0.5)
        assert flow.exit[0] == pytest.approx(0.5)  # residual-region mass

    def test_flow_conserved_and_nonnegative_everywhere(self):
        rng = make_rng(60)
        for _ in range(25):
            setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=3)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in joint(maxvec):
                flow = dual_flow(setting, m_vec)
                assert flow_min(flow) >= -1e-12
                assert np.abs(duality.flow_residuals(setting, flow)).max() <= 1e-9

    def test_refused_past_the_joint_terms_cap(self, d2):
        # 4 valuations: 16 flow entries
        dual_flow(AuctionSetting(items=(d2, d2), n=1, n_prime=2, caps=Caps(joint_terms=16)), (1.0, 1.0))
        setting = AuctionSetting(items=(d2, d2), n=1, n_prime=2, caps=Caps(joint_terms=15))
        with pytest.raises(EnumerationCapExceeded, match="^16 flow entries exceed cap 15$"):
            dual_flow(setting, (1.0, 1.0))

    def test_cap_message_states_a_huge_count_by_its_bit_length(self, d2):
        setting = AuctionSetting(items=(d2,) * 15_000, n=1, n_prime=2, caps=Caps(product_support=1 << 15_000))
        with pytest.raises(EnumerationCapExceeded, match=r"^about 2\^30000 flow entries exceed cap "):
            dual_flow(setting, (1.0,) * 15_000)


class TestLambdaStar:
    def test_regular_item_no_mass(self, setting_d2):
        for m_vec in [(1.0,), (2.0,)]:
            assert not dual_flow(setting_d2, m_vec).pair.any()

    def test_d3_adjacent_pair(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=2)
        flow = dual_flow(setting, (4.0,))
        # ironing surplus above 4 spread over the (4, 5) gap, the same weight each way
        assert flow.pair[0, 0] == pytest.approx(0.5)

    def test_empty_slice_adds_nothing(self, d3):
        # a max above the whole support leaves every slice empty
        big = make_item_distribution([4, 5, 10, 20], [0.6, 0.2, 0.1, 0.1])
        setting = AuctionSetting(items=(big,), n=1, n_prime=2)
        flow = dual_flow(setting, (20.0,))
        # slice = {20} which irons to itself, so no surplus mass
        assert np.abs(flow.pair).max() <= 1e-12

    def test_nonnegative_entries(self):
        rng = make_rng(61)
        for _ in range(25):
            setting = random_setting(rng, max_items=2, max_support=4, max_ghosts=3)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in joint(maxvec):
                assert dual_flow(setting, m_vec).pair.min() >= -1e-12


class TestCertificate:
    def test_point_mass(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        cert = duality.verify_dual_certificate(setting, 1, (1.0,))
        assert cert.flow_residual_max <= 1e-12
        assert cert.phi_match_max <= 1e-12
        assert cert.bound_holds

    def test_d2_every_max(self, setting_d2):
        _, mech = optimal_revenue(setting_d2, 1)
        for m_vec in [(1.0,), (2.0,)]:
            cert = duality.verify_dual_certificate(setting_d2, 1, m_vec, mechanism=mech)
            assert cert.flow_residual_max <= 1e-12
            assert cert.phi_match_max <= 1e-9
            assert cert.bound_holds

    def test_d3_seeded_max(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=2)
        for m_vec in [(4.0,), (5.0,), (10.0,)]:
            cert = duality.verify_dual_certificate(setting, 1, m_vec)
            assert cert.bound_holds
            assert cert.phi_match_max <= 1e-9

    def test_seeded_instances(self):
        rng = make_rng(62)
        for _ in range(15):
            setting = random_setting(
                rng, max_items=2, max_support=2, max_bidders=1, max_ghosts=4
            )
            _, mech = optimal_revenue(setting, 1)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in joint(maxvec):
                cert = duality.verify_dual_certificate(setting, 1, m_vec, mechanism=mech)
                assert cert.flow_residual_max <= 1e-9
                assert cert.phi_match_max <= 1e-9
                assert cert.bound_holds

    def test_three_items(self):
        rng = make_rng(66)
        for _ in range(8):
            items = tuple(random_item(rng, max_support=2) for _ in range(3))
            setting = AuctionSetting(items=items, n=1, n_prime=int(rng.integers(2, 5)))
            _, mech = optimal_revenue(setting, 1)
            for m_vec, _prob in joint(max_vector_distribution(setting, setting.n_prime - 1)):
                cert = duality.verify_dual_certificate(setting, 1, m_vec, mechanism=mech)
                assert cert.flow_residual_max <= 1e-9
                assert cert.phi_match_max <= 1e-9
                assert cert.bound_holds

    def test_verdict_matches_the_per_bidder_sum(self):
        # the bound summed bidder by bidder, as before the symmetric shortcut,
        # gives the same verdict at several bidder counts
        rng = make_rng(65)
        for _ in range(10):
            setting = random_setting(rng, max_items=2, max_support=2, max_bidders=1, max_ghosts=4)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for n in (1, 2, 3):
                _, mech = optimal_revenue(setting, n)
                for m_vec, _prob in joint(maxvec):
                    bound = sum(
                        mech.vprobs[vidx]
                        * mech.interim_alloc[i, vidx, j]
                        * (item.ironed.phi_plus[item.values.index(v[j])] if region_of(v, m_vec) == j else v[j])
                        for i in range(n)
                        for vidx, v in enumerate(mech.valuations)
                        for j, item in enumerate(setting.items)
                    )
                    cert = duality.verify_dual_certificate(setting, n, m_vec, mechanism=mech)
                    assert cert.bound_holds == holds_leq(mech.revenue, bound, 1e-6)

    def test_a_mechanism_for_other_arguments_is_refused(self, setting_d2, setting_two_items):
        _, mech = optimal_revenue(setting_d2, 1)
        with pytest.raises(ValueError, match="1 bidders on 2 valuations, not 3 on 2"):
            duality.verify_dual_certificate(setting_d2, 3, (1.0,), mechanism=mech)
        with pytest.raises(ValueError, match="1 bidders on 2 valuations, not 1 on 4"):
            duality.verify_dual_certificate(setting_two_items, 1, (1.0, 1.0), mechanism=mech)

    def test_point_mass_at_a_million_bidders(self, point_mass):
        # one point-mass item: the LP is tiny at any n, and so is the check
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        _, mech = optimal_revenue(setting, 10**6)
        t0 = time.perf_counter()
        cert = duality.verify_dual_certificate(setting, 10**6, (1.0,), mechanism=mech)
        assert time.perf_counter() - t0 < 0.5
        assert cert.bound_holds

    def test_averaged_bound_reproduces_benchmark_duality(self):
        # weighting the per-max-vector bound by the max-vector law recovers
        # Rev(n) <= IU(n, n') through the region-mixed kernel
        rng = make_rng(63)
        for _ in range(10):
            setting = random_setting(
                rng, max_items=2, max_support=2, max_bidders=2, max_ghosts=4
            )
            value, _ = optimal_revenue(setting, setting.n)
            assert value <= iu(setting, setting.n, setting.n_prime) + 1e-6


class TestRegionFormPhi:
    def test_off_region_is_identity(self):
        rng = make_rng(64)
        for _ in range(10):
            setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=3)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            vals, _ = setting.valuations()
            for m_vec, _prob in joint(maxvec):
                phi = duality.region_form_phi(setting, m_vec)
                for i, v in enumerate(vals):
                    region = region_of(v, m_vec)
                    for j in range(setting.m):
                        if j != region:
                            assert phi[i, j] == v[j]


class TestAgainstTheDictReference:
    """chain, exit and the region-form phi ==, pair within 1e-15, flow phi within 1e-12 relative, equal verdicts."""

    @pytest.mark.parametrize(
        "seed, count, kwargs",
        [
            (60, 25, dict(max_items=2, max_support=3, max_ghosts=3)),
            (61, 25, dict(max_items=2, max_support=4, max_ghosts=3)),
            (64, 10, dict(max_items=2, max_support=3, max_ghosts=3)),
        ],
    )
    def test_seeded_flows(self, seed, count, kwargs):
        rng = make_rng(seed)
        for _ in range(count):
            setting = random_setting(rng, **kwargs)
            for m_vec, _prob in joint(max_vector_distribution(setting, setting.n_prime - 1)):
                assert_matches_reference(setting, m_vec)

    # 111 replays acceptance criterion 11's draws
    @pytest.mark.parametrize("seed, count", [(62, 15), (65, 10), (111, 100)])
    def test_seeded_verdicts(self, seed, count):
        rng = make_rng(seed)
        for _ in range(count):
            setting = random_setting(rng, max_items=2, max_support=2, max_bidders=1, max_ghosts=4)
            assert_verdicts_match_reference(setting, optimal_revenue(setting, 1)[1])

    def test_three_item_verdicts(self):
        rng = make_rng(66)
        for _ in range(8):
            items = tuple(random_item(rng, max_support=2) for _ in range(3))
            setting = AuctionSetting(items=items, n=1, n_prime=int(rng.integers(2, 5)))
            assert_verdicts_match_reference(setting, optimal_revenue(setting, 1)[1])

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_drawn_settings(self, data):
        # values on a coarse grid, so utilities tie and slices share floors
        def item():
            values = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
            weights = data.draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
            return make_item_distribution([v / 2 for v in values], [w / sum(weights) for w in weights])

        items = tuple(item() for _ in range(data.draw(st.integers(1, 3))))
        setting = AuctionSetting(items=items, n=1, n_prime=data.draw(st.integers(1, 4)))
        if setting.product_support_size <= 8:
            assert_verdicts_match_reference(setting, optimal_revenue(setting, 1)[1])
        else:
            for m_vec, _prob in joint(max_vector_distribution(setting, setting.n_prime - 1)):
                assert_matches_reference(setting, m_vec)


# The dict implementation of the flows, verbatim: keyed by valuation tuples,
# one restricted ironing per region slice.

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
    valuations, vprobs = setting.valuations()
    for v, fv in zip(valuations, vprobs.tolist()):
        region = region_of(v, m_vec)
        if region is None:
            lam[(v, SINK)] = fv
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
    valuations, vprobs = setting.valuations()
    out: dict[Valuation, float] = {v: 0.0 for v in valuations}
    inc: dict[Valuation, float] = {v: 0.0 for v in valuations}
    for (a, b), w in flow.lam.items():
        out[a] += w
        if b is not SINK:
            inc[b] += w
    return {v: fv - out[v] + inc[v] for v, fv in zip(valuations, vprobs.tolist())}


def phi_from_flow(setting: AuctionSetting, flow: DualFlow) -> dict[Valuation, tuple[float, ...]]:
    """Flow virtual value per item: v_j minus the normalized incoming drift."""
    valuations, vprobs = setting.valuations()
    incoming: dict[Valuation, list[tuple[Valuation, float]]] = {v: [] for v in valuations}
    for (a, b), w in flow.lam.items():
        if b is not SINK:
            incoming[b].append((a, w))
    out = {}
    for v, fv in zip(valuations, vprobs.tolist()):
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
