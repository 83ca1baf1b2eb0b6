"""The per-max-vector flow certificates and the region-form revenue bound."""

import pytest

from auctionbench import (
    AuctionSetting,
    build_lambda_prime,
    build_lambda_star,
    iu,
    make_item_distribution,
    make_rng,
    max_vector_distribution,
    optimal_revenue,
    verify_dual_certificate,
)
from auctionbench.duality import combine_flows, flow_residuals, region_form_phi
from auctionbench.generators import random_setting
from auctionbench.iu import region_of


class TestLambdaPrime:
    def test_point_mass_one_state(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        flow = build_lambda_prime(setting, (1.0,))
        assert flow.lam == {((1.0,), None): 1.0}
        assert flow_residuals(setting, flow)[(1.0,)] == pytest.approx(0.0, abs=1e-15)

    def test_d2_low_max(self, setting_d2):
        flow = build_lambda_prime(setting_d2, (1.0,))
        assert flow.lam[((2.0,), (1.0,))] == pytest.approx(0.5)  # chain edge inside the region
        assert flow.lam[((1.0,), None)] == pytest.approx(1.0)  # exit at the region bottom

    def test_d2_high_max(self, setting_d2):
        flow = build_lambda_prime(setting_d2, (2.0,))
        assert flow.lam[((2.0,), None)] == pytest.approx(0.5)
        assert flow.lam[((1.0,), None)] == pytest.approx(0.5)  # residual-region mass

    def test_flow_conserved_and_nonnegative_everywhere(self):
        rng = make_rng(60)
        for _ in range(25):
            setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=3)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in maxvec.joint():
                flow = build_lambda_prime(setting, m_vec)
                star = build_lambda_star(setting, m_vec)
                combined = combine_flows(flow, star)
                assert combined.min_entry() >= -1e-12
                residuals = flow_residuals(setting, combined)
                assert max(abs(r) for r in residuals.values()) <= 1e-9


class TestLambdaStar:
    def test_regular_item_no_mass(self, setting_d2):
        for m_vec in [(1.0,), (2.0,)]:
            assert build_lambda_star(setting_d2, m_vec).lam == {}

    def test_d3_adjacent_pair(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=2)
        flow = build_lambda_star(setting, (4.0,))
        # ironing surplus above 4 spread over the (4, 5) gap, symmetric
        assert flow.lam[((4.0,), (5.0,))] == pytest.approx(0.5)
        assert flow.lam[((5.0,), (4.0,))] == pytest.approx(0.5)

    def test_empty_slice_adds_nothing(self, d3):
        # a max above the whole support leaves every slice empty
        big = make_item_distribution([4, 5, 10, 20], [0.6, 0.2, 0.1, 0.1])
        setting = AuctionSetting(items=(big,), n=1, n_prime=2)
        flow = build_lambda_star(setting, (20.0,))
        # slice = {20} which irons to itself, so no surplus mass
        assert all(abs(w) <= 1e-12 for w in flow.lam.values())

    def test_nonnegative_entries(self):
        rng = make_rng(61)
        for _ in range(25):
            setting = random_setting(rng, max_items=2, max_support=4, max_ghosts=3)
            maxvec = max_vector_distribution(setting, setting.n_prime - 1)
            for m_vec, _prob in maxvec.joint():
                flow = build_lambda_star(setting, m_vec)
                assert all(w >= -1e-12 for w in flow.lam.values())


class TestCertificate:
    def test_point_mass(self, point_mass):
        setting = AuctionSetting(items=(point_mass,), n=1, n_prime=2)
        cert = verify_dual_certificate(setting, 1, (1.0,))
        assert cert.flow_residual_max <= 1e-12
        assert cert.phi_match_max <= 1e-12
        assert cert.bound_holds

    def test_d2_every_max(self, setting_d2):
        _, mech = optimal_revenue(setting_d2, 1)
        for m_vec in [(1.0,), (2.0,)]:
            cert = verify_dual_certificate(setting_d2, 1, m_vec, mechanism=mech)
            assert cert.flow_residual_max <= 1e-12
            assert cert.phi_match_max <= 1e-9
            assert cert.bound_holds

    def test_d3_seeded_max(self, d3):
        setting = AuctionSetting(items=(d3,), n=1, n_prime=2)
        for m_vec in [(4.0,), (5.0,), (10.0,)]:
            cert = verify_dual_certificate(setting, 1, m_vec)
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
            for m_vec, _prob in maxvec.joint():
                cert = verify_dual_certificate(setting, 1, m_vec, mechanism=mech)
                assert cert.flow_residual_max <= 1e-9
                assert cert.phi_match_max <= 1e-9
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
            for m_vec, _prob in maxvec.joint():
                phi = region_form_phi(setting, m_vec)
                for v in vals:
                    region = region_of(v, m_vec)
                    for j in range(setting.m):
                        if j != region:
                            assert phi[v][j] == v[j]
