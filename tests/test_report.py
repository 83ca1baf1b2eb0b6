"""The verdict rule, the check-record contract, and the package's exported names."""

import json
import types
from pathlib import Path

import pytest

import auctionbench
from auctionbench import (
    Instance,
    bulow_klemperer_check,
    chebyshev_check,
    make_rng,
    step2_inequality_check,
    variance_ub_check,
)
from auctionbench.cli import _verify_suites, load_config, run_analysis
from auctionbench.generators import random_setting
from auctionbench.myerson import all_regular
from auctionbench.report import CHECK_TOL, CheckRecord, holds_leq

ROOT = Path(__file__).resolve().parent.parent
STEP2 = ("step2", "IU(n,n') <= (n/n')*IU(n',n') + VCG(n')")
BULOW_KLEMPERER = ("bulow_klemperer", "SRev(n) <= VCG(n+1) (regular items)")


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(auctionbench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(auctionbench.__all__)) == len(auctionbench.__all__)
    assert set(auctionbench.__all__) == public
    for name in auctionbench.__all__:
        getattr(auctionbench, name)


def assert_record(record, tol):
    assert isinstance(record, CheckRecord)
    assert record.holds == holds_leq(record.lhs, record.rhs, tol)


@pytest.mark.parametrize("tol", [0.0, CHECK_TOL, 0.6])
def test_every_check_returns_a_record_under_the_one_rule(tol):
    rng = make_rng(81)
    regular_seen = irregular_seen = 0
    for _ in range(60):
        setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=4)
        inst = Instance(setting, setting.n_prime)
        if setting.n_prime >= 2:
            record = step2_inequality_check(inst, setting.n, tol)
            assert (record.name, record.statement) == STEP2
            assert_record(record, tol)
        record = bulow_klemperer_check(setting, setting.n, tol)
        assert (record.name, record.statement) == BULOW_KLEMPERER
        if all_regular(setting):
            regular_seen += 1
            assert_record(record, tol)
        else:
            irregular_seen += 1
            assert isinstance(record, CheckRecord) and record.holds is None
        for item in setting.items:
            assert_record(variance_ub_check(item, tol), tol)
            for a in (0.5, 2.0):
                assert_record(chebyshev_check(item, a, tol), tol)
    assert regular_seen and irregular_seen


@pytest.mark.parametrize("name", ["two_point", "two_items", "fee_positive", "irregular_three_point"])
def test_analyze_prints_the_records_as_returned(name):
    cfg = load_config(ROOT / "configs" / f"{name}.json")
    setting, tol = cfg.setting, cfg.tolerance
    by_name = {c.name: c for c in run_analysis(cfg).checks}
    assert by_name["step2"] == step2_inequality_check(Instance(setting, setting.n_prime), setting.n, tol)
    assert by_name["bulow_klemperer"] == bulow_klemperer_check(setting, setting.n, tol)
    printed = {c["name"]: c for c in json.loads((ROOT / "tests" / "golden" / f"{name}.json").read_text())["checks"]}
    for expected in (STEP2, BULOW_KLEMPERER):
        assert (printed[expected[0]]["name"], printed[expected[0]]["statement"]) == expected


def test_verify_runs_the_records_as_returned():
    rng = make_rng(82)
    for _ in range(10):
        setting = random_setting(rng, max_items=2, max_support=3, max_ghosts=4)
        by_name = {c.name: c for c in _verify_suites(setting, make_rng(0), CHECK_TOL)}
        assert by_name["bulow_klemperer"] == bulow_klemperer_check(setting, setting.n, CHECK_TOL)
        if setting.n_prime >= 2:
            assert by_name["step2"] == step2_inequality_check(
                Instance(setting, setting.n_prime), setting.n, CHECK_TOL
            )
