"""Config ingestion, subcommand behavior, report schema, and exit codes."""

import csv
import importlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench import Instance, lp_solve, make_rng
from auctionbench.cli import (
    EXIT_CAPS,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_LP,
    EXIT_OK,
    SWEEP_ROWS,
    _verify_suites,
    load_config,
    main,
    parse_config,
    run_analysis,
)
from auctionbench.generators import random_setting
from auctionbench.report import CHECK_TOL, holds_leq
from auctionbench.errors import ConfigParseError
from test_lp import reference_mechanism_lp

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

D2_CONFIG = {
    "items": [{"values": ["1", "2"], "probs": ["0.5", "0.5"]}],
    "n": 1,
    "epsilon": "1.0",
    "n_prime": 2,
    "mode": "exact",
    "seed": 7,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigParsing:
    def test_decimal_strings(self, tmp_path):
        cfg = load_config(write_config(tmp_path, D2_CONFIG))
        assert cfg.setting.items[0].values == (1.0, 2.0)
        assert cfg.setting.epsilon == 1.0

    def test_plain_numbers_accepted(self, tmp_path):
        payload = {"items": [{"values": [1, 2], "probs": [0.5, 0.5]}], "n": 1, "n_prime": 2}
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.setting.n_prime == 2

    def test_default_n_prime_from_epsilon(self):
        payload = {"items": [{"values": ["1"], "probs": ["1"]}], "n": 2, "epsilon": "0.5"}
        cfg = parse_config(payload)
        assert cfg.setting.n_prime == 80  # ceil(20 * 2 / 0.5)

    def test_malformed_json_reports_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"items": [}')
        with pytest.raises(ConfigParseError, match="byte offset"):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            # an integer literal past Python's 4,300-digit int conversion limit
            '{"items": [{"values": ["1"], "probs": ["1"]}], "n": 1, "seed": ' + "9" * 5000 + "}",
            # nesting deeper than the decoder's recursion limit
            "[" * 200_000 + "]" * 200_000,
        ],
        ids=["long_integer", "deep_nesting"],
    )
    def test_json_the_decoder_refuses_is_a_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: malformed JSON: ")

    def test_missing_field(self):
        with pytest.raises(ConfigParseError, match="items"):
            parse_config({"n": 1})

    def test_bad_mode(self):
        payload = dict(D2_CONFIG, mode="approximate")
        with pytest.raises(ConfigParseError, match="mode"):
            parse_config(payload)

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"n": "abc"}, "^n: "),
            ({"n": 1.5}, "^n: "),
            ({"n_prime": "two"}, "^n_prime: "),
            ({"caps": {"product_support": "big"}}, "^caps.product_support: "),
            ({"caps": {"joint_terms": 2.5}}, "^caps.joint_terms: "),
            ({"caps": [1, 2]}, "^caps must"),
            ({"samples": "many"}, "^samples: "),
            ({"seed": "x"}, "^seed: "),
            ({"epsilon": "nan"}, "^epsilon: "),
            ({"epsilon": "inf"}, "^epsilon: "),
            ({"epsilon": 2}, "^epsilon must"),
            ({"tolerance": "nan"}, "^tolerance: "),
            ({"items": [{"values": ["inf", "2"], "probs": ["0.5", "0.5"]}]}, r"^items\[0\].values: "),
            ({"items": [{"values": ["1", "2"], "probs": ["nan", "0.5"]}]}, r"^items\[0\].probs: "),
            ({"items": [{"values": [10**400], "probs": [1]}]}, r"^items\[0\].values: "),
            ({"samples": 0}, "^samples must"),
            ({"n_prime": 1}, "^n_prime must"),
            ({"n": 3, "n_prime": 2}, "^n_prime must"),
            ({"tolerance": -1}, "^tolerance must"),
            # squared, 1e300 overflows binary64
            ({"items": [{"values": ["1", 1e300], "probs": ["0.5", "0.5"]}]}, r"^items\[0\].values: "),
            # counts binary64 cannot hold, which the order statistics raise CDFs to; null n_prime is derived
            ({"n": 10**400, "n_prime": None}, "^n: "),
            ({"epsilon": "1e-320", "n_prime": None}, "^n_prime: "),
            ({"n_prime": 10**400}, "^n_prime: "),
        ],
    )
    def test_bad_field_is_a_config_error(self, override, match):
        with pytest.raises(ConfigParseError, match=match):
            parse_config(dict(D2_CONFIG, **override))

    def test_integral_numbers_and_strings_accepted(self):
        cfg = parse_config(dict(D2_CONFIG, n=1.0, n_prime="3", seed="5", samples=10.0))
        assert (cfg.setting.n, cfg.setting.n_prime, cfg.seed, cfg.samples) == (1, 3, 5, 10)


# A valid config with up to two fields replaced by junk.  The LP stays tiny:
# n <= 2 and at most 4 valuations.  Huge numbers go into item values and
# probabilities, and huge integers into n, n_prime and seed: n or n_prime
# beyond the caps must be refused at once.  A huge samples count is valid
# input that asks for an astronomically long run, so it is left out.
# The containers are built afresh per draw: a shared {} could be filled with
# junk, or with itself, by a later field.
JUNK = (
    st.sampled_from([None, True, "nan", "inf", "-inf", "abc", "", "2.5", float("nan"), float("inf"), -1, 0])
    | st.builds(lambda: [1])
    | st.builds(dict)
)
JUNK_ATOM = JUNK | st.sampled_from([1e300, 1e-300, "1e999"])
JUNK_COUNT = JUNK | st.sampled_from([10**8, 1e300, str(10**40), str(10**400)])
_ITEM = st.lists(st.sampled_from(["0", "1", "2", "3.5", 7]), min_size=1, max_size=2, unique=True).flatmap(
    lambda values: st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)).map(
        lambda w: {"values": values, "probs": [x / sum(w) for x in w]}
    )
)
_CONFIG = st.fixed_dictionaries(
    {"items": st.lists(_ITEM, min_size=1, max_size=2), "n": st.integers(1, 2)},
    optional={
        "n_prime": st.integers(2, 4),
        "epsilon": st.sampled_from(["0.5", 1, 0.25]),
        "mode": st.sampled_from(["exact", "monte_carlo"]),
        "samples": st.integers(1, 50),
        "seed": st.integers(0, 9),
        "caps": st.fixed_dictionaries({}, optional={"product_support": st.integers(0, 8)}),
        "tolerance": st.sampled_from(["1e-9", 0.0]),
    },
)
_FIELDS = ("items", "n", "n_prime", "epsilon", "mode", "samples", "seed", "caps", "tolerance",
           "caps.product_support", "caps.joint_terms", "item", "item.values", "item.probs", "value", "prob")


@st.composite
def fuzzed_configs(draw):
    payload = draw(_CONFIG)
    for field in draw(st.lists(st.sampled_from(_FIELDS), max_size=2)):
        if field in ("value", "prob"):
            junk = draw(JUNK_ATOM)
        else:
            junk = draw(JUNK_COUNT if field in ("n", "n_prime", "seed") else JUNK)
        items = payload["items"] if isinstance(payload["items"], list) else [None]
        if field.startswith("caps.") and isinstance(payload.get("caps", {}), dict):
            payload["caps"] = dict(payload.get("caps", {}), **{field[5:]: junk})
        elif field == "item":
            items[0] = junk
        elif field.startswith("item.") and isinstance(items[0], dict):
            items[0][field[5:]] = junk
        elif field in ("value", "prob") and isinstance(items[0], dict) and isinstance(items[0].get(field + "s"), list):
            items[0][field + "s"][0] = junk
        elif "." not in field and field not in ("value", "prob", "item"):
            payload[field] = junk
    return payload


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=fuzzed_configs())
def test_fuzzed_config_gives_a_documented_exit_code(tmp_path, capsys, payload):
    code = main(["analyze", "--config", write_config(tmp_path, payload), "--format", "json"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CAPS, EXIT_LP, EXIT_CHECK_FAILED)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", str(CONFIGS / "two_point.json")],
        ["sweep", "--config", str(CONFIGS / "two_point.json"), "--n-prime-min", "1", "--n-prime-max", "2"],
        ["iron", "--config", str(CONFIGS / "two_point.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_2_in_one_line(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "missing" / "out.txt")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("cannot write --out: ") and err.count("\n") == 1


class TestGoldenReports:
    """The JSON report and exit code of every sample config, exact and Monte-Carlo, two table reports, and
    verify, sweep and iron runs, byte for byte."""

    @pytest.mark.parametrize(
        "name", ["two_point", "two_items", "irregular_three_point", "near_uniform_many_items", "fee_positive"]
    )
    def test_config_report(self, name, capsys):
        code = main(["analyze", "--config", str(CONFIGS / f"{name}.json"), "--format", "json"])
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
        assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]

    # fee_positive's five 5-atom items take the estimator's kernel through its factor tables
    @pytest.mark.parametrize(
        "name", ["two_point", "two_items", "irregular_three_point", "near_uniform_many_items", "fee_positive"]
    )
    def test_monte_carlo_report(self, name, capsys):
        argv = ["analyze", "--config", str(CONFIGS / f"{name}.json"), "--mode", "mc", "--samples", "20000"]
        code = main(argv + ["--format", "json"])
        assert capsys.readouterr().out == (GOLDEN / f"mc_{name}.json").read_text()
        assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[f"mc_{name}"]

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("verify_seed3_count50.txt", ["verify", "--seed", "3", "--count", "50"]),
            (
                "sweep_two_items.csv",
                ["sweep", "--config", str(CONFIGS / "two_items.json"), "--n-prime-min", "1", "--n-prime-max", "8"],
            ),
            (
                "iron_irregular_three_point.csv",
                ["iron", "--config", str(CONFIGS / "irregular_three_point.json"), "--format", "csv"],
            ),
            # an integer grid, where the most utility sums tie; bvcg_floor reaches 1.5e-15
            (
                "sweep_fee_positive.csv",
                ["sweep", "--config", str(CONFIGS / "fee_positive.json"), "--n-prime-min", "1", "--n-prime-max", "4"],
            ),
        ],
    )
    def test_command_stdout(self, name, argv, capsys):
        code = main(argv)
        # bytes, not read_text: the csv module ends sweep rows with \r\n
        assert capsys.readouterr().out == (GOLDEN / name).read_bytes().decode()
        assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[Path(name).stem]

    # stdout only: stderr's FAIL lines print full-precision reprs, which the README
    # promises to be bit-identical on the same platform alone
    @pytest.mark.parametrize("seed", range(10))
    def test_verify_stdout(self, seed, capsys):
        code = main(["verify", "--seed", str(seed), "--count", "100"])
        name = f"verify_seed{seed}_count100"
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
        assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]

    # two_items has FAIL rows, irregular_three_point an n/a row
    @pytest.mark.parametrize("name", ["two_items", "irregular_three_point"])
    def test_table_report(self, name, capsys):
        code = main(["analyze", "--config", str(CONFIGS / f"{name}.json"), "--format", "table"])
        assert capsys.readouterr().out == (GOLDEN / f"table_{name}.txt").read_text()
        assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[f"table_{name}"]


class TestHugeBidderCounts:
    """n or n' far beyond the caps is refused with exit 3 before any work scales with it."""

    @pytest.mark.parametrize(
        "override",
        [
            {"n": 1, "n_prime": 1e300},
            {"n": 10**8, "n_prime": 10**8},
            {"n": 1, "n_prime": 1e300, "mode": "monte_carlo", "samples": 10},
            {"n": 10**8, "n_prime": 10**8, "mode": "monte_carlo", "samples": 10},
        ],
    )
    def test_exit_3_at_once(self, tmp_path, capsys, override):
        path = write_config(tmp_path, dict(D2_CONFIG, **override))
        start = time.perf_counter()
        code = main(["analyze", "--config", path, "--format", "json"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_CAPS
        assert "Traceback" not in capsys.readouterr().err
        assert elapsed < 2.0


def test_exact_analyze_memory_at_the_in_cap_extreme():
    # one item of 4,096 equal-mass atoms at n' = 50: 4,096 valuations x 4,096 max
    # vectors is exactly caps.joint_terms; the region kernel's row blocks keep the
    # (valuations x atoms) temporaries, 128 MiB each unblocked, out of the peak
    payload = {
        "items": [{"values": list(range(1, 4097)), "probs": ["0.000244140625"] * 4096}],
        "n": 1,
        "n_prime": 50,
        "mode": "exact",
    }
    cfg = parse_config(payload)
    tracemalloc.start()
    try:
        run_analysis(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20


def test_wide_item_refused_in_linear_time(tmp_path):
    # one item of 65,536 equal-mass atoms: ironing it is one linear pass, so
    # exact analyze reaches the joint-terms refusal in well under a second
    atoms = 1 << 16
    payload = {"items": [{"values": list(range(1, atoms + 1)), "probs": [1 / atoms] * atoms}], "n": 1, "mode": "exact"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "auctionbench.cli", "analyze", "--config", write_config(tmp_path, payload)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_CAPS
    assert proc.stderr.startswith("enumeration cap: ")


class TestAnalyze:
    def test_exit_zero_and_values(self, tmp_path, capsys):
        code = main(["analyze", "--config", write_config(tmp_path, D2_CONFIG)])
        out = capsys.readouterr().out
        assert code == 0
        assert "iu_n" in out and "1.25" in out

    def test_json_report_schema(self, tmp_path):
        cfg = load_config(write_config(tmp_path, D2_CONFIG))
        rep = run_analysis(cfg)
        payload = json.loads(rep.to_json())
        assert payload["all_hold"] is True
        assert payload["scalars"]["iu_n"] == 1.25
        names = [c["name"] for c in payload["checks"]]
        assert len(names) == len(set(names)) or "reserve" in "".join(names)
        for check in payload["checks"]:
            assert {"name", "statement", "lhs", "rhs", "slack", "holds"} <= set(check)
        # round-trips losslessly
        assert json.loads(json.dumps(payload)) == payload

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG
        assert "byte offset" in capsys.readouterr().err

    def test_cap_exceeded_exit_3_names_monte_carlo(self, tmp_path, capsys):
        payload = dict(D2_CONFIG)
        payload["items"] = [{"values": ["1", "2"], "probs": ["0.5", "0.5"]}] * 13
        payload["n_prime"] = 2
        code = main(["analyze", "--config", write_config(tmp_path, payload)])
        err = capsys.readouterr().err
        assert code == EXIT_CAPS
        assert "monte_carlo" in err

    def test_cap_message_past_the_int_to_str_limit(self, tmp_path, capsys):
        # 2^15000 valuations x 2^15000 max vectors: the count has 9,031 digits, more than Python converts an int to
        path = write_config(tmp_path, dict(D2_CONFIG, items=D2_CONFIG["items"] * 15_000, samples=10))
        code = main(["analyze", "--config", path])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CAPS
        assert len(lines) == 2 and lines[1].startswith("hint: ")
        assert lines[0].startswith("enumeration cap: valuations x max-vectors = about 2^30000 exceeds cap ")
        # Monte-Carlo mode is refused per sample, at the n' = 2 estimate it runs first:
        # 2 bidders x 15,000 items x 15,000 items x 2 atoms region-kernel cells
        code = main(["analyze", "--config", path, "--mode", "mc"])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CAPS
        assert len(lines) == 2 and lines[1].startswith("hint: ")
        assert lines[0] == "enumeration cap: 900000000 region-kernel cells per sample exceed cap 16777216"

    @pytest.mark.parametrize("items, n, n_prime, samples", [(13, 1, 2, 2000), (64, 8, 8, 200)])
    def test_monte_carlo_past_the_product_support_cap(self, tmp_path, capsys, items, n, n_prime, samples):
        # 2^13 and 2^64 valuations, over caps.product_support (4,096): Monte-Carlo mode never
        # enumerates them, and its region-kernel cells per sample are within caps.joint_terms
        payload = dict(D2_CONFIG, items=D2_CONFIG["items"] * items, n=n, n_prime=n_prime, mode="monte_carlo",
                       samples=samples)
        code = main(["analyze", "--config", write_config(tmp_path, payload), "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        scalars = json.loads(captured.out)["scalars"]
        assert scalars["m"] == items and scalars["iu_n_estimate"] > 0

    def test_lp_over_the_tableau_cap_reports_null_revenue(self, tmp_path, capsys):
        item = {"values": [str(v) for v in range(1, 17)], "probs": ["0.0625"] * 16}
        payload = {"items": [item, item], "n": 1, "n_prime": 2}
        code = main(["analyze", "--config", write_config(tmp_path, payload), "--format", "json"])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert json.loads(captured.out)["scalars"]["rev_n"] is None
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("n", [64, 1000])
    def test_one_atom_lp_past_64_bidders(self, tmp_path, capsys, n):
        # one valuation keeps the LP in both caps, but its profiles have n digits
        payload = {"items": [{"values": [1], "probs": [1]}], "n": n, "n_prime": n}
        code = main(["analyze", "--config", write_config(tmp_path, payload), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scalars"]["rev_n"] == 1.0

    def test_two_bidder_lp_matches_the_full_reference_lp(self, tmp_path, capsys):
        # the sample configs all have n = 1; this one reaches the n >= 2 LP
        payload = dict(json.loads((CONFIGS / "two_items.json").read_text()), n=2, n_prime=3)
        code = main(["analyze", "--config", write_config(tmp_path, payload), "--format", "json"])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        c, a_ub, b_ub = reference_mechanism_lp(parse_config(payload).setting, 2)
        want = lp_solve(c, a_ub, b_ub).objective
        assert json.loads(capsys.readouterr().out)["scalars"]["rev_n"] == pytest.approx(want, rel=1e-9, abs=0)

    def test_every_record_is_judged_at_the_configured_tolerance(self, tmp_path, capsys):
        # {1, 100}: bulow_klemperer (50 vs 25.75) and chain_g_bk (75 vs 50.5)
        # both fail at the default tolerance and both hold at 0.6
        payload = {"items": [{"values": ["1", "100"], "probs": ["0.5", "0.5"]}], "n": 1, "n_prime": 2, "tolerance": 0.6}
        code = main(["analyze", "--config", write_config(tmp_path, payload), "--format", "json"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert {"bulow_klemperer", "chain_g_bk"} <= set(checks)
        for check in checks.values():
            if check["holds"] is not None:
                assert check["holds"] == holds_leq(check["lhs"], check["rhs"], 0.6), check["name"]
        assert code == EXIT_OK

    def test_monte_carlo_mode(self, tmp_path, capsys):
        payload = dict(D2_CONFIG, mode="monte_carlo", samples=20000)
        code = main(["analyze", "--config", write_config(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        assert "iu_n_estimate" in out

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
    def test_tolerance_flag_must_be_finite_and_non_negative(self, tmp_path, capsys, command, value):
        argv = ["--config", write_config(tmp_path, D2_CONFIG)] if command == "analyze" else ["--count", "1"]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, f"--tolerance={value}"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--tolerance" in err and "Traceback" not in err

    def test_samples_flag_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--config", write_config(tmp_path, D2_CONFIG), "--samples", "0"])
        assert exc.value.code == EXIT_CONFIG

    def test_out_file_json(self, tmp_path):
        out_path = tmp_path / "report.json"
        main(["analyze", "--config", write_config(tmp_path, D2_CONFIG), "--out", str(out_path)])
        payload = json.loads(out_path.read_text())
        assert payload["scalars"]["srev_n_prime"] == 1.5


class TestIronCommand:
    def test_d2_rows(self, tmp_path, capsys):
        assert main(["iron", "--config", write_config(tmp_path, D2_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "regular" in out and "True" in out

    def test_past_the_product_support_cap(self, tmp_path, capsys):
        # 13 binary items, 2^13 valuations: ironing is per item and enumerates no product
        payload = dict(D2_CONFIG, items=D2_CONFIG["items"] * 13)
        assert main(["iron", "--config", write_config(tmp_path, payload), "--format", "csv"]) == EXIT_OK
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1 + 2 * 13 and captured.err == ""

    def test_csv_d3(self, tmp_path, capsys):
        payload = dict(D2_CONFIG, items=[{"values": ["4", "5", "10"], "probs": ["0.6", "0.2", "0.2"]}])
        main(["iron", "--config", write_config(tmp_path, payload), "--format", "csv"])
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["phi_tilde"]) for r in rows] == pytest.approx([2.5, 2.5, 10.0])
        assert rows[0]["regular"] == "False"


class TestSweep:
    def test_rows_and_monotone_vcg(self, tmp_path, capsys):
        main(
            [
                "sweep",
                "--config",
                write_config(tmp_path, D2_CONFIG),
                "--n-prime-min",
                "2",
                "--n-prime-max",
                "6",
            ]
        )
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        vcg = [float(r["vcg"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(vcg, vcg[1:]))

    def test_empty_range_header_only(self, tmp_path, capsys):
        main(
            [
                "sweep",
                "--config",
                write_config(tmp_path, D2_CONFIG),
                "--n-prime-min",
                "5",
                "--n-prime-max",
                "4",
            ]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("n_prime")

    def test_refused_before_the_utility_statistics(self, tmp_path, monkeypatch, capsys):
        # two items of 128 equal-mass atoms at n' = 2: 2^14 valuations x 2^14 max
        # vectors pass caps.joint_terms, so the Instance refuses before either table
        item = {"values": list(range(1, 129)), "probs": ["0.0078125"] * 128}
        payload = {"items": [item, item], "n": 1, "n_prime": 2, "caps": {"product_support": 1 << 15}}
        calls = _count_calls(monkeypatch, "decomposition", "build_utility_stats")
        argv = ["sweep", "--config", write_config(tmp_path, payload), "--n-prime-min", "2", "--n-prime-max", "2"]
        assert main(argv) == EXIT_CAPS
        assert calls == []
        assert capsys.readouterr().err.startswith("enumeration cap: valuations x max-vectors = ")

    def test_row_cap_refused_before_any_instance(self, tmp_path, monkeypatch, capsys):
        # n' = 2 .. 10^12 would build 10^12 - 1 rows, an Instance each; past SWEEP_ROWS
        # the range is refused in one line plus a hint that names the n' flags.  The spy
        # fails on the first Instance, so an unbounded sweep fails here rather than hangs
        def no_instance(*args, **kwargs):
            raise AssertionError("sweep built an Instance past its row cap")

        monkeypatch.setattr(importlib.import_module("auctionbench.cli"), "Instance", no_instance)
        path = write_config(tmp_path, D2_CONFIG)
        argv = ["sweep", "--config", path, "--n-prime-min", "2", "--n-prime-max", str(10**12)]
        assert main(argv) == EXIT_CAPS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"enumeration cap: sweep rows = {10**12 - 1} exceeds cap {SWEEP_ROWS}",
            f"hint: narrow --n-prime-min .. --n-prime-max to at most {SWEEP_ROWS} rows, one per n' >= n",
        ]
        # rows start at n' = n: 1 .. SWEEP_ROWS + 1 at n = 2 is SWEEP_ROWS rows, one more is refused
        payload = dict(D2_CONFIG, n=2)
        path = write_config(tmp_path, payload)
        assert main(["sweep", "--config", path, "--n-prime-min", "1", "--n-prime-max", str(SWEEP_ROWS + 2)]) == EXIT_CAPS
        with pytest.raises(AssertionError, match="past its row cap"):
            main(["sweep", "--config", path, "--n-prime-min", "1", "--n-prime-max", str(SWEEP_ROWS + 1)])

    @pytest.mark.parametrize(
        "lo, hi, size",
        [(10**400, 10**400, "2^1328"), (2**1024, 2**1024, "2^1024"), (2**1024, 2, "2^1024")],
        ids=["10^400", "2^1024", "2^1024-to-2"],
    )
    def test_bidder_flags_past_binary64_exit_2_in_one_line(self, tmp_path, capsys, lo, hi, size):
        # the config's count rule: the order statistics raise CDFs to n'
        argv = ["sweep", "--config", write_config(tmp_path, D2_CONFIG), "--n-prime-min", str(lo), "--n-prime-max", str(hi)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: --n-prime-min: about {size} exceeds the largest binary64, {sys.float_info.max!r}"
        ]


class TestVerifyCommand:
    def test_deterministic_output(self, capsys):
        args = ["verify", "--seed", "3", "--count", "5", "--max-ghosts", "4"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_summary_rows_agree_with_the_records(self, capsys):
        # at tolerance 0 some iron_dominated and tie_break slacks are about
        # -1e-15, but those records are judged at 1e-12 and hold
        code = main(["verify", "--seed", "3", "--count", "50", "--tolerance", "0"])
        captured = capsys.readouterr()
        failed = {line.split()[1].rstrip(":").split("_item_")[0] for line in captured.err.splitlines()}
        rows = {fields[0]: fields[-1] for fields in map(str.split, captured.out.splitlines()[1:-1])}
        assert {name for name, verdict in rows.items() if verdict == "FAIL"} == failed
        assert rows["iron_dominated"] == rows["tie_break"] == "ok"
        assert code == EXIT_CHECK_FAILED

    def test_zero_count(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "0"]) == 0

    def test_refused_before_every_item_is_drawn(self, monkeypatch, capsys):
        # up to 10^5 items at up to 3 atoms each: the product support passes the cap
        # (4,096) after a few dozen items, and random_setting stops drawing there
        calls = _count_calls(monkeypatch, "generators", "random_item")
        assert main(["verify", "--seed", "1", "--count", "2", "--max-items", str(10**5)]) == EXIT_CAPS
        assert 0 < len(calls) < 100
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("enumeration cap: ")
        assert lines[1] == "hint: lower --max-items, --max-support or --max-ghosts"
        # n' up to 10^12 ghosts: the n' x items posted prices pass caps.joint_terms, and the hint names the flag
        assert main(["verify", "--seed", "1", "--count", "2", "--max-ghosts", str(10**12)]) == EXIT_CAPS
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("enumeration cap: n' x items = ")
        assert lines[1] == "hint: lower --max-items, --max-support or --max-ghosts"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-support", "0"],
            ["--max-items", "0"],
            ["--max-bidders", "0"],
            ["--max-ghosts", "0"],
            ["--max-ghosts", "1"],  # below the default --max-bidders 2
            ["--max-support", "20"],  # the value grid 0..12 has 13 points
            ["--count", "-2"],
            # numpy draws the generators' integers in int64
            ["--max-items", str(2**63)],
            ["--max-bidders", str(2**63), "--max-ghosts", str(2**64)],
            ["--max-ghosts", str(2**63)],
        ],
    )
    def test_bad_generator_flags_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1", "--count", "1", *flags])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_generator_flags_at_the_int64_limit_run(self, capsys):
        # 2^63 - 1 is the largest bound numpy draws below; the settings it draws pass the caps
        limit = str(2**63 - 1)
        assert main(["verify", "--count", "1", "--max-items", limit, "--max-bidders", limit, "--max-ghosts", limit]) == EXIT_CAPS
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("enumeration cap: ") and lines[1].startswith("hint: ")


def _count_calls(monkeypatch, module, name):
    """Count calls of auctionbench.<module>.<name> from every auctionbench namespace that holds it."""
    original = getattr(importlib.import_module(f"auctionbench.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "auctionbench" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestOneBuildPerCommand:
    """Each exact analyze and each verify setting builds its tables once."""

    def _counters(self, monkeypatch):
        return {
            "build_iu_tables": _count_calls(monkeypatch, "iu", "build_iu_tables"),
            "build_utility_stats": _count_calls(monkeypatch, "decomposition", "build_utility_stats"),
            "lemma_chain_check": _count_calls(monkeypatch, "decomposition", "lemma_chain_check"),
            "optimal_revenue": _count_calls(monkeypatch, "lp", "optimal_revenue"),
            "iron": _count_calls(monkeypatch, "myerson", "iron"),
            "max_vector_distribution": _count_calls(monkeypatch, "dist", "max_vector_distribution"),
            "ronen_bound_from_law": _count_calls(monkeypatch, "simple_auctions", "ronen_bound_from_law"),
        }

    def test_exact_analyze(self, monkeypatch, capsys):
        calls = self._counters(monkeypatch)
        srev_calls = _count_calls(monkeypatch, "myerson", "srev")
        code = main(["analyze", "--config", str(CONFIGS / "two_items.json"), "--format", "json"])
        assert code == EXIT_CHECK_FAILED  # chain_g_bk is a known discrete counterexample
        # SRev(n') for the chain and the shared checks, SRev(n) for Bulow-Klemperer
        assert len(srev_calls) == 2
        counts = {name: len(c) for name, c in calls.items()}
        assert counts.pop("iron") == 2  # one per item
        assert counts.pop("max_vector_distribution") == 1  # the Instance's ghost law, reused by the checks
        assert counts == {name: 1 for name in counts}

    def test_verify_once_per_setting(self, monkeypatch, capsys):
        calls = self._counters(monkeypatch)
        srev_calls = _count_calls(monkeypatch, "myerson", "srev")
        main(["verify", "--seed", "3", "--count", "3"])
        # SRev(n') for the chain and the shared checks, SRev(n) for Bulow-Klemperer
        assert len(srev_calls) == 2 * 3
        for name in ("build_iu_tables", "build_utility_stats", "lemma_chain_check", "ronen_bound_from_law"):
            assert len(calls[name]) == 3, name
            assert len({id(args[0]) for args in calls[name]}) == 3, name
        # one ironing per item: the three settings hold five items
        assert len(calls["iron"]) == len({id(args[0]) for args in calls["iron"]}) == 5
        assert len(calls["max_vector_distribution"]) == 3

    def test_one_kernel_pass_per_instance(self, monkeypatch):
        # the IU tables are the kernel's one exact caller: one pass over the product grid per Instance
        kernel = _count_calls(monkeypatch, "iu", "region_kernel")
        instances = []
        post_init = Instance.__post_init__

        def counted(inst):
            instances.append(inst)
            post_init(inst)

        monkeypatch.setattr(Instance, "__post_init__", counted)
        exact = [cfg for cfg in map(load_config, sorted(CONFIGS.glob("*.json"))) if cfg.mode == "exact"]
        assert len(exact) == 4
        for cfg in exact:
            run_analysis(cfg)
            assert len(instances) == len(kernel) == 1, cfg.setting
            instances.clear()
            kernel.clear()
        rng = make_rng(29)
        for _ in range(20):
            _verify_suites(random_setting(rng), rng, CHECK_TOL)
            assert len(instances) == len(kernel) == 1
            instances.clear()
            kernel.clear()
