"""Config ingestion, subcommand behavior, report schema, and exit codes."""

import csv
import importlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctionbench.cli import (
    EXIT_CAPS,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_LP,
    EXIT_OK,
    load_config,
    main,
    parse_config,
    run_analysis,
)
from auctionbench.errors import ConfigParseError

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
JUNK = st.sampled_from([None, True, "nan", "inf", "-inf", "abc", "", "2.5", float("nan"), float("inf"), -1, 0, [1], {}])
JUNK_ATOM = JUNK | st.sampled_from([1e300, 1e-300, "1e999"])
JUNK_COUNT = JUNK | st.sampled_from([10**8, 1e300, str(10**40)])
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
        elif field in ("value", "prob") and isinstance(items[0], dict) and isinstance(items[0][field + "s"], list):
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


class TestGoldenReports:
    """The JSON report and exit code of every sample config, byte for byte."""

    @pytest.mark.parametrize("name", ["two_point", "two_items", "irregular_three_point", "near_uniform_many_items"])
    def test_config_report(self, name, capsys):
        code = main(["analyze", "--config", str(CONFIGS / f"{name}.json"), "--format", "json"])
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
        assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


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

    def test_monte_carlo_mode(self, tmp_path, capsys):
        payload = dict(D2_CONFIG, mode="monte_carlo", samples=20000)
        code = main(["analyze", "--config", write_config(tmp_path, payload)])
        out = capsys.readouterr().out
        assert code == 0
        assert "iu_n_estimate" in out

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


class TestVerifyCommand:
    def test_deterministic_output(self, capsys):
        args = ["verify", "--seed", "3", "--count", "5", "--max-ghosts", "4"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_zero_count(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "0"]) == 0


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
        }

    def test_exact_analyze(self, monkeypatch, capsys):
        calls = self._counters(monkeypatch)
        code = main(["analyze", "--config", str(CONFIGS / "two_items.json"), "--format", "json"])
        assert code == EXIT_CHECK_FAILED  # chain_g_bk is a known discrete counterexample
        assert {name: len(c) for name, c in calls.items()} == {name: 1 for name in calls}

    def test_verify_once_per_setting(self, monkeypatch, capsys):
        calls = self._counters(monkeypatch)
        main(["verify", "--seed", "3", "--count", "3"])
        for name in ("build_iu_tables", "build_utility_stats", "lemma_chain_check"):
            assert len(calls[name]) == 3, name
            assert len({id(args[0]) for args in calls[name]}) == 3, name
