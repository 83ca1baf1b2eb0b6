"""Command line interface: config ingestion, dispatch, report emission.

Exit codes: 0 all checks hold, 2 config error, 3 enumeration cap, 4 LP error,
5 at least one check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomposition import (
    build_utility_stats,
    bvcg_constructed_revenue,
    lemma_chain_check,
    main_theorem_verdict,
    pi_bvcg_constructed_revenue,
)
from .dist import (
    AuctionSetting,
    Caps,
    CHECK_TOL,
    DEFAULT_CAPS,
    make_item_distribution,
    make_rng,
)
from .errors import (
    AuctionBenchError,
    ConfigParseError,
    EnumerationCapExceeded,
    InstanceTooLarge,
    LPNumericalFailure,
    MaxIterations,
    Unbounded,
)
from .generators import random_setting
from .iu import build_iu_tables, iu, monte_carlo_iu, step2_inequality_check, tie_break_independence_check
from .myerson import all_regular, iron, srev, srev_item, virtual_values
from .report import AnalysisReport, CheckRecord
from .simple_auctions import (
    bulow_klemperer_check,
    ronen_bound,
    sequential_posted_price_bound,
    vcg_revenue,
    vcg_with_reserve_bound,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPS = 3
EXIT_LP = 4
EXIT_CHECK_FAILED = 5


def _decimal(x, what: str) -> float:
    """Parse a decimal-string (or plain number) config field to a finite binary64."""
    if isinstance(x, bool):
        raise ConfigParseError(f"{what}: expected a number, got a bool")
    if not isinstance(x, (int, float, str)):
        raise ConfigParseError(f"{what}: expected a number or decimal string, got {type(x).__name__}")
    try:
        value = float(x)
    except (ValueError, OverflowError) as exc:
        raise ConfigParseError(f"{what}: cannot parse {x!r} as a number") from exc
    if not math.isfinite(value):
        raise ConfigParseError(f"{what}: {x!r} is not a finite number")
    return value


def _integer(x, what: str) -> int:
    """Parse an integer config field: an integer, an integral number or an integer string."""
    if isinstance(x, bool):
        raise ConfigParseError(f"{what}: expected an integer, got a bool")
    if isinstance(x, int):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError as exc:
            raise ConfigParseError(f"{what}: cannot parse {x!r} as an integer") from exc
    raise ConfigParseError(f"{what}: expected an integer, got {x!r}")


@dataclass
class InstanceConfig:
    setting: AuctionSetting
    mode: str
    samples: int
    seed: int
    tolerance: float


def load_config(path: str | Path) -> InstanceConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> InstanceConfig:
    if not isinstance(raw, dict):
        raise ConfigParseError("config must be a JSON object")
    try:
        items_raw = raw["items"]
        n = _integer(raw["n"], "n")
    except KeyError as exc:
        raise ConfigParseError(f"missing required field {exc.args[0]!r}") from exc
    if not isinstance(items_raw, list) or not items_raw:
        raise ConfigParseError("items must be a non-empty list")
    epsilon = _decimal(raw.get("epsilon", 1.0), "epsilon")
    if not 0.0 < epsilon <= 1.0:
        raise ConfigParseError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    n_prime = raw.get("n_prime")
    n_prime = math.ceil(20.0 * n / epsilon) if n_prime is None else _integer(n_prime, "n_prime")
    if n_prime < max(n, 2):
        raise ConfigParseError(f"n_prime must be at least max(n, 2), got n_prime={n_prime}, n={n}")
    caps_raw = raw.get("caps", {})
    if not isinstance(caps_raw, dict):
        raise ConfigParseError("caps must be an object")
    caps = Caps(
        product_support=_integer(
            caps_raw.get("product_support", DEFAULT_CAPS.product_support), "caps.product_support"
        ),
        joint_terms=_integer(caps_raw.get("joint_terms", DEFAULT_CAPS.joint_terms), "caps.joint_terms"),
    )
    items = []
    for k, entry in enumerate(items_raw):
        try:
            values = [_decimal(v, f"items[{k}].values") for v in entry["values"]]
            probs = [_decimal(p, f"items[{k}].probs") for p in entry["probs"]]
        except (KeyError, TypeError) as exc:
            raise ConfigParseError(f"items[{k}] must have 'values' and 'probs' lists") from exc
        try:
            items.append(make_item_distribution(values, probs))
        except AuctionBenchError as exc:
            raise ConfigParseError(f"items[{k}]: {exc}") from exc
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "monte_carlo"):
        raise ConfigParseError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")
    try:
        setting = AuctionSetting(items=tuple(items), n=n, n_prime=n_prime, epsilon=epsilon, caps=caps)
    except EnumerationCapExceeded:
        raise
    except AuctionBenchError as exc:
        raise ConfigParseError(str(exc)) from exc
    samples = _integer(raw.get("samples", 100_000), "samples")
    if samples < 1:
        raise ConfigParseError(f"samples must be >= 1, got {samples}")
    return InstanceConfig(
        setting=setting,
        mode=mode,
        samples=samples,
        seed=_integer(raw.get("seed", 0), "seed"),
        tolerance=_decimal(raw.get("tolerance", CHECK_TOL), "tolerance"),
    )


def _posted_prices(setting: AuctionSetting, rng: np.random.Generator) -> np.ndarray:
    """n' x m random support prices for the sequential posted-price check, within caps.joint_terms."""
    cells = setting.n_prime * setting.m
    if cells > setting.caps.joint_terms:
        raise EnumerationCapExceeded(f"n' x items = {cells} posted prices exceed cap {setting.caps.joint_terms}")
    return np.array(
        [[item.values[int(rng.integers(len(item.values)))] for item in setting.items] for _ in range(setting.n_prime)]
    )


def run_analysis(cfg: InstanceConfig) -> AnalysisReport:
    setting = cfg.setting
    n, np_ = setting.n, setting.n_prime
    tol = cfg.tolerance
    rep = AnalysisReport()
    rep.scalars["n"] = n
    rep.scalars["n_prime"] = np_
    rep.scalars["epsilon"] = setting.epsilon
    rep.scalars["m"] = setting.m
    rep.scalars["srev_n"] = srev(setting, n)
    rep.scalars["srev_n_prime"] = srev(setting, np_)
    rep.scalars["vcg_n"] = vcg_revenue(setting, n) if n >= 2 else None
    rep.scalars["vcg_n_prime"] = vcg_revenue(setting, np_) if np_ >= 2 else None
    rep.scalars["regular"] = all_regular(setting)

    if cfg.mode == "monte_carlo":
        est_n = monte_carlo_iu(setting, n, np_, cfg.samples, cfg.seed)
        est_np = monte_carlo_iu(setting, np_, np_, cfg.samples, cfg.seed + 1)
        rep.scalars["iu_n_estimate"] = est_n.estimate
        rep.scalars["iu_n_std_error"] = est_n.std_error
        rep.scalars["iu_n_prime_estimate"] = est_np.estimate
        rep.scalars["iu_n_prime_std_error"] = est_np.std_error
        if np_ >= 2:
            lhs = est_n.estimate
            rhs = (n / np_) * est_np.estimate + vcg_revenue(setting, np_)
            fuzz = 4.0 * ((est_n.std_error or 0.0) + (est_np.std_error or 0.0))
            rep.add(
                CheckRecord.leq(
                    "step2_mc",
                    "IU(n,n') <= (n/n')*IU(n',n') + VCG(n') (MC, 4 sigma fuzz)",
                    lhs,
                    rhs + fuzz,
                    tol,
                )
            )
        return rep

    tables = build_iu_tables(setting, np_)
    rep.scalars["iu_n"] = iu(setting, n, np_, tables)
    rep.scalars["iu_n_prime"] = iu(setting, np_, np_, tables)

    if np_ >= 2:
        s2 = step2_inequality_check(setting, n, np_, tol, tables)
        rep.add(CheckRecord.leq("step2", "IU(n,n') <= (n/n')*IU(n',n') + VCG(n')", s2.lhs, s2.rhs, tol))

    rep.add(
        CheckRecord.leq(
            "ronen_le_srev", "RonenBound(n') <= SRev(n')", ronen_bound(setting, np_), rep.scalars["srev_n_prime"], tol
        )
    )
    for j, item in enumerate(setting.items):
        worst = None
        for x in (0.0,) + item.values:
            lhs = vcg_with_reserve_bound(setting, j, x, np_)
            rhs = srev_item(item, np_)
            if worst is None or (rhs - lhs) < (worst[1] - worst[0]):
                worst = (lhs, rhs)
        assert worst is not None
        rep.add(
            CheckRecord.leq(
                f"reserve_le_srev_item_{j}",
                "max over reserves of x*Pr(max >= x) <= SRev_j(n')",
                worst[0],
                worst[1],
                tol,
            )
        )
    prices = _posted_prices(setting, make_rng(cfg.seed, 3))
    rep.add(
        CheckRecord.leq(
            "spp_le_srev",
            "SeqPostedPrice(n') <= SRev(n')",
            sequential_posted_price_bound(setting, prices, np_),
            rep.scalars["srev_n_prime"],
            tol,
        )
    )
    bk = bulow_klemperer_check(setting, n)
    rep.add(CheckRecord("bulow_klemperer", "SRev(n) <= VCG(n+1) (regular items)", bk.srev_n, bk.vcg_n1, bk.holds))

    verdict = main_theorem_verdict(setting, n, setting.epsilon, np_, tol=tol, iu_tables=tables)
    chain = verdict.chain
    rep.scalars["single"] = chain.single
    rep.scalars["under"] = chain.under
    rep.scalars["over"] = chain.over
    rep.scalars["tail"] = chain.tail
    rep.scalars["core"] = chain.core
    rep.scalars["fee_mass"] = chain.fee_mass
    rep.scalars["bvcg_floor"] = chain.participation_lb
    rep.scalars["pi_bvcg_floor"] = chain.pi_bvcg_floor if chain.regular_branch else None
    rep.checks.extend(chain.checks)
    rep.scalars["rev_n"] = verdict.rev_n
    rep.scalars["branch1_holds"] = verdict.branch1_holds
    rep.scalars["branch2_holds"] = verdict.branch2_holds
    rep.checks.extend(verdict.checks)
    if verdict.holds is not None:
        rep.add(
            CheckRecord(
                "theorem_dichotomy",
                "branch1 or branch2 holds",
                0.0,
                1.0 if verdict.holds else 0.0,
                verdict.holds,
            )
        )
    return rep


def _format_table(rep: AnalysisReport) -> str:
    lines = ["== scalars =="]
    for key, value in sorted(rep.scalars.items()):
        lines.append(f"  {key:24s} {value if value is not None else '-'}")
    lines.append("== checks ==")
    lines.append(f"  {'name':28s} {'lhs':>14s} {'rhs':>14s} {'slack':>12s}  verdict")
    for c in rep.checks:
        verdict = "n/a" if c.holds is None else ("ok" if c.holds else "FAIL")
        lines.append(f"  {c.name:28s} {c.lhs:14.8g} {c.rhs:14.8g} {c.slack:12.4g}  {verdict}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    if args.mode is not None:
        cfg.mode = "monte_carlo" if args.mode == "mc" else args.mode
    if args.seed is not None:
        cfg.seed = args.seed
    if args.samples is not None:
        cfg.samples = args.samples
    if args.tolerance is not None:
        cfg.tolerance = args.tolerance
    rep = run_analysis(cfg)
    if args.format == "json":
        output = rep.to_json()
    else:
        output = _format_table(rep)
    if args.out:
        Path(args.out).write_text(rep.to_json() + "\n")
    print(output)
    return EXIT_OK if rep.all_hold() else EXIT_CHECK_FAILED


def cmd_iron(args) -> int:
    cfg = load_config(args.config)
    rows = []
    for j, item in enumerate(cfg.setting.items):
        table = iron(item)
        phi = virtual_values(item)
        for value, p, pt in zip(item.values, phi, table.phi_tilde):
            rows.append((j, value, p, pt, table.regular))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["item", "value", "phi", "phi_tilde", "regular"])
        writer.writerows(rows)
        output = buf.getvalue().rstrip("\n")
    else:
        lines = [f"  {'item':>4s} {'value':>10s} {'phi':>12s} {'phi_tilde':>12s}  regular"]
        for j, value, p, pt, reg in rows:
            lines.append(f"  {j:4d} {value:10.6g} {p:12.6g} {pt:12.6g}  {reg}")
        output = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(output + "\n")
    print(output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    setting = cfg.setting
    lo, hi = args.n_prime_min, args.n_prime_max
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n_prime", "vcg", "srev", "iu_n_nprime", "iu_nprime_nprime", "bvcg_floor", "pi_bvcg_floor"]
    )
    for np_ in range(lo, hi + 1):
        if np_ < setting.n:
            continue
        tables = build_iu_tables(setting, np_)
        stats = build_utility_stats(setting, np_)
        _, participation = bvcg_constructed_revenue(setting, np_, stats)
        pi_lb, _ = pi_bvcg_constructed_revenue(setting, np_, stats)
        writer.writerow(
            [
                np_,
                f"{vcg_revenue(setting, np_):.12g}" if np_ >= 2 else "",
                f"{srev(setting, np_):.12g}",
                f"{iu(setting, setting.n, np_, tables):.12g}",
                f"{iu(setting, np_, np_, tables):.12g}",
                f"{participation:.12g}",
                f"{max(pi_lb, vcg_revenue(setting, np_ + 1)):.12g}",
            ]
        )
    output = buf.getvalue().rstrip("\n")
    if args.out:
        Path(args.out).write_text(output + "\n")
    print(output)
    return EXIT_OK


def _verify_suites(setting: AuctionSetting, rng: np.random.Generator, tol: float) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    n, np_ = setting.n, setting.n_prime
    srev_np = srev(setting, np_)
    for j, item in enumerate(setting.items):
        table = iron(item)
        worst_mono = min(
            (b - a for a, b in zip(table.phi_tilde, table.phi_tilde[1:])), default=0.0
        )
        checks.append(CheckRecord.leq("iron_monotone", "phi_tilde non-decreasing", -worst_mono, 0.0, 1e-12))
        worst_dom = max(pt - v for v, pt in zip(item.values, table.phi_tilde))
        checks.append(CheckRecord.leq("iron_dominated", "phi_tilde <= value", worst_dom, 0.0, 1e-12))
        mean_phi = sum(p * f for p, f in zip(table.phi, item.probs))
        mean_tilde = sum(p * f for p, f in zip(table.phi_tilde, item.probs))
        checks.append(
            CheckRecord.leq("iron_mean", "mean(phi_tilde) == mean(phi)", abs(mean_phi - mean_tilde), 0.0, 1e-12)
        )
    checks.append(CheckRecord.leq("ronen_le_srev", "RonenBound <= SRev", ronen_bound(setting, np_), srev_np, tol))
    prices = _posted_prices(setting, rng)
    checks.append(
        CheckRecord.leq(
            "spp_le_srev", "SeqPostedPrice <= SRev", sequential_posted_price_bound(setting, prices, np_), srev_np, tol
        )
    )
    for j, item in enumerate(setting.items):
        lhs = max(vcg_with_reserve_bound(setting, j, x, np_) for x in (0.0,) + item.values)
        checks.append(CheckRecord.leq("reserve_le_srev", "ReserveBound <= SRev_j", lhs, srev_item(item, np_), tol))
    tables = build_iu_tables(setting, np_)
    stats = build_utility_stats(setting, np_)
    if np_ >= 2:
        checks.append(
            CheckRecord.leq("vcg_le_srev", "VCG(n') <= SRev(n')", vcg_revenue(setting, np_), srev_np, tol)
        )
        s2 = step2_inequality_check(setting, n, np_, tol, tables)
        checks.append(CheckRecord.leq("step2", "IU growth inequality", s2.lhs, s2.rhs, tol))
    chain = lemma_chain_check(setting, n, np_, tol=tol, iu_tables=tables, stats=stats)
    checks.extend(chain.checks)
    worst = 0.0
    for st in stats:
        worst = max(worst, st.var_u_hat - 2.0 * st.r_ron_total**2)
    checks.append(CheckRecord.leq("capped_variance", "Var(U_hat) <= 2 r^2", worst, 0.0, tol))
    deviation = max(tie_break_independence_check(item, 3) for item in setting.items)
    checks.append(
        CheckRecord.leq("tie_break", "max winner-conditioned deviation == 0", deviation, 0.0, 1e-12)
    )
    bk = bulow_klemperer_check(setting, n)
    checks.append(CheckRecord("bulow_klemperer", "SRev(n) <= VCG(n+1) (regular)", bk.srev_n, bk.vcg_n1, bk.holds))
    return checks


def cmd_verify(args) -> int:
    rng = make_rng(args.seed)
    summary: dict[str, list[float]] = {}
    failures = 0
    for _ in range(args.count):
        setting = random_setting(
            rng,
            max_items=args.max_items,
            max_support=args.max_support,
            max_bidders=args.max_bidders,
            max_ghosts=args.max_ghosts,
        )
        for check in _verify_suites(setting, rng, args.tolerance):
            if check.holds is None:
                continue
            summary.setdefault(f"{check.name}", []).append(check.slack)
            if not check.holds:
                failures += 1
                print(
                    f"FAIL {check.name}: {check.statement} lhs={check.lhs!r} rhs={check.rhs!r}",
                    file=sys.stderr,
                )
    print(f"  {'check':28s} {'runs':>6s} {'worst slack':>14s}  verdict")
    for name, slacks in sorted(summary.items()):
        worst = min(slacks)
        verdict = "ok" if worst >= -args.tolerance * max(1.0, abs(worst)) else "FAIL"
        print(f"  {name:28s} {len(slacks):6d} {worst:14.6g}  {verdict}")
    print(f"settings: {args.count}, failures: {failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auctionbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline on a config")
    p_analyze.add_argument("--config", required=True)
    p_analyze.add_argument("--format", choices=["table", "json"], default="table")
    p_analyze.add_argument("--out", default=None, help="also write the JSON report here")
    p_analyze.add_argument("--mode", choices=["exact", "mc"], default=None, help="override the config mode")
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.add_argument("--samples", type=_positive_int, default=None)
    p_analyze.add_argument("--tolerance", type=float, default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_iron = sub.add_parser("iron", help="print virtual value tables per item")
    p_iron.add_argument("--config", required=True)
    p_iron.add_argument("--format", choices=["table", "csv"], default="table")
    p_iron.add_argument("--out", default=None)
    p_iron.set_defaults(func=cmd_iron)

    p_verify = sub.add_parser("verify", help="run the invariant suites on seeded random settings")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--max-support", type=int, default=3)
    p_verify.add_argument("--max-items", type=int, default=2)
    p_verify.add_argument("--max-bidders", type=int, default=2)
    p_verify.add_argument("--max-ghosts", type=int, default=6)
    p_verify.add_argument("--tolerance", type=float, default=CHECK_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV of benchmarks for a range of n'")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--n-prime-min", type=int, required=True)
    p_sweep.add_argument("--n-prime-max", type=int, required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationCapExceeded as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        print("hint: set mode=monte_carlo or raise caps in the config", file=sys.stderr)
        return EXIT_CAPS
    except (InstanceTooLarge, LPNumericalFailure, Unbounded, MaxIterations) as exc:
        print(f"LP error: {exc}", file=sys.stderr)
        return EXIT_LP


if __name__ == "__main__":
    sys.exit(main())
