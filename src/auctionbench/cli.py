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
    bvcg_constructed_revenue,
    lemma_chain_check,
    main_theorem_verdict,
    pi_bvcg_constructed_revenue,
)
from .dist import (
    AuctionSetting,
    Caps,
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
    OutputError,
    Unbounded,
    size_text,
)
from .generators import MAX_VALUE, random_setting
from .iu import Instance, monte_carlo_iu, step2_inequality_check, tie_break_independence_check
from .myerson import all_regular, srev, srev_item
from .report import CHECK_TOL, AnalysisReport, CheckRecord, all_hold, verdict
from .simple_auctions import (
    bulow_klemperer_check,
    sequential_posted_price_bound,
    vcg_revenue,
    vcg_with_reserve_bound,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPS = 3
EXIT_LP = 4
EXIT_CHECK_FAILED = 5

# most rows one sweep builds, an Instance each: configs/fee_positive.json takes 60-90 ms a row on 2 vCPUs
SWEEP_ROWS = 4096

# Largest config item value.  The chain and the Monte-Carlo estimator square
# sums of values (variances, second moments), which must stay finite in binary64.
_MAX_VALUE = 1e100


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


def _count(x, what: str) -> int:
    """Parse a bidder count: an integer that binary64 can hold, since the order statistics raise CDFs to it."""
    if (k := _integer(x, what)) > sys.float_info.max:
        raise ConfigParseError(f"{what}: {size_text(k)} exceeds the largest binary64, {sys.float_info.max!r}")
    return k


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
    except (ValueError, RecursionError) as exc:  # an integer past 4,300 digits, or nesting too deep
        raise ConfigParseError(f"malformed JSON: {str(exc).partition(';')[0]}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> InstanceConfig:
    if not isinstance(raw, dict):
        raise ConfigParseError("config must be a JSON object")
    try:
        items_raw = raw["items"]
        n = _count(raw["n"], "n")
    except KeyError as exc:
        raise ConfigParseError(f"missing required field {exc.args[0]!r}") from exc
    if not isinstance(items_raw, list) or not items_raw:
        raise ConfigParseError("items must be a non-empty list")
    epsilon = _decimal(raw.get("epsilon", 1.0), "epsilon")
    if not 0.0 < epsilon <= 1.0:
        raise ConfigParseError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    n_prime = raw.get("n_prime")
    if n_prime is None and 20.0 * n / epsilon == math.inf:
        raise ConfigParseError(f"n_prime: ceil(20 * n / epsilon) overflows binary64 at n={n}, epsilon={epsilon!r}")
    n_prime = math.ceil(20.0 * n / epsilon) if n_prime is None else _count(n_prime, "n_prime")
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
        if max(values, default=0.0) > _MAX_VALUE:
            raise ConfigParseError(f"items[{k}].values: {max(values)!r} exceeds {_MAX_VALUE:g}")
        try:
            items.append(make_item_distribution(values, probs))
        except AuctionBenchError as exc:
            raise ConfigParseError(f"items[{k}]: {exc}") from exc
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "monte_carlo"):
        raise ConfigParseError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")
    try:
        setting = AuctionSetting(items=tuple(items), n=n, n_prime=n_prime, epsilon=epsilon, caps=caps)
    except AuctionBenchError as exc:
        raise ConfigParseError(str(exc)) from exc
    samples = _integer(raw.get("samples", 100_000), "samples")
    if samples < 1:
        raise ConfigParseError(f"samples must be >= 1, got {samples}")
    tolerance = _decimal(raw.get("tolerance", CHECK_TOL), "tolerance")
    if tolerance < 0:
        raise ConfigParseError(f"tolerance must be >= 0, got {tolerance!r}")
    return InstanceConfig(
        setting=setting,
        mode=mode,
        samples=samples,
        seed=_integer(raw.get("seed", 0), "seed"),
        tolerance=tolerance,
    )


def _posted_prices(setting: AuctionSetting, rng: np.random.Generator) -> np.ndarray:
    """n' x m random support prices for the sequential posted-price check, within caps.joint_terms."""
    cells = setting.n_prime * setting.m
    if cells > setting.caps.joint_terms:
        raise EnumerationCapExceeded(f"n' x items = {cells} posted prices exceed cap {setting.caps.joint_terms}")
    return np.array(
        [[item.values[int(rng.integers(len(item.values)))] for item in setting.items] for _ in range(setting.n_prime)]
    )


def _shared_checks(inst: Instance, rng: np.random.Generator, tol: float) -> list[CheckRecord]:
    """The checks analyze and verify share; `rng` draws the posted prices."""
    setting, n, np_, srev_np = inst.setting, inst.setting.n, inst.n_prime, inst.srev_nprime
    checks = []
    if np_ >= 2:
        checks.append(step2_inequality_check(inst, n, tol))
    checks.append(CheckRecord.leq("ronen_le_srev", "RonenBound(n') <= SRev(n')", inst.ronen_nprime, srev_np, tol))
    for j, item in enumerate(setting.items):
        lhs = max(vcg_with_reserve_bound(setting, j, x, np_) for x in (0.0,) + item.values)
        checks.append(
            CheckRecord.leq(
                f"reserve_le_srev_item_{j}",
                "max over reserves of x*Pr(max >= x) <= SRev_j(n')",
                lhs,
                srev_item(item, np_),
                tol,
            )
        )
    spp = sequential_posted_price_bound(setting, _posted_prices(setting, rng), np_)
    checks.append(CheckRecord.leq("spp_le_srev", "SeqPostedPrice(n') <= SRev(n')", spp, srev_np, tol))
    checks.append(bulow_klemperer_check(setting, n, tol))
    return checks


def run_analysis(cfg: InstanceConfig) -> AnalysisReport:
    setting = cfg.setting
    n, np_ = setting.n, setting.n_prime
    tol = cfg.tolerance
    rep = AnalysisReport()
    rep.scalars["n"] = n
    rep.scalars["n_prime"] = np_
    rep.scalars["epsilon"] = setting.epsilon
    rep.scalars["m"] = setting.m
    rep.scalars["vcg_n"] = vcg_revenue(setting, n) if n >= 2 else None
    rep.scalars["vcg_n_prime"] = vcg_revenue(setting, np_) if np_ >= 2 else None
    rep.scalars["regular"] = all_regular(setting)

    if cfg.mode == "monte_carlo":
        rep.scalars["srev_n"] = srev(setting, n)
        rep.scalars["srev_n_prime"] = srev(setting, np_)
        est_np = monte_carlo_iu(setting, np_, np_, cfg.samples, cfg.seed + 1)  # first: n' >= n costs the most cells
        est_n = monte_carlo_iu(setting, n, np_, cfg.samples, cfg.seed)
        rep.scalars["iu_n_estimate"] = est_n.estimate
        rep.scalars["iu_n_std_error"] = est_n.std_error
        rep.scalars["iu_n_prime_estimate"] = est_np.estimate
        rep.scalars["iu_n_prime_std_error"] = est_np.std_error
        if np_ >= 2:
            lhs = est_n.estimate
            rhs = (n / np_) * est_np.estimate + vcg_revenue(setting, np_)
            fuzz = 4.0 * ((est_n.std_error or 0.0) + (est_np.std_error or 0.0))
            rep.checks.append(
                CheckRecord.leq(
                    "step2_mc",
                    "IU(n,n') <= (n/n')*IU(n',n') + VCG(n') (MC, 4 sigma fuzz)",
                    lhs,
                    rhs + fuzz,
                    tol,
                )
            )
        return rep

    inst = Instance(setting, np_)
    rep.scalars["iu_n"] = inst.iu_tables.iu(n)
    rep.scalars["iu_n_prime"] = inst.iu_tables.iu(np_)
    rep.checks.extend(_shared_checks(inst, make_rng(cfg.seed, 3), tol))
    rep.scalars["srev_n"] = next(c.lhs for c in rep.checks if c.name == "bulow_klemperer")
    rep.scalars["srev_n_prime"] = inst.srev_nprime
    chain = main_theorem_verdict(inst, n, setting.epsilon, tol=tol)
    rep.scalars["single"] = chain.single
    rep.scalars["under"] = chain.under
    rep.scalars["over"] = chain.over
    rep.scalars["tail"] = chain.tail
    rep.scalars["core"] = chain.core
    rep.scalars["fee_mass"] = chain.fee_mass
    rep.scalars["bvcg_floor"] = chain.participation_lb
    rep.scalars["pi_bvcg_floor"] = chain.pi_bvcg_floor if chain.regular_branch else None
    rep.scalars["rev_n"] = chain.rev_n
    rep.scalars["branch1_holds"] = chain.branch1_holds
    rep.scalars["branch2_holds"] = chain.branch2_holds
    rep.checks.extend(chain.checks)
    return rep


def _format_table(rep: AnalysisReport) -> str:
    lines = ["== scalars =="]
    for key, value in sorted(rep.scalars.items()):
        lines.append(f"  {key:24s} {value if value is not None else '-'}")
    lines.append("== checks ==")
    lines.append(f"  {'name':28s} {'lhs':>14s} {'rhs':>14s} {'slack':>12s}  verdict")
    for c in rep.checks:
        lines.append(f"  {c.name:28s} {c.lhs:14.8g} {c.rhs:14.8g} {c.slack:12.4g}  {verdict(c.holds)}")
    return "\n".join(lines)


def _write_out(path: str | None, text: str) -> None:
    """Write `text` and a newline to `path` when one is given."""
    if path:
        try:
            Path(path).write_text(text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write --out: {exc}") from exc


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
    json_text = rep.to_json() if args.format == "json" or args.out else ""
    _write_out(args.out, json_text)
    print(json_text if args.format == "json" else _format_table(rep))
    return EXIT_OK if all_hold(rep.checks) else EXIT_CHECK_FAILED


def cmd_iron(args) -> int:
    cfg = load_config(args.config)
    rows = []
    for j, item in enumerate(cfg.setting.items):
        table = item.ironed
        for value, p, pt in zip(item.values, table.phi, table.phi_tilde):
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
    _write_out(args.out, output)
    print(output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    lo, hi = _count(args.n_prime_min, "--n-prime-min"), _count(args.n_prime_max, "--n-prime-max")
    cfg = load_config(args.config)
    setting = cfg.setting
    if (rows := hi - max(lo, setting.n) + 1) > SWEEP_ROWS:
        # a cap refusal whose hint names the n' flags, not the config's caps
        print(f"enumeration cap: sweep rows = {size_text(rows)} exceeds cap {SWEEP_ROWS}", file=sys.stderr)
        print(f"hint: narrow --n-prime-min .. --n-prime-max to at most {SWEEP_ROWS} rows, one per n' >= n", file=sys.stderr)
        return EXIT_CAPS
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n_prime", "vcg", "srev", "iu_n_nprime", "iu_nprime_nprime", "bvcg_floor", "pi_bvcg_floor"]
    )
    for np_ in range(lo, hi + 1):
        if np_ < setting.n:
            continue
        inst = Instance(setting, np_)
        _, participation = bvcg_constructed_revenue(inst)
        pi_lb, _ = pi_bvcg_constructed_revenue(inst)
        writer.writerow(
            [
                np_,
                f"{vcg_revenue(setting, np_):.12g}" if np_ >= 2 else "",
                f"{inst.srev_nprime:.12g}",
                f"{inst.iu_tables.iu(setting.n):.12g}",
                f"{inst.iu_tables.iu(np_):.12g}",
                f"{participation:.12g}",
                f"{max(pi_lb, vcg_revenue(setting, np_ + 1)):.12g}",
            ]
        )
    output = buf.getvalue().rstrip("\n")
    _write_out(args.out, output)
    print(output)
    return EXIT_OK


def _verify_suites(setting: AuctionSetting, rng: np.random.Generator, tol: float) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    inst = Instance(setting, setting.n_prime)
    np_ = inst.n_prime
    chain = lemma_chain_check(inst, setting.n, tol=tol)
    for item in setting.items:
        table = item.ironed
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
    checks.extend(_shared_checks(inst, rng, tol))
    if np_ >= 2:
        checks.append(
            CheckRecord.leq("vcg_le_srev", "VCG(n') <= SRev(n')", vcg_revenue(setting, np_), inst.srev_nprime, tol)
        )
    checks.extend(chain.checks)
    stats = inst.stats
    worst = max(0.0, float((stats.var_u_hat - 2.0 * stats.r_ron_total**2).max()))
    checks.append(CheckRecord.leq("capped_variance", "Var(U_hat) <= 2 r^2", worst, 0.0, tol))
    deviation = max(tie_break_independence_check(item, 3) for item in setting.items)
    checks.append(
        CheckRecord.leq("tie_break", "max winner-conditioned deviation == 0", deviation, 0.0, 1e-12)
    )
    return checks


def cmd_verify(args) -> int:
    rng = make_rng(args.seed)
    summary: dict[str, list[CheckRecord]] = {}
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
            # one row per check family: reserve_le_srev_item_<j> counts as reserve_le_srev
            summary.setdefault(check.name.split("_item_")[0], []).append(check)
            if not check.holds:
                failures += 1
                print(
                    f"FAIL {check.name}: {check.statement} lhs={check.lhs!r} rhs={check.rhs!r}",
                    file=sys.stderr,
                )
    print(f"  {'check':28s} {'runs':>6s} {'worst slack':>14s}  verdict")
    for name, records in sorted(summary.items()):
        worst = min(check.slack for check in records)
        print(f"  {name:28s} {len(records):6d} {worst:14.6g}  {verdict(all_hold(records))}")
    print(f"settings: {args.count}, failures: {failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _generator_int(text: str) -> int:
    if (value := _positive_int(text)) >= 1 << 63:  # verify's generators draw below it in int64
        raise argparse.ArgumentTypeError(f"must be at most 2^63 - 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
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
    p_analyze.add_argument("--tolerance", type=_tolerance, default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_iron = sub.add_parser("iron", help="print virtual value tables per item")
    p_iron.add_argument("--config", required=True)
    p_iron.add_argument("--format", choices=["table", "csv"], default="table")
    p_iron.add_argument("--out", default=None)
    p_iron.set_defaults(func=cmd_iron)

    p_verify = sub.add_parser("verify", help="run the invariant suites on seeded random settings")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--count", type=_non_negative_int, default=100)
    p_verify.add_argument("--max-support", type=int, choices=range(1, MAX_VALUE + 2), metavar="N", default=3,
                          help=f"at most {MAX_VALUE + 1}, the points of the value grid 0..{MAX_VALUE}")
    p_verify.add_argument("--max-items", type=_generator_int, default=2)
    p_verify.add_argument("--max-bidders", type=_generator_int, default=2)
    p_verify.add_argument("--max-ghosts", type=_generator_int, default=6, help="at least --max-bidders")
    p_verify.add_argument("--tolerance", type=_tolerance, default=CHECK_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV of benchmarks for a range of n'")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--n-prime-min", type=int, required=True)
    p_sweep.add_argument("--n-prime-max", type=int, required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.max_ghosts < args.max_bidders:
        parser.error(f"verify: --max-ghosts ({args.max_ghosts}) must be >= --max-bidders ({args.max_bidders})")
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationCapExceeded as exc:
        print(f"enumeration cap: {exc}", file=sys.stderr)
        hint = ("lower --max-items, --max-support or --max-ghosts" if args.command == "verify"  # verify reads no config
                else "raise caps in the config (an exact run can also set mode=monte_carlo)")
        print(f"hint: {hint}", file=sys.stderr)
        return EXIT_CAPS
    except (InstanceTooLarge, LPNumericalFailure, Unbounded, MaxIterations) as exc:
        print(f"LP error: {exc}", file=sys.stderr)
        return EXIT_LP


if __name__ == "__main__":
    sys.exit(main())
