"""auctionbench benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact_ladder --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke              # every workload once, then self-test
    python3 perfbench/run.py --workload verify_sweep --seed 3 --record   # write references

One worker process at a time imports ``src/auctionbench`` from the checkout,
builds the workload's inputs from ``--seed`` and runs the ops in passes until
``--seconds`` is spent (always at least one pass).  An op past its deadline
is killed and counted as failed; the worker is restarted, the restart is kept
out of the pass time and counted as one more ``setup_s`` sample.  ``setup_s``
is the median of set-ups timed before the first pass and between passes;
``pass_s`` sums each op's median time over the run's passes.  BLAS/OpenMP
threads are pinned to 1 in the worker.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then installs span wrappers around every layer
(see ``tracing.py``) and runs traced passes for the other half; it reports
the per-layer metrics and the tracing overhead.

Every run checks the outputs: against the recorded reference for the seed
when one exists (``refs/``), across passes (the same op must give the same
output every time, traced or not), and against independent oracles: HiGHS
for every LP optimum and the exact benchmark for the m=4 Monte-Carlo
estimate.  An ``lp_oracle`` reference holds each op's outcome ("solved" or
what stopped it), not its optimum.  After the timed passes of a traced run,
``lp_oracle`` also runs its defect probes (``workloads.lp_defects``): the
seed's draws of the LP shape that fails on about half of the seeds at the
seed commit, and the two pinned LP instances that fail there (``pinned/``).
They run under their deadlines through the same gate, and count as attempted
and failed ops.  They stay out of the timed passes and the untraced runs: the
pinned ones cost about 60 s (one stalls until its 30 s deadline), and a
seed's failing draws would set its pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when the outcome of a finished op (output, exit code or exception type)
disagrees with a reference, an oracle or another pass; an LP op may also
solve where its reference failed, if HiGHS agrees.  An op killed at its
deadline is counted as failed but not as incorrect, and so is an LP op that
fails as it did in its reference (the known LP defects).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # inherited by the workers

import oracles  # noqa: E402
import workloads  # noqa: E402

# set-ups timed before the first pass; one more is timed between passes, so
# that setup_s samples the whole run, as pass_s does, not only its first seconds
SETUP_REPEATS = 5
KILLED = "killed"  # error prefix of an op stopped at its deadline
SETUP_TIMEOUT = 60.0
FINISH_TIMEOUT = 120.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mib": "MiB",
}


_CALLS_SELF = ["dist.from_atoms", "dist.convolve", "dist.max_vector_distribution", "iu.build_iu_tables",
               "iu.monte_carlo_iu", "decomposition.build_utility_stats", "decomposition.lemma_chain_check",
               "decomposition.surplus_event_probability", "simple_auctions.ronen_r_star", "myerson.iron",
               "myerson.srev"]
_SELF_ONLY = ["dist.map_through", "dist.valuations", "iu.step2_inequality_check",
              "iu.tie_break_independence_check", "decomposition.decomposition_terms",
              "decomposition.main_theorem_verdict", "simple_auctions.vcg_revenue",
              "simple_auctions.ronen_bound", "lp.lp_solve", "generators.random_setting", "report.to_json",
              "cli.parse_config", "cli.run_analysis", "cli.main"]

PER_LAYER = {f"{n}.calls": "count" for n in _CALLS_SELF}
PER_LAYER.update({f"{n}.self_s": "s" for n in _CALLS_SELF + _SELF_ONLY})
PER_LAYER.update({
    "dist.from_atoms.pairs_in": "count",
    "dist.joint_maxvec_support": "count",
    "iu.build_iu_tables.distinct_ratio": "ratio",
    "decomposition.build_utility_stats.distinct_ratio": "ratio",
    "iu.monte_carlo_iu.samples_per_s": "1/s",
    "lp.optimal_revenue.calls": "count",
    "lp.optimal_revenue.distinct_ratio": "ratio",
    "lp.MechanismLP.build_s": "s",
    "lp.lp_solve.pivots": "count",
    "lp.lp_solve.s_per_pivot": "s",
    "lp.tableau_bytes_computed": "B",
    "lp.refused": "count",
    "trace.overhead_ratio": "ratio",
})


class OpTimeout(Exception):
    pass


class Worker:
    """One worker process (``worker.py``) and its socket.

    A plain subprocess rather than a multiprocessing one: multiprocessing's
    spawn start method also starts a resource-tracker process that outlives
    the benchmark.  Every worker is killed and waited for on the way out
    (``reap``), and dies with the benchmark if the benchmark is killed.
    """

    live: set["Worker"] = set()

    def __init__(self) -> None:
        mine, theirs = socket.socketpair()
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(theirs.fileno()), str(SRC), str(os.getpid())],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL, stdout=sys.stderr)
        self.conn = Connection(mine.detach())
        Worker.live.add(self)

    def ask(self, msg: tuple, timeout: float) -> tuple:
        self.conn.send(msg)
        if not self.conn.poll(timeout):
            raise OpTimeout(f"no reply to {msg[0]} within {timeout:.0f} s")
        return self.conn.recv()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.conn.close()
        Worker.live.discard(self)

    def finish(self, span_path: str | None = None) -> dict:
        try:
            stats = self.ask(("finish", span_path), FINISH_TIMEOUT)[1]
        except (OpTimeout, EOFError, OSError):
            self.kill()
            return {}
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.proc.wait(FINISH_TIMEOUT)
        self.kill()
        return stats

    @classmethod
    def reap(cls) -> None:
        for w in list(cls.live):
            w.kill()


class Session:
    """Runs one workload's ops in passes on one worker at a time."""

    def __init__(self, workload: str, seed: int, workdir: Path, smoke: bool) -> None:
        self.workload, self.seed, self.workdir, self.smoke = workload, seed, workdir, smoke
        self.setup_samples: list[float] = []
        self.restart_samples: list[float] = []
        self.traced = False
        self.worker: Worker | None = None
        self.ops: list[dict] = []
        self.versions: dict = {}

    def _spawn(self) -> tuple[Worker, float]:
        """A fresh worker, ready to run the ops, and the seconds that took."""
        t0 = time.perf_counter()
        w = Worker()
        try:
            msg = ("setup", self.workload, self.seed, str(self.workdir), self.smoke)
            _, self.ops, self.versions = w.ask(msg, SETUP_TIMEOUT)
        except (OpTimeout, EOFError, OSError):
            w.kill()
            raise
        return w, time.perf_counter() - t0

    def start(self) -> float:
        self.worker, seconds = self._spawn()
        return seconds

    def sample_setup(self) -> None:
        """One more set-up sample on a throwaway worker; the ops' worker stays as it is."""
        w, seconds = self._spawn()
        w.finish()
        self.setup_samples.append(seconds)

    def setup(self) -> None:
        self.setup_samples.append(self.start())
        for _ in range(SETUP_REPEATS - 1):
            self.sample_setup()

    def _restart(self) -> float:
        """Replace a killed worker; returns the time taken, kept out of the pass time."""
        t0 = time.perf_counter()
        self.restart_samples.append(self.start())
        if self.traced:
            self.worker.ask(("trace_on",), SETUP_TIMEOUT)
        return time.perf_counter() - t0

    def trace_on(self) -> None:
        self.worker.ask(("trace_on",), SETUP_TIMEOUT)
        self.traced = True

    def run_op(self, k: int) -> dict:
        op = self.ops[k]
        try:
            reply = self.worker.ask(("run", k), op["deadline"])
            return reply[1]
        except (OpTimeout, EOFError, OSError) as exc:
            self.worker.kill()
            self.worker = None
            return {"id": op["id"], "exit": None, "out": None, "t": op["deadline"],
                    "error": f"{KILLED}: {exc}" if isinstance(exc, OpTimeout) else f"worker died: {exc!r}",
                    "restart_s": self._restart()}

    def passes(self, budget: float) -> list[dict]:
        done: list[dict] = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            recs = [self.run_op(k) for k in range(len(self.ops))]
            wall = time.perf_counter() - t0 - sum(rec.get("restart_s", 0.0) for rec in recs)
            done.append({"wall": wall, "ops": recs, "traced": self.traced})
            elapsed = time.perf_counter() - t_start
            if self.smoke or elapsed + statistics.median(p["wall"] for p in done) > budget:
                return done
            self.sample_setup()

    def close(self, span_path: str | None = None) -> dict:
        stats = self.worker.finish(span_path) if self.worker is not None else {}
        self.worker = None
        return stats


def one_pass(op_set: str, seed: int, workdir: Path) -> tuple[list[dict], list[dict]]:
    """One untimed pass over an op set on a fresh worker: (ops, passes)."""
    session = Session(op_set, seed, workdir, smoke=False)
    session.start()
    try:
        return session.ops, session.passes(0.0)
    finally:
        session.close()


# correctness gate ----------------------------------------------------------


def _outcome(rec: dict) -> tuple:
    err = rec["error"].split(":")[0] if rec["error"] else None
    return (rec["exit"], rec["out"], err)


def _lp_outcome(rec: dict) -> str:
    """"solved", or what stopped the op: its exception type, "killed" or "worker died"."""
    return "solved" if rec["out"] is not None else rec["error"].split(":")[0]


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFS / workload / f"seed_{seed}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def gate(workload: str, seed: int, ops: list[dict], passes: list[dict]) -> tuple[list[dict], set]:
    """Checks over every op record; returns (checks, (pass, op) keys of bad records)."""
    checks: list[dict] = []
    bad: set = set()

    def check(name: str, ok: bool | None, detail: str, rec_keys=()) -> None:
        checks.append({"check": name, "ok": ok, "detail": detail})
        if ok is False:
            bad.update(rec_keys)

    # a kill is a timing outcome, already counted failed: compare finished ops only
    records = [(p, k, rec) for p, ps in enumerate(passes) for k, rec in enumerate(ps["ops"])
               if not (rec["error"] or "").startswith(KILLED)]
    first: dict = {}
    for p, k, rec in records:
        q, base = first.setdefault(k, (p, rec))
        if _outcome(rec) != _outcome(base):
            check("same_output_every_pass", False, f"{rec['id']} pass {p} differs from pass {q}", [(p, k)])
    if not any(c["check"] == "same_output_every_pass" for c in checks):
        check("same_output_every_pass", True, f"{len(records)} records over {len(passes)} passes")

    if (ref := load_reference(workload, seed)) is None:
        check("reference", None, f"no recorded reference for seed {seed}")
    elif workload == "lp_oracle":
        # the reference holds outcomes, not optima (HiGHS checks those below): a
        # finished op solves, or fails as it did in the reference
        wrong = [(p, k) for p, k, rec in records
                 if _lp_outcome(rec) not in ("solved", ref.get(rec["id"], "solved"))]
        names = sorted({passes[p]["ops"][k]["id"] for p, k in wrong})
        check("reference", not wrong,
              f"failed unlike the reference: {names}" if wrong else f"{len(records)} outcomes allowed", wrong)
    else:
        wrong = [(p, k) for p, k, rec in records
                 if rec["id"] not in ref or _outcome(rec) != tuple(ref[rec["id"]])]
        names = sorted({passes[p]["ops"][k]["id"] for p, k in wrong})
        check("reference", not wrong, f"differs: {names}" if wrong else f"{len(records)} records match", wrong)

    if workload == "lp_oracle":
        highs_checks(ops, records, check)
    if workload == "mc_many_items":
        for p, k, rec in records:
            if ops[k]["id"].startswith("m4") and p == 0 and rec["out"] is not None:
                problems = oracles.mc_within_4se(ops[k]["argv"][2], rec["out"])
                check("mc_vs_exact_4se", not problems, "; ".join(problems) or "iu_n and iu_n_prime agree",
                      [(q, kk) for q, kk, _ in records if kk == k])
    if workload == "verify_sweep":
        wrong = []
        for p, k, rec in records:
            if rec["out"] is None:
                continue
            failures = int(rec["out"].rsplit("failures:", 1)[1])
            if rec["exit"] != (5 if failures else 0):
                wrong.append((p, k))
        check("verify_exit_matches_matrix", not wrong, f"{len(wrong)} mismatches", wrong)
    return checks, bad


def highs_checks(ops: list[dict], records: list, check) -> None:
    checked, problems, failures = 0, [], 0
    for k, op in enumerate(ops):
        recs = [(p, rec) for p, kk, rec in records if kk == k]
        if all(rec["out"] is None for _, rec in recs):
            failures += 1
            continue
        want = oracles.highs_optimal_revenue(op["items"], op["n"])
        if want is None:
            check("lp_vs_highs", None, "scipy is not importable: unchecked")
            return
        for p, rec in recs:
            if rec["out"] is not None and not oracles.lp_agrees(float(rec["out"]), want):
                problems.append((p, k))
        checked += 1
    names = sorted({ops[k]["id"] for _, k in problems})
    check("lp_vs_highs", not problems,
          f"{checked} optima checked within {oracles.LP_TOL}; {failures} ops gave no optimum; disagree: {names}",
          problems)


# metrics ---------------------------------------------------------------------


def pass_time(passes: list[dict]) -> float:
    """One full pass: the sum over ops of each op's median time over `passes`.

    A burst of load on a shared machine slows a few ops of one pass; the
    per-op median drops it where the median of whole passes would not.
    """
    return sum(statistics.median(p["ops"][k]["t"] for p in passes) for k in range(len(passes[0]["ops"])))


def end_to_end(session: Session, passes: list[dict], peak_rss_mib: float) -> dict:
    return {
        # a restart after a kill is one more set-up sample, so more kills in a
        # run do not add up to a longer set-up
        "setup_s": statistics.median(session.setup_samples + session.restart_samples),
        "pass_s": pass_time(passes),
        "peak_rss_mib": peak_rss_mib,
    }


def _pass_layers(p: dict) -> dict:
    stats: dict = {}
    counters: dict = {}
    maxima: dict = {}
    distinct: dict = {}
    for rec in p["ops"]:
        tr = rec.get("trace")
        if not tr:
            continue
        for name, (calls, self_s, total_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0.0) + v
        for name, v in tr["maxima"].items():
            maxima[name] = max(maxima.get(name, 0.0), v)
        for name, v in tr["distinct"].items():
            distinct[name] = distinct.get(name, 0) + v

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for name in _CALLS_SELF:
        out[f"{name}.calls"] = float(calls(name))
    for name in _CALLS_SELF + _SELF_ONLY:
        out[f"{name}.self_s"] = stats.get(name, [0, 0.0, 0.0])[1]
    out["dist.from_atoms.pairs_in"] = counters.get("dist.from_atoms.pairs_in", 0.0)
    out["dist.joint_maxvec_support"] = maxima.get("dist.max_vector_distribution.joint_support", 0.0)
    for name in ("iu.build_iu_tables", "decomposition.build_utility_stats", "lp.optimal_revenue"):
        out[f"{name}.distinct_ratio"] = ratio(distinct.get(name, 0), calls(name))
    out["iu.monte_carlo_iu.samples_per_s"] = ratio(
        counters.get("iu.monte_carlo_iu.samples", 0.0), stats.get("iu.monte_carlo_iu", [0, 0.0, 0.0])[2])
    out["lp.optimal_revenue.calls"] = float(calls("lp.optimal_revenue"))
    out["lp.MechanismLP.build_s"] = stats.get("lp.MechanismLP", [0, 0.0, 0.0])[2]
    pivots = counters.get("lp.lp_solve.pivots", 0.0)
    out["lp.lp_solve.pivots"] = pivots
    out["lp.lp_solve.s_per_pivot"] = ratio(stats.get("lp.lp_solve", [0, 0.0, 0.0])[1], pivots)
    out["lp.tableau_bytes_computed"] = maxima.get("lp.lp_solve.tableau_bytes", 0.0)
    out["lp.refused"] = counters.get("lp.MechanismLP.refused", 0.0)
    return out


def per_layer(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    rows = [_pass_layers(p) for p in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_ratio"] = pass_time(traced) / pass_time(plain)
    return out


# run -------------------------------------------------------------------------


def meta(session: Session) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "auctionbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": git_commit(), "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": session.versions.get("numpy"),
            "nproc": os.cpu_count(), "workload": session.workload, "seed": session.seed}


def git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


@contextlib.contextmanager
def _workdir(workload: str):
    """Scratch directory for the generated configs, removed afterwards."""
    path = OUT / f"work_{workload}_{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    with _workdir(workload) as workdir:
        return _run(Session(workload, seed, workdir, smoke), seconds, trace)


def _run(session: Session, seconds: float, trace: bool) -> dict:
    workload, seed = session.workload, session.seed
    session.setup()
    if trace:
        passes = session.passes(seconds / 2)
        session.trace_on()
        passes += session.passes(seconds / 2)
    else:
        passes = session.passes(seconds)
    span_path = str(OUT / f"spans_{workload}.jsonl") if trace else None  # latest traced run only
    stats = session.close(span_path)

    checks, bad = gate(workload, seed, session.ops, passes)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p, ps in enumerate(passes) for k, rec in enumerate(ps["ops"])
                 if rec["error"] or (p, k) in bad)
    probes: list[dict] = []
    if workload == "lp_oracle" and trace:
        probe_ops, probe_passes = one_pass("lp_defects", seed, session.workdir)
        probe_checks, probe_bad = gate(workload, seed, probe_ops, probe_passes)
        checks += [dict(c, check=f"defect_probes.{c['check']}") for c in probe_checks]
        probes = probe_passes[0]["ops"]
        attempted += len(probes)
        failed += sum(1 for k, rec in enumerate(probes) if rec["error"] or (0, k) in probe_bad)
    correct = all(c["ok"] is not False for c in checks)
    metrics = per_layer(passes) if trace else end_to_end(session, passes, stats["peak_rss_mib"])
    units = PER_LAYER if trace else END_TO_END
    return {
        "meta": meta(session),
        "checks": checks,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "setup_samples_s": session.setup_samples,
        "restart_samples_s": session.restart_samples,
        "passes": [{"wall": p["wall"], "traced": p["traced"],
                    "ops": [{k: rec.get(k) for k in ("id", "t", "exit", "error")} for rec in p["ops"]]}
                   for p in passes],
        "defect_probes": [{k: rec.get(k) for k in ("id", "t", "out", "error")} for rec in probes],
        "spans_file": span_path,
        "spans": stats.get("spans", 0),
    }


def report(result: dict) -> None:
    m = result["meta"]
    print(f"# {m['workload']} seed={m['seed']} commit={m['commit']} src_sha256={m['src_sha256']} "
          f"python={m['python']} numpy={m['numpy']} nproc={m['nproc']}")
    n_passes = len(result["passes"])
    n_ops = sum(len(p["ops"]) for p in result["passes"])
    slowest = max((rec["t"], rec["id"]) for p in result["passes"] for rec in p["ops"])
    print(f"# {n_passes} passes, {n_ops} op samples; slowest op {slowest[1]} {slowest[0]:.3f} s")
    for c in result["checks"]:
        verdict = {True: "ok", False: "FAIL", None: "unchecked"}[c["ok"]]
        print(f"gate {c['check']}: {verdict} ({c['detail']})")
    for rec in result["defect_probes"]:
        print(f"defect probe {rec['id']}: " + (f"FAILED ({rec['error']})" if rec["error"] else f"solved {rec['out']}"))
    ratio = result["failed"] / result["attempted"]
    print(f"ops attempted={result['attempted']} failed={result['failed']} failed_ratio={ratio:.4f}")
    for name, v in result["metrics"].items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}")
    if result["spans_file"]:
        print(f"# {result['spans']} spans written to {result['spans_file']}")


def record(workload: str, seed: int) -> Path:
    """Write the reference outputs of one pass for `workload` at `seed`."""
    with _workdir(workload) as workdir:
        recs = one_pass(workload, seed, workdir)[1][0]["ops"]
        if workload == "lp_oracle":
            recs += one_pass("lp_defects", seed, workdir)[1][0]["ops"]
    if workload == "lp_oracle":  # LP failures are known defects: record them as outcomes
        ref = {rec["id"]: _lp_outcome(rec) for rec in recs}
    elif bad := [rec["id"] for rec in recs if rec["error"]]:
        raise SystemExit(f"not recording: ops failed: {bad}")
    else:
        ref = {rec["id"]: _outcome(rec) for rec in recs}
    path = REFS / workload / f"seed_{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return path


def smoke() -> int:
    """Run every workload once at its smallest rung and check the output contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run(workload, 0, 0.0, trace, smoke=True)
            got = result["metrics"]
            for entry in listed:
                if entry["name"] not in got or got[entry["name"]]["unit"] != entry["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: {entry['name']} missing or wrong unit")
            extra = set(got) - {e["name"] for e in listed}
            if extra:
                problems.append(f"{workload} trace={int(trace)}: unlisted metrics {sorted(extra)}")
            if not result["checks"] or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: gate did not pass: {result['checks']}")
            if workload == "lp_oracle" and trace and not result["defect_probes"]:
                problems.append("lp_oracle trace=1: the defect probes did not run")
            print(f"smoke {workload} trace={int(trace)}: {len(got)} metrics, {len(result['checks'])} checks, "
                  f"correct={result['correct']}, failed {result['failed']} of {result['attempted']}", flush=True)
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    # exit through SystemExit on SIGTERM, so the workers are reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        Worker.reap()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once and self-test")
    parser.add_argument("--record", action="store_true", help="write the reference for --workload/--seed")
    args = parser.parse_args(argv)
    if not (SRC / "auctionbench" / "__init__.py").is_file():
        print(f"error: no auctionbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the oracles import the package from this checkout
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.record:
        print(f"wrote {record(args.workload, args.seed)}")
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
