"""Worker process: imports auctionbench, builds a workload's inputs, runs ops.

The orchestrator (``run.py``) starts one worker at a time as
``python3 worker.py <socket fd> <src dir> <orchestrator pid>`` and talks to
it over the socket.  Messages are tuples; the worker answers each with one tuple:

- ``("setup", workload, seed, workdir, smoke)`` -> ``("ready", ops, versions)``
- ``("run", index)`` -> ``("done", record)``
- ``("trace_on",)`` -> ``("ok",)``; installs the span wrappers
- ``("finish", span_path | None)`` -> ``("stats", stats)`` and the worker exits
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import io
import os
import resource
import signal
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

PR_SET_PDEATHSIG = 1


def _setting(items: list[dict], n: int):
    from auctionbench.dist import AuctionSetting, make_item_distribution

    dists = tuple(make_item_distribution([float(v) for v in it["values"]], it["probs"]) for it in items)
    return AuctionSetting(items=dists, n=n, n_prime=max(n, 2))


def _prepare(ops: list[dict]) -> dict:
    """Construct what each op needs, so the timed call does only the op's work."""
    cli = importlib.import_module("auctionbench.cli")
    prepared = {}
    for k, op in enumerate(ops):
        if op["kind"] == "lp":
            prepared[k] = _setting(op["items"], op["n"])
        elif op["argv"][0] == "analyze":
            cli.load_config(op["argv"][2])  # validate the written config
    return prepared


def _run_op(op: dict, prepared) -> dict:
    cli = importlib.import_module("auctionbench.cli")
    lp = importlib.import_module("auctionbench.lp")

    out, err = io.StringIO(), io.StringIO()
    rec = {"id": op["id"], "exit": None, "out": None, "error": None}
    t0 = time.perf_counter()
    try:
        if op["kind"] == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec["exit"] = cli.main(list(op["argv"]))
            rec["out"] = out.getvalue()
        else:
            revenue, _ = lp.optimal_revenue(prepared, op["n"])
            rec["out"] = repr(revenue)
    except (Exception, SystemExit) as exc:  # an op failure is a result, not a worker crash
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["t"] = time.perf_counter() - t0
    return rec


def main(conn, src_dir: str) -> None:
    sys.path.insert(0, src_dir)
    import auctionbench  # noqa: F401  (import cost belongs to set-up)
    import numpy
    import tracing
    import workloads

    versions = {"numpy": numpy.__version__}
    recorder = None
    ops: list[dict] = []
    prepared: dict = {}
    while True:
        msg = conn.recv()
        if msg[0] == "setup":
            _, workload, seed, workdir, smoke = msg
            ops = workloads.make_ops(workload, seed, Path(workdir))
            if smoke:
                ops = workloads.smoke_subset(workload, ops)
            prepared = _prepare(ops)
            conn.send(("ready", ops, versions))
        elif msg[0] == "run":
            k = msg[1]
            if recorder is not None:
                recorder.reset_op(k)
            rec = _run_op(ops[k], prepared.get(k))
            if recorder is not None:
                rec["trace"] = recorder.op_summary()
            conn.send(("done", rec))
        elif msg[0] == "trace_on":
            recorder = tracing.Recorder()
            tracing.install(recorder)
            conn.send(("ok",))
        elif msg[0] == "finish":
            spans = recorder.dump(msg[1]) if recorder is not None and msg[1] else 0
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            conn.send(("stats", {"peak_rss_mib": rss_kib / 1024.0, "spans": spans}))
            conn.close()
            return


def _die_with(parent: int) -> None:
    """Have the kernel kill this worker when the orchestrator dies (Linux)."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the orchestrator died before the line above
        sys.exit(1)


if __name__ == "__main__":
    _die_with(int(sys.argv[3]))
    main(Connection(int(sys.argv[1])), sys.argv[2])
