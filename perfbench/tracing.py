"""Span recorder and the wrappers that put spans around auctionbench's layers.

The wrappers are installed from outside the package: every public function
named in ``TARGETS`` is replaced, in every ``auctionbench`` module namespace
that holds it, by a wrapper that records a span (name, start, end, parent,
op id).  Methods are replaced on their class.  Nothing under ``src/`` changes.

Spans stay in memory; ``Recorder.dump`` writes them out once, at the end of a
run.  Per-op aggregates (calls, self time, inclusive time and a few named
counters) are kept alongside so a pass can be summarised without a second
walk over the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict


class Recorder:
    """In-memory span store with per-op aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[list] = []  # [span index, child time]
        self.op_id = -1
        self.reset_op(-1)

    def reset_op(self, op_id: int) -> None:
        self.op_id = op_id
        # name -> [calls, self_s, total_s]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        _, child = self._stack.pop()
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[self.names[self.name[idx]]]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur

    def op_summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "distinct": {k: len(v) for k, v in self.keys.items()},
        }

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]},{self.op[i]}]\n"
                )
        return len(self.name)


def _wrap(rec: Recorder, name: str, fn, before=None, after=None, on_error=None):
    """Wrap `fn` in a span; hooks see (rec, name, args, kwargs[, result|exc])."""
    nid = rec.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            if before is not None:
                args, kwargs = before(rec, name, args, kwargs)
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if on_error is not None:
                on_error(rec, name, exc)
            raise
        rec.close(idx)
        if after is not None:
            after(rec, name, args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


# hooks ---------------------------------------------------------------------


def _count_pairs(rec, name, args, kwargs):
    # from_atoms(cls, pairs, ...): materialise inside the span so the work of
    # a generator argument stays attributed to from_atoms, as it is untraced
    pairs = list(_arg(args, kwargs, 1, "pairs"))
    rec.counters[name + ".pairs_in"] += len(pairs)
    if len(args) > 1:
        args = (args[0], pairs) + tuple(args[2:])
    else:
        kwargs = dict(kwargs, pairs=pairs)
    return args, kwargs


def _joint_support(rec, name, args, kwargs, result):
    key = name + ".joint_support"
    rec.maxima[key] = max(rec.maxima[key], float(result.joint_size()))


def _distinct(pos: int, key: str):
    def hook(rec, name, args, kwargs):
        rec.keys[name].add((_arg(args, kwargs, 0, "setting"), _arg(args, kwargs, pos, key)))
        return args, kwargs

    return hook


def _mc_samples(rec, name, args, kwargs, result):
    rec.counters[name + ".samples"] += _arg(args, kwargs, 3, "samples")


def _lp_solve_stats(rec, name, args, kwargs):
    a_ub = _arg(args, kwargs, 1, "a_ub")
    b_ub = _arg(args, kwargs, 2, "b_ub")
    rows, cols = a_ub.shape
    n_art = int((b_ub < 0).sum())
    # dense tableau of lp_solve: (rows + 1) x (cols + slacks + artificials + rhs)
    tableau = (rows + 1) * (cols + rows + n_art + 1) * 8
    key = name + ".tableau_bytes"
    rec.maxima[key] = max(rec.maxima[key], float(tableau))
    return args, kwargs


def _lp_pivots(rec, name, args, kwargs, result):
    rec.counters[name + ".pivots"] += result.iterations


def _lp_refused(rec, name, exc):
    if type(exc).__name__ == "InstanceTooLarge":
        rec.counters[name + ".refused"] += 1


# (module, attribute, span name, before, after, on_error); a dotted attribute
# names a method, replaced on its class.
TARGETS = [
    ("dist", "ScalarDistribution.from_atoms", "dist.from_atoms", _count_pairs, None, None),
    ("dist", "ScalarDistribution.convolve", "dist.convolve", None, None, None),
    ("dist", "ScalarDistribution.map_through", "dist.map_through", None, None, None),
    ("dist", "max_vector_distribution", "dist.max_vector_distribution", None, _joint_support, None),
    ("dist", "AuctionSetting.valuations", "dist.valuations", None, None, None),
    ("myerson", "iron", "myerson.iron", None, None, None),
    ("myerson", "srev", "myerson.srev", None, None, None),
    ("simple_auctions", "vcg_revenue", "simple_auctions.vcg_revenue", None, None, None),
    ("simple_auctions", "ronen_r_star", "simple_auctions.ronen_r_star", None, None, None),
    ("simple_auctions", "ronen_bound", "simple_auctions.ronen_bound", None, None, None),
    ("iu", "build_iu_tables", "iu.build_iu_tables", _distinct(1, "n_prime"), None, None),
    ("iu", "monte_carlo_iu", "iu.monte_carlo_iu", None, _mc_samples, None),
    ("iu", "step2_inequality_check", "iu.step2_inequality_check", None, None, None),
    ("iu", "tie_break_independence_check", "iu.tie_break_independence_check", None, None, None),
    ("decomposition", "build_utility_stats", "decomposition.build_utility_stats", _distinct(1, "n_prime"),
     None, None),
    ("decomposition", "decomposition_terms", "decomposition.decomposition_terms", None, None, None),
    ("decomposition", "surplus_event_probability", "decomposition.surplus_event_probability", None,
     None, None),
    ("decomposition", "lemma_chain_check", "decomposition.lemma_chain_check", None, None, None),
    ("decomposition", "main_theorem_verdict", "decomposition.main_theorem_verdict", None, None, None),
    ("lp", "MechanismLP.__init__", "lp.MechanismLP", None, None, _lp_refused),
    ("lp", "lp_solve", "lp.lp_solve", _lp_solve_stats, _lp_pivots, None),
    ("lp", "optimal_revenue", "lp.optimal_revenue", _distinct(1, "n"), None, None),
    ("report", "AnalysisReport.to_json", "report.to_json", None, None, None),
    ("generators", "random_setting", "generators.random_setting", None, None, None),
    ("cli", "parse_config", "cli.parse_config", None, None, None),
    ("cli", "run_analysis", "cli.run_analysis", None, None, None),
    ("cli", "main", "cli.main", None, None, None),
]


def install(rec: Recorder) -> None:
    """Replace every target in every loaded auctionbench namespace."""
    namespaces = [m for k, m in list(sys.modules.items()) if k == "auctionbench" or k.startswith("auctionbench.")]
    for module_name, attr, span, before, after, on_error in TARGETS:
        module = importlib.import_module(f"auctionbench.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(rec, span, raw.__func__, before, after, on_error)))
            else:
                setattr(cls, meth, _wrap(rec, span, raw, before, after, on_error))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(rec, span, original, before, after, on_error)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
