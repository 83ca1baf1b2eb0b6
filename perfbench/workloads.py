"""The four workloads: seeded inputs and the ops that run on them.

Inputs come from a stdlib ``random.Random`` keyed by the workload seed, so
the same seed gives the same inputs on every platform and numpy version.
The program only sees generated config files (CLI ops) or settings built
from generated atoms (LP ops).  An op is a plain dict, so the orchestrator
and the worker can exchange it.

Why these workloads (each leaves most of its time in a different layer):

- ``exact_ladder``: exact ``analyze`` on the m x atoms rungs 2x16 and 4x6
  at n=2, n'=40.  The dist / iu / decomposition hot path.  The LP is
  refused here (too many profiles), so lp does almost no work.
- ``mc_many_items``: ``analyze --mode mc`` on the near-uniform many-item
  profile (m=4, 200k samples, and an m=16 copy at 20k samples).  Only the
  Monte-Carlo estimator is busy; the exact chain never runs.
- ``lp_oracle``: ``optimal_revenue`` on seeded draws at 16 and 64 bidder
  profiles plus one pinned 256-profile instance.  Only the lp layer is busy.
  Its defect probes (``lp_defects``) run apart from the timed passes.
- ``verify_sweep``: many ``verify`` invocations over small random settings,
  so per-call overhead in every exact layer dominates.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned"

WORKLOADS = ("exact_ladder", "mc_many_items", "lp_oracle", "verify_sweep")
# pinned LP instances that fail at the seed commit
PINNED_DEFECTS = ("gap", "stall")

# Inputs are drawn for the whole ladder, so a rung's instance does not depend
# on which rungs are timed.  2x32, 3x12 and 6x4 are drawn but not run: a pass
# over all five took 20-40 s and one over 2x16, 2x32 and 4x6 about 7.5 s on a
# shared 2-core machine, too few passes per run for a steady median.  A pass
# over 2x16 and 4x6 takes about 4.5 s.
LADDER = ((2, 16), (2, 32), (3, 12), (4, 6), (6, 4))
TIMED_RUNGS = ((2, 16), (4, 6))

# the item of configs/near_uniform_many_items.json, frozen here so the
# workload does not move if that sample config is edited
NEAR_UNIFORM_ITEM = {"values": ["1", "1.25"], "probs": ["0.75", "0.25"]}

# (atoms per item, n, draws): 4^2 = (2*2)^2 = 16 and 8^2 = (2*2)^3 = 4^3 = 64
# profiles.  Most draws go to the two 64-profile shapes that pivot the most.
LP_SHAPES = (((4,), 2, 1), ((2, 2), 2, 1), ((8,), 2, 8), ((2, 2), 3, 8), ((4,), 3, 2))
# At the seed commit about half of the seeds draw an instance of this shape
# that fails (LPNumericalFailure, or cycling until killed at its deadline), so
# its draws are defect probes, not timed ops: in the timed passes a seed's
# failures, not the solver's speed, would set the pass time.
DEFECT_SHAPE = ((8,), 2)

VERIFY_OPS = 12
VERIFY_COUNT = 100  # settings per verify invocation

# per-op deadlines (s); an op past its deadline is killed and counted failed.
# LP deadlines go by profile count, five to ten times the slowest healthy
# solve seen on a loaded 2-core machine: some 64-profile draws cycle until
# MaxIterations (~15 s) at the seed commit.
DEADLINE = {"exact_ladder": 120.0, "mc_many_items": 60.0, "verify_sweep": 20.0}
LP_DEADLINE = {16: 2.0, 64: 2.0, 256: 30.0}


def _item(r: random.Random, atoms: int, vmax: int) -> dict:
    values = sorted(r.sample(range(1, vmax), atoms))
    weights = [r.random() + 0.05 for _ in range(atoms)]
    total = sum(weights)
    return {"values": values, "probs": [w / total for w in weights]}


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return str(path)


def _analyze(op_id: str, path: str, deadline: float) -> dict:
    return {"id": op_id, "kind": "cli", "argv": ["analyze", "--config", path, "--format", "json"],
            "deadline": deadline}


def exact_ladder(seed: int, workdir: Path) -> list[dict]:
    r = random.Random(f"exact_ladder/{seed}")
    ops = []
    for m, atoms in LADDER:
        cfg = {"items": [_item(r, atoms, 1000) for _ in range(m)], "n": 2, "epsilon": 1,
               "n_prime": 40, "mode": "exact", "seed": seed}
        if (m, atoms) in TIMED_RUNGS:
            op_id = f"{m}x{atoms}"
            ops.append(_analyze(op_id, _write(workdir / f"ladder_{op_id}.json", cfg), DEADLINE["exact_ladder"]))
    return ops


def mc_many_items(seed: int, workdir: Path) -> list[dict]:
    base = {"n": 1, "epsilon": "0.25", "n_prime": 8, "mode": "monte_carlo"}
    # two m=4 ops on different sampling seeds: two estimates checked per pass
    m4a = dict(base, items=[NEAR_UNIFORM_ITEM] * 4, samples=200_000, seed=3 * seed)
    m4b = dict(m4a, seed=3 * seed + 1)
    m16 = dict(base, items=[NEAR_UNIFORM_ITEM] * 16, samples=20_000, seed=3 * seed + 2,
               caps={"product_support": 2**16})
    deadline = DEADLINE["mc_many_items"]
    return [
        _analyze("m4a", _write(workdir / "mc_m4a.json", m4a), deadline),
        _analyze("m4b", _write(workdir / "mc_m4b.json", m4b), deadline),
        _analyze("m16", _write(workdir / "mc_m16.json", m16), deadline),
    ]


def _profiles(atoms, n: int) -> int:
    valuations = 1
    for a in atoms:
        valuations *= a
    return valuations**n


def _lp_op(op_id: str, items: list[dict], n: int) -> dict:
    deadline = LP_DEADLINE[_profiles([len(it["values"]) for it in items], n)]
    return {"id": op_id, "kind": "lp", "items": items, "n": n, "deadline": deadline}


def _lp_draws(seed: int) -> tuple[list[dict], list[dict]]:
    """The seed's LP draws: (timed ops, defect probes)."""
    r = random.Random(f"lp_oracle/{seed}")
    timed, probes = [], []
    for atoms, n, draws in LP_SHAPES:
        shape = f"p{_profiles(atoms, n)}_{'x'.join(map(str, atoms))}_n{n}"
        ops = [_lp_op(f"{shape}_{k}", [_item(r, a, 100) for a in atoms], n) for k in range(draws)]
        (probes if (atoms, n) == DEFECT_SHAPE else timed).extend(ops)
    return timed, probes


def lp_oracle(seed: int, workdir: Path) -> list[dict]:
    return _lp_draws(seed)[0] + [pinned_op("lp256")]


def lp_defects(seed: int, workdir: Path) -> list[dict]:
    return _lp_draws(seed)[1] + [pinned_op(name) for name in PINNED_DEFECTS]


def pinned_op(name: str) -> dict:
    spec = json.loads((PINNED / f"{name}.json").read_text())
    return _lp_op(f"pinned_{name}", spec["items"], spec["n"])


def verify_sweep(seed: int, workdir: Path) -> list[dict]:
    deadline = DEADLINE["verify_sweep"]
    return [
        {"id": f"verify_{k}", "kind": "cli", "deadline": deadline,
         "argv": ["verify", "--seed", str(seed * 1000 + k), "--count", str(VERIFY_COUNT)]}
        for k in range(VERIFY_OPS)
    ]


def smoke_subset(workload: str, ops: list[dict]) -> list[dict]:
    """One op per workload at the smallest rung, for the smoke mode."""
    first = {"exact_ladder": "2x16", "mc_many_items": "m4a", "lp_oracle": "p16_4_n2_0",
             "verify_sweep": "verify_0"}[workload]
    return [op for op in ops if op["id"] == first]


def make_ops(workload: str, seed: int, workdir: Path) -> list[dict]:
    return globals()[workload](seed, workdir)
