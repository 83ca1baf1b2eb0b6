"""The verdict rule, check records and the JSON-serializable analysis report."""

from __future__ import annotations

import json

import numpy as np

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

# Combined absolute-plus-relative tolerance used by every inequality check.
CHECK_TOL = 1e-9


def holds_leq(lhs: float, rhs: float, tol: float = CHECK_TOL) -> bool:
    """lhs <= rhs up to absolute-plus-relative tolerance `tol`."""
    return bool(rhs - lhs >= -tol * max(1.0, abs(lhs), abs(rhs)))


@dataclass(frozen=True)
class CheckRecord:
    """One verified inequality: lhs <= rhs with its slack.

    `statement` spells out the inequality being checked so a failing report
    is self-documenting.  `holds` may be None for not-applicable checks.
    """

    name: str
    statement: str
    lhs: float
    rhs: float
    holds: bool | None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @classmethod
    def leq(cls, name: str, statement: str, lhs: float, rhs: float, tol: float = CHECK_TOL) -> "CheckRecord":
        return cls(name, statement, lhs, rhs, holds_leq(lhs, rhs, tol))

    def as_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["slack"] = self.slack
        return d


def all_hold(checks: Iterable[CheckRecord]) -> bool:
    """Every applicable check holds; a check whose `holds` is None is not applicable."""
    return all(c.holds for c in checks if c.holds is not None)


def verdict(holds: bool | None) -> str:
    """The word a report prints for a check's `holds`."""
    return "n/a" if holds is None else ("ok" if holds else "FAIL")


@dataclass
class AnalysisReport:
    """Everything the analyze command computed, plus per-check verdicts."""

    scalars: dict[str, float | int | None] = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "scalars": dict(sorted(self.scalars.items())),
            "checks": [c.as_dict() for c in self.checks],
            "all_hold": all_hold(self.checks),
        }

    def to_json(self) -> str:
        return json.dumps(_round_floats(self.as_dict()), indent=2, sort_keys=True)


def _round_floats(obj: Any) -> Any:
    """Emit floats with 12 significant digits for a platform-stable report."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj
