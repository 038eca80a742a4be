"""Three-valued verdicts, budgets, and deterministic suite reports."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from relcheck.minkowski import Line, Segment, Vec4

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Budget:
    max_witness_candidates: int = 64
    coordinate_bound: int = 8
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "max_witness_candidates": self.max_witness_candidates,
            "coordinate_bound": self.coordinate_bound,
            "seed": self.seed,
        }


def sub_seed(seed: int, *parts: object) -> int:
    """Stable per-case seed (never Python's salted hash)."""
    text = ":".join([str(seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def serialize_entity(value: Any) -> Any:
    if isinstance(value, Line):
        return {
            "base": [c.render() for c in value.base],
            "dir": [c.render() for c in value.dir],
        }
    if isinstance(value, Segment):
        return {
            "beg": [c.render() for c in value.beg],
            "end": [c.render() for c in value.end],
        }
    if isinstance(value, Vec4):
        return [c.render() for c in value]
    if isinstance(value, bool) or value is None:
        return value
    return str(value)


class Verdict:
    """TRUE/FALSE verdicts carry replayable bindings; UNKNOWN carries why."""

    __slots__ = ("status", "witness", "reason")

    def __init__(
        self,
        status: str,
        witness: Optional[dict[str, Any]] = None,
        reason: Optional[str] = None,
    ) -> None:
        assert status in (TRUE, FALSE, UNKNOWN)
        self.status = status
        self.witness = witness
        self.reason = reason

    @staticmethod
    def true(witness: Optional[dict[str, Any]] = None) -> "Verdict":
        return Verdict(TRUE, witness=witness)

    @staticmethod
    def false(witness: Optional[dict[str, Any]] = None) -> "Verdict":
        return Verdict(FALSE, witness=witness)

    @staticmethod
    def unknown(reason: str) -> "Verdict":
        return Verdict(UNKNOWN, reason=reason)

    def is_true(self) -> bool:
        return self.status == TRUE

    def is_false(self) -> bool:
        return self.status == FALSE

    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def negate(self) -> "Verdict":
        if self.is_true():
            return Verdict(FALSE, witness=self.witness)
        if self.is_false():
            return Verdict(TRUE, witness=self.witness)
        return self

    def __repr__(self) -> str:
        return f"Verdict({self.status})"


@dataclass
class ItemResult:
    name: str
    cases: int = 0
    passed: int = 0
    failed: int = 0
    unknown: int = 0
    expected_divergence: bool = False
    failures: list[dict] = field(default_factory=list)  # {"case": index, **detail}
    unknowns: list[dict] = field(default_factory=list)

    def record(self, index: int, verdict_status: str, detail: Optional[dict] = None) -> None:
        self.cases += 1
        if verdict_status == TRUE:
            self.passed += 1
        elif verdict_status == FALSE:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"case": index, **(detail or {})})
        else:
            self.unknown += 1
            if len(self.unknowns) < 5:
                self.unknowns.append({"case": index, **(detail or {})})

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "cases": self.cases,
            "pass": self.passed,
            "fail": self.failed,
            "unknown": self.unknown,
        }
        if self.expected_divergence:
            out["expected_divergence"] = True
        if self.failures:
            out["failures"] = self.failures
        if self.unknowns:
            out["unknowns"] = self.unknowns
        return out


class SuiteReport:
    def __init__(
        self,
        suite: str,
        model_kind: str,
        budget: Budget,
        corpus_version: str,
        system: Optional[str] = None,
    ) -> None:
        self.suite = suite
        self.system = system
        self.model_kind = model_kind
        self.budget = budget
        self.corpus_version = corpus_version
        self.items: list[ItemResult] = []
        self.wall_time: Optional[float] = None
        self._start = time.monotonic()

    def item(self, name: str, expected_divergence: bool = False) -> ItemResult:
        it = ItemResult(name=name, expected_divergence=expected_divergence)
        self.items.append(it)
        return it

    def finish(self) -> "SuiteReport":
        self.wall_time = time.monotonic() - self._start
        return self

    @property
    def total_failed(self) -> int:
        return sum(i.failed for i in self.items)

    @property
    def total_unknown(self) -> int:
        return sum(i.unknown for i in self.items)

    def gate_failed(self) -> int:
        """Failures excluding items marked as expected divergences."""
        return sum(i.failed for i in self.items if not i.expected_divergence)

    def as_dict(self) -> dict:
        # wall time is intentionally not serialized: identical seed, budget
        # and corpus must give byte-identical reports
        out = {
            "suite": self.suite,
            "model": self.model_kind,
            "budget": self.budget.as_dict(),
            "corpus_version": self.corpus_version,
            "items": [i.as_dict() for i in self.items],
            "totals": {
                "cases": sum(i.cases for i in self.items),
                "pass": sum(i.passed for i in self.items),
                "fail": self.total_failed,
                "unknown": self.total_unknown,
            },
        }
        if self.system:
            out["system"] = self.system
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=1) + "\n"

    def summary_lines(self) -> list[str]:
        width = max((len(i.name) for i in self.items), default=4)
        lines = [f"{'item'.ljust(width)}  cases   pass   fail  unknown"]
        for i in self.items:
            mark = " (expected divergence)" if i.expected_divergence and i.failed else ""
            lines.append(
                f"{i.name.ljust(width)}  {i.cases:5d}  {i.passed:5d}  {i.failed:5d}"
                f"  {i.unknown:7d}{mark}"
            )
        return lines
