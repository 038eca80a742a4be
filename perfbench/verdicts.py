"""The verdict check behind `failed` and `fail_rate`.

A reference holds, for one workload at one seed, what the seed commit
produced on pass 0: the sha256 of the report bytes, and per suite item the
pass/fail/unknown counts with the indices of every case that was not TRUE.

A case counts as failed when:
- it is FALSE, unless it belongs to an axiom item whose FALSE verdict is
  the documented result (`EXPECTED_DIVERGENT`).  In an equivalence item a
  FALSE is a disagreement or a failed witness revalidation; in the corpus
  workload it is a failed round trip or expansion.
- it differs from the reference in any way other than UNKNOWN -> decided.
An UNKNOWN -> decided change and a change of report bytes are listed, not
failed.  A pass that raised counts as one failed case (see run.py).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from relcheck.verifier.report import FALSE, TRUE, UNKNOWN

# The two printed FTL substitutions that the canonical FTL structure
# falsifies.  Fixed here rather than read from the package, so that widening
# the package's own list cannot hide a wrong verdict from the benchmark.
EXPECTED_DIVERGENT = {("axioms", "AxSimFTL"), ("axioms", "AxUnObFTL")}


def statuses(cases: list[tuple]) -> dict[str, dict[int, str]]:
    """Per `suite/item` key, case index -> status, from CaseStamps rows."""
    out: dict[str, dict[int, str]] = defaultdict(dict)
    for suite, item, index, status, *_ in cases:
        out[f"{suite}/{item}"][index] = status
    return dict(out)


def make_reference(cases: list[tuple], sha256: str) -> dict:
    """Per item: [pass, fail, unknown, indices of FALSE cases, indices of UNKNOWN cases]."""
    items = {}
    for key, by_index in statuses(cases).items():
        values = list(by_index.values())
        items[key] = [
            values.count(TRUE),
            values.count(FALSE),
            values.count(UNKNOWN),
            sorted(i for i, s in by_index.items() if s == FALSE),
            sorted(i for i, s in by_index.items() if s == UNKNOWN),
        ]
    return {"sha256": sha256, "items": items}


@dataclass
class Check:
    failed: set = field(default_factory=set)  # (key, index) of failed cases
    problems: list[str] = field(default_factory=list)
    listed: list[str] = field(default_factory=list)

    def fail(self, key: str, index, why: str) -> None:
        if (key, index) not in self.failed:
            self.failed.add((key, index))
            if len(self.problems) < 20:
                self.problems.append(f"{key} case {index}: {why}")


def check(cases: list[tuple], sha256: str, reference: Optional[dict]) -> Check:
    """Check one pass against the rules above; `reference` may be None."""
    out = Check()
    seen = statuses(cases)
    for key, by_index in seen.items():
        suite, item = key.split("/", 1)
        for index, status in by_index.items():
            if status == FALSE and (suite, item) not in EXPECTED_DIVERGENT:
                out.fail(key, index, "FALSE verdict")
    if reference is None:
        return out
    for key, (passed, failed, unknown, false_cases, unknown_cases) in reference["items"].items():
        by_index = seen.get(key, {})
        total = passed + failed + unknown
        for index in range(total):
            want = FALSE if index in false_cases else UNKNOWN if index in unknown_cases else TRUE
            got = by_index.get(index)
            if got == want:
                continue
            if got is None:
                out.fail(key, index, "case missing")
            elif want == UNKNOWN:
                out.listed.append(f"{key} case {index}: unknown -> {got}")
            else:
                out.fail(key, index, f"{want} -> {got}")
        for index in sorted(set(by_index) - set(range(total))):
            out.fail(key, index, "case not in the reference")
    for key in sorted(set(seen) - set(reference["items"])):
        for index in seen[key]:
            out.fail(key, index, "item not in the reference")
    if sha256 != reference["sha256"]:
        out.listed.append("report bytes differ from the reference")
    return out
