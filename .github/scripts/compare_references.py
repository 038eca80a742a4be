"""Compare the pass-0 references of two commits.

    python3 .github/scripts/compare_references.py PARENT.json CHANGE.json

Both files are written by `perfbench/make_references.py --out`.  Prints
the usage and exits 2 unless given two files it can read.  Exits 1 if
any case changed status, unless it went from UNKNOWN to decided, or if the
two files do not cover the same workloads, seeds, items and case counts.
A change of report bytes (sha256) is printed but does not fail, and so is
a last line "report bytes identical on K of N workload-seeds".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def case_statuses(entry: list) -> dict[int, str]:
    """Index -> status for the cases that were not TRUE."""
    _, _, _, false_cases, unknown_cases = entry
    return {**{i: "false" for i in false_cases}, **{i: "unknown" for i in unknown_cases}}


def compare(parent: dict, change: dict) -> tuple[list[str], list[str], int]:
    """(status changes that fail, report-byte changes that are only listed,
    the number of workload-seeds in both files)."""
    failures: list[str] = []
    notes: list[str] = []
    both = 0
    for workload in sorted(set(parent) | set(change)):
        old_seeds, new_seeds = parent.get(workload, {}), change.get(workload, {})
        for seed in sorted(set(old_seeds) | set(new_seeds)):
            where = f"{workload} seed {seed}"
            if seed not in old_seeds or seed not in new_seeds:
                failures.append(f"{where}: only in one of the two files")
                continue
            both += 1
            old, new = old_seeds[seed], new_seeds[seed]
            if old["sha256"] != new["sha256"]:
                notes.append(f"{where}: report bytes differ ({old['sha256'][:12]} -> {new['sha256'][:12]})")
            for item in sorted(set(old["items"]) | set(new["items"])):
                if item not in old["items"] or item not in new["items"]:
                    failures.append(f"{where} {item}: only in one of the two files")
                    continue
                before, after = old["items"][item], new["items"][item]
                if sum(before[:3]) != sum(after[:3]):
                    failures.append(f"{where} {item}: {sum(before[:3])} cases -> {sum(after[:3])}")
                    continue
                was, now = case_statuses(before), case_statuses(after)
                for index in sorted(set(was) | set(now)):
                    a, b = was.get(index, "true"), now.get(index, "true")
                    if a != b and a != "unknown":
                        failures.append(f"{where} {item} case {index}: {a} -> {b}")
    return failures, notes, both


USAGE = "usage: python3 .github/scripts/compare_references.py PARENT.json CHANGE.json"


def main() -> int:
    if len(sys.argv) != 3:
        print(USAGE, file=sys.stderr)
        return 2
    try:
        parent, change = (json.loads(Path(name).read_text()) for name in sys.argv[1:])
    except OSError as exc:
        print(f"compare_references.py: {exc}\n{USAGE}", file=sys.stderr)
        return 2
    failures, notes, both = compare(parent, change)
    for line in notes + failures:
        print(line)
    print(f"{len(failures)} status changes, {len(notes)} report-byte changes")
    print(f"report bytes identical on {both - len(notes)} of {both} workload-seeds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
