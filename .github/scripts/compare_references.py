"""Compare the pass-0 references of two commits.

    python3 .github/scripts/compare_references.py PARENT.json CHANGE.json

Both files are written by `perfbench/make_references.py --out`.  Exits 1 if
any case changed status, unless it went from UNKNOWN to decided, or if the
two files do not cover the same workloads, seeds, items and case counts.
A change of report bytes (sha256) is printed but does not fail.
"""

from __future__ import annotations

import json
import sys


def case_statuses(entry: list) -> dict[int, str]:
    """Index -> status for the cases that were not TRUE."""
    _, _, _, false_cases, unknown_cases = entry
    return {**{i: "false" for i in false_cases}, **{i: "unknown" for i in unknown_cases}}


def compare(parent: dict, change: dict) -> tuple[list[str], list[str]]:
    """(status changes that fail, report-byte changes that are only listed)."""
    failures: list[str] = []
    notes: list[str] = []
    for workload in sorted(set(parent) | set(change)):
        old_seeds, new_seeds = parent.get(workload, {}), change.get(workload, {})
        for seed in sorted(set(old_seeds) | set(new_seeds)):
            where = f"{workload} seed {seed}"
            if seed not in old_seeds or seed not in new_seeds:
                failures.append(f"{where}: only in one of the two files")
                continue
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
    return failures, notes


def main() -> int:
    with open(sys.argv[1]) as fh:
        parent = json.load(fh)
    with open(sys.argv[2]) as fh:
        change = json.load(fh)
    failures, notes = compare(parent, change)
    for line in notes + failures:
        print(line)
    print(f"{len(failures)} status changes, {len(notes)} report-byte changes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
