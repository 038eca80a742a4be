"""Tests of the repository's helper scripts under .github/scripts."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / ".github" / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_references = _load("compare_references")

# an item's entry: TRUE, FALSE and UNKNOWN counts, then the FALSE and the
# UNKNOWN case indices; here case 1 is FALSE, case 3 UNKNOWN, 0 and 2 TRUE
ITEM = "equivalence-ftl/Bw"
ENTRY = [2, 1, 1, [1], [3]]


def _refs(entry=ENTRY, seeds=("0", "1"), sha="same"):
    return {"crosscheck": {seed: {"sha256": sha if seed == "0" else "same", "items": {ITEM: entry}}
                           for seed in seeds}}


def test_compare_references_passes_identical_files():
    assert compare_references.compare(_refs(), _refs()) == ([], [], 2)


def test_compare_references_fails_a_decided_status_change():
    failures, _, _ = compare_references.compare(_refs(), _refs([1, 2, 1, [0, 1], [3]]))
    assert failures == [f"crosscheck seed 0 {ITEM} case 0: true -> false",
                        f"crosscheck seed 1 {ITEM} case 0: true -> false"]


def test_compare_references_passes_unknown_to_decided():
    assert compare_references.compare(_refs(), _refs([3, 1, 0, [1], []])) == ([], [], 2)


def test_compare_references_fails_a_missing_seed():
    failures, _, both = compare_references.compare(_refs(), _refs(seeds=("0",)))
    assert failures == ["crosscheck seed 1: only in one of the two files"] and both == 1


def test_compare_references_fails_a_changed_case_count():
    failures, _, _ = compare_references.compare(_refs(), _refs([3, 1, 1, [1], [3]]))
    assert failures == [f"crosscheck seed {seed} {ITEM}: 4 cases -> 5" for seed in ("0", "1")]


def test_compare_references_prints_identical_report_bytes_last(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(_refs()))
    change.write_text(json.dumps(_refs(sha="moved")))
    monkeypatch.setattr(sys, "argv", ["compare_references.py", str(parent), str(change)])
    assert compare_references.main() == 0  # a report-byte change is printed, not failed
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "crosscheck seed 0: report bytes differ (same -> moved)"
    assert lines[-1] == "report bytes identical on 1 of 2 workload-seeds"
    change.write_text(json.dumps(_refs([1, 2, 1, [0, 1], [3]])))
    assert compare_references.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == "report bytes identical on 2 of 2 workload-seeds"
