"""Tests of the repository's helper scripts under .github/scripts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / ".github" / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
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


@pytest.mark.parametrize("argv", [["--help"], ["parent.json"], ["missing.json", "change.json"]])
def test_compare_references_prints_its_usage_on_bad_arguments(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "change.json").write_text(json.dumps(_refs()))
    monkeypatch.setattr(sys, "argv", ["compare_references.py", *argv])
    assert compare_references.main() == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == compare_references.USAGE
    assert len(argv) != 2 or "missing.json" in err[0]


def test_code_lines_counts_no_blank_comment_or_docstring_line():
    source = '''"""Module
docstring."""

# a comment
import os  # a trailing comment


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a
        docstring"""
        return text
'''
    # import, class, def, the two lines of the string that is not a
    # docstring, and return
    assert code_lines.code_lines(source) == 6


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
                    *args], cwd=repo, check=True, capture_output=True)


def test_code_lines_compares_two_revisions(tmp_path, monkeypatch, capsys):
    """Two revisions give both counts per module, a module missing from one
    counting 0 there, and the code-line difference; a revision git cannot
    read is named on one line, with exit code 2."""
    package = tmp_path / "src" / "relcheck"
    package.mkdir(parents=True)
    _git(tmp_path, "init", "-q")
    (package / "a.py").write_text('"""Doc."""\nx = 1\n')
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "one")
    (package / "a.py").write_text('"""Doc."""\nx = 1\n\ny = 2\n')
    (package / "b.py").write_text("z = 3\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "two")
    monkeypatch.chdir(tmp_path)
    assert code_lines.main(["code_lines.py", "HEAD^", "HEAD"]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"src/relcheck/a.py": ["2", "1", "4", "2", "+1"],
                    "src/relcheck/b.py": ["0", "0", "1", "1", "+1"],
                    "total": ["2", "1", "5", "3", "+2"]}
    for argv in (["nosuchrev"], ["--help"], ["HEAD", "nosuchrev"]):
        assert code_lines.main(["code_lines.py", *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(argv[-1]) in err[0]
