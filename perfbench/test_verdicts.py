"""The verdict check can fail.

    python3 -m pytest -q perfbench/test_verdicts.py

Each test changes one verdict in a reference, or in what a pass observed,
and requires the check to count exactly the cases the rules say.
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from probe import CaseStamps  # noqa: E402
from run import load_reference  # noqa: E402
from verdicts import check, make_reference  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402


def _pass(workload: str, seed: int, cases=None):
    stamps = CaseStamps()
    stamps.install()
    try:
        return run_pass(WORKLOADS[workload], seed, stamps, cases=cases)
    finally:
        stamps.uninstall()


def _flip(reference: dict, key: str, index: int, to: str) -> dict:
    """A copy of `reference` whose case `index` of item `key` has verdict `to`."""
    out = copy.deepcopy(reference)
    counts = out["items"][key]
    slot = {"true": 0, "false": 1, "unknown": 2}
    was = "false" if index in counts[3] else "unknown" if index in counts[4] else "true"
    counts[slot[was]] -= 1
    counts[slot[to]] += 1
    for status, cases in (("false", counts[3]), ("unknown", counts[4])):
        if was == status:
            cases.remove(index)
        if to == status:
            cases.append(index)
    return out


def test_stored_reference_fails_when_one_verdict_is_flipped():
    result = _pass("corpus-expand", 0)
    reference = load_reference("corpus-expand", 0)
    assert result.error is None
    assert not check(result.cases, result.sha256, reference).failed
    got = check(result.cases, result.sha256, _flip(reference, "corpus/expand", 5, "false"))
    assert got.failed == {("corpus/expand", 5)}


def test_suite_pass_against_its_own_reference():
    result = _pass("ftl-axioms", 3, cases=2)
    assert result.error is None
    reference = make_reference(result.cases, result.sha256)
    assert not check(result.cases, result.sha256, reference).failed
    key = "axioms/AxSTL"
    got = check(result.cases, result.sha256, _flip(reference, key, 1, "false"))
    assert got.failed == {(key, 1)}
    # the program now answers UNKNOWN where it decided before
    undecided = [c[:3] + ("unknown",) + c[4:] if c[1] == "AxSTL" and c[2] == 1 else c
                 for c in result.cases]
    assert check(undecided, result.sha256, reference).failed == {(key, 1)}
    assert check(result.cases[:-1], result.sha256, reference).failed == {
        (f"{result.cases[-1][0]}/{result.cases[-1][1]}", result.cases[-1][2])}


def test_unknown_to_decided_is_listed_not_failed():
    rows = [("axioms", "AxSTL", 0, "true", 0.0, 0, 1), ("axioms", "AxSTL", 1, "true", 0.0, 0, 2)]
    reference = _flip(make_reference(rows, "x"), "axioms/AxSTL", 1, "unknown")
    got = check(rows, "y", reference)
    assert not got.failed
    assert "axioms/AxSTL case 1: unknown -> true" in got.listed
    assert "report bytes differ from the reference" in got.listed


def test_false_fails_outside_the_expected_divergent_items():
    rows = [
        ("axioms", "AxSimFTL", 0, "false", 0.0, 0, 1),
        ("axioms", "AxSim", 0, "false", 0.0, 0, 2),
        ("equivalence-ftl", "Dual", 0, "false", 0.0, 0, 3),
    ]
    got = check(rows, "x", None)
    assert got.failed == {("axioms/AxSim", 0), ("equivalence-ftl/Dual", 0)}
    # an expected-divergent FALSE that turns TRUE is a changed verdict
    reference = make_reference(rows, "x")
    turned = [("axioms", "AxSimFTL", 0, "true", 0.0, 0, 1)] + rows[1:]
    assert ("axioms/AxSimFTL", 0) in check(turned, "x", reference).failed
