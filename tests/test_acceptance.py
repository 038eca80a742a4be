"""Acceptance gate: every criterion at its stated size and tolerance.

Exact arithmetic means zero tolerance everywhere.  Each test prints one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they complete).
"""

import os
import random
import time
from fractions import Fraction

import pytest

from relcheck.corpus import (
    SYSTEM_SIMPLEREL,
    SYSTEM_SIMPLERELFTL,
    corpus_dir,
    load_axioms,
    load_definitions,
)
from relcheck.fol import atoms_used, expand_defined, parse_formula, render_formula
from relcheck.minkowski import Line, Vec4
from relcheck.model import ModelKind, count_future_null_to_line, witness_zero_and_two
from relcheck.scalar import ScalarContext
from relcheck.verifier.evaluate import EvalModel, evaluate_bounded
from relcheck.verifier.generators import ConfigGen
from relcheck.verifier.report import Budget
from relcheck.verifier.suites import (
    CRITERION6_PREDICATES,
    run_axiom_suite,
    run_equivalence_suite,
    run_lemma_suite,
    invariance_suite,
)

SEED = 20260808

CRITERION2_GATE = [
    "AxIsoFTL", "AxUnSiFTL", "AxFTL1", "AxFTL2", "AxFTL3", "AxFTL4",
    "AxSTL", "AxEv", "AxTime", "AxObUnique", "AxRR", "AxLim",
]


def _report_line(n: int, ok: bool, text: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


def test_criterion_1_simplerel_axiom_suite():
    t0 = time.monotonic()
    rep = run_axiom_suite(
        SYSTEM_SIMPLEREL, ModelKind.STL_ONLY, Budget(seed=SEED), cases=500
    )
    elapsed = time.monotonic() - t0
    assert len(rep.items) == 30  # Tarski 1-12 + 5 continuity instances + 13 axioms
    zero_false = rep.total_failed == 0
    decided = sum(i.passed + i.failed for i in rep.items)
    total = sum(i.cases for i in rep.items)
    rate_ok = decided * 100 >= total * 95
    fast = elapsed < 300
    _report_line(
        1,
        zero_false and rate_ok and fast,
        f"SimpleRel: 30 families x 500 cases, {rep.total_failed} false,"
        f" decided {decided}/{total}, {elapsed:.1f}s",
    )


def test_criterion_2_simplerelftl_axiom_suite():
    rep = run_axiom_suite(
        SYSTEM_SIMPLERELFTL, ModelKind.FTL, Budget(seed=SEED + 1), cases=500
    )
    gate_items = [
        i for i in rep.items
        if i.name in CRITERION2_GATE or i.name.startswith("AxGeoFTL/")
    ]
    assert len(gate_items) == 17 + 12
    failed = sum(i.failed for i in gate_items)
    _report_line(
        2,
        failed == 0,
        f"SimpleRelFTL: {len(gate_items)} gated families x 500 cases, {failed} false",
    )


def test_criterion_3_axiso_negative_control():
    gen = ConfigGen(SEED + 2, 8)
    witnesses_ok = 0
    for _ in range(100):
        line = gen.spacelike_line()
        got = witness_zero_and_two(line)
        if got is None:
            continue
        p_zero, p_two = got
        if (
            count_future_null_to_line(p_zero, line) == 0
            and count_future_null_to_line(p_two, line) == 2
        ):
            witnesses_ok += 1
    rep = run_axiom_suite(
        SYSTEM_SIMPLEREL, ModelKind.FTL, Budget(seed=SEED + 3), cases=120,
        axioms=["AxIso"],
    )
    axiso_false = rep.items[0].failed > 0
    _report_line(
        3,
        witnesses_ok == 100 and axiso_false,
        f"per-observer 0/2-signal witnesses {witnesses_ok}/100;"
        f" plain AxIso false on the FTL structure ({rep.items[0].failed} cases)",
    )


def test_criterion_4_all_observers_stl_corollary():
    table = load_definitions()
    f = parse_formula("forall a:Ob. STL(a)", table.signatures())
    on_stl = evaluate_bounded(f, EvalModel(ModelKind.STL_ONLY, table=table))
    on_ftl = evaluate_bounded(f, EvalModel(ModelKind.FTL, table=table))
    ok = (
        on_stl.is_true()
        and on_ftl.is_false()
        and on_ftl.witness is not None
        and on_ftl.witness["a"].interval_class.value == "spacelike"
    )
    _report_line(
        4,
        ok,
        f"forall a. STL(a): {on_stl.status} on StlOnly, {on_ftl.status} with an"
        " FTL witness on Ftl",
    )


def test_criterion_5_lemma_suites():
    rep_stl = run_lemma_suite(ModelKind.STL_ONLY, Budget(seed=SEED + 4), cases=200)
    rep_ftl = run_lemma_suite(ModelKind.FTL, Budget(seed=SEED + 5), cases=200)
    names = {i.name for i in rep_stl.items} | {i.name for i in rep_ftl.items}
    assert "DefEquivLemma" in names and "AxLemma2" in names and "STLLemma1" in names
    failed = rep_stl.total_failed + rep_ftl.total_failed
    _report_line(
        5,
        failed == 0,
        f"{len(rep_stl.items)} + {len(rep_ftl.items)} lemmas x 200 cases, {failed} false",
    )


def test_criterion_6_definitional_equivalence():
    disagreements = 0
    low_rate = []
    for kind, seed in ((ModelKind.FTL, SEED + 6), (ModelKind.STL_ONLY, SEED + 7)):
        preds = CRITERION6_PREDICATES + ["Dual"]
        if kind is ModelKind.STL_ONLY:
            preds = [p for p in CRITERION6_PREDICATES if not p.endswith("FTL")]
        rep = run_equivalence_suite(kind, Budget(seed=seed), cases=200, predicates=preds)
        disagreements += rep.total_failed
        for item in rep.items:
            if item.unknown * 10 > item.cases:
                low_rate.append((kind.value, item.name, item.unknown))
    _report_line(
        6,
        disagreements == 0 and not low_rate,
        f"geometric vs expanded-definition: {disagreements} decided disagreements,"
        f" low-rate items {low_rate}",
    )


def test_criterion_7_poincare_invariance():
    rep = invariance_suite(ModelKind.FTL, Budget(seed=SEED + 8), configs=20)
    per_pred = min(
        (i.cases for i in rep.items if i.name != "non-isometry control"), default=0
    )
    _report_line(
        7,
        rep.total_failed == 0 and per_pred >= 100,
        f"{len(rep.items) - 1} predicates x {per_pred} isometry applications,"
        f" {rep.total_failed} changed verdicts",
    )


def test_criterion_8_corpus_roundtrip_and_expansion():
    table = load_definitions()
    sigs = table.signatures()
    files = [f for f in os.listdir(corpus_dir()) if f.endswith(".fol")]
    count_ok = len(files) >= 45
    roundtrip_ok = True
    expansion_ok = True
    for d in table.definitions.values():
        txt = render_formula(d.body)
        if parse_formula(txt, sigs, {v.name: v.sort for v in d.params}) != d.body:
            roundtrip_ok = False
    for system in (SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL):
        for ax in load_axioms(system, table=table):
            if parse_formula(render_formula(ax.formula), sigs) != ax.formula:
                roundtrip_ok = False
            flat = expand_defined(ax.formula, table)
            if not atoms_used(flat) <= {"T", "R", "="}:
                expansion_ok = False
    _report_line(
        8,
        count_ok and roundtrip_ok and expansion_ok,
        f"{len(files)} corpus files; parse after render is the identity;"
        " full expansion leaves only T, R, = atoms",
    )


def test_criterion_9_scalar_suites_and_determinism():
    rng = random.Random(SEED)
    ctx = ScalarContext()
    field_ok = True
    for _ in range(1000):
        a = ctx.rat(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        b = ctx.rat(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        c = ctx.rat(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        if a + (-a) != 0 or a * (b + c) != a * b + a * c:
            field_ok = False
        if not a.is_zero() and a * a.inverse() != 1:
            field_ok = False
        if a < b and not (a + c < b + c):
            field_ok = False
        if a > 0 and b > 0 and not (a * b > 0):
            field_ok = False
    sqrt_ok = True
    for _ in range(500):
        ctx2 = ScalarContext()
        base = ctx2.rat(Fraction(rng.randint(0, 60), rng.randint(1, 9)))
        extra = rng.choice([None, 2, 3, 5, 7])
        val = base if extra is None else base + ctx2.sqrt(ctx2.rat(extra))
        s = ctx2.sqrt(val)
        if s * s != val or s.sign() < 0:
            sqrt_ok = False
    rep_a = run_lemma_suite(ModelKind.STL_ONLY, Budget(seed=SEED + 9), cases=30)
    rep_b = run_lemma_suite(ModelKind.STL_ONLY, Budget(seed=SEED + 9), cases=30)
    deterministic = rep_a.to_json() == rep_b.to_json()
    _report_line(
        9,
        field_ok and sqrt_ok and deterministic,
        "1000-case field/order identities, 500-case sqrt(a)^2 = a,"
        " byte-identical seeded reports",
    )
