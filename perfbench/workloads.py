"""The four workloads, each as one pass of public relcheck calls.

A pass runs its cases back to back in this process, as `relcheck verify`
runs them.  The program gets only a `Budget(seed=...)` and the generated
inputs.  Pass 0 of a run uses the run's seed itself.  Later passes use
seeds derived from it, so that no case repeats inside a run.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from relcheck.corpus import SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL, load_axioms, load_definitions
from relcheck.fol import atoms_used, expand_defined, parse_formula, render_formula
from relcheck.model import ModelKind
from relcheck.verifier import suites
from relcheck.verifier.report import FALSE, TRUE, Budget, sub_seed

STL, FTL = ModelKind.STL_ONLY, ModelKind.FTL
STL_EQUIVALENCE = [p for p in suites.CRITERION6_PREDICATES if not p.endswith("FTL")]


@dataclass
class PassResult:
    seed: int
    cases: list[tuple] = field(default_factory=list)  # CaseStamps rows
    wall: float = 0.0
    sha256: str = ""
    error: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: int  # cases per suite item in pass 0, the pass with a reference
    topup: int  # cases per suite item in later passes, which fill the time
    run: Callable  # (budget_seed, cases, stamps, tracer) -> bytes to hash


def pass_seed(seed: int, k: int) -> int:
    return seed if k == 0 else sub_seed(seed, "pass", k)


def _suites(*parts: tuple[str, Callable]) -> Callable:
    def run(budget_seed, cases, stamps, tracer):
        budget = Budget(seed=budget_seed)
        out = []
        for label, call in parts:
            stamps.suite = label
            with tracer.span("suite:" + label, "verifier") if tracer else nullcontext():
                out.append(call(budget, cases).to_json())
        return "".join(out).encode()

    return run


def _corpus_expand(budget_seed, cases, stamps, tracer):
    """Round-trip the corpus and fully expand every axiom (criterion 8).

    The corpus is fixed, so `cases` is unused; the seed orders the axioms."""
    table = load_definitions()
    sigs = table.signatures()
    for d in table.definitions.values():
        params = {v.name: v.sort for v in d.params}
        if parse_formula(render_formula(d.body), sigs, params) != d.body:
            raise AssertionError(f"definition {d.name} does not survive render then parse")
    axioms = [
        (f"{system}/{ax.name}", ax)
        for system in (SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL)
        for ax in load_axioms(system, table=table)
    ]
    order = list(range(len(axioms)))
    random.Random(budget_seed).shuffle(order)
    texts = [""] * len(axioms)
    stamps.suite = "corpus"
    stamps.begin_item("expand")
    for index in order:
        name, ax = axioms[index]
        same = parse_formula(render_formula(ax.formula), sigs) == ax.formula
        flat = expand_defined(ax.formula, table)
        texts[index] = render_formula(flat)
        ok = same and atoms_used(flat) <= {"T", "R", "="}
        stamps.end_case("expand", index, TRUE if ok else FALSE, seed=name)
    return "\n".join(texts).encode()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stl-axioms", 40, 10,
            _suites(("axioms", lambda b, n: suites.run_axiom_suite(SYSTEM_SIMPLEREL, STL, b, cases=n))),
        ),
        Workload(
            "ftl-axioms", 40, 10,
            _suites(("axioms", lambda b, n: suites.run_axiom_suite(SYSTEM_SIMPLERELFTL, FTL, b, cases=n))),
        ),
        Workload(
            "crosscheck", 10, 5,
            _suites(
                ("equivalence-ftl", lambda b, n: suites.run_equivalence_suite(FTL, b, cases=n)),
                ("equivalence-stl", lambda b, n: suites.run_equivalence_suite(
                    STL, b, cases=n, predicates=STL_EQUIVALENCE)),
                ("lemmas-stl", lambda b, n: suites.run_lemma_suite(STL, b, cases=n)),
                ("lemmas-ftl", lambda b, n: suites.run_lemma_suite(FTL, b, cases=n)),
                ("invariance-ftl", lambda b, n: suites.invariance_suite(FTL, b, configs=max(n // 5, 1))),
            ),
        ),
        Workload(
            "corpus-expand", 64, 64,
            _corpus_expand,
        ),
    )
}


def run_pass(workload: Workload, seed: int, stamps, tracer=None, cases: Optional[int] = None) -> PassResult:
    """Run one pass; an exception ends the pass and is reported, not raised."""
    result = PassResult(seed=seed)
    first = len(stamps.cases)
    t0 = time.perf_counter()
    try:
        with tracer.span(f"pass:{workload.name}:{seed}") if tracer else nullcontext():
            payload = workload.run(seed, cases or workload.cases, stamps, tracer)
        result.sha256 = hashlib.sha256(payload).hexdigest()
    except Exception as err:  # a crash is a failed case, and the run goes on
        result.error = f"{type(err).__name__}: {err}"
    result.wall = time.perf_counter() - t0
    result.cases = stamps.cases[first:]
    return result
