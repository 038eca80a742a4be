from relcheck.verifier.report import Budget, SuiteReport, Verdict
from relcheck.verifier.evaluate import EvalModel, evaluate_bounded
from relcheck.verifier.suites import (
    invariance_suite,
    run_axiom_suite,
    run_equivalence_suite,
    run_lemma_suite,
)

__all__ = [
    "Budget",
    "SuiteReport",
    "Verdict",
    "EvalModel",
    "evaluate_bounded",
    "run_axiom_suite",
    "run_lemma_suite",
    "run_equivalence_suite",
    "invariance_suite",
]
