"""Command-line front door.

Exit codes: 0 all pass, 1 failures, 2 usage or parse errors, 3 capacity or
unknown-only outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from relcheck.corpus import (
    SYSTEM_SIMPLEREL,
    SYSTEM_SIMPLERELFTL,
    corpus_dir,
    load_definitions,
)
from relcheck.fol import (
    Atom,
    DefinedAtom,
    Exists,
    FolError,
    Forall,
    Formula,
    children,
    expand_defined,
    parse_formula,
    render_formula,
)
from relcheck.model import ModelError, ModelKind, Scenario
from relcheck.verifier.evaluate import EvalModel, evaluate_bounded
from relcheck.verifier.report import Budget, serialize_entity
from relcheck.verifier.suites import (
    invariance_suite,
    run_axiom_suite,
    run_equivalence_suite,
    run_lemma_suite,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _ast_lines(f: Formula, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(f, Atom):
        return [f"{pad}Atom {f.pred}({', '.join(v.name for v in f.args)})"]
    if isinstance(f, DefinedAtom):
        return [f"{pad}Defined {f.name}({', '.join(v.name for v in f.args)})"]
    head = f"{pad}{type(f).__name__}"
    if isinstance(f, (Forall, Exists)):
        head += f" {f.var.name}:{f.var.sort}"
    return [head] + [line for c in children(f) for line in _ast_lines(c, indent + 1)]


def cmd_parse(args: argparse.Namespace) -> int:
    table = load_definitions()
    sigs = table.signatures()
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    free = {}
    base = os.path.basename(args.file)
    with open(os.path.join(corpus_dir(), "definitions.json")) as fh:
        for entry in json.load(fh):
            if entry["file"] == base:
                free = {name: sort for name, sort in entry["params"]}
                break
    try:
        formula = parse_formula(text, sigs, free)
    except FolError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.expand:
        formula = expand_defined(formula, table, depth=args.expand)
        print(render_formula(formula))
    else:
        print("\n".join(_ast_lines(formula)))
        print()
        print(render_formula(formula))
    return EXIT_PASS


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        scenario = Scenario.load(args.scenario)
    except (ModelError, OSError) as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    table = load_definitions()
    sigs = table.signatures()
    names = {}
    for name in scenario.observers:
        names[name] = "Ob"
    for name in scenario.signals:
        names[name] = "Si"
    if args.predicate:
        arglist = [a.strip() for a in (args.args or "").split(",") if a.strip()]
        text = f"{args.predicate}({', '.join(arglist)})"
    else:
        text = args.formula
    try:
        formula = parse_formula(text, sigs, names)
    except FolError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    env = {}
    env.update(scenario.observers)
    env.update(scenario.signals)
    model = EvalModel.from_scenario(scenario, table)
    verdict = evaluate_bounded(formula, model, env, Budget(max_witness_candidates=args.candidates))
    print(f"verdict: {verdict.status}")
    if verdict.witness:
        for key, value in verdict.witness.items():
            print(f"  {key} = {json.dumps(serialize_entity(value))}")
    if verdict.reason:
        print(f"  reason: {verdict.reason}")
    if verdict.is_true():
        return EXIT_PASS
    if verdict.is_false():
        return EXIT_FAIL
    return EXIT_UNKNOWN


def _report_exit(reports) -> int:
    fail = sum(r.gate_failed() for r in reports)
    if fail:
        return EXIT_FAIL
    for r in reports:
        for item in r.items:
            if item.cases and item.passed == 0 and item.unknown == item.cases:
                return EXIT_UNKNOWN
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    kind = ModelKind.STL_ONLY if args.model == "stl" else ModelKind.FTL
    system = SYSTEM_SIMPLEREL if args.system == "simplerel" else SYSTEM_SIMPLERELFTL
    budget = Budget(seed=args.seed, coordinate_bound=args.bound)
    reports = []
    suites = [args.suite] if args.suite != "all" else [
        "axioms", "lemmas", "equivalence", "invariance",
    ]
    for suite in suites:
        if suite == "axioms":
            rep = run_axiom_suite(system, kind, budget, cases=args.cases)
        elif suite == "lemmas":
            rep = run_lemma_suite(kind, budget, cases=args.cases)
        elif suite == "equivalence":
            rep = run_equivalence_suite(kind, budget, cases=args.cases)
        else:
            rep = invariance_suite(kind, budget, configs=max(args.cases // 5, 1))
        reports.append(rep)
        print(f"== {rep.suite} ({rep.model_kind})")
        for line in rep.summary_lines():
            print(line)
        print(
            f"totals: fail={rep.total_failed} unknown={rep.total_unknown}"
            f" wall={rep.wall_time:.2f}s"
        )
        print()
    if args.report:
        payload = {
            "reports": [r.as_dict() for r in reports],
        }
        with open(args.report, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"report written to {args.report}")
    return _report_exit(reports)


def cmd_diagram(args: argparse.Namespace) -> int:
    from relcheck.diagram import DiagramError, render_svg

    try:
        scenario = Scenario.load(args.scenario)
    except (ModelError, OSError) as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        svg = render_svg(scenario, args.plane)
    except DiagramError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_PASS


def _positive(text: str) -> int:
    """An argparse type for counts and bounds: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcheck",
        description="Exact-arithmetic workbench for the two-sorted"
        " signal/observer axiomatizations of special relativity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse a formula file and dump its AST")
    p_parse.add_argument("file")
    p_parse.add_argument("--expand", type=int, default=0, metavar="N",
                         help="expand defined predicates N layers and render")
    p_parse.set_defaults(func=cmd_parse)

    p_eval = sub.add_parser("eval", help="evaluate a formula on a scenario")
    p_eval.add_argument("--scenario", required=True)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula text; scenario names are free variables")
    group.add_argument("--predicate", help="defined predicate name")
    p_eval.add_argument("--args", help="comma-separated scenario names for --predicate")
    p_eval.add_argument("--candidates", type=_positive, default=64)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    p_verify.add_argument("--system", choices=["simplerel", "simplerelftl"],
                          default="simplerel")
    p_verify.add_argument("--model", choices=["stl", "ftl"], default="stl")
    p_verify.add_argument("--suite",
                          choices=["axioms", "lemmas", "equivalence", "invariance", "all"],
                          default="axioms")
    p_verify.add_argument("--cases", type=_positive, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bound", type=_positive, default=8)
    p_verify.add_argument("--report", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diagram", help="render a scenario to an SVG diagram")
    p_diag.add_argument("--scenario", required=True)
    p_diag.add_argument("--plane", choices=["t-x1", "t-x2", "t-x3"], default="t-x1")
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagram)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
