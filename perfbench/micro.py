"""Per-layer microbenchmarks on generator-drawn operands at a fixed seed.

Each figure is the median, over batches, of the mean time per call in a
batch; a batch calls the function once on every prepared operand.  Batches
repeat until a small time budget is spent.  The operands do not depend on
the run's seed, so a figure moves only when the code under it does.
"""

from __future__ import annotations

import math
import operator
import random
import statistics
import time
from fractions import Fraction

from relcheck.corpus import SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL, load_axioms, load_definitions
from relcheck.fol import And, Exists, Forall, Iff, Implies, Not, Or, expand_defined, parse_formula, render_formula
from relcheck.minkowski import Line, inner, lines_intersect, quotient_norm
from relcheck.model import (
    GEOMETRIC_PREDICATES,
    ModelKind,
    Scenario,
    UnsupportedPredicate,
    dual_candidates,
    null_gap_params,
    tau_geo,
)
from relcheck.scalar import CapacityError, DomainError, ScalarContext
from relcheck.verifier import definitional, suites
from relcheck.verifier.evaluate import EvalModel, evaluate_bounded
from relcheck.verifier.generators import ConfigGen, GenerationError
from relcheck.verifier.report import Budget, sub_seed

MICRO_SEED = 20260808
OPERANDS = 16
FTL = ModelKind.FTL

# The README's `relcheck eval` examples, on its tau scenario.
TAU_SCENARIO = {
    "kind": "stl",
    "observers": {
        "a": {"base": ["0", "0", "0", "0"], "dir": ["1", "0", "0", "0"]},
        "b": {"base": ["0", "-1", "0", "0"], "dir": ["1", "0", "0", "0"]},
    },
    "signals": {
        "e1": {"beg": ["0", "0", "0", "0"], "end": ["0", "0", "0", "0"]},
        "e2": {"beg": ["2", "0", "0", "0"], "end": ["2", "0", "0", "0"]},
    },
}
EVAL_EXAMPLES = ["exists c:Ob. Tau(c,b,e1,e2)", "STL(a)"]


def per_call(fn, operands, budget: float = 0.04, unit: float = 1e6) -> float:
    """Median over batches of seconds per call, times `unit`."""
    batches: list[float] = []
    spent = 0.0
    while len(batches) < 3 or (spent < budget and len(batches) < 500):
        t0 = time.perf_counter()
        for args in operands:
            fn(*args)
        dt = time.perf_counter() - t0
        batches.append(dt / len(operands))
        spent += dt
        if dt > budget:
            break
    return statistics.median(batches) * unit


def _tolerant(fn):
    """Time a predicate as the suites call it: these errors give UNKNOWN."""
    def call(*args):
        try:
            return fn(*args)
        except (UnsupportedPredicate, CapacityError, DomainError):
            return None
    return call


def _gen(*parts) -> ConfigGen:
    return ConfigGen(sub_seed(MICRO_SEED, "micro", *parts))


# --- scalar -----------------------------------------------------------------------


def _tower(rng: random.Random, level: int):
    """A context whose chain has `level` nested roots, like the suites' discriminants."""
    ctx = ScalarContext()
    roots = []
    while ctx.depth < level:
        radicand = ctx.rat(Fraction(rng.randint(2, 60), rng.randint(1, 9)))
        if roots:
            radicand = radicand + roots[-1]
        depth = ctx.depth
        root = ctx.sqrt(radicand)
        if ctx.depth > depth:
            roots.append(root)
    return ctx, roots


def _element(rng: random.Random, ctx, roots):
    """A dense element of the top level: every chain coordinate is nonzero."""
    x = ctx.rat(Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12)))
    for r in roots:
        x = x * (ctx.rat(Fraction(rng.randint(1, 9), rng.randint(1, 5))) + ctx.rat(rng.randint(1, 7)) * r)
    return x


def scalar_metrics() -> dict[str, float]:
    rng = random.Random(MICRO_SEED)
    out = {}
    for level in range(4):
        ctx, roots = _tower(rng, level)
        pairs = [(_element(rng, ctx, roots), _element(rng, ctx, roots)) for _ in range(OPERANDS)]
        singles = [(a,) for a, _ in pairs]
        out[f"scalar.mul_us.L{level}"] = per_call(operator.mul, pairs)
        if level <= 2:
            out[f"scalar.add_us.L{level}"] = per_call(operator.add, pairs)
            out[f"scalar.inverse_us.L{level}"] = per_call(lambda a: a.inverse(), singles)
        if level >= 1:
            out[f"scalar.sign_us.L{level}"] = per_call(lambda a: a.sign(), singles)

    def adjoin(q):
        ctx = ScalarContext()
        return ctx.sqrt(ctx.rat(q))

    radicands = []
    while len(radicands) < OPERANDS:
        q = Fraction(rng.randint(2, 400), rng.randint(1, 30))
        if math.isqrt(q.numerator * q.denominator) ** 2 != q.numerator * q.denominator:
            radicands.append((q,))
    out["scalar.sqrt_us.adjoin"] = per_call(adjoin, radicands)
    ctx, roots = _tower(rng, 1)
    squares = []
    for _ in range(OPERANDS):
        x = _element(rng, ctx, roots)
        squares.append((x * x,))
    out["scalar.sqrt_us.in_chain"] = per_call(ctx.sqrt, squares)
    return out


# --- minkowski, model, definitional ----------------------------------------------------


def _pred_args(name: str, count: int = OPERANDS) -> list[tuple]:
    gen_f = suites.PRED_GENERATORS[name]
    out = []
    for i in range(count):
        try:
            out.append(tuple(gen_f(_gen("pred", name, i), FTL, i)))
        except (GenerationError, CapacityError):
            continue
    return out


def minkowski_metrics() -> dict[str, float]:
    gens = [_gen("minkowski", i) for i in range(OPERANDS)]
    points = [(g.point(), g.point()) for g in gens]
    dirs = [(g.point(), g.direction(FTL)) for g in gens]
    pairs = [tuple(g.parallel_family(2, FTL)) for g in gens]
    maps = [(g.poincare(), g.poincare(), g.point()) for g in gens]
    line_pairs = _pred_args("M")
    return {
        "minkowski.inner_us": per_call(inner, points),
        "minkowski.line_us": per_call(Line, dirs),
        "minkowski.lines_intersect_us": per_call(lines_intersect, line_pairs),
        "minkowski.quotient_norm_us": per_call(
            quotient_norm, [(b.base - a.base, a.dir) for a, b in pairs]),
        "minkowski.poincare_apply_us": per_call(lambda m, _, p: m.apply(p), maps),
        "minkowski.poincare_compose_us": per_call(lambda m, n, _: m.compose(n), maps),
    }


def model_metrics() -> dict[str, float]:
    out = {}
    for name in sorted(set(GEOMETRIC_PREDICATES) & set(suites.PRED_GENERATORS)):
        pred = GEOMETRIC_PREDICATES[name]
        out[f"model.pred_us.{name}"] = per_call(_tolerant(lambda *a: pred(list(a))), _pred_args(name))
    tau = _pred_args("Tau")
    out["model.tau_geo_us"] = per_call(_tolerant(tau_geo), [a[1:] for a in tau])
    dual = _pred_args("Dual")
    out["model.dual_candidates_us"] = per_call(_tolerant(dual_candidates), [a[1:] for a in dual])
    bw = _pred_args("BwRho")
    out["model.null_gap_params_us"] = per_call(
        _tolerant(null_gap_params), [(b.base - a.base, a.dir) for a, b, _ in bw])
    return out


def definitional_metrics() -> dict[str, float]:
    out = {}
    for name in sorted(set(definitional.DEFINITIONAL_EVALUATORS) & set(suites.PRED_GENERATORS)):
        evaluator = definitional.DEFINITIONAL_EVALUATORS[name]
        args = _pred_args(name, 6)
        out[f"definitional.def_ms.{name}"] = per_call(
            _tolerant(lambda *a: evaluator(list(a), FTL)), args, unit=1e3)
    return out


# --- verifier case-loop pieces ------------------------------------------------------


def verifier_metrics() -> dict[str, float]:
    seeds = [(sub_seed(MICRO_SEED, "configgen", i),) for i in range(OPERANDS)]
    frames: list[float] = []
    for batch in range(20):
        gens = [_gen("classframe", batch, i) for i in range(OPERANDS)]
        t0 = time.perf_counter()
        for g in gens:
            suites.ClassFrame(g)
        frames.append((time.perf_counter() - t0) / OPERANDS)
    table = load_definitions()
    scenario = Scenario.from_dict(TAU_SCENARIO)
    model = EvalModel.from_scenario(scenario, table)
    env = {**scenario.observers, **scenario.signals}
    names = {n: "Ob" for n in scenario.observers} | {n: "Si" for n in scenario.signals}
    formulas = [(parse_formula(text, table.signatures(), names),) for text in EVAL_EXAMPLES]
    budget = Budget(seed=0)
    rep = suites.run_lemma_suite(ModelKind.STL_ONLY, Budget(seed=MICRO_SEED), cases=5)
    return {
        "verifier.configgen_us": per_call(ConfigGen, seeds),
        "verifier.classframe_us": statistics.median(frames) * 1e6,
        "verifier.evaluate_us": per_call(lambda f: evaluate_bounded(f, model, env, budget), formulas),
        "verifier.report_ms": per_call(rep.to_json, [()], unit=1e3),
    }


# --- fol and corpus -------------------------------------------------------------------


def _nodes(f) -> int:
    if isinstance(f, Not):
        return 1 + _nodes(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return 1 + _nodes(f.lhs) + _nodes(f.rhs)
    if isinstance(f, (Forall, Exists)):
        return 1 + _nodes(f.body)
    return 1


def fol_metrics() -> dict[str, float]:
    def load():
        table = load_definitions()
        return [load_axioms(s, table=table) for s in (SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL)]

    table = load_definitions()
    sigs = table.signatures()
    axioms = [ax.formula for system in load() for ax in system]
    formulas = [(d.body, {v.name: v.sort for v in d.params}) for d in table.definitions.values()]
    formulas += [(f, {}) for f in axioms]
    texts = [(render_formula(f), free) for f, free in formulas]

    def parse_all():
        for text, free in texts:
            parse_formula(text, sigs, free)

    def render_all():
        for f, _ in formulas:
            render_formula(f)

    t0 = time.perf_counter()
    expanded = [expand_defined(f, table) for f in axioms]
    expand_s = time.perf_counter() - t0
    return {
        "corpus.load_ms": per_call(load, [()], budget=0.5, unit=1e3),
        "fol.parse_ms": per_call(parse_all, [()], budget=0.3, unit=1e3),
        "fol.render_ms": per_call(render_all, [()], budget=0.3, unit=1e3),
        "fol.expand_ms": expand_s * 1e3,
        "fol.expanded_nodes": float(sum(_nodes(f) for f in expanded)),
    }


def all_metrics() -> dict[str, float]:
    out = {}
    for part in (scalar_metrics, minkowski_metrics, model_metrics, definitional_metrics,
                 verifier_metrics, fol_metrics):
        out.update(part())
    return out
