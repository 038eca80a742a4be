"""Bounded three-valued evaluation of formulas in a canonical structure.

TRUE and FALSE verdicts are sound for the full (infinite) structure: an
existential TRUE carries a verified witness, a universal FALSE carries a
verified counterexample, and universal TRUE is only reported when a
registered exact rule closes the quantifier (observer-class analysis for
class predicates, the line-pencil analysis for primitive bodies).
Everything else is UNKNOWN with the exhausted quantifier named.
"""

from __future__ import annotations

from typing import Any, Optional

from relcheck.fol import (
    And,
    Atom,
    DefinedAtom,
    DefinitionTable,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    children,
    expand_defined,
)
from relcheck.minkowski import IntervalClass, Line, Segment, Vec4, lam, lines_intersect
from relcheck.model import (
    GEOMETRIC_PREDICATES,
    ModelKind,
    Scenario,
    UnsupportedPredicate,
    event,
    null_links,
    receives,
    tau_geo,
    transmits,
)
from relcheck.scalar import CapacityError, ScalarContext
from relcheck.verifier.report import FALSE, TRUE, Budget, Verdict

CLASS_PREDICATES = ("STL", "FTL", "Lightspeed")


class EvalModel:
    """A canonical structure slice: kind, context, and named entity pools."""

    def __init__(
        self,
        kind: ModelKind,
        ctx: Optional[ScalarContext] = None,
        scenario: Optional[Scenario] = None,
        table: Optional[DefinitionTable] = None,
    ) -> None:
        self.kind = kind
        self.ctx = ctx or (scenario.ctx if scenario else ScalarContext())
        self.scenario = scenario
        self.table = table

    @staticmethod
    def from_scenario(scenario: Scenario, table: Optional[DefinitionTable] = None) -> "EvalModel":
        return EvalModel(scenario.kind, scenario.ctx, scenario, table)

    def observer_pool(self) -> list[Line]:
        return list(self.scenario.observers.values()) if self.scenario else []

    def signal_pool(self) -> list[Segment]:
        out = list(self.scenario.signals.values()) if self.scenario else []
        for line in self.observer_pool():
            out.append(event(line.base))
        for s in list(out):
            if not s.is_degenerate():
                out.append(event(s.beg))
                out.append(event(s.end))
        return out


def evaluate_bounded(
    f: Formula,
    model: EvalModel,
    assignment: Optional[dict[str, Any]] = None,
    budget: Optional[Budget] = None,
) -> Verdict:
    env = dict(assignment or {})
    budget = budget or Budget()
    try:
        return _eval(f, model, env, budget)
    except CapacityError as err:
        return Verdict.unknown(f"capacity: {err}")


def _eval(f: Formula, model: EvalModel, env: dict, budget: Budget) -> Verdict:
    if isinstance(f, Atom):
        return _eval_atom(f, model, env)
    if isinstance(f, DefinedAtom):
        return _eval_defined(f, model, env, budget)
    if isinstance(f, Not):
        return _eval(f.body, model, env, budget).negate()
    if isinstance(f, (And, Or)):
        # a FALSE conjunct or a TRUE disjunct decides; else any UNKNOWN side does
        stop, idle = (FALSE, "conjunct unknown") if isinstance(f, And) else (TRUE, "disjunct unknown")
        sides = []
        for side in children(f):
            got = _eval(side, model, env, budget)
            if got.status == stop:
                return got
            sides.append(got)
        if any(got.is_unknown() for got in sides):
            return Verdict.unknown(next(filter(None, (got.reason for got in sides)), idle))
        return Verdict(stop).negate()
    if isinstance(f, Implies):
        return _eval(Or(Not(f.lhs), f.rhs), model, env, budget)
    if isinstance(f, Iff):
        lhs, rhs = (_eval(c, model, env, budget) for c in children(f))
        if lhs.is_unknown() or rhs.is_unknown():
            return Verdict.unknown((lhs.reason or rhs.reason) or "iff side unknown")
        return Verdict.true() if lhs.status == rhs.status else Verdict.false()
    if isinstance(f, Exists):
        return _eval_exists(f, model, env, budget)
    if isinstance(f, Forall):
        return _eval_forall(f, model, env, budget)
    raise TypeError(f"not a formula: {f!r}")


def _eval_atom(f: Atom, model: EvalModel, env: dict) -> Verdict:
    args = [_lookup(v, env) for v in f.args]
    if f.pred == "T":
        return _bool(transmits(args[0], args[1]))
    if f.pred == "R":
        return _bool(receives(args[0], args[1]))
    if f.pred == "=":
        return _bool(args[0] == args[1])
    raise ValueError(f.pred)


def _lookup(v: Var, env: dict):
    if v.name not in env:
        raise KeyError(f"unbound variable {v.name} (assignment incomplete)")
    return env[v.name]


def _bool(b: bool) -> Verdict:
    return Verdict.true() if b else Verdict.false()


def _eval_defined(f: DefinedAtom, model: EvalModel, env: dict, budget: Budget) -> Verdict:
    args = [_lookup(v, env) for v in f.args]
    # An unsupported atom is UNKNOWN here, at the atom, and not at the
    # evaluate_bounded boundary: And, Or and Iff must still combine it with
    # siblings that decide (FALSE & UNKNOWN is FALSE).
    try:
        if f.name in GEOMETRIC_PREDICATES:
            return _bool(GEOMETRIC_PREDICATES[f.name](args))
    except UnsupportedPredicate as err:
        return Verdict.unknown(f"unsupported: {err}")
    # no evaluator: expand one definition layer and recurse
    if model.table and f.name in model.table:
        flat = expand_defined(f, model.table, depth=1)
        return _eval(flat, model, env, budget)
    return Verdict.unknown(f"no evaluator for predicate {f.name}")


# --- quantifiers -----------------------------------------------------------------


def _eval_forall(f: Forall, model: EvalModel, env: dict, budget: Budget) -> Verdict:
    # registered class rule: the body depends only on the causal class
    if (
        isinstance(f.body, DefinedAtom)
        and f.body.name in CLASS_PREDICATES
        and len(f.body.args) == 1
        and f.body.args[0].name == f.var.name
        and f.var.sort == "Ob"
    ):
        return _forall_class_rule(f.body.name, model, env, budget, f.var)
    # counterexample search over the pool
    pool = _pool_for(f.var, model, env, budget)
    for cand in pool[: budget.max_witness_candidates]:
        sub = dict(env)
        sub[f.var.name] = cand
        got = _eval(f.body, model, sub, budget)
        if got.is_false():
            return Verdict.false({f.var.name: cand})
    return Verdict.unknown(f"no counterexample found (forall {f.var.name}:{f.var.sort})")


def _forall_class_rule(
    name: str, model: EvalModel, env: dict, budget: Budget, var: Var
) -> Verdict:
    ctx = model.ctx
    reps = {
        IntervalClass.TIMELIKE: Line(Vec4.of(ctx, 0, 0, 0, 0), Vec4.of(ctx, 1, 0, 0, 0)),
        IntervalClass.SPACELIKE: Line(Vec4.of(ctx, 0, 0, 0, 0), Vec4.of(ctx, 0, 1, 0, 0)),
    }
    allowed = [IntervalClass.TIMELIKE]
    if model.kind is ModelKind.FTL:
        allowed.append(IntervalClass.SPACELIKE)
    for cls in allowed:
        rep = reps[cls]
        got = _eval_defined(DefinedAtom(name, (var,)), model, {**env, var.name: rep}, budget)
        if got.is_false():
            return Verdict.false({var.name: rep})
        if got.is_unknown():
            return got
    return Verdict.true()


def _eval_exists(f: Exists, model: EvalModel, env: dict, budget: Budget) -> Verdict:
    constructed, complete = _constructive_candidates(f, model, env, budget)
    pool = constructed + [
        c for c in _pool_for(f.var, model, env, budget) if c not in constructed
    ]
    for cand in pool[: budget.max_witness_candidates]:
        sub = dict(env)
        sub[f.var.name] = cand
        got = _eval(f.body, model, sub, budget)
        if got.is_true():
            witness = dict(got.witness or {})
            witness[f.var.name] = cand
            return Verdict.true(witness)
    if complete:
        return Verdict.false()
    return Verdict.unknown(f"witness search exhausted (exists {f.var.name}:{f.var.sort})")


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.lhs) + _conjuncts(f.rhs)
    return [f]


def _constructive_candidates(
    f: Exists, model: EvalModel, env: dict, budget: Budget
) -> tuple[list, bool]:
    """Candidates derived from the body's constraints on the bound variable.

    The second component reports completeness: every possible witness is
    among the candidates, so exhaustion refutes the existential.
    """
    var = f.var
    parts = _conjuncts(f.body)
    out: list = []
    complete = False
    if var.sort == "Si":
        beg_dom, end_dom = _endpoint_domains(var, parts, model, env)
        out, complete = _signal_candidates(model.ctx, beg_dom, end_dom)
    else:
        through: list[Vec4] = []
        tau_atom = None
        for p in parts:
            if isinstance(p, Atom) and p.pred == "T" and p.args[0].name == var.name:
                other = p.args[1]
                if other.name in env:
                    through.append(env[other.name].beg)
            if (
                isinstance(p, DefinedAtom)
                and p.name in ("Tau", "TauFTL")
                and p.args[0].name == var.name
                and all(a.name in env for a in p.args[1:])
            ):
                tau_atom = p
        uniq: list[Vec4] = []
        for pt in through:
            if not any((pt - q).is_zero() for q in uniq):
                uniq.append(pt)
        if len(uniq) >= 2:
            cand = Line.through(uniq[0], uniq[1])
            if model.kind.allows(cand.interval_class):
                out.append(cand)
            complete = True  # at most the one line passes through both
        if tau_atom is not None:
            got = tau_geo(*(env[a.name] for a in tau_atom.args[1:]))
            if got is not None:
                out.append(got)
    return out, complete


def _endpoint_domains(var: Var, parts: list[Formula], model: EvalModel, env: dict):
    """Domains for Beg/End of a quantified signal: fixed point, line, or free."""
    beg: list = []
    end: list = []
    for p in parts:
        if isinstance(p, Atom) and p.pred in ("T", "R") and p.args[-1].name == var.name:
            host = p.args[0]
            if host.name in env:
                (beg if p.pred == "T" else end).append(("line", env[host.name]))
        if isinstance(p, DefinedAtom) and len(p.args) == 2 and p.args[1].name == var.name:
            ref = p.args[0]
            if ref.name in env:
                if p.name == "IsBeg":
                    beg.append(("point", env[ref.name].beg))
                elif p.name == "IsEnd":
                    end.append(("point", env[ref.name].beg))
    return beg, end


def _signal_candidates(ctx, beg_dom, end_dom) -> tuple[list, bool]:
    begs, beg_complete = _point_candidates(ctx, beg_dom, None)
    if not begs and beg_complete:
        return [], True
    out = []
    complete = beg_complete
    for b in begs:
        ends, end_complete = _point_candidates(ctx, end_dom, b)
        complete = complete and end_complete
        for e in ends:
            d = e - b
            if lam(d).is_zero() and d.x0.sign() >= 0:
                out.append(Segment(b, e))
    return out, complete


def _point_candidates(ctx, domain, anchor: Optional[Vec4]) -> tuple[list, bool]:
    points = [d[1] for d in domain if d[0] == "point"]
    lines = [d[1] for d in domain if d[0] == "line"]
    if points:
        p = points[0]
        for q in points[1:]:
            if not (q - p).is_zero():
                return [], True
        for line in lines:
            if not line.contains(p):
                return [], True
        return [p], True
    if lines:
        if len(lines) >= 2:
            got = lines_intersect(lines[0], lines[1])
            ok = [got] if got is not None and all(ln.contains(got) for ln in lines) else []
            return ok, len(lines) == 2 or bool(ok)
        line = lines[0]
        if anchor is not None:
            return [anchor + v for v in null_links(anchor, line)], True
        return [line.base, line.at(ctx.one), line.at(ctx.rat(-1))], False
    if anchor is not None:
        return [anchor, anchor + Vec4.of(ctx, 1, 1, 0, 0)], False
    return [], False


def _pool_for(var: Var, model: EvalModel, env: dict, budget: Budget) -> list:
    if var.sort == "Ob":
        pool = [v for v in env.values() if isinstance(v, Line)]
        pool += [line for line in model.observer_pool() if line not in pool]
        return pool
    pool = [v for v in env.values() if isinstance(v, Segment)]
    for s in model.signal_pool():
        if s not in pool:
            pool.append(s)
    extra = []
    for s in pool:
        if not s.is_degenerate():
            for e in (event(s.beg), event(s.end)):
                if e not in pool and e not in extra:
                    extra.append(e)
    return pool + extra
