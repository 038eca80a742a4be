import collections
import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcheck import model
from relcheck.cli import EXIT_FAIL, _report_exit
from relcheck.corpus import load_axioms, load_definitions
from relcheck.fol import parse_formula
from relcheck.minkowski import (
    IntervalClass,
    Line,
    Segment,
    Vec4,
    inner,
    lam,
    lines_intersect,
    quotient_inner,
    quotient_lift,
    quotient_norm,
    sign_class,
)
from relcheck.model import (
    GEOMETRIC_PREDICATES,
    ModelKind,
    Scenario,
    UnsupportedPredicate,
    dual_candidates,
    event,
    lightlike,
    tau_geo,
)
from relcheck.scalar import ScalarContext
from relcheck.verifier import definitional as de
from relcheck.verifier import suites
from relcheck.verifier.evaluate import EvalModel, evaluate_bounded
from relcheck.verifier.generators import ConfigGen, GenerationError
from relcheck.verifier.report import FALSE, TRUE, UNKNOWN, Budget, SuiteReport, Verdict, sub_seed
from relcheck.verifier.suites import (
    AXIOM_CHECKERS,
    CRITERION6_PREDICATES,
    PRED_GENERATORS,
    TARSKI_CHECKERS,
    Ops,
    invariance_suite,
    run_axiom_suite,
    run_equivalence_suite,
    run_lemma_suite,
)
from test_scalar import _q, _random_tower, _tower_element

STL = ModelKind.STL_ONLY
FTL = ModelKind.FTL


def v(ctx, *vals):
    return Vec4.of(ctx, *vals)


def vertical(ctx, x1=0, x2=0):
    return Line(v(ctx, 0, x1, x2, 0), v(ctx, 1, 0, 0, 0))


# --- definitional evaluators -------------------------------------------------


def test_ev_def_polarity_and_witness():
    ctx = ScalarContext()
    assert de.ev_def(event(v(ctx, 1, 2, 3, 0)), STL).is_true()
    got = de.ev_def(Segment(v(ctx, 0, 0, 0, 0), v(ctx, 1, 1, 0, 0)), STL)
    assert got.is_false()
    witness = got.witness["a"]
    assert witness.contains(v(ctx, 0, 0, 0, 0))
    assert not witness.contains(v(ctx, 1, 1, 0, 0))


def test_l_def_and_lsym():
    ctx = ScalarContext()
    o = event(v(ctx, 0, 0, 0, 0))
    p = event(v(ctx, 1, 1, 0, 0))
    assert de.l_def(o, p, STL).is_true()
    assert de.l_def(p, o, STL).is_false()
    q = event(v(ctx, 2, 1, 0, 0))
    assert de.l_def(o, q, STL).is_false()


def test_m_def_complete():
    ctx = ScalarContext()
    a = vertical(ctx, 0)
    crossing = Line(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    assert de.m_def(a, crossing, STL).is_true()
    assert de.m_def(a, vertical(ctx, 1), STL).is_false()
    skew = Line(v(ctx, 0, 0, 1, 0), v(ctx, 2, 1, 0, 0))
    assert de.m_def(a, skew, STL).is_false()


def test_cop_and_par_def():
    ctx = ScalarContext()
    a, b = vertical(ctx, 0), vertical(ctx, 1)
    got = de.cop_def(a, b, STL)
    assert got.is_true()
    c, d = got.witness["c"], got.witness["d"]
    g = got.witness["g"]
    assert not a.contains(g.beg) and not b.contains(g.beg)
    assert c.contains(g.beg) and d.contains(g.beg)
    assert de.par_def(a, b, STL).is_true()
    crossing = Line(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    assert de.par_def(a, crossing, STL).is_false()
    skew = Line(v(ctx, 0, 0, 1, 0), v(ctx, 2, 1, 0, 0))
    assert de.par_def(a, skew, STL).is_unknown()


def _reference_cop(a, b, kind):
    """The Cop witness search as it stood before the class-first test: each
    candidate Line is built before its class is read, and the four M
    conjuncts are decided by m_def.  Returns (verdict, branch), where branch
    is "a == b", the k of the witness, or None."""
    ctx = a.ctx

    def meeting(p, target, param):
        for k in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
            q = target.at(ctx.rat(param * k))
            if (q - p).is_zero():
                continue
            cand = Line.through(p, q)
            if kind.allows(cand.interval_class):
                return cand
        return None

    if a == b:
        for off in (v(ctx, 0, 1, 0, 0), v(ctx, 0, 0, 1, 0), v(ctx, 0, 1, 1, 0)):
            g = a.base + off
            if a.contains(g):
                continue
            c, d = meeting(g, a, Fraction(5)), meeting(g, a, Fraction(-5))
            if c is not None and d is not None and c != d:
                return Verdict.true({"c": c, "d": d, "g": event(g)}), "a == b"
        return Verdict.unknown("no Cop witness constructed"), "a == b"

    def slanted(p, param):
        q = b.at(ctx.rat(param))
        if (q - p).is_zero():
            return None
        cand = Line.through(p, q)
        return cand if kind.allows(cand.interval_class) else None

    for t1, t2 in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1)),
                   (Fraction(1, 2), Fraction(-3, 2)), (Fraction(-2), Fraction(2)),
                   (Fraction(3), Fraction(-3))):
        p1, p2 = a.at(ctx.rat(t1)), a.at(ctx.rat(t2))
        for k in (1, 2, 3, 5, 8, 13, 64, 256, 1024):
            c = slanted(p1, Fraction(k))
            d = slanted(p2, Fraction(-k - 1))
            if c is None or d is None or c == d or c in (a, b) or d in (a, b):
                continue
            g = lines_intersect(c, d)
            if not isinstance(g, Vec4) or a.contains(g) or b.contains(g):
                continue
            if all(de.m_def(x, y, kind).is_true() for x, y in ((a, c), (c, b), (d, b), (d, a))):
                return Verdict.true({"c": c, "d": d, "g": event(g)}), k
    return Verdict.unknown("no Cop witness constructed"), None


def _cop_cases():
    """Line pairs of the Cop and Par generators at both kinds, level-1
    parallel pairs (and some equal pairs) from the Tau generator, FTL
    parallel pairs on spacelike directions from the BwFTL and Dual
    generators, level-2 parallel pairs at both kinds, and meeting and skew
    pairs at levels 1-2 at both kinds, through points whose coordinates
    take the roots too."""
    for kind in (STL, FTL):
        for name in ("Cop", "Par"):
            for i in range(110):
                gen = ConfigGen(sub_seed(9, "cop-search", name, kind.value, i), 8)
                yield kind, PRED_GENERATORS[name](gen, kind, i)
    for i in range(140):
        gen = ConfigGen(sub_seed(9, "cop-search", "Tau", i), 8)
        c, b, _, _ = PRED_GENERATORS["Tau"](gen, STL, i)
        yield STL, (b, c)
    for i in range(30):
        gen = ConfigGen(sub_seed(9, "cop-search", "BwFTL", i), 8)
        a, b, _ = PRED_GENERATORS["BwFTL"](gen, FTL, 2 * i + 1)  # odd indices: a spacelike frame
        gen = ConfigGen(sub_seed(9, "cop-search", "Dual", i), 8)
        _, c, d = PRED_GENERATORS["Dual"](gen, FTL, i)
        yield from ((FTL, (a, b)), (FTL, (c, d)))
    for kind in (STL, FTL):
        for i in range(20):
            gen = ConfigGen(sub_seed(9, "cop-search", "level 2", kind.value, i), 8)
            ctx = gen.ctx
            r2, r3 = ctx.sqrt(ctx.rat(2)), ctx.sqrt(ctx.rat(3))
            off = Vec4(ctx.zero, r3, r2 * r3, ctx.rat(i % 3))
            d = gen.direction(kind)
            if i % 2:  # a level-2 direction, spacelike at FTL for i % 4 == 3
                d = (Vec4(ctx.rat(1, 5), r2, r3, ctx.zero) if kind is FTL and i % 4 == 3
                     else Vec4(ctx.one, r2 * ctx.rat(1, 5), r3 * ctx.rat(1, 7), ctx.zero))
            p = gen.point()
            yield kind, (Line(p, d), Line(p + off, d))
    for kind in (STL, FTL):
        for i in range(200):
            gen = ConfigGen(sub_seed(9, "cop-search", "meeting or skew", kind.value, i), 8)
            ctx, rng = gen.ctx, gen.rng
            roots = [ctx.sqrt(ctx.rat(n)) for n in (2, 3)[: 1 + i % 2]]  # level 1 or 2

            def direction():
                # |root*x0| <= 3*sqrt(3)/7, so lam is negative, or positive when spacelike
                x = [rng.choice(roots) * ctx.rat(rng.randint(1, 3), 7)]
                x += [ctx.rat(rng.randint(-3, 3), 7) for _ in range(2)]
                spacelike = kind is FTL and rng.random() < 0.5
                return Vec4(x[0], ctx.one, *x[1:]) if spacelike else Vec4(ctx.one, *x)

            p = gen.point() + Vec4(ctx.zero, roots[0] * ctx.rat(rng.randint(-3, 3), 2),
                                   roots[-1] * ctx.rat(rng.randint(-3, 3), 2), ctx.zero)
            q = p if i % 4 < 2 else p + gen.point()  # meeting, or (nearly always) skew
            yield kind, (Line(p, direction()), Line(q, direction()))


def test_cop_search_matches_the_reference_search():
    reached, off_parallel = set(), set()
    level1 = 0
    for kind, (a, b) in _cop_cases():
        got = de.cop_def(a, b, kind)
        want, branch = _reference_cop(a, b, kind)
        assert (got.status, got.reason) == (want.status, want.reason), (a, b)
        level1 += max(x.level for x in b.base.c + b.dir.c) > 0
        if branch == "a == b":
            reached.add("a == b")
        elif kind is STL and isinstance(branch, int) and branch > 1:
            reached.add("STL k > 1")
        elif want.is_unknown() and not de.m_def(a, b, kind).is_true() and a.dir != b.dir:
            reached.add("UNKNOWN skew")
        if a.dir != b.dir and max(x.level for x in (a.base, a.dir, b.base, b.dir)) > 0:
            off_parallel.add((kind, de.m_def(a, b, kind).is_true(), got.status))
        if not got.is_true():
            continue
        assert [got.witness[n] for n in "cdg"] == [want.witness[n] for n in "cdg"]
        c, d, g = (got.witness[n] for n in "cdg")
        assert c != d and c.contains(g.beg) and d.contains(g.beg)
        assert all(de.m_def(x, y, kind).is_true() for x, y in ((a, c), (c, b), (d, b), (d, a)))
        assert not a.contains(g.beg) and not b.contains(g.beg)
    assert reached == {"a == b", "STL k > 1", "UNKNOWN skew"}
    assert level1 >= 100
    # meeting pairs with a witness and skew pairs, at levels 1-2 and both kinds
    assert {(kind, meets, TRUE if meets else UNKNOWN)
            for kind in (STL, FTL) for meets in (True, False)} <= off_parallel


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.randoms(use_true_random=False))
def test_cop_class_test_matches_the_scalar_quadratic(depth, rng):
    """The int class test of _cop_parallel (_pencil, _form_class) against
    sign_class of the Scalar quadratic c0 + (c1 + lam_b*x)*x, with w =
    b.base - p, c0 = lam(w), c1 = 2<w, b.dir> and lam_b = lam(b.dir), at
    levels 0-2: over cop_def's k grid (x = k) for any p, and for the plane
    of a and a line parallel to it (p = a.base) at the plane's x = k - t for
    each anchor t.  One anchor per line pair puts a null transversal on
    the grid, so the lightlike class is reached in every example."""
    ctx, adjoined = _random_tower(rng, depth)
    roots = [root for _, root in adjoined]

    def scalar():
        if rng.random() < 0.5 or not roots:
            return ctx.rat(_q(rng))
        return _tower_element(rng, ctx, roots)

    def vec():
        return Vec4(*(scalar() for _ in range(4)))

    grid = [k for n in (1, 2, 3, 5, 8, 13, 64, 256, 1024) for k in (n, -n - 1)]
    null = Vec4.of(ctx, 3, 2, -2, 1)
    classes = set()
    for _ in range(3):
        a, b = (Line(vec(), d if not d.is_zero() else null) for d in (vec(), vec()))
        k0 = rng.choice(grid)
        anchors = [a.at(scalar()), vec(), b.at(ctx.rat(k0)) - null.scale(scalar())]
        inputs = [(p, b, [Fraction(k) for k in grid]) for p in anchors]
        parallel = Line(vec(), a.dir)
        ts = [t for pair in de._COP_ANCHORS for t in pair]
        inputs.append((a.base, parallel, [k - t for k in grid for t in ts]))
        for p, target, xs in inputs:
            w = target.base - p
            c0, c1, lam_b = lam(w), inner(w, target.dir) * 2, lam(target.dir)
            got = de._form_class(*de._pencil(p, target))
            for x in xs:
                xx = ctx.rat(x)
                want = sign_class((c0 + (c1 + lam_b * xx) * xx).sign())
                assert got(x.denominator, x.numerator) == want
                classes.add(want)
    assert IntervalClass.LIGHTLIKE in classes


def test_cop_def_decides_parallel_pairs_in_their_plane(monkeypatch):
    """On every pair a != b of _cop_cases (parallel, meeting and skew, at
    levels 0-2 and both kinds), cop_def gives the reference search's
    statuses, reasons and witnesses with Line.contains raising.  It calls
    lines_intersect on no parallel pair, at most twice on a meeting pair
    (the pair, then the witness) and once on a skew pair: it decides every
    candidate in the pair's plane and builds only the witness in F^4."""
    pairs = [(kind, a, b) for kind, (a, b) in _cop_cases() if a != b]
    want = [_reference_cop(a, b, kind)[0] for kind, a, b in pairs]
    shapes = ["parallel" if a.dir == b.dir else "skew" if lines_intersect(a, b) is None else "meeting"
              for _, a, b in pairs]
    levels = {(shape, max(x.level for x in (a.base, a.dir, b.base, b.dir)))
              for shape, (_, a, b) in zip(shapes, pairs)}
    assert {(shape, level) for shape in ("parallel", "meeting", "skew") for level in (1, 2)} <= levels
    assert {kind for kind, _, _ in pairs} == {STL, FTL}

    def primitive(*args):
        raise AssertionError("a line primitive was called")

    calls = []

    def counted(c, d):
        calls.append((c, d))
        return lines_intersect(c, d)

    monkeypatch.setattr(de, "lines_intersect", counted)
    monkeypatch.setattr(Line, "contains", primitive)
    for (kind, a, b), shape, w in zip(pairs, shapes, want):
        calls.clear()
        got = de.cop_def(a, b, kind)
        assert (got.status, got.reason, got.witness) == (w.status, w.reason, w.witness)
        assert len(calls) <= {"parallel": 0, "meeting": 2, "skew": 1}[shape]
        assert shape != "skew" or len(calls) == 1


def test_m_cop_par_defs_never_call_their_geometric_twins(monkeypatch):
    """m_def, cop_def, par_def and op_def on the Cop, Par and OP equivalence
    items' generated pairs, and rho_def, eq_def and eqrho_def on the Rho,
    Eq and EqRho items' cases, at seeds 0-3 and both kinds, give the same
    verdicts, with the same witnesses, when model.coplanar, parallel,
    meets, rho, optical_plane, eq_rho, eq_geo and _equal_norms raise, and
    so do these names and quotient_norm wherever definitional imports them.

    What still leans on the twin: dual_def decides its nested clauses with
    model.rho, optical_plane and bw_rho, since routing them through the
    definitional procedures would add roots to the BwFTL and EqFTL items;
    _dual_branch takes its candidates from model.dual_candidates; and
    stl_def refutes a spacelike line at model.witness_zero_and_two's
    events."""
    procedures = {name: (de.m_def, de.cop_def, de.par_def, de.op_def) for name in ("Cop", "Par", "OP")}
    procedures.update(Rho=(de.rho_def,), Eq=(de.eq_def,), EqRho=(de.eqrho_def,))
    cases = [(name, kind, PRED_GENERATORS[name](
                 ConfigGen(sub_seed(seed, "equiv", name, i), Budget().coordinate_bound), kind, i))
             for seed in range(4) for name in procedures for kind in (FTL, STL) for i in range(20)]

    def verdicts():
        out = []
        for name, kind, args in cases:
            for f in procedures[name]:
                got = f(*args, kind)
                out.append((f.__name__, got.status, got.reason, repr(got.witness)))
        return out

    want = verdicts()
    reached = {(f, status) for f, status, _, _ in want}
    assert {status for _, status, _, _ in want} == {TRUE, FALSE, UNKNOWN}
    assert {(f, s) for f in ("rho_def", "eq_def", "eqrho_def") for s in (TRUE, FALSE)} <= reached

    def twin(*args):
        raise AssertionError("a geometric twin was called")

    twins = ("coplanar", "parallel", "meets", "rho", "optical_plane", "eq_rho", "eq_geo", "_equal_norms")
    for name in twins:
        monkeypatch.setattr(model, name, twin)
    for name in twins + ("quotient_norm",):
        if hasattr(de, name):
            monkeypatch.setattr(de, name, twin)
    line = vertical(ScalarContext())
    for name in ("Cop", "Rho", "OP", "Eq", "EqRho"):
        with pytest.raises(AssertionError, match="geometric twin"):
            GEOMETRIC_PREDICATES[name]((line,) * 4)
    assert verdicts() == want


def test_bw_def_matches_fixture():
    ctx = ScalarContext()
    a, b, c = vertical(ctx, 0), vertical(ctx, 1), vertical(ctx, 2)
    got = de.bw_def(a, b, c, STL)
    assert got.is_true()
    x, y, z = (got.witness[k] for k in ("x", "y", "z"))
    assert lightlike(x, y) and lightlike(x, z) and lightlike(y, z)
    assert de.bw_def(a, c, b, STL).is_false()
    assert de.bw_def(a, a, c, STL).is_true()


def test_bwrho_def_is_bw_def_in_either_orientation():
    # BwRho admits the all-past triangle, which is the future triangle of
    # the reversed triple: one root-pair loop with two orientation rules
    seen = set()
    for name in ("Bw", "BwRho"):
        for i in range(300):
            a, b, c = PRED_GENERATORS[name](ConfigGen(sub_seed(9, name, i), 8), FTL, i)
            forward = de.bw_def(a, b, c, FTL).is_true()
            backward = de.bw_def(c, b, a, FTL).is_true()
            assert de.bwrho_def(a, b, c, FTL).is_true() == (forward or backward), (name, i)
            if forward or backward:
                seen.add((a.interval_class, forward and backward))
    assert {cls for cls, _ in seen} == {IntervalClass.TIMELIKE, IntervalClass.SPACELIKE}
    assert (IntervalClass.SPACELIKE, False) in seen


def test_sim_def_diamond():
    ctx = ScalarContext()
    c = vertical(ctx)
    e1 = event(v(ctx, 1, 1, 0, 0))
    e2 = event(v(ctx, 1, -1, 0, 0))
    got = de.sim_def(c, e1, e2, STL)
    assert got.is_true()
    x = got.witness["apex_beg"]
    y = got.witness["apex_end"]
    for leg in (e1.beg - x, e2.beg - x, y - e1.beg, y - e2.beg):
        assert lam(leg).is_zero() and leg.x0.sign() >= 0
    assert de.sim_def(c, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 1, 0, 0, 0)), STL).is_false()


def test_prec_def_two_hop_witness():
    ctx = ScalarContext()
    o = event(v(ctx, 0, 0, 0, 0))
    p = event(v(ctx, 2, 1, 0, 0))
    got = de.prec_def(o, p, STL)
    assert got.is_true()
    m = got.witness["m"].beg
    assert m == v(ctx, Fraction(3, 2), Fraction(3, 2), 0, 0)
    assert de.prec_def(p, o, STL).is_false()
    assert de.prec_def(o, event(v(ctx, 1, 1, 0, 0)), STL).is_false()


def test_eq_def_chain_and_refutation():
    ctx = ScalarContext()
    a, b = vertical(ctx, 0), vertical(ctx, 1)
    c, d = vertical(ctx, 3), vertical(ctx, 4)
    got = de.eq_def(a, b, c, d, STL)
    assert got.is_true()
    # the radar chain of the corrected definition closes exactly
    a1, be, a2 = (got.witness[k].beg for k in ("a1", "be", "a2"))
    assert lam(be - a1).is_zero() and lam(a2 - be).is_zero()
    assert de.eq_def(a, c, c, d, STL).is_false()
    assert de.eq_def(a, a, c, c, STL).is_true()
    assert de.eq_def(a, a, c, d, STL).is_false()


def test_eqrho_def_known_cases():
    """eqrho_def agrees with model.eq_rho on each printed case and on the
    edges of the third, which needs two distinct links on each pair (disc >
    0) and equal discriminants: an equal pair with an optical one (disc = 0
    on both) and two pairs with no link (disc < 0) do not satisfy it."""
    ctx = ScalarContext()
    a, b, c, d = (vertical(ctx, x) for x in (0, 1, 3, 4))
    s = lambda *p: Line(v(ctx, *p), v(ctx, 0, 1, 0, 0))
    optical = s(0, 0, 0, 0), s(1, 0, 1, 0)  # offset null and orthogonal to the direction
    optical2 = s(0, 0, 0, 2), s(1, 0, 0, 3)
    relatable = s(0, 0, 7, 0), s(2, 0, 8, 0)  # q = -3
    relatable2 = s(0, 0, 0, 5), s(2, 0, 0, 6)
    farther = s(0, 0, 0, 0), s(3, 0, 1, 0)  # q = -8
    apart, apart2 = (s(0, 0, 0, 0), s(0, 0, 5, 0)), (s(0, 0, 0, 3), s(0, 0, 5, 3))  # q = 25
    cases = [((a, b, c, d), True), ((a, a, c, c), True), ((a, a, c, d), False), ((a, c, c, d), False),
             (optical + optical2, True), (optical[:1] * 2 + optical, False),
             (relatable + relatable2, True), (relatable + farther, False), (apart + apart2, False)]
    for args, want in cases:
        got = de.eqrho_def(*args, FTL)
        assert (got.status, model.eq_rho(*args)) == (TRUE if want else FALSE, want), args


def test_delta_def_double_diamond():
    ctx = ScalarContext()
    a = vertical(ctx)
    ev = lambda *c: event(v(ctx, *c))
    got = de.delta_def(a, ev(0, 0, 0, 0), ev(3, 0, 0, 0), ev(5, 0, 0, 0), ev(8, 0, 0, 0), STL)
    assert got.is_true()
    assert de.delta_def(
        a, ev(0, 0, 0, 0), ev(3, 0, 0, 0), ev(0, 0, 0, 0), ev(4, 0, 0, 0), STL
    ).is_false()
    # off-worldline projections
    assert de.delta_def(
        a, ev(0, 7, 0, 0), ev(3, 9, 0, 0), ev(0, 0, 0, 0), ev(3, 0, 0, 0), STL
    ).is_true()


def _deltaftl_pair(kind, gen, a, ray):
    """Two arguments of DeltaFTL: `ray` (a signal that a transmits) twice, a
    signal twice that a almost surely does not transmit, two events whose
    SimFTL partner on a is a.base, or `ray` and an event."""
    if kind == "sent":
        return ray, ray
    if kind == "stray":
        p = gen.point()
        s = Segment(p, p + gen.null_dir())
        return s, s
    if kind == "sim":  # w is orthogonal to a.dir; realizable on a spacelike a if timelike
        e1, e2 = gen.sim_pair(a)
        w = e2.beg - e1.beg
        return event(a.base + w), event(a.base - w)
    return ray, event(a.base)


def test_deltaftl_with_signals_follows_the_definition():
    # A signal that is not an event is SimFTL-related to itself alone, so
    # DeltaFTL with such an argument holds by the definition's first
    # disjunct a0p = a1p & b0p = b1p.  Both routes are compared with each
    # other on every case, and with the definition's body where the bounded
    # evaluator decides it (it finds TRUE witnesses, and cannot refute).
    table = load_definitions()
    definition = table["DeltaFTL"]
    names = [p.name for p in definition.params]
    kinds = ("sent", "stray", "sim", "mixed")
    combos = [(k1, k2) for k1 in kinds for k2 in kinds if (k1, k2) != ("sim", "sim")]
    seen, decided = set(), set()
    for seed in range(4 * len(combos)):
        gen = ConfigGen(seed)
        a = gen.observer(FTL)
        ray = Segment(a.base, a.base + gen.null_dir())
        k1, k2 = combos[seed % len(combos)]
        args = [*_deltaftl_pair(k1, gen, a, ray), *_deltaftl_pair(k2, gen, a, ray)]
        geo = GEOMETRIC_PREDICATES["DeltaFTL"]([a, *args])
        assert de.delta_def(a, *args, FTL, undirected=True).status == (TRUE if geo else FALSE), seed
        assert de.delta_def(a, *args, FTL).is_false()  # Sim relates events only
        seen.add((k1, k2, geo))
        if seed >= len(combos):
            continue
        # seven candidates per quantifier reach the witnesses (the six the
        # evaluator builds on a, then a0) and keep a search that cannot
        # decide to 7^4 bodies
        scenario = Scenario(FTL, gen.ctx, {"a": a}, {})
        got = evaluate_bounded(definition.body, EvalModel.from_scenario(scenario, table),
                               dict(zip(names, [a, *args])), Budget(max_witness_candidates=7))
        if not got.is_unknown():
            assert got.is_true() == geo, seed
            decided.add((k1, k2, got.status))
    assert {("sent", "sent", True), ("sent", "sim", True), ("sim", "sent", False)} <= seen
    assert ("sent", "sent", TRUE) in decided
    assert not any(geo for k1, k2, geo in seen if "stray" in (k1, k2) or "mixed" in (k1, k2))


def test_stl_def_counting():
    ctx = ScalarContext()
    assert de.stl_def(vertical(ctx), STL).is_true()
    spacelike = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0))
    got = de.stl_def(spacelike, FTL)
    assert got.is_false()
    assert "g" in got.witness and "g2" in got.witness


def test_stl_lightspeed_ftl_on_lightlike_lines():
    # a lightlike line carries a non-degenerate signal from a.base along it,
    # so Lightspeed holds and a.base begins two signals received on a
    kinds = {IntervalClass.LIGHTLIKE: 0, IntervalClass.TIMELIKE: 0, IntervalClass.SPACELIKE: 0}
    for i in range(60):
        gen = ConfigGen(sub_seed(9, "lightlike", i), 8)
        a = Line(gen.point(), (gen.null_dir, gen.timelike_dir, gen.spacelike_dir)[i % 3]())
        kinds[a.interval_class] += 1
        for name in ("STL", "Lightspeed", "FTL"):
            got = de.DEFINITIONAL_EVALUATORS[name]([a], FTL)
            assert got.is_true() == GEOMETRIC_PREDICATES[name]([a]), (name, a)
        if a.interval_class is not IntervalClass.LIGHTLIKE:
            continue
        s = de.lightspeed_def(a, FTL).witness["s"]
        assert not s.is_degenerate() and a.contains(s.beg) and a.contains(s.end)
        w = de.stl_def(a, FTL).witness
        assert w["g"].is_degenerate() and w["b"] != w["b2"]
        assert all(x.beg == w["g"].beg and a.contains(x.end) for x in (w["b"], w["b2"]))
    assert min(kinds.values()) >= 20


def test_tau_def_fixture():
    ctx = ScalarContext()
    b = vertical(ctx, -1)
    e1 = event(v(ctx, 0, 0, 0, 0))
    e2 = event(v(ctx, 2, 0, 0, 0))
    c = tau_geo(b, e1, e2)
    assert de.tau_def(c, b, e1, e2, STL).is_true()
    wrong = vertical(ctx, 3)
    assert de.tau_def(wrong, b, e1, e2, STL).is_false()
    assert de.tau_def(c, b, e1, e1, STL).is_false()


def test_dual_def_fixture():
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    b = Line(v(ctx, 0, 0, 5, 0), d)
    cands = dual_candidates(a, b)
    assert de.dual_def(cands[0], a, b, FTL).is_true()
    assert de.dual_def(cands[1], a, b, FTL).is_true()
    wrong = Line(v(ctx, 3, 0, 3, 0), d)
    assert de.dual_def(wrong, a, b, FTL).is_false()


def _dual_family_member(gen: ConfigGen, sign: int):
    """(ap, a, b, w): ap = a + U + sign*Y*t + Z*w is a member of the Dual
    family of a non-relatable pair (a, b).  U is b - a in the quotient, t the
    quotient lift of e0 without its U part, w a lifted coordinate vector
    orthogonal to both, Z in [-4/3, 4/3], and Y makes the offset null."""
    ctx = gen.ctx
    a, b = gen.nonrelatable_spacelike_pair()
    d = a.dir
    big_u = quotient_lift(b.base - a.base, d)

    def reject(x, y):
        return x - y.scale(inner(x, y) / lam(y))

    t = reject(quotient_lift(Vec4.of(ctx, 1, 0, 0, 0), d), big_u)
    lifted = (quotient_lift(Vec4.of(ctx, *(int(i == k) for i in range(4))), d) for k in (1, 2, 3))
    w = next(w for w in (reject(reject(x, big_u), t) for x in lifted) if not w.is_zero())
    z = ctx.rat(Fraction(gen.rng.randint(-8, 8), 6))
    y = ctx.sqrt((lam(big_u) + z * z * lam(w)) / -lam(t))
    n = big_u + t.scale(y * ctx.rat(sign)) + w.scale(z)
    return Line(a.base + n, d), a, b, w


def test_dual_readings_agree_on_the_whole_family():
    # Dual's formula admits a one-parameter family of duals; both readings
    # must accept all of it, not only the two dual_candidates
    geo, definitional = GEOMETRIC_PREDICATES["Dual"], de.DEFINITIONAL_EVALUATORS["Dual"]
    off_candidates = 0
    for i in range(200):
        gen = ConfigGen(sub_seed(8, "dual-family", i), 8)
        ap, a, b, w = _dual_family_member(gen, 1 if i % 2 else -1)
        assert geo([ap, a, b]) and definitional([ap, a, b], FTL).is_true(), i
        off_candidates += ap not in dual_candidates(a, b)
        # |2Z| < 3 <= k, so the offset n + k*w is no longer null
        k = gen.ctx.rat(gen.rng.randint(3, 5))
        moved = Line(ap.base + w.scale(k), a.dir)
        assert not geo([moved, a, b]) and definitional([moved, a, b], FTL).is_false(), i
    assert off_candidates > 0


def test_dual_verdict_is_poincare_invariant():
    geo, definitional = GEOMETRIC_PREDICATES["Dual"], de.DEFINITIONAL_EVALUATORS["Dual"]
    buckets, verdicts = set(), set()
    for i in range(100):
        gen = ConfigGen(sub_seed(8, "dual-invariance", i), 8)
        args = suites._gen_dual_args(gen, FTL, i)
        moved = list(suites._transform_args(gen, gen.poincare(), args))
        before = geo(list(args))
        assert geo(moved) == before, i
        assert definitional(moved, FTL).is_true() == before, i
        buckets.add(suites._mix(i, 40, 20, 20, 20))
        verdicts.add(before)
    assert buckets == {0, 1, 2, 3} and verdicts == {True, False}


def test_op_def_polarities():
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    tangent = Line(v(ctx, 1, 0, 1, 0), d)
    far = Line(v(ctx, 0, 0, 5, 0), d)
    assert de.op_def(a, tangent, FTL).is_true()
    assert de.op_def(a, far, FTL).is_false()
    got = de.op_def(vertical(ctx, 0), vertical(ctx, 1), STL)
    assert got.is_false()  # a timelike transversal refutes the universal
    assert got.witness["c"].interval_class.value == "timelike"
    # a == b: the refuting line passes through a.base and misses a.base + a.dir,
    # which for a vertical a needs the second direction of _separating_line
    a = vertical(ctx, 2)
    got = de.op_def(a, a, STL)
    c = got.witness["c"]
    assert got.is_false() and c.interval_class is IntervalClass.TIMELIKE
    assert c.contains(a.base) and not c.contains(a.base + a.dir)
    # a lightlike direction D: f(y) = lam(w + y*D) is linear, and has a root iff <w, D> != 0
    a = Line(v(ctx, 0, 0, 0, 0), v(ctx, 1, 1, 0, 0))
    got = de.op_def(a, Line(v(ctx, 0, 0, 1, 0), a.dir), FTL)
    assert got.is_false() and got.witness is None
    b = Line(v(ctx, 0, 1, 0, 0), a.dir)
    got = de.op_def(a, b, FTL)
    c = got.witness["c"]
    assert got.is_false() and c.interval_class is IntervalClass.TIMELIKE
    assert lines_intersect(c, a) is not None and lines_intersect(c, b) is not None


def _reference_op(a, b, kind):
    """op_def as it stood before it was decided in the pair's plane: Rho by
    model.rho, the status rho_def then had, then a timelike transversal
    searched for in F^4 by doubling k: from a.base to b.at(k) on a timelike
    direction, else along quotient_lift(b.base - a.base) + a.dir/k."""
    pv = de.par_def(a, b, kind)
    if not pv.is_true():
        return pv if pv.is_unknown() else Verdict.false()
    if not model.rho(a, b):
        return Verdict.false()
    if a == b:
        return Verdict.false({"c": de._separating_line(a.base, a.base + a.dir)})
    d, u, ctx = a.dir, b.base - a.base, a.ctx
    if lam(d).sign() > 0 and quotient_norm(u, d).sign() >= 0:
        return Verdict.true()
    for k in (1 << i for i in range(13)):
        if lam(d).sign() < 0:
            probe = b.at(ctx.rat(k)) - a.base
        else:
            probe = quotient_lift(u, d) + d.scale(ctx.rat(1, k))
        if lam(probe).sign() < 0:
            cand = Line(a.base, probe)
            if lines_intersect(cand, b) is not None:
                return Verdict.false({"c": cand})
            break
    return Verdict.unknown("no refuting transversal constructed")


def _op_cases():
    """The OP generator's pairs at both kinds, the parallel pairs of
    _cop_cases at levels 1-2, and FTL tangent pairs: b is a moved by a null
    n orthogonal to their spacelike direction d, so every transversal is
    spacelike but the null one along n."""
    for kind in (STL, FTL):
        for i in range(100):
            yield kind, PRED_GENERATORS["OP"](ConfigGen(sub_seed(9, "op", kind.value, i), 8), kind, i)
    for kind, (a, b) in _cop_cases():
        if a.dir == b.dir and max(x.level for x in (a.base, a.dir, b.base)) > 0:
            yield kind, (a, b)
    for i in range(40):
        gen = ConfigGen(sub_seed(9, "op", "tangent", i), 8)
        n, x, m = gen.null_dir(), gen.point(), gen.timelike_dir()  # <m, n> != 0
        d = x - m.scale(inner(x, n) / inner(m, n))
        if lam(d).is_zero():  # d along n
            continue
        a = Line(gen.point(), d)
        yield FTL, (a, Line(a.base + n.scale(gen.ctx.rat(gen.rng.randint(1, 3))), d))


def test_op_def_matches_the_reference_and_its_witnesses_hold():
    """op_def gives the reference's statuses on _op_cases.  Each FALSE
    witness is a timelike line meeting a and b, and each TRUE witness a null
    segment with one end on each line."""
    seen = collections.Counter()
    for kind, (a, b) in _op_cases():
        got, want = de.op_def(a, b, kind), _reference_op(a, b, kind)
        assert got.status == want.status, (kind, a, b)
        seen[got.status, bool(got.witness)] += 1
        if got.is_false() and got.witness:
            c = got.witness["c"]
            assert c.interval_class is IntervalClass.TIMELIKE
            assert lines_intersect(c, a) is not None and lines_intersect(c, b) is not None
        if got.is_true():
            g = got.witness["g"]
            assert not g.is_degenerate()  # the Segment constructor checked null and future
            assert a.contains(g.beg) and b.contains(g.end) or b.contains(g.beg) and a.contains(g.end)
    assert seen[TRUE, True] >= 40 and seen[FALSE, True] >= 40 and seen[FALSE, False] >= 40, seen


# --- suites -------------------------------------------------------------------


def test_axiom_suites_smoke():
    rep = run_axiom_suite("simplerel", STL, Budget(seed=101), cases=10)
    assert rep.total_failed == 0
    assert rep.total_unknown == 0
    rep2 = run_axiom_suite("simplerelftl", FTL, Budget(seed=103), cases=10)
    assert rep2.gate_failed() == 0


def test_lemma_suites_smoke():
    for kind, seed in ((STL, 11), (FTL, 13)):
        rep = run_lemma_suite(kind, Budget(seed=seed), cases=10)
        assert rep.total_failed == 0, [i.name for i in rep.items if i.failed]


def test_equivalence_zero_disagreements_smoke():
    for kind, seed in ((STL, 7), (FTL, 9)):
        rep = run_equivalence_suite(kind, Budget(seed=seed), cases=50)
        assert rep.total_failed == 0
        for item in rep.items:
            assert item.unknown * 10 <= item.cases, (item.name, item.unknown)


def test_bwrho_and_eqrho_cross_checked():
    # both have a generator and a definitional route but are not in the
    # equivalence suite's default list, which fixes the benchmark's cases
    for kind, seed in ((STL, 0), (FTL, 1)):
        rep = run_equivalence_suite(kind, Budget(seed=seed), cases=100,
                                    predicates=["BwRho", "EqRho"])
        assert [(i.name, i.cases) for i in rep.items] == [("BwRho", 100), ("EqRho", 100)]
        assert rep.total_failed == 0, [(i.name, i.failed) for i in rep.items]


def test_printed_axftl2_counterexample_documented():
    # the unguarded reading fails on degenerate arguments: Bw_rho(b,b,d) is a
    # degenerate signal triangle, yet a transversal of b need not meet d
    from relcheck.model import bw_rho, meets

    ctx = ScalarContext()
    b = vertical(ctx, 0)
    d = vertical(ctx, 0, x2=5)
    a = Line(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    assert bw_rho(b, b, d)
    assert meets(a, b) and not meets(a, d)


def test_printed_axftl3_counterexample_documented():
    # null-separated Beg(beta) and g2 admit no observer line through both
    from relcheck.minkowski import IntervalClass

    ctx = ScalarContext()
    p = v(ctx, -1, 1, 0, 0)
    g2 = v(ctx, -2, 0, 0, 0)
    assert lam(p - g2).is_zero()
    assert Line.through(p, g2).interval_class is IntervalClass.LIGHTLIKE
    assert not FTL.allows(Line.through(p, g2).interval_class)


def test_invariance_smoke():
    rep = invariance_suite(FTL, Budget(seed=15), configs=4)
    assert rep.total_failed == 0


def test_plain_axiso_fails_on_ftl_model():
    rep = run_axiom_suite("simplerel", FTL, Budget(seed=211), cases=40, axioms=["AxIso"])
    item = rep.items[0]
    assert item.failed > 0
    assert item.failures and "bindings" in item.failures[0]


def test_report_determinism():
    a = run_axiom_suite("simplerel", STL, Budget(seed=77), cases=6)
    b = run_axiom_suite("simplerel", STL, Budget(seed=77), cases=6)
    assert a.to_json() == b.to_json()
    c = run_axiom_suite("simplerel", STL, Budget(seed=78), cases=6)
    assert a.to_json() != c.to_json()


def test_generator_determinism():
    g1 = ConfigGen(999, 8)
    g2 = ConfigGen(999, 8)
    for _ in range(20):
        assert g1.point().render() == g2.point().render()
        assert g1.timelike_dir().render() == g2.timelike_dir().render()
    assert sub_seed(1, "x", 2) == sub_seed(1, "x", 2)
    assert sub_seed(1, "x", 2) != sub_seed(1, "x", 3)


def test_generate_configuration_dispatch():
    a, b = ConfigGen(5, 8).parallel_family(2)
    assert a.dir == b.dir and a != b
    assert (a, b) == tuple(ConfigGen(5, 8).parallel_family(2))
    # the predicate generator table is the one dispatch from name to configuration
    args = PRED_GENERATORS["Par"](ConfigGen(5, 8), STL, 0)
    assert args == PRED_GENERATORS["Par"](ConfigGen(5, 8), STL, 0)
    # with bound 0 every offset is zero, so no orthogonal offset exists
    gen = ConfigGen(1, 0)
    c = Line(v(gen.ctx, 0, 0, 0, 0), v(gen.ctx, 1, 0, 0, 0))
    with pytest.raises(GenerationError):
        gen.sim_pair(c)


def test_classframe_basis_per_direction():
    """Each grid direction gets a quotient-orthogonal basis of its
    complement, equal in value across generators and built in each
    generator's own context."""
    timelike = [(1, Fraction(x1, 5), Fraction(x2, 5), Fraction(x3, 5))
                for x1 in range(-3, 4) for x2 in range(-3, 4) for x3 in range(-2, 3)]
    spacelike = [(Fraction(x0, 5), x1, x2, x3)
                 for x0 in range(-3, 4) for x1 in range(-3, 4)
                 for x2 in range(-3, 4) for x3 in range(-2, 3)
                 if x1 * x1 + x2 * x2 + x3 * x3 > Fraction(x0, 5) ** 2]
    assert len(timelike) == 245
    for seed in range(40):  # the lists above are the generators' grids
        gen = ConfigGen(seed, 8)
        assert tuple(x.as_fraction() for x in gen.timelike_dir()) in timelike
        assert tuple(x.as_fraction() for x in gen.spacelike_dir()) in spacelike
    g1, g2 = ConfigGen(1, 8), ConfigGen(2, 8)
    for coords in timelike + random.Random(4).sample(spacelike, 150):
        f1 = suites.ClassFrame(g1, Vec4.of(g1.ctx, *coords))
        f2 = suites.ClassFrame(g2, Vec4.of(g2.ctx, *coords))
        d = f1.dir
        assert len(f1.basis) == 3
        for i, b in enumerate(f1.basis):
            assert inner(b, d).is_zero()
            assert not quotient_norm(b, d).is_zero()
            for other in f1.basis[i + 1:]:
                assert quotient_inner(b, other, d).is_zero()
        for frame, gen in ((f1, g1), (f2, g2)):
            assert all(x.ctx is gen.ctx for b in frame.basis for x in b)
        assert ([[x.as_fraction() for x in b] for b in f1.basis]
                == [[x.as_fraction() for x in b] for b in f2.basis])


def test_line_at_is_the_scalar_combination():
    """ClassFrame.line_at, one int combination reduced once, against the
    point origin + sum of basis_i.scale(c_i) and Line(point, dir), with
    the canonical fields compared, on 500 timelike and spacelike frames."""
    for seed in range(500):
        gen = ConfigGen(seed, 8)
        direction = gen.timelike_dir() if seed % 2 else gen.spacelike_dir()
        frame = suites.ClassFrame(gen, direction)
        coords = [frame.random_coords(), (0, 0, 0), (Fraction(7, 3), -2, Fraction(-1, 12))]
        for cs in coords:
            p = frame.origin
            for c, b in zip(cs, frame.basis):
                p = p + b.scale(gen.ctx.rat(c))
            got, want = frame.line_at(cs), Line(p, frame.dir)
            assert got == want and got.pivot == want.pivot
            assert (got.base.a, got.base.den, got.dir.a, got.dir.den) == (
                want.base.a, want.base.den, want.dir.a, want.dir.den)
            assert got.base.ctx is gen.ctx and got.base[got.pivot].is_zero()


def test_equidistant_locus():
    """Every point of the locus is quotient-equidistant from u, v and w, and
    collinear u, v, w have no locus."""
    loci = 0
    for seed in range(240):
        gen = ConfigGen(seed, 8)
        direction = gen.timelike_dir() if seed % 2 else gen.spacelike_dir()
        frame = suites.ClassFrame(gen, direction)
        cu, cv, cw = frame.random_coords(), frame.random_coords(), frame.random_coords()
        lu, lv, lw = (frame.line_at(c) for c in (cu, cv, cw))
        du = [b - a for a, b in zip(cu, cv)]
        dw = [b - a for a, b in zip(cu, cw)]
        collinear = all(du[i] * dw[j] == du[j] * dw[i] for i in range(3) for j in range(3))
        locus = suites._equidistant_locus(frame, cu, cv, cw)
        assert (locus is None) == collinear
        if locus is not None:
            loci += 1
            o, n = locus
            assert any(n)
            for k in (0, 1, -2):
                x = frame.line_at(tuple(a + k * b for a, b in zip(o, n)))
                assert frame.qnorm(x, lu) == frame.qnorm(x, lv) == frame.qnorm(x, lw)
        s = Fraction(gen.rng.randint(-8, 8), 4)
        cz = tuple(a + s * (b - a) for a, b in zip(cu, cv))
        assert suites._equidistant_locus(frame, cu, cv, cz) is None
    assert loci >= 200


def test_axiom_checker_lookup_is_complete(monkeypatch):
    # stub every checker in place: the suite must look the tables up at run
    # time, find a checker for every manifest name, and use every entry
    reached = set()
    for table in (TARSKI_CHECKERS, AXIOM_CHECKERS):
        for key in table:
            stub = lambda gen, kind, ops, key=key: reached.add(key) or Verdict.true()
            monkeypatch.setitem(table, key, stub)
    for system, kind in (("simplerel", STL), ("simplerelftl", FTL)):
        rep = run_axiom_suite(system, kind, Budget(seed=1), cases=1)
        assert [i.name for i in rep.items] == [e.name for e in load_axioms(system)]
        assert all(i.passed == 1 for i in rep.items)
    assert reached == set(TARSKI_CHECKERS) | set(AXIOM_CHECKERS)


def test_recorded_seed_replays_the_case():
    bound = Budget().coordinate_bound
    rep = run_axiom_suite("simplerelftl", FTL, Budget(seed=1), cases=10, axioms=["AxUnObFTL"])
    case = rep.items[0].failures[0]
    verdict = AXIOM_CHECKERS["AxUnObFTL"](ConfigGen(case["seed"], bound), FTL, Ops("ftl"))
    assert verdict.status == "false"

    rep = run_equivalence_suite(FTL, Budget(seed=1), cases=6, predicates=["Cop"])
    case = next(c for c in rep.items[0].unknowns if c["case"] == 5)
    args = PRED_GENERATORS["Cop"](ConfigGen(case["seed"], bound), FTL, case["case"])
    verdict = de.DEFINITIONAL_EVALUATORS["Cop"](list(args), FTL)
    assert verdict.status == "unknown"


def test_dual_disagreement_fails_the_gate(monkeypatch):
    honest = de.DEFINITIONAL_EVALUATORS["Dual"]
    monkeypatch.setitem(
        de.DEFINITIONAL_EVALUATORS, "Dual", lambda args, kind: honest(args, kind).negate()
    )
    rep = run_equivalence_suite(FTL, Budget(seed=1), cases=4, predicates=["Dual"])
    assert rep.items[0].failed > 0
    assert rep.gate_failed() == rep.items[0].failed
    assert _report_exit([rep]) == EXIT_FAIL


def test_capacity_is_unknown_in_axiom_checkers(monkeypatch):
    # with no room for a square root, every null-root solve runs out of
    # capacity: the case must be UNKNOWN, not a refuted or vacuous axiom
    monkeypatch.setattr(suites, "ConfigGen", functools.partial(ConfigGen, depth_cap=0))
    rep = run_axiom_suite("simplerel", STL, Budget(seed=1), cases=20,
                          axioms=["AxIso", "AxTiInd", "AxUnSi"])
    assert [i.unknown for i in rep.items] == [20, 20, 20], [
        (i.name, i.passed, i.failed) for i in rep.items
    ]
    for item in rep.items:
        assert item.unknowns
        assert all(c["reason"].startswith("capacity:") for c in item.unknowns)


def test_capacity_is_unknown_in_definitional_delta(monkeypatch):
    # out of capacity, the definitional Delta must not read FALSE where the
    # geometric route decides TRUE
    monkeypatch.setattr(suites, "ConfigGen", functools.partial(ConfigGen, depth_cap=0))
    rep = run_equivalence_suite(STL, Budget(seed=1), cases=20, predicates=["Delta"])
    assert rep.total_failed == 0
    assert all(c["reason"].startswith("capacity:") for c in rep.items[0].unknowns)


def test_unsupported_predicate_is_unknown(monkeypatch):
    def checker(gen, kind, ops):
        raise UnsupportedPredicate("Sim requires a slower-than-light observer")

    monkeypatch.setitem(AXIOM_CHECKERS, "AxSim", checker)
    rep = run_axiom_suite("simplerel", STL, Budget(seed=1), cases=3, axioms=["AxSim"])
    item = rep.items[0]
    assert item.unknown == 3
    assert all(c["reason"].startswith("unsupported:") for c in item.unknowns)


def test_crash_names_item_case_and_replay_seed(monkeypatch):
    # an exception other than CapacityError/UnsupportedPredicate stays a
    # crash, and its message replays the case that raised it
    draws = []

    def checker(gen, kind, ops):
        draws.append(gen.point())
        if len(draws) == 3:
            raise AssertionError("planted")
        return Verdict.true()

    monkeypatch.setitem(AXIOM_CHECKERS, "AxSim", checker)
    budget = Budget(seed=1)
    with pytest.raises(RuntimeError) as err:
        run_axiom_suite("simplerel", STL, budget, cases=5, axioms=["AxSim"])
    msg = str(err.value)
    assert isinstance(err.value.__cause__, AssertionError)
    assert "AxSim case 2 raised AssertionError: planted" in msg
    seed = sub_seed(1, "simplerel", "AxSim", 2)
    assert f"ConfigGen({seed}, {budget.coordinate_bound})" in msg
    assert ConfigGen(seed, budget.coordinate_bound).point() == draws[2]


def test_dual_branch_keeps_unknown(monkeypatch):
    # the first BwRho call is the direct disjunct; every dual candidate after
    # it is undecided, so BwFTL cannot be refuted
    honest = de.bwrho_def
    calls = []

    def bwrho(*args):
        calls.append(args)
        return honest(*args) if len(calls) == 1 else Verdict.unknown("capacity: stub")

    args = PRED_GENERATORS["BwFTL"](ConfigGen(12, 8), FTL, 12)
    monkeypatch.setattr(de, "bwrho_def", bwrho)
    assert de.bwftl_def(*args, FTL).is_unknown()
    assert len(calls) > 1


def test_generator_patterns_certified():
    gen = ConfigGen(4242, 8)
    a, b = gen.nonrelatable_spacelike_pair()
    from relcheck.model import rho

    assert not rho(a, b)
    e1, e2 = gen.null_connected_pair()
    assert lam(e2.beg - e1.beg).is_zero()
    p, q = gen.chron_pair()
    assert lam(q.beg - p.beg).sign() < 0 and (q.beg - p.beg).x0.sign() > 0
    c = gen.timelike_line()
    s1, s2 = gen.sim_pair(c)
    assert inner(s2.beg - s1.beg, c.dir).is_zero()


# --- bounded evaluator ------------------------------------------------------------


@pytest.fixture(scope="module")
def table():
    return load_definitions()


def test_forall_stl_symbolic(table):
    f = parse_formula("forall a:Ob. STL(a)", table.signatures())
    assert evaluate_bounded(f, EvalModel(STL, table=table)).is_true()
    got = evaluate_bounded(f, EvalModel(FTL, table=table))
    assert got.is_false()
    assert got.witness["a"].interval_class.value == "spacelike"


def test_unknown_names_exhausted_quantifier(table):
    f = parse_formula("forall s:Si. Ev(s)", table.signatures())
    got = evaluate_bounded(f, EvalModel(STL, table=table))
    assert got.is_unknown()
    assert "forall s:Si" in got.reason


def test_exists_witness_from_scenario(table):
    scen = Scenario.from_dict(
        {
            "kind": "stl",
            "observers": {"a": {"base": ["0", "0", "0", "0"], "dir": ["1", "0", "0", "0"]}},
            "signals": {"s": {"beg": ["0", "0", "0", "0"], "end": ["1", "1", "0", "0"]}},
        }
    )
    model = EvalModel.from_scenario(scen, table)
    f = parse_formula("exists x:Si. (T(a,x) & !Ev(x))", table.signatures(), {"a": "Ob"})
    got = evaluate_bounded(f, model, {"a": scen.observers["a"]})
    assert got.is_true()


def test_unsupported_atom_combines_with_decided_siblings(table):
    scen = Scenario.from_dict(
        {
            "kind": "ftl",
            "observers": {"f": {"base": ["0", "0", "0", "0"], "dir": ["0", "1", "0", "0"]}},
            "signals": {"e": {"beg": ["0", "0", "0", "0"], "end": ["0", "0", "0", "0"]}},
        }
    )
    model = EvalModel.from_scenario(scen, table)
    env = {"f": scen.observers["f"], "e": scen.signals["e"]}
    names = {"f": "Ob", "e": "Si"}
    # Sim is not defined for a faster-than-light observer
    got = evaluate_bounded(parse_formula("Sim(f,e,e)", table.signatures(), names), model, env)
    assert got.is_unknown() and got.reason.startswith("unsupported:")
    f = parse_formula("Sim(f,e,e) & Prec(e,e)", table.signatures(), names)
    assert evaluate_bounded(f, model, env).is_false()


FTL_SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "ftl.json"


@pytest.fixture(scope="module")
def ftl_eval(table):
    """Evaluate formula text over demos/scenarios/ftl.json.

    There Sim(ftl,ray,ray) is UNKNOWN (Sim needs a slower-than-light
    observer), T(stl,ray) is TRUE and R(stl,ray) is FALSE.
    """
    scen = Scenario.load(str(FTL_SCENARIO))
    model = EvalModel.from_scenario(scen, table)
    env = {**scen.observers, **scen.signals}
    names = {"stl": "Ob", "ftl": "Ob", "ray": "Si"}
    return lambda text: evaluate_bounded(parse_formula(text, table.signatures(), names), model, env)


def test_connectives_three_valued(ftl_eval):
    unknown, true, false = "Sim(ftl,ray,ray)", "T(stl,ray)", "R(stl,ray)"
    reason = ftl_eval(unknown).reason
    assert ftl_eval(unknown).is_unknown() and reason.startswith("unsupported:")
    assert ftl_eval(true).is_true() and ftl_eval(false).is_false()
    assert ftl_eval(f"{unknown} | {true}").is_true()
    got = ftl_eval(f"{unknown} | {false}")
    assert got.is_unknown() and got.reason == reason
    assert ftl_eval(f"{false} & {unknown}").is_false()
    assert ftl_eval(f"{true} & {true}").is_true() and ftl_eval(f"{false} | {false}").is_false()
    got = ftl_eval(f"{unknown} & {true}")
    assert got.is_unknown() and got.reason == reason
    for other in (true, false):
        got = ftl_eval(f"{unknown} <-> {other}")
        assert got.is_unknown() and got.reason == reason
    assert ftl_eval(f"{true} <-> {false}").is_false()
    assert ftl_eval(f"{false} <-> {false}").is_true()
    for a in (unknown, true, false):
        for b in (unknown, true, false):
            implies, spelled = ftl_eval(f"{a} -> {b}"), ftl_eval(f"!{a} | {b}")
            assert (implies.status, implies.reason) == (spelled.status, spelled.reason), (a, b)


def test_two_point_observer_rule(table):
    scen = Scenario.from_dict(
        {
            "kind": "stl",
            "observers": {},
            "signals": {
                "e1": {"beg": ["0", "0", "0", "0"], "end": ["0", "0", "0", "0"]},
                "e2": {"beg": ["1", "1", "0", "0"], "end": ["1", "1", "0", "0"]},
            },
        }
    )
    model = EvalModel.from_scenario(scen, table)
    f = parse_formula(
        "exists a:Ob. (T(a,e1) & T(a,e2))",
        table.signatures(),
        {"e1": "Si", "e2": "Si"},
    )
    env = {"e1": scen.signals["e1"], "e2": scen.signals["e2"]}
    # the only line through both points is lightlike: not an observer
    assert evaluate_bounded(f, model, env).is_false()
