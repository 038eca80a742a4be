"""Definitional-route evaluation of the defined predicates.

Each procedure here decides a predicate by solving the quantifier structure
of its *definition* over the primitives T, R, = — constructing explicit
witnesses for existentials and refuting universals with verified
counterexamples.  Two routes are not yet independent of the geometric twin
they are cross-checked against: `rho_def` calls `model.rho`, and the third
case of `eqrho_def` computes the quotient norms again.  `dual_def` decides
the printed Dual clauses with `model.rho`, `optical_plane` and `bw_rho`, not
with its closed-form twin `model.dual_geo`.  Layering follows the definition
DAG: a procedure may use the procedures of the predicates its definition
mentions.  None of them catches a CapacityError from the scalar tower: it
propagates to the suites' case driver, which records the case as UNKNOWN.

Witness searches read a candidate line's class before they build it: the
line through p and q has the class of q - p, and in `cop_def` that class
comes from a quadratic in the parameter of q.  The four M conjuncts of Cop
are checked at the events the transversals were built on, not solved again.

The null links from an event to a given worldline come from
`model.null_links`.  Bw and BwRho run one loop, `_null_triangle`, over the
pairs of null links from a's base to b and to c; they differ only in the
orientation rule, since BwRho also admits the all-past triangle.

Derived unsatisfiability rules (the FALSE sides of Sim, Eq, Delta and the
dual machinery) come from eliminating the quantifiers by hand; every rule
is stated next to its code.  TRUE verdicts carry witness bindings built
through the `Segment` and `Line` constructors, which refuse a non-null or
past-directed segment and a zero direction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from relcheck.minkowski import (
    IntervalClass,
    Line,
    Segment,
    Vec4,
    along,
    classify,
    inner,
    lam,
    lines_intersect,
    quotient_lift,
    quotient_norm,
    sign_class,
)
from relcheck.model import (
    ModelKind,
    bw_rho,
    dual_candidates,
    event,
    first_null_link,
    null_links,
    optical_plane,
    rho,
    rho_witness,
    witness_zero_and_two,
)
from relcheck.scalar import Scalar, ScalarContext
from relcheck.verifier.report import Verdict


def _separating_line(keep: Vec4, avoid: Vec4) -> Line:
    """A timelike line through `keep` missing `avoid` (they must differ):
    avoid - keep is parallel to at most one of the two directions tried."""
    line = Line(keep, Vec4.of(keep.ctx, 1, 0, 0, 0))
    return Line(keep, Vec4.of(keep.ctx, 3, 1, 0, 0)) if line.contains(avoid) else line


def ev_def(s: Segment, kind: ModelKind) -> Verdict:
    # forall a (T(a,s) <-> R(a,s)): a counterexample is a universe line
    # through exactly one endpoint, which exists exactly when beg != end
    if (s.end - s.beg).is_zero():
        return Verdict.true()
    witness = _separating_line(s.beg, s.end)
    assert witness.contains(s.beg) and not witness.contains(s.end)
    return Verdict.false({"a": witness})


def l_def(e1: Segment, e2: Segment, kind: ModelKind) -> Verdict:
    # exists s (IsBeg(e1,s) & IsEnd(e2,s)): both endpoints of s are pinned,
    # so the one candidate decides
    if not ev_def(e1, kind).is_true() or not ev_def(e2, kind).is_true():
        return Verdict.false()
    d = e2.beg - e1.beg
    if lam(d).is_zero() and d.x0.sign() >= 0:
        return Verdict.true({"s": Segment(e1.beg, e2.beg)})
    return Verdict.false()


def m_def(a: Line, b: Line, kind: ModelKind) -> Verdict:
    # exists s (T(a,s) & T(b,s)): Beg(s) must lie on both lines
    meet = lines_intersect(a, b)
    return Verdict.false() if meet is None else Verdict.true({"s": event(meet)})


def _grow_until(predicate: Callable[[int], Optional[object]], cap: int = 4096):
    k = 1
    while k <= cap:
        got = predicate(k)
        if got is not None:
            return got
        k *= 2
    return None


def cop_def(a: Line, b: Line, kind: ModelKind) -> Verdict:
    """Witness construction for Cop: two transversals slanted in opposite
    senses cross at a shared signal point off both lines.  Unknown when no
    such pair is found (skew pairs stay undecided: a complete refutation
    would need the same rank computation as the geometric evaluator)."""
    ctx = a.ctx
    if a == b:
        # any two universe lines through one off-line point meeting a
        for off in (Vec4.of(ctx, 0, 1, 0, 0), Vec4.of(ctx, 0, 0, 1, 0),
                    Vec4.of(ctx, 0, 1, 1, 0)):
            g = a.base + off
            if a.contains(g):
                continue
            c = _line_through_meeting(g, a, Fraction(5), kind)
            d = _line_through_meeting(g, a, Fraction(-5), kind)
            if c is not None and d is not None and c != d:
                return Verdict.true({"c": c, "d": d, "g": event(g)})
        return Verdict.unknown("no Cop witness constructed")

    # the transversal from p to b.at(k) has direction w + k*b.dir with
    # w = b.base - p, so its class is the sign of c0 + (c1 + lam(b.dir)*k)*k;
    # a pair is built only when kind allows both classes
    lam_b = lam(b.dir)

    def allows_at(p: Vec4) -> Callable[[Scalar], bool]:
        w = b.base - p
        c0, c1 = lam(w), inner(w, b.dir) * 2
        return lambda k: kind.allows(sign_class((c0 + (c1 + lam_b * k) * k).sign()))

    for t1, t2 in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1)),
                   (Fraction(1, 2), Fraction(-3, 2)), (Fraction(-2), Fraction(2)),
                   (Fraction(3), Fraction(-3))):
        p1, p2 = a.at(ctx.rat(t1)), a.at(ctx.rat(t2))
        allows1, allows2 = allows_at(p1), allows_at(p2)
        for k in (1, 2, 3, 5, 8, 13, 64, 256, 1024):
            k1, k2 = ctx.rat(k), ctx.rat(-k - 1)
            if not (allows1(k1) and allows2(k2)):
                continue
            q1, q2 = b.at(k1), b.at(k2)
            c, d = Line(p1, q1 - p1), Line(p2, q2 - p2)
            if c == d or c in (a, b) or d in (a, b):
                continue
            g = lines_intersect(c, d)
            if g is None or a.contains(g) or b.contains(g):
                continue
            # M(a,c), M(c,b), M(d,b) and M(d,a), each at the event it was built on
            if all(x.contains(s) and y.contains(s)
                   for x, y, s in ((a, c, p1), (c, b, q1), (d, b, q2), (d, a, p2))):
                return Verdict.true({"c": c, "d": d, "g": event(g)})
    return Verdict.unknown("no Cop witness constructed")


def _line_through_meeting(p: Vec4, target: Line, param: Fraction, kind: ModelKind) -> Optional[Line]:
    ctx = p.ctx

    def attempt(k: int) -> Optional[Line]:
        v = target.at(ctx.rat(param * k)) - p
        return Line(p, v) if kind.allows(classify(v)) else None

    return _grow_until(attempt)


def par_def(a: Line, b: Line, kind: ModelKind) -> Verdict:
    if a == b:
        return Verdict.true()
    mv = m_def(a, b, kind)
    if mv.is_true():
        return Verdict.false()  # first disjunct needs !M, second needs a = b
    cv = cop_def(a, b, kind)
    if cv.is_true():
        return Verdict.true(cv.witness)
    return Verdict.unknown("Cop undecided")


# --- betweenness -----------------------------------------------------------


def _parallel_layer(kind: ModelKind, a: Line, *rest: Line) -> Optional[Verdict]:
    """Evaluate the Par conjuncts of a definition; None means all true."""
    for other in rest:
        pv = par_def(a, other, kind)
        if pv.is_false():
            return Verdict.false()
        if pv.is_unknown():
            return pv
    return None


def _null_triangle(a: Line, b: Line, c: Line, kind: ModelKind,
                   oriented: Callable[[list[int]], bool]) -> Verdict:
    """exists x,y,z events on a,b,c joined by null links x->y, x->z, y->z
    whose time signs pass `oriented`.

    All hosts share one direction, so solutions are invariant under common
    translation along it: anchoring x at a.base and enumerating the pairs of
    its null links to b and to c is exhaustive.
    """
    guard = _parallel_layer(kind, a, b, c)
    if guard is not None:
        return guard
    x = a.base
    links_ab = list(null_links(x, b))
    links_ac = list(null_links(x, c))
    for v_ab in links_ab:
        for v_ac in links_ac:
            v_bc = v_ac - v_ab
            if oriented([v.x0.sign() for v in (v_ab, v_ac, v_bc)]) and lam(v_bc).is_zero():
                return Verdict.true({"x": event(x), "y": event(x + v_ab), "z": event(x + v_ac)})
    return Verdict.false()


def bw_def(a: Line, b: Line, c: Line, kind: ModelKind) -> Verdict:
    """exists x,y,z events on a,b,c with L(x,y), L(x,z), L(y,z): the null
    triangle with all three links future-directed."""
    return _null_triangle(a, b, c, kind, lambda signs: min(signs) >= 0)


def bwrho_def(a: Line, b: Line, c: Line, kind: ModelKind) -> Verdict:
    """Like bw_def with the all-past triangle admitted, the reversed
    orientation disjunct of def_bwrho.fol."""
    return _null_triangle(a, b, c, kind, lambda signs: min(signs) >= 0 or max(signs) <= 0)


# --- simultaneity ------------------------------------------------------------


def _diamond_solutions(c_dir: Vec4, e1: Vec4, e2: Vec4):
    """Apex pairs (x, y) on some line parallel to c_dir with null links to
    both events.  Subtracting the leg equations pairwise forces
    <e2-e1, dir> = 0 and x, y = mid -/+ s*dir with s^2 = -lam(u)/(4 lam(dir));
    outside that the system is unsatisfiable."""
    ctx = e1.ctx
    u = e2 - e1
    if not inner(u, c_dir).is_zero():
        return []
    mid = (e1 + e2).scale(ctx.rat(1, 2))
    s_sq = -(lam(u)) / (lam(c_dir) * 4)
    if s_sq.sign() < 0:
        return []
    s = ctx.sqrt(s_sq)
    return [
        (mid + c_dir.scale(s), mid - c_dir.scale(s)),
        (mid - c_dir.scale(s), mid + c_dir.scale(s)),
    ]


def sim_def(c: Line, b1: Segment, b2: Segment, kind: ModelKind) -> Verdict:
    """Oriented four-signal diamond on a line parallel to c."""
    if not ev_def(b1, kind).is_true() or not ev_def(b2, kind).is_true():
        return Verdict.false()
    e1, e2 = b1.beg, b2.beg
    if (e2 - e1).is_zero():
        # degenerate diamond with its apexes at the event itself
        return Verdict.true({"a": Line(e1, c.dir)})
    for x, y in _diamond_solutions(c.dir, e1, e2):
        legs = [e1 - x, e2 - x, y - e1, y - e2]
        if all(lam(w).is_zero() for w in legs) and all(w.x0.sign() >= 0 for w in legs):
            return Verdict.true({"a": Line(x, c.dir), "apex_beg": x, "apex_end": y})
    return Verdict.false()


def simftl_def(c: Line, b1: Segment, b2: Segment, kind: ModelKind) -> Verdict:
    """Undirected variant: light between the apexes and the events."""
    if b1 == b2:
        return Verdict.true()
    if not ev_def(b1, kind).is_true() or not ev_def(b2, kind).is_true():
        return Verdict.false()
    for x, y in _diamond_solutions(c.dir, b1.beg, b2.beg):
        if (y - x).is_zero():
            continue  # the witness events must differ
        legs = [b1.beg - x, b2.beg - x, y - b1.beg, y - b2.beg]
        if all(lam(w).is_zero() for w in legs):
            return Verdict.true({"a": Line(x, c.dir), "g": event(x), "d": event(y)})
    return Verdict.false()


# --- frame time --------------------------------------------------------------


def _sim_partner(a: Line, s: Segment, undirected: bool, kind: ModelKind) -> Optional[Segment]:
    """The one signal p with T(a, p) and Sim(a, s, p) (SimFTL when undirected),
    or None.  For an event s the only candidate is the event of a at the
    foot x with <s - x, a.dir> = 0.  Sim and SimFTL's diamond need events, so
    a signal that is not an event is SimFTL-related to itself alone, by
    def_simftl's `| b1 = b2`, and Sim-related to nothing."""
    if not ev_def(s, kind).is_true():
        return s if undirected and a.contains(s.beg) else None
    t = inner(s.beg - a.base, a.dir) / lam(a.dir)
    x = event(a.at(t))
    check = simftl_def if undirected else sim_def
    return x if check(a, s, x, kind).is_true() else None


def _double_diamond(b_dir: Vec4, p: Vec4, q: Vec4, r: Vec4, s: Vec4):
    """One line parallel to b_dir carrying an apex for the pair (p,q) and an
    apex for (r,s).  The four events lie on one host line, so each pair
    difference is along b_dir; per-apex algebra forces apex = mid + w with
    w ⊥ b_dir and lam(w) = -lam(diff)/4, and a shared carrier line forces
    the same w on both sides, i.e. lam(p-q) == lam(r-s)."""
    ctx = p.ctx
    d1 = q - p
    d2 = s - r
    if lam(d1) != lam(d2):
        return None
    target = -(lam(d1)) / ctx.rat(4)
    w = _vector_with_norm(ctx, b_dir, target)
    if w is None:
        return None
    mid1 = (p + q).scale(ctx.rat(1, 2))
    mid2 = (r + s).scale(ctx.rat(1, 2))
    a2 = mid1 + w
    b2 = mid2 + w
    # both apexes on one parallel line iff their difference is along b_dir
    return None if along(b2 - a2, b_dir) is None else (a2, b2)


def _vector_with_norm(ctx: ScalarContext, direction: Vec4, target: Scalar) -> Optional[Vec4]:
    """Some w orthogonal to `direction` with lam(w) == target.

    The orthogonal complement of a timelike direction is positive definite
    and that of a spacelike one has signature (-,+,+), so a coordinate
    rejection with the required norm sign always exists.
    """
    sign_target = target.sign()
    if sign_target == 0:
        return Vec4.of(ctx, 0, 0, 0, 0)
    for i in range(4):
        e_i = Vec4.of(ctx, *[1 if j == i else 0 for j in range(4)])
        w = quotient_lift(e_i, direction)
        if w.is_zero():
            continue
        if lam(w).sign() == sign_target:
            return w.scale(ctx.sqrt(target / lam(w)))
    return None


def delta_def(
    a: Line, a0: Segment, a1: Segment, b0: Segment, b1: Segment,
    kind: ModelKind, undirected: bool = False,
) -> Verdict:
    args = (a0, a1, b0, b1)
    partners = [_sim_partner(a, x, undirected, kind) for x in args]
    if any(p is None for p in partners):
        return Verdict.false()
    a0p, a1p, b0p, b1p = partners
    if a0p == a1p and b0p == b1p:
        return Verdict.true({"b": Line(a.base, a.dir)})
    # the second disjunct needs a0p != a1p, b0p != b1p and Lsym, which holds
    # only between events
    if a0p == a1p or b0p == b1p or not all(ev_def(x, kind).is_true() for x in args):
        return Verdict.false()
    p0, p1, q0, q1 = (p.beg for p in partners)
    got = _double_diamond(a.dir, p0, p1, q0, q1)
    if got is None:
        return Verdict.false()
    apex1, apex2 = got
    for x, e in ((apex1, p0), (apex1, p1), (apex2, q0), (apex2, q1)):
        if not lam(e - x).is_zero():
            return Verdict.unknown("double-diamond witness failed verification")
    return Verdict.true({"b": Line(apex1, a.dir), "a2": event(apex1), "b2": event(apex2)})


# --- chronological precedence ---------------------------------------------------


def prec_def(e1: Segment, e2: Segment, kind: ModelKind) -> Verdict:
    if l_def(e1, e2, kind).is_true():
        return Verdict.false()
    if not (ev_def(e1, kind).is_true() and ev_def(e2, kind).is_true()):
        return Verdict.false()
    p, q = e1.beg, e2.beg
    host = Line.through(p, q)
    if not kind.allows(host.interval_class):
        return Verdict.false()
    u = q - p
    # two-hop chain: a sum of two future null vectors is any future causal
    # vector, so a middle event exists iff u is future timelike or null
    if lam(u).sign() > 0 or u.x0.sign() <= 0:
        return Verdict.false()
    ctx = p.ctx
    for n in (Vec4.of(ctx, 1, 1, 0, 0), Vec4.of(ctx, 1, 0, 1, 0), Vec4.of(ctx, 1, 0, 0, 1)):
        dot = inner(u, n)
        if dot.is_zero():
            continue
        t = lam(u) / (dot * 2)
        m = p + n.scale(t)
        legs = (m - p, q - m)
        if all(lam(w).is_zero() and w.x0.sign() >= 0 for w in legs):
            return Verdict.true({"a": host, "m": event(m)})
    return Verdict.unknown("no two-hop witness constructed")


# --- STL / Lightspeed / FTL -----------------------------------------------------


def stl_def(a: Line, kind: ModelKind) -> Verdict:
    """forall events g: exactly one future signal from g ending on a.

    For timelike lines the connection count is one for every event (the
    gap quadratic always has one future root); otherwise a verified
    witness event with count != 1 refutes the universal.  On a lightlike
    line that event is a.base, which begins two signals received on a.
    """
    if a.interval_class is IntervalClass.TIMELIKE:
        return Verdict.true()
    chord = _light_chord(a)
    if chord is not None:
        return Verdict.false({"g": event(a.base), "b": event(a.base), "b2": chord})
    got = witness_zero_and_two(a)
    assert got is not None
    p_zero, p_two = got
    return Verdict.false({"g": event(p_zero), "g2": event(p_two)})


def _light_chord(a: Line) -> Optional[Segment]:
    """A non-degenerate signal with both endpoints on a, or None.  A chord
    between two points of a lies along a.dir, so one exists iff a is
    lightlike.  A non-zero null vector has x0 != 0, so the canonical a.dir
    then has x0 = 1 and the chord from a.base to a.base + a.dir is future."""
    if not lam(a.dir).is_zero():
        return None
    return Segment(a.base, a.base + a.dir)


def lightspeed_def(a: Line, kind: ModelKind) -> Verdict:
    # exists s (!Ev(s) & T(a,s) & R(a,s))
    chord = _light_chord(a)
    return Verdict.false() if chord is None else Verdict.true({"s": chord})


def ftl_def(a: Line, kind: ModelKind) -> Verdict:
    ls = lightspeed_def(a, kind)
    st = stl_def(a, kind)
    if ls.is_false() and st.is_false():
        return Verdict.true()
    if ls.is_true() or st.is_true():
        return Verdict.false()
    return Verdict.unknown("parts undecided")


def tr_def(a: Line, s: Segment, kind: ModelKind) -> Verdict:
    if a.contains(s.beg) or a.contains(s.end):
        return Verdict.true()
    return Verdict.false()


# --- tau -------------------------------------------------------------------------


def tau_def(c: Line, b: Line, e1: Segment, e2: Segment, kind: ModelKind,
            ftl_variant: bool = False) -> Verdict:
    pv = prec_def(e1, e2, kind)
    if not pv.is_true():
        return Verdict.false() if pv.is_false() else pv
    host = Line.through(e1.beg, e2.beg)  # the only transmitter of both
    if not kind.allows(host.interval_class):
        return Verdict.false()
    if not stl_def(host, kind).is_true():
        return Verdict.false()
    if host == b:
        return Verdict.false()
    bv = (bwftl_def if ftl_variant else bw_def)(b, host, c, kind)
    if not bv.is_true():
        return bv if bv.is_unknown() else Verdict.false()
    # g: Beg on c, End = e2, with Sim(host, Beg(g), e1)
    sim = simftl_def if ftl_variant else sim_def
    for v in null_links(e2.beg, c):
        if v.x0.sign() > 0:
            continue
        gb = e2.beg + v
        sv = sim(host, event(gb), event(e1.beg), kind)
        if sv.is_true():
            return Verdict.true({"a": host, "g": Segment(gb, e2.beg)})
        if sv.is_unknown():
            return sv
    return Verdict.false()


# --- rho / OP / Eq family ---------------------------------------------------------


def rho_def(a: Line, b: Line, kind: ModelKind) -> Verdict:
    """exists g (TR(a,g) & TR(b,g)): four endpoint placements, each a
    null-pair existence question between two lines."""
    if rho(a, b):
        w = rho_witness(a, b)
        assert w is not None
        p, q = w
        seg = Segment(p, q) if (q - p).x0.sign() >= 0 else Segment(q, p)
        return Verdict.true({"g": seg})
    return Verdict.false()


def op_def(a: Line, b: Line, kind: ModelKind) -> Verdict:
    pv = par_def(a, b, kind)
    if not pv.is_true():
        return pv if pv.is_unknown() else Verdict.false()
    rv = rho_def(a, b, kind)
    if not rv.is_true():
        return Verdict.false() if rv.is_false() else rv
    # forall c (M(a,c) & M(b,c) -> FTL(c)): transversals of a parallel pair
    # lie in its affine plane, whose direction cone is x^2 lam(d) + y^2 Q(u);
    # a non-FTL transversal exists iff the plane carries a timelike direction
    if a == b:
        # any timelike line through a point of a meets it twice over
        return Verdict.false({"c": _separating_line(a.base, a.base + a.dir)})
    d = a.dir
    u = b.base - a.base
    q = quotient_norm(u, d)
    if lam(d).sign() > 0 and q.sign() >= 0:
        return Verdict.true(rv.witness)
    # a timelike in-plane transversal exists; construct and verify one
    ctx = a.ctx
    cand = None
    if lam(d).sign() < 0:

        def attempt_timelike(k: int) -> Optional[Line]:
            v = b.at(ctx.rat(Fraction(k))) - a.base
            return Line(a.base, v) if classify(v) is IntervalClass.TIMELIKE else None

        cand = _grow_until(attempt_timelike)
    else:
        # spacelike direction, quotient-timelike offset: mix the lifted
        # offset with a shrinking direction component
        ulift = quotient_lift(u, d)

        def attempt_mixed(k: int) -> Optional[Line]:
            probe = ulift + d.scale(ctx.rat(Fraction(1, k)))
            if classify(probe) is IntervalClass.TIMELIKE:
                return Line(a.base, probe)
            return None

        cand = _grow_until(attempt_mixed)
    if cand is not None and cand.interval_class is IntervalClass.TIMELIKE:
        # cand meets a at its base; check it meets b as well
        if lines_intersect(cand, b) is not None:
            return Verdict.false({"c": cand})
    return Verdict.unknown("no refuting transversal constructed")


def eq_def(a: Line, b: Line, c: Line, d: Line, kind: ModelKind) -> Verdict:
    """The corrected chain definition.  On a common vertical class the link
    times force r_EA = r_EC (first diamond), t(a2)-t(a1) = 2 r_AB (b-chain),
    t(g2)-t(g1) = 2 r_CD (d-chain) and t(a2) = t(g2) (second diamond), so
    the block is satisfiable iff the two quotient distances agree."""
    guard = _parallel_layer(kind, a, b, c, d)
    if guard is not None:
        return guard
    if a.interval_class is not IntervalClass.TIMELIKE:
        return Verdict.unknown("Eq definitional evaluation outside the STL class")
    dd = a.dir
    q_ab = quotient_norm(b.base - a.base, dd)
    q_cd = quotient_norm(d.base - c.base, dd)
    if q_ab != q_cd:
        return Verdict.false()
    ctx = a.ctx
    e_line = Line((a.base + c.base).scale(ctx.rat(1, 2)), dd)
    witness = _eq_witness(e_line, a, b, c, d)
    if witness is None:
        return Verdict.unknown("Eq witness construction failed")
    return Verdict.true(witness)


def _eq_witness(e: Line, a: Line, b: Line, c: Line, d: Line) -> Optional[dict]:
    e1pt = e.base
    va = first_null_link(e1pt, a, future=True)
    vc = first_null_link(e1pt, c, future=True)
    if va is None or vc is None:
        return None
    a1 = e1pt + va
    g1 = e1pt + vc
    v_ab = first_null_link(a1, b, future=True)
    v_cd = first_null_link(g1, d, future=True)
    if v_ab is None or v_cd is None:
        return None
    be = a1 + v_ab
    a2 = _reflect_back(a, be, a1)
    de = g1 + v_cd
    g2 = _reflect_back(c, de, g1)
    v_e1p = first_null_link(a1, e, future=True)
    v_e2 = first_null_link(a2, e, future=False)
    v_e2p = first_null_link(a2, e, future=True)
    if v_e1p is None or v_e2 is None or v_e2p is None:
        return None
    e1p, e2, e2p = a1 + v_e1p, a2 + v_e2, a2 + v_e2p
    checks = [
        (e1pt, a1), (e1pt, g1), (a1, e1p), (g1, e1p),
        (a1, be), (be, a2), (g1, de), (de, g2),
        (e2, a2), (e2, g2), (a2, e2p), (g2, e2p),
    ]
    for p, q in checks:
        w = q - p
        if not lam(w).is_zero() or w.x0.sign() < 0:
            return None
    return {
        "e": e,
        "a1": event(a1), "a2": event(a2), "be": event(be),
        "g1": event(g1), "g2": event(g2), "de": event(de),
        "e1": event(e1pt), "e1p": event(e1p), "e2": event(e2), "e2p": event(e2p),
    }


def _reflect_back(host: Line, bounce: Vec4, start: Vec4) -> Vec4:
    """Second endpoint of the radar chain start -> bounce -> x on host."""
    for v in null_links(bounce, host):
        x = bounce + v
        if v.x0.sign() >= 0 and not (x - start).is_zero():
            return x
    return start  # degenerate chain (bounce on the host): x == start


def eqrho_def(a: Line, b: Line, c: Line, d: Line, kind: ModelKind) -> Verdict:
    guard = _parallel_layer(kind, a, b, c, d)
    if guard is not None:
        return guard
    if a == b and c == d:
        return Verdict.true()
    ov1 = op_def(a, b, kind)
    ov2 = op_def(c, d, kind)
    if ov1.is_true() and ov2.is_true():
        return Verdict.true()
    if ov1.is_unknown() or ov2.is_unknown():
        return Verdict.unknown("OP undecided")
    # third case: two distinct events on a linked to one event of b force
    # the two roots of the gap quadratic, so the block needs a strictly
    # positive discriminant on both pairs and, through the shared e line
    # (whose universal clause pins equal root sets), equal quotient norms
    dd = a.dir
    q_ab = quotient_norm(b.base - a.base, dd)
    q_cd = quotient_norm(d.base - c.base, dd)
    strict_ab = (-(lam(dd)) * q_ab).sign() > 0
    strict_cd = (-(lam(dd)) * q_cd).sign() > 0
    if not (strict_ab and strict_cd):
        return Verdict.false()
    if q_ab != q_cd:
        return Verdict.false()
    return Verdict.true()


def dual_def(ap: Line, a: Line, b: Line, kind: ModelKind) -> Verdict:
    """The printed Dual clauses: a, b parallel and not relatable, OP(a, ap),
    and chain rigidity forces the OP witness for b onto the midline m of a
    and ap, which must satisfy OP(b, m) and BwRho(a, m, ap)."""
    if a.dir != b.dir or a == b or rho(a, b) or not optical_plane(a, ap):
        return Verdict.false()
    mid = Line((a.base + ap.base).scale(a.ctx.rat(1, 2)), a.dir)
    return Verdict.true() if optical_plane(b, mid) and bw_rho(a, mid, ap) else Verdict.false()


def _dual_branch(x: Line, y: Line, u: Line, v: Line, decide: Callable, names: tuple,
                 kind: ModelKind) -> Verdict:
    """exists x2, u2 (Dual(x2,x,y) & Dual(u2,u,v) & decide(x2,u2)) over the
    dual candidates: TRUE at the first pair that decides TRUE, else UNKNOWN
    if some pair was undecided, else FALSE.

    Each side's candidates and each Dual check are computed once, in the
    x2-major order of the pairs.  `dual_def` takes no square root, so
    filtering both lists up front cannot change the tower."""
    xs = dual_candidates(x, y)
    us = dual_candidates(u, v) if xs else []
    if not us:
        return Verdict.false()
    xs = [x2 for x2 in xs if dual_def(x2, x, y, kind).is_true()]
    us = [u2 for u2 in us if dual_def(u2, u, v, kind).is_true()]
    undecided = None
    for x2 in xs:
        for u2 in us:
            got = decide(x2, u2)
            if got.is_true():
                return Verdict.true({names[0]: x2, names[1]: u2})
            if got.is_unknown() and undecided is None:
                undecided = got
    return undecided or Verdict.false()


def bwftl_def(a: Line, b: Line, c: Line, kind: ModelKind) -> Verdict:
    got = bwrho_def(a, b, c, kind)
    if got.is_true() or got.is_unknown():
        return got
    return _dual_branch(a, b, c, b, lambda a2, c2: bwrho_def(a2, b, c2, kind), ("ap", "cp"),
                        kind)


def eqftl_def(a: Line, b: Line, c: Line, d: Line, kind: ModelKind) -> Verdict:
    got = eqrho_def(a, b, c, d, kind)
    if got.is_true() or got.is_unknown():
        return got
    return _dual_branch(b, a, d, c, lambda b2, d2: eqrho_def(a, b2, c, d2, kind), ("bp", "dp"),
                        kind)


DEFINITIONAL_EVALUATORS: dict[str, Callable] = {
    "Ev": lambda args, kind: ev_def(args[0], kind),
    "L": lambda args, kind: l_def(args[0], args[1], kind),
    "M": lambda args, kind: m_def(args[0], args[1], kind),
    "Cop": lambda args, kind: cop_def(args[0], args[1], kind),
    "Par": lambda args, kind: par_def(args[0], args[1], kind),
    "Bw": lambda args, kind: bw_def(args[0], args[1], args[2], kind),
    "Eq": lambda args, kind: eq_def(args[0], args[1], args[2], args[3], kind),
    "Sim": lambda args, kind: sim_def(args[0], args[1], args[2], kind),
    "Delta": lambda args, kind: delta_def(args[0], args[1], args[2], args[3], args[4], kind),
    "Prec": lambda args, kind: prec_def(args[0], args[1], kind),
    "STL": lambda args, kind: stl_def(args[0], kind),
    "Tau": lambda args, kind: tau_def(args[0], args[1], args[2], args[3], kind),
    "Lightspeed": lambda args, kind: lightspeed_def(args[0], kind),
    "FTL": lambda args, kind: ftl_def(args[0], kind),
    "TR": lambda args, kind: tr_def(args[0], args[1], kind),
    "Rho": lambda args, kind: rho_def(args[0], args[1], kind),
    "OP": lambda args, kind: op_def(args[0], args[1], kind),
    "BwRho": lambda args, kind: bwrho_def(args[0], args[1], args[2], kind),
    "EqRho": lambda args, kind: eqrho_def(args[0], args[1], args[2], args[3], kind),
    "Dual": lambda args, kind: dual_def(args[0], args[1], args[2], kind),
    "BwFTL": lambda args, kind: bwftl_def(args[0], args[1], args[2], kind),
    "EqFTL": lambda args, kind: eqftl_def(args[0], args[1], args[2], args[3], kind),
    "SimFTL": lambda args, kind: simftl_def(args[0], args[1], args[2], kind),
    "DeltaFTL": lambda args, kind: delta_def(*args, kind, undirected=True),
    "TauFTL": lambda args, kind: tau_def(*args, kind, ftl_variant=True),
}
