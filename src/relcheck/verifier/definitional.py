"""Definitional-route evaluation of the defined predicates.

Each procedure here decides a predicate by solving the quantifier structure
of its *definition* over the primitives T, R, = — constructing explicit
witnesses for existentials and refuting universals with verified
counterexamples.  Two routes are not yet independent of the geometric twin
they are cross-checked against: `rho_def` calls `model.rho`, and the third
case of `eqrho_def` computes the quotient norms again.  `op_def` decides
def_op's Rho clause itself, so OP does not reach `model.rho`.  `dual_def`
decides the printed Dual clauses with `model.rho`, `optical_plane` and
`bw_rho`, not with its closed-form twin `model.dual_geo`.  Layering follows
the definition DAG: a procedure may use the procedures of the predicates
its definition mentions.  None of them catches a CapacityError from the
scalar tower: it propagates to the suites' case driver, which records the
case as UNKNOWN.

Every witness question on two distinct lines is decided in their plane,
and nothing is searched in F^4.  Cop keeps one grid of candidate
transversals.  `_cop_parallel` decides each clause of def_cop for two
distinct parallel lines on homogeneous int coordinates, and `_cop_meeting`
for two meeting lines on the coefficients of a candidate's direction along
a.dir and b.dir.  A candidate's class is the sign of a binary quadratic
form whose Gram entries are computed once per pair (`_pencil` and
`_form_class` on ints for parallel lines).  The four M conjuncts hold at
the events the transversals were built on, so they are not solved again.
In both cases only the witness is built in F^4, and it is the one a search
in F^4 over the same grid returns.  Skew lines have no Cop witness
(`cop_def` gives the proof).  `op_def` decides Rho and the universal clause
of def_op on f(y) = lam(b.base - a.base + y*a.dir), with no square root.

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
    _canonical_base,
    _canonical_dir,
    _line,
    _offsets,
    _vinner,
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
from relcheck.scalar import Scalar, ScalarContext, _ctx_of, _reduced, _vsign, _widen
from relcheck.verifier.report import Verdict


def _separating_line(keep: Vec4, avoid: Vec4) -> Line:
    """A timelike line through `keep` missing `avoid` (they must differ):
    avoid - keep is parallel to at most one of the two directions tried."""
    line = Line(keep, Vec4.of(keep.ctx, 1, 0, 0, 0))
    return Line(keep, Vec4.of(keep.ctx, 3, 1, 0, 0)) if line.contains(avoid) else line


def ev_def(s: Segment, kind: ModelKind) -> Verdict:
    # forall a (T(a,s) <-> R(a,s)): a counterexample is a universe line
    # through exactly one endpoint, which exists exactly when beg != end
    if s.is_degenerate():
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


# cop_def's candidates: the transversals from a.at(t1) to b.at(k) and from
# a.at(t2) to b.at(-k - 1), in this order
_COP_ANCHORS = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1)),
                (Fraction(1, 2), Fraction(-3, 2)), (Fraction(-2), Fraction(2)),
                (Fraction(3), Fraction(-3)))
_COP_KS = (1, 2, 3, 5, 8, 13, 64, 256, 1024)


def cop_def(a: Line, b: Line, kind: ModelKind) -> Verdict:
    """Witness construction for Cop: two transversals slanted in opposite
    senses cross at a shared signal point off both lines.  A candidate
    counts only when kind allows both transversals' classes.

    Every clause is decided in the plane of a and b: `_cop_parallel` takes
    distinct lines with one canonical direction and `_cop_meeting` lines
    that meet.  Skew lines have no witness.  Say distinct c and d meet at g
    and each meets a and b.  If a met c and d at one point, that point
    would be on both, so it would be g, which is off a; so a has two points
    in the plane of c and d and lies in it, and so does b.  Two lines of
    one plane meet or are parallel.  Skew pairs still return UNKNOWN:
    FALSE would change stored verdicts, so it waits for the references to
    be regenerated (ROADMAP item 3)."""
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
    if a.dir == b.dir:
        return _cop_parallel(a, b, kind)
    meet = lines_intersect(a, b)
    if meet is None:
        return Verdict.unknown("no Cop witness constructed")
    return _cop_meeting(a, b, meet, kind)


def _cop_meeting(a: Line, b: Line, meet: Vec4, kind: ModelKind) -> Verdict:
    """cop_def for lines with different directions meeting at P = a.at(s) =
    b.at(r), where s and r are P's pivot coordinates on a and on b.

    The transversal from a.at(t) to b.at(k) has direction x*a.dir +
    y*b.dir with (x, y) = (s - t, k - r), since b.base - a.base = s*a.dir -
    r*b.dir.  It is neither a nor b iff x and y are not zero, and then it
    meets a only at a.at(t) and b only at b.at(k), so its M conjuncts hold
    where it was built.  Two of them from t1 != t2 are distinct.  They lie
    in one plane, so they meet iff their (x, y) are not parallel.  Then
    they meet off a, whose points on them differ, and off b, whose points
    b.at(k) and b.at(-k - 1) differ.  The class is the sign of lam(x*a.dir
    + y*b.dir), from Gram entries computed once per pair.  So the witness
    is the first grid candidate that passes, the one a search in F^4 over
    the grid stops at, and only it is built in F^4."""
    ctx = a.ctx
    s, r = meet[a.pivot], meet[b.pivot]
    g0, g1, g2 = lam(a.dir), inner(a.dir, b.dir) * 2, lam(b.dir)

    def allowed(x: Scalar, y: Scalar) -> bool:
        return not (x.is_zero() or y.is_zero()) and kind.allows(
            sign_class(((g0 * x + g1 * y) * x + g2 * y * y).sign()))

    for t1, t2 in _COP_ANCHORS:
        x1, x2 = s - ctx.rat(t1), s - ctx.rat(t2)
        for k in _COP_KS:
            y1, y2 = ctx.rat(k) - r, ctx.rat(-k - 1) - r
            if allowed(x1, y1) and allowed(x2, y2) and not (x1 * y2 - x2 * y1).is_zero():
                p1, p2 = a.at(ctx.rat(t1)), a.at(ctx.rat(t2))
                c, d = Line(p1, b.at(ctx.rat(k)) - p1), Line(p2, b.at(ctx.rat(-k - 1)) - p2)
                return Verdict.true({"c": c, "d": d, "g": event(lines_intersect(c, d))})
    return Verdict.unknown("no Cop witness constructed")


def _pencil(p: Vec4, b: Line) -> tuple[list, list, list]:
    """(U, V, sq): the ints of b.base - p and of b.dir over one denominator
    E*e, for E = b.base.den*p.den and e = b.dir.den, and the context's
    squares, at the highest level among p, b.base and b.dir."""
    (w,), d, sq = _offsets(b.dir, b.base, p)
    return [b.dir.den * v for v in w], [b.base.den * p.den * v for v in d], sq


def _form_class(u: list, v: list, sq: list) -> Callable[[int, int], IntervalClass]:
    """The class of x*U + y*V for ints x and y: the sign of the binary form
    g0*x*x + (g1*x + g2*y)*y in the Gram entries g0 = lam(U), g1 = 2<U, V>
    and g2 = lam(V), ints computed once.  For (U, V) from `_pencil(p, b)`,
    the line from p to b.at(y/x) (x != 0) has the class at (x, y)."""
    g0, g1, g2 = _vinner(u, u, sq), [2 * r for r in _vinner(u, v, sq)], _vinner(v, v, sq)
    return lambda x, y: sign_class(_vsign([r * x * x + (s * x + t * y) * y for r, s, t in zip(g0, g1, g2)], sq))


# a (x = 0) and b (x = 1) in `_cop_parallel`'s plane, as homogeneous lines
_PLANE_A, _PLANE_B = (1, 0, 0), (1, 0, -1)


def _cross(p: tuple, q: tuple) -> tuple:
    """The line through two points of the projective plane, or the point
    where two lines meet, in homogeneous int coordinates."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _on(line: tuple, p: tuple) -> bool:
    return line[0] * p[0] + line[1] * p[1] + line[2] * p[2] == 0


def _toward(p: tuple, q: tuple) -> tuple[int, int]:
    """The plane direction from p to q, two points with Z > 0, times both Zs."""
    return q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]


def _cop_parallel(a: Line, b: Line, kind: ModelKind) -> Verdict:
    """cop_def for distinct lines with one canonical direction D.

    (x, y) -> A + x*w + y*D, for A = a.base and w = b.base - A, maps the
    plane F^2 one to one onto the pair's plane: A and b.base both have pivot
    coordinate 0 and D has 1 there, so w is not zero and not along D.  A
    line maps to a line, so incidence, equality and meeting of the lines of
    that plane are decided on their plane coordinates.  a is x = 0, b is
    x = 1, a.at(t) is (0, t) and b.at(k) is (1, k).  Points and lines are
    homogeneous int triples (X, Y, Z) for (X/Z, Y/Z), so each clause of
    def_cop is one `_cross` or `_on` on small ints: c != d, c and d are
    neither a nor b, g = c x d (on c and on d) is a point (Z != 0) off a and
    off b, and the four M conjuncts hold at the events c and d were built
    on.  The class of
    the transversal with plane direction (x, y) is that of x*w + y*D, one
    binary form whose Gram entries (`_form_class`) are computed once per
    pair.

    On this grid every clause holds: c and d have directions (1, k - t1)
    and (1, -k - 1 - t2), which differ since t1 - t2 is never 2k + 1, and
    neither is a's; they meet at x = (t2 - t1)/(2k + 1 - t1 + t2), which is
    neither 0 nor 1.  So the witness is the first candidate whose classes
    kind allows, the one a search in F^4 over the grid stops at, and canonical
    forms make it field for field the same.  Only that candidate is built
    in F^4: each point is one int combination reduced once, and each line
    one `_canonical_dir` and one `_canonical_base`."""
    u, v, sq = _pencil(a.base, b)
    plane_class = _form_class(u, v, sq)
    for t1, t2 in _COP_ANCHORS:
        p1, p2 = (0, t1.numerator, t1.denominator), (0, t2.numerator, t2.denominator)
        for k in _COP_KS:
            q1, q2 = (1, k, 1), (1, -k - 1, 1)
            if not (kind.allows(plane_class(*_toward(p1, q1)))
                    and kind.allows(plane_class(*_toward(p2, q2)))):
                continue
            c, d = _cross(p1, q1), _cross(p2, q2)
            if any(not any(_cross(x, y)) for x, y in ((c, d), (c, _PLANE_A), (c, _PLANE_B),
                                                      (d, _PLANE_A), (d, _PLANE_B))):
                continue
            g = _cross(c, d)
            if g[2] == 0 or _on(_PLANE_A, g) or _on(_PLANE_B, g):
                continue
            if all(_on(x, s) and _on(y, s) for x, y, s in (
                    (_PLANE_A, c, p1), (c, _PLANE_B, q1), (d, _PLANE_B, q2), (d, _PLANE_A, p2))):
                return Verdict.true(_plane_witness(a, b, u, v, (p1, q1), (p2, q2), g))
    return Verdict.unknown("no Cop witness constructed")


def _plane_witness(a: Line, b: Line, u: list, v: list, c: tuple, d: tuple, g: tuple) -> dict:
    """Cop's witness in F^4 from `_cop_parallel`'s plane: the lines c and d,
    each through the first of its two plane points, and the event g.  With
    U and V from `_pencil(a.base, b)` over E*e, E = a.base.den*b.base.den,
    the point (X, Y, Z) has the ints Z*b.base.den*e*A + X*U + Y*V over
    Z*E*e, and the direction (x, y) the ints x*U + y*V."""
    ctx, level = _ctx_of(a.base, a.dir, b.base)
    den, scale = a.base.den * b.base.den * a.dir.den, b.base.den * a.dir.den
    o = [scale * r for r in _widen(a.base.a, a.base.level, level)]

    def point(p: tuple) -> tuple[list, int]:
        x, y, z = p
        return [z * r + x * s + y * t for r, s, t in zip(o, u, v)], z * den

    def line(p: tuple, q: tuple) -> Line:
        x, y = _toward(p, q)
        direction, pivot = _canonical_dir(ctx, [x * s + y * t for s, t in zip(u, v)], level)
        return _line(_canonical_base(ctx, *point(p), direction, pivot), direction, pivot)

    return {"c": line(*c), "d": line(*d), "g": event(_reduced(ctx, *point(g), Vec4))}


def _line_through_meeting(p: Vec4, target: Line, param: Fraction, kind: ModelKind) -> Optional[Line]:
    """The line from p to the first target.at(param*k), for k = 1, 2, 4, ...,
    4096, whose class kind allows, or None."""
    for k in (1 << i for i in range(13)):
        v = target.at(p.ctx.rat(param * k)) - p
        if kind.allows(classify(v)):
            return Line(p, v)
    return None


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
    """Par(a,b) & Rho(a,b) & forall c:Ob ((M(a,c) & M(b,c)) -> FTL(c)), as
    def_op prints it, with Rho's exists g:Si (TR(a,g) & TR(b,g)) decided
    here, in the plane of a and b, with no square root.

    For a == b, Rho holds at any event of a, and a timelike line through a
    point of a refutes the universal.  For distinct parallel lines, with w =
    b.base - a.base and D = a.dir, the segment from a.at(t) to b.at(t + y)
    is along w + y*D, and f(y) = lam(w + y*D) = g0 + g1*y + g2*y*y.  Rho
    needs an end of g on each line, and one end on both would make the
    lines meet, so Rho holds iff f has a real root.  The lines meeting a
    and b are these transversals.  An observer is FTL iff it is spacelike,
    and no observer is lightlike, so the universal holds iff no transversal
    is timelike: f >= 0 everywhere.  As w is not along D, f is not zero
    everywhere, so OP holds iff f has a double root and g2 > 0, that is
    disc = g1*g1 - 4*g0*g2 == 0.  The witness is the null segment from
    a.base to b.at(-g1/(2*g2)).  When Rho holds and the universal fails,
    the line from a.base to b.at(y) is a timelike observer meeting both,
    for y at the vertex (f = -disc/(4*g2) < 0 there) when g2 > 0, y = 1 +
    (|g0| + |g1|)/|g2| (f(y) <= -|g2|*y) when g2 < 0, and y = -(1 +
    |g0|)/g1 (f(y) <= -1) when g2 == 0."""
    pv = par_def(a, b, kind)
    if not pv.is_true():
        return pv if pv.is_unknown() else Verdict.false()
    if a == b:
        return Verdict.false({"c": _separating_line(a.base, a.base + a.dir)})
    w, one = b.base - a.base, a.ctx.one
    g0, g1, g2 = lam(w), inner(w, a.dir) * 2, lam(a.dir)
    disc, s = g1 * g1 - g0 * g2 * 4, g2.sign()
    if disc.sign() < 0 or s == 0 == g1.sign():
        return Verdict.false()  # f has no real root: not Rho(a, b)
    if s > 0:
        y = -g1 / (g2 * 2)
        if disc.is_zero():
            p, q = a.base, b.at(y)
            return Verdict.true({"g": Segment(p, q) if (q - p).x0.sign() >= 0 else Segment(q, p)})
    elif s < 0:
        y = one - (_abs(g0) + _abs(g1)) / g2
    else:
        y = -(one + _abs(g0)) / g1
    return Verdict.false({"c": Line(a.base, b.at(y) - a.base)})


def _abs(x: Scalar) -> Scalar:
    return -x if x.sign() < 0 else x


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
