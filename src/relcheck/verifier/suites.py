"""Seeded property suites: axioms, lemmas, definitional equivalence,
Poincaré invariance.

Each axiom or lemma gets a constructive checker: the generator instantiates
the outermost universal quantifiers exactly (building configurations that
satisfy the hypotheses where the statement would otherwise be vacuous), and
inner existentials are discharged by per-pattern solvers.  One verdict per
case; reports aggregate deterministically by case index.  All four suites
run their cases through one loop, `_run_cases`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Optional

from relcheck.corpus import (
    SYSTEM_SIMPLERELFTL,
    corpus_version,
    versioned_axioms,
)
from relcheck.minkowski import (
    IntervalClass,
    Line,
    PoincareMap,
    Segment,
    Vec4,
    _canonical_base,
    _canonical_dir,
    _line,
    _pmap,
    along,
    lam,
    lines_intersect,
    quotient_inner,
    quotient_lift,
    quotient_norm,
)
from relcheck.model import (
    GEOMETRIC_PREDICATES,
    ModelKind,
    UnsupportedPredicate,
    bw_ftl,
    bw_geo,
    chron_precedes,
    count_future_null_to_line,
    delta_ftl,
    delta_geo,
    dual_candidates,
    eq_ftl,
    eq_geo,
    event,
    first_null_link,
    is_event,
    lightlike,
    light_between,
    meets,
    null_links,
    parallel,
    receives,
    sim_ftl,
    sim_geo,
    sim_project,
    tau_geo,
    transmits,
    witness_zero_and_two,
)
from relcheck.scalar import CapacityError, Scalar, ScalarContext, ScalarError, _reduced
from relcheck.verifier import definitional
from relcheck.verifier.generators import ConfigGen
from relcheck.verifier.report import (
    FALSE,
    Budget,
    ItemResult,
    SuiteReport,
    Verdict,
    serialize_entity,
    sub_seed,
)


class Ops:
    """The predicate bundle under test: plain or FTL-variant evaluators."""

    def __init__(self, variant: str) -> None:
        assert variant in ("plain", "ftl")
        self.variant = variant
        if variant == "plain":
            self.bw, self.eq, self.sim, self.delta = bw_geo, eq_geo, sim_geo, delta_geo
        else:
            self.bw, self.eq, self.sim, self.delta = bw_ftl, eq_ftl, sim_ftl, delta_ftl


def _verdict(ok: bool, detail: Optional[dict] = None) -> Verdict:
    return Verdict.true() if ok else Verdict.false(detail)


def _implies(hyp: bool, con: bool) -> Verdict:
    return _verdict((not hyp) or con)


# --- parallel-class scaffolding ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _interned(x: tuple) -> tuple:
    """The first basis vector seen equal to x.  The bases of all 1953 grid
    directions have 1048 distinct vectors among 5859, so sharing them keeps
    the basis cache at 0.6 MB instead of 1.1 MB."""
    return x


@functools.lru_cache(maxsize=None)
def _quotient_basis(direction: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """ClassFrame's Gram-Schmidt basis for a rational direction, given by
    its numerators, as (numerators, denominator) per basis vector.  The
    basis does not change when the direction is scaled, so the numerators
    suffice.  Directions come from the generator's finite grids, 245
    timelike and 1708 spacelike, so the cache holds at most 1953 entries.
    It is not full after one pass and keeps filling during a run (1246
    entries after 300 ftl-axioms passes at seed 241).  It holds no Scalar,
    so no value is shared between contexts."""
    d = _reduced(ScalarContext(), direction, 1, Vec4)
    basis = []
    for i in range(4):
        w = quotient_lift(Vec4.of(d.ctx, *[int(j == i) for j in range(4)]), d)
        for b in basis:
            qb = quotient_norm(b, d)
            if qb.is_zero():
                continue
            w = w - b.scale(quotient_inner(w, b, d) / qb)
        if not w.is_zero():
            basis.append(w)
    assert len(basis) >= 3
    return tuple(_interned((b.a, b.den)) for b in basis[:3])


class ClassFrame:
    """A sampled parallel class: a direction plus exact quotient coordinates.

    Provides an orthogonal (w.r.t. the induced quotient form) rational basis
    of the direction's complement, so Tarski point constructions can work in
    plain coordinates.  The direction must be rational.
    """

    def __init__(self, gen: ConfigGen, direction: Optional[Vec4] = None) -> None:
        self.gen = gen
        self.ctx = gen.ctx
        self.dir = direction if direction is not None else gen.timelike_dir()
        self.origin = gen.point()
        if self.dir.level:
            raise ScalarError("a ClassFrame direction must be rational")
        self.basis = [_reduced(self.ctx, a, den, Vec4) for a, den in _quotient_basis(self.dir.a)]
        # the lines' canonical direction
        self._dir, self._pivot = _canonical_dir(self.ctx, self.dir.a, 0)

    def line_at(self, coords: tuple) -> Line:
        """The line of the frame through origin + sum of c_i*basis_i, for
        rational coordinates (Fractions or ints): that point's ints over one
        denominator, then the canonical base with the frame's canonical
        direction (`_canonical_base`)."""
        p, den = self.origin.a, self.origin.den
        for c, b in zip(coords, self.basis):
            k, e = c.numerator, c.denominator * b.den
            p = [x * e + k * y * den for x, y in zip(p, b.a)]
            den *= e
        d, pivot = self._dir, self._pivot
        return _line(_canonical_base(self.ctx, p, den, d, pivot), d, pivot)

    def random_coords(self) -> tuple:
        return tuple(self.gen.rat_fraction() for _ in range(3))

    def random_line(self) -> Line:
        return self.line_at(self.random_coords())

    def qnorm(self, a: Line, b: Line) -> Scalar:
        return quotient_norm(b.base - a.base, self.dir)

    def combo(self, a: Line, b: Line, t) -> Line:
        k = t if isinstance(t, Scalar) else self.ctx.rat(t)
        return Line(a.base + (b.base - a.base).scale(k), self.dir)


# --- Tarski axiom checkers ----------------------------------------------------------


def check_tarski01(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    y = x if gen.rng.random() < 0.5 else frame.random_line()
    hyp = ops.bw(x, y, x)
    return _implies(hyp, x == y)


def check_tarski02(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    far = frame.random_line()
    if gen.rng.random() < 0.7:
        r = sorted(Fraction(gen.rng.randint(0, 8), 8) for _ in range(3))
        y, z, u = (frame.combo(x, far, t) for t in r)
    else:
        y, z, u = (frame.random_line() for _ in range(3))
    hyp = ops.bw(x, y, u) and ops.bw(y, z, u)
    return _implies(hyp, ops.bw(x, y, z))


def check_tarski03(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    far = frame.random_line()
    if gen.rng.random() < 0.7:
        r1 = Fraction(gen.rng.randint(0, 4), 8)
        r2 = r1 + Fraction(gen.rng.randint(0, 8), 8)
        r3 = r1 + Fraction(gen.rng.randint(0, 8), 8)
        y, z, u = frame.combo(x, far, r1), frame.combo(x, far, r2), frame.combo(x, far, r3)
    else:
        y, z, u = (frame.random_line() for _ in range(3))
    hyp = ops.bw(x, y, z) and ops.bw(x, y, u) and x != y
    return _implies(hyp, ops.bw(x, z, u) or ops.bw(x, u, z))


def check_tarski04(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x, y = frame.random_line(), frame.random_line()
    return _verdict(ops.eq(x, y, y, x))


def check_tarski05(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    y = x if gen.rng.random() < 0.5 else frame.random_line()
    z = frame.random_line()
    hyp = ops.eq(x, y, z, z)
    return _implies(hyp, x == y)


def check_tarski06(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x, y = frame.random_line(), frame.random_line()
    offs = y.base - x.base
    z = frame.random_line()
    u = Line(z.base + offs, frame.dir)
    v = Line(frame.random_line().base - offs, frame.dir)
    w = Line(v.base + offs, frame.dir)
    hyp = ops.eq(x, y, z, u) and ops.eq(x, y, v, w)
    if gen.rng.random() < 0.3:
        w = frame.random_line()  # usually breaks the second hypothesis
        hyp = ops.eq(x, y, z, u) and ops.eq(x, y, v, w)
    return _implies(hyp, ops.eq(z, u, v, w))


def check_tarski07(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    u = frame.random_line()
    frame.random_line()  # unused, but drawn to keep the order of the draws
    r = Fraction(gen.rng.randint(0, 8), 8)
    t = frame.combo(x, u, r)
    y = frame.random_line()
    s = Fraction(gen.rng.randint(1, 8), 8)
    # u between y and z: z chosen so u = y + s (z - y)
    zz = frame.combo(y, u, 1 / s)
    hyp = ops.bw(x, t, u) and ops.bw(y, u, zz)
    if not hyp:
        return Verdict.true()
    candidates = _pasch_candidates(frame, x, y, zz, t)
    for v in candidates:
        if ops.bw(x, v, y) and ops.bw(zz, t, v):
            return Verdict.true()
    return Verdict.false(
        {"x": x, "t": t, "u": u, "y": y, "z": zz}
    )


def _pasch_candidates(frame: ClassFrame, x: Line, y: Line, z: Line, t: Line) -> list[Line]:
    out = [x, y, t]
    d1 = y.base - x.base
    d2 = t.base - z.base
    if not d1.is_zero() and not d2.is_zero():
        meet = lines_intersect(Line(x.base, d1), Line(z.base, d2))
        if meet is not None:
            out.insert(0, Line(meet, frame.dir))
    elif d1.is_zero():
        out.insert(0, x)
    else:
        out.insert(0, t)
    return out


def check_tarski08(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    u = frame.random_line()
    if x == u:
        return Verdict.true()  # hypothesis needs x != u
    kappa = Fraction(gen.rng.randint(1, 16), 8)
    if kappa < 1:
        kappa += 1
    t = frame.combo(x, u, kappa)
    y = frame.random_line()
    s = Fraction(gen.rng.randint(1, 8), 8)
    z = frame.combo(y, u, Fraction(1, 1) / s)
    hyp = ops.bw(x, u, t) and ops.bw(y, u, z) and x != u
    if not hyp:
        return Verdict.true()
    v = frame.combo(x, z, kappa)
    w = frame.combo(x, y, kappa)
    ok = ops.bw(x, z, v) and ops.bw(x, y, w) and ops.bw(v, t, w)
    return _verdict(ok, {"x": x, "u": u, "t": t, "y": y, "z": z})


def check_tarski09(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x = frame.random_line()
    far = frame.random_line()
    r1 = Fraction(gen.rng.randint(0, 6), 6)
    r2 = r1 + Fraction(gen.rng.randint(0, 6), 6)
    y, z = frame.combo(x, far, r1), frame.combo(x, far, r2)
    u = frame.random_line()
    # primed copy: a point reflection (an exact quotient isometry)
    m = frame.random_line()
    refl = lambda line: Line(m.base.scale(frame.ctx.rat(2)) - line.base, frame.dir)
    xp, yp, zp, up = refl(x), refl(y), refl(z), refl(u)
    hyp = (
        ops.eq(x, y, xp, yp)
        and ops.eq(y, z, yp, zp)
        and ops.eq(x, u, xp, up)
        and ops.eq(y, u, yp, up)
        and ops.bw(x, y, z)
        and ops.bw(xp, yp, zp)
        and x != y
    )
    return _implies(hyp, ops.eq(z, u, zp, up))


def check_tarski10(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    x, y = frame.random_line(), frame.random_line()
    u, v = frame.random_line(), frame.random_line()
    target = frame.qnorm(u, v)
    if x == y:
        w = Line(y.base + frame.basis[0], frame.dir)
        base_sq = frame.qnorm(y, w)
        t = frame.ctx.sqrt(target / base_sq)
        z = Line(y.base + (w.base - y.base).scale(t), frame.dir)
    else:
        base_sq = frame.qnorm(x, y)
        t = frame.ctx.sqrt(target / base_sq)
        z = Line(y.base + (y.base - x.base).scale(t), frame.dir)
    ok = ops.bw(x, y, z) and ops.eq(y, z, u, v)
    return _verdict(ok, {"x": x, "y": y, "u": u, "v": v})


def check_tarski11(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    w1, w2, w3 = frame.basis
    scale = frame.ctx.rat(gen.rng.randint(1, 3))
    base = frame.random_line()
    x = base
    y = Line(base.base + w1.scale(scale), frame.dir)
    z = Line(base.base + w2.scale(scale), frame.dir)
    u = Line(base.base + w3.scale(scale), frame.dir)
    v = Line(base.base - w3.scale(scale), frame.dir)
    ok = (
        ops.eq(x, u, x, v)
        and ops.eq(y, u, y, v)
        and ops.eq(z, u, z, v)
        and u != v
        and not ops.bw(x, y, z)
        and not ops.bw(y, z, x)
        and not ops.bw(z, x, y)
    )
    return _verdict(ok)


def check_tarski12(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    coords_u = frame.random_coords()
    coords_v = frame.random_coords()
    coords_w = frame.random_coords()
    u, v, w = (frame.line_at(c) for c in (coords_u, coords_v, coords_w))
    hyp_noncollinear = (
        not ops.bw(u, v, w) and not ops.bw(v, u, w) and not ops.bw(u, w, v)
    )
    if not hyp_noncollinear:
        return Verdict.true()  # hypothesis includes the non-betweenness clauses
    locus = _equidistant_locus(frame, coords_u, coords_v, coords_w)
    if locus is None:
        return Verdict.true()
    o, n = locus
    x = frame.line_at(o)
    y = frame.line_at(tuple(a + b for a, b in zip(o, n)))
    z = frame.line_at(tuple(a - 2 * b for a, b in zip(o, n)))
    hyp = (
        ops.eq(x, u, x, v) and ops.eq(x, u, x, w)
        and ops.eq(y, u, y, v) and ops.eq(y, u, y, w)
        and ops.eq(z, u, z, v) and ops.eq(z, u, z, w)
    )
    if not hyp:
        return Verdict.false({"u": u, "v": v, "w": w})
    return _verdict(ops.bw(x, y, z) or ops.bw(y, x, z) or ops.bw(x, z, y))


def _equidistant_locus(frame: ClassFrame, cu, cv, cw):
    """The line of basis coordinates equidistant from cu, cv and cw, as a
    point and a direction, or None.  The two equidistance equations are
    r0.x = h0 and r1.x = h1; with n = r0 x r1 the locus is the line through
    (h0 (r1 x n) + h1 (n x r0)) / n.n along n, and None when n = 0."""
    norms = [quotient_norm(b, frame.dir).as_fraction() for b in frame.basis]

    def nsq(c):
        return sum(Fraction(x) * Fraction(x) * n for x, n in zip(c, norms))

    def cross(x, y):
        return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])

    r0, r1 = ([2 * (Fraction(o) - Fraction(u)) * n for o, u, n in zip(other, cu, norms)]
              for other in (cv, cw))
    h0, h1 = nsq(cv) - nsq(cu), nsq(cw) - nsq(cu)
    n = cross(r0, r1)
    nn = sum(x * x for x in n)
    if nn == 0:
        return None
    o = tuple((h0 * x + h1 * y) / nn for x, y in zip(cross(r1, n), cross(n, r0)))
    return o, n


# --- continuity instances -----------------------------------------------------------


def _segment_params(gen: ConfigGen) -> tuple[Fraction, Fraction]:
    a = gen.rat_fraction()
    b = a + Fraction(gen.rng.randint(0, 8), 4)
    return a, b


def check_cont_segments(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    """cont01: both definable sets are parameterized segments."""
    frame = ClassFrame(gen)
    anchor = frame.random_line()
    far = frame.random_line()
    if anchor == far:
        return Verdict.true()
    line = lambda t: frame.combo(anchor, far, t)
    a1, a2 = _segment_params(gen)
    b1, b2 = _segment_params(gen)
    w1, w2, w3, w4 = line(a1), line(a2), line(b1), line(b2)
    if gen.rng.random() < 0.25:
        w3 = frame.random_line()  # typically breaks collinearity
    return _continuity_segments(frame, ops, (w1, w2), (w3, w4), gen)


def _continuity_segments(frame, ops, seg1, seg2, gen) -> Verdict:
    w1, w2 = seg1
    w3, w4 = seg2
    # the phi-set is the segment [w1,w2]; psi-set the segment [w3,w4]
    if w1 == w2:
        # singleton phi: z = u = w1 always separates
        u = w1
        samples = _segment_samples(frame, w3, w4, gen)
        ok = all(ops.bw(w1, u, y) for y in samples)
        return _verdict(ok)
    # hypothesis needs S2 collinear with and beyond one end of S1
    t3 = along(w3.base - w1.base, w2.base - w1.base)
    t4 = along(w4.base - w1.base, w2.base - w1.base)
    if t3 is None or t4 is None:
        return Verdict.true()  # hypothesis fails: some y is off the line
    lo, hi = (t3, t4) if t3 <= t4 else (t4, t3)
    one = frame.ctx.one
    zero = frame.ctx.zero
    if lo >= one:
        u = w2
    elif hi <= zero:
        u = w1
    else:
        return Verdict.true()  # segments overlap or straddle: hypothesis fails
    xs = _segment_samples(frame, w1, w2, gen)
    ys = _segment_samples(frame, w3, w4, gen)
    ok = all(ops.bw(x, u, y) for x in xs for y in ys)
    return _verdict(ok, {"w1": w1, "w2": w2, "w3": w3, "w4": w4})


def _segment_samples(frame: ClassFrame, a: Line, b: Line, gen: ConfigGen) -> list[Line]:
    ts = [Fraction(0), Fraction(1), Fraction(1, 2)]
    ts.append(Fraction(gen.rng.randint(0, 8), 8))
    return [frame.combo(a, b, t) for t in ts]


def check_cont_segment_ray(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    """cont02: segment [w1,w2] against the ray beyond w2."""
    frame = ClassFrame(gen)
    w1 = frame.random_line()
    w2 = frame.random_line()
    u = w2
    xs = _segment_samples(frame, w1, w2, gen)
    ys = [frame.combo(w1, w2, Fraction(1) + Fraction(gen.rng.randint(0, 8), 4))
          for _ in range(3)] if w1 != w2 else [w2, frame.random_line()]
    if w1 == w2:
        ys = [y for y in ys if ops.bw(w1, w2, y)]
    ok = all(ops.bw(x, u, y) for x in xs for y in ys)
    return _verdict(ok)


def check_cont_point_segment(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    """cont03: singleton x = w1 against a segment."""
    frame = ClassFrame(gen)
    w1, w2, w3 = (frame.random_line() for _ in range(3))
    u = w1
    ys = _segment_samples(frame, w2, w3, gen)
    ok = all(ops.bw(w1, u, y) for y in ys)
    return _verdict(ok)


def check_cont_disk(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    """cont04: ball-of-radius-|w1w2| cut by the line toward w3, against w3."""
    frame = ClassFrame(gen)
    w1, w2, w3 = (frame.random_line() for _ in range(3))
    r_sq = frame.qnorm(w1, w2)
    if w3 == w1:
        return Verdict.true()  # the collinearity disjunction degenerates
    d_sq = frame.qnorm(w1, w3)
    if r_sq.is_zero():
        # singleton phi at w1
        return _verdict(ops.bw(w1, w1, w3))
    if (d_sq - r_sq).sign() < 0:
        return Verdict.true()  # w3 interior: hypothesis fails
    t = frame.ctx.sqrt(r_sq / d_sq)
    near = Line(w1.base + (w3.base - w1.base).scale(t), frame.dir)
    farp = Line(w1.base - (w3.base - w1.base).scale(t), frame.dir)
    u = near
    xs = [near, farp, w1]
    ok = all(ops.bw(x, u, w3) for x in xs)
    return _verdict(ok, {"w1": w1, "w2": w2, "w3": w3})


def check_cont_rays(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    """cont05: the phi-set is an unbounded ray, so the bounding hypothesis
    always fails and the instance is vacuously true; the check certifies the
    shape on a sampled candidate bound."""
    frame = ClassFrame(gen)
    w1, w2 = frame.random_line(), frame.random_line()
    if w1 == w2:
        return Verdict.true()
    y = frame.combo(w1, w2, Fraction(2))
    far1 = frame.combo(w2, w1, Fraction(3))
    far2 = frame.combo(w2, w1, Fraction(5))
    # far1 and far2 satisfy phi, and the point beyond a candidate bound z =
    # far1 is not between z and y: no bound works
    phi_ok = ops.bw(far1, w1, w2) and ops.bw(far2, w1, w2)
    beyond_fails = not ops.bw(far1, far2, y)
    return _verdict(phi_ok and beyond_fails)


# --- physical axiom checkers -------------------------------------------------------


def check_axstl(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    witness = gen.timelike_line()
    if witness.interval_class is not IntervalClass.TIMELIKE:
        return Verdict.false()
    a = gen.observer(kind)
    b = Line(gen.point(), a.dir)
    if a.interval_class is IntervalClass.TIMELIKE and parallel(b, a):
        if b.interval_class is not IntervalClass.TIMELIKE:
            return Verdict.false({"a": a, "b": b})
    return Verdict.true()


def check_axev(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    s = gen.signal()
    a = Line(s.beg, gen.timelike_dir())
    b = Line(s.end, gen.timelike_dir())
    e1, e2 = event(s.beg), event(s.end)
    ok = (
        transmits(a, s)
        and receives(b, s)
        and is_event(e1)
        and is_event(e2)
        and (e1.beg - s.beg).is_zero()
        and (e2.beg - s.end).is_zero()
    )
    return _verdict(ok, {"s": s})


def check_axtime(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    a = gen.observer(kind)
    x = gen.event_on(a)
    y = gen.event_on(a) if gen.rng.random() < 0.8 else event(a.at(x.beg.ctx.zero))
    if a.interval_class is IntervalClass.TIMELIKE:
        cases = [
            (x == y, not chron_precedes(x, y), not chron_precedes(y, x)),
            (chron_precedes(x, y), x != y, not chron_precedes(y, x)),
            (chron_precedes(y, x), x != y, not chron_precedes(x, y)),
        ]
        ok = any(all(c) for c in cases)
    else:
        ok = not chron_precedes(x, y) and not chron_precedes(y, x)
    return _verdict(ok, {"a": a, "x": x, "y": y})


def check_axobunique(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    a = gen.observer(kind)
    if gen.rng.random() < 0.6:
        b = a
        x = gen.event_on(a)
        y = gen.event_on(a)
    else:
        b = gen.observer(kind)
        meet = lines_intersect(a, b)
        if meet is None:
            return Verdict.true()
        x = event(meet)
        y = event(meet)
    hyp = (
        (x.beg - y.beg).is_zero() is False
        and transmits(a, x) and transmits(a, y)
        and transmits(b, x) and transmits(b, y)
    )
    return _implies(hyp, a == b)


def _iso_witnesses(a: Line, e: Segment):
    """gamma1 from a to the event, gamma2 from the event to a, or None.
    The second call's square root is already in the chain."""
    past = first_null_link(e.beg, a, future=False)
    future = first_null_link(e.beg, a, future=True)
    if past is None or future is None:
        return None
    return Segment(e.beg + past, e.beg), Segment(e.beg, e.beg + future)


def check_axiso(gen: ConfigGen, kind: ModelKind, ops: Ops, guard_stl: bool = False) -> Verdict:
    a = gen.observer(kind)
    if guard_stl and a.interval_class is not IntervalClass.TIMELIKE:
        return Verdict.true()
    e = event(gen.point())
    got = _iso_witnesses(a, e)
    if got is None:
        return Verdict.false({"a": a, "e": e})
    g1, g2 = got
    ok = transmits(a, g1) and (g1.end - e.beg).is_zero() and receives(a, g2) and (
        g2.beg - e.beg
    ).is_zero()
    return _verdict(ok, {"a": a, "e": e})


def check_axstiso(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    a = frame.random_line()
    e1 = gen.event_on(a)
    gap = gen.ctx.rat(gen.rng.randint(1, 2 * gen.bound), 2)
    e2 = event(e1.beg + a.dir.scale(gap))
    b = frame.random_line()
    if b == a:
        return Verdict.true()
    if not chron_precedes(e1, e2):
        return Verdict.true()
    c = tau_geo(b, e1, e2)
    if c is None:
        return Verdict.false({"a": a, "b": b, "e1": e1, "e2": e2})
    start = sim_project(c, e1)
    ok = (
        ops.bw(b, a, c)
        and parallel(c, a)
        and lam(e2.beg - start).is_zero()
        and (e2.beg - start).x0.sign() >= 0
    )
    return _verdict(ok, {"a": a, "b": b, "c": c})


def check_axpoind(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    a = frame.random_line()
    ap = frame.random_line()
    b = frame.random_line()
    bp = frame.random_line()
    if b == a or bp == ap:
        return Verdict.true()
    e1 = gen.event_on(a)
    gap = gen.ctx.rat(gen.rng.randint(1, 2 * gen.bound), 2)
    e2 = event(e1.beg + a.dir.scale(gap))
    y1 = event(sim_project(ap, e1))
    if gen.rng.random() < 0.5:
        y2 = event(y1.beg + ap.dir.scale(gap))  # matching frame gap
    else:
        other = gen.ctx.rat(gen.rng.randint(1, 2 * gen.bound), 2)
        y2 = event(y1.beg + ap.dir.scale(other))
    if not (chron_precedes(e1, e2) and chron_precedes(y1, y2)):
        return Verdict.true()
    c = tau_geo(b, e1, e2)
    cp = tau_geo(bp, y1, y2)
    if c is None or cp is None:
        return Verdict.true()  # hypothesis c = tau_b(...) unsatisfied
    lhs = ops.eq(a, c, ap, cp)
    rhs = ops.sim(a, e2, y2)
    return _verdict(lhs == rhs, {"a": a, "b": b, "ap": ap, "bp": bp})


def check_axtiind(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen)
    a = frame.random_line()
    c = frame.random_line()
    if c == a:
        return Verdict.true()
    x1 = gen.event_on(a)
    m1v = first_null_link(x1.beg, c, future=True)
    if m1v is None:
        return Verdict.true()
    m1 = x1.beg + m1v
    back1 = first_null_link(m1, a, future=True)
    if back1 is None:
        return Verdict.true()
    x2 = event(m1 + back1)
    shift = a.dir.scale(gen.ctx.rat(gen.rng.randint(1, 8), 2))
    y1 = event(x1.beg + shift)
    y2 = event(x2.beg + shift)
    d = tau_geo(c, x1, x2)
    dp = tau_geo(c, y1, y2)
    if d is None or dp is None:
        return Verdict.true()
    return _verdict(d == dp, {"a": a, "c": c, "d": d, "dp": dp})


def check_axunob(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    d_obs = gen.observer(kind)
    x = gen.event_on(d_obs)
    y = gen.event_on(d_obs)
    g = event((x.beg + y.beg).scale(gen.ctx.rat(1, 2)))
    if not d_obs.contains(g.beg):
        return Verdict.false({"d": d_obs})
    for _ in range(3):
        direction = gen.direction(kind) if ops.variant == "ftl" else gen.timelike_dir()
        a = Line(x.beg, direction)
        b = Line(y.beg, direction)
        c = Line(g.beg, direction)
        ok = ops.bw(a, c, b) and ops.eq(a, c, c, b) and ops.delta(a, x, g, g, y)
        if not ok:
            return Verdict.false(
                {"d": d_obs, "x": x, "y": y, "g": g, "dir": direction}
            )
    return Verdict.true()


def check_axunsi(gen: ConfigGen, kind: ModelKind, ops: Ops, guard_stl: bool = False) -> Verdict:
    frame = ClassFrame(gen)
    a = frame.random_line()
    if guard_stl and a.interval_class is not IntervalClass.TIMELIKE:
        return Verdict.true()
    cc = frame.random_line()
    r = Fraction(gen.rng.randint(0, 8), 8)
    b = frame.combo(a, cc, r)
    if not ops.bw(a, b, cc):
        return Verdict.true()
    x = gen.event_on(a)
    v = first_null_link(x.beg, cc, future=True)
    if v is None:
        return Verdict.true()
    z = event(x.beg + v)
    if not lightlike(x, z):
        return Verdict.true()
    betas = []
    if not v.is_zero():
        ray = Line(x.beg, v)
        hit = lines_intersect(ray, b)
        if hit is not None:
            betas.append(event(hit))
    betas.append(gen.event_on(b))
    betas.append(gen.event_on(b))
    for beta in betas:
        lhs = lightlike(x, beta)
        rhs = lightlike(beta, z)
        if lhs != rhs:
            return Verdict.false({"a": a, "b": b, "c": cc, "x": x, "z": z, "y": beta})
    return Verdict.true()


def check_axrr(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    a = gen.observer(kind)
    s = gen.signal()
    b = Line(s.beg, a.dir)
    return _verdict(transmits(b, s) and parallel(b, a), {"a": a, "s": s})


def check_axsim(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    if ops.variant == "ftl":
        a = gen.observer(kind)
    else:
        a = gen.timelike_line()
    x, y = gen.sim_pair(a)
    y2, z = gen.sim_pair(a)
    z = event(y.beg + (z.beg - y2.beg))
    hyp = ops.sim(a, x, y) and ops.sim(a, y, z)
    if not hyp:
        return Verdict.true()
    return _verdict(ops.sim(a, x, z), {"a": a, "x": x, "y": y, "z": z})


def check_axlim(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    a = gen.observer(kind)
    g1 = gen.event_on(a)
    s_len = gen.ctx.rat(gen.rng.randint(0, 8), 2)
    beta = Segment(g1.beg - gen.null_dir().scale(s_len), g1.beg)
    gap = gen.ctx.rat(gen.rng.randint(1, 8), 2)
    g2 = event(a.at(a.param_of(g1.beg) + gap))  # a transmits both events
    if not chron_precedes(g1, g2):
        return Verdict.true()
    if (beta.beg - g2.beg).is_zero():
        return Verdict.true()
    b = Line.through(beta.beg, g2.beg)
    ok = kind.allows(b.interval_class) and transmits(b, beta) and b.contains(g2.beg)
    return _verdict(ok, {"a": a, "beta": beta, "g2": g2})


def check_axftl1(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    a = gen.observer(kind)
    return _verdict(a.interval_class is not IntervalClass.LIGHTLIKE, {"a": a})


def check_axftl2(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    frame = ClassFrame(gen, gen.direction(kind))
    anchor = frame.random_line()
    far = frame.random_line()
    if anchor == far:
        return Verdict.true()
    ts = [Fraction(gen.rng.randint(-8, 8), 4) for _ in range(3)]
    b, c, d = (frame.combo(anchor, far, t) for t in ts)
    if b == c or b == d or c == d:
        return Verdict.true()  # excluded by the amended distinctness guard
    hyp = bw_ftl(b, c, d) or bw_ftl(c, b, d) or bw_ftl(b, d, c)
    if not hyp:
        return Verdict.true()
    # a transversal observer meeting b and c
    a = None
    for k in (1, 2, 4, 8, 16, 32):
        for t_b in (Fraction(0), Fraction(1)):
            p = b.at(gen.ctx.rat(t_b))
            q = c.at(gen.ctx.rat(t_b + k))
            if (q - p).is_zero():
                continue
            cand = Line.through(p, q)
            if kind.allows(cand.interval_class):
                a = cand
                break
        if a is not None:
            break
    if a is None:
        return Verdict.unknown("no transversal constructed")
    if not (meets(a, b) and meets(a, c)):
        return Verdict.unknown("transversal verification failed")
    return _verdict(meets(a, d), {"a": a, "b": b, "c": c, "d": d})


def check_axftl3(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    g1 = event(gen.point())
    s_len = gen.ctx.rat(gen.rng.randint(0, 8), 2)
    beta = Segment(g1.beg - gen.null_dir().scale(s_len), g1.beg)
    gap = gen.ctx.rat(gen.rng.randint(1, 8), 2)
    g2 = event(g1.beg - gen.timelike_dir().scale(gap))
    if not chron_precedes(g2, g1):
        return Verdict.true()
    a = Line.through(g2.beg, g1.beg)
    if not kind.allows(a.interval_class):
        return Verdict.true()
    p = beta.beg
    if light_between(event(p), g2):
        return Verdict.true()  # excluded by the amended guard
    if (p - g2.beg).is_zero():
        b = Line(p, gen.timelike_dir())
    else:
        b = Line.through(p, g2.beg)
    ok = kind.allows(b.interval_class) and transmits(b, beta) and b.contains(g2.beg)
    return _verdict(ok, {"beta": beta, "g1": g1, "g2": g2})


def check_axftl4(gen: ConfigGen, kind: ModelKind, ops: Ops) -> Verdict:
    a = gen.observer(kind)
    if a.interval_class is not IntervalClass.SPACELIKE:
        return Verdict.true()
    x1 = gen.event_on(a)
    x2 = event(a.at(a.param_of(x1.beg) + gen.ctx.one))
    ok = (
        transmits(a, x1)
        and transmits(a, x2)
        and not (x1.beg - x2.beg).is_zero()
    )
    return _verdict(ok, {"a": a})


# --- suite tables -----------------------------------------------------------------


TARSKI_CHECKERS = {
    "tarski01": check_tarski01,
    "tarski02": check_tarski02,
    "tarski03": check_tarski03,
    "tarski04": check_tarski04,
    "tarski05": check_tarski05,
    "tarski06": check_tarski06,
    "tarski07": check_tarski07,
    "tarski08": check_tarski08,
    "tarski09": check_tarski09,
    "tarski10": check_tarski10,
    "tarski11": check_tarski11,
    "tarski12": check_tarski12,
    "cont01": check_cont_segments,
    "cont02": check_cont_segment_ray,
    "cont03": check_cont_point_segment,
    "cont04": check_cont_disk,
    "cont05": check_cont_rays,
}

AXIOM_CHECKERS = {
    "AxSTL": check_axstl,
    "AxEv": check_axev,
    "AxTime": check_axtime,
    "AxObUnique": check_axobunique,
    "AxIso": check_axiso,
    "AxStIso": check_axstiso,
    "AxPoInd": check_axpoind,
    "AxTiInd": check_axtiind,
    "AxUnOb": check_axunob,
    "AxUnSi": check_axunsi,
    "AxRR": check_axrr,
    "AxSim": check_axsim,
    "AxLim": check_axlim,
    "AxIsoFTL": lambda g, k, o: check_axiso(g, k, o, guard_stl=True),
    "AxUnSiFTL": lambda g, k, o: check_axunsi(g, k, o, guard_stl=True),
    "AxFTL1": check_axftl1,
    "AxFTL2": check_axftl2,
    "AxFTL3": check_axftl3,
    "AxFTL4": check_axftl4,
    "AxStIsoFTL": check_axstiso,
    "AxPoIndFTL": check_axpoind,
    "AxTiIndFTL": check_axtiind,
    "AxUnObFTL": check_axunob,
    "AxSimFTL": check_axsim,
}

# Printed FTL substitutions that the canonical FTL structure falsifies; the
# suite reports their honest verdicts and marks them expected.
EXPECTED_DIVERGENT = {"AxSimFTL", "AxUnObFTL"}


# --- the case loop, and the axiom suite ---------------------------------------------


def _run_cases(
    item: ItemResult,
    budget: Budget,
    key: tuple,
    count: int,
    check: Callable[[ConfigGen, int, int], Verdict],
    repeats: int = 1,
) -> None:
    """The case loop of every suite.

    Seed i < count is ``sub_seed(budget.seed, *key, i)``.  Each seed gets a
    fresh ConfigGen, and ``check(gen, i, j)`` draws from it for
    ``j < repeats``, one recorded case per call.

    This is the one place on the suite side where an exception from the
    exact layers becomes a verdict: a CapacityError is UNKNOWN with reason
    ``capacity: ...`` and an UnsupportedPredicate is UNKNOWN with reason
    ``unsupported: ...``.  Checkers and the definitional procedures catch
    neither, so neither can turn into a truth value on its way here.

    Every case that is not TRUE records its seed, its reason and its
    bindings; ``ConfigGen(seed, budget.coordinate_bound)`` replays it.
    Any other exception is a crash, never a verdict: it is re-raised as a
    RuntimeError naming the item, the case index and that replay.
    """
    index = 0
    for i in range(count):
        seed = sub_seed(budget.seed, *key, i)
        gen = ConfigGen(seed, budget.coordinate_bound)
        for j in range(repeats):
            try:
                verdict = check(gen, i, j)
            except CapacityError as err:
                verdict = Verdict.unknown(f"capacity: {err}")
            except UnsupportedPredicate as err:
                verdict = Verdict.unknown(f"unsupported: {err}")
            except Exception as err:
                raise RuntimeError(
                    f"{item.name} case {index} raised {type(err).__name__}: {err} "
                    f"(replay with ConfigGen({seed}, {budget.coordinate_bound}))"
                ) from err
            detail = None
            if not verdict.is_true():
                detail = {"seed": seed}
                if verdict.reason:
                    detail["reason"] = verdict.reason
                if verdict.witness:
                    detail["bindings"] = {
                        k: serialize_entity(v) for k, v in verdict.witness.items()
                    }
            item.record(index, verdict.status, detail)
            index += 1


def run_axiom_suite(
    system: str,
    kind: ModelKind,
    budget: Budget,
    cases: int = 100,
    axioms: Optional[list[str]] = None,
) -> SuiteReport:
    version, entries = versioned_axioms(system)
    report = SuiteReport("axioms", kind.value, budget, version, system=system)
    ops = Ops("ftl" if system == SYSTEM_SIMPLERELFTL else "plain")
    for entry in entries:
        name = entry.name
        if axioms and name not in axioms:
            continue
        # AxGeo/<k> and AxGeoFTL/<k> are Tarski's axioms; the tables are read
        # here, not at import, so that wrapping their entries takes effect
        _, _, tarski = name.partition("/")
        checker = TARSKI_CHECKERS[tarski] if tarski else AXIOM_CHECKERS[name]
        expected = system == SYSTEM_SIMPLERELFTL and name in EXPECTED_DIVERGENT
        item = report.item(name, expected_divergence=expected)
        _run_cases(item, budget, (system, name), cases,
                   lambda gen, i, j: checker(gen, kind, ops))
    return report.finish()


# --- lemma checkers -----------------------------------------------------------------


def lemma_par_equivalence(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a, b, c = gen.parallel_family(3, kind)
    ok = (
        parallel(a, a)
        and parallel(a, b) == parallel(b, a)
        and (not (parallel(a, b) and parallel(b, c)) or parallel(a, c))
    )
    x, y = gen.observer(kind), gen.observer(kind)
    ok = ok and parallel(x, y) == parallel(y, x)
    return _verdict(ok)


def lemma_unique_parallel(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a = gen.timelike_line() if kind is ModelKind.STL_ONLY else gen.observer(kind)
    e = event(gen.point())
    b = Line(e.beg, a.dir)
    if not (transmits(b, event(e.beg)) and parallel(b, a)):
        return Verdict.false({"a": a, "e": e})
    # a second parallel observer through the event collapses to the same line
    b2 = Line(e.beg + a.dir.scale(gen.ctx.rat(3)), a.dir)
    return _verdict(b2 == b, {"a": a, "e": e})


def lemma_unique_signals(gen: ConfigGen, kind: ModelKind) -> Verdict:
    s = gen.signal()
    s2 = Segment(s.beg, s.end)
    return _verdict(s == s2 and hash(s) == hash(s2))


def lemma_two_events(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a = gen.observer(kind)
    e1 = event(a.at(gen.ctx.zero))
    e2 = event(a.at(gen.ctx.one))
    ok = transmits(a, e1) and transmits(a, e2) and not (e1.beg - e2.beg).is_zero()
    return _verdict(ok, {"a": a})


def lemma_observers_events(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a = gen.observer(kind)
    b = gen.observer(kind)
    if a == b:
        return Verdict.true()
    # some event of a is off b, so the transmitted signal sets differ
    for t in (0, 1, -1, 2):
        p = a.at(gen.ctx.rat(t))
        if not b.contains(p):
            e = event(p)
            return _verdict(transmits(a, e) and not transmits(b, e))
    return Verdict.false({"a": a, "b": b})


def lemma_stl1(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a = gen.timelike_line()
    e = event(gen.point())
    if count_future_null_to_line(e.beg, a) != 1:
        return Verdict.false({"a": a, "e": e})
    future = [v for v in null_links(e.beg, a) if v.x0.sign() >= 0]
    return _verdict(len(future) == 1, {"a": a, "e": e})


def lemma_stl_counterexamples(gen: ConfigGen, kind: ModelKind) -> Verdict:
    """Non-timelike lines admit an event with zero and one with two
    connecting future null segments (the AxIso failure geometry)."""
    a = gen.spacelike_line()
    got = witness_zero_and_two(a)
    if got is None:
        return Verdict.false({"a": a})
    return Verdict.true()


def lemma_stl_events(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a = gen.timelike_line()
    x = gen.event_on(a)
    y = gen.event_on(a)
    if sim_geo(a, x, y):
        return _verdict(x == y, {"a": a, "x": x, "y": y})
    return Verdict.true()


def lemma_tau_unique(gen: ConfigGen, kind: ModelKind, ftl: bool = False) -> Verdict:
    frame = ClassFrame(gen)
    a = frame.random_line()
    b = frame.random_line()
    if b == a:
        return Verdict.true()
    e1 = gen.event_on(a)
    e2 = event(e1.beg + a.dir.scale(gen.ctx.rat(gen.rng.randint(1, 8), 2)))
    c = tau_geo(b, e1, e2)
    if c is None:
        return Verdict.false({"a": a, "b": b})
    good = definitional.tau_def(c, b, e1, e2, kind, ftl_variant=ftl)
    if not good.is_true():
        return Verdict.false({"c": c}) if good.is_false() else good
    # a perturbed candidate must be refuted by the defining clause
    wrong = Line(c.base + (c.base - b.base), c.dir)
    if wrong == c:
        return Verdict.true()
    refuted = definitional.tau_def(wrong, b, e1, e2, kind, ftl_variant=ftl)
    if refuted.is_unknown():
        return refuted
    return _verdict(refuted.is_false(), {"c": c, "wrong": wrong})


def lemma_sim_events(gen: ConfigGen, kind: ModelKind) -> Verdict:
    a = gen.timelike_line()
    beta = event(gen.point())
    alpha = event(sim_project(a, beta))
    if not (transmits(a, alpha) and sim_geo(a, alpha, beta)):
        return Verdict.false({"a": a, "beta": beta})
    other = event(alpha.beg + a.dir.scale(gen.ctx.one))
    return _verdict(not sim_geo(a, other, beta), {"a": a, "beta": beta})


def lemma_def_equiv(gen: ConfigGen, kind: ModelKind) -> Verdict:
    """The definitional-change lemma's equivalences, on STL data.  Its fifth,
    for Tau, holds by construction: both readings of Tau are `tau_geo`."""
    frame = ClassFrame(gen)
    lines = [frame.random_line() for _ in range(4)]
    a, b, c, d = lines
    if bw_ftl(a, b, c) != bw_geo(a, b, c):
        return Verdict.false({"what": "Bw", "a": a, "b": b, "c": c})
    if eq_ftl(a, b, c, d) != eq_geo(a, b, c, d):
        return Verdict.false({"what": "Eq"})
    e1 = gen.event_on(a) if gen.rng.random() < 0.5 else event(gen.point())
    e2 = event(gen.point()) if gen.rng.random() < 0.5 else gen.sim_pair(a)[1]
    if sim_ftl(a, e1, e2) != sim_geo(a, e1, e2):
        return Verdict.false({"what": "Sim", "a": a})
    evs = [gen.event_on(a) for _ in range(2)] + [event(gen.point()) for _ in range(2)]
    return _verdict(delta_ftl(a, *evs) == delta_geo(a, *evs), {"what": "Delta", "a": a})


LEMMAS_STL = {
    "ParLemma": lemma_par_equivalence,
    "AxLemma1": lemma_unique_parallel,
    "UniquenessOfSignalsLemma": lemma_unique_signals,
    "TwoEventsLemma": lemma_two_events,
    "ObserversEventsLemma": lemma_observers_events,
    "STLLemma1": lemma_stl1,
    "STLEventsLemma": lemma_stl_events,
    "AxLemma2": lambda g, k: lemma_tau_unique(g, k, ftl=False),
    "SimEventsLemma": lemma_sim_events,
}

LEMMAS_FTL = {
    "ParLemmaFTL": lemma_par_equivalence,
    "AxLemma1FTL": lemma_unique_parallel,
    "DefEquivLemma": lemma_def_equiv,
    "UniquenessOfSignalsLemmaFTL": lemma_unique_signals,
    "TwoEventsLemmaFTL": lemma_two_events,
    "ObserversEventsLemmaFTL": lemma_observers_events,
    "STLLemma1FTL": lemma_stl1,
    "NonSTLCountsLemma": lemma_stl_counterexamples,
    "STLEventsLemmaFTL": lemma_stl_events,
    "AxLemma2FTL": lambda g, k: lemma_tau_unique(g, k, ftl=True),
    "SimEventsLemmaFTL": lemma_sim_events,
}


def run_lemma_suite(kind: ModelKind, budget: Budget, cases: int = 100) -> SuiteReport:
    report = SuiteReport("lemmas", kind.value, budget, corpus_version())
    table = LEMMAS_STL if kind is ModelKind.STL_ONLY else LEMMAS_FTL
    for name, checker in table.items():
        _run_cases(report.item(name), budget, ("lemma", name), cases,
                   lambda gen, i, j: checker(gen, kind))
    return report.finish()


# --- definitional equivalence --------------------------------------------------------


def _mix(index: int, *weights: int) -> int:
    """Deterministic case-mix bucket, interleaved across indices."""
    total = sum(weights)
    slot = (index * 37 + 11) % total
    for bucket, w in enumerate(weights):
        if slot < w:
            return bucket
        slot -= w
    return len(weights) - 1


def _gen_line_pair(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 46, 46, 8)
    if bucket == 0:  # parallel
        return tuple(gen.parallel_family(2, kind))
    if bucket == 1:  # crossing
        p = gen.point()
        return Line(p, gen.direction(kind)), Line(p, gen.direction(kind))
    return gen.observer(kind), gen.observer(kind)  # generic (usually skew)


def _gen_event_pair(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 35, 25, 20, 20)
    if bucket == 0:
        return gen.null_connected_pair()
    if bucket == 1:
        a, b = gen.null_connected_pair()
        return b, a
    if bucket == 2:
        return gen.chron_pair()
    p = event(gen.point())
    q = event(p.beg + gen.spacelike_dir())
    return p, q


def _gen_bw_args(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 40, 20, 20, 20)
    if bucket == 3:
        p = gen.point()
        return (Line(p, gen.timelike_dir()), Line(p, gen.timelike_dir()),
                Line(p, gen.timelike_dir()))
    frame = ClassFrame(gen)
    if bucket == 0:
        x, far = frame.random_line(), frame.random_line()
        r = sorted(Fraction(gen.rng.randint(0, 8), 8) for _ in range(2))
        return x, frame.combo(x, far, r[0]), frame.combo(x, far, r[1])
    if bucket == 1:
        return frame.random_line(), frame.random_line(), frame.random_line()
    x, far = frame.random_line(), frame.random_line()
    mid = frame.combo(x, far, Fraction(1, 2))
    off = Line(mid.base + frame.basis[1], frame.dir)
    return x, off, far


def _gen_eq_args(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 40, 30, 10, 20)
    if bucket == 3:
        p = gen.point()
        lines = [Line(p, gen.timelike_dir()) for _ in range(2)]
        frame = ClassFrame(gen)
        return lines[0], lines[1], frame.random_line(), frame.random_line()
    frame = ClassFrame(gen)
    a, b = frame.random_line(), frame.random_line()
    if bucket == 0:
        offs = b.base - a.base
        c = frame.random_line()
        return a, b, c, Line(c.base + offs, frame.dir)
    if bucket == 1:
        return a, b, frame.random_line(), frame.random_line()
    c = frame.random_line()
    return a, a, c, c


def _gen_sim_args(gen: ConfigGen, kind: ModelKind, index: int):
    c = gen.timelike_line()
    bucket = _mix(index, 50, 40, 10)
    if bucket == 0:
        e1, e2 = gen.sim_pair(c)
    elif bucket == 1:
        e1, e2 = event(gen.point()), event(gen.point())
    else:
        e1 = event(gen.point())
        e2 = e1
    return c, e1, e2


def _gen_delta_args(gen: ConfigGen, kind: ModelKind, index: int):
    a = gen.timelike_line()
    bucket = _mix(index, 40, 30, 10, 20)
    gap = gen.ctx.rat(gen.rng.randint(0, 8), 2)
    a0 = gen.event_on(a)
    a1 = event(a0.beg + a.dir.scale(gap))
    if bucket == 0:
        b0 = gen.event_on(a)
        b1 = event(b0.beg + a.dir.scale(-gap if gen.rng.random() < 0.4 else gap))
    elif bucket == 1:
        b0 = gen.event_on(a)
        b1 = event(b0.beg + a.dir.scale(gap + gen.ctx.one))
    elif bucket == 2:
        b0, b1 = a0, a1
    else:
        off = gen.spatial_offset()
        b0 = event(a0.beg + off)
        b1 = event(a1.beg + off)
    return a, a0, a1, b0, b1


def _gen_stl_args(gen: ConfigGen, kind: ModelKind, index: int):
    if kind is ModelKind.FTL and _mix(index, 1, 1) == 1:
        return (gen.spacelike_line(),)
    return (gen.timelike_line(),)


def _gen_tau_args(gen: ConfigGen, kind: ModelKind, index: int):
    frame = ClassFrame(gen)
    a = frame.random_line()
    b = frame.random_line()
    e1 = gen.event_on(a)
    e2 = event(e1.beg + a.dir.scale(gen.ctx.rat(gen.rng.randint(1, 8), 2)))
    bucket = _mix(index, 50, 30, 20)
    if bucket == 2 or b == a:
        return b, b, e1, e2  # c == b never satisfies the clause
    c = tau_geo(b, e1, e2)
    if c is None:
        return b, b, e1, e2
    if bucket == 1:
        c = Line(c.base + (c.base - b.base), c.dir)
    return c, b, e1, e2


def _gen_ftl_pairs(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 50, 50) if kind is ModelKind.FTL else 0
    if bucket == 0:
        frame = ClassFrame(gen)
        lines = [frame.random_line() for _ in range(3)]
        return tuple(lines)
    frame = ClassFrame(gen, gen.spacelike_dir())
    anchor, far = frame.random_line(), frame.random_line()
    if anchor == far:
        return anchor, far, frame.random_line()
    ts = [Fraction(gen.rng.randint(-6, 6), 2) for _ in range(2)]
    return anchor, frame.combo(anchor, far, ts[0]), frame.combo(anchor, far, ts[1])


def _gen_eqftl_args(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 50, 50) if kind is ModelKind.FTL else 0
    if bucket == 0:
        return _gen_eq_args(gen, kind, index)
    frame = ClassFrame(gen, gen.spacelike_dir())
    a, b = frame.random_line(), frame.random_line()
    if gen.rng.random() < 0.5:
        offs = b.base - a.base
        c = frame.random_line()
        return a, b, c, Line(c.base + offs, frame.dir)
    return a, b, frame.random_line(), frame.random_line()


def _gen_simftl_args(gen: ConfigGen, kind: ModelKind, index: int):
    if kind is ModelKind.FTL and _mix(index, 1, 1) == 1:
        c = gen.spacelike_line()
    else:
        c = gen.timelike_line()
    bucket = _mix(index, 40, 40, 20)
    if bucket == 0:
        e1, e2 = gen.sim_pair(c)
    elif bucket == 1:
        e1, e2 = event(gen.point()), event(gen.point())
    else:
        e1 = event(gen.point())
        dt = gen.ctx.rat(gen.rng.randint(1, 4))
        w = quotient_lift(Vec4.of(gen.ctx, dt, 0, 0, 0), c.dir)
        e2 = event(e1.beg + w)
    return c, e1, e2


def _gen_deltaftl_args(gen: ConfigGen, kind: ModelKind, index: int):
    if kind is ModelKind.FTL and _mix(index, 1, 1) == 1:
        a = gen.spacelike_line()
        gap = gen.ctx.rat(gen.rng.randint(0, 8), 2)
        a0 = gen.event_on(a)
        a1 = event(a0.beg + a.dir.scale(gap))
        b0 = gen.event_on(a)
        same = gen.rng.random() < 0.6
        b1 = event(b0.beg + a.dir.scale(gap if same else gap + gen.ctx.one))
        return a, a0, a1, b0, b1
    return _gen_delta_args(gen, kind, index)


def _gen_dual_args(gen: ConfigGen, kind: ModelKind, index: int):
    if kind is not ModelKind.FTL:
        a, b = gen.parallel_family(2, kind)
        return Line(a.base + a.dir, a.dir), a, b
    a, b = gen.nonrelatable_spacelike_pair()
    cands = dual_candidates(a, b)
    bucket = _mix(index, 40, 20, 20, 20)
    if bucket == 0 and cands:
        return cands[0], a, b
    if bucket == 1 and cands:
        return cands[1], a, b
    if bucket == 2 and cands:
        wrong = Line(cands[0].base.scale(gen.ctx.rat(3, 5)), cands[0].dir)
        return wrong, a, b
    rel = Line(a.base + a.dir.scale(gen.ctx.one), a.dir)
    return rel, a, b


def _gen_rho_args(gen: ConfigGen, kind: ModelKind, index: int):
    bucket = _mix(index, 30, 30, 40)
    if bucket == 0 and kind is ModelKind.FTL:
        return gen.nonrelatable_spacelike_pair()
    if bucket == 1:
        return tuple(gen.parallel_family(2, kind))
    return gen.observer(kind), gen.observer(kind)


def _gen_op_args(gen: ConfigGen, kind: ModelKind, index: int):
    if kind is not ModelKind.FTL:
        return tuple(gen.parallel_family(2, kind))
    bucket = _mix(index, 40, 30, 30)
    d = gen.spacelike_dir()
    a = Line(gen.point(), d)
    if bucket == 0:
        # tangent pair: offset with zero quotient norm built from a null dir
        n = gen.null_dir()
        u = quotient_lift(n, d)
        return a, Line(a.base + u, d)
    if bucket == 1:
        return gen.nonrelatable_spacelike_pair()
    return tuple(gen.parallel_family(2, kind))


PRED_GENERATORS = {
    "Ev": lambda g, k, i: (g.signal() if _mix(i, 1, 1) else event(g.point()),),
    "M": _gen_line_pair,
    "Cop": _gen_line_pair,
    "Par": _gen_line_pair,
    "L": _gen_event_pair,
    "Prec": _gen_event_pair,
    "Bw": _gen_bw_args,
    "Eq": _gen_eq_args,
    "Sim": _gen_sim_args,
    "Delta": _gen_delta_args,
    "STL": _gen_stl_args,
    "Tau": _gen_tau_args,
    "Lightspeed": _gen_stl_args,
    "FTL": _gen_stl_args,
    "TR": lambda g, k, i: (g.observer(k), g.signal()),
    "Rho": _gen_rho_args,
    "OP": _gen_op_args,
    "BwRho": _gen_ftl_pairs,
    "EqRho": _gen_eqftl_args,
    "BwFTL": _gen_ftl_pairs,
    "EqFTL": _gen_eqftl_args,
    "SimFTL": _gen_simftl_args,
    "DeltaFTL": _gen_deltaftl_args,
    "TauFTL": _gen_tau_args,
    "Dual": _gen_dual_args,
}

CRITERION6_PREDICATES = [
    "Ev", "M", "Cop", "Par", "L", "Bw", "Eq", "Sim", "Delta", "Prec", "STL",
    "Tau", "BwFTL", "EqFTL", "SimFTL", "DeltaFTL", "TauFTL",
]


def _arguments(args) -> dict:
    return {f"arg{k}": a for k, a in enumerate(args)}


def run_equivalence_suite(
    kind: ModelKind,
    budget: Budget,
    cases: int = 100,
    predicates: Optional[list[str]] = None,
) -> SuiteReport:
    """The geometric verdict of each predicate against its definitional one."""
    report = SuiteReport("equivalence", kind.value, budget, corpus_version())
    names = predicates or (CRITERION6_PREDICATES + ["Dual", "Rho", "OP", "Lightspeed", "FTL", "TR"])
    for name in names:
        genf = PRED_GENERATORS[name]
        deff = definitional.DEFINITIONAL_EVALUATORS[name]

        def check(gen: ConfigGen, i: int, j: int) -> Verdict:
            args = genf(gen, kind, i)
            geo = bool(GEOMETRIC_PREDICATES[name](args))
            got = deff(list(args), kind)
            if got.is_unknown():
                return Verdict.unknown(got.reason or "undecided")
            if got.is_true() != geo:
                reason = f"geometric {str(geo).lower()}, definitional {got.status}"
                return Verdict(FALSE, _arguments(args), reason)
            return Verdict.true()

        _run_cases(report.item(name), budget, ("equiv", name), cases, check)
    return report.finish()


# --- Poincaré invariance ----------------------------------------------------------


INVARIANCE_CONFIGS: dict[str, Callable] = {
    name: PRED_GENERATORS[name]
    for name in (
        "Ev", "M", "Cop", "Par", "L", "Prec", "Bw", "Eq", "Sim", "Delta", "STL",
        "Rho", "OP", "BwRho", "EqRho", "BwFTL", "EqFTL", "SimFTL", "DeltaFTL",
    )
}


def _transform_args(gen: ConfigGen, m: PoincareMap, args):
    out = []
    for a in args:
        if isinstance(a, Line):
            out.append(gen.transform_line(m, a))
        elif isinstance(a, Segment):
            out.append(gen.transform_signal(m, a))
        else:
            out.append(a)
    return tuple(out)


def invariance_suite(kind: ModelKind, budget: Budget, configs: int = 20) -> SuiteReport:
    """Each predicate's geometric verdict on a configuration, against its
    verdict after each of 5 random Poincaré maps."""
    report = SuiteReport("invariance", kind.value, budget, corpus_version())

    def control(gen: ConfigGen, i: int, j: int) -> Verdict:
        # doubling time is not an isometry: the check must reject it
        zero = _reduced(gen.ctx, (0, 0, 0, 0), 1, Vec4)
        doubling = _pmap((2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1), 1, zero)
        return _verdict(not doubling.validate_isometry())

    _run_cases(report.item("non-isometry control"), budget, ("inv", "control"), 1, control)
    for name in INVARIANCE_CONFIGS:
        genf = PRED_GENERATORS[name]
        config: dict = {}

        def check(gen: ConfigGen, i: int, j: int) -> Verdict:
            if j == 0:
                config.clear()
                args = genf(gen, kind, i)
                config.update(args=args, before=bool(GEOMETRIC_PREDICATES[name](args)))
            if not config:
                return Verdict.unknown("the configuration was not built (see map 0)")
            moved = _transform_args(gen, gen.poincare(), config["args"])
            after = bool(GEOMETRIC_PREDICATES[name](moved))
            if after == config["before"]:
                return Verdict.true()
            reason = f"map {j}: {config['before']} before, {after} after"
            return Verdict(FALSE, _arguments(config["args"]), reason)

        _run_cases(report.item(name), budget, ("inv", name), configs, check, 5)
    return report.finish()
