import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcheck.minkowski import (
    IntervalClass,
    Line,
    PoincareMap,
    Segment,
    Vec4,
    along,
    classify,
    inner,
    lam,
    lines_intersect,
    quotient_inner,
    quotient_norm,
    _offsets,
    _pmap,
    _qform,
    _vparallel,
    tarski_bw_f,
)
from relcheck.model import bw_rho
from relcheck.scalar import Scalar, ScalarContext, ScalarError, _vmul, _vsign
from test_scalar import _q, _random_tower, _tower_element


def v(ctx, *vals):
    return Vec4.of(ctx, *vals)


def test_inner_known_values():
    ctx = ScalarContext()
    assert inner(v(ctx, 1, 0, 0, 0), v(ctx, 1, 0, 0, 0)) == -1
    assert inner(v(ctx, 1, 1, 0, 0), v(ctx, 1, 1, 0, 0)) == 0
    assert inner(v(ctx, 1, 2, 3, 4), v(ctx, 4, 3, 2, 1)) == 12


def test_lambda_quadratic_in_last_coordinate():
    # the form is -x0^2 + x1^2 + x2^2 + x3^2; (0,0,0,2) has norm 4
    ctx = ScalarContext()
    assert lam(v(ctx, 0, 0, 0, 2)) == 4
    assert lam(v(ctx, 0, 0, 0, -2)) == 4


def test_classify_interval_known_values():
    ctx = ScalarContext()
    o = v(ctx, 0, 0, 0, 0)
    assert classify(v(ctx, 2, 1, 0, 0) - o) is IntervalClass.TIMELIKE
    assert classify(v(ctx, 1, 1, 0, 0) - o) is IntervalClass.LIGHTLIKE
    assert classify(v(ctx, 1, 2, 2, 0) - o) is IntervalClass.SPACELIKE
    assert classify(o - o) is IntervalClass.LIGHTLIKE


def test_inner_symmetric_bilinear_random():
    rng = random.Random(11)
    ctx = ScalarContext()
    for _ in range(200):
        a = v(ctx, *(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
        b = v(ctx, *(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
        c = v(ctx, *(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
        k = ctx.rat(rng.randint(-4, 4))
        assert inner(a, b) == inner(b, a)
        assert inner(a + b, c) == inner(a, c) + inner(b, c)
        assert inner(a.scale(k), b) == k * inner(a, b)


# --- Tarski relations -------------------------------------------------------


def p3(ctx, *vals):
    # a point of rest-frame space F^3, with a zero time coordinate
    return Vec4.of(ctx, 0, *vals)


def test_bw_known_triples():
    ctx = ScalarContext()
    assert tarski_bw_f(p3(ctx, 0, 0, 0), p3(ctx, 1, 0, 0), p3(ctx, 2, 0, 0))
    assert not tarski_bw_f(p3(ctx, 0, 0, 0), p3(ctx, 2, 0, 0), p3(ctx, 1, 0, 0))
    assert tarski_bw_f(p3(ctx, 0, 0, 0), p3(ctx, 1, 1, 0), p3(ctx, 2, 2, 0))


def test_bw_degenerate_cases():
    ctx = ScalarContext()
    a = p3(ctx, 1, 2, 3)
    assert tarski_bw_f(a, a, a)
    assert tarski_bw_f(a, a, p3(ctx, 5, 5, 5))
    assert not tarski_bw_f(a, p3(ctx, 5, 5, 5), a)


def _printed_first_coordinate_bw(a, b, c) -> bool:
    # 3x3 determinant of the absolute coordinates, ordering by first coords
    a, b, c = (tuple(p)[1:] for p in (a, b, c))
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    ordered = (a[0] <= b[0] <= c[0]) or (c[0] <= b[0] <= a[0])
    return det.is_zero() and ordered


def test_printed_betweenness_reading_disagrees():
    # documents why the determinant-plus-first-coordinate formula is not used:
    # any triple containing the origin row zeroes the determinant
    ctx = ScalarContext()
    a, b, c = p3(ctx, 0, 0, 0), p3(ctx, 1, 1, 0), p3(ctx, 5, 0, 0)
    assert _printed_first_coordinate_bw(a, b, c)
    assert not tarski_bw_f(a, b, c)
    # and triples varying only off the first coordinate are unordered by it
    a2, b2, c2 = p3(ctx, 1, 2, 0), p3(ctx, 1, 3, 0), p3(ctx, 1, 1, 0)
    assert _printed_first_coordinate_bw(a2, b2, c2)
    assert not tarski_bw_f(a2, b2, c2)


def test_tarski_axiom1_and_pasch_random():
    rng = random.Random(23)
    ctx = ScalarContext()
    for _ in range(150):
        x = p3(ctx, *(Fraction(rng.randint(-6, 6)) for _ in range(3)))
        y = p3(ctx, *(Fraction(rng.randint(-6, 6)) for _ in range(3)))
        if tarski_bw_f(x, y, x):
            assert x == y
    # Pasch with an exactly solved witness
    for _ in range(60):
        coords = lambda: p3(ctx, *(Fraction(rng.randint(-5, 5)) for _ in range(3)))
        x, u_, z = coords(), coords(), coords()
        r = Fraction(rng.randint(0, 4), 4)
        s = Fraction(rng.randint(0, 4), 4)
        t = x + (u_ - x).scale(ctx.rat(r))
        y = coords()
        # u between y and z: pick z so that u_ = y + s*(z-y) with s in (0,1]
        if s == 0:
            continue
        zz = y + (u_ - y).scale(1 / ctx.rat(s))
        assert tarski_bw_f(x, t, u_)
        assert tarski_bw_f(y, u_, zz)
        # Pasch witness: v = y + r*s*(z - y) ... derived via the affine map
        # v on segments x..y and z..t simultaneously; solve through params:
        # v = x + mu(y - x) with mu = (r*s ... ) use exact two-line meet in
        # the plane instead: v solves v ∈ [x,y] ∩ [z,t]
        v_ = _segment_meet(ctx, x, y, zz, t)
        if v_ is not None:
            assert tarski_bw_f(x, v_, y)
            assert tarski_bw_f(zz, t, v_) or tarski_bw_f(zz, v_, t)


def _segment_meet(ctx, p1, p2, q1, q2):
    # meet of lines p1p2 and q1q2 inside a shared plane, or None
    d1, d2, rhs = p2 - p1, q2 - q1, q1 - p1
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            det = d1[i] * (-d2[j]) - (-d2[i]) * d1[j]
            if not det.is_zero():
                s = (rhs[i] * (-d2[j]) - (-d2[i]) * rhs[j]) / det
                t = (d1[i] * rhs[j] - rhs[i] * d1[j]) / det
                v_ = p1 + d1.scale(s)
                if v_ == q1 + d2.scale(t):
                    return v_
                return None
    return None


# --- lines -------------------------------------------------------------------


def test_line_canonical_form_two_parametrizations():
    ctx = ScalarContext()
    l1 = Line(v(ctx, 0, 1, 0, 0), v(ctx, 1, -1, 0, 0))
    l2 = Line(v(ctx, 2, -1, 0, 0), v(ctx, -3, 3, 0, 0))
    assert l1 == l2
    assert hash(l1) == hash(l2)


def test_line_canonical_random_reparametrization():
    rng = random.Random(3)
    ctx = ScalarContext()
    for _ in range(100):
        base = v(ctx, *(Fraction(rng.randint(-8, 8)) for _ in range(4)))
        d = v(ctx, *(Fraction(rng.randint(-4, 4)) for _ in range(4)))
        if d.is_zero():
            continue
        l1 = Line(base, d)
        k = ctx.rat(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4)))
        shift = ctx.rat(rng.randint(-7, 7))
        l2 = Line(base + d.scale(shift), d.scale(k))
        assert l1 == l2


def test_lines_intersect_known_cases():
    ctx = ScalarContext()
    vertical = Line(v(ctx, 0, 0, 0, 0), v(ctx, 1, 0, 0, 0))
    other = Line(v(ctx, 0, 1, 0, 0), v(ctx, 1, -1, 0, 0))
    meet = lines_intersect(vertical, other)
    assert meet == v(ctx, 1, 0, 0, 0)
    par = Line(v(ctx, 0, 1, 0, 0), v(ctx, 1, 0, 0, 0))
    assert lines_intersect(vertical, par) is None
    # identical lines: a point on both, the canonical base
    same = Line(v(ctx, 3, 0, 0, 0), v(ctx, -2, 0, 0, 0))
    assert lines_intersect(vertical, same) == vertical.base
    assert lines_intersect(same, vertical) == vertical.base


def test_lines_intersect_skew():
    ctx = ScalarContext()
    a = Line(v(ctx, 0, 0, 0, 0), v(ctx, 1, 0, 0, 0))
    b = Line(v(ctx, 0, 1, 1, 0), v(ctx, 1, 1, 0, 0))
    assert lines_intersect(a, b) is None


_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_nonzero = st.lists(_small, min_size=4, max_size=4).filter(any)


@settings(max_examples=120, deadline=None)
@given(st.lists(_small, min_size=4, max_size=4), _nonzero, _nonzero, _small,
       st.fractions(min_value=1, max_value=4, max_denominator=3), st.sampled_from(range(4)))
def test_lines_intersect_properties(base, d1, d2, t, k, build):
    ctx = ScalarContext()
    p, u, w = v(ctx, *base), v(ctx, *d1), v(ctx, *d2)
    a = Line(p, u)
    # 0: the same line reparametrized, 1: a parallel line through p + w,
    # 2: a line through a.at(t), 3: a line through p + w
    b = [Line(a.at(ctx.rat(t)), u.scale(ctx.rat(-k))), Line(p + w, u.scale(ctx.rat(k))),
         Line(a.at(ctx.rat(t)), w), Line(p + w, w)][build]
    meet = lines_intersect(a, b)
    if a == b:
        assert meet == a.base
    elif a.dir == b.dir:
        assert meet is None
    if meet is not None:
        assert a.contains(meet) and b.contains(meet)
    if build == 0:
        assert meet is not None
    if build == 2 and a.dir != b.dir:
        assert meet == a.at(ctx.rat(t))
    assert lines_intersect(b, a) == meet


@settings(max_examples=120, deadline=None)
@given(st.lists(_small, min_size=4, max_size=4), _nonzero, _small, st.booleans())
def test_along_properties(u, d, t, on_line):
    ctx = ScalarContext()
    dv = v(ctx, *d)
    uv = dv.scale(ctx.rat(t)) if on_line else v(ctx, *u)
    got = along(uv, dv)
    if on_line:
        assert got == ctx.rat(t)
    # u is a multiple of d iff every 2x2 minor of (u, d) vanishes
    off_span = any(uv[i] * dv[j] != uv[j] * dv[i] for i in range(4) for j in range(i + 1, 4))
    assert (got is None) == off_span
    if got is not None:
        assert uv == dv.scale(got)
    assert along(uv, v(ctx, 0, 0, 0, 0)) is None


# --- segments ----------------------------------------------------------------


def test_segment_validation():
    ctx = ScalarContext()
    Segment(v(ctx, 0, 0, 0, 0), v(ctx, 1, 1, 0, 0))
    Segment(v(ctx, 3, 0, 0, 0), v(ctx, 3, 0, 0, 0))
    with pytest.raises(ValueError):
        Segment(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    with pytest.raises(ValueError):
        Segment(v(ctx, 1, 1, 0, 0), v(ctx, 0, 0, 0, 0))


def test_line_rejects_zero_direction():
    ctx = ScalarContext()
    with pytest.raises(ValueError):
        Line(v(ctx, 1, 2, 3, 4), v(ctx, 0, 0, 0, 0))


# --- Poincaré maps ----------------------------------------------------------


def test_identity_isometry():
    ctx = ScalarContext()
    t = PoincareMap.identity(ctx)
    assert t.validate_isometry()
    x = v(ctx, 5, -3, 2, 7)
    assert t.apply(x) == x


def test_boost_rows_exact():
    # rows ((5/4,3/4,0,0),(3/4,5/4,0,0),(0,0,1,0),(0,0,0,1)); (5/4)^2-(3/4)^2=1
    ctx = ScalarContext()
    b = PoincareMap.boost(ctx, Fraction(1, 3))
    assert b.linear[0][0] == Fraction(5, 4)
    assert b.linear[0][1] == Fraction(3, 4)
    assert b.validate_isometry()


def _int_pmap(rows, translation: Vec4) -> PoincareMap:
    """The map with rational `rows` (ints, Fractions or level-0 Scalars), built on ints."""
    entries = [x.as_fraction() if isinstance(x, Scalar) else Fraction(x) for row in rows for x in row]
    den = math.lcm(*(q.denominator for q in entries))
    return _pmap([q.numerator * (den // q.denominator) for q in entries], den, translation)


def test_time_scaling_is_not_isometry():
    ctx = ScalarContext()
    rows = [[2 if i == j == 0 else (1 if i == j else 0) for j in range(4)] for i in range(4)]
    t = _int_pmap(rows, Vec4.of(ctx, 0, 0, 0, 0))
    assert not t.validate_isometry()


def test_space_reflection_is_isometry():
    ctx = ScalarContext()
    rows = [[(-1 if i == 2 else 1) * (i == j) for j in range(4)] for i in range(4)]
    t = _int_pmap(rows, Vec4.of(ctx, 0, 0, 0, 0))
    assert t.validate_isometry()
    assert t.apply(v(ctx, 1, 2, 3, 4)) == v(ctx, 1, 2, -3, 4)


def test_one_perturbed_entry_is_not_isometry():
    ctx = ScalarContext()
    rows = [list(r) for r in PoincareMap.boost(ctx, Fraction(1, 3)).linear]
    rows[1][0] = rows[1][0] + ctx.rat(1, 100)
    assert not _int_pmap(rows, Vec4.of(ctx, 0, 0, 0, 0)).validate_isometry()


def test_poincare_translation_above_level_0():
    ctx, other = ScalarContext(), ScalarContext()
    r2, r3 = ctx.sqrt(ctx.rat(2)), other.sqrt(other.rat(3))
    # a translation above level 0 puts the map in its context; a vector above
    # level 0 from another context does not mix with it
    m = PoincareMap.translation_by(Vec4(ctx.zero, r2, ctx.zero, ctx.zero))
    x = Vec4(other.zero, other.zero, r3, other.zero)
    assert m.apply_direction(x) == x and m.apply_direction(x).ctx is other
    with pytest.raises(ScalarError):
        m.apply(x)
    with pytest.raises(ScalarError):
        m.compose(PoincareMap.translation_by(x))


def test_classification_invariant_under_random_isometries():
    rng = random.Random(17)
    ctx = ScalarContext()
    maps = []
    for _ in range(100):
        t = PoincareMap.boost(ctx, Fraction(rng.randint(-2, 2), 5), axis=rng.choice([1, 2, 3]))
        r = PoincareMap.rotation(ctx, rng.randint(1, 4), rng.randint(0, 3))
        tr = PoincareMap.translation_by(
            v(ctx, *(Fraction(rng.randint(-6, 6)) for _ in range(4)))
        )
        m = tr.compose(r.compose(t))
        assert m.validate_isometry()
        maps.append(m)
    pts = [
        (v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0)),
        (v(ctx, 0, 0, 0, 0), v(ctx, 1, 1, 0, 0)),
        (v(ctx, 1, 2, 0, 3), v(ctx, 2, 2, 2, 3)),
    ]
    for m in maps:
        for p, q in pts:
            assert classify(q - p) is classify(m.apply(q) - m.apply(p))


def test_composition_of_isometries_is_isometry():
    ctx = ScalarContext()
    a = PoincareMap.boost(ctx, Fraction(1, 2))
    b = PoincareMap.rotation(ctx, 2, 1, 1, 3)
    assert a.compose(b).validate_isometry()


def test_quotient_norm_positive_definite_for_timelike():
    ctx = ScalarContext()
    d = v(ctx, 1, 0, 0, 0)
    assert quotient_norm(v(ctx, 7, 3, 4, 0), d) == 25
    d2 = v(ctx, 5, 3, 0, 0)  # timelike: -25+9 = -16
    u = v(ctx, 0, 0, 2, 0)
    assert quotient_norm(u, d2) == 4


# --- level-0 fast path ----------------------------------------------------

_coords = st.lists(
    st.fractions(min_value=-12, max_value=12, max_denominator=30), min_size=4, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(_coords, _coords, st.fractions(min_value=-5, max_value=5), st.lists(st.booleans(), min_size=9, max_size=9))
def test_rational_vec4_ops_are_fraction_formulas(fx, fy, fk, pick):
    # each coordinate comes from one of two contexts; a rational vector
    # lives in its x0's context, and a rational result in its left operand's
    ctxs = (ScalarContext(), ScalarContext())
    x = Vec4(*(ctxs[p].rat(f) for p, f in zip(pick[:4], fx)))
    y = Vec4(*(ctxs[p].rat(f) for p, f in zip(pick[4:8], fy)))
    k = ctxs[pick[8]].rat(fk)
    for got, want in [
        (x + y, [a + b for a, b in zip(fx, fy)]),
        (x - y, [a - b for a, b in zip(fx, fy)]),
        (x.scale(k), [a * fk for a in fx]),
    ]:
        assert [c.as_fraction() for c in got] == want
        assert [c.ctx for c in got] == [c.ctx for c in x]
    ip = inner(x, y)
    assert ip.level == 0 and ip.ctx is x[0].ctx
    assert ip.as_fraction() == -fx[0] * fy[0] + fx[1] * fy[1] + fx[2] * fy[2] + fx[3] * fy[3]


def test_vec4_with_a_level1_coordinate_takes_the_tower_path():
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    x = Vec4(ctx.rat(3), ctx.rat(1), r2, ctx.rat(-2))
    y = v(ctx, 1, Fraction(1, 2), 4, 5)
    assert (x + y)[2] == r2 + 4 and (x + y)[2].level == 1
    assert (y - x)[2] == 4 - r2
    assert x.scale(ctx.rat(3))[2] == r2 * 3
    assert y.scale(r2) == Vec4(*(c * r2 for c in y))
    assert inner(x, y) == -3 + Fraction(1, 2) + r2 * 4 - 10
    assert inner(x, x) == -9 + 1 + 2 + 4
    # level-1 coordinates of two contexts still refuse to mix
    other = ScalarContext()
    z = Vec4(other.rat(0), other.rat(0), other.sqrt(other.rat(3)), other.rat(0))
    with pytest.raises(ScalarError):
        _ = x + z
    with pytest.raises(ScalarError):
        inner(x, z)


def test_vec4_context_rule():
    ctx, other = ScalarContext(), ScalarContext()
    r2, r3 = ctx.sqrt(ctx.rat(2)), other.sqrt(other.rat(3))
    # coordinates above level 0 from two contexts are refused when built
    with pytest.raises(ScalarError):
        Vec4(ctx.rat(1), r2, r3, ctx.zero)
    # the vector takes its highest-level coordinate's context
    x = Vec4(other.rat(1), r2, other.rat(2), ctx.rat(Fraction(1, 3)))
    assert x.ctx is ctx and all(c.ctx is ctx for c in x)
    # a rational vector takes x0's context, and its coordinates read back in it
    y = Vec4(other.rat(Fraction(1, 2)), ctx.rat(3), ctx.zero, ctx.rat(-4))
    assert y.ctx is other
    assert [c.ctx for c in y] == [other] * 4 and y.x0.ctx is other and y[3].ctx is other
    assert [c.as_fraction() for c in y] == [Fraction(1, 2), 3, 0, -4]


# --- the shared-denominator Vec4 against the per-coordinate reference ---------
#
# The reference is Vec4 as it was before it shared one denominator: a tuple
# of four Scalars, with every operation made coordinate by coordinate from
# Scalar operators, and betweenness by the division t = u_p / w_p.


class _RefVec4:
    def __init__(self, *c) -> None:
        self.c = tuple(c)

    def __add__(self, other):
        return _RefVec4(*(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        return _RefVec4(*(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return _RefVec4(*(-a for a in self.c))

    def scale(self, k):
        return _RefVec4(*(a * k for a in self.c))

    def is_zero(self):
        return all(a.is_zero() for a in self.c)

    def __eq__(self, other):
        return self.c == other.c


def _ref_inner(x, y):
    return -(x.c[0] * y.c[0]) + x.c[1] * y.c[1] + x.c[2] * y.c[2] + x.c[3] * y.c[3]


def _ref_tarski_bw_f(a, b, c):
    ab = [bb - aa for aa, bb in zip(a.c, b.c)]
    ac = [cc - aa for aa, cc in zip(a.c, c.c)]
    t = None
    for num, den in zip(ab, ac):
        if not den.is_zero():
            t = num / den
            break
    if t is None:
        return all(x.is_zero() for x in ab)
    if t.sign() < 0 or (t - 1).sign() > 0:
        return False
    return all((num - t * den).is_zero() for num, den in zip(ab, ac))


def _ref_line(base, direction):
    """(pivot, base, dir) of the canonical form."""
    pivot = next(i for i in range(4) if not direction.c[i].is_zero())
    d = direction.scale(direction.c[pivot].inverse())
    return pivot, base - d.scale(base.c[pivot]), d


def _ref_lines_intersect(a, b):
    (pa, ba, da), (pb, bb, db) = a, b
    if ba == bb and da == db:
        return ba
    if da == db:
        return None
    diff = bb - ba
    for i in range(3):
        for j in range(i + 1, 4):
            det = da.c[i] * db.c[j] - da.c[j] * db.c[i]
            if not det.is_zero():
                p = ba + da.scale((diff.c[i] * db.c[j] - diff.c[j] * db.c[i]) / det)
                off = p - (bb + db.scale(p.c[pb]))
                return p if off.is_zero() else None
    raise AssertionError("non-parallel directions have a non-zero minor")


def _ref_contains(line, p):
    """The point at p's pivot parameter equals p (the former Line.contains)."""
    pivot, base, d = line
    return (p - (base + d.scale(p.c[pivot]))).is_zero()


def _ref_segment_error(beg, end):
    """The ValueError message Segment(beg, end) raised when it checked every
    difference, or None."""
    d = end - beg
    if not _ref_inner(d, d).is_zero():
        return "segment endpoints are not lightlike separated"
    if d.c[0].sign() < 0:
        return "segment is past-directed (end.x0 < beg.x0)"
    return None


def _ref_along(u, d):
    for ui, di in zip(u.c, d.c):
        if not di.is_zero():
            t = ui / di
            return t if (u - d.scale(t)).is_zero() else None
    return None


def _assert_vec4_form(x: Vec4) -> None:
    # one positive denominator, in lowest terms, at the vector's own level
    m = 1 << x.level
    assert len(x.a) == 4 * m and x.den > 0 and math.gcd(x.den, *x.a) == 1
    if x.level:
        assert any(any(x.a[i + m // 2 : i + m]) for i in range(0, 4 * m, m))


def _same(x: Vec4, ref: _RefVec4) -> bool:
    _assert_vec4_form(x)
    return tuple(x) == ref.c


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.randoms(use_true_random=False))
def test_vec4_matches_per_coordinate_reference(depth, rng):
    ctx, adjoined = _random_tower(rng, depth)
    roots = [root for _, root in adjoined]
    other = ScalarContext()

    def scalar():
        pick = rng.random()
        if pick < 0.2:
            return ctx.zero
        if pick < 0.5 or not roots:
            return ctx.rat(_q(rng))
        return _tower_element(rng, ctx, roots)

    def pair(coords):
        return Vec4(*coords), _RefVec4(*coords)

    vecs = [pair([scalar() for _ in range(4)]) for _ in range(3)]
    vecs.append(pair([other.rat(_q(rng)) for _ in range(4)]))  # rational, second context
    vecs.append(pair([ctx.zero] * 4))
    ks = [scalar(), ctx.zero, ctx.one]
    bw_levels = set()  # whether each tarski_bw_f triple was all rational

    def bw(a, b, c, ra, rb, rc):
        bw_levels.add(max(a.level, b.level, c.level) == 0)
        assert tarski_bw_f(a, b, c) == _ref_tarski_bw_f(ra, rb, rc)

    for x, rx in vecs:
        assert _same(x, rx) and x.x0 == rx.c[0] and x[2] == rx.c[2]
        assert x.is_zero() == rx.is_zero()
        assert _same(-x, -rx)
        assert lam(x) == _ref_inner(rx, rx)
        for k in ks:
            assert _same(x.scale(k), rx.scale(k))
        for y, ry in vecs:
            for got, want in [(x + y, rx + ry), (x - y, rx - ry)]:
                assert _same(got, want)
                if got.level:
                    assert got.ctx is ctx
            assert inner(x, y) == _ref_inner(rx, ry)
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)
            # a vector reached two ways has one representation
            z = (x + y) - y
            assert z == x and hash(z) == hash(x)

            # along: on the span of y, and off it
            for u, ru in [(y.scale(ks[0]), ry.scale(ks[0])), (x, rx)]:
                assert along(u, y) == _ref_along(ru, ry)

            # betweenness of x, x + t(y - x) and y, for t below, inside and above [0, 1]
            for t in [ctx.rat(-1, 2), ctx.zero, ctx.rat(1, 3), ctx.one, ctx.rat(3, 2), ks[0]]:
                b, rb = x + (y - x).scale(t), rx + (ry - rx).scale(t)
                bw(x, b, y, rx, rb, ry)
                bw(b, x, y, rb, rx, ry)
            bw(x, y, vecs[0][0], rx, ry, vecs[0][1])
    # the level-0 branch runs in every example (the rational and zero
    # vectors), and the tower path whenever some vector is above level 0
    assert True in bw_levels
    assert False in bw_levels or not any(x.level for x, _ in vecs)

    # lines: canonical fields, and meets of lines through one point or not
    lines = []
    for (p, rp), (d, rd) in zip(vecs, vecs[1:] + vecs[:1]):
        if d.is_zero():
            continue
        for base, rbase in [(p, rp), (p + d.scale(ks[0]), rp + rd.scale(ks[0]))]:
            line, ref = Line(base, d), _ref_line(rbase, rd)
            assert line.pivot == ref[0] and _same(line.base, ref[1]) and _same(line.dir, ref[2])
            lines.append((line, ref))
        through = vecs[0]
        line, ref = Line(through[0], d), _ref_line(through[1], rd)
        assert line.pivot == ref[0] and _same(line.base, ref[1]) and _same(line.dir, ref[2])
        lines.append((line, ref))
    for a, ra in lines:
        for b, rb in lines:
            got, want = lines_intersect(a, b), _ref_lines_intersect(ra, rb)
            assert (got is None) == (want is None)
            if got is not None:
                assert _same(got, want)
        # points of the line, at rational and tower parameters, and points off it
        for t in [ctx.zero, ctx.rat(-1, 2), ks[0]]:
            p, rp = a.at(t), ra[1] + ra[2].scale(t)
            assert _same(p, rp) and a.contains(p) and _ref_contains(ra, rp)
        for x, rx in vecs:
            assert a.contains(x) == _ref_contains(ra, rx)
            assert a.contains(x + a.dir) == _ref_contains(ra, rx + ra[2])

    # segments: events, null ends future or past by the sign of k, other ends
    null = [ctx.rat(c) for c in (3, 2, -2, 1)]  # -9 + 4 + 4 + 1 == 0
    for x, rx in vecs:
        for k in [ks[0], ctx.one, -ctx.one, ctx.rat(-1, 3)]:
            ends = [(x, rx), (x + Vec4(*null).scale(k), rx + _RefVec4(*null).scale(k))]
            ends += [(y, ry) for y, ry in vecs[:2]]
            for end, rend in ends:
                want = _ref_segment_error(rx, rend)
                try:
                    s = Segment(x, end)
                except ValueError as err:
                    assert str(err) == want
                else:
                    assert want is None and s.is_degenerate() == (rend - rx).is_zero()


# --- quotient-form sign tests on ints against the Scalar formulas ---------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.randoms(use_true_random=False))
def test_qform_signs_match_the_quotient_form(depth, rng):
    """`_qform` and `_vparallel` on the ints of `_offsets` against
    lam(d)*quotient_norm, lam(d)*quotient_inner, the Gram determinant and
    `along`, at levels 0-2; and bw_rho's sign test, on lines through
    collinear bases, against lam(d)*quotient_norm(c - a, d) <= 0."""
    ctx, adjoined = _random_tower(rng, depth)
    roots = [root for _, root in adjoined]

    def scalar():
        if rng.random() < 0.5 or not roots:
            return ctx.rat(_q(rng))
        return _tower_element(rng, ctx, roots)

    def vec():
        return Vec4(*(scalar() for _ in range(4)))

    for _ in range(6):
        d, o, p = vec(), vec(), vec()
        if lam(d).is_zero():
            continue
        # a third point on the line through o and p, or off it
        q = o + (p - o).scale(scalar()) if rng.random() < 0.4 else vec()
        (u, w), dd, sq = _offsets(d, o, p, q)
        lu, lw, ld = o - p, o - q, lam(d)
        n1, n2, m = _qform(u, u, dd, sq), _qform(w, w, dd, sq), _qform(u, w, dd, sq)
        assert _vsign(n1, sq) == (ld * quotient_norm(lu, d)).sign()
        assert _vsign(n2, sq) == (ld * quotient_norm(lw, d)).sign()
        assert _vsign(m, sq) == (ld * quotient_inner(lu, lw, d)).sign()
        qi = quotient_inner(lu, lw, d)
        gram = quotient_norm(lu, d) * quotient_norm(lw, d) - qi * qi
        got = [x - y for x, y in zip(_vmul(n1, n2, sq), _vmul(m, m, sq))]
        assert _vsign(got, sq) == gram.sign()
        if not lw.is_zero():
            assert _vparallel(u, w, sq) == (along(lu, lw) is not None)
        a, b, c = (Line(x, d) for x in (p, o, q))
        if tarski_bw_f(a.base, b.base, c.base):
            want = (ld * quotient_norm(c.base - a.base, d)).sign() <= 0
            assert bw_rho(a, b, c) == want


# --- the int-matrix PoincareMap against the Scalar-row reference ----------------
#
# The reference is PoincareMap as it was before its linear part became 16
# ints over one denominator: four rows of Scalars, with every entry of a
# product summed from Scalar products, and the isometry check by Minkowski
# products of the columns.


class _RefPoincareMap:
    def __init__(self, linear, translation) -> None:
        self.linear = tuple(tuple(row) for row in linear)
        self.translation = translation

    def _dot(self, row, col):
        acc = self.translation.ctx.zero
        for a, b in zip(row, col):
            acc = acc + a * b
        return acc

    def apply(self, x):
        return self.apply_direction(x) + self.translation

    def apply_direction(self, v):
        col = v.c
        return Vec4(*(self._dot(row, col) for row in self.linear))

    def validate_isometry(self):
        cols = [Vec4(*col) for col in zip(*self.linear)]
        return all(
            inner(cols[i], cols[j]) == (0 if i != j else -1 if i == 0 else 1)
            for i in range(4)
            for j in range(4)
        )

    def compose(self, other):
        cols = list(zip(*other.linear))
        rows = [[self._dot(row, col) for col in cols] for row in self.linear]
        return _RefPoincareMap(rows, self.apply(other.translation))

    @staticmethod
    def identity(ctx):
        rows = [[ctx.one if i == j else ctx.zero for j in range(4)] for i in range(4)]
        return _RefPoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))

    @staticmethod
    def boost(ctx, t, axis):
        s = ctx.rat(t)
        den = 1 - s * s
        g, gv = (1 + s * s) / den, (s + s) / den
        rows = [list(r) for r in _RefPoincareMap.identity(ctx).linear]
        rows[0][0] = rows[axis][axis] = g
        rows[0][axis] = rows[axis][0] = gv
        return _RefPoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))

    @staticmethod
    def rotation(ctx, m, n, ax1, ax2):
        den = m * m + n * n
        c, s = ctx.rat(m * m - n * n, den), ctx.rat(2 * m * n, den)
        rows = [list(r) for r in _RefPoincareMap.identity(ctx).linear]
        rows[ax1][ax1] = rows[ax2][ax2] = c
        rows[ax1][ax2], rows[ax2][ax1] = -s, s
        return _RefPoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))


def _assert_pmap_form(m: PoincareMap) -> None:
    # 16 ints over one positive denominator, in lowest terms
    assert len(m.a) == 16 and m.den > 0 and math.gcd(m.den, *m.a) == 1


def _same_map(m: PoincareMap, ref: _RefPoincareMap) -> bool:
    _assert_pmap_form(m)
    return m.linear == ref.linear and m.translation == ref.translation


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.randoms(use_true_random=False))
def test_poincare_map_matches_scalar_row_reference(depth, rng):
    ctx, adjoined = _random_tower(rng, depth)
    roots = [root for _, root in adjoined]
    other = ScalarContext()

    def scalar():
        if rng.random() < 0.4 or not roots:
            return ctx.rat(_q(rng))
        return _tower_element(rng, ctx, roots)

    ts = [Fraction(3, 2), Fraction(-5, 2), Fraction(rng.randint(-9, 9), rng.randint(2, 9))]
    axes = rng.sample([1, 2, 3], 2)
    maps = [(PoincareMap.identity(ctx), _RefPoincareMap.identity(ctx))]
    maps += [
        (PoincareMap.boost(ctx, t, axes[0]), _RefPoincareMap.boost(ctx, t, axes[0]))
        for t in ts
        if t * t != 1
    ]
    m, n = rng.randint(-4, 4), rng.randint(1, 4)
    maps.append(
        (PoincareMap.rotation(ctx, m, n, *axes), _RefPoincareMap.rotation(ctx, m, n, *axes))
    )
    shift = Vec4(*(scalar() for _ in range(4)))
    maps.append((PoincareMap.translation_by(shift), _RefPoincareMap(maps[0][1].linear, shift)))
    # a map that is not an isometry: one entry of a boost moved
    rows = [list(r) for r in maps[1][1].linear]
    rows[axes[0]][0] = rows[axes[0]][0] + ctx.rat(1, 7)
    maps.append((_int_pmap(rows, shift), _RefPoincareMap(rows, shift)))

    vecs = [Vec4(*(scalar() for _ in range(4))) for _ in range(3)]
    vecs.append(Vec4(*(other.rat(_q(rng)) for _ in range(4))))  # rational, second context
    for pm, ref in maps:
        assert _same_map(pm, ref)
        assert pm.validate_isometry() == ref.validate_isometry()
        for x in vecs:
            pairs = [(pm.apply(x), ref.apply(x)), (pm.apply_direction(x), ref.apply_direction(x))]
            for got, want in pairs:
                assert got == want and got.ctx is want.ctx
                _assert_vec4_form(got)
        for qm, qref in maps:
            assert _same_map(pm.compose(qm), ref.compose(qref))
    # a composite of three maps, in both orders of association
    (a, ra), (b, rb), (c, rc) = rng.sample(maps, 3)
    assert _same_map(a.compose(b).compose(c), ra.compose(rb.compose(rc)))
