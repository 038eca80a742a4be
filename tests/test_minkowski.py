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
    quotient_norm,
    tarski_bw_f,
)
from relcheck.scalar import ScalarContext, ScalarError


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
    return tuple(ctx.rat(Fraction(x)) for x in vals)


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
        t = tuple(xx + ctx.rat(r) * (uu - xx) for xx, uu in zip(x, u_))
        y = coords()
        # u between y and z: pick z so that u_ = y + s*(z-y) with s in (0,1]
        if s == 0:
            continue
        zz = tuple(yy + (uu - yy) / ctx.rat(s) for yy, uu in zip(y, u_))
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
    d1 = tuple(b - a for a, b in zip(p1, p2))
    d2 = tuple(b - a for a, b in zip(q1, q2))
    rhs = tuple(b - a for a, b in zip(p1, q1))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            det = d1[i] * (-d2[j]) - (-d2[i]) * d1[j]
            if not det.is_zero():
                s = (rhs[i] * (-d2[j]) - (-d2[i]) * rhs[j]) / det
                t = (d1[i] * rhs[j] - rhs[i] * d1[j]) / det
                v_ = tuple(a + s * d for a, d in zip(p1, d1))
                w_ = tuple(a + t * d for a, d in zip(q1, d2))
                if all((x - y).is_zero() for x, y in zip(v_, w_)):
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


def test_time_scaling_is_not_isometry():
    ctx = ScalarContext()
    rows = [[ctx.rat(2 if i == j == 0 else (1 if i == j else 0)) for j in range(4)] for i in range(4)]
    t = PoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))
    assert not t.validate_isometry()


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
    # each coordinate comes from one of two contexts; a result coordinate
    # lives in its left operand's context, coordinate by coordinate
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
