"""Exact geometry of F^4 with the Minkowski form diag(-1,1,1,1).

Points, lines, null segments, and affine isometries over a
:class:`~relcheck.scalar.ScalarContext`.  Everything here is a pure value:
lines are kept in a canonical parametrization so set equality of lines is
representation equality.

A :class:`Vec4` is a ``scalar._Blocks`` with one block of ints per
coordinate, so it shares the Scalar's kernel layer: fields, ``==``,
``is_zero``, hash, ``+`` and ``-``, the one reduce and the one context rule
(``_ctx_of``; a vector built from coordinates lives in the context of the
highest-level one, x0's when all are rational).  On those ints
``tarski_bw_f``, ``Line.contains`` and the quotient-form sign tests
(``_offsets``, ``_qform``, ``_vparallel``) cross-multiply with no division,
``Line(...)`` and ``lines_intersect`` divide once by a pivot block
(``_pivot``, ``_divided``), and ``along`` divides two coordinates.  A
line's canonical form is made in one place, ``_canonical_dir`` then
``_canonical_base``, each reduced once; ``Line(...)``, the suites'
``ClassFrame`` and Cop's witness in the pair's plane all call them.  A
``PoincareMap`` stores its rational linear part as 16 ints over one
denominator, reduced by the same reduce.  The level-0 branches kept, with
traffic and ablation measured as in ``scalar``'s docstring:

- ``_vparallel`` 92% / 80%, +5.7% / +6.6%; ``_pivot`` 95% / 85%, +4.0% / +2.3%.
- ``inner`` 95% / 82%, +4.6% / +2.4%; ``_vinner`` 0% / 43%, +0.4% / +2.6%.
- ``Line(...)`` 91% / 84%, +4.2% / +3.1%; ``Line.at`` 92% / 88%, +1.4% / +1.6%.
- ``_qform`` 95% / 61%, +2.3% / -0.1%; ``tarski_bw_f`` 94% / 78%, +2.1% / -0.1%.
- ``lines_intersect`` 79% / 79%, +0.3% / +1.0%; ``Vec4[i]`` 74% / 40%, +1.1% / +0.5%.
- ``scale`` 90% / 44%, +0.6% / -0.3%.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Sequence

from relcheck.scalar import (
    Scalar, ScalarContext, _Blocks, _ctx_of, _rat, _reduced, _vinv, _vmul, _vsign, _widen,
)


class IntervalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


class Vec4(_Blocks):
    """A vector of F^4 as one value in one context, stored as a Scalar is.

    At ``level == k``, ``a`` holds the four coordinates' 2**k ints one after
    the other (four plain ints at level 0), over one positive int ``den``,
    with gcd(den, *a) == 1; above level 0 some coordinate's s'_k half is not
    zero.  So equal vectors have equal fields.  The module docstring gives
    the context rule.
    """

    __slots__ = ()
    _blocks = 4

    def __init__(self, x0: Scalar, x1: Scalar, x2: Scalar, x3: Scalar) -> None:
        # over the lcm of reduced coordinates, gcd(den, *a) is already 1
        self.den = den = math.lcm(x0.den, x1.den, x2.den, x3.den)
        self.ctx, self.level = _ctx_of(x0, x1, x2, x3)
        a: list = []
        for x in (x0, x1, x2, x3):
            a += [c * (den // x.den) for c in x.a]
            a += [0] * ((1 << self.level) - len(x.a))
        self.a = tuple(a)

    @property
    def c(self) -> tuple[Scalar, ...]:
        return tuple([self[i] for i in range(4)])

    @property
    def x0(self) -> Scalar:
        return self[0]

    def __getitem__(self, i: int) -> Scalar:
        if self.level == 0:
            return _rat(self.ctx, self.a[i], self.den)
        m, i = 1 << self.level, range(4)[i]
        return _reduced(self.ctx, self.a[i * m : i * m + m], self.den)

    def __iter__(self):
        return iter(self.c)

    def __add__(self, other: "Vec4") -> "Vec4":
        return self._sum(other, 1)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return self._sum(other, -1)

    def __neg__(self) -> "Vec4":
        return _reduced(self.ctx, [-x for x in self.a], self.den, Vec4)

    def scale(self, k: Scalar) -> "Vec4":
        if self.level == 0 == k.level:
            c = k.a[0]
            return _reduced(self.ctx, [x * c for x in self.a], self.den * k.den, Vec4)
        ctx, level = _ctx_of(self, k)
        # each coordinate, padded to k's level, is a block of _vmul's longer operand
        a = _widen(self.a, self.level, level)
        return _reduced(ctx, _vmul(a, k.a, ctx._squares), self.den * k.den, Vec4)

    def render(self) -> str:
        return "(" + ", ".join(a.render() for a in self.c) + ")"

    def __repr__(self) -> str:
        return f"Vec4{self.render()}"

    @staticmethod
    def of(ctx: ScalarContext, *vals) -> "Vec4":
        return Vec4(*(v if isinstance(v, Scalar) else ctx.rat(v) for v in vals))


def _vinner(v: Sequence[int], w: Sequence[int], sq: list) -> list:
    """The ints of the inner product of two vectors given by their ints (four blocks each)."""
    if len(v) == 4 == len(w):
        return [v[1] * w[1] + v[2] * w[2] + v[3] * w[3] - v[0] * w[0]]
    m, n = len(v) // 4, len(w) // 4
    out = [-p for p in _vmul(v[:m], w[:n], sq)]
    for i in range(1, 4):
        for j, p in enumerate(_vmul(v[i * m : i * m + m], w[i * n : i * n + n], sq)):
            out[j] += p
    return out


def inner(x: Vec4, y: Vec4) -> Scalar:
    """Minkowski inner product -x0*y0 + x1*y1 + x2*y2 + x3*y3."""
    v, w = x.a, y.a
    if x.level == 0 == y.level:
        return _rat(x.ctx, v[1] * w[1] + v[2] * w[2] + v[3] * w[3] - v[0] * w[0], x.den * y.den)
    ctx, _ = _ctx_of(x, y)
    return _reduced(ctx, _vinner(v, w, ctx._squares), x.den * y.den)


def lam(v: Vec4) -> Scalar:
    return inner(v, v)


def classify(v: Vec4) -> IntervalClass:
    return sign_class(lam(v).sign())


def sign_class(s: int) -> IntervalClass:
    """The interval class of a vector v with lam(v).sign() == s."""
    if s < 0:
        return IntervalClass.TIMELIKE
    if s == 0:
        return IntervalClass.LIGHTLIKE
    return IntervalClass.SPACELIKE


def quotient_norm(u: Vec4, d: Vec4) -> Scalar:
    """Induced form on F^4 / <d>: lam of u with its d-component removed.

    Positive definite for timelike d, Lorentzian (signature -++) for
    spacelike d.  Requires lam(d) != 0.
    """
    ud = inner(u, d)
    return lam(u) - ud * ud / lam(d)


def quotient_inner(u: Vec4, v: Vec4, d: Vec4) -> Scalar:
    return inner(u, v) - inner(u, d) * inner(v, d) / lam(d)


def quotient_lift(u: Vec4, d: Vec4) -> Vec4:
    """Representative of u's class orthogonal to d."""
    return u - d.scale(inner(u, d) / lam(d))


def _offsets(d: Vec4, o: Vec4, *ps: Vec4) -> tuple[list, list, list]:
    """The ints of each o - p for p in `ps`, over the positive denominator
    o.den*p.den and not reduced, with the ints of d and the squares of the
    context, all at the highest level among d, o and ps.  `_qform` and
    `_vparallel` read them."""
    ctx, level = _ctx_of(d, o, *ps)
    sq = ctx._squares
    v, e = _widen(o.a, o.level, level), o.den
    us = [[y * p.den - x * e for x, y in zip(_widen(p.a, p.level, level), v)] for p in ps]
    return us, _widen(d.a, d.level, level), sq


def _qform(u: Sequence[int], w: Sequence[int], d: Sequence[int], sq: list) -> list:
    """The ints of lam(d)*<u, w> - <u, d>*<w, d>, for the ints of three
    vectors at one level.  That is lam(d) times the quotient inner product
    of u and w by d, with no division: lam(d)*q(u) when w is u.  Each term
    has degree two in d and one in each of u and w, so numerators over
    positive denominators give the value times a positive number, which has
    the same sign; and lam(d)**2*(q(u)q(w) - <u, w>_q**2) is
    _qform(u, u)*_qform(w, w) - _qform(u, w)**2."""
    if len(d) == 4:
        ud = u[1] * d[1] + u[2] * d[2] + u[3] * d[3] - u[0] * d[0]
        wd = ud if w is u else w[1] * d[1] + w[2] * d[2] + w[3] * d[3] - w[0] * d[0]
        uw = u[1] * w[1] + u[2] * w[2] + u[3] * w[3] - u[0] * w[0]
        return [(d[1] * d[1] + d[2] * d[2] + d[3] * d[3] - d[0] * d[0]) * uw - ud * wd]
    ud = _vinner(u, d, sq)
    wd = ud if w is u else _vinner(w, d, sq)
    lw = _vmul(_vinner(d, d, sq), _vinner(u, w, sq), sq)
    return [x - y for x, y in zip(lw, _vmul(ud, wd, sq))]


def _pivot(a: Sequence[int], m: int) -> int:
    """The first i with a non-zero block a[i*m : i*m + m], for the ints of a
    non-zero vector in blocks of m."""
    if m == 1:
        return 0 if a[0] else 1 if a[1] else 2 if a[2] else 3
    return next(i for i in range(4) if any(a[i * m : i * m + m]))


def _divided(ctx: ScalarContext, num: Sequence[int], block: Sequence[int], den: int, cls: type = Scalar):
    """The `cls` with ints `num` over block*den, for one non-zero block of ints
    `block` and an int den != 0: `_vinv` makes the divisor an int."""
    w, c = _vinv(block, ctx._squares)
    return _reduced(ctx, _vmul(num, w, ctx._squares), den * c, cls)


def _vparallel(u: Sequence[int], w: Sequence[int], sq: list) -> bool:
    """Whether the vectors with ints u and w at one level, w not zero, are
    parallel: u_i*w_p == u_p*w_i for every i, at the first p with w_p != 0."""
    m = len(w) // 4
    p = _pivot(w, m)
    if m == 1:
        up, wp = u[p], w[p]
        return all(x * wp == up * y for x, y in zip(u, w))
    us, ws = [u[i : i + m] for i in range(0, 4 * m, m)], [w[i : i + m] for i in range(0, 4 * m, m)]
    return all(_vmul(x, ws[p], sq) == _vmul(us[p], y, sq) for x, y in zip(us, ws))


# --- Tarski relations: affine betweenness in F^4 ---------------------------


def tarski_bw_f(a: Vec4, b: Vec4, c: Vec4) -> bool:
    """Affine betweenness: b - a = t*(c - a) for some 0 <= t <= 1.

    `_offsets` gives the ints u of a - b over a.den*b.den and w of a - c over
    a.den*c.den (a fills its direction slot, which is not read).  If w is zero, a == c and b must equal a.  Else at the first
    non-zero block w_p, t = u_p*c.den / (w_p*b.den); so u and w are parallel
    iff b - a = t*(c - a), and 0 <= t <= 1 iff 0 <= u_p*w_p*c.den <=
    w_p*w_p*b.den.  No division and no Scalar.
    """
    (u, w), _, sq = _offsets(a, a, b, c)
    if not any(w):
        return not any(u)
    m = len(w) // 4
    p = _pivot(w, m)
    if m == 1:
        uw = u[p] * w[p] * c.den
        between = 0 <= uw <= w[p] * w[p] * b.den
    else:
        up, wp = u[p * m : p * m + m], w[p * m : p * m + m]
        uw, ww = [x * c.den for x in _vmul(up, wp, sq)], _vmul(wp, wp, sq)
        between = _vsign(uw, sq) >= 0 and _vsign([y * b.den - x for x, y in zip(uw, ww)], sq) >= 0
    return between and _vparallel(u, w, sq)


# --- lines and segments -----------------------------------------------------


class Line:
    """Affine line in canonical form.

    dir is scaled so its first non-zero coordinate is 1 and base is the
    unique point of the line whose pivot coordinate is 0; two Lines are
    equal as point sets iff their canonical fields are equal.
    """

    __slots__ = ("base", "dir", "pivot")

    def __init__(self, base: Vec4, direction: Vec4) -> None:
        if direction.is_zero():
            raise ValueError("line direction must be non-zero")
        d, pivot = _canonical_dir(direction.ctx, direction.a, direction.level)
        if base.level == 0 == d.level:
            ctx, p = base.ctx, base.a
        else:
            ctx, level = _ctx_of(base, d)
            p = _widen(base.a, base.level, level)
        self.base = _canonical_base(ctx, p, base.den, d, pivot)
        self.dir = d
        self.pivot = pivot

    @property
    def ctx(self) -> ScalarContext:
        return self.base.ctx

    @property
    def interval_class(self) -> IntervalClass:
        return classify(self.dir)

    def at(self, t: Scalar) -> Vec4:
        """base + t*dir, as one int combination over one denominator, reduced once."""
        b, d = self.base, self.dir
        e = d.den * t.den
        if b.level == 0 == d.level == t.level:
            n = t.a[0] * b.den
            return _reduced(b.ctx, [x * e + y * n for x, y in zip(b.a, d.a)], b.den * e, Vec4)
        ctx, level = _ctx_of(b, d, t)
        dt = _vmul(_widen(d.a, d.level, level), [x * b.den for x in t.a], ctx._squares)
        return _reduced(ctx, [x * e + y for x, y in zip(_widen(b.a, b.level, level), dt)], b.den * e, Vec4)

    def param_of(self, p: Vec4) -> Scalar:
        """Parameter of p along the line (p need not lie on it; pivot rule)."""
        return p[self.pivot]

    def contains(self, p: Vec4) -> bool:
        """Whether p - base is parallel to dir, on the ints."""
        (u,), d, sq = _offsets(self.dir, p, self.base)
        return _vparallel(u, d, sq)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        return self.base == other.base and self.dir == other.dir

    def __hash__(self) -> int:
        return hash((self.base, self.dir))

    def __repr__(self) -> str:
        return f"Line(base={self.base.render()}, dir={self.dir.render()})"

    @staticmethod
    def through(p: Vec4, q: Vec4) -> "Line":
        if (q - p).is_zero():
            raise ValueError("two distinct points are required")
        return Line(p, q - p)


def _canonical_dir(ctx: ScalarContext, a: Sequence[int], level: int) -> tuple[Vec4, int]:
    """(dir, pivot) of the lines along the non-zero vector with ints `a`, in
    blocks of 2**level over any denominator: dir = a/a[pivot] at the first
    non-zero block, so dir[pivot] == 1, reduced once."""
    if level == 0:
        pivot = _pivot(a, 1)
        return _reduced(ctx, a, a[pivot], Vec4), pivot
    m = 1 << level
    pivot = _pivot(a, m)
    return _divided(ctx, a, a[pivot * m : pivot * m + m], 1, Vec4), pivot


def _canonical_base(ctx: ScalarContext, p: Sequence[int], den: int, d: Vec4, pivot: int) -> Vec4:
    """The base of the line along the canonical direction d (with its pivot)
    through the point with ints p over den, in blocks at a level >= d.level:
    p - d*p[pivot], whose pivot coordinate is 0, as the one int combination
    (p*e - d.a*p[pivot]) over den*e with e = d.den, reduced once."""
    e, m = d.den, len(p) // 4
    if m == 1:
        bp = p[pivot]
        return _reduced(ctx, [x * e - y * bp for x, y in zip(p, d.a)], den * e, Vec4)
    dp = _vmul(_widen(d.a, d.level, m.bit_length() - 1), p[pivot * m : pivot * m + m], ctx._squares)
    return _reduced(ctx, [x * e - y for x, y in zip(p, dp)], den * e, Vec4)


def _line(base: Vec4, direction: Vec4, pivot: int) -> Line:
    """The Line with fields (base, dir, pivot), which must be canonical."""
    line = object.__new__(Line)
    line.base, line.dir, line.pivot = base, direction, pivot
    return line


def lines_intersect(a: Line, b: Line) -> Optional[Vec4]:
    """A point on both lines, or None: `a.base` for identical lines, None for
    distinct parallel ones (equal canonical directions), and otherwise
    a.at(s) for the s with h(a.base - b.base) + s*h(a.dir) == 0, if there is
    one.  h(x) = x - x_p*b.dir, at b's pivot p, is zero exactly when x is
    parallel to b.dir, and b.base_p == 0.  On the ints U/E of a.base - b.base,
    A/Da of a.dir and B/Db of b.dir (so B_p == Db), F = U*Db - U_p*B and G =
    A*Db - A_p*B are h's numerators, G is not zero, and at its first non-zero
    block k, s = -F_k*Da / (G_k*E) when F is parallel to G."""
    if a == b:
        return a.base
    da, db, p, q = a.dir, b.dir, a.base, b.base
    if da == db:
        return None
    ctx, level = _ctx_of(p, q, da, db)
    sq, i, bd = ctx._squares, b.pivot, db.den
    if level == 0:
        u = [x * q.den - y * p.den for x, y in zip(p.a, q.a)]
        ui, ai = u[i], da.a[i]
        f = [x * bd - ui * y for x, y in zip(u, db.a)]
        g = [x * bd - ai * y for x, y in zip(da.a, db.a)]
        if not _vparallel(f, g, sq):
            return None
        k = _pivot(g, 1)
        return a.at(_rat(ctx, -f[k] * da.den, g[k] * p.den * q.den))
    m = 1 << level
    vp, vq, va, vb = (_widen(v.a, v.level, level) for v in (p, q, da, db))
    u = [x * q.den - y * p.den for x, y in zip(vp, vq)]
    f = [x * bd - y for x, y in zip(u, _vmul(vb, u[i * m : i * m + m], sq))]
    g = [x * bd - y for x, y in zip(va, _vmul(vb, va[i * m : i * m + m], sq))]
    if not _vparallel(f, g, sq):
        return None
    k = _pivot(g, m) * m
    return a.at(_divided(ctx, [-x * da.den for x in f[k : k + m]], g[k : k + m], p.den * q.den))


def along(u: Vec4, d: Vec4) -> Optional[Scalar]:
    """The t with u == t*d, or None (also when d is zero): when u is parallel
    to d, t = u_p/d_p at the first p with d_p != 0."""
    ctx, level = _ctx_of(u, d)
    w = _widen(d.a, d.level, level)
    if d.is_zero() or not _vparallel(_widen(u.a, u.level, level), w, ctx._squares):
        return None
    p = _pivot(w, 1 << level)
    return u[p] / d[p]


class Segment:
    """Future-directed null segment; beg == end is the degenerate event case."""

    __slots__ = ("beg", "end")

    def __init__(self, beg: Vec4, end: Vec4) -> None:
        if beg != end:  # an event is null and not past-directed
            d = end - beg
            if not lam(d).is_zero():
                raise ValueError("segment endpoints are not lightlike separated")
            if d.x0.sign() < 0:
                raise ValueError("segment is past-directed (end.x0 < beg.x0)")
        self.beg = beg
        self.end = end

    def is_degenerate(self) -> bool:
        return self.beg == self.end

    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return self.beg == other.beg and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.beg, self.end))

    def __repr__(self) -> str:
        return f"Segment({self.beg.render()} -> {self.end.render()})"


# --- Poincaré maps -----------------------------------------------------------


def _lmul(n: Sequence[int], w: Sequence[int], m: int) -> list:
    """Row-major 4x4 ints `n` times the four blocks of `m` ints in `w`, int by int."""
    cols = list(zip(w[:m], w[m : 2 * m], w[2 * m : 3 * m], w[3 * m :]))
    rows = (n[:4], n[4:8], n[8:12], n[12:])
    return [p * x + q * y + r * z + s * u for p, q, r, s in rows for x, y, z, u in cols]


def _pmap(a: Sequence[int], den: int, translation: Vec4) -> "PoincareMap":
    """The map x -> (a/den) x + translation for 16 ints `a` and den != 0, in lowest terms."""
    linear, m = _reduced(translation.ctx, a, den, _Blocks), object.__new__(PoincareMap)
    m.a, m.den, m.translation = linear.a, linear.den, translation
    return m


_IDENTITY = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)


class PoincareMap:
    """Affine map x -> L x + t with L^T eta L == eta checked exactly.  L is stored
    as a Vec4 is: 16 ints ``a``, row-major, over one positive int ``den``, reduced."""

    __slots__ = ("a", "den", "translation")

    @property
    def linear(self) -> tuple[tuple[Scalar, ...], ...]:
        a, den, ctx = self.a, self.den, self.translation.ctx
        return tuple(tuple(_rat(ctx, x, den) for x in a[i : i + 4]) for i in range(0, 16, 4))

    def apply(self, x: Vec4) -> Vec4:
        return self.apply_direction(x) + self.translation

    def apply_direction(self, v: Vec4) -> Vec4:
        # the linear part is rational: a v above level 0 keeps its context,
        # and a rational v maps into the translation's
        ctx = v.ctx if v.level else self.translation.ctx
        return _reduced(ctx, _lmul(self.a, v.a, 1 << v.level), self.den * v.den, Vec4)

    def validate_isometry(self) -> bool:
        # L = a/den is an isometry iff a^T (eta a) == den**2 * eta
        a, d2 = self.a, self.den * self.den
        eta_a = [-x for x in a[:4]] + list(a[4:])
        eta = [-d2, 0, 0, 0, 0, d2, 0, 0, 0, 0, d2, 0, 0, 0, 0, d2]
        return _lmul(a[0::4] + a[1::4] + a[2::4] + a[3::4], eta_a, 4) == eta

    def compose(self, other: "PoincareMap") -> "PoincareMap":
        """self after other: x -> self(other(x))."""
        # other's rows are the four blocks of its ints
        return _pmap(_lmul(self.a, other.a, 4), self.den * other.den, self.apply(other.translation))

    @staticmethod
    def identity(ctx: ScalarContext) -> "PoincareMap":
        return _pmap(_IDENTITY, 1, _reduced(ctx, (0, 0, 0, 0), 1, Vec4))

    @staticmethod
    def translation_by(v: Vec4) -> "PoincareMap":
        return _pmap(_IDENTITY, 1, v)

    @staticmethod
    def boost(ctx: ScalarContext, t: Fraction, axis: int = 1) -> "PoincareMap":
        """Exact rational boost along a space axis; velocity v = 2t/(1+t^2).  With
        t = p/q, gamma = (q^2+p^2)/(q^2-p^2) and gamma*v = 2pq/(q^2-p^2)."""
        assert axis in (1, 2, 3)
        p, q = t.numerator, t.denominator
        den = q * q - p * p
        if den == 0:
            raise ValueError("boost parameter t must satisfy t^2 != 1")
        a = [den * x for x in _IDENTITY]
        a[0] = a[5 * axis] = q * q + p * p
        a[axis] = a[4 * axis] = 2 * p * q
        return _pmap(a, den, _reduced(ctx, (0, 0, 0, 0), 1, Vec4))

    @staticmethod
    def rotation(ctx: ScalarContext, m: int, n: int, ax1: int = 1, ax2: int = 2) -> "PoincareMap":
        """Rotation by a Pythagorean angle: cos = (m^2-n^2)/(m^2+n^2)."""
        assert ax1 in (1, 2, 3) and ax2 in (1, 2, 3) and ax1 != ax2
        den = m * m + n * n
        if den == 0:
            raise ValueError("rotation parameters must not both be zero")
        a = [den * x for x in _IDENTITY]
        a[5 * ax1] = a[5 * ax2] = m * m - n * n
        a[4 * ax1 + ax2], a[4 * ax2 + ax1] = -2 * m * n, 2 * m * n
        return _pmap(a, den, _reduced(ctx, (0, 0, 0, 0), 1, Vec4))
