"""Exact geometry of F^4 with the Minkowski form diag(-1,1,1,1).

Points, lines, null segments, and affine isometries over a
:class:`~relcheck.scalar.ScalarContext`.  Everything here is a pure value:
lines are kept in a canonical parametrization so set equality of lines is
representation equality.

A :class:`Vec4` is one value in one context, stored as a ``Scalar`` is: at
level k its four coordinates' 2**k ints, one after the other, over one
positive int denominator, reduced by one gcd.  What reads a vector runs on
those ints: ``+``, ``-``, ``scale``, ``inner``, ``Line.at``, a ``Line``'s
canonical form and ``lines_intersect`` keep one plain-int branch at level 0
and use the tower's int kernels (``_vmul``, ``_vinv``, ``_reduced``) above
it; ``==`` and ``is_zero`` read the fields; ``tarski_bw_f``,
``Line.contains`` (p - base parallel to dir) and the quotient-form sign
tests (``_offsets``, ``_qform``, ``_vparallel``) cross-multiply with no
division.  ``lines_intersect`` and ``along`` build a Scalar only for the
parameter they find, and coordinates only when read.  The context rule is
that of ``Scalar``: a vector lives in the context of its highest-level
coordinate, or of x0 when all are rational, and coordinates or operands
above level 0 from two contexts raise ``ScalarError``.  A ``PoincareMap``
stores its rational linear part the same way, 16 ints over one
denominator, so ``compose``, ``apply`` and ``validate_isometry`` run on ints.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Sequence

from relcheck.scalar import Scalar, ScalarContext, ScalarError, _rat, _reduced, _vinv, _vmul, _vsign


class IntervalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


def _ctx_of(*vals) -> ScalarContext:
    """The context of a value computed from `vals` (Vec4s or Scalars): that
    of the highest-level one, the first on a tie.  Two contexts above level
    0 do not mix."""
    top = max(vals, key=lambda v: v.level)
    if top.level and any(v.level and v.ctx is not top.ctx for v in vals):
        raise ScalarError("mixing values from different contexts")
    return top.ctx


def _widen(a: Sequence[int], level: int, to: int) -> Sequence[int]:
    """Coordinates `a` of a vector at `level`, each padded to level `to`; `a` itself at `to`."""
    if level == to:
        return a
    m, pad = 1 << level, (0,) * ((1 << to) - (1 << level))
    return [x for i in range(0, 4 * m, m) for x in (*a[i : i + m], *pad)]


def _vec4(ctx: ScalarContext, level: int, a: tuple, den: int) -> "Vec4":
    """The Vec4 with fields (ctx, level, a, den), which must be reduced."""
    v = object.__new__(Vec4)
    v.ctx, v.level, v.a, v.den = ctx, level, a, den
    return v


def _vreduced(ctx: ScalarContext, a: Sequence[int], den: int) -> "Vec4":
    """The Vec4 with coordinates `a` (4 * 2**k ints) over den != 0, trimmed
    to its own level, in lowest terms."""
    m = len(a) // 4
    while m > 1 and not any(any(a[i + m // 2 : i + m]) for i in range(0, 4 * m, m)):
        a = [x for i in range(0, 4 * m, m) for x in a[i : i + m // 2]]
        m //= 2
    g = math.gcd(den, *a)
    if den < 0:
        g = -g
    if g != 1:
        a = [x // g for x in a]
        den //= g
    return _vec4(ctx, m.bit_length() - 1, tuple(a), den)


class Vec4:
    """A vector of F^4 as one value in one context, stored as a Scalar is.

    At ``level == k``, ``a`` holds the four coordinates' 2**k ints one after
    the other (four plain ints at level 0), over one positive int ``den``,
    with gcd(den, *a) == 1; above level 0 some coordinate's s'_k half is not
    zero.  So equal vectors have equal fields.  The module docstring gives
    the context rule.
    """

    __slots__ = ("ctx", "level", "a", "den")

    def __init__(self, x0: Scalar, x1: Scalar, x2: Scalar, x3: Scalar) -> None:
        # over the lcm of reduced coordinates, gcd(den, *a) is already 1
        self.den = den = math.lcm(x0.den, x1.den, x2.den, x3.den)
        self.ctx = _ctx_of(x0, x1, x2, x3)
        self.level = level = max(x0.level, x1.level, x2.level, x3.level)
        a: list = []
        for x in (x0, x1, x2, x3):
            a += [c * (den // x.den) for c in x.a]
            a += [0] * ((1 << level) - len(x.a))
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

    def _sum(self, other: "Vec4", sgn: int) -> "Vec4":
        """self + sgn*other."""
        v, d, w, e = self.a, self.den, other.a, other.den
        if self.level == 0 == other.level:
            return _vreduced(self.ctx, [x * e + sgn * y * d for x, y in zip(v, w)], d * e)
        ctx = _ctx_of(self, other)
        level = max(self.level, other.level)
        v, w = _widen(v, self.level, level), _widen(w, other.level, level)
        return _vreduced(ctx, [x * e + sgn * y * d for x, y in zip(v, w)], d * e)

    def __add__(self, other: "Vec4") -> "Vec4":
        return self._sum(other, 1)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return self._sum(other, -1)

    def __neg__(self) -> "Vec4":
        return _vec4(self.ctx, self.level, tuple([-x for x in self.a]), self.den)

    def scale(self, k: Scalar) -> "Vec4":
        if self.level == 0 == k.level:
            c = k.a[0]
            return _vreduced(self.ctx, [x * c for x in self.a], self.den * k.den)
        ctx = _ctx_of(self, k)
        # each coordinate, padded to k's level, is a block of _vmul's longer operand
        a = _widen(self.a, self.level, max(self.level, k.level))
        return _vreduced(ctx, _vmul(a, k.a, ctx._squares), self.den * k.den)

    def is_zero(self) -> bool:
        # reduced: above level 0 some coordinate is not zero
        return self.level == 0 and not any(self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec4):
            return NotImplemented
        if self.level != other.level:
            return False
        # coordinates compare only over the same radicands
        if other.ctx is not self.ctx and (
            self.ctx.radicands[: self.level] != other.ctx.radicands[: self.level]
        ):
            return False
        return self.a == other.a and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.level, self.a, self.den))

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
    ctx = _ctx_of(x, y)
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
    level = max(d.level, o.level, *(p.level for p in ps))
    sq = _ctx_of(d, o, *ps)._squares
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


def _vparallel(u: Sequence[int], w: Sequence[int], sq: list) -> bool:
    """Whether the vectors with ints u and w at one level, w not zero, are
    parallel: u_i*w_p == u_p*w_i for every i, at the first p with w_p != 0."""
    if len(w) == 4:
        p = 0 if w[0] else 1 if w[1] else 2 if w[2] else 3
        up, wp = u[p], w[p]
        return all(x * wp == up * y for x, y in zip(u, w))
    m = len(w) // 4
    us, ws = [u[i : i + m] for i in range(0, 4 * m, m)], [w[i : i + m] for i in range(0, 4 * m, m)]
    p = next(i for i in range(4) if any(ws[i]))
    return all(_vmul(x, ws[p], sq) == _vmul(us[p], y, sq) for x, y in zip(us, ws))


# --- Tarski relations: affine betweenness in F^4 ---------------------------


def tarski_bw_f(a: Vec4, b: Vec4, c: Vec4) -> bool:
    """Affine betweenness: b - a = t*(c - a) for some 0 <= t <= 1.

    Over the positive denominator a.den*b.den*c.den, b - a and c - a have
    coordinates u and w.  If w is zero, a == c and b must equal a.  Else at
    the first p with w_p != 0, t = u_p/w_p; so u = t*w iff u_i*w_p ==
    u_p*w_i for every i, and 0 <= t <= 1 iff 0 <= u_p*w_p <= w_p*w_p.  No
    division and no Scalar: plain ints at level 0, the tower's int kernels
    above it.
    """
    da, db, dc = a.den, b.den, c.den
    level = max(a.level, b.level, c.level)
    if level == 0:
        u = [(y * da - x * db) * dc for x, y in zip(a.a, b.a)]
        w = [(z * da - x * dc) * db for x, z in zip(a.a, c.a)]
        for up, wp in zip(u, w):
            if wp:
                uw = up * wp
                return 0 <= uw <= wp * wp and all(x * wp == up * y for x, y in zip(u, w))
        return not any(u)
    sq = _ctx_of(a, b, c)._squares
    m = 1 << level
    va, vb, vc = (_widen(v.a, v.level, level) for v in (a, b, c))
    u = [(y * da - x * db) * dc for x, y in zip(va, vb)]
    w = [(z * da - x * dc) * db for x, z in zip(va, vc)]
    us, ws = [u[i : i + m] for i in range(0, 4 * m, m)], [w[i : i + m] for i in range(0, 4 * m, m)]
    for up, wp in zip(us, ws):
        if any(wp):
            uw = _vmul(up, wp, sq)
            if _vsign(uw, sq) < 0 or _vsign([y - x for x, y in zip(uw, _vmul(wp, wp, sq))], sq) < 0:
                return False
            return _vparallel(u, w, sq)
    return not any(u)


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
        a, ctx = direction.a, direction.ctx
        if direction.level == 0 == base.level:
            pivot = 0 if a[0] else 1 if a[1] else 2 if a[2] else 3
            p = a[pivot]
            # dir = a/a[pivot], so d.a[pivot] == d.den once reduced
            d = _vreduced(ctx, a if p > 0 else [-x for x in a], abs(p))
            # base - dir*base[pivot] = (base.a*D - d.a*base.a[pivot]) / (base.den*D), D = d.den
            bp, dd = base.a[pivot], d.den
            b = _vreduced(base.ctx, [x * dd - y * bp for x, y in zip(base.a, d.a)], base.den * dd)
        else:
            m = 1 << direction.level
            pivot = next(i for i in range(4) if any(a[i * m : i * m + m]))
            # a[pivot]*w == k, an int, so dir = a*w/k
            w, k = _vinv(a[pivot * m : pivot * m + m], ctx._squares)
            d = _vreduced(ctx, _vmul(a, w, ctx._squares), k)
            b = base - d.scale(base[pivot])
        self.base = b
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
            return _vreduced(b.ctx, [x * e + y * n for x, y in zip(b.a, d.a)], b.den * e)
        ctx, level = _ctx_of(b, d, t), max(b.level, d.level, t.level)
        dt = _vmul(_widen(d.a, d.level, level), [x * b.den for x in t.a], ctx._squares)
        return _vreduced(ctx, [x * e + y for x, y in zip(_widen(b.a, b.level, level), dt)], b.den * e)

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


def _line(base: Vec4, direction: Vec4, pivot: int) -> Line:
    """The Line with fields (base, dir, pivot), which must be canonical."""
    line = object.__new__(Line)
    line.base, line.dir, line.pivot = base, direction, pivot
    return line


def lines_intersect(a: Line, b: Line) -> Optional[Vec4]:
    """A point on both lines, or None: `a.base` for identical lines, None for
    distinct parallel ones (equal canonical directions), and otherwise the
    s of a.at(s) from the first non-zero 2x2 minor of (a.dir, b.dir) by
    Cramer's rule, kept only if b contains that point.  On the ints of a.dir
    = A/Da, b.dir = B/Db and b.base - a.base = F/E, the minor is A_i*B_j -
    A_j*B_i and s = (F_i*B_j - F_j*B_i)*Da / (E*(A_i*B_j - A_j*B_i))."""
    if a == b:
        return a.base
    da, db, p, q = a.dir, b.dir, a.base, b.base
    if da == db:
        return None
    ctx = _ctx_of(p, q, da, db)
    sq, level = ctx._squares, max(p.level, q.level, da.level, db.level)
    if level == 0:
        va, vb, vp, vq = da.a, db.a, p.a, q.a
        for i in range(3):
            for j in range(i + 1, 4):
                det = va[i] * vb[j] - va[j] * vb[i]
                if det:
                    fi, fj = vq[i] * p.den - vp[i] * q.den, vq[j] * p.den - vp[j] * q.den
                    pt = a.at(_rat(ctx, (fi * vb[j] - fj * vb[i]) * da.den, p.den * q.den * det))
                    return pt if b.contains(pt) else None
    m = 1 << level
    va, vb, vp, vq = (_widen(v.a, v.level, level) for v in (da, db, p, q))
    f = [y * p.den - x * q.den for x, y in zip(vp, vq)]
    x, y, f = ([v[i : i + m] for i in range(0, 4 * m, m)] for v in (va, vb, f))
    for i in range(3):
        for j in range(i + 1, 4):
            det = [r - t for r, t in zip(_vmul(x[i], y[j], sq), _vmul(x[j], y[i], sq))]
            if any(det):
                num = [r - t for r, t in zip(_vmul(f[i], y[j], sq), _vmul(f[j], y[i], sq))]
                w, c = _vinv(det, sq)
                pt = a.at(_reduced(ctx, [da.den * r for r in _vmul(num, w, sq)], p.den * q.den * c))
                return pt if b.contains(pt) else None
    raise AssertionError("non-parallel directions have a non-zero minor")


def along(u: Vec4, d: Vec4) -> Optional[Scalar]:
    """The t with u == t*d, or None (also when d is zero): when u is parallel
    to d, t = u_p/d_p at the first p with d_p != 0, on the ints."""
    ctx, level = _ctx_of(u, d), max(u.level, d.level)
    v, w, m, sq = _widen(u.a, u.level, level), _widen(d.a, d.level, level), 1 << level, ctx._squares
    if d.is_zero() or not _vparallel(v, w, sq):
        return None
    p = next(i for i in range(0, 4 * m, m) if any(w[i : i + m]))
    x, c = _vinv(w[p : p + m], sq)
    return _reduced(ctx, [d.den * y for y in _vmul(v[p : p + m], x, sq)], u.den * c)


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
    g = math.gcd(den, *a) if den > 0 else -math.gcd(den, *a)
    m = object.__new__(PoincareMap)
    m.a, m.den, m.translation = tuple([x // g for x in a]), den // g, translation
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
        # a rational v maps into the translation's context, and a v above level 0 keeps its own
        ctx = v.ctx if v.level else self.translation.ctx
        return _vreduced(ctx, _lmul(self.a, v.a, 1 << v.level), self.den * v.den)

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
        return _pmap(_IDENTITY, 1, _vec4(ctx, 0, (0, 0, 0, 0), 1))

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
        return _pmap(a, den, _vec4(ctx, 0, (0, 0, 0, 0), 1))

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
        return _pmap(a, den, _vec4(ctx, 0, (0, 0, 0, 0), 1))
