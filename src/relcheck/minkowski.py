"""Exact geometry of F^4 with the Minkowski form diag(-1,1,1,1).

Points, lines, null segments, and affine isometries over a
:class:`~relcheck.scalar.ScalarContext`.  Everything here is a pure value:
lines are kept in a canonical parametrization so set equality of lines is
representation equality.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional, Sequence

from relcheck.scalar import Scalar, ScalarContext


class IntervalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


class Vec4:
    __slots__ = ("c",)

    def __init__(self, x0: Scalar, x1: Scalar, x2: Scalar, x3: Scalar) -> None:
        self.c = (x0, x1, x2, x3)

    @property
    def ctx(self) -> ScalarContext:
        return self.c[0].ctx

    @property
    def x0(self) -> Scalar:
        return self.c[0]

    def __getitem__(self, i: int) -> Scalar:
        return self.c[i]

    def __iter__(self):
        return iter(self.c)

    def __add__(self, other: "Vec4") -> "Vec4":
        if _rational(self.c + other.c):
            return Vec4(*(Scalar(a.ctx, 0, a.a + b.a, None) for a, b in zip(self.c, other.c)))
        return Vec4(*(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "Vec4") -> "Vec4":
        if _rational(self.c + other.c):
            return Vec4(*(Scalar(a.ctx, 0, a.a - b.a, None) for a, b in zip(self.c, other.c)))
        return Vec4(*(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "Vec4":
        return Vec4(*(-a for a in self.c))

    def scale(self, k: Scalar) -> "Vec4":
        if isinstance(k, Scalar) and _rational(self.c + (k,)):
            return Vec4(*(Scalar(a.ctx, 0, a.a * k.a, None) for a in self.c))
        return Vec4(*(a * k for a in self.c))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec4):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def render(self) -> str:
        return "(" + ", ".join(a.render() for a in self.c) + ")"

    def __repr__(self) -> str:
        return f"Vec4{self.render()}"

    @staticmethod
    def of(ctx: ScalarContext, *vals) -> "Vec4":
        out = []
        for v in vals:
            out.append(v if isinstance(v, Scalar) else ctx.rat(Fraction(v)))
        assert len(out) == 4
        return Vec4(*out)


def _rational(coords: tuple) -> bool:
    """True when every scalar in `coords` is at level 0 (a plain Fraction)."""
    return not any(a.level for a in coords)


def inner(x: Vec4, y: Vec4) -> Scalar:
    """Minkowski inner product -x0*y0 + x1*y1 + x2*y2 + x3*y3."""
    if _rational(x.c + y.c):
        (x0, x1, x2, x3), (y0, y1, y2, y3) = x.c, y.c
        return Scalar(x0.ctx, 0, x1.a * y1.a + x2.a * y2.a + x3.a * y3.a - x0.a * y0.a, None)
    return -(x[0] * y[0]) + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


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


# --- Tarski relations on rest-frame space F^3 ------------------------------


def tarski_bw_f(a: Sequence[Scalar], b: Sequence[Scalar], c: Sequence[Scalar]) -> bool:
    """Affine betweenness: b - a = t*(c - a) for some 0 <= t <= 1."""
    ab = [bb - aa for aa, bb in zip(a, b)]
    ac = [cc - aa for aa, cc in zip(a, c)]
    t: Optional[Scalar] = None
    for num, den in zip(ab, ac):
        if not den.is_zero():
            t = num / den
            break
    if t is None:  # a == c
        return all(x.is_zero() for x in ab)
    if t.sign() < 0 or (t - 1).sign() > 0:
        return False
    return all((num - t * den).is_zero() for num, den in zip(ab, ac))


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
        pivot = next(i for i in range(4) if not direction[i].is_zero())
        d = direction.scale(direction[pivot].inverse())
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
        return self.base + self.dir.scale(t)

    def param_of(self, p: Vec4) -> Scalar:
        """Parameter of p along the line (p need not lie on it; pivot rule)."""
        return p[self.pivot]

    def contains(self, p: Vec4) -> bool:
        return (p - self.at(self.param_of(p))).is_zero()

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


def lines_intersect(a: Line, b: Line) -> Optional[Vec4]:
    """A point on both lines, or None: `a.base` for identical lines, None for
    distinct parallel ones (equal canonical directions), and otherwise the
    s of a.at(s) from the first non-zero 2x2 minor of (a.dir, b.dir) by
    Cramer's rule, kept only if b contains that point."""
    if a == b:
        return a.base
    da, db = a.dir, b.dir
    if da == db:
        return None
    diff = b.base - a.base
    for i in range(3):
        for j in range(i + 1, 4):
            det = da[i] * db[j] - da[j] * db[i]
            if not det.is_zero():
                p = a.at((diff[i] * db[j] - diff[j] * db[i]) / det)
                return p if b.contains(p) else None
    raise AssertionError("non-parallel directions have a non-zero minor")


def along(u: Vec4, d: Vec4) -> Optional[Scalar]:
    """The t with u == t*d, or None (also when d is zero)."""
    for ui, di in zip(u, d):
        if not di.is_zero():
            t = ui / di
            return t if (u - d.scale(t)).is_zero() else None
    return None


class Segment:
    """Future-directed null segment; beg == end is the degenerate event case."""

    __slots__ = ("beg", "end")

    def __init__(self, beg: Vec4, end: Vec4) -> None:
        d = end - beg
        if not lam(d).is_zero():
            raise ValueError("segment endpoints are not lightlike separated")
        if d.x0.sign() < 0:
            raise ValueError("segment is past-directed (end.x0 < beg.x0)")
        self.beg = beg
        self.end = end

    def is_degenerate(self) -> bool:
        return (self.end - self.beg).is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return self.beg == other.beg and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.beg, self.end))

    def __repr__(self) -> str:
        return f"Segment({self.beg.render()} -> {self.end.render()})"


# --- Poincaré maps -----------------------------------------------------------


def _eta_entry(ctx: ScalarContext, i: int, j: int) -> Scalar:
    if i != j:
        return ctx.zero
    return ctx.rat(-1) if i == 0 else ctx.one


class PoincareMap:
    """Affine map x -> L x + t with L^T eta L == eta checked exactly."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear: Sequence[Sequence[Scalar]], translation: Vec4) -> None:
        self.linear = tuple(tuple(row) for row in linear)
        self.translation = translation

    @property
    def ctx(self) -> ScalarContext:
        return self.translation.ctx

    def apply(self, x: Vec4) -> Vec4:
        return self.apply_direction(x) + self.translation

    def apply_direction(self, v: Vec4) -> Vec4:
        out = []
        for i in range(4):
            acc = self.ctx.zero
            for j in range(4):
                acc = acc + self.linear[i][j] * v[j]
            out.append(acc)
        return Vec4(*out)

    def validate_isometry(self) -> bool:
        ctx = self.ctx
        for i in range(4):
            for j in range(4):
                acc = ctx.zero
                for k in range(4):
                    acc = acc + self.linear[k][i] * _eta_entry(ctx, k, k) * self.linear[k][j]
                if acc != _eta_entry(ctx, i, j):
                    return False
        return True

    def compose(self, other: "PoincareMap") -> "PoincareMap":
        """self after other: x -> self(other(x))."""
        ctx = self.ctx
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                acc = ctx.zero
                for k in range(4):
                    acc = acc + self.linear[i][k] * other.linear[k][j]
                row.append(acc)
            rows.append(row)
        return PoincareMap(rows, self.apply(other.translation))

    @staticmethod
    def identity(ctx: ScalarContext) -> "PoincareMap":
        rows = [[ctx.one if i == j else ctx.zero for j in range(4)] for i in range(4)]
        return PoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))

    @staticmethod
    def translation_by(v: Vec4) -> "PoincareMap":
        return PoincareMap(PoincareMap.identity(v.ctx).linear, v)

    @staticmethod
    def boost(ctx: ScalarContext, t: Fraction, axis: int = 1) -> "PoincareMap":
        """Exact rational boost along a space axis; velocity v = 2t/(1+t^2)."""
        assert axis in (1, 2, 3)
        den = 1 - t * t
        if den == 0:
            raise ValueError("boost parameter t must satisfy t^2 != 1")
        g = ctx.rat((1 + t * t) / den)
        gv = ctx.rat(2 * t / den)
        m = PoincareMap.identity(ctx)
        rows = [list(r) for r in m.linear]
        rows[0][0] = g
        rows[0][axis] = gv
        rows[axis][0] = gv
        rows[axis][axis] = g
        return PoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))

    @staticmethod
    def rotation(ctx: ScalarContext, m: int, n: int, ax1: int = 1, ax2: int = 2) -> "PoincareMap":
        """Rotation by a Pythagorean angle: cos = (m^2-n^2)/(m^2+n^2)."""
        assert ax1 in (1, 2, 3) and ax2 in (1, 2, 3) and ax1 != ax2
        den = m * m + n * n
        if den == 0:
            raise ValueError("rotation parameters must not both be zero")
        c = ctx.rat(Fraction(m * m - n * n, den))
        s = ctx.rat(Fraction(2 * m * n, den))
        pm = PoincareMap.identity(ctx)
        rows = [list(r) for r in pm.linear]
        rows[ax1][ax1] = c
        rows[ax1][ax2] = -s
        rows[ax2][ax1] = s
        rows[ax2][ax2] = c
        return PoincareMap(rows, Vec4.of(ctx, 0, 0, 0, 0))
