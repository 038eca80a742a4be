"""Seeded exact configuration generators for the property suites.

All randomness flows through one `random.Random` drawing integers only, so
identical seeds give identical configurations on any platform.  Generated
coordinates are rationals within the budget's coordinate bound; null
directions come from Pythagorean parametrizations so light-cone data stays
rational wherever possible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from relcheck.minkowski import (
    IntervalClass,
    Line,
    PoincareMap,
    Segment,
    Vec4,
    classify,
    lam,
    quotient_lift,
    quotient_norm,
)
from relcheck.model import ModelKind, event
from relcheck.scalar import Scalar, ScalarContext


class GenerationError(Exception):
    """The requested pattern was not satisfiable within the bound."""


class ConfigGen:
    def __init__(self, seed: int, bound: int = 8, depth_cap: int = 4) -> None:
        self.rng = random.Random(seed)
        self.bound = bound
        self.ctx = ScalarContext(depth_cap=depth_cap)

    # -- scalars / vectors ---------------------------------------------------

    def rat_fraction(self) -> Fraction:
        return Fraction(self.rng.randint(-self.bound, self.bound), self.rng.randint(1, 4))

    def rat(self) -> Scalar:
        return self.ctx.rat(self.rat_fraction())

    def point(self) -> Vec4:
        return Vec4(*(self.rat() for _ in range(4)))

    def spatial_offset(self) -> Vec4:
        return Vec4(self.ctx.zero, self.rat(), self.rat(), self.rat())

    # -- directions ------------------------------------------------------------

    def timelike_dir(self) -> Vec4:
        while True:
            v = Vec4(
                self.ctx.one,
                self.ctx.rat(Fraction(self.rng.randint(-3, 3), 5)),
                self.ctx.rat(Fraction(self.rng.randint(-3, 3), 5)),
                self.ctx.rat(Fraction(self.rng.randint(-2, 2), 5)),
            )
            if classify(v) is IntervalClass.TIMELIKE:
                return v

    def spacelike_dir(self) -> Vec4:
        while True:
            v = Vec4(
                self.ctx.rat(Fraction(self.rng.randint(-3, 3), 5)),
                self.ctx.rat(self.rng.randint(-3, 3)),
                self.ctx.rat(self.rng.randint(-3, 3)),
                self.ctx.rat(self.rng.randint(-2, 2)),
            )
            if classify(v) is IntervalClass.SPACELIKE:
                return v

    def null_dir(self) -> Vec4:
        """Rational null direction from a Pythagorean quadruple."""
        while True:
            m, n, p, q = (self.rng.randint(0, 3) for _ in range(4))
            a = m * m + n * n - p * p - q * q
            b = 2 * (m * q + n * p)
            c = 2 * (n * q - m * p)
            d = m * m + n * n + p * p + q * q
            if d == 0 or (a == 0 and b == 0 and c == 0):
                continue
            v = Vec4.of(self.ctx, d, a, b, c)
            assert lam(v).is_zero()
            if self.rng.random() < 0.5:
                v = Vec4(v[0], -v[1], v[2], v[3])
            return v

    def direction(self, kind: ModelKind) -> Vec4:
        if kind is ModelKind.FTL and self.rng.random() < 0.5:
            return self.spacelike_dir()
        return self.timelike_dir()

    # -- observers ---------------------------------------------------------------

    def timelike_line(self) -> Line:
        return Line(self.point(), self.timelike_dir())

    def spacelike_line(self) -> Line:
        return Line(self.point(), self.spacelike_dir())

    def observer(self, kind: ModelKind) -> Line:
        return Line(self.point(), self.direction(kind))

    def parallel_family(self, n: int, kind: ModelKind = ModelKind.STL_ONLY) -> list[Line]:
        d = self.direction(kind)
        out = []
        seen = set()
        while len(out) < n:
            line = Line(self.point(), d)
            if line not in seen:
                seen.add(line)
                out.append(line)
        return out

    def nonrelatable_spacelike_pair(self) -> tuple[Line, Line]:
        """Parallel spacelike pair with certified negative discriminant."""
        for _ in range(200):
            d = self.spacelike_dir()
            a = Line(self.point(), d)
            b = Line(self.point(), d)
            if a == b:
                continue
            q = quotient_norm(b.base - a.base, d)
            if q.sign() > 0:
                return a, b
        raise GenerationError("no non-relatable spacelike pair within bound")

    # -- events and signals ----------------------------------------------------

    def event_on(self, line: Line) -> Segment:
        return event(line.at(self.rat()))

    def null_connected_pair(self) -> tuple[Segment, Segment]:
        p = self.point()
        t = self.ctx.rat(Fraction(self.rng.randint(0, 2 * self.bound), 4))
        q = p + self.null_dir().scale(t)
        assert lam(q - p).is_zero()
        return event(p), event(q)

    def chron_pair(self) -> tuple[Segment, Segment]:
        p = self.point()
        dt = self.ctx.rat(Fraction(self.rng.randint(1, 2 * self.bound), 2))
        q = p + self.timelike_dir().scale(dt)
        assert lam(q - p).sign() < 0 and (q - p).x0.sign() > 0
        return event(p), event(q)

    def signal(self) -> Segment:
        p = self.point()
        t = self.ctx.rat(Fraction(self.rng.randint(0, 2 * self.bound), 4))
        return Segment(p, p + self.null_dir().scale(t))

    def sim_pair(self, c: Line) -> tuple[Segment, Segment]:
        """Two events whose difference is Minkowski-orthogonal to c."""
        d = c.dir
        p = self.point()
        for _ in range(200):
            w = self.spatial_offset() + Vec4(self.rat(), *(self.ctx.zero,) * 3)
            u = quotient_lift(w, d)
            if not u.is_zero():
                return event(p), event(p + u)
        raise GenerationError("no orthogonal offset found")

    # -- isometries ---------------------------------------------------------------

    def poincare(self) -> PoincareMap:
        m = PoincareMap.identity(self.ctx)
        for _ in range(self.rng.randint(1, 3)):
            kind = self.rng.randint(0, 2)
            if kind == 0:
                t = Fraction(self.rng.randint(-2, 2), self.rng.randint(3, 6))
                m = PoincareMap.boost(self.ctx, t, axis=self.rng.randint(1, 3)).compose(m)
            elif kind == 1:
                axes = self.rng.choice([(1, 2), (1, 3), (2, 3)])
                m = PoincareMap.rotation(
                    self.ctx, self.rng.randint(1, 4), self.rng.randint(0, 3), *axes
                ).compose(m)
            else:
                m = PoincareMap.translation_by(self.point()).compose(m)
        assert m.validate_isometry()
        return m

    def transform_line(self, m: PoincareMap, line: Line) -> Line:
        return Line(m.apply(line.base), m.apply_direction(line.dir))

    def transform_signal(self, m: PoincareMap, s: Segment) -> Segment:
        return Segment(m.apply(s.beg), m.apply(s.end))
