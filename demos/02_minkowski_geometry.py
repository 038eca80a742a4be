"""Exact Minkowski geometry: intervals, canonical lines, isometries."""

from fractions import Fraction

from relcheck.minkowski import (
    Line,
    PoincareMap,
    Segment,
    Vec4,
    classify,
    inner,
    lines_intersect,
    tarski_bw_f,
)
from relcheck.scalar import ScalarContext

ctx = ScalarContext()
v = lambda *c: Vec4.of(ctx, *c)

o = v(0, 0, 0, 0)
print("inner((1,2,3,4),(4,3,2,1)) =", inner(v(1, 2, 3, 4), v(4, 3, 2, 1)))
for q in (v(2, 1, 0, 0), v(1, 1, 0, 0), v(1, 2, 2, 0)):
    print(f"interval o -> {q.render()} is {classify(q - o).value}")

# lines canonicalize, so set equality is representation equality
l1 = Line(v(0, 1, 0, 0), v(1, -1, 0, 0))
l2 = Line(v(2, -1, 0, 0), v(-3, 3, 0, 0))
print("two parametrizations, one line:", l1 == l2)

vertical = Line(o, v(1, 0, 0, 0))
print("meet with the vertical axis:", lines_intersect(vertical, l1))

# a rational boost: rows (5/4, 3/4 / 3/4, 5/4), checked exactly
boost = PoincareMap.boost(ctx, Fraction(1, 3))
print("boost rows:", boost.linear[0][0], boost.linear[0][1])
print("is isometry:", boost.validate_isometry())
seg = Segment(o, v(1, 1, 0, 0))
moved = Segment(boost.apply(seg.beg), boost.apply(seg.end))
print("null stays null after the boost:", classify(moved.end - moved.beg).value)

# Tarski's betweenness on rest-frame space, as points with time coordinate 0
p3 = lambda *c: v(0, *c)
print("Bw((0,0,0),(1,1,0),(2,2,0)):", tarski_bw_f(p3(0, 0, 0), p3(1, 1, 0), p3(2, 2, 0)))
