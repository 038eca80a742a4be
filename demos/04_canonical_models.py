"""The canonical structures: radar constructions, duals, optical planes."""

from relcheck.minkowski import Line, Vec4
from relcheck.model import (
    chron_precedes,
    count_future_null_to_line,
    dual_candidates,
    dual_geo,
    event,
    optical_plane,
    rho,
    sim_geo,
    tau_geo,
)
from relcheck.scalar import ScalarContext

ctx = ScalarContext()
v = lambda *c: Vec4.of(ctx, *c)

# tau: the mirrored observer at the radar distance of two events
a = Line(v(0, 0, 0, 0), v(1, 0, 0, 0))
b = Line(v(0, -1, 0, 0), v(1, 0, 0, 0))
e1, e2 = event(v(0, 0, 0, 0)), event(v(2, 0, 0, 0))
print("e1 << e2:", chron_precedes(e1, e2))
c = tau_geo(b, e1, e2)
print("tau_b(e1,e2) worldline passes through", c.base.render())

# simultaneity is exact orthogonality
print("Sim_a((1,1,0,0),(1,-1,0,0)):", sim_geo(a, event(v(1, 1, 0, 0)), event(v(1, -1, 0, 0))))

# slower-than-light is a counting property: one future signal per event
spacelike = Line(v(0, 0, 0, 0), v(0, 1, 0, 0))
print("\nconnection counts to a spacelike worldline:")
for p in (v(-3, 0, 5, 0), v(-5, 0, 3, 0)):
    print(f"  from {p.render()}: {count_future_null_to_line(p, spacelike)}")

# optical planes and the relatable dual
d = v(0, 1, 0, 0)
far = Line(v(0, 0, 5, 0), d)
tangent = Line(v(1, 0, 1, 0), d)
base = Line(v(0, 0, 0, 0), d)
print("\nrelatable to the far parallel:", rho(base, far))
print("optical plane with the tangent one:", optical_plane(base, tangent))
dual = dual_candidates(base, far)[0]
print("relatable dual worldline through", dual.base.render())
mid = Line((base.base + dual.base).scale(ctx.rat(1, 2)), d)
print("midline (the optical-plane witness) through", mid.base.render())
print("both time signs satisfy the printed clauses:",
      [cand.base.render() for cand in dual_candidates(base, far)])
# the clauses admit a one-parameter family: any null offset n with <n, u> = q(u)
off_plane = Line(v(13, 0, 5, 12), d)
print("so does the off-plane member through", off_plane.base.render() + ":",
      dual_geo(off_plane, base, far))
