"""The square-root chain: exact arithmetic where light cones live.

Light-cone intersections need square roots of sums of squares, so plain
rationals are not enough.  The context adjoins each new root on demand,
keeps every value in normalized coordinates over the chain basis, and
orders everything exactly.
"""

from relcheck.scalar import CapacityError, ScalarContext

ctx = ScalarContext()

half = ctx.rat(1, 2)
third = ctx.rat(1, 3)
print("1/2 + 1/3 =", half + third)

r2 = ctx.sqrt(ctx.rat(2))
print("sqrt(2) * sqrt(2) =", r2 * r2)
print("1 / sqrt(2) =", ctx.one / r2, "   (rationalized automatically)")

# ordering is decided algebraically, not by approximation
print("sqrt(2) < 3/2:", r2 < ctx.rat(3, 2))
print("sqrt(2) > 7/5:", r2 > ctx.rat(7, 5))

# nested radicals denest when the chain already contains the answer
nested = ctx.rat(3) + ctx.rat(2) * r2
s = ctx.sqrt(nested)
print("sqrt(3 + 2*sqrt(2)) =", s, "  equals 1 + sqrt(2):", s == ctx.one + r2)

# perfect squares never grow the chain
print("sqrt(9/4) =", ctx.sqrt(ctx.rat(9, 4)), "  chain depth:", ctx.depth)

# the text grammar round-trips bit-exactly
text = "3/2 + 1/2*sqrt(5)"
value = ctx.parse(text)
print(f"parse({text!r}) renders back as {value.render()!r}")

# the depth cap is a capacity error, never a silent approximation
tight = ScalarContext(depth_cap=1)
tight.sqrt(tight.rat(2))
try:
    tight.sqrt(tight.rat(3))
except CapacityError as err:
    print("depth cap:", err)
