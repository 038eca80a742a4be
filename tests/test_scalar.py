import fractions
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcheck import minkowski, scalar
from relcheck.corpus import SYSTEM_SIMPLERELFTL
from relcheck.model import ModelKind
from relcheck.scalar import (
    CapacityError,
    DomainError,
    Scalar,
    ScalarContext,
    ScalarParseError,
    _square_free_split,
)
from relcheck.verifier.report import Budget
from relcheck.verifier.suites import invariance_suite, run_axiom_suite


# --- independent oracles -------------------------------------------------
#
# The interval oracle compares tower values through shrinking rational
# enclosures computed only from radicand enclosures, never through
# Scalar.sign().


def _interval_sqrt(lo: Fraction, hi: Fraction, steps: int) -> tuple[Fraction, Fraction]:
    assert lo >= 0
    a, b = Fraction(0), max(hi, Fraction(1)) + 1
    for _ in range(steps):
        mid = (a + b) / 2
        if mid * mid <= lo:
            a = mid
        else:
            b = mid
    lo_root = a
    a, b = Fraction(0), max(hi, Fraction(1)) + 1
    for _ in range(steps):
        mid = (a + b) / 2
        if mid * mid < hi:
            a = mid
        else:
            b = mid
    return lo_root, b


def interval_enclosure(s: Scalar, steps: int = 80) -> tuple[Fraction, Fraction]:
    if s.level == 0:
        f = s.as_fraction()
        return f, f
    rad_lo, rad_hi = interval_enclosure(s.ctx.radicands[s.level - 1], steps)
    root_lo, root_hi = _interval_sqrt(rad_lo, rad_hi, steps)
    a, b = s._parts(s.level)
    a_lo, a_hi = interval_enclosure(a, steps)
    b_lo, b_hi = interval_enclosure(b, steps)
    candidates = [
        b_lo * root_lo,
        b_lo * root_hi,
        b_hi * root_lo,
        b_hi * root_hi,
    ]
    return a_lo + min(candidates), a_hi + max(candidates)


def oracle_compare(x: Scalar, y: Scalar) -> int:
    """-1, 0 or 1 as x is below, equal to or above y."""
    for steps in (60, 120, 240):
        lo1, hi1 = interval_enclosure(x, steps)
        lo2, hi2 = interval_enclosure(y, steps)
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
    # enclosures keep overlapping: fall back to exact difference of squares
    # only through representation equality
    return 0 if x == y else (-1 if float(x) < float(y) else 1)


# --- operation examples with frozen values --------------------------------------------


def test_arith_rational_add():
    ctx = ScalarContext()
    assert ctx.rat(1, 2) + ctx.rat(1, 3) == Fraction(5, 6)
    assert ctx.rat(1, 2) - ctx.rat(1, 3) == Fraction(1, 6)


def test_arith_sqrt2_squared():
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    assert r2 * r2 == 2


def test_arith_div_rationalizes():
    # 1/sqrt(2) equals (1/2)*sqrt(2); oracle: squaring gives 1/2 again
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    q = ctx.one / r2
    assert q * q == Fraction(1, 2)
    assert q == ctx.rat(1, 2) * r2
    assert q.render() == "0 + 1/2*sqrt(2)"


def test_div_by_zero_is_domain_error():
    ctx = ScalarContext()
    with pytest.raises(DomainError):
        ctx.one / ctx.zero
    with pytest.raises(DomainError):
        ctx.one / ScalarContext().zero  # a zero of another context
    with pytest.raises(DomainError):
        ctx.one / 0


def test_compare_sqrt2_three_halves():
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    assert (r2 - ctx.rat(3, 2)).sign() == -1
    assert oracle_compare(r2, ctx.rat(3, 2)) == -1


def test_compare_reflexive_and_negated_root():
    ctx = ScalarContext()
    x = ctx.rat(7, 3) + ctx.sqrt(ctx.rat(5))
    assert (x - x).sign() == 0
    assert (-ctx.sqrt(ctx.rat(2)) - ctx.zero).sign() == -1


def test_sqrt_perfect_square():
    ctx = ScalarContext()
    assert ctx.sqrt(ctx.rat(9, 4)) == Fraction(3, 2)
    assert ctx.depth == 0


def test_sqrt_defining_identity():
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    assert r2 * r2 == 2
    assert r2 > 0


def test_sqrt_denesting():
    # sqrt(3 + 2*sqrt(2)) == 1 + sqrt(2); oracle: square the candidate
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    nested = ctx.rat(3) + ctx.rat(2) * r2
    candidate = ctx.one + r2
    assert candidate * candidate == nested
    s = ctx.sqrt(nested)
    assert s == candidate
    assert ctx.depth == 1


def test_sqrt_negative_is_domain_error():
    ctx = ScalarContext()
    with pytest.raises(DomainError):
        ctx.sqrt(ctx.rat(-1))


def test_depth_cap_is_capacity_error():
    ctx = ScalarContext(depth_cap=2)
    ctx.sqrt(ctx.rat(2))
    ctx.sqrt(ctx.rat(3))
    with pytest.raises(CapacityError):
        ctx.sqrt(ctx.rat(5))


def test_sqrt_reuses_chain_for_multiples():
    ctx = ScalarContext()
    r2 = ctx.sqrt(ctx.rat(2))
    r8 = ctx.sqrt(ctx.rat(8))
    assert r8 == ctx.rat(2) * r2
    assert ctx.depth == 1


# --- randomized field/order identities (acceptance criterion 9 core) ------


def _random_rational(rng: random.Random, bound: int = 50) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def test_field_identities_1000_rationals():
    rng = random.Random(20240817)
    ctx = ScalarContext()
    for _ in range(1000):
        a = ctx.rat(_random_rational(rng))
        b = ctx.rat(_random_rational(rng))
        c = ctx.rat(_random_rational(rng))
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inverse() == 1
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        # order compatibility
        if a < b:
            assert a + c < b + c
        if a > 0 and b > 0:
            assert a * b > 0


def test_field_identities_on_tower_elements():
    rng = random.Random(7)
    for _ in range(120):
        ctx = ScalarContext()
        r = ctx.sqrt(ctx.rat(rng.choice([2, 3, 5, 7])))
        a = ctx.rat(_random_rational(rng)) + ctx.rat(_random_rational(rng)) * r
        b = ctx.rat(_random_rational(rng)) + ctx.rat(_random_rational(rng)) * r
        c = ctx.rat(_random_rational(rng)) + ctx.rat(_random_rational(rng)) * r
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inverse() == 1
        assert a * (b + c) == a * b + a * c
        if a < b:
            assert a + c < b + c


def test_sqrt_square_roundtrip_500():
    rng = random.Random(99)
    for _ in range(500):
        ctx = ScalarContext()
        base = ctx.rat(abs(_random_rational(rng)) + Fraction(1, 7))
        extra = rng.choice([None, 2, 3, 5])
        val = base
        if extra is not None:
            val = base + ctx.sqrt(ctx.rat(extra))
        s = ctx.sqrt(val)
        assert s * s == val
        assert s >= 0


def test_compare_total_order_random_triples():
    rng = random.Random(4242)
    for _ in range(300):
        ctx = ScalarContext()
        r = ctx.sqrt(ctx.rat(rng.choice([2, 3, 5])))
        vals = [
            ctx.rat(_random_rational(rng, 9)) + ctx.rat(_random_rational(rng, 9)) * r
            for _ in range(3)
        ]
        a, b, c = vals
        # trichotomy
        assert sum(1 for f in (a < b, a == b, a > b) if f) == 1
        # transitivity
        if a < b and b < c:
            assert a < c
        if a <= b and b <= c:
            assert a <= c


def test_compare_agrees_with_interval_oracle():
    rng = random.Random(31337)
    for _ in range(150):
        ctx = ScalarContext()
        r1 = ctx.sqrt(ctx.rat(rng.choice([2, 3, 5, 7, 11])))
        x = ctx.rat(_random_rational(rng, 12)) + ctx.rat(_random_rational(rng, 12)) * r1
        y = ctx.rat(_random_rational(rng, 12)) + ctx.rat(_random_rational(rng, 12)) * r1
        assert (x - y).sign() == oracle_compare(x, y)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30),
)
def test_ordered_field_axioms_hypothesis(fa, fb, fc):
    ctx = ScalarContext()
    a, b, c = ctx.rat(fa), ctx.rat(fb), ctx.rat(fc)
    assert (a + b) * c == a * c + b * c
    if a < b:
        assert a + c < b + c
    if a > 0 and b > 0:
        assert a * b > 0


# --- parse / render -------------------------------------------------------


def test_parse_grammar_examples():
    ctx = ScalarContext()
    v = ctx.parse("3/2 + 1/2*sqrt(5)")
    assert v == ctx.rat(3, 2) + ctx.rat(1, 2) * ctx.sqrt(ctx.rat(5))
    assert ctx.parse("-7/3") == Fraction(-7, 3)
    assert ctx.parse("4") == 4


def test_render_parse_roundtrip_bit_exact():
    rng = random.Random(5150)
    for _ in range(200):
        ctx = ScalarContext()
        parts = [ctx.rat(_random_rational(rng, 15))]
        for p in rng.sample([2, 3, 5, 7], k=rng.randint(0, 2)):
            parts.append(ctx.rat(_random_rational(rng, 15)) * ctx.sqrt(ctx.rat(p)))
        v = parts[0]
        for p in parts[1:]:
            v = v + p
        text = v.render()
        ctx2 = ScalarContext()
        again = ctx2.parse(text)
        assert again.render() == text
        assert (v * v).render() == (again * again).render()


def test_parse_nested_radicand():
    ctx = ScalarContext()
    v = ctx.parse("0 + 1*sqrt(3 + 2*sqrt(2))")
    r2 = ctx.sqrt(ctx.rat(2))
    assert v == ctx.one + r2


def test_parse_rejects_garbage():
    ctx = ScalarContext()
    with pytest.raises(ScalarParseError):
        ctx.parse("3/2 + ")
    with pytest.raises(ScalarParseError):
        ctx.parse("sqrt 2")
    with pytest.raises(ScalarParseError):
        ctx.parse("1 + 2)")


def test_mixed_context_rejected():
    c1, c2 = ScalarContext(), ScalarContext()
    x = c1.sqrt(c1.rat(2))
    y = c2.sqrt(c2.rat(3))
    with pytest.raises(Exception):
        _ = x + y


def test_cross_context_equality_compares_radicands():
    c1, c2 = ScalarContext(), ScalarContext()
    x = c1.sqrt(c1.rat(2))
    y = c2.sqrt(c2.rat(3))
    # same coordinates over different radicands: different values
    assert x != y and not (x == y)
    # the same radicand chain in two contexts gives equal values
    c3 = ScalarContext()
    z = c3.sqrt(c3.rat(2))
    assert x == z and hash(x) == hash(z)
    # rationals compare across contexts
    assert c1.rat(1, 2) == c2.rat(1, 2)


# --- level-0 fast path ----------------------------------------------------

_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=60)


def _assert_level0_form(x: Scalar) -> None:
    """One int numerator over a positive int denominator, in lowest terms."""
    (n,) = x.a
    assert x.level == 0 and x.den > 0 and math.gcd(n, x.den) == 1


@settings(max_examples=200, deadline=None)
@given(_fractions, _fractions, st.booleans())
def test_level0_ops_are_fraction_ops(fa, fb, two_contexts):
    c1 = ScalarContext()
    c2 = ScalarContext() if two_contexts else c1
    a, b = c1.rat(fa), c2.rat(fb)
    results = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa)]
    if fa != 0:
        results.append((a.inverse(), 1 / fa))
    if fb != 0:
        results.append((a / b, fa / fb))
    else:
        for zero in (b, ScalarContext().zero):  # also a zero of another context
            with pytest.raises(DomainError):
                _ = a / zero
    for got, want in results:
        assert got.level == 0 and got.as_fraction() == want
        assert got.ctx is c1  # the left operand's context
    for got in [a, b] + [r for r, _ in results]:
        _assert_level0_form(got)
    # rat input is an edge: equal to, and hashing as, the Fraction or int it was given
    for f in (fa, fb, fa.numerator, fb.denominator):
        assert c1.rat(f) == f and hash(c1.rat(f)) == hash(f)
    # two ints n, d are n/d, also for a negative d, in lowest terms; d = 0 raises
    for n, d in ((fa.numerator, fb.numerator), (fb.numerator * 6, -fa.denominator * 4)):
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                c1.rat(n, d)
        else:
            assert c1.rat(n, d) == Fraction(n, d)
            _assert_level0_form(c1.rat(n, d))


@settings(max_examples=100, deadline=None)
@given(_fractions, _fractions, _fractions.filter(lambda f: f != 0), st.sampled_from([2, 3, 5]))
def test_level0_with_level1_uses_the_tower(fq, fx, fy, rad):
    # q is rational, s = x + y*sqrt(rad) is level 1 in another context: the
    # cross-context check needs both above level 0, so they still combine,
    # and a level-1 result lives in the context that owns sqrt(rad)
    c1, c2 = ScalarContext(), ScalarContext()
    c2.sqrt(c2.rat(7))  # c2's own radicand must not be read
    s = c1.rat(fx) + c1.rat(fy) * c1.sqrt(c1.rat(rad))
    q = c2.rat(fq)
    for got, lo, hi in [
        (q + s, fq + fx, fy),
        (s + q, fx + fq, fy),
        (q - s, fq - fx, -fy),
        (s - q, fx - fq, fy),
        (q * s, fq * fx, fq * fy),
        (s * q, fx * fq, fy * fq),
    ]:
        if hi == 0:
            _assert_level0_form(got)
            assert got.as_fraction() == lo
        else:
            assert got.level == 1 and [p.as_fraction() for p in got._parts(1)] == [lo, hi]
            assert got.ctx is c1
    if fq != 0:
        got = s / q
        assert [p.as_fraction() for p in got._parts(1)] == [fx / fq, fy / fq]
    back = (q / s) * s
    _assert_level0_form(back)
    assert back == q


# Fraction is for input, output and the hash only; arithmetic never calls it.
# PoincareMap.boost reads its Fraction argument t once, as input.
_FRACTION_EDGES = {"rat", "as_fraction", "render", "approx", "__hash__", "boost"}


def test_fraction_only_at_the_edges():
    ours = {scalar.__file__, minkowski.__file__}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            caller = frame.f_back.f_code
            if caller.co_filename in ours and caller.co_name not in _FRACTION_EDGES:
                seen.add(f"{Path(caller.co_filename).name}:{caller.co_name} -> {frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        run_axiom_suite(SYSTEM_SIMPLERELFTL, ModelKind.FTL, Budget(seed=0), cases=2)
        # the Poincaré maps of the invariance suite
        invariance_suite(ModelKind.FTL, Budget(seed=0), configs=1)
    finally:
        sys.setprofile(None)
    assert not seen, sorted(seen)


def _decimal(x: Scalar):
    """x through Decimal square roots, independent of Scalar.approx."""
    if x.level == 0:
        f = x.as_fraction()
        return Decimal(f.numerator) / Decimal(f.denominator)
    radicand = _decimal(x.ctx.radicands[x.level - 1])
    a, b = x._parts(x.level)
    return _decimal(a) + _decimal(b) * radicand.sqrt()


def test_approx_within_eps_above_level_0():
    ctx = ScalarContext()
    root2 = ctx.sqrt(ctx.rat(2))
    nested = ctx.sqrt(ctx.one + root2)  # sqrt(1 + sqrt 2) is level 2
    rng = random.Random(0)

    def rat():
        k = rng.choice([1, 1000, 10**6])
        return ctx.rat(Fraction(rng.choice([-1, 1]) * rng.randint(1, k), rng.randint(1, 9)))

    with localcontext() as dc:
        dc.prec = 80
        for _ in range(60):
            level1 = rat() + rat() * root2
            level2 = level1 + (rat() + rat() * root2) * nested
            assert level1.level == 1 and level2.level == 2
            for x in (level1, level2):
                for eps in (Fraction(1, 10**3), Fraction(1, 10**12), Fraction(1, 10**30)):
                    got = x.approx(eps)
                    err = abs(Decimal(got.numerator) / Decimal(got.denominator) - _decimal(x))
                    assert err <= Decimal(eps.numerator) / Decimal(eps.denominator), (x, eps)


# --- the integer kernel against the pair representation ---------------------
#
# The reference is the tower's pair representation, with Fraction leaves:
# a level-k value is a Fraction (k = 0) or a triple (k, a, b)
# meaning a + b*sqrt(r_k), with a and b of lower level and b != 0, so equal
# values are equal triples.  Scalars reach it only through _parts.


class _PairTower:
    def __init__(self, ctx: ScalarContext) -> None:
        self.rads = [self.of(r) for r in ctx.radicands]

    def of(self, s: Scalar):
        if s.level == 0:
            return s.as_fraction()
        a, b = s._parts(s.level)
        return (s.level, self.of(a), self.of(b))

    @staticmethod
    def level(x) -> int:
        return x[0] if isinstance(x, tuple) else 0

    def parts(self, x, k: int):
        return (x[1], x[2]) if self.level(x) == k else (x, Fraction(0))

    @staticmethod
    def make(k: int, a, b):
        return a if b == 0 else (k, a, b)

    def neg(self, x):
        return -x if self.level(x) == 0 else (x[0], self.neg(x[1]), self.neg(x[2]))

    def add(self, x, y):
        k = max(self.level(x), self.level(y))
        if k == 0:
            return x + y
        (xa, xb), (ya, yb) = self.parts(x, k), self.parts(y, k)
        return self.make(k, self.add(xa, ya), self.add(xb, yb))

    def mul(self, x, y):
        k = max(self.level(x), self.level(y))
        if k == 0:
            return x * y
        (xa, xb), (ya, yb) = self.parts(x, k), self.parts(y, k)
        lo = self.add(self.mul(xa, ya), self.mul(self.mul(xb, yb), self.rads[k - 1]))
        return self.make(k, lo, self.add(self.mul(xa, yb), self.mul(xb, ya)))

    def norm(self, x):
        """a^2 - b^2 r_k, one level down."""
        k, a, b = x
        return self.add(self.mul(a, a), self.neg(self.mul(self.mul(b, b), self.rads[k - 1])))

    def inverse(self, x):
        if self.level(x) == 0:
            return 1 / x
        inv = self.inverse(self.norm(x))
        return self.make(x[0], self.mul(x[1], inv), self.neg(self.mul(x[2], inv)))

    def sign(self, x) -> int:
        if self.level(x) == 0:
            return (x > 0) - (x < 0)
        sa, sb = self.sign(x[1]), self.sign(x[2])
        if sa == 0 or sa == sb:
            return sb
        return sa if self.sign(self.norm(x)) > 0 else sb

    def render(self, x) -> str:
        if self.level(x) == 0:
            return str(x)
        k, a, b = x
        rad = self.render(self.rads[k - 1])
        if self.level(b) == 0:
            if b < 0:
                return f"{self.render(a)} - {-b}*sqrt({rad})"
            return f"{self.render(a)} + {b}*sqrt({rad})"
        return f"{self.render(a)} + ({self.render(b)})*sqrt({rad})"


def _q(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_tower(rng: random.Random, depth: int):
    """A chain of `depth` roots whose radicands may nest the previous root,
    like the suites' discriminants; returns (ctx, [(radicand, root)])."""
    ctx = ScalarContext()
    adjoined = []
    while ctx.depth < depth:
        radicand = ctx.rat(Fraction(rng.randint(2, 60), rng.randint(1, 9)))
        if adjoined and rng.random() < 0.7:
            radicand = radicand + ctx.rat(rng.randint(1, 3)) * adjoined[-1][1]
        before = ctx.depth
        root = ctx.sqrt(radicand)
        if ctx.depth > before:
            adjoined.append((radicand, root))
    return ctx, adjoined


def _tower_element(rng: random.Random, ctx: ScalarContext, roots: list) -> Scalar:
    x = ctx.rat(_q(rng))
    for r in rng.sample(roots, rng.randint(1, len(roots))):
        c = ctx.rat(_q(rng)) + ctx.rat(_q(rng)) * r
        x = x * c if rng.random() < 0.5 else x + c * r
    return x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_tower_kernel_matches_pair_reference(depth, rng):
    ctx, adjoined = _random_tower(rng, depth)
    other = ScalarContext()
    other.sqrt(other.rat(7))  # the second context's own chain must not be read
    ref = _PairTower(ctx)
    roots = [root for _, root in adjoined]
    for radicand, root in adjoined:
        assert ref.mul(ref.of(root), ref.of(root)) == ref.of(radicand)
    values = [_tower_element(rng, ctx, roots) for _ in range(3)] + [other.rat(_q(rng))]
    for x in values:
        X = ref.of(x)
        assert x.sign() == ref.sign(X)
        assert x.render() == ref.render(X)
        if X != 0:
            assert ref.of(x.inverse()) == ref.inverse(X)
        for y in values:
            Y = ref.of(y)
            results = [(x + y, ref.add(X, Y)), (x - y, ref.add(X, ref.neg(Y))), (x * y, ref.mul(X, Y))]
            if Y != 0:
                results.append((x / y, ref.mul(X, ref.inverse(Y))))
            else:
                with pytest.raises(DomainError):
                    _ = x / y
            for got, want in results:
                assert ref.of(got) == want
                assert got.sign() == ref.sign(want)
                assert got.render() == ref.render(want)
                if got.level > 0:
                    assert got.ctx is ctx
                elif x.level == y.level == 0:
                    assert got.ctx is x.ctx
            assert (x == y) == (X == Y)
            if x == y:
                assert hash(x) == hash(y)
            # a value reached two ways has one representation
            again = [(x + y) - y] + ([(x * y) / y] if Y != 0 else [])
            for z in again:
                assert z == x and hash(z) == hash(x)


# --- the square root against the two-search reference -----------------------
#
# The reference is ScalarContext.sqrt with two chain searches: one for a
# itself and, for a rational a, one more for its square-free part; its norm
# step a0^2 - a1^2 r uses Scalar operators on the (lo, hi) view.  It adjoins
# to the context it is given.


def _ref_sqrt_in_chain(ctx: ScalarContext, a: Scalar, k: int):
    if k == 0:
        if a.level != 0 or a.as_fraction() < 0:
            return None
        f = a.as_fraction()
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return ctx.rat(Fraction(rn, rd))
        return None
    r = ctx.radicands[k - 1]
    a0, a1 = a._parts(k)
    if a1.is_zero():
        sub = _ref_sqrt_in_chain(ctx, a0, k - 1)
        if sub is not None:
            return sub
        y = _ref_sqrt_in_chain(ctx, a0 / r, k - 1)
        return None if y is None else y * ctx._root(k)
    d = _ref_sqrt_in_chain(ctx, a0 * a0 - a1 * a1 * r, k - 1)
    if d is None:
        return None
    for root in (d, -d):
        x = _ref_sqrt_in_chain(ctx, (a0 + root) / 2, k - 1)
        if x is not None and not x.is_zero():
            cand = x + a1 / (x * 2) * ctx._root(k)
            if cand * cand == a:
                return cand
    return None


def _ref_sqrt(ctx: ScalarContext, a: Scalar) -> Scalar:
    s = a.sign()
    if s < 0:
        raise DomainError("sqrt of a negative element")
    if s == 0:
        return ctx.zero
    found = _ref_sqrt_in_chain(ctx, a, ctx.depth)
    if found is not None:
        return found if found.sign() >= 0 else -found
    if ctx.depth >= ctx.depth_cap:
        raise CapacityError("depth cap reached")
    rad, coeff = a, ctx.one
    if a.level == 0:
        f = a.as_fraction()
        sq, m = _square_free_split(f.numerator * f.denominator)
        rad, coeff = ctx.rat(m), ctx.rat(Fraction(sq, f.denominator))
        found = _ref_sqrt_in_chain(ctx, rad, ctx.depth)
        if found is not None:
            return coeff * (found if found.sign() >= 0 else -found)
    ctx.radicands.append(rad)
    v, d = rad.a, rad.den
    ctx._squares.append(tuple(d * x for x in v))
    return coeff * ctx._root(ctx.depth)


def _recipe(rng: random.Random, n_roots: int):
    """A tower element as data, so that two contexts can build the same one."""
    terms = [
        (rng.randrange(n_roots), _q(rng), _q(rng), rng.random() < 0.5)
        for _ in range(rng.randint(1, n_roots) if n_roots else 0)
    ]
    return _q(rng), terms


def _build(ctx: ScalarContext, roots: list, recipe) -> Scalar:
    first, terms = recipe
    x = ctx.rat(first)
    for i, p, q, mul in terms:
        c = ctx.rat(p) + ctx.rat(q) * roots[i]
        x = x * c if mul else x + c * roots[i]
    return x


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.randoms(use_true_random=False))
def test_sqrt_matches_two_search_reference(depth, rng):
    ctx, ref = ScalarContext(depth_cap=3), ScalarContext(depth_cap=3)
    roots: list = []
    ref_roots: list = []

    def both(build):
        """sqrt of the same value in both contexts: same outcome, same chain."""
        outcome = []
        for c, rs, sqrt in ((ctx, roots, ctx.sqrt), (ref, ref_roots, lambda a: _ref_sqrt(ref, a))):
            try:
                got = sqrt(build(c, rs))
                outcome.append((got.level, got.render()))
            except (DomainError, CapacityError) as err:
                outcome.append(type(err).__name__)
        assert outcome[0] == outcome[1]
        assert [r.render() for r in ctx.radicands] == [r.render() for r in ref.radicands]
        return outcome[0]

    while ctx.depth < depth:
        rad = Fraction(rng.randint(2, 60), rng.randint(1, 9))
        k = rng.randint(1, 3) if roots and rng.random() < 0.7 else 0
        before = ctx.depth
        both(lambda c, rs: c.rat(rad) + c.rat(k) * rs[-1] if k else c.rat(rad))
        if ctx.depth > before:
            roots.append(ctx._root(ctx.depth))
            ref_roots.append(ref._root(ref.depth))
    for _ in range(4):
        recipe = _recipe(rng, len(roots))
        f = _q(rng)
        # x*x is in the chain: above level 0 its top half is non-zero, so
        # the search takes the norm step
        both(lambda c, rs: _build(c, rs, recipe) * _build(c, rs, recipe))
        both(lambda c, rs: _build(c, rs, recipe) * _build(c, rs, recipe) * c.rat(f))
        both(lambda c, rs: _build(c, rs, recipe))
        both(lambda c, rs: c.rat(f))
