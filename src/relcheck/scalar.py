"""Exact arithmetic in a chain of real quadratic extensions of Q.

A :class:`ScalarContext` owns an ordered chain of adjoined square roots
Q ⊂ Q(√r1) ⊂ Q(√r1)(√r2) ⊂ …  Every :class:`Scalar` lives in one context
and is stored in normalized coordinates over the chain basis, so equality
of values is equality of representations.  Each adjoined root is the
non-negative one, which fixes a total order compatible with the field
operations.  Only square roots of non-negative elements are supported;
asking for anything past the configured chain depth raises
:class:`CapacityError`, which means "unknown", never a truth value.  Callers
let it propagate: the suites' case driver (``suites._run_cases``) and the
formula evaluator's boundary (``evaluate_bounded``) are the only places
that catch it, and they make it UNKNOWN with a reason starting
``capacity:``.  The other such reason prefix, ``unsupported:``, is made
from ``model.UnsupportedPredicate`` by the case driver and by the
evaluator's atom step.

At level k a value is a tuple of 2**k Python ints over one positive int
denominator, reduced by one gcd.  The ints are coordinates over the
monomials of the scaled roots s'_k = D_k*sqrt(r_k), where D_k is the
denominator of r_k in this form, so every s'_k**2 has int coordinates and
``+``, ``-``, ``*``, ``inverse`` and ``sign`` are small recursive functions
on int vectors (``_vmul``, ``_vsign``, ``_vinv``) that split a vector into
the halves without and with the top root.  ``Scalar._parts`` gives the
(lo, hi) view in the unscaled root for rendering, approximation and
square roots.

``ScalarContext.sqrt`` makes a rational radicand square-free first, a =
coeff**2 * rad, then searches the chain once, for sqrt(rad), and adjoins a
root only when that search fails.

A rational is the k = 0 case: one int numerator over a positive int
denominator, in lowest terms.  Most arithmetic stays at level 0, so ``+``,
``-``, ``*`` and ``/`` keep one branch for two rationals that works on the
same two fields (n*e +- m*d over d*e, then one gcd) without the general
path's lists and level bookkeeping.  ``minkowski.Vec4`` stores a vector the
same way, the four coordinates' ints over one denominator, and keeps the
same one level-0 branch.  ``Fraction`` appears only at the edges:
``ScalarContext.rat`` input (read from its fields; two ints go through
``_rat``), ``as_fraction``, ``render``, ``approx`` and ``__hash__``, which
equals the hash of the equal ``Fraction`` because a rational Scalar
compares equal to it.  Mixing two contexts is refused only
when both operands are above level 0; a level-0 result lives in the left
operand's context, and a result above level 0 in the context that owns its
radicand.

Scalars are immutable values and safe to share; a context's radicand
chain is append-only, so create one context per worker rather than
sharing one across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

RatLike = Union[int, Fraction]


class ScalarError(Exception):
    pass


class DomainError(ScalarError):
    """Operation outside its domain (negative sqrt, division by zero)."""


class CapacityError(ScalarError):
    """The extension chain depth cap would be exceeded."""


class ScalarParseError(ScalarError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def _square_free_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m square-free up to the trial bound."""
    assert n > 0
    s, m = 1, 1
    p = 2
    while p * p <= n and p < 10000:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    if n > 1:
        r = math.isqrt(n)
        if r * r == n:
            s *= r
        else:
            m *= n
    return s, m


def _vmul(v: Sequence[int], w: Sequence[int], squares: list) -> list:
    """Coordinates of v*w, for coordinate vectors of lengths 2**k and 2**j.

    ``squares[k - 1]`` is s'_k**2 as coordinates of its own level.  The
    shorter vector has no root above its level, so it multiplies each block
    of the longer one on its own.
    """
    if len(v) < len(w):
        v, w = w, v
    n, m = len(v), len(w)
    if m == 1:
        c = w[0]
        return [c * x for x in v]
    if m < n:
        out: list = []
        for i in range(0, n, m):
            out += _vmul(v[i : i + m], w, squares)
        return out
    if n == 2:
        (a0, a1), (b0, b1) = v, w
        return [a0 * b0 + a1 * b1 * squares[0][0], a0 * b1 + a1 * b0]
    # (v0 + v1 s)(w0 + w1 s) = v0 w0 + v1 w1 s^2 + (v0 w1 + v1 w0) s
    h = n // 2
    v0, v1, w0, w1 = v[:h], v[h:], w[:h], w[h:]
    hh = _vmul(_vmul(v1, w1, squares), squares[h.bit_length() - 1], squares)
    lo = [x + y for x, y in zip(_vmul(v0, w0, squares), hh)]
    return lo + [x + y for x, y in zip(_vmul(v0, w1, squares), _vmul(v1, w0, squares))]


def _vnorm(lo: Sequence[int], hi: Sequence[int], squares: list) -> list:
    """Coordinates of lo**2 - hi**2 * s'**2, the norm of lo + hi*s' one level down."""
    s2 = squares[len(lo).bit_length() - 1]
    return [x - y for x, y in zip(_vmul(lo, lo, squares), _vmul(_vmul(hi, hi, squares), s2, squares))]


def _vsign(v: Sequence[int], squares: list) -> int:
    """Sign of the value with coordinates v over any positive denominator."""
    h = len(v) // 2
    if h == 0:
        return (v[0] > 0) - (v[0] < 0)
    lo, hi = v[:h], v[h:]
    sb = _vsign(hi, squares)
    if sb == 0:
        return _vsign(lo, squares)
    sa = _vsign(lo, squares)
    if sa == 0 or sa == sb:
        return sb
    # opposite signs: the half with the larger square wins
    t = _vsign(_vnorm(lo, hi, squares), squares)
    assert t != 0, "radicand was a perfect square; chain invariant broken"
    return -sb * t


def _vinv(v: Sequence[int], squares: list) -> tuple[list, int]:
    """(w, c) with v*w == c, a nonzero int, for the coordinates v of a nonzero value.

    w may be shorter than v when v's high halves are zero."""
    h = len(v) // 2
    if h == 0:
        return [1], v[0]
    lo, hi = v[:h], v[h:]
    if not any(hi):
        return _vinv(lo, squares)
    # 1/(lo + hi s) = (lo - hi s) / norm, and norm*u == c one level down
    u, c = _vinv(_vnorm(lo, hi, squares), squares)
    return _vmul(lo, u, squares) + [-x for x in _vmul(hi, u, squares)], c


def _rat(ctx: "ScalarContext", n: int, d: int) -> "Scalar":
    """The level-0 Scalar n/d for d != 0, in lowest terms."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n //= g
        d //= g
    return Scalar(ctx, 0, (n,), d)


def _reduced(ctx: "ScalarContext", v: Sequence[int], den: int) -> "Scalar":
    """The Scalar with coordinates v over den != 0, at its own level, in lowest terms."""
    n = len(v)
    while n > 1 and not any(v[n // 2 : n]):
        n //= 2
    v = v[:n]
    g = math.gcd(den, *v)
    if den < 0:
        g = -g
    if g != 1:
        v = [x // g for x in v]
        den //= g
    return Scalar(ctx, n.bit_length() - 1, tuple(v), den)


class Scalar:
    """Element of the context's current extension chain.

    At ``level == k``, ``a`` is a tuple of 2**k ints over the positive int
    ``den``: coordinates over the monomial basis of the scaled roots
    s'_j = D_j*sqrt(r_j), j = 1..k, where coordinate i multiplies the product
    of the s'_j whose bit j - 1 is set in i.  D_j is the denominator of r_j
    in this form, so s'_j**2 = D_j**2 * r_j has int coordinates and sums,
    products, norms and signs need no Fraction.  Above level 0 the high half
    of ``a`` (the s'_k half) is not all zero; at every level gcd(den, *a) ==
    1, so a rational n/d is ``a == (n,)`` over ``den == d`` and zero is
    ``(0,)`` over 1.  The basis is linearly independent because no r_j is a
    square one level down, so the coordinates are unique, and the reduction
    makes the ints unique too: equality of values is equality of
    representations.  ``_parts`` gives the (lo, hi) view a = lo + hi*sqrt(r_k)
    in the unscaled root.
    """

    __slots__ = ("ctx", "level", "a", "den", "_hash")

    def __init__(self, ctx: "ScalarContext", level: int, a, den) -> None:
        self.ctx = ctx
        self.level = level
        self.a = a
        self.den = den
        self._hash: Optional[int] = None

    # -- construction -------------------------------------------------

    def _parts(self, level: int) -> tuple["Scalar", "Scalar"]:
        """View of self as lo + hi*sqrt(r_level) relative to `level` >= self.level."""
        if self.level != level:
            return self, self.ctx.zero
        v, d = self.a, self.den
        h = len(v) // 2
        scale = self.ctx.radicands[level - 1].den
        return _reduced(self.ctx, v[:h], d), _reduced(self.ctx, [scale * x for x in v[h:]], d)

    def _coerce(self, other) -> Optional["Scalar"]:
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx and other.level > 0 and self.level > 0:
                raise ScalarError("mixing scalars from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rat(other)
        return None

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        # normalized: above level 0 the s'_k half is nonzero
        return self.level == 0 and self.a[0] == 0

    def as_fraction(self) -> Fraction:
        if self.level != 0:
            raise ScalarError("scalar is not rational")
        return Fraction(self.a[0], self.den)

    def sign(self) -> int:
        return _vsign(self.a, self.ctx._squares)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if self.level == 0 and isinstance(other, Scalar) and other.level == 0:
            return _rat(self.ctx, self.a[0] * other.den + other.a[0] * self.den, self.den * other.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # a level > 0 result lives in the context that owns its radicand
        ctx = self.ctx if self.level >= o.level else o.ctx
        v, d, w, e = self.a, self.den, o.a, o.den
        if len(v) < len(w):
            v, d, w, e = w, e, v, d
        if d == e:
            out = list(v)
            for i, y in enumerate(w):
                out[i] += y
        else:
            out = [x * e for x in v]
            for i, y in enumerate(w):
                out[i] += y * d
            d *= e
        return _reduced(ctx, out, d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.ctx, self.level, tuple([-x for x in self.a]), self.den)

    def __sub__(self, other) -> "Scalar":
        if self.level == 0 and isinstance(other, Scalar) and other.level == 0:
            return _rat(self.ctx, self.a[0] * other.den - other.a[0] * self.den, self.den * other.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Scalar":
        if self.level == 0 and isinstance(other, Scalar) and other.level == 0:
            return _rat(self.ctx, self.a[0] * other.a[0], self.den * other.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx if self.level >= o.level else o.ctx
        return _reduced(ctx, _vmul(self.a, o.a, ctx._squares), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.level == 0:
            return self.ctx.one / self
        w, c = _vinv(self.a, self.ctx._squares)
        assert c != 0, "radicand was a perfect square; chain invariant broken"
        return _reduced(self.ctx, [self.den * x for x in w], c)

    def __truediv__(self, other) -> "Scalar":
        if self.level == 0 and isinstance(other, Scalar) and other.level == 0:
            if other.a[0] == 0:
                raise DomainError("division by zero")
            return _rat(self.ctx, self.a[0] * other.den, self.den * other.a[0])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- order ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                num, den = other.numerator, other.denominator
                return self.level == 0 and self.a[0] == num and self.den == den
            return NotImplemented
        if self.level != other.level:
            return False
        # coordinates compare only over the same radicands
        if other.ctx is not self.ctx and (
            self.ctx.radicands[: self.level] != other.ctx.radicands[: self.level]
        ):
            return False
        return self.a == other.a and self.den == other.den

    def __ne__(self, other) -> bool:
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self) -> int:
        if self._hash is None:
            if self.level == 0:
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash((self.level, self.a, self.den))
        return self._hash

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if self.level == 0:
            return str(self.as_fraction())
        rad = self.ctx.radicands[self.level - 1].render()
        a, b = self._parts(self.level)
        lo = a.render()
        if b.level == 0:
            if b.sign() < 0:
                return f"{lo} - {(-b).render()}*sqrt({rad})"
            return f"{lo} + {b.render()}*sqrt({rad})"
        return f"{lo} + ({b.render()})*sqrt({rad})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"

    # -- numeric approximation --------------------------------------------

    def approx(self, eps: Fraction = Fraction(1, 10**12)) -> Fraction:
        """Rational approximation within eps (for rendering, never for logic)."""
        if self.level == 0:
            return self.as_fraction()
        sub_eps = eps / 8
        r = self.ctx.radicands[self.level - 1].approx(sub_eps)
        root = _approx_sqrt(max(r, Fraction(0)), sub_eps)
        a, b = self._parts(self.level)
        return a.approx(sub_eps) + b.approx(sub_eps) * root

    def __float__(self) -> float:
        return float(self.approx(Fraction(1, 10**15)))


def _approx_sqrt(x: Fraction, eps: Fraction) -> Fraction:
    if x == 0:
        return Fraction(0)
    guess = Fraction(math.isqrt(x.numerator * x.denominator), x.denominator)
    if guess == 0:
        guess = Fraction(1)
    while True:
        nxt = (guess + x / guess) / 2
        if abs(nxt - guess) < eps:
            return nxt
        guess = nxt


class ScalarContext:
    """Append-only chain of adjoined square roots plus scalar factories."""

    def __init__(self, depth_cap: int = 4) -> None:
        self.depth_cap = depth_cap
        self.radicands: list[Scalar] = []
        # s'_k**2 = D_k**2 * r_k as int coordinates of its own level, per level k
        self._squares: list[tuple[int, ...]] = []
        self.zero = Scalar(self, 0, (0,), 1)
        self.one = Scalar(self, 0, (1,), 1)

    def rat(self, num: RatLike, den: Optional[int] = None) -> Scalar:
        if den is not None:
            if den == 0:
                raise ZeroDivisionError(f"rat({num}, 0)")
            if type(num) is int and type(den) is int:
                return _rat(self, num, den)
            num = Fraction(num, den)
        elif type(num) is int:
            return Scalar(self, 0, (num,), 1)
        f = num if isinstance(num, Fraction) else Fraction(num)
        return Scalar(self, 0, (f.numerator,), f.denominator)

    @property
    def depth(self) -> int:
        return len(self.radicands)

    # -- square roots -----------------------------------------------------

    def sqrt(self, a: Scalar) -> Scalar:
        s = a.sign()
        if s < 0:
            raise DomainError("sqrt of a negative element")
        if s == 0:
            return self.zero
        # a rational a = coeff^2 * rad with rad an integral square-free; as
        # coeff is a positive rational, sqrt(a) is in a field iff sqrt(rad) is
        coeff, rad = self.one, a
        if a.level == 0:
            sq, m = _square_free_split(a.a[0] * a.den)
            coeff, rad = _rat(self, sq, a.den), Scalar(self, 0, (m,), 1)
        found = self._sqrt_in_chain(rad, len(self.radicands))
        if found is not None:
            return coeff * (found if found.sign() >= 0 else -found)
        if len(self.radicands) >= self.depth_cap:
            raise CapacityError(
                f"extension chain depth cap {self.depth_cap} reached; "
                f"cannot adjoin sqrt({a.render()})"
            )
        self.radicands.append(rad)
        self._squares.append(tuple(rad.den * x for x in rad.a))
        return coeff * self._root(len(self.radicands))

    def _root(self, k: int) -> Scalar:
        """sqrt(r_k): the basis root s'_k over D_k."""
        half = 1 << (k - 1)
        coords = (0,) * half + (1,) + (0,) * (half - 1)
        return Scalar(self, k, coords, self.radicands[k - 1].den)

    def _sqrt_in_chain(self, a: Scalar, k: int) -> Optional[Scalar]:
        """Find s with s*s == a inside the level-k subfield, or None."""
        if k == 0:
            if a.level != 0 or a.a[0] < 0:
                return None
            rn, rd = math.isqrt(a.a[0]), math.isqrt(a.den)
            if rn * rn == a.a[0] and rd * rd == a.den:
                return Scalar(self, 0, (rn,), rd)
            return None
        a0, a1 = a._parts(k)
        if a1.is_zero():
            sub = self._sqrt_in_chain(a0, k - 1)
            if sub is not None:
                return sub
            # s = y*sqrt(r) with y*y == a0/r
            y = self._sqrt_in_chain(a0 / self.radicands[k - 1], k - 1)
            if y is not None:
                return y * self._root(k)
            return None
        # s = x + y*sqrt(r): needs sqrt(a0^2 - a1^2 r), a's norm, in the subfield
        h = len(a.a) // 2
        norm = _reduced(self, _vnorm(a.a[:h], a.a[h:], self._squares), a.den * a.den)
        d = self._sqrt_in_chain(norm, k - 1)
        if d is None:
            return None
        for root in (d, -d):
            x2 = (a0 + root) / 2
            x = self._sqrt_in_chain(x2, k - 1)
            if x is not None and not x.is_zero():
                y = a1 / (x * 2)
                cand = x + y * self._root(k)
                if cand * cand == a:
                    return cand
        return None

    # -- parsing -----------------------------------------------------------

    def parse(self, text: str) -> Scalar:
        parser = _ScalarParser(self, text)
        value = parser.parse_expr()
        parser.skip_ws()
        if parser.pos != len(text):
            raise ScalarParseError("trailing input", parser.pos)
        return value


class _ScalarParser:
    def __init__(self, ctx: ScalarContext, text: str) -> None:
        self.ctx = ctx
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_expr(self) -> Scalar:
        value = self.parse_term()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "+":
                self.pos += 1
                value = value + self.parse_term()
            elif c == "-":
                self.pos += 1
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self) -> Scalar:
        value = self.parse_factor()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "*":
                self.pos += 1
                value = value * self.parse_factor()
            elif c == "/":
                self.pos += 1
                value = value / self.parse_factor()
            else:
                return value

    def parse_factor(self) -> Scalar:
        self.skip_ws()
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.parse_factor()
        if c == "(":
            self.pos += 1
            value = self.parse_expr()
            self.skip_ws()
            if self.peek() != ")":
                raise ScalarParseError("expected ')'", self.pos)
            self.pos += 1
            return value
        if self.text.startswith("sqrt", self.pos):
            self.pos += 4
            self.skip_ws()
            if self.peek() != "(":
                raise ScalarParseError("expected '(' after sqrt", self.pos)
            self.pos += 1
            arg = self.parse_expr()
            self.skip_ws()
            if self.peek() != ")":
                raise ScalarParseError("expected ')'", self.pos)
            self.pos += 1
            return self.ctx.sqrt(arg)
        if c.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return self.ctx.rat(int(self.text[start : self.pos]))
        raise ScalarParseError("expected a number, sqrt(...), or '('", self.pos)

