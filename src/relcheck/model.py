"""The canonical structures over the tower field and their exact evaluators.

Observers are timelike lines (plus spacelike lines in the FTL structure);
signals are future-directed null segments, with events the degenerate
ones.  Every defined predicate of the language gets a total geometric
decision procedure here; the verifier cross-checks these against the
definitional expansions.  All values are immutable and all evaluators
pure, so everything here can run concurrently (per-worker scalar
contexts).
"""

from __future__ import annotations

import enum
import json
from typing import Iterator, Optional, Sequence

from relcheck.minkowski import (
    IntervalClass,
    Line,
    Segment,
    Vec4,
    classify,
    inner,
    lam,
    lines_intersect,
    quotient_inner,
    quotient_lift,
    quotient_norm,
    tarski_bw_f,
)
from relcheck.scalar import Scalar, ScalarContext


class ModelError(Exception):
    pass


class UnsupportedPredicate(ModelError):
    """The predicate's reading is only meaningful for STL observers."""


class ModelKind(enum.Enum):
    STL_ONLY = "stl"
    FTL = "ftl"

    def allows(self, cls: IntervalClass) -> bool:
        if cls is IntervalClass.TIMELIKE:
            return True
        if cls is IntervalClass.SPACELIKE:
            return self is ModelKind.FTL
        return False


def event(p: Vec4) -> Segment:
    return Segment(p, p)


def is_event(s: Segment) -> bool:
    return s.is_degenerate()


def transmits(a: Line, s: Segment) -> bool:
    return a.contains(s.beg)


def receives(a: Line, s: Segment) -> bool:
    return a.contains(s.end)


# --- elementary relations between observers ----------------------------------


def meets(a: Line, b: Line) -> bool:
    return lines_intersect(a, b) is not None


def parallel(a: Line, b: Line) -> bool:
    """Identical, or coplanar and disjoint; for lines this is equal canonical
    direction, which equal lines have too."""
    return a.dir == b.dir


def coplanar(a: Line, b: Line) -> bool:
    """Two lines of affine 4-space lie in one plane iff they are parallel
    or they meet."""
    return parallel(a, b) or meets(a, b)


# --- events -------------------------------------------------------------------


def lightlike(e1: Segment, e2: Segment) -> bool:
    """Relation L: a (possibly degenerate) future signal from e1 to e2."""
    if not (is_event(e1) and is_event(e2)):
        return False
    d = e2.beg - e1.beg
    return lam(d).is_zero() and d.x0.sign() >= 0


def light_between(e1: Segment, e2: Segment) -> bool:
    return lightlike(e1, e2) or lightlike(e2, e1)


def chron_precedes(e1: Segment, e2: Segment) -> bool:
    if not (is_event(e1) and is_event(e2)):
        return False
    d = e2.beg - e1.beg
    return lam(d).sign() < 0 and d.x0.sign() > 0


# --- null connections between a point and a line ------------------------------


def null_links(p: Vec4, line: Line) -> Iterator[Vec4]:
    """The null vectors v with p + v on the line (0, 1, or 2 of them), in
    `null_gap_params` root order; the zero vector when p is on the line.

    The line must not be lightlike.  The roots are solved at the first
    `next`, which may extend the scalar chain by one square root.
    """
    u = line.base - p
    for r in null_gap_params(u, line.dir):
        yield u + line.dir.scale(r)


def first_null_link(p: Vec4, line: Line, future: bool) -> Optional[Vec4]:
    """The first of `null_links(p, line)` pointing to the future (x0 >= 0),
    or to the past (x0 <= 0) when `future` is false; None if there is none."""
    for v in null_links(p, line):
        s = v.x0.sign()
        if (s >= 0) if future else (s <= 0):
            return v
    return None


def count_future_null_to_line(p: Vec4, line: Line) -> int:
    """Number of future null segments with Beg = p and End on the line.

    Exact and sqrt-free: root time-components are signed through Vieta's
    relations, so repeated counting cannot grow the scalar chain.
    """
    d = line.dir
    u = line.base - p
    a = lam(d)
    b = inner(u, d) * 2
    c = lam(u)
    disc = b * b - a * c * 4
    sd = disc.sign()
    if sd < 0:
        return 0
    u0, d0 = u.x0, d.x0
    if sd == 0:
        t = -b / (a * 2)
        v0 = u0 + t * d0
        sv = v0.sign()
        if sv > 0:
            return 1
        if sv == 0:
            # null with zero time component: the zero vector, p on the line
            return 1
        return 0
    # two roots t1 < t2: signs of u0 + ti*d0 via sum and product
    total = u0 * 2 + d0 * (-b / a)  # v0(t1) + v0(t2)
    prod = u0 * u0 + u0 * d0 * (-b / a) + d0 * d0 * (c / a)
    sp = prod.sign()
    st = total.sign()
    if sp > 0:
        return 2 if st > 0 else 0
    if sp < 0:
        return 1
    # one root has v0 == 0, i.e. p on the line; the other contributes st
    return 1 + (1 if st > 0 else 0)


def witness_zero_and_two(line: Line) -> Optional[tuple[Vec4, Vec4]]:
    """For a non-timelike line: an event with 0 and one with 2 future
    connections ending on the line (None for timelike lines)."""
    if line.interval_class is IntervalClass.TIMELIKE:
        return None
    ctx = line.ctx
    d = line.dir
    # spacelike offset orthogonal to d: some coordinate vector's rejection
    w_space = None
    w_time = None
    for i in (1, 2, 3, 0):
        e_i = Vec4.of(ctx, *[1 if j == i else 0 for j in range(4)])
        w = quotient_lift(e_i, d)
        if w.is_zero():
            continue
        sign = lam(w).sign()
        if sign > 0 and w_space is None:
            w_space = w
        if sign < 0 and w_time is None:
            w_time = w
    assert w_space is not None and w_time is not None
    p_zero = line.base + w_space
    if w_time.x0.sign() > 0:
        w_time = -w_time
    p_two = line.base + w_time
    assert count_future_null_to_line(p_zero, line) == 0
    assert count_future_null_to_line(p_two, line) == 2
    return p_zero, p_two


# --- betweenness / equidistance on a timelike parallel class -----------------


def _parallel_family(lines: Sequence[Line]) -> Optional[Vec4]:
    first = lines[0]
    for other in lines[1:]:
        if other.dir != first.dir:
            return None
    return first.dir


def bw_geo(a: Line, b: Line, c: Line) -> bool:
    """Quotient betweenness on a timelike parallel class (false otherwise)."""
    d = _parallel_family([a, b, c])
    if d is None or classify(d) is not IntervalClass.TIMELIKE:
        return False
    return tarski_bw_f(a.base, b.base, c.base)


def _equal_norms(a: Line, b: Line, c: Line, d: Line) -> Optional[tuple[Vec4, Scalar]]:
    """The one comparison that decides Eq, EqRho and EqFTL: the four lines
    share a direction dd, a == b exactly when c == d, and q(b - a) = q(d - c)
    in the quotient by dd.  Gives (dd, q(b - a)) when it holds, else None."""
    dd = _parallel_family([a, b, c, d])
    if dd is None or (a == b) != (c == d):
        return None
    q = quotient_norm(b.base - a.base, dd)
    return (dd, q) if q == quotient_norm(d.base - c.base, dd) else None


def eq_geo(a: Line, b: Line, c: Line, d: Line) -> bool:
    """`_equal_norms` on a timelike parallel class (false otherwise).  The
    quotient form is positive definite there, so q = 0 only for equal lines
    and equal norms already give a == b exactly when c == d."""
    return a.interval_class is IntervalClass.TIMELIKE and _equal_norms(a, b, c, d) is not None


# --- simultaneity and frame time ----------------------------------------------


def sim_geo(c: Line, e1: Segment, e2: Segment) -> bool:
    if c.interval_class is not IntervalClass.TIMELIKE:
        raise UnsupportedPredicate("Sim requires a slower-than-light observer")
    if not (is_event(e1) and is_event(e2)):
        return False
    return inner(e2.beg - e1.beg, c.dir).is_zero()


def delta_geo(a: Line, a0: Segment, a1: Segment, b0: Segment, b1: Segment) -> bool:
    if a.interval_class is not IntervalClass.TIMELIKE:
        raise UnsupportedPredicate("Delta requires a slower-than-light observer")
    if not all(is_event(x) for x in (a0, a1, b0, b1)):
        return False
    ga = inner(a1.beg - a0.beg, a.dir)
    gb = inner(b1.beg - b0.beg, a.dir)
    return ga * ga == gb * gb


def sim_project(a: Line, e: Segment) -> Vec4:
    """The unique point x on a with <e - x, dir> == 0 (a not lightlike)."""
    d = a.dir
    t = inner(e.beg - a.base, d) / lam(d)
    return a.at(t)


def tau_geo(b: Line, e1: Segment, e2: Segment) -> Optional[Line]:
    """The observer c = tau_b(e1, e2), or None when the preconditions fail.

    It also decides TauFTL: the transmitter of two <<-ordered events is
    forced timelike, so the FTL reading has the same solution."""
    if not chron_precedes(e1, e2):
        return None
    a = Line.through(e1.beg, e2.beg)
    if a.interval_class is not IntervalClass.TIMELIKE:
        return None
    if not parallel(b, a) or b == a:
        return None
    gap_sq = -lam(e2.beg - e1.beg)  # squared frame time along a
    offset = a.base - b.base
    qn = quotient_norm(offset, a.dir)
    assert qn.sign() > 0
    ctx = b.ctx
    t = ctx.sqrt(gap_sq / qn)
    c_base = a.base + offset.scale(t)
    return Line(c_base, a.dir)


# --- relatability, optical planes, and the rho-generalized relations ----------


def _null_conic(a: Line, b: Line):
    """(A, B, D, l2, lin, const) for the null conic of a and b, or None when
    no null segment connects them.

    With u = b - a, f(s,t) = lam(u + t b.dir - s a.dir) = A s^2 + B s t +
    C t^2 + D s + E t + F, and A != 0 for observers.  A zero exists iff the
    s-discriminant l2 t^2 + lin t + const is somewhere >= 0.
    """
    u = b.base - a.base
    A, B, C = lam(a.dir), -(inner(a.dir, b.dir) * 2), lam(b.dir)
    D, E, F = -(inner(u, a.dir) * 2), inner(u, b.dir) * 2, lam(u)
    l2 = B * B - A * C * 4
    lin = B * D * 2 - A * E * 4
    const = D * D - A * F * 4
    sl = l2.sign()
    if sl == 0:
        found = not lin.is_zero() or const.sign() >= 0
    else:
        # a downward parabola has its maximum value at the vertex
        found = sl > 0 or (const - lin * lin / (l2 * 4)).sign() >= 0
    return (A, B, D, l2, lin, const) if found else None


def rho(a: Line, b: Line) -> bool:
    """Some null segment connects a point of a with a point of b."""
    return _null_conic(a, b) is not None


def rho_witness(a: Line, b: Line) -> Optional[tuple[Vec4, Vec4]]:
    """A null-connected point pair (p on a, q on b), constructed exactly."""
    conic = _null_conic(a, b)
    if conic is None:
        return None
    A, B, D, l2, lin, const = conic
    ctx = a.ctx

    def disc_at(t: Scalar) -> Scalar:
        return l2 * t * t + lin * t + const

    t = None
    if l2.sign() < 0:
        t = -lin / (l2 * 2)
    else:
        for cand in range(0, 40):
            for sign in (1, -1):
                probe = ctx.rat(cand * sign)
                if disc_at(probe).sign() >= 0:
                    t = probe
                    break
            if t is not None:
                break
        if t is None:
            # disc >= 0 only beyond the probed integers.  rho holds, so l2 > 0
            # or lin != 0.  For l2 > 0, disc has its minimum vmin at the
            # vertex, and k past it disc = l2*k^2 + vmin >= 0 once k >= 1 and
            # k >= -vmin/l2.  A linear disc is 0 at its root.
            if l2.sign() > 0:
                k = -(const - lin * lin / (l2 * 4)) / l2
                t = -lin / (l2 * 2) + (k if k > 1 else ctx.one)
            else:
                t = -const / lin
    dsc = disc_at(t)
    assert dsc.sign() >= 0
    root = ctx.sqrt(dsc)
    s = (-(B * t + D) + root) / (A * 2)
    p = a.at(s)
    q = b.at(t)
    assert lam(q - p).is_zero()
    return p, q


def optical_plane(a: Line, b: Line) -> bool:
    """Distinct parallel lines of a spacelike class with q(b - a) = 0.  Their
    offset's lift is never zero: b - a = k*d would give k = 0 at the pivot
    coordinate, where canonical bases are 0 and d is 1, so a == b."""
    if not parallel(a, b) or a == b:
        return False
    d = a.dir
    if classify(d) is not IntervalClass.SPACELIKE:
        return False
    return quotient_norm(b.base - a.base, d).is_zero()


def null_gap_params(u: Vec4, d: Vec4) -> list[Scalar]:
    """Exact r with lam(u + r d) == 0 (for parallel-line event solving)."""
    ctx = u.ctx
    a = lam(d)
    b = inner(u, d) * 2
    c = lam(u)
    disc = b * b - a * c * 4
    s = disc.sign()
    if s < 0:
        return []
    if s == 0:
        return [-b / (a * 2)]
    r = ctx.sqrt(disc)
    return [(-b - r) / (a * 2), (-b + r) / (a * 2)]


def bw_rho(a: Line, b: Line, c: Line) -> bool:
    """Betweenness by null-signal triangles on any common direction class.

    v_ab, v_bc and v_ac = v_ab + v_bc are null, so v_ab and v_bc are orthogonal
    null vectors, hence parallel, and the time signs give v_ab = t*v_ac with
    0 <= t <= 1.  Canonical bases (pivot coordinate 0) differ by a multiple of
    d only when equal: the bases are between, and c.base - a.base + F*d is null.
    """
    d = _parallel_family([a, b, c])
    if d is None or not tarski_bw_f(a.base, b.base, c.base):
        return False
    return (lam(d) * quotient_norm(c.base - a.base, d)).sign() <= 0


def eq_rho(a: Line, b: Line, c: Line, d: Line) -> bool:
    """`_equal_norms` and lam(dd)*q <= 0, the sign test of `bw_rho`.  The
    printed cases are a = b & c = d (q = 0 on both pairs); OP(a,b) & OP(c,d),
    which is q = 0 for distinct lines of a spacelike class; and strict
    relatability of both pairs, lam(dd)*q < 0, with equal norms.  On a
    timelike class q = 0 only for equal lines, so q = 0 with a != b is OP."""
    got = _equal_norms(a, b, c, d)
    return got is not None and (lam(got[0]) * got[1]).sign() <= 0


def sim_ftl(c: Line, e1: Segment, e2: Segment) -> bool:
    """Simultaneity for any observer class: orthogonality plus the
    witness-pair realizability condition, or e1 = e2 (any signal)."""
    if e1 == e2:
        return True
    if not (is_event(e1) and is_event(e2)):
        return False
    u = e2.beg - e1.beg
    if not inner(u, c.dir).is_zero():
        return False
    cls = c.interval_class
    if cls is IntervalClass.TIMELIKE:
        return True
    # spacelike class: the two witness events must be distinct, which needs
    # the separation to be strictly timelike
    return lam(u).sign() < 0


def _simftl_partner(a: Line, s: Segment) -> Optional[Segment]:
    """The one signal p that a transmits with SimFTL(a, s, p), or None.  For
    an event s it is the event of a at `sim_project`, when `sim_ftl` holds;
    a signal that is not an event is SimFTL-related to itself alone."""
    if not is_event(s):
        return s if transmits(a, s) else None
    p = event(sim_project(a, s))
    return p if sim_ftl(a, s, p) else None


def delta_ftl(a: Line, a0: Segment, a1: Segment, b0: Segment, b1: Segment) -> bool:
    """The DeltaFTL definition with each primed signal fixed to the one
    `_simftl_partner` of its argument.  Lsym holds only between events, so
    with an argument that is not an event only the first disjunct, a0p = a1p
    & b0p = b1p, can hold.  Four events need equal squared frame times, and
    a partner each, which they always have on a timelike a."""
    args = (a0, a1, b0, b1)
    if not all(is_event(x) for x in args):
        p0, p1, q0, q1 = (_simftl_partner(a, x) for x in args)
        return p0 is not None and q0 is not None and p0 == p1 and q0 == q1
    if a.interval_class is IntervalClass.TIMELIKE:
        return delta_geo(a, *args)
    # spacelike a: each event needs a realizable SimFTL projection onto a
    for e in args:
        u = e.beg - sim_project(a, e)
        if not (u.is_zero() or lam(u).sign() < 0):
            return False
    ga = inner(a1.beg - a0.beg, a.dir)
    gb = inner(b1.beg - b0.beg, a.dir)
    return ga * ga == gb * gb


# --- the relatable dual --------------------------------------------------------


def dual_candidates(a: Line, b: Line) -> list[Line]:
    """In-plane dual candidates of a with respect to b (future-signed first).

    Empty unless a || b, spacelike class, and not relatable.  The printed
    clauses admit a one-parameter family; the two candidates here span the
    timelike plane through the quotient offset.
    """
    if not parallel(a, b) or a == b:
        return []
    d = a.dir
    if classify(d) is not IntervalClass.SPACELIKE:
        return []
    u = b.base - a.base
    bigU = quotient_lift(u, d)
    if bigU.is_zero() or quotient_norm(u, d).sign() <= 0:
        return []  # relatable (or same quotient class): no dual
    ctx = a.ctx
    e0 = Vec4.of(ctx, 1, 0, 0, 0)
    t_raw = quotient_lift(e0, d)
    t_vec = t_raw - bigU.scale(inner(t_raw, bigU) / lam(bigU))
    assert lam(t_vec).sign() < 0
    ratio = -(lam(t_vec)) / lam(bigU)
    rho_hat = ctx.sqrt(ratio)
    out = []
    for sign in (1, -1):
        n = bigU.scale(rho_hat * ctx.rat(sign)) + t_vec
        kappa = lam(bigU) / inner(bigU, n)
        shift = n.scale(kappa)
        out.append(Line(a.base + shift, d))
    out.sort(key=lambda line: 0 if (line.base - a.base).x0.sign() >= 0 else 1)
    return out


def dual_geo(ap: Line, a: Line, b: Line) -> bool:
    """Dual(ap, a, b) in closed form, for the whole one-parameter family of
    duals.  On one spacelike class d, with u = b - a and n = ap - a in the
    quotient: !Rho(a, b) is q(u) > 0; OP(a, ap) is q(n) = 0 with ap != a;
    OP(b, m) for the midline m is q(n/2 - u) = 0, i.e. <n, u> = q(u), which
    with q(u) > 0 also gives ap != a; and BwRho(a, m, ap) always holds
    (canonical bases give t = 1/2, q(n) = 0)."""
    d = a.dir
    if not (b.dir == d == ap.dir) or classify(d) is not IntervalClass.SPACELIKE:
        return False
    u = b.base - a.base
    n = ap.base - a.base
    qu = quotient_norm(u, d)
    return qu.sign() > 0 and quotient_norm(n, d).is_zero() and quotient_inner(n, u, d) == qu


def bw_ftl(a: Line, b: Line, c: Line) -> bool:
    if bw_rho(a, b, c):
        return True
    for a2 in dual_candidates(a, b):
        for c2 in dual_candidates(c, b):
            if bw_rho(a2, b, c2):
                return True
    return False


def eq_ftl(a: Line, b: Line, c: Line, d: Line) -> bool:
    """EqRho(a, b, c, d), or EqRho(a, b2, c, d2) for some dual b2 of b w.r.t.
    a and d2 of d w.r.t. c.  Decided without building a dual: every dual b2
    has q(b2 - a) = -q(b - a) < 0, so the second disjunct can hold only in
    eq_rho's strict-rho case, and it holds iff q(b - a) = q(d - c) > 0 on one
    common spacelike class, whichever family members are taken.  eq_rho
    covers q <= 0 there and every q on a timelike class (lam < 0 <= q), so
    the union is `_equal_norms` alone."""
    return _equal_norms(a, b, c, d) is not None


# --- scenarios -----------------------------------------------------------------


class Scenario:
    """Named observers and signals over one scalar context."""

    def __init__(
        self,
        kind: ModelKind,
        ctx: ScalarContext,
        observers: dict[str, Line],
        signals: dict[str, Segment],
    ) -> None:
        self.kind = kind
        self.ctx = ctx
        self.observers = observers
        self.signals = signals

    @staticmethod
    def from_dict(data: dict, ctx: Optional[ScalarContext] = None) -> "Scenario":
        ctx = ctx or ScalarContext()
        if not isinstance(data, dict):
            raise ModelError("a scenario must be a JSON object")
        kind_text = data.get("kind")
        if kind_text not in ("stl", "ftl"):
            raise ModelError(f"unknown model kind {kind_text!r} (want 'stl' or 'ftl')")
        kind = ModelKind.STL_ONLY if kind_text == "stl" else ModelKind.FTL
        observers: dict[str, Line] = {}
        for name, entry in _entries(data, "observers", "observer"):
            base = _vec(ctx, entry, "base", f"observer {name!r}")
            direction = _vec(ctx, entry, "dir", f"observer {name!r}")
            if direction.is_zero():
                raise ModelError(f"observer {name!r}: direction is zero")
            line = Line(base, direction)
            cls = line.interval_class
            if cls is IntervalClass.LIGHTLIKE:
                raise ModelError(f"observer {name!r}: direction is lightlike")
            if not kind.allows(cls):
                raise ModelError(
                    f"observer {name!r}: {cls.value} worldline not allowed in the"
                    f" {kind_text} structure"
                )
            observers[name] = line
        signals: dict[str, Segment] = {}
        for name, entry in _entries(data, "signals", "signal"):
            beg = _vec(ctx, entry, "beg", f"signal {name!r}")
            end = _vec(ctx, entry, "end", f"signal {name!r}")
            if not lam(end - beg).is_zero():
                raise ModelError(f"signal {name!r}: endpoints are not null separated")
            if (end - beg).x0.sign() < 0:
                raise ModelError(f"signal {name!r}: past-directed (end before beg)")
            signals[name] = Segment(beg, end)
        return Scenario(kind, ctx, observers, signals)

    @staticmethod
    def load(path: str, ctx: Optional[ScalarContext] = None) -> "Scenario":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ModelError(f"{path}: not valid JSON: {err}") from err
        return Scenario.from_dict(data, ctx)


def _entries(data: dict, key: str, what: str) -> list[tuple[str, dict]]:
    """The named entries of `data[key]`, each checked to be a JSON object."""
    table = data.get(key) or {}
    if not isinstance(table, dict):
        raise ModelError(f"{key!r} must be an object of named {what}s")
    for name, entry in table.items():
        if not isinstance(entry, dict):
            raise ModelError(f"{what} {name!r} must be an object")
    return list(table.items())


def _vec(ctx: ScalarContext, entry: dict, key: str, what: str) -> Vec4:
    arr = entry.get(key)
    if not isinstance(arr, list) or len(arr) != 4:
        raise ModelError(f"{what}: {key!r} must be an array of 4 scalar strings")
    coords = []
    for i, text in enumerate(arr):
        try:
            coords.append(ctx.parse(str(text)))
        except Exception as err:
            raise ModelError(f"{what}: {key}[{i}] = {text!r}: {err}") from err
    return Vec4(*coords)


GEOMETRIC_PREDICATES = {
    "Ev": lambda args: is_event(args[0]),
    "M": lambda args: meets(args[0], args[1]),
    "Cop": lambda args: coplanar(args[0], args[1]),
    "Par": lambda args: parallel(args[0], args[1]),
    "L": lambda args: lightlike(args[0], args[1]),
    "Lsym": lambda args: light_between(args[0], args[1]),
    "Bw": lambda args: bw_geo(args[0], args[1], args[2]),
    "Eq": lambda args: eq_geo(args[0], args[1], args[2], args[3]),
    "Sim": lambda args: sim_geo(args[0], args[1], args[2]),
    "Delta": lambda args: delta_geo(*args),
    "Prec": lambda args: chron_precedes(args[0], args[1]),
    "STL": lambda args: args[0].interval_class is IntervalClass.TIMELIKE,
    "Lightspeed": lambda args: args[0].interval_class is IntervalClass.LIGHTLIKE,
    "FTL": lambda args: args[0].interval_class is IntervalClass.SPACELIKE,
    "TR": lambda args: transmits(args[0], args[1]) or receives(args[0], args[1]),
    "Rho": lambda args: rho(args[0], args[1]),
    "OP": lambda args: optical_plane(args[0], args[1]),
    "BwRho": lambda args: bw_rho(args[0], args[1], args[2]),
    "EqRho": lambda args: eq_rho(*args),
    "BwFTL": lambda args: bw_ftl(args[0], args[1], args[2]),
    "EqFTL": lambda args: eq_ftl(*args),
    "SimFTL": lambda args: sim_ftl(args[0], args[1], args[2]),
    "DeltaFTL": lambda args: delta_ftl(*args),
    "Dual": lambda args: dual_geo(args[0], args[1], args[2]),
    # tau_geo gives None when its preconditions fail, and None equals no line
    "Tau": lambda args: tau_geo(args[1], args[2], args[3]) == args[0],
    "TauFTL": lambda args: tau_geo(args[1], args[2], args[3]) == args[0],
}
