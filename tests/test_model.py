import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcheck import model
from relcheck.minkowski import (
    IntervalClass,
    Line,
    PoincareMap,
    Segment,
    Vec4,
    classify,
    inner,
    lam,
    quotient_inner,
    quotient_lift,
    quotient_norm,
)
from relcheck.model import (
    GEOMETRIC_PREDICATES,
    ModelError,
    ModelKind,
    Scenario,
    UnsupportedPredicate,
    bw_ftl,
    bw_geo,
    bw_rho,
    chron_precedes,
    coplanar,
    count_future_null_to_line,
    delta_ftl,
    delta_geo,
    dual_candidates,
    dual_geo,
    eq_ftl,
    eq_geo,
    eq_rho,
    event,
    first_null_link,
    is_event,
    light_between,
    lightlike,
    meets,
    null_gap_params,
    null_links,
    optical_plane,
    parallel,
    receives,
    rho,
    sim_ftl,
    sim_geo,
    sim_project,
    tau_geo,
    transmits,
    witness_zero_and_two,
)
from relcheck.scalar import DomainError, ScalarContext
from relcheck.verifier import definitional as de
from relcheck.verifier.report import Budget, sub_seed
from relcheck.verifier.suites import PRED_GENERATORS, ClassFrame
from relcheck.verifier.generators import ConfigGen


def v(ctx, *vals):
    return Vec4.of(ctx, *vals)


def vertical(ctx, x1=0, x2=0, x3=0):
    return Line(v(ctx, 0, x1, x2, x3), v(ctx, 1, 0, 0, 0))


def test_incidence_known_cases():
    ctx = ScalarContext()
    a = vertical(ctx)

    def incidence(s):
        return transmits(a, s), receives(a, s)

    assert incidence(Segment(v(ctx, 0, 0, 0, 0), v(ctx, 1, 1, 0, 0))) == (True, False)
    assert incidence(Segment(v(ctx, 1, 1, 0, 0), v(ctx, 2, 0, 0, 0))) == (False, True)
    assert incidence(event(v(ctx, 3, 0, 0, 0))) == (True, True)
    assert incidence(Segment(v(ctx, 0, 5, 0, 0), v(ctx, 1, 6, 0, 0))) == (False, False)


def test_is_event():
    ctx = ScalarContext()
    assert is_event(event(v(ctx, 0, 0, 0, 0)))
    assert not is_event(Segment(v(ctx, 0, 0, 0, 0), v(ctx, 1, 1, 0, 0)))


def test_meets_parallel_coplanar_known_cases():
    ctx = ScalarContext()
    a = vertical(ctx, 0)
    b = vertical(ctx, 1)
    assert parallel(a, b) and not meets(a, b)
    boosted = Line(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    assert meets(a, boosted) and not parallel(a, boosted)
    # skew timelike lines: offset in x2, tilted in x1 -> not coplanar
    skew = Line(v(ctx, 0, 0, 1, 0), v(ctx, 2, 1, 0, 0))
    assert not coplanar(a, skew)
    assert coplanar(a, b)
    assert parallel(a, a)


def _rank(vectors):
    """Rank of rational 4-vectors by Gaussian elimination on Fractions."""
    rows = [[x.as_fraction() for x in vec] for vec in vectors]
    rank = 0
    for col in range(4):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_nonzero = st.lists(_small, min_size=4, max_size=4).filter(any)


@settings(max_examples=150, deadline=None)
@given(st.lists(_small, min_size=4, max_size=4), _nonzero, _nonzero, _nonzero, _small,
       st.sampled_from(range(4)))
def test_coplanar_matches_rank_reference(base, d1, d2, off, t, build):
    ctx = ScalarContext()
    p, u, w, o = v(ctx, *base), v(ctx, *d1), v(ctx, *d2), v(ctx, *off)
    a = Line(p, u)
    # 0: identical, 1: parallel through p + o, 2: crossing at a.at(t),
    # 3: through p + o along w (skew unless o and w happen to fit)
    b = [Line(a.at(ctx.rat(t)), u.scale(ctx.rat(-2))), Line(p + o, u),
         Line(a.at(ctx.rat(t)), w), Line(p + o, w)][build]
    expect = _rank([a.dir, b.dir, b.base - a.base]) <= 2
    assert coplanar(a, b) == expect == coplanar(b, a)
    if build < 3:
        assert expect


def test_lightlike_known_cases():
    ctx = ScalarContext()
    o = event(v(ctx, 0, 0, 0, 0))
    p = event(v(ctx, 1, 1, 0, 0))
    assert lightlike(o, p)
    assert not lightlike(p, o)
    assert light_between(o, p) and light_between(p, o)
    assert lightlike(o, o)
    assert not lightlike(o, event(v(ctx, 2, 1, 0, 0)))


def test_bw_eq_geo_known_cases():
    ctx = ScalarContext()
    a, b, c = vertical(ctx, 0), vertical(ctx, 1), vertical(ctx, 2)
    assert bw_geo(a, b, c)
    assert not bw_geo(a, c, b)
    assert bw_geo(a, a, c)
    d = vertical(ctx, 3), vertical(ctx, 4)
    assert eq_geo(a, b, *d)
    assert not eq_geo(a, c, *d)


def test_sim_geo_known_cases_and_diamond_oracle():
    ctx = ScalarContext()
    c = vertical(ctx)
    e1 = event(v(ctx, 1, 1, 0, 0))
    e2 = event(v(ctx, 1, -1, 0, 0))
    assert sim_geo(c, e1, e2)
    assert not sim_geo(c, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 1, 0, 0, 0)))
    assert sim_geo(c, e1, e1)
    # oracle: construct the four-signal diamond witness explicitly
    assert _diamond_exists(c, e1, e2)
    assert not _diamond_exists(c, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 1, 0, 0, 0)))


def _diamond_exists(c, e1, e2):
    ctx = c.ctx
    u = e2.beg - e1.beg
    if u.is_zero():
        return True
    if not inner(u, c.dir).is_zero():
        # try to refute by construction: no common apex can close both legs
        return False
    m4 = (e1.beg + e2.beg).scale(ctx.rat(1, 2))
    s_sq = -(lam(u)) / (lam(c.dir) * 4)
    if s_sq.sign() < 0:
        return False
    s = ctx.sqrt(s_sq)
    for down in (s, -s):
        x = m4 + c.dir.scale(down)
        y = m4 - c.dir.scale(down)
        legs = [e1.beg - x, e2.beg - x, y - e1.beg, y - e2.beg]
        if all(lam(w).is_zero() for w in legs) and all(
            w.x0.sign() >= 0 for w in legs
        ):
            return True
    return False


def test_sim_geo_requires_timelike():
    ctx = ScalarContext()
    spacelike = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0))
    with pytest.raises(UnsupportedPredicate):
        sim_geo(spacelike, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 1, 0, 0, 0)))


def test_delta_geo_known_cases():
    ctx = ScalarContext()
    a = vertical(ctx)
    ev = lambda *c: event(v(ctx, *c))
    assert delta_geo(a, ev(0, 0, 0, 0), ev(3, 0, 0, 0), ev(5, 0, 0, 0), ev(8, 0, 0, 0))
    assert not delta_geo(a, ev(0, 0, 0, 0), ev(3, 0, 0, 0), ev(0, 0, 0, 0), ev(4, 0, 0, 0))
    # off-worldline events project onto a before comparing
    assert delta_geo(a, ev(0, 7, 0, 0), ev(3, 9, 0, 0), ev(0, 0, 0, 0), ev(3, 0, 0, 0))


def test_chron_precedes_known_cases_and_two_hop_witness():
    ctx = ScalarContext()
    o = event(v(ctx, 0, 0, 0, 0))
    p = event(v(ctx, 2, 1, 0, 0))
    assert chron_precedes(o, p)
    assert not chron_precedes(o, event(v(ctx, 1, 1, 0, 0)))
    assert not chron_precedes(p, o)
    # the two-hop witness from the null chain construction
    m = v(ctx, Fraction(3, 2), Fraction(3, 2), 0, 0)
    assert lam(m - o.beg).is_zero()
    assert lam(p.beg - m).is_zero()
    assert (p.beg - m).x0.sign() > 0


def test_observer_class_known_cases():
    ctx = ScalarContext()
    for dx, cls in ((0, "STL"), (1, "Lightspeed"), (2, "FTL")):
        line = Line(v(ctx, 0, 0, 0, 0), v(ctx, 1, dx, 0, 0))
        got = {name for name in ("STL", "Lightspeed", "FTL") if GEOMETRIC_PREDICATES[name]([line])}
        assert got == {cls}


def test_stl_counting_and_witnesses():
    ctx = ScalarContext()
    timelike = Line(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    assert witness_zero_and_two(timelike) is None
    rng = random.Random(8)
    for _ in range(50):
        p = v(ctx, *(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)))
        assert count_future_null_to_line(p, timelike) == 1
    spacelike = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0))
    pz, pt = witness_zero_and_two(spacelike)
    assert count_future_null_to_line(pz, spacelike) == 0
    assert count_future_null_to_line(pt, spacelike) == 2
    # a concrete pair on a spacelike line
    assert count_future_null_to_line(v(ctx, -3, 0, 5, 0), spacelike) == 0
    assert count_future_null_to_line(v(ctx, -5, 0, 3, 0), spacelike) == 2


def test_null_links_solve_the_gap_quadratic():
    """null_links on seeded (event, observer) pairs of both classes, one in
    five with the event on the line: every link is null and ends on the line,
    in null_gap_params order; the future links are the sqrt-free count; and
    first_null_link picks the first future or past link of that list."""
    from relcheck.verifier.generators import ConfigGen

    future_counts = set()
    for seed in range(400):
        gen = ConfigGen(seed, 8)
        line = gen.timelike_line() if seed % 2 else gen.spacelike_line()
        on_line = seed % 5 == 0
        p = gen.event_on(line).beg if on_line else gen.point()
        links = list(null_links(p, line))
        assert links == [line.at(r) - p for r in null_gap_params(line.base - p, line.dir)]
        for w in links:
            assert lam(w).is_zero() and line.contains(p + w)
        if on_line:
            assert any(w.is_zero() for w in links)
        future = [w for w in links if w.x0.sign() >= 0]
        past = [w for w in links if w.x0.sign() <= 0]
        assert len(future) == count_future_null_to_line(p, line), seed
        assert first_null_link(p, line, future=True) == (future[0] if future else None)
        assert first_null_link(p, line, future=False) == (past[0] if past else None)
        future_counts.add(len(future))
    assert future_counts == {0, 1, 2}


def test_tau_geo_fixture_and_3d_case():
    ctx = ScalarContext()
    e1 = event(v(ctx, 0, 0, 0, 0))
    e2 = event(v(ctx, 2, 0, 0, 0))
    b = vertical(ctx, x1=-1)
    c = tau_geo(b, e1, e2)
    assert c == vertical(ctx, x1=2)
    # the tau observer carries a null signal from its Sim_a(., e1) point to e2
    start = sim_project(c, e1)
    assert lam(e2.beg - start).is_zero()
    assert tau_geo(b, e1, e1) is None
    b3 = vertical(ctx, x2=-1)
    assert tau_geo(b3, e1, e2) == vertical(ctx, x2=2)


def test_tau_geo_preconditions():
    ctx = ScalarContext()
    e1 = event(v(ctx, 0, 0, 0, 0))
    e2 = event(v(ctx, 2, 0, 0, 0))
    a = vertical(ctx)
    assert tau_geo(a, e1, e2) is None  # b must differ from a
    tilted = Line(v(ctx, 0, 5, 0, 0), v(ctx, 2, 1, 0, 0))
    assert tau_geo(tilted, e1, e2) is None  # b must be parallel to a


def test_rho_known_cases():
    ctx = ScalarContext()
    assert rho(vertical(ctx, 0), vertical(ctx, 5))
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    far = Line(v(ctx, 0, 0, 5, 0), d)
    assert not rho(a, far)
    tangent = Line(v(ctx, 1, 0, 1, 0), d)
    assert rho(a, tangent)
    assert optical_plane(a, tangent)
    assert not optical_plane(a, far)
    assert not optical_plane(vertical(ctx, 0), vertical(ctx, 5))
    for b in (vertical(ctx, 0), vertical(ctx, 5)):
        _assert_rho_def(vertical(ctx, 0), b, ModelKind.STL_ONLY)
    for b in (far, tangent):
        _assert_rho_def(a, b, ModelKind.FTL)
    # x and y span a spacelike plane (l2 < 0).  The null offset (1, 0, 0, 1)
    # orthogonal to it meets the null cone once, at the vertex, where h = 0;
    # (1, 0, 0, 2) misses it and (2, 0, 0, 1) crosses it
    x = Line(v(ctx, 0, 0, 0, 0), d)
    for base, want in (((1, 0, 0, 1), True), ((1, 0, 0, 2), False), ((2, 0, 0, 1), True)):
        y = Line(v(ctx, *base), v(ctx, 0, 0, 1, 0))
        assert rho(x, y) == want and _t_branch(x, y) == "l2 < 0"
        _assert_rho_def(x, y, ModelKind.FTL)


def _assert_rho_def(a, b, kind):
    """rho_def's status is model.rho's, computed first, and a TRUE witness
    is an event on both lines or a null segment with one end on each."""
    want = rho(a, b)
    got = de.rho_def(a, b, kind)
    assert got.is_true() == want and (got.is_true() or got.is_false()), (a, b)
    if want:
        g = got.witness["g"]  # the Segment constructor checked null and future
        assert (a.contains(g.beg) or a.contains(g.end)) and (b.contains(g.beg) or b.contains(g.end))


def _t_branch(a, b):
    """Which closed form rho_def takes t from: the sign of l2, the t^2
    coefficient of the s-discriminant, else whether l1 is zero."""
    u = b.base - a.base
    A, B, C = lam(a.dir), -(inner(a.dir, b.dir) * 2), lam(b.dir)
    D, E = -(inner(u, a.dir) * 2), inner(u, b.dir) * 2
    l2, l1 = B * B - A * C * 4, (B * D - A * E * 2) * 2
    if l2.sign():
        return "l2 > 0" if l2.sign() > 0 else "l2 < 0"
    return "l2 = l1 = 0" if l1.is_zero() else "l2 = 0 != l1"


def test_rho_def_witness_on_every_branch_of_t():
    """On the Rho generator's pairs at seeds 0-1 and on 121 seeded pairs of
    random directions or of two spacelike directions spanning a null plane,
    rho_def agrees with model.rho, its witness holds, and every branch of t
    is reached.  The first seeded pair, Rho case 2 of the FTL equivalence
    item at ConfigGen(5059949114506954519, 8), has a discriminant in t that
    is >= 0 only for |t| > 39; it once crashed a search over integer t."""
    branches = collections.Counter()
    for seed in range(2):
        for kind in (ModelKind.STL_ONLY, ModelKind.FTL):
            for i in range(200):
                gen = ConfigGen(sub_seed(seed, "equiv", "Rho", i), Budget().coordinate_bound)
                a, b = PRED_GENERATORS["Rho"](gen, kind, i)
                _assert_rho_def(a, b, kind)
                branches[_t_branch(a, b)] += 1
                assert a.dir != b.dir or _t_branch(a, b) == "l2 = l1 = 0"
    rng = random.Random(3)
    for i in range(-1, 120):
        ctx = ScalarContext()  # one per pair, as each witness may adjoin a root
        if i < 0:
            a = Line(v(ctx, 0, 11, 2, Fraction(-29, 6)), v(ctx, 1, 5, 0, Fraction(-10, 3)))
            b = Line(v(ctx, -3, 0, 8, 3), v(ctx, 0, 1, 0, Fraction(-1, 2)))
        else:
            if i % 2:  # spacelike directions spanning a null plane: disc is linear
                a, db = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0)), v(ctx, 1, 1, 1, 0)
            else:
                r = lambda: rng.randint(-3, 3)
                a = Line(v(ctx, 0, 0, 0, 0), v(ctx, r(), 5, r(), r()))
                db = v(ctx, r(), r(), 5, r())
            b = Line(v(ctx, *(rng.randint(-400, 400) for _ in range(4))), db)
        _assert_rho_def(a, b, ModelKind.FTL)
        branches[_t_branch(a, b)] += 1
    assert set(branches) == {"l2 > 0", "l2 < 0", "l2 = 0 != l1", "l2 = l1 = 0"}, branches


def test_rho_includes_meeting_lines():
    ctx = ScalarContext()
    a = vertical(ctx)
    tilted = Line(v(ctx, 0, 0, 0, 0), v(ctx, 2, 1, 0, 0))
    assert rho(a, tilted)


def test_bw_rho_matches_bw_geo_on_timelike():
    rng = random.Random(77)
    for _ in range(100):
        ctx = ScalarContext()
        d = v(ctx, 1, Fraction(rng.randint(-2, 2), 5), Fraction(rng.randint(-2, 2), 5), 0)
        if lam(d).sign() >= 0:
            continue
        xs = sorted(rng.sample(range(-8, 9), 3))
        which = rng.choice([(0, 1, 2), (0, 2, 1), (1, 0, 2)])
        lines = [Line(v(ctx, 0, xs[i], rng.randint(-3, 3), 0), d) for i in which]
        assert bw_rho(*lines) == bw_geo(*lines)


def test_bw_rho_spacelike_chain():
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    b = Line(v(ctx, 5, 0, 5, 0), d)   # quotient-null from a
    c = Line(v(ctx, 10, 0, 10, 0), d)
    assert bw_rho(a, b, c)
    assert not bw_rho(a, c, b)
    # quotient-timelike chain
    bt = Line(v(ctx, 5, 0, 0, 0), d)
    ct = Line(v(ctx, 10, 0, 0, 0), d)
    assert bw_rho(a, bt, ct)
    assert not bw_rho(bt, a, ct)


def test_bw_rho_closed_form_matches_root_enumeration():
    """bw_rho against the definitional route's enumeration of null-gap root
    pairs, on collinear, off-segment and coincident parallel triples; the
    closed form must not adjoin a square root."""
    from relcheck.verifier.definitional import bwrho_def
    from relcheck.verifier.generators import ConfigGen

    seen = set()
    for seed in range(600):
        gen = ConfigGen(seed, 8)
        d = gen.timelike_dir() if seed % 2 else gen.spacelike_dir()
        a = Line(gen.point(), d)
        far = Line(gen.point(), d)

        def on_segment():
            t = gen.ctx.rat(Fraction(gen.rng.randint(-2, 10), 8))  # [-1/4, 5/4]
            return Line(a.base + (far.base - a.base).scale(t), d)

        b, c = on_segment(), on_segment()
        case = seed // 2 % 5
        if case == 1:
            b = a
        elif case == 2:
            c = b
        elif case == 3:
            c = a
        elif case == 4:
            b = far
        got = bw_rho(a, b, c)
        assert gen.ctx.depth == 0
        assert got == bwrho_def(a, b, c, ModelKind.FTL).is_true(), seed
        seen.add((lam(d).sign(), got))
    assert seen == {(-1, True), (-1, False), (1, True), (1, False)}


def test_eq_rho_cases():
    ctx = ScalarContext()
    a, b = vertical(ctx, 0), vertical(ctx, 1)
    c, d = vertical(ctx, 3), vertical(ctx, 4)
    assert eq_rho(a, b, c, d)
    assert eq_rho(a, a, c, c)  # first printed case
    assert not eq_rho(a, a, c, d)
    sd = v(ctx, 0, 1, 0, 0)
    sa = Line(v(ctx, 0, 0, 0, 0), sd)
    sb = Line(v(ctx, 1, 0, 1, 0), sd)
    sc = Line(v(ctx, 0, 0, 7, 0), sd)
    sdd = Line(v(ctx, 1, 0, 8, 0), sd)
    assert optical_plane(sa, sb) and optical_plane(sc, sdd)
    assert eq_rho(sa, sb, sc, sdd)  # second printed case


def test_sim_ftl_matches_sim_geo_for_timelike():
    ctx = ScalarContext()
    rng = random.Random(5)
    c = vertical(ctx)
    for _ in range(100):
        e1 = event(v(ctx, *(Fraction(rng.randint(-6, 6)) for _ in range(4))))
        e2 = event(v(ctx, *(Fraction(rng.randint(-6, 6)) for _ in range(4))))
        assert sim_ftl(c, e1, e2) == sim_geo(c, e1, e2)


def test_sim_ftl_spacelike_realizability():
    ctx = ScalarContext()
    c = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0))
    # orthogonal to dir and strictly timelike separation: simultaneous
    assert sim_ftl(c, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 5, 0, 3, 0)))
    # orthogonal but spacelike separation: no witness pair
    assert not sim_ftl(c, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 0, 0, 1, 0)))
    # orthogonal null separation: witness events collapse
    assert not sim_ftl(c, event(v(ctx, 0, 0, 0, 0)), event(v(ctx, 1, 0, 1, 0)))
    assert sim_ftl(c, event(v(ctx, 1, 2, 3, 0)), event(v(ctx, 1, 2, 3, 0)))


def test_sim_ftl_of_a_signal_with_itself():
    # def_simftl.fol ends "| b1 = b2": SimFTL(c, s, s) holds for every
    # signal s, not only for events, on both routes and both observer classes
    gen = ConfigGen(3)
    checked = 0
    while checked < 20:
        s = gen.signal()
        if s.is_degenerate():
            continue
        for c in (gen.timelike_line(), gen.spacelike_line()):
            assert sim_ftl(c, s, s)
            assert de.simftl_def(c, s, s, ModelKind.FTL).is_true()
        checked += 1


def test_delta_ftl_spacelike():
    ctx = ScalarContext()
    a = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0))
    ev = lambda *c: event(v(ctx, *c))
    # events on the line itself: parameter gaps 3 vs 3
    assert delta_ftl(a, ev(0, 0, 0, 0), ev(0, 3, 0, 0), ev(0, 5, 0, 0), ev(0, 8, 0, 0))
    assert not delta_ftl(a, ev(0, 0, 0, 0), ev(0, 3, 0, 0), ev(0, 0, 0, 0), ev(0, 4, 0, 0))
    # off-line events whose projections are spacelike-separated: unreachable
    assert not delta_ftl(a, ev(0, 0, 1, 0), ev(0, 3, 1, 0), ev(0, 5, 0, 0), ev(0, 8, 0, 0))


def _both_dual_readings(ap, a, b) -> bool:
    geo = dual_geo(ap, a, b)
    assert de.dual_def(ap, a, b, ModelKind.FTL).is_true() == geo
    return geo


def test_relatable_dual_fixture():
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    b = Line(v(ctx, 0, 0, 5, 0), d)
    assert not rho(a, b)
    cands = dual_candidates(a, b)
    assert cands == [Line(v(ctx, 5, 0, 5, 0), d), Line(v(ctx, -5, 0, 5, 0), d)]
    mid = Line((a.base + cands[0].base).scale(ctx.rat(1, 2)), d)
    assert mid == Line(v(ctx, Fraction(5, 2), 0, Fraction(5, 2), 0), d)
    assert optical_plane(b, mid)
    # both in-plane candidates satisfy the printed clauses, and so does a
    # member of the family off their plane: n = (13, 0, 5, 12) is null and
    # <n, u> = q(u) = 25
    for dual in cands + [Line(v(ctx, 13, 0, 5, 12), d)]:
        assert _both_dual_readings(dual, a, b)
    # a perturbed candidate is refuted
    wrong = Line(v(ctx, 3, 0, 3, 0), d)
    assert not _both_dual_readings(wrong, a, b)
    not_null = Line(v(ctx, 1, 0, 5, 0), d)
    assert not _both_dual_readings(not_null, a, b)


def test_relatable_dual_absent_when_relatable():
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    b = Line(v(ctx, 5, 0, 3, 0), d)  # quotient-timelike offset: relatable
    assert rho(a, b)
    assert dual_candidates(a, b) == []
    assert not _both_dual_readings(Line(v(ctx, 3, 0, 3, 0), d), a, b)
    assert dual_candidates(vertical(ctx, 0), vertical(ctx, 1)) == []


def test_dual_of_dual_is_reflection_back():
    # The dual is always relatable to b (its quotient separation from b is
    # the negation of a's), so the double dual is undefined as printed; the
    # involution is the reflection back through the shared midline, which
    # recovers a exactly.
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a = Line(v(ctx, 0, 0, 0, 0), d)
    b = Line(v(ctx, 0, 0, 5, 0), d)
    dual = dual_candidates(a, b)[0]
    assert rho(dual, b)
    assert dual_candidates(dual, b) == []
    assert not _both_dual_readings(a, dual, b)
    mid = Line((a.base + dual.base).scale(ctx.rat(1, 2)), d)
    reflected = Line(mid.base.scale(ctx.rat(2)) - dual.base, d)
    assert reflected == a
    assert _both_dual_readings(dual, a, b)


def test_bw_ftl_and_eq_ftl():
    rng = random.Random(99)
    # STL triples: bw_ftl agrees with bw_geo
    for _ in range(100):
        ctx = ScalarContext()
        xs = [Fraction(rng.randint(-8, 8)) for _ in range(3)]
        lines = [vertical(ctx, x1=x, x2=rng.randint(-2, 2)) for x in xs]
        assert bw_ftl(*lines) == bw_geo(*lines)
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    # quotient-spacelike collinear spacelike observers need the dual branch
    sa = Line(v(ctx, 0, 0, 0, 0), d)
    sb = Line(v(ctx, 0, 0, 5, 0), d)
    sc = Line(v(ctx, 0, 0, 10, 0), d)
    assert not bw_rho(sa, sb, sc)
    assert bw_ftl(sa, sb, sc)
    # The printed dual clauses admit both time signs, and mixed-sign dual
    # pairs satisfy Bw_rho for any argument order of a collinear
    # non-relatable triple; the evaluator follows the printed semantics
    # for collinear non-relatable triples.
    assert bw_ftl(sa, sc, sb)
    # eq_ftl via the first printed case, and via duals
    assert eq_ftl(sa, sa, sc, sc)
    assert eq_ftl(sa, sb, sb, sc)
    assert not eq_ftl(sa, sb, sa, sc)


def _eq_ftl_by_candidates(a, b, c, d):
    """eq_ftl as a loop over the two dual candidates of b and of d."""
    if eq_rho(a, b, c, d):
        return True
    return any(eq_rho(a, b2, c, d2)
               for b2 in dual_candidates(b, a) for d2 in dual_candidates(d, c))


def test_eq_ftl_dual_branch_matches_the_candidate_loop(monkeypatch):
    cases = []
    for seed in range(60):
        gen = ConfigGen(seed)
        a, b = gen.nonrelatable_spacelike_pair()
        d = a.dir
        shape = seed % 4
        if shape == 0:  # a translate of (a, b): equal quotient norms
            w = gen.point()
            c, dl = Line(a.base + w, d), Line(b.base + w, d)
        elif shape == 1:  # a point reflection of (a, b)
            p = gen.point()
            c, dl = Line(p, d), Line(p - (b.base - a.base), d)
        elif shape == 2:  # unrelated lines of the same class
            c, dl = Line(gen.point(), d), Line(gen.point(), d)
        else:  # a second pair on another spacelike class
            c, dl = gen.nonrelatable_spacelike_pair()
        cases.append((a, b, c, dl))
    # zero quotient offsets, (a, a) and the optical pair (a, op), have no duals
    ctx = ScalarContext()
    a = Line(v(ctx, 0, 0, 0, 0), v(ctx, 0, 1, 0, 0))
    op = Line(v(ctx, 1, 0, 1, 0), a.dir)
    cases += [(a, a, a, op), (a, op, a, a)]
    expected = [_eq_ftl_by_candidates(*args) for args in cases]
    assert [eq_ftl(*args) for args in cases] == expected
    dual_true = sum(got and not eq_rho(*args) for got, args in zip(expected, cases))
    assert dual_true >= 25 and expected.count(False) >= 10

    def no_duals(*args):
        raise AssertionError("eq_ftl must not build dual candidates")

    monkeypatch.setattr(model, "dual_candidates", no_duals)
    assert [eq_ftl(*args) for args in cases] == expected


# --- BwFTL's dual branch: the family rule against the candidate loop ----------


def _bw_ftl_by_candidates(a, b, c):
    """bw_ftl as a loop over the two dual candidates of a and of c."""
    if bw_rho(a, b, c):
        return True
    return any(bw_rho(a2, b, c2)
               for a2 in dual_candidates(a, b) for c2 in dual_candidates(c, b))


def _family_witness(a, b, c):
    """Duals a2 of a and c2 of c w.r.t. b with b between them, built from the
    derivation in bw_ftl's docstring.  In the quotient by the common
    spacelike class d, e0 is timelike; projected off span(U1, U2), which is
    spacelike or a line, it stays timelike and is the T orthogonal to U1 and
    U2.  Then a2 = a + U1 + x*T and c2 = c + U2 - y*T, with x, y > 0 the
    square roots that make the offsets null."""
    d, ctx = a.dir, a.ctx
    u1, u2 = b.base - a.base, b.base - c.base
    w2 = u2 - u1.scale(quotient_inner(u2, u1, d) / quotient_norm(u1, d))
    t = v(ctx, 1, 0, 0, 0)
    for w in [u1] + ([] if w2.is_zero() else [w2]):
        t = t - w.scale(quotient_inner(t, w, d) / quotient_norm(w, d))
    qt = quotient_norm(t, d)
    assert qt.sign() < 0
    x = ctx.sqrt(quotient_norm(u1, d) / -qt)
    y = ctx.sqrt(quotient_norm(u2, d) / -qt)
    return Line(a.base + u1 + t.scale(x), d), Line(c.base + u2 - t.scale(y), d)


def _spacelike_triples():
    """About 300 seeded triples on spacelike classes: a non-relatable pair
    (a, b) with a third line, or three lines of a ClassFrame; a third of each
    kind quotient-collinear."""
    out = []
    for seed in range(300):
        gen = ConfigGen(seed)
        if seed % 2:
            a, b = gen.nonrelatable_spacelike_pair()
            frame = None
        else:
            frame = ClassFrame(gen, gen.spacelike_dir())
            a, b = frame.random_line(), frame.random_line()
        d = a.dir
        if seed % 3 == 0:  # quotient-collinear: c = a + t(b - a)
            t = gen.ctx.rat(gen.rng.randint(-8, 16), 4)
            c = Line(a.base + (b.base - a.base).scale(t), d)
        else:
            c = frame.random_line() if frame else Line(gen.point(), d)
        out.append((a, b, c))
    return out


def test_bw_ftl_decides_the_whole_dual_family(monkeypatch):
    triples = _spacelike_triples()
    got = [bw_ftl(*abc) for abc in triples]
    family_only = 0
    for (a, b, c), family in zip(triples, got):
        if _bw_ftl_by_candidates(a, b, c):
            assert family, (a, b, c)
        elif family:
            family_only += 1
            # the witness is checked by the printed clauses, not by the rule
            a2, c2 = _family_witness(a, b, c)
            assert dual_geo(a2, a, b) and dual_geo(c2, c, b) and bw_rho(a2, b, c2)
    assert family_only >= 20 and got.count(True) - family_only >= 20 and got.count(False) >= 20

    def no_duals(*args):
        raise AssertionError("bw_ftl must not build dual candidates")

    monkeypatch.setattr(model, "dual_candidates", no_duals)
    assert [bw_ftl(*abc) for abc in triples] == got


def _boosted(triple, t, axis):
    m = PoincareMap.boost(triple[0].ctx, t, axis)
    return tuple(Line(m.apply(x.base), m.apply_direction(x.dir)) for x in triple)


_BOOSTS = [(Fraction(t), axis) for t in ("1/3", "1/5", "-1/4") for axis in (2, 3)]


def test_bw_ftl_boost_example_is_invariant():
    """On d = (0,1,0,0), U1 = (0,0,1,0) and U2 = (0,0,0,1) span a spacelike
    plane, so the triple is TRUE in every frame.  With U2 = U1 + N for the
    null N = (1,0,0,1), which is orthogonal to U1, the span is degenerate:
    its complement is null, not timelike, so that triple is FALSE in every
    frame; and U2 = -2*U1 is the parallel case, TRUE in every frame."""
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    a, b = Line(v(ctx, 0, 0, -1, 0), d), Line(v(ctx, 0, 0, 0, 0), d)
    cases = [
        ((a, b, Line(v(ctx, 0, 0, 0, -1), d)), True),
        ((a, b, Line(v(ctx, -1, 0, -1, -1), d)), False),
        ((a, b, Line(v(ctx, 0, 0, 2, 0), d)), True),
    ]
    for triple, want in cases:
        assert bw_ftl(*triple) == want
        for t, axis in _BOOSTS:
            boosted = _boosted(triple, t, axis)
            assert bw_ftl(*boosted) == want, (t, axis)
    # the candidate loop decides the first case only in the unboosted frame
    assert _bw_ftl_by_candidates(*cases[0][0])
    assert not any(_bw_ftl_by_candidates(*_boosted(cases[0][0], t, axis)) for t, axis in _BOOSTS)


@pytest.mark.xfail(strict=True, reason="bwftl_def witnesses Dual with the two dual candidates "
                   "only, which miss this TRUE triple in every boosted frame")
def test_bwftl_def_agrees_with_bw_ftl_on_the_boosted_example():
    # the first triple of test_bw_ftl_boost_example_is_invariant
    ctx = ScalarContext()
    d = v(ctx, 0, 1, 0, 0)
    triple = (Line(v(ctx, 0, 0, -1, 0), d), Line(v(ctx, 0, 0, 0, 0), d), Line(v(ctx, 0, 0, 0, -1), d))
    boosted = [_boosted(triple, t, axis) for t, axis in _BOOSTS]
    assert [de.bwftl_def(*abc, ModelKind.FTL).is_true() for abc in boosted] == [bw_ftl(*abc) for abc in boosted]


# --- the Eq family against the three-way reference -----------------------------
#
# The reference is the Eq family as it was before one comparison of quotient
# norms decided it: eq_rho tried its printed cases in turn, through
# strict_rho_parallel and an optical_plane that also tested the offset's lift,
# eq_ftl added a spacelike q > 0 branch, and parallel also tested a == b.


def _ref_parallel(a, b):
    return a == b or a.dir == b.dir


def _ref_strict_rho_parallel(a, b):
    if not _ref_parallel(a, b) or a == b:
        return False
    d = a.dir
    q = quotient_norm(b.base - a.base, d)
    return (-(lam(d)) * q).sign() > 0


def _ref_optical_plane(a, b):
    if not _ref_parallel(a, b) or a == b:
        return False
    d = a.dir
    if classify(d) is not IntervalClass.SPACELIKE:
        return False
    u = b.base - a.base
    if quotient_lift(u, d).is_zero():
        return False
    return quotient_norm(u, d).is_zero()


def _ref_eq_geo(a, b, c, d):
    dd = model._parallel_family([a, b, c, d])
    if dd is None or classify(dd) is not IntervalClass.TIMELIKE:
        return False
    return quotient_norm(b.base - a.base, dd) == quotient_norm(d.base - c.base, dd)


def _ref_eq_rho(a, b, c, d):
    dd = model._parallel_family([a, b, c, d])
    if dd is None:
        return False
    if a == b and c == d:
        return True
    if _ref_optical_plane(a, b) and _ref_optical_plane(c, d):
        return True
    if _ref_strict_rho_parallel(a, b) and _ref_strict_rho_parallel(c, d):
        return quotient_norm(b.base - a.base, dd) == quotient_norm(d.base - c.base, dd)
    return False


def _ref_eq_ftl(a, b, c, d):
    if _ref_eq_rho(a, b, c, d):
        return True
    dd = model._parallel_family([a, b, c, d])
    if dd is None or classify(dd) is not IntervalClass.SPACELIKE:
        return False
    q = quotient_norm(b.base - a.base, dd)
    return q.sign() > 0 and q == quotient_norm(d.base - c.base, dd)


def _optical_direction(gen):
    """A null vector n and a spacelike direction d with <n, d> = 0, so that
    q(n) = 0 in the quotient by d while n is no multiple of d."""
    n = gen.null_dir()
    e0 = v(gen.ctx, 1, 0, 0, 0)
    while True:
        r = gen.point()
        d = r - e0.scale(inner(r, n) / inner(e0, n))
        if classify(d) is IntervalClass.SPACELIKE:
            return n, d


def _eq_quadruples(shape, gen):
    """The direction class and the quadruples of one seeded draw of `shape`."""
    cls = "spacelike" if gen.rng.random() < 0.5 else "timelike"
    d = gen.spacelike_dir() if cls == "spacelike" else gen.timelike_dir()
    if shape == "lightlike":
        cls, d = "lightlike", gen.null_dir()
    line = lambda: Line(gen.point(), d)
    a, b, c, dl = line(), line(), line(), line()
    translate = lambda w: (Line(a.base + w, d), Line(b.base + w, d))
    reflect = lambda p: (Line(p, d), Line(p - (b.base - a.base), d))
    if shape == "translate":
        return cls, [(a, b, *translate(gen.point()))]
    if shape == "reflection":  # equal norms, but not a translate
        return cls, [(a, b, *reflect(gen.point())), (a, b, *reflect(a.base))]
    if shape in ("equal lines", "lightlike"):
        quads = [(a, a, c, c), (a, a, c, dl), (a, b, c, c), (a, b, a, b), (a, b, b, a)]
        return cls, quads + [(a, b, *translate(gen.point())), (a, b, *reflect(gen.point()))]
    if shape == "optical":  # q = 0 from a lifted null vector, on a spacelike class
        n, d = _optical_direction(gen)
        a, c, other = Line(gen.point(), d), Line(gen.point(), d), Line(gen.point(), d)
        b = Line(a.base + n.scale(gen.rat()), d)
        dl = Line(c.base + n.scale(gen.rat()) + d.scale(gen.rat()), d)
        return "spacelike", [(a, b, c, dl), (a, b, c, other), (a, b, c, c)]
    if shape == "unequal norms":
        return cls, [(a, b, c, Line(c.base + (b.base - a.base).scale(gen.ctx.rat(2)), d)),
                     (a, b, c, dl)]
    if shape == "mixed classes":
        d2 = gen.timelike_dir() if cls == "spacelike" else gen.spacelike_dir()
        return "mixed", [(a, b, Line(gen.point(), d2), Line(gen.point(), d2))]
    assert shape == "not parallel"
    return "mixed", [tuple(gen.observer(ModelKind.FTL) for _ in range(4)),
                     (a, b, a, gen.observer(ModelKind.FTL))]


def _outcome(f, args):
    try:
        return f(*args)
    except DomainError:
        return DomainError


@pytest.mark.parametrize("shape", ["translate", "reflection", "equal lines", "optical",
                                   "unequal norms", "mixed classes", "not parallel", "lightlike"])
def test_eq_family_matches_the_three_way_reference(shape):
    # Lightlike classes, which no structure admits, are the one place the two
    # differ: the reference raised DomainError for a != b & c == d (now FALSE)
    # and was TRUE for a == b & c == d, where q(0) now raises.
    pairs = (("Eq", eq_geo, _ref_eq_geo), ("EqRho", eq_rho, _ref_eq_rho),
             ("EqFTL", eq_ftl, _ref_eq_ftl))
    seen = set()
    for seed in range(40):
        cls, quads = _eq_quadruples(shape, ConfigGen(seed))
        for a, b, c, d in quads:
            for args in ((a, b, c, d), (c, d, a, b), (b, a, d, c)):
                for name, new, ref in pairs:
                    got, want = _outcome(new, args), _outcome(ref, args)
                    seen.add((name, cls, want))
                    if got == want:
                        continue
                    p, q, r, s = args
                    assert cls == "lightlike" and name != "Eq", (shape, seed, name, args)
                    assert (want, got) == ((True, DomainError) if p == q and r == s
                                           else (DomainError, False)), (shape, seed, name, args)
    # equal norms on a spacelike class: EqRho only for q < 0, EqFTL for both signs
    expect = {
        "translate": {("Eq", "timelike", True), ("EqRho", "spacelike", True),
                      ("EqRho", "spacelike", False), ("EqFTL", "spacelike", True)},
        "equal lines": {("Eq", "timelike", True), ("Eq", "timelike", False),
                        ("EqRho", "spacelike", True), ("EqFTL", "spacelike", False)},
        "optical": {("EqRho", "spacelike", True), ("EqRho", "spacelike", False)},
    }
    expect["reflection"] = expect["translate"]
    assert expect.get(shape, set()) <= seen


def test_scenario_from_dict_and_diagnostics():
    ctx = ScalarContext()
    data = {
        "kind": "stl",
        "observers": {"a": {"base": ["0", "0", "0", "0"], "dir": ["1", "0", "0", "0"]}},
        "signals": {"s": {"beg": ["0", "0", "0", "0"], "end": ["1", "1", "0", "0"]}},
    }
    sc = Scenario.from_dict(data, ctx)
    assert sc.kind is ModelKind.STL_ONLY
    assert "a" in sc.observers and "s" in sc.signals

    bad = {"kind": "stl", "observers": {"x": {"base": ["0"] * 4, "dir": ["1", "1", "0", "0"]}}}
    with pytest.raises(ModelError) as err:
        Scenario.from_dict(bad)
    assert "lightlike" in str(err.value)

    bad2 = {"kind": "stl", "signals": {"s": {"beg": ["0"] * 4, "end": ["2", "1", "0", "0"]}}}
    with pytest.raises(ModelError) as err2:
        Scenario.from_dict(bad2)
    assert "null" in str(err2.value)

    bad3 = {"kind": "stl", "observers": {"x": {"base": ["0"] * 4, "dir": ["0", "1", "0", "0"]}}}
    with pytest.raises(ModelError):
        Scenario.from_dict(bad3)

    past = {"kind": "ftl", "signals": {"s": {"beg": ["1", "1", "0", "0"], "end": ["0", "0", "0", "0"]}}}
    with pytest.raises(ModelError) as err3:
        Scenario.from_dict(past)
    assert "past" in str(err3.value)
