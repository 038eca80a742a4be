import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcheck.corpus import (
    SYSTEM_SIMPLEREL,
    SYSTEM_SIMPLERELFTL,
    corpus_dir,
    load_axioms,
    load_definitions,
)
from relcheck.fol import (
    And,
    Atom,
    DefinedAtom,
    Definition,
    DefinitionTable,
    Exists,
    FolError,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    atoms_used,
    expand_defined,
    free_vars,
    parse_formula,
    render_formula,
)


def test_parse_simple_quantified():
    f = parse_formula("forall a:Ob. exists s:Si. T(a,s)")
    assert isinstance(f, Forall)
    assert isinstance(f.body, Exists)
    assert f.body.body == Atom("T", (Var("a", "Ob"), Var("s", "Si")))


def test_sort_error_t_on_two_observers():
    with pytest.raises(FolError) as err:
        parse_formula("forall a:Ob. forall b:Ob. T(a,b)")
    assert "sort" in str(err.value)


def test_unknown_predicate_rejected():
    with pytest.raises(FolError):
        parse_formula("forall a:Ob. Zap(a)")


def test_unbound_variable_rejected():
    with pytest.raises(FolError):
        parse_formula("forall a:Ob. T(a,s)")


def test_equality_sorts_must_match():
    with pytest.raises(FolError):
        parse_formula("forall a:Ob. forall s:Si. a = s")


def test_diagnostic_carries_position():
    try:
        parse_formula("forall a:Ob.\n  T(a,a)")
    except FolError as err:
        assert err.line == 2
    else:
        raise AssertionError("expected a sort error")


def test_precedence_and_binds_tighter_than_or():
    f = parse_formula(
        "forall a:Ob. forall s:Si. (T(a,s) & R(a,s) | T(a,s))"
    )
    assert isinstance(f.body.body, type(parse_formula("forall x:Ob. forall s:Si. (T(x,s) | T(x,s))").body.body))


def test_implies_right_associative():
    f = parse_formula(
        "forall a:Ob. forall s:Si. (T(a,s) -> R(a,s) -> T(a,s))"
    )
    inner = f.body.body
    assert isinstance(inner, Implies)
    assert isinstance(inner.rhs, Implies)


def test_neq_is_negated_equality_and_roundtrips():
    f = parse_formula("forall a:Ob. forall b:Ob. a != b")
    assert isinstance(f.body.body, Not)
    assert render_formula(f) == "forall a:Ob. forall b:Ob. a != b"


def test_render_parse_identity_on_manual_formulas():
    texts = [
        "forall a:Ob. exists s:Si. T(a,s)",
        "forall a:Ob. forall s:Si. (T(a,s) <-> R(a,s))",
        "forall a:Ob. forall s:Si. !(T(a,s) & !R(a,s))",
        "forall a:Ob. forall b:Ob. forall s:Si. (T(a,s) | R(b,s) -> a = b)",
    ]
    for t in texts:
        f = parse_formula(t)
        assert parse_formula(render_formula(f)) == f


_A, _B, _S, _U = Var("a", "Ob"), Var("b", "Ob"), Var("s", "Si"), Var("u", "Si")
_LEAVES = [
    Atom("T", (_A, _S)),
    Atom("R", (_B, _U)),
    Atom("=", (_A, _B)),
    Not(Atom("=", (_S, _U))),  # rendered "s != u"
    DefinedAtom("Ev", (_U,)),
]


@st.composite
def _formulas(draw, depth):
    """A formula with one path `depth` nodes deep; its other branches are shallower."""
    if depth == 0:
        return draw(st.sampled_from(_LEAVES))
    deep = draw(_formulas(depth - 1))
    kind = draw(st.sampled_from([Not, Forall, Exists, And, Or, Implies, Iff]))
    if kind is Not:
        return Not(deep)
    if kind in (Forall, Exists):
        return kind(draw(st.sampled_from([_A, _B, _S, _U])), deep)
    other = draw(_formulas(draw(st.integers(0, depth - 1))))
    return kind(deep, other) if draw(st.booleans()) else kind(other, deep)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 7).flatmap(_formulas))
def test_render_parse_identity_on_generated_formulas(f):
    free = {v.name: v.sort for v in (_A, _B, _S, _U)}
    assert parse_formula(render_formula(f), {"Ev": ("Si",)}, free) == f


# --- corpus ------------------------------------------------------------------


def test_corpus_has_at_least_45_formula_files():
    assert len([f for f in os.listdir(corpus_dir()) if f.endswith(".fol")]) >= 45


def test_corpus_roundtrip_all_files():
    table = load_definitions()
    sigs = table.signatures()
    for d in table.definitions.values():
        rendered = render_formula(d.body)
        again = parse_formula(rendered, sigs, {v.name: v.sort for v in d.params})
        assert again == d.body, d.name
    for system in (SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL):
        for ax in load_axioms(system, table=table):
            rendered = render_formula(ax.formula)
            assert parse_formula(rendered, sigs) == ax.formula, ax.name


def test_expand_ev_one_layer():
    table = load_definitions()
    f = parse_formula("forall s:Si. Ev(s)", table.signatures())
    g = expand_defined(f, table, depth=1)
    assert render_formula(g) == "forall s:Si. forall a:Ob. T(a, s) <-> R(a, s)"


def test_expand_par_one_layer():
    table = load_definitions()
    f = parse_formula(
        "Par(a,b)", table.signatures(), {"a": "Ob", "b": "Ob"}
    )
    g = expand_defined(f, table, depth=1)
    assert render_formula(g) == "Cop(a, b) & !M(a, b) | a = b"


def test_expand_depth_zero_is_identity():
    table = load_definitions()
    f = parse_formula("forall s:Si. Ev(s)", table.signatures())
    assert expand_defined(f, table, depth=0) == f


def test_full_expansion_leaves_only_primitives():
    table = load_definitions()
    for system in (SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL):
        for ax in load_axioms(system, table=table):
            flat = expand_defined(ax.formula, table)
            assert atoms_used(flat) <= {"T", "R", "="}, ax.name


def test_full_expansion_preserves_free_variables():
    table = load_definitions()
    for name in ("Bw", "Eq", "Sim", "Tau", "EqRho", "Dual", "SimFTL"):
        d = table[name]
        probe = DefinedAtom(name, d.params)
        flat = expand_defined(probe, table)
        assert atoms_used(flat) <= {"T", "R", "="}
        assert free_vars(flat) == set(d.params), name


def test_capture_avoidance_renames_binder():
    # A definition whose body reuses a quantifier letter: substituting that
    # letter as an argument must rename the binder, not capture.
    body = parse_formula(
        "exists a:Ob. (M(a,x) & M(a,y))",
        {"M": ("Ob", "Ob")},
        {"x": "Ob", "y": "Ob"},
    )
    table = DefinitionTable(
        [
            Definition("M", (Var("a", "Ob"), Var("b", "Ob")),
                       parse_formula("exists s:Si. (T(a,s) & T(b,s))",
                                     {}, {"a": "Ob", "b": "Ob"})),
            Definition("P", (Var("x", "Ob"), Var("y", "Ob")), body),
        ]
    )
    probe = parse_formula("forall a:Ob. forall b:Ob. P(a,b)", table.signatures())
    flat = expand_defined(probe, table)
    assert free_vars(flat) == set()
    rendered = render_formula(flat)
    again = parse_formula(rendered, {})
    assert again == flat
    # the outer 'a' argument must not be captured by the inner 'exists a'
    inner = flat.body.body  # strip forall a, forall b
    assert isinstance(inner, Exists)
    assert inner.var.name != "a"


def test_recursive_definitions_rejected():
    with pytest.raises(FolError):
        DefinitionTable(
            [
                Definition(
                    "A",
                    (Var("x", "Ob"),),
                    DefinedAtom("B", (Var("x", "Ob"),)),
                ),
                Definition(
                    "B",
                    (Var("x", "Ob"),),
                    DefinedAtom("A", (Var("x", "Ob"),)),
                ),
            ]
        )


def test_defined_atom_renders_name_not_expansion():
    table = load_definitions()
    f = parse_formula("forall s:Si. Ev(s)", table.signatures())
    assert render_formula(f) == "forall s:Si. Ev(s)"
