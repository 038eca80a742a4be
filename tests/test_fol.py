import os
import shutil
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcheck import corpus
from relcheck.corpus import (
    SYSTEM_SIMPLEREL,
    SYSTEM_SIMPLERELFTL,
    corpus_dir,
    corpus_version,
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
    _Token,
    _tokenize,
    atoms_used,
    expand_defined,
    free_vars,
    parse_formula,
    render_formula,
)
from relcheck.model import ModelKind
from relcheck.verifier.report import Budget
from relcheck.verifier.suites import run_axiom_suite


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


# --- tokenizer against the character loop ---------------------------------------
#
# The reference is the tokenizer as it was before it became one compiled
# pattern: a loop over the characters, symbols tried longest first.

_REF_SYMBOLS = ["<->", "->", "!=", "(", ")", ",", ":", ".", "=", "!", "&", "|"]


def _ref_tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = False
        for sym in _REF_SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_" or text[i] == "'"):
                i += 1
            toks.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        raise FolError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


# every symbol's characters, whitespace that is and is not "\n", comments,
# name characters, and non-ASCII letters and digits that are not all name
# starts: "²", "½", "٣" and "Ⅻ" are alphanumeric but not alphabetic
_TOKEN_CHARS = (
    "<->!=(),:.&|#'_ \n\t\r\x0b\x0c\x85\xa0\u2028"
    + string.ascii_letters
    + string.digits
    + "é²½٣Ⅻ"
)


# whole tokens, whitespace and comments, so that most texts tokenize to the end
_TOKEN_PIECES = _REF_SYMBOLS + ["forall", "Ob", "x", "_a'", "b2", "é_½", "# note", "#"]
_TOKEN_PIECES += [" ", "  ", "\n", "\t", "\x85", "²", "٣", "'"]


def _fol_files() -> list[str]:
    return sorted(f for f in os.listdir(corpus_dir()) if f.endswith(".fol"))


@st.composite
def _mutated_corpus_texts(draw):
    with open(os.path.join(corpus_dir(), draw(st.sampled_from(_fol_files())))) as fh:
        text = fh.read()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_TOKEN_CHARS))
        head, tail = text[:i], text[i + 1 :]
        text = draw(st.sampled_from([head + ch + text[i:], head + tail, head + ch + tail]))
    return text


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except FolError as err:
        return str(err), err.line, err.col


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(st.sampled_from(_TOKEN_CHARS), max_size=40),
        st.lists(st.sampled_from(_TOKEN_PIECES), max_size=30).map("".join),
        _mutated_corpus_texts(),
    )
)
def test_tokenize_matches_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_ref_tokenize, text)


def test_tokenize_matches_character_loop_on_every_corpus_file():
    for name in _fol_files():
        with open(os.path.join(corpus_dir(), name)) as fh:
            text = fh.read()
        assert _tokenize(text) == _ref_tokenize(text), name


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


# --- the per-process corpus memo ---------------------------------------------------


@pytest.fixture
def corpus_copy(tmp_path, monkeypatch):
    shutil.copytree(corpus_dir(), tmp_path, dirs_exist_ok=True)
    monkeypatch.setenv("RELCHECK_CORPUS", str(tmp_path))
    return tmp_path


def test_corpus_edit_is_loaded(corpus_copy):
    before = {ax.name: ax.formula for ax in load_axioms(SYSTEM_SIMPLEREL)}
    version = corpus_version()
    (corpus_copy / "ax_axsim.fol").write_text("forall a:Ob. a = a\n")
    after = {ax.name: ax.formula for ax in load_axioms(SYSTEM_SIMPLEREL)}
    assert corpus_version() != version
    assert after["AxSim"] == parse_formula("forall a:Ob. a = a") != before["AxSim"]
    assert {n: f for n, f in after.items() if n != "AxSim"} == {
        n: f for n, f in before.items() if n != "AxSim"
    }


def test_corpus_parse_error_raises_on_every_load(corpus_copy):
    load_definitions()
    (corpus_copy / "def_ev.fol").write_text("exists a:Ob. T(a, s) &\n")
    for _ in range(2):
        with pytest.raises(FolError, match="def_ev.fol"):
            load_definitions()
        with pytest.raises(FolError, match="def_ev.fol"):
            load_axioms(SYSTEM_SIMPLERELFTL)


def test_loaded_axiom_list_is_the_callers(corpus_copy):
    first = load_axioms(SYSTEM_SIMPLERELFTL)
    names = [ax.name for ax in first]
    first.pop()
    first.reverse()
    assert [ax.name for ax in load_axioms(SYSTEM_SIMPLERELFTL)] == names


def test_cold_and_warm_axiom_suite_reports_are_identical(corpus_copy):
    cold = run_axiom_suite(SYSTEM_SIMPLEREL, ModelKind.STL_ONLY, Budget(seed=0), cases=3)
    warm = run_axiom_suite(SYSTEM_SIMPLEREL, ModelKind.STL_ONLY, Budget(seed=0), cases=3)
    assert cold.to_json() == warm.to_json()


def test_axiom_suite_reads_the_corpus_once(corpus_copy, monkeypatch):
    """The version a report stamps and the axioms it checks come from one
    read, and an edit between two suites is seen by the second."""
    reads = []
    read = corpus._read
    monkeypatch.setattr(corpus, "_read", lambda root: reads.append(root) or read(root))
    first = run_axiom_suite(SYSTEM_SIMPLEREL, ModelKind.STL_ONLY, Budget(seed=0), cases=1)
    assert len(reads) == 1 and first.corpus_version == corpus_version()
    (corpus_copy / "ax_axsim.fol").write_text("forall a:Ob. a = a\n")
    second = run_axiom_suite(SYSTEM_SIMPLEREL, ModelKind.STL_ONLY, Budget(seed=0), cases=1)
    assert second.corpus_version == corpus_version() != first.corpus_version
