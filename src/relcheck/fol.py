"""The two-sorted first-order language: AST, concrete syntax, expansion.

Sorts are ``Ob`` (observers) and ``Si`` (signals); the primitive predicates
are ``T`` and ``R`` (both Ob x Si) and sorted equality.  Terms are
variables only, so substitution is variable renaming.  Defined predicates
appear as :class:`DefinedAtom` nodes and are macro-expanded (with
capture-avoiding renaming) against a :class:`DefinitionTable`.

Concrete syntax, ASCII: ``forall x:Ob. body``, ``exists s:Si. body``,
``&``, ``|``, ``->``, ``<->``, ``!``, ``x = y``, ``x != y``, and named
predicates ``P(x, y)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

OB = "Ob"
SI = "Si"
SORTS = (OB, SI)

PRIMITIVE_SIGNATURES = {
    "T": (OB, SI),
    "R": (OB, SI),
}


class FolError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Var:
    name: str
    sort: str

    def __str__(self) -> str:
        return f"{self.name}:{self.sort}"


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: str  # "T", "R", or "="
    args: tuple[Var, ...]


@dataclass(frozen=True)
class DefinedAtom(Formula):
    name: str
    args: tuple[Var, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


# The binary connectives, loosest first; only "->" groups to the right.
_BINARY = [("<->", Iff), ("->", Implies), ("|", Or), ("&", And)]
_BINARY_LEVEL = {node: (level, op) for level, (op, node) in enumerate(_BINARY, 1)}


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate sub-formulas of f; TypeError if f is not a formula."""
    if isinstance(f, (Atom, DefinedAtom)):
        return ()
    if isinstance(f, (Not, Forall, Exists)):
        return (f.body,)
    if type(f) in _BINARY_LEVEL:
        return (f.lhs, f.rhs)
    raise TypeError(f"not a formula: {f!r}")


def free_vars(f: Formula) -> set[Var]:
    if isinstance(f, (Atom, DefinedAtom)):
        return set(f.args)
    out = set().union(*map(free_vars, children(f)))
    if isinstance(f, (Forall, Exists)):
        out.discard(f.var)
    return out


def used_names(f: Formula) -> set[str]:
    if isinstance(f, (Atom, DefinedAtom)):
        return {v.name for v in f.args}
    out = set().union(*map(used_names, children(f)))
    if isinstance(f, (Forall, Exists)):
        out.add(f.var.name)
    return out


def atoms_used(f: Formula) -> set[str]:
    """All atom names (primitive and defined) occurring in f."""
    if isinstance(f, Atom):
        return {f.pred}
    if isinstance(f, DefinedAtom):
        return {f.name}
    return set().union(*map(atoms_used, children(f)))


def substitute(f: Formula, mapping: dict[str, Var]) -> Formula:
    """Rename free variables per mapping, avoiding capture under binders."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(mapping.get(v.name, v) for v in f.args))
    if isinstance(f, DefinedAtom):
        return DefinedAtom(f.name, tuple(mapping.get(v.name, v) for v in f.args))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != f.var.name}
        if not inner:
            return type(f)(f.var, f.body)
        target_names = {v.name for v in inner.values()}
        var = f.var
        body = f.body
        if var.name in target_names:
            taken = target_names | used_names(body) | set(inner)
            fresh_name = _fresh(var.name, taken)
            fresh = Var(fresh_name, var.sort)
            body = substitute(body, {var.name: fresh})
            var = fresh
        return type(f)(var, substitute(body, inner))
    return type(f)(*(substitute(c, mapping) for c in children(f)))


def _fresh(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[Var, ...]
    body: Formula


class DefinitionTable:
    """Non-recursive defined predicates; the dependency graph must be a DAG."""

    def __init__(self, definitions: Sequence[Definition]) -> None:
        self.definitions = {d.name: d for d in definitions}
        if len(self.definitions) != len(definitions):
            raise FolError("duplicate definition name")
        self._check_dag()

    def __contains__(self, name: str) -> bool:
        return name in self.definitions

    def __getitem__(self, name: str) -> Definition:
        return self.definitions[name]

    def signature(self, name: str) -> tuple[str, ...]:
        return tuple(v.sort for v in self.definitions[name].params)

    def signatures(self) -> dict[str, tuple[str, ...]]:
        return {n: self.signature(n) for n in self.definitions}

    def _check_dag(self) -> None:
        state: dict[str, int] = {}

        def visit(name: str, stack: list[str]) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                raise FolError(f"recursive definitions: {' -> '.join(stack + [name])}")
            state[name] = 1
            for dep in atoms_used(self.definitions[name].body):
                if dep in self.definitions:
                    visit(dep, stack + [name])
            state[name] = 2

        for n in self.definitions:
            visit(n, [])


def expand_defined(f: Formula, table: DefinitionTable, depth: Optional[int] = None) -> Formula:
    """Replace DefinedAtoms by their definitions, `depth` layers deep.

    ``depth=None`` expands fully (terminates because the table is a DAG).
    """
    if depth is not None and depth <= 0:
        return f
    nxt = None if depth is None else depth - 1
    if isinstance(f, DefinedAtom):
        if f.name not in table:
            return f
        d = table[f.name]
        if len(d.params) != len(f.args):
            raise FolError(f"{f.name} arity mismatch")
        body = substitute(d.body, {p.name: a for p, a in zip(d.params, f.args)})
        return expand_defined(body, table, nxt)
    if isinstance(f, Atom):
        return f
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, expand_defined(f.body, table, depth))
    return type(f)(*(expand_defined(c, table, depth) for c in children(f)))


# --- concrete syntax ----------------------------------------------------------


# One alternative per token class, tried at the current position: a whitespace
# run (only "\n" starts a line; every other whitespace character is one
# column), a "#" comment (which, unlike whitespace, advances no column), a
# symbol (longest first) and a name.  \w is str.isalnum() or "_", a wider
# class than a name's first character, which is checked apart.
_TOKEN = re.compile(r"(\s+)|(#[^\n]*)|(<->|->|!=|[(),:.=!&|])|(\w[\w']*)")


class _Token(NamedTuple):
    kind: str  # "name", "sym", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        group = m.lastindex if m else None
        if group is None or group == 4 and not (text[i].isalpha() or text[i] == "_"):
            raise FolError(f"unexpected character {text[i]!r}", line, col)
        tok = m.group()
        i = m.end()
        if group == 1:
            newline = tok.rfind("\n")
            if newline < 0:
                col += len(tok)
            else:
                line += tok.count("\n")
                col = len(tok) - newline
        elif group != 2:
            toks.append(_Token("sym" if group == 3 else "name", tok, line, col))
            col += len(tok)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(
        self,
        text: str,
        signatures: dict[str, tuple[str, ...]],
        free: dict[str, str],
    ) -> None:
        self.toks = _tokenize(text)
        self.pos = 0
        self.signatures = dict(PRIMITIVE_SIGNATURES)
        self.signatures.update(signatures)
        self.scope: list[dict[str, str]] = [dict(free)]

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text or t.kind == "eof":
            raise FolError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        raise FolError(msg, t.line, t.col)

    def lookup(self, name: str, tok: _Token) -> Var:
        for frame in reversed(self.scope):
            if name in frame:
                return Var(name, frame[name])
        raise FolError(f"unbound variable {name!r}", tok.line, tok.col)

    def parse_formula(self, level: int = 0) -> Formula:
        """Precedence climbing over _BINARY from `level` on, then unary."""
        if level == len(_BINARY):
            return self.parse_unary()
        op, node = _BINARY[level]
        lhs = self.parse_formula(level + 1)
        while self.peek().text == op:
            self.next()
            if node is Implies:
                return node(lhs, self.parse_formula(level))
            lhs = node(lhs, self.parse_formula(level + 1))
        return lhs

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.text == "!":
            self.next()
            return Not(self.parse_unary())
        if t.kind == "name" and t.text in ("forall", "exists"):
            self.next()
            var_tok = self.next()
            if var_tok.kind != "name":
                raise FolError("expected a variable name", var_tok.line, var_tok.col)
            self.expect(":")
            sort_tok = self.next()
            if sort_tok.text not in SORTS:
                raise FolError(
                    f"unknown sort {sort_tok.text!r} (expected Ob or Si)",
                    sort_tok.line,
                    sort_tok.col,
                )
            self.expect(".")
            var = Var(var_tok.text, sort_tok.text)
            self.scope.append({var.name: var.sort})
            body = self.parse_formula()
            self.scope.pop()
            return (Forall if t.text == "forall" else Exists)(var, body)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.parse_formula()
            self.expect(")")
            return f
        if t.kind != "name":
            raise FolError(f"expected a formula, found {t.text!r}", t.line, t.col)
        self.next()
        if self.peek().text == "(":
            return self.parse_application(t)
        # equality / inequality between variables
        lhs = self.lookup(t.text, t)
        op = self.next()
        if op.text not in ("=", "!="):
            raise FolError("expected '=' or '!=' after variable", op.line, op.col)
        rhs_tok = self.next()
        if rhs_tok.kind != "name":
            raise FolError("expected a variable name", rhs_tok.line, rhs_tok.col)
        rhs = self.lookup(rhs_tok.text, rhs_tok)
        if lhs.sort != rhs.sort:
            raise FolError(
                f"equality between different sorts {lhs.sort} and {rhs.sort}",
                op.line,
                op.col,
            )
        eq = Atom("=", (lhs, rhs))
        return Not(eq) if op.text == "!=" else eq

    def parse_application(self, name_tok: _Token) -> Formula:
        name = name_tok.text
        if name not in self.signatures:
            raise FolError(f"unknown predicate {name!r}", name_tok.line, name_tok.col)
        sig = self.signatures[name]
        self.expect("(")
        args: list[Var] = []
        while True:
            arg_tok = self.next()
            if arg_tok.kind != "name":
                raise FolError("expected a variable name", arg_tok.line, arg_tok.col)
            args.append(self.lookup(arg_tok.text, arg_tok))
            nxt = self.next()
            if nxt.text == ",":
                continue
            if nxt.text == ")":
                break
            raise FolError("expected ',' or ')'", nxt.line, nxt.col)
        if len(args) != len(sig):
            raise FolError(
                f"{name} expects {len(sig)} arguments, got {len(args)}",
                name_tok.line,
                name_tok.col,
            )
        for arg, want in zip(args, sig):
            if arg.sort != want:
                raise FolError(
                    f"{name}: argument {arg.name} has sort {arg.sort}, expected {want}",
                    name_tok.line,
                    name_tok.col,
                )
        if name in PRIMITIVE_SIGNATURES:
            return Atom(name, tuple(args))
        return DefinedAtom(name, tuple(args))


def parse_formula(
    text: str,
    signatures: Optional[dict[str, tuple[str, ...]]] = None,
    free: Optional[dict[str, str]] = None,
) -> Formula:
    """Parse a formula; `free` declares sorts of free variables."""
    p = _Parser(text, signatures or {}, free or {})
    f = p.parse_formula()
    t = p.peek()
    if t.kind != "eof":
        raise FolError(f"trailing input {t.text!r}", t.line, t.col)
    return f


def render_formula(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, parent: int) -> str:
    """Render f under a parent of binding level `parent` (0: none)."""
    if isinstance(f, Atom):
        if f.pred == "=":
            return f"{f.args[0].name} = {f.args[1].name}"
        return f"{f.pred}({', '.join(v.name for v in f.args)})"
    if isinstance(f, DefinedAtom):
        return f"{f.name}({', '.join(v.name for v in f.args)})"
    if isinstance(f, Not):
        if isinstance(f.body, Atom) and f.body.pred == "=":
            return f"{f.body.args[0].name} != {f.body.args[1].name}"
        return "!" + _render(f.body, len(_BINARY) + 1)
    if isinstance(f, (Forall, Exists)):
        word = "forall" if isinstance(f, Forall) else "exists"
        body = _render(f.body, 0)
        text = f"{word} {f.var.name}:{f.var.sort}. {body}"
        return f"({text})" if parent > 0 else text
    if type(f) not in _BINARY_LEVEL:
        raise TypeError(f"not a formula: {f!r}")
    level, op = _BINARY_LEVEL[type(f)]
    # the side a connective does not group on is bracketed at its own level
    lhs_level, rhs_level = (level + 1, level) if isinstance(f, Implies) else (level, level + 1)
    text = f"{_render(f.lhs, lhs_level)} {op} {_render(f.rhs, rhs_level)}"
    return f"({text})" if parent > level else text
