"""Loading of the shipped formula corpus (definitions and axiom systems).

The corpus directory holds one ``.fol`` file per definition or axiom plus
three JSON manifests; ``RELCHECK_CORPUS`` overrides its location.

Each process parses a corpus once.  Every load reads the corpus files' bytes
and their digest, the one :func:`corpus_version` returns, and parses from
those bytes only when the directory's memo entry has another digest.  So an
edited file or another ``RELCHECK_CORPUS`` is never served stale.
``versioned_axioms`` gives the digest and the axioms from one read, so the
version an axiom suite's report stamps names the corpus its axioms were
parsed from, even if a file changes while the suite runs.  A parse error is
raised on every load and never kept.  The memo holds the last corpus read
from each directory; its tables and ``AxiomEntry`` values are shared, and
``load_axioms`` returns a fresh list.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

from relcheck.fol import (
    Definition,
    DefinitionTable,
    Formula,
    FolError,
    Var,
    free_vars,
    parse_formula,
)

SYSTEM_SIMPLEREL = "simplerel"
SYSTEM_SIMPLERELFTL = "simplerelftl"

_MANIFESTS = {
    SYSTEM_SIMPLEREL: "axioms_simplerel.json",
    SYSTEM_SIMPLERELFTL: "axioms_simplerelftl.json",
}


def corpus_dir() -> str:
    env = os.environ.get("RELCHECK_CORPUS")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "corpus")


def _read(root: str) -> dict[str, bytes]:
    """The bytes of every corpus file in `root`, by name, in name order."""
    files = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".fol") or name.endswith(".json"):
            with open(os.path.join(root, name), "rb") as fh:
                files[name] = fh.read()
    return files


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode())
        h.update(data)
    return h.hexdigest()[:12]


def corpus_version() -> str:
    """Deterministic digest of every corpus file's bytes."""
    return _digest(_read(corpus_dir()))


@dataclass(frozen=True)
class AxiomEntry:
    name: str
    formula: Formula


class _Corpus:
    """One corpus as read, parsed as far as it has been loaded."""

    def __init__(self, files: dict[str, bytes], digest: str) -> None:
        self.files, self.digest = files, digest
        self.table: Optional[DefinitionTable] = None
        self.axioms: dict[str, tuple[AxiomEntry, ...]] = {}

    def text(self, name: str) -> str:
        if name not in self.files:
            raise FileNotFoundError(f"no corpus file {name!r} in {corpus_dir()}")
        # decoded as open(path) would: the locale's encoding, universal newlines
        return io.TextIOWrapper(io.BytesIO(self.files[name])).read()

    def definitions(self) -> DefinitionTable:
        if self.table is None:
            manifest = json.loads(self.text("definitions.json"))
            signatures = {
                entry["name"]: tuple(sort for _, sort in entry["params"]) for entry in manifest
            }
            defs = []
            for entry in manifest:
                params = tuple(Var(name, sort) for name, sort in entry["params"])
                try:
                    body = parse_formula(
                        self.text(entry["file"]), signatures, {v.name: v.sort for v in params}
                    )
                except FolError as err:
                    raise FolError(f"{entry['file']}: {err}") from err
                extra = free_vars(body) - set(params)
                if extra:
                    raise FolError(f"{entry['file']}: stray free variables {extra}")
                defs.append(Definition(entry["name"], params, body))
            self.table = DefinitionTable(defs)
        return self.table

    def parse_axioms(self, system: str, table: DefinitionTable) -> tuple[AxiomEntry, ...]:
        signatures = table.signatures()
        out = []
        for entry in json.loads(self.text(_MANIFESTS[system])):
            try:
                formula = parse_formula(self.text(entry["file"]), signatures)
            except FolError as err:
                raise FolError(f"{entry['file']}: {err}") from err
            if free_vars(formula):
                raise FolError(f"{entry['file']}: axiom is not a sentence")
            out.append(AxiomEntry(entry["name"], formula))
        return tuple(out)


_parsed: dict[str, _Corpus] = {}  # corpus_dir() -> the last corpus read from it


def _corpus() -> _Corpus:
    root = corpus_dir()
    files = _read(root)
    digest = _digest(files)
    corpus = _parsed.get(root)
    if corpus is None or corpus.digest != digest:
        corpus = _parsed[root] = _Corpus(files, digest)
    return corpus


def load_definitions() -> DefinitionTable:
    return _corpus().definitions()


def load_axioms(system: str, table: Optional[DefinitionTable] = None) -> list[AxiomEntry]:
    return _axioms(_corpus(), system, table)


def versioned_axioms(system: str) -> tuple[str, list[AxiomEntry]]:
    """`corpus_version()` and `load_axioms(system)` from one read of the
    corpus, so the version names the corpus the axioms were parsed from."""
    corpus = _corpus()
    return corpus.digest, _axioms(corpus, system, None)


def _axioms(corpus: _Corpus, system: str, table: Optional[DefinitionTable]) -> list[AxiomEntry]:
    if system not in _MANIFESTS:
        raise ValueError(f"unknown system {system!r}")
    if table is not None and table is not corpus.table:
        return list(corpus.parse_axioms(system, table))
    if system not in corpus.axioms:
        corpus.axioms[system] = corpus.parse_axioms(system, corpus.definitions())
    return list(corpus.axioms[system])
