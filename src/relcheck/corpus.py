"""Loading of the shipped formula corpus (definitions and axiom systems).

The corpus directory holds one ``.fol`` file per definition or axiom plus
three JSON manifests; ``RELCHECK_CORPUS`` overrides its location.
"""

from __future__ import annotations

import hashlib
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


def corpus_version() -> str:
    """Deterministic digest of every corpus file's bytes."""
    root = corpus_dir()
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".fol") or name.endswith(".json"):
            h.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:12]


def load_definitions() -> DefinitionTable:
    root = corpus_dir()
    with open(os.path.join(root, "definitions.json")) as fh:
        manifest = json.load(fh)
    signatures = {
        entry["name"]: tuple(sort for _, sort in entry["params"]) for entry in manifest
    }
    defs = []
    for entry in manifest:
        params = tuple(Var(name, sort) for name, sort in entry["params"])
        with open(os.path.join(root, entry["file"])) as fh:
            text = fh.read()
        try:
            body = parse_formula(
                text, signatures, {v.name: v.sort for v in params}
            )
        except FolError as err:
            raise FolError(f"{entry['file']}: {err}") from err
        extra = free_vars(body) - set(params)
        if extra:
            raise FolError(f"{entry['file']}: stray free variables {extra}")
        defs.append(Definition(entry["name"], params, body))
    return DefinitionTable(defs)


@dataclass(frozen=True)
class AxiomEntry:
    name: str
    file: str
    formula: Formula


def load_axioms(system: str, table: Optional[DefinitionTable] = None) -> list[AxiomEntry]:
    if system not in _MANIFESTS:
        raise ValueError(f"unknown system {system!r}")
    root = corpus_dir()
    table = table or load_definitions()
    signatures = table.signatures()
    out = []
    with open(os.path.join(root, _MANIFESTS[system])) as fh:
        manifest = json.load(fh)
    for entry in manifest:
        with open(os.path.join(root, entry["file"])) as fh:
            text = fh.read()
        try:
            formula = parse_formula(text, signatures)
        except FolError as err:
            raise FolError(f"{entry['file']}: {err}") from err
        if free_vars(formula):
            raise FolError(f"{entry['file']}: axiom is not a sentence")
        out.append(AxiomEntry(entry["name"], entry["file"], formula))
    return out


def corpus_files() -> list[str]:
    root = corpus_dir()
    return sorted(
        os.path.join(root, f) for f in os.listdir(root) if f.endswith(".fol")
    )
