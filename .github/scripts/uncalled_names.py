"""Find names that nothing reads: public API that only tests call, unused
imports and assigned-but-never-read locals.

    python3 .github/scripts/uncalled_names.py [REPO_ROOT]

Every `def` or `class` name in `src/relcheck` (dunders excepted) must occur
as a whole word in some Python file under `src/`, `demos/` or `perfbench/`
outside the lines of its own definition.  Tests do not count.  In every
module of `src/relcheck`, each imported name (`__future__` aside) must be
read in that module or listed in its `__all__`, and each name a function
assigns (names starting with `_` aside) must be read in that function or
a function nested in it.  Prints each name that fails, and exits 1 if there
is any.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

USER_DIRS = ("src", "demos", "perfbench")
WORD = re.compile(r"\w+")


def definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of every def and class in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((node.name, first, node.end_lineno))
    return out


def uncalled(root: Path) -> list[str]:
    sources = {
        path: path.read_text().splitlines()
        for top in USER_DIRS
        for path in sorted((root / top).rglob("*.py"))
    }
    words = Counter(w for lines in sources.values() for line in lines for w in WORD.findall(line))
    found = []
    for path in sorted((root / "src" / "relcheck").rglob("*.py")):
        for name, first, last in definitions(path):
            inside = sum(WORD.findall(line).count(name) for line in sources[path][first - 1:last])
            if words[name] == inside:
                found.append(f"{path.relative_to(root)}:{first}: {name}")
    return found


def _loads(tree: ast.AST) -> set[str]:
    """Names read anywhere in `tree`, also inside string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out |= _loads(ast.parse(sub.value, mode="eval"))
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _local_stores(fn: ast.AST) -> list[ast.Name]:
    """Names that `fn` itself assigns: not in nested scopes or comprehensions."""
    out = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
                             ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread(root: Path) -> list[str]:
    found = []
    for path in sorted((root / "src" / "relcheck").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(root)
        read = _loads(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{where}:{node.lineno}: unused import {name}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_read = _loads(node)
                declared = {
                    n for sub in ast.walk(node) if isinstance(sub, (ast.Global, ast.Nonlocal))
                    for n in sub.names
                }
                for store in _local_stores(node):
                    name = store.id
                    if name.startswith("_") or name in fn_read or name in declared:
                        continue
                    found.append(f"{where}:{store.lineno}: {name} assigned in {node.name} "
                                 "and never read")
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    found = uncalled(root)
    for entry in found:
        print(entry)
    if found:
        print(f"{len(found)} name(s) used by no code outside tests", file=sys.stderr)
    never_read = unread(root)
    for entry in never_read:
        print(entry)
    if never_read:
        print(f"{len(never_read)} imported or assigned name(s) never read", file=sys.stderr)
    return 1 if found or never_read else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
