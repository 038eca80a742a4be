"""Find public API that only tests call.

    python3 .github/scripts/uncalled_names.py [REPO_ROOT]

Every `def` or `class` name in `src/relcheck` (dunders excepted) must occur
as a whole word in some Python file under `src/`, `demos/` or `perfbench/`
outside the lines of its own definition.  Tests do not count.  Prints each
name that does not, and exits 1 if there is any.
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


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    found = uncalled(root)
    for entry in found:
        print(entry)
    if found:
        print(f"{len(found)} name(s) used by no code outside tests", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
