"""Count the lines and code lines of each module of `src/relcheck`.

    python3 .github/scripts/code_lines.py [REV [REV_B]]

A code line is a line that is not blank, not only a comment and not part of
a docstring (the leading string of a module, class or function).  Without
REV the working tree is read; with REV, the files of that git revision.
Prints one row per module, then the total.  With two revisions each row
gives the lines and code lines of both, a module missing from one counting
0 there, and the code-line difference REV_B - REV.  Never fails on the
counts.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/relcheck"


def code_lines(source: str) -> int:
    """Lines of `source` with a token that is not a comment or a docstring."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def sources(rev: str | None) -> dict[str, str]:
    """Path -> text of every module of the package, at `rev` or in the tree."""
    if rev is None:
        return {str(p): p.read_text() for p in sorted(Path(PACKAGE).rglob("*.py"))}
    names = subprocess.run(["git", "ls-tree", "-r", "--name-only", rev, PACKAGE],
                           check=True, capture_output=True, text=True).stdout.split()
    return {
        name: subprocess.run(["git", "show", f"{rev}:{name}"], check=True,
                             capture_output=True, text=True).stdout
        for name in sorted(names) if name.endswith(".py")
    }


def main(argv: list[str]) -> int:
    revs = argv[1:3] or [None]
    counts = [{name: (len(text.splitlines()), code_lines(text)) for name, text in sources(rev).items()}
              for rev in revs]
    names = sorted(set().union(*counts))
    rows = [(name, [c.get(name, (0, 0)) for c in counts]) for name in names]
    rows.append(("total", [tuple(map(sum, zip(*c.values()))) for c in counts]))
    head = "".join(f" {'lines':>6} {'code':>6}" for _ in revs)
    print(f"{'module':44}{head}{'  diff' if len(revs) == 2 else ''}   "
          f"({' -> '.join(rev or 'working tree' for rev in revs)})")
    for name, cols in rows:
        diff = f" {cols[1][1] - cols[0][1]:+5}" if len(cols) == 2 else ""
        print(f"{name:44}" + "".join(f" {lines:6} {code:6}" for lines, code in cols) + diff)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
