"""Count the lines and code lines of each module of `src/relcheck`.

    python3 .github/scripts/code_lines.py [REV]

A code line is a line that is not blank, not only a comment and not part of
a docstring (the leading string of a module, class or function).  Without
REV the working tree is read; with REV, the files of that git revision.
Prints one row per module, then the total; never fails on the counts.
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
    rev = argv[1] if len(argv) > 1 else None
    total_lines = total_code = 0
    print(f"{'module':44} {'lines':>6} {'code':>6}   ({rev or 'working tree'})")
    for name, text in sources(rev).items():
        lines, code = len(text.splitlines()), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{name:44} {lines:6} {code:6}")
    print(f"{'total':44} {total_lines:6} {total_code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
