"""Code lines of the entcert package, per module and in total.

A code line is a line of a module under src/entcert that holds a token
of Python code: blank lines, comment lines and the lines of module,
class and function docstrings do not count.  tokenize finds the code
tokens, with a string token spanning every line it covers, and ast finds
the docstrings.

    python3 scripts/code_lines.py                 # this checkout
    python3 scripts/code_lines.py --src OTHER/src # another one
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the module at path."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to count")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((Path(args.src) / "entcert").glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name} {n}")
    print(f"all {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
