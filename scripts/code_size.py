"""Print the size of each module of the package.

For every ``src/vudlmp/*.py`` one line gives its line count (what ``wc -l``
counts), the lines that hold code (every line a token other than a
comment or a docstring falls on; blank lines aside) and its longest
function with that function's length, from its ``def`` line to its last
line, docstring included.  A last line gives the totals.

Run from the repo root:  python scripts/code_size.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vudlmp"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree):
    """(line, column) of the start of every module, class and function
    docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(text):
    """The number of lines of ``text`` that hold code."""
    docs = _docstrings(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def function_lengths(text):
    """{qualified name: lines from ``def`` to the function's last line} of
    every function and method, nested ones included."""
    lengths = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    lengths[name] = child.end_lineno - child.lineno + 1
                name += "."
            visit(child, name)
    visit(ast.parse(text), "")
    return lengths


def main():
    total = code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}  longest function")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        n, c = text.count("\n"), code_lines(text)
        lengths = function_lengths(text)
        longest = max(lengths, key=lengths.get, default=None)
        where = f"{longest} ({lengths[longest]})" if longest else "-"
        print(f"{path.name:<16}{n:>7}{c:>7}  {where}")
        total, code = total + n, code + c
    print(f"{'total':<16}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
