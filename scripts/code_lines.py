"""Lines and code lines of each module of the linkstream package, as a
Markdown table.

    python3 scripts/code_lines.py [--base BASE] [DIR]

DIR is the package directory (default: src/linkstream next to this
script).  `lines` counts every line, as `wc -l` does; `code` counts the
lines that hold a token of code: not blank, not a comment alone and not a
docstring (of a module, class or function), since a change can shed
docstring and comment lines without making the code any smaller.  With
--base, each module gets the counts of the package directory BASE before
those of DIR ("-" where a tree lacks the module).  The last row sums each
column.  The counts are a report: they gate nothing.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(source):
    """(line, column) of the first token of each docstring in source."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """The number of lines of source that hold a token of code."""
    docstrings = docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING
                                    and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(directory):
    """module name -> (lines, code lines), for each .py file of directory."""
    result = {}
    for path in sorted(Path(directory).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        result[path.name] = (source.count("\n"), code_lines(source))
    return result


def table(trees):
    """Markdown rows: one per module of any tree, then the totals; each tree
    gives a lines and a code column."""
    names = sorted(set().union(*trees.values()))
    head = " | ".join("%s lines | %s code" % (label, label) for label in trees)
    rows = ["| module | %s |" % head, "|---|" + "---|---|" * len(trees)]
    for name in names:
        cells = []
        for tree in trees.values():
            cells.extend(map(str, tree.get(name, ("-", "-"))))
        rows.append("| %s | %s |" % (name, " | ".join(cells)))
    totals = []
    for tree in trees.values():
        totals.extend(str(sum(c[i] for c in tree.values())) for i in (0, 1))
    rows.append("| total | %s |" % " | ".join(totals))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?",
                        default=str(ROOT / "src" / "linkstream"),
                        metavar="DIR", help="the package directory")
    parser.add_argument("--base", metavar="BASE",
                        help="a package directory to count before DIR")
    args = parser.parse_args(argv)
    trees = {}
    if args.base:
        trees["base"] = counts(args.base)
    trees["head" if args.base else "this"] = counts(args.directory)
    print("\n".join(table(trees)))


if __name__ == "__main__":
    main()
