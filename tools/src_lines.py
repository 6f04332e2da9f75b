"""Count the code lines and the settable values of the package.

    python3 tools/src_lines.py [CHECKOUT]

prints, for each module of CHECKOUT/src/ctmc_bounds (default: this
checkout), the number of lines that hold code, and their total. Blank
lines, comment lines and the lines of docstrings (a string that stands
alone as the first statement of a module, class or function) do not count.
Then it prints the settable values: the flags each subcommand of the CLI
accepts, with their total, the number of AnalysisSettings fields, and the
optional parameters (those with a default) of the functions that the
package exports in __all__, read from the package that CHECKOUT/src
imports.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def settable_values(src: Path) -> None:
    """Print the flags, settings fields and optional parameters of the package in src."""
    sys.path.insert(0, str(src))
    import ctmc_bounds
    from ctmc_bounds import cli, modelfile
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ctmc_bounds was imported from {cli.__file__}, not {src}")
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    total = 0
    for name, parser in sub.choices.items():
        flags = [a for a in parser._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        total += len(flags)
        print(f"{len(flags):6d} flags of {name}")
    print(f"{total:6d} flags in total")
    print(f"{len(dataclasses.fields(modelfile.AnalysisSettings)):6d} AnalysisSettings fields")
    optional = []
    for name in ctmc_bounds.__all__:
        func = getattr(ctmc_bounds, name)
        if inspect.isfunction(func):
            optional += [f"{name}({p.name})" for p in inspect.signature(func).parameters.values()
                         if p.default is not p.empty]
    print(f"{len(optional):6d} optional parameters of exported functions: {' '.join(optional)}")


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1])
    total = 0
    for path in sorted((root / "src" / "ctmc_bounds").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    settable_values((root / "src").resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
