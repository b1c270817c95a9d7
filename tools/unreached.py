"""List the statements of ``src/qdmcell`` that the test suite never runs.

    python3 tools/unreached.py

runs the test suite in this process under ``sys.settrace``, recording the
lines executed in frames of ``src/qdmcell``.  It then prints
``path:line: statement`` for every statement (docstrings excluded) none
of whose own lines ran, and exits with pytest's exit code.  A compound
statement's own lines are its header, up to its body; a simple
statement's are all of its lines.  Code reached only from child
processes (the CLI tests that start ``python -m qdmcell.cli``) shows as
unreached.  Needs only the standard library and pytest.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdmcell"


def _own_lines(node: ast.stmt) -> range:
    body = getattr(node, "body", None)
    if not body:
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, max(start, body[0].lineno - 1) + 1)


def _statements(tree: ast.Module):
    # Every statement but docstrings and the declarations that compile
    # to no code.
    docstrings = {id(scope.body[0]) for scope in ast.walk(tree)
                  if isinstance(scope, (ast.Module, ast.ClassDef,
                                        ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                  and ast.get_docstring(scope, clean=False) is not None}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and id(node) not in docstrings
                and not isinstance(node, (ast.Global, ast.Nonlocal))):
            yield node


def main() -> int:
    executed = {}  # file name -> set of line numbers
    ours = {}  # file name -> whether it lies in the package

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
            if ours[name]:
                executed[name] = set()
        return trace_lines if ours[name] else None

    os.chdir(ROOT)  # for pytest's configuration in pyproject.toml
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = {}
    for name, lines in executed.items():
        ran.setdefault(Path(name).resolve(), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = ran.get(path, set())
        for node in sorted(_statements(ast.parse(source)),
                           key=lambda n: n.lineno):
            if lines.isdisjoint(_own_lines(node)):
                text = source.splitlines()[node.lineno - 1].strip()
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
