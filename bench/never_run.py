"""List the statements of src/circlelab/*.py that a pytest run never runs.

Usage (from the repository root):

    python3 bench/never_run.py [PYTEST_ARG ...]

With no arguments it runs tier-1 (``-q --continue-on-collection-errors``
over ``tests/``); any arguments replace those and go to ``pytest.main``
as given.  The run is in process, under a ``sys.settrace`` tracer that
follows only frames whose code lies in one of the package's modules;
``threading.settrace`` puts the same tracer on every thread started
during the run, so the variation DP's workers are covered too.  Code run
in a child process (a test that spawns the CLI) is not seen.

A statement counts as run when a line event fell on any line from its
first decorator to its last line, so a compound statement ran if its
header or any of its body did.  Docstrings, which compile to no code,
are not statements here.  The output is one ``module.py:line  source``
line per statement never run, then a count; the exit code is pytest's.
It needs nothing beyond the standard library and pytest.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "circlelab")
TIER1_ARGS = ["-q", "--continue-on-collection-errors",
              os.path.join(ROOT, "tests")]


def _is_docstring(body: list, i: int) -> bool:
    node = body[i]
    return (i == 0 and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> list:
    """(first line, last line) of every statement, docstrings left out,
    in source order; a decorated definition starts at its first
    decorator."""
    spans = []

    def visit(body):
        for i, node in enumerate(body):
            if _is_docstring(body, i):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)
            for case in getattr(node, "cases", []):
                visit(case.body)

    visit(ast.parse(source).body)
    return sorted(spans)


def never_run(source: str, executed: set) -> list:
    """First lines of the statements of `source` on none of whose lines a
    line event in `executed` fell."""
    return [first for first, last in statements(source)
            if not any(line in executed for line in range(first, last + 1))]


class LineTracer:
    """Records (file, line) of every line event in the frames of `files`."""

    def __init__(self, files):
        self.files = {os.path.realpath(f) for f in files}
        self.lines = {f: set() for f in self.files}
        self._names = {}

    def _file(self, code):
        name = code.co_filename
        if name not in self._names:
            real = os.path.realpath(name)
            self._names[name] = real if real in self.files else None
        return self._names[name]

    def global_trace(self, frame, event, arg):
        path = self._file(frame.f_code)
        if path is None:
            return None
        lines = self.lines[path]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._previous = sys.gettrace()
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        threading.settrace(self._previous)
        return False


def report(tracer: LineTracer) -> list:
    """`module.py:line  source` for every statement never run."""
    out = []
    for path in sorted(tracer.files):
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        for line in never_run(source, tracer.lines[path]):
            out.append(f"{os.path.basename(path)}:{line}  "
                       f"{text[line - 1].strip()}")
    return out


def main(argv=None) -> int:
    import pytest
    args = TIER1_ARGS if not argv else list(argv)
    # the traced modules must be the ones the tests import, and the CLI
    # runs that tests spawn must find the package as tier-1's do
    src = os.path.dirname(PACKAGE)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    with LineTracer(glob.glob(os.path.join(PACKAGE, "*.py"))) as tracer:
        code = pytest.main(args)
    lines = report(tracer)
    print("\n".join(lines))
    print(f"{len(lines)} statements of src/circlelab never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
