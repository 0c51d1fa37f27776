"""Print every statement inside a src/propmrf function body that the Tier-1
tests never run.

The tests run in this process under a sys.settrace line tracer, and ast
gives the statements of each function body in src/propmrf.  A simple
statement counts as run when any of its lines ran; a compound one when any
line of its header or body ran.  Docstrings, and global and nonlocal
declarations, compile to no code and are not listed.  Tests that run
propmrf in a subprocess (the demos, perfbench) are not traced.

Two tests are left out: the formula-mode minimizer runs on the calibration
model, which take most of Tier-1's time and reach no statement that the
other minimizer tests do not.  Failures of
test_searches_leave_no_cyclic_garbage are ignored, because a tracer can
leave reference cycles of its own for that test to count; with this one it
passes on CPython 3.11.

Usage, from the repository root:

    python tools/unrun_lines.py [extra pytest arguments]

It exits 0 when every statement ran and no other test failed, and 1
otherwise.  It needs only the standard library besides the test
dependencies.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "propmrf"
SKIPPED = (
    "tests/test_fdc.py::test_calibration_search_space_sizes",
    "tests/test_acceptance.py::test_criterion_02_calibrated_search_space",
)
TOLERATED = "tests/test_fdc.py::test_searches_leave_no_cyclic_garbage"


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def body_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement nested in a function body, in line order."""
    found: dict[int, ast.stmt] = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(func):
            if (
                stmt is func
                or not isinstance(stmt, ast.stmt)
                or isinstance(stmt, (ast.Global, ast.Nonlocal))
            ):
                continue
            found[id(stmt)] = stmt
        first = func.body[0]
        if _is_docstring(first):
            found.pop(id(first), None)
    return sorted(found.values(), key=lambda s: (s.lineno, s.col_offset))


def unrun(source: str, executed: set[int]) -> list[ast.stmt]:
    """The function-body statements of source none of whose lines ran."""
    return [
        stmt
        for stmt in body_statements(ast.parse(source))
        if executed.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1))
    ]


class _Failures:
    """A pytest plugin that keeps the node ids of failed test phases."""

    def __init__(self) -> None:
        self.nodeids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.nodeids.append(report.nodeid)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))
    paths = sorted(SRC.glob("*.py"))
    # Read before the run, so that an edit made meanwhile cannot shift lines.
    sources = {str(p): p.read_text(encoding="utf-8") for p in paths}
    executed: dict[str, set[int]] = {name: set() for name in sources}

    def trace(frame, event, arg):
        lines = executed.get(frame.f_code.co_filename)
        if lines is None:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    failures = _Failures()
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
    for nodeid in SKIPPED:
        args += ["--deselect", nodeid]
    args += [*argv, str(ROOT / "tests")]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(args, plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    if not any(executed.values()):
        print(f"no line of {SRC} ran: propmrf was imported from elsewhere")
        return 1
    missing = 0
    for name, lines in executed.items():
        where = Path(name).relative_to(ROOT)
        source = sources[name]
        for stmt in unrun(source, lines):
            missing += 1
            print(f"{where}:{stmt.lineno}: {source.splitlines()[stmt.lineno - 1].strip()}")
    unexpected = [n for n in failures.nodeids if not n.startswith(TOLERATED)]
    for nodeid in unexpected:
        print(f"failed: {nodeid}")
    print(f"{missing} statement(s) never ran; {len(unexpected)} unexpected failure(s)")
    return 1 if missing or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
