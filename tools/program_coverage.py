"""List every statement inside a ``src/`` function that the checked traffic never runs.

Usage::

    python3 tools/program_coverage.py

The traffic is every command of ``report_digests.MATRIX``, run in-process
through ``framefree.cli.main``, plus the set-up and three ops of each
perfbench workload (seed 1, in a temporary directory).  A ``sys.settrace``
hook goes in before ``framefree`` is imported, so statements run at import
count too.  A statement ran when the hook saw one of its own lines (those
outside the statements nested in it) or when a statement nested in it ran.
Docstrings are not counted.  The script prints ``path:line  function  source``
for each statement that did not run, then their count.  Standard library only;
about 1.5 s (2 cores).
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT), str(ROOT / "tools")]


def run_traffic() -> None:
    """Every report_digests command, then the set-up and three ops of each workload."""
    # imported here, under the trace hook, so that framefree's import-time statements count
    import report_digests
    from perfbench import workloads
    from perfbench.harness import NullTracer

    for command in report_digests.MATRIX:
        report_digests.run(command)
    for workload in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory(prefix="coverage-") as scratch:
            state = workload.setup(workload.inputs(1, Path(scratch)), NullTracer(),
                                   workloads.DecomposeCache())
            for op_id in range(3):
                workload.op(state, NullTracer(), op_id)


def traced_lines() -> set[tuple[str, int]]:
    """(file, line) of each line in ``src/`` that ``run_traffic`` runs, imports included."""
    hit: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(str(SRC)) else None

    sys.settrace(call)
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    return hit


def _first_line(stmt: ast.stmt) -> int:
    return min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])


def _children(node: ast.AST):
    """The statements nested directly in ``node``, through except and case clauses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _children(child)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _visit(stmt: ast.stmt, qual: str, in_function: bool, hit: set[int],
           missed: list[tuple[int, str]]) -> bool:
    """Whether ``stmt`` ran; appends (line, function) of each one inside a function that did not."""
    children = list(_children(stmt))
    inner_qual, inner_function = qual, in_function
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inner_qual = f"{qual}.{stmt.name}" if qual else stmt.name
        inner_function = in_function or not isinstance(stmt, ast.ClassDef)
    ran_inside = [_visit(c, inner_qual, inner_function, hit, missed)
                  for c in children if not _is_docstring(c)]
    nested = {n for c in children for n in range(_first_line(c), c.end_lineno + 1)}
    own = set(range(_first_line(stmt), stmt.end_lineno + 1)) - nested
    ran = any(ran_inside) or bool(own & hit)
    if in_function and not ran:
        missed.append((stmt.lineno, qual))
    return ran


def main() -> None:
    lines = traced_lines()
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        hit = {n for name, n in lines if name == str(path)}
        missed: list[tuple[int, str]] = []
        for stmt in ast.parse(text).body:
            _visit(stmt, "", False, hit, missed)
        source = text.splitlines()
        for line, qual in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}  {qual}  {source[line - 1].strip()}")
        count += len(missed)
    print(f"{count} statements inside src/ functions did not run")


if __name__ == "__main__":
    main()
