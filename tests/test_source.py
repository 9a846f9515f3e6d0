"""Rules about the source tree itself, checked without running it."""

import ast
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_src_has_no_bare_assert():
    # python -O strips assert statements, so every check in src/ must raise by itself
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found


def nodes_outside_core():
    """(path, node) for every syntax node of a src/ module other than core.py."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "core.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.relative_to(ROOT), node


def named_outside_core(kept_in_core: set[str]) -> list[str]:
    """Each place, as path:line, where a src/ module other than core.py names one of these."""
    return [f"{path}:{node.lineno}" for path, node in nodes_outside_core()
            if {getattr(node, attr, None) for attr in ("id", "attr", "name")} & kept_in_core]


def test_only_core_draws_checks_and_expands_haar_rotations():
    # every other module takes its batches from core._haar_rotation_chunks, which checks them
    # and sizes them by the one budget
    assert not named_outside_core({"_check_su2", "_tensor_powers", "haar_random_su2_batch",
                                   "_TENSOR_CHUNK_ENTRIES", "_powers_per_stack"})


def test_only_core_decides_from_which_dimension_a_state_keeps_its_parts():
    # a twirl hands over its weight blocks and Q at every size; core alone keeps or drops them
    assert not named_outside_core({"_BLOCK_MIN_DIM"})


def test_only_core_writes_the_integer_rule():
    # "an int or numpy integer, not a bool" is core._is_integer; an annotation is no check
    found = [f"{path}:{node.lineno}" for path, node in nodes_outside_core()
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and any(getattr(t, "id", None) == "bool" or getattr(t, "attr", None) == "integer"
                     for arg in node.args[1:] for t in ast.walk(arg))]
    assert not found


def test_every_mutant_still_applies_exactly_once():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        path = ROOT / m.file
        assert path.is_relative_to(SRC) and m.old != m.new, m.name
        assert path.read_text(encoding="utf-8").count(m.old) == 1, m.name
        test_file, *names = m.test.split("[")[0].split("::")  # without a parameter id
        test_text = (ROOT / test_file).read_text(encoding="utf-8")
        assert all(f" {name}(" in test_text or f"class {name}" in test_text
                   for name in names), m.name
