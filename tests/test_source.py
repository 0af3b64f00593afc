"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stratcalc"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # would disappear silently; raise an error instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py")) and not found, found


def test_quotient_posets_are_built_in_one_function():
    # every QuotientPoset comes from one construction, the T0 quotient
    # of the minimal opens; a second call site would be a second path
    builders = {
        f"{path.name}:{func.name}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "QuotientPoset"
    }
    assert len(builders) == 1, builders


def test_stratify_and_refine_never_name_opens():
    # open families stay masks below the document layer: only spaces.py,
    # the result fields and documents.py name them
    found = [
        f"{name}:{node.lineno}"
        for name in ("stratify.py", "refine.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"), name))
        if isinstance(node, ast.Attribute) and node.attr in ("opens", "opens_sorted")
    ]
    assert not found, found


def test_cli_never_names_opens():
    # the command layer takes named opens from the maximal cover, the one
    # place the limit path names them, and never lists a space's family
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"), "cli.py"))
        if isinstance(node, ast.Attribute) and node.attr in ("opens", "opens_sorted")
    ]
    assert not found, found
