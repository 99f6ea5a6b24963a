"""Source-level guards over the flagcoh package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagcoh"


def test_package_validates_without_assert_statements():
    # python -O strips assert statements, so validation must raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
