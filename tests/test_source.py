"""Source-level guards over the flagcoh package."""

import ast
import sys
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


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency (pyproject.toml); any other
    # import, even one inside a function, would be an undeclared one
    allowed = set(sys.stdlib_module_names) | {"numpy", "flagcoh"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed
            ]
    assert found == []



def test_package_uses_no_float_linear_algebra():
    # the exact engine takes minors and ranks in integers or in closed form;
    # a bare "linalg" also catches `from numpy import linalg`
    found = [path.name for path in sorted(SRC.glob("*.py")) if "linalg" in path.read_text()]
    assert found == []


def test_package_imports_its_own_modules_at_module_level():
    # a relative import inside a function hides the module graph (and any
    # cycle in it) until that function first runs
    found = {
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert found == set()



def test_package_imports_only_at_module_level():
    # an import inside a function hides a dependency until that function
    # first runs, and runs again on every call
    found = {
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert found == set()


def _is_text(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_text, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_family_letters_are_compared_only_in_cartan():
    # a family's facts are cartan's tables; elsewhere a family may key a
    # table (`t.family not in _FAMILIES`) but not branch on its letter
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cartan.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(n, ast.Attribute) and n.attr == "family" for n in sides) and any(
                    map(_is_text, sides)
                ):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []

def test_private_helpers_have_a_package_caller():
    # a module-level function or method named _x that nothing in the package
    # names besides its def is dead code, even when a test still calls it
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    helpers = {
        node.name
        for tree in trees
        for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
        for node in scope.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert helpers
    assert sorted(helpers - named) == []


def test_verify_catches_only_package_errors():
    # a bare except or a builtin such as ValueError would turn a bug inside
    # a check into a skip or a fail, and verify would still report
    errors = {
        node.name
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    found = []
    for node in ast.walk(ast.parse((SRC / "verify.py").read_text())):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = [getattr(c, "id", None) for c in caught]
            found += [f"verify.py:{node.lineno} {n}" for n in names if n not in errors]
    assert errors
    assert found == []


def _defined_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_relative_imports_name_the_defining_module():
    # `from .m import x` where m only re-imports x hides x's home and ties
    # the importer to m's own imports; __init__.py re-exports on purpose
    defined = {
        path.stem: _defined_names(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    found = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name not in defined[node.module]
    ]
    assert len(defined) > 1
    assert found == []
