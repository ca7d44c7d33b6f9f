"""Every public function, class and method of the package is used by the
program: named somewhere in src/, perfbench/ or scripts/ outside its own
definition and outside docstrings. A public helper that only the tests call
fails here; tests reach private helpers through conftest.py instead."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fuzzcluster"
USERS = ("src", "perfbench", "scripts")


def is_public(name: str) -> bool:
    return not name.startswith("_")


def defined_names(tree: ast.Module) -> set[str]:
    """The public module-level functions and classes, and the public methods
    of those classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_public(node.name):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and is_public(item.name)
            }
    return names


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of the module, classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def used_names(tree: ast.Module) -> set[str]:
    """Every identifier the code names: variables, attributes, imports, and
    strings that are one identifier (perfbench/tracer.py wraps functions by
    name), docstrings aside."""
    skip = docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier() and id(node) not in skip:
                names.add(node.value)
    return names


def test_every_public_name_is_used_by_the_program():
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        defined |= defined_names(ast.parse(path.read_text(encoding="utf-8")))
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            used |= used_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(defined - used) == []
