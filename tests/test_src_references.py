"""Every public module-level function or class of the package, and every
public method of a class in it, is used by the package itself.

A name that only the tests reach is not part of what the commands run; it
belongs in `tests/helpers.py` or in the test that needs it.  The exports
in `__init__.py` do not count as uses.  A method counts as used when its
name is read anywhere in the package, as an attribute or a name.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kproper"
# read by the CI step that reads every report back, not by a command; and
# the argparse override that argparse calls
ALLOWED = {"cli.parse_report", "cli._Parser.error"}


def _mentions(tree) -> Counter:
    """How often each name is read as a variable or an attribute in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(module: str, tree):
    """(qualified name, node) of each public module-level function or class
    and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method


def test_every_public_definition_is_used_in_src():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    everywhere = sum((_mentions(tree) for tree in trees.values()), Counter())
    # a use inside the definition itself (recursion) does not count
    unused = [
        name
        for module, tree in trees.items()
        for name, node in _definitions(module, tree)
        if everywhere[node.name] == _mentions(node)[node.name]
    ]
    assert sorted(set(unused) - ALLOWED) == []
    assert ALLOWED <= set(unused), "an allowed exception is now used; drop it from ALLOWED"
