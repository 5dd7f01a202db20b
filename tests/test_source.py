"""Checks on the package source itself, read with the stdlib ``ast`` module."""

import ast
import pathlib

import c4quartic

SOURCES = sorted(pathlib.Path(c4quartic.__file__).parent.glob("*.py"))


def module_names(tree):
    """The names a module binds at its top level: functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def exported(tree):
    """The names in a module's ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def used_names(trees):
    """Every name the trees read: a loaded name, an attribute or an imported name."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    return used


def unused(trees):
    """(module, name) for each top-level name of a module that nothing in the package uses."""
    used = used_names(trees.values())
    found = []
    for module, tree in trees.items():
        public = exported(tree)
        for name in module_names(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in public and name not in used:
                found.append((module, name))
    return found


def test_every_private_name_in_the_package_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert len(trees) > 10
    assert unused(trees) == []


def test_the_check_finds_a_name_left_behind():
    trees = {
        "a.py": ast.parse("__all__ = ['f']\ndef f(): return _g()\ndef _g(): pass\ndef _h(): pass\n_X, _Y = 1, 2\n"),
        "b.py": ast.parse("from .a import _X\nimport os\nos._Y\n"),
    }
    assert unused(trees) == [("a.py", "_h")]
