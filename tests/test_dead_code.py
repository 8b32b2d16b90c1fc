"""Every module-level name and class member in src/qmil is used by the package or the bench.

A function, class, constant, method or property that only tests call is
dead weight in the package: it has to be kept correct and read past, and
it makes the public API look larger than what the CLI and the bench use.
A private helper that a refactor leaves without a caller is the same.
These tests parse src/qmil/*.py and perfbench/*.py with ast and fail on
each module-level name, public or private (dunders such as __version__
aside), and on each method or property of a src/qmil class (dunders
aside), that no code there refers to outside its own definition. A
reference is a name or an attribute; in perfbench/ a string counts too,
because the tracer looks functions up by attribute name. A method is
matched by its name alone, so one call of forward keeps every class's
forward.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "qmil").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) for every module-level function, class and constant but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not _dunder(name):
                yield name, node


def _references(tree, skip, strings: bool) -> set:
    """Names, attributes and (with strings) string constants outside the node skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _members(tree):
    """("class.name", node) for every method and property of a module-level class but dunders."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not _dunder(node.name):
                    yield f"{cls.name}.{node.name}", node


def _unused(definitions):
    """The names definitions(tree) yields that no src/qmil or perfbench code refers to.

    A qualified name "class.name" is looked up by its last part.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    assert len(PACKAGE) > 1 and BENCH
    everywhere = {path: _references(tree, None, path in BENCH) for path, tree in trees.items()}
    unused = []
    for path in PACKAGE:
        elsewhere = set().union(*(refs for other, refs in everywhere.items() if other != path))
        for qualified, node in definitions(trees[path]):
            name = qualified.rpartition(".")[2]
            if name not in elsewhere and name not in _references(trees[path], node, False):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_module_level_name_is_used_outside_tests():
    unused = _unused(_definitions)
    assert unused == [], f"used by nothing in src/qmil or perfbench: {unused}"


def test_every_method_and_property_is_used_outside_tests():
    members = {name for path in PACKAGE for name, _ in _members(ast.parse(path.read_text()))}
    assert {"ParamGroup.named", "InstanceGrid.num_classes", "Aggregator.meta"} <= members
    unused = _unused(_members)
    assert unused == [], f"used by nothing in src/qmil or perfbench: {unused}"
