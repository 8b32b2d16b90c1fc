"""Every public module-level name in src/qmil is used by the package or the bench.

A function, class or constant that only tests call is dead weight in the
package: it has to be kept correct and read past, and it makes the public
API look larger than what the CLI and the bench use. This test parses
src/qmil/*.py and perfbench/*.py with ast and fails on each public
module-level name that no code there refers to outside its own
definition. A reference is a name or an attribute; in perfbench/ a string
counts too, because the tracer looks functions up by attribute name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "qmil").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """(name, node) for every public module-level function, class and constant."""
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
            if not name.startswith("_"):
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


def test_every_public_name_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    assert len(PACKAGE) > 1 and BENCH
    everywhere = {path: _references(tree, None, path in BENCH) for path, tree in trees.items()}
    unused = []
    for path in PACKAGE:
        elsewhere = set().union(*(refs for other, refs in everywhere.items() if other != path))
        for name, node in _definitions(trees[path]):
            if name not in elsewhere and name not in _references(trees[path], node, False):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"used by nothing in src/qmil or perfbench: {unused}"
