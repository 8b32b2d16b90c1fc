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

A module-level import in src/qmil that its own module never refers to is
the same: it keeps a name importable from the module, for a test or a
tracer to patch, after the code that called it has gone.

A src/qmil module that imports an underscore-prefixed name of another
src/qmil module reaches past that module's interface: the helper is
shared, so it is public in all but its name.

A parameter that defaults to None although every call there passes it is
the same dead weight: its `is None` branch is a second code path that
only tests run. A test fails on each such parameter of a src/qmil
function, method, class __init__ or dataclass field, matching calls by
name as above.

A snake_case name that a src/qmil docstring or comment mentions but that
no code in src/qmil or perfbench defines, uses or holds as a string is a
stale reference: the code it named was renamed or deleted. The last test
fails on each, numpy's own names aside.
"""

import ast
import io
import pathlib
import re
import tokenize

import numpy as np

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


def _imports(tree):
    """(bound name, line) of every module-level import but from __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_import_is_used_by_its_module():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    imported, unused = 0, []
    for path, tree in trees.items():
        # a bound name is used by name; an attribute of that name elsewhere is not it
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imports(tree):
            imported += 1
            if name not in used:
                unused.append(f"{path.stem}:{line} {name}")
    assert imported > 50  # the walk finds the package's imports
    assert unused == [], f"imported but never used by their module: {unused}"


def test_no_module_imports_a_private_name_of_another():
    private, checked = [], 0
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "qmil"):
                for alias in node.names:
                    checked += 1
                    if alias.name.startswith("_") and not _dunder(alias.name):
                        private.append(f"{path.stem}:{node.lineno} {node.module}.{alias.name}")
    assert checked > 30  # the walk finds the package's own imports
    assert private == [], f"private names imported from another module: {private}"


def test_every_method_and_property_is_used_outside_tests():
    members = {name for path in PACKAGE for name, _ in _members(ast.parse(path.read_text()))}
    assert {"Block.unpack", "InstanceGrid.num_classes", "Aggregator.meta"} <= members
    unused = _unused(_members)
    assert unused == [], f"used by nothing in src/qmil or perfbench: {unused}"


# --- parameters that only tests omit ----------------------------------------


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _none_defaults(args: ast.arguments, skip_first: bool):
    """(position or None, name) of every parameter whose default is None.

    Positions count after self where skip_first; keyword-only parameters
    have none.
    """
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    start = 1 if skip_first else 0
    for i, (arg, default) in enumerate(zip(positional, defaults)):
        if i >= start and default is not None and _is_none(default):
            yield i - start, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and _is_none(default):
            yield None, arg.arg


def _callables(tree):
    """(qualified name, call name, None-defaulted parameters) of every callable.

    A function is called by its name, a method by its name, and a class by
    its own name with the parameters of its __init__, or of its dataclass
    fields in order.
    """
    methods = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = []
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                methods.add(node)
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                params = list(_none_defaults(node.args, not static))
                call_name = cls.name if node.name == "__init__" else node.name
                yield f"{cls.name}.{node.name}", call_name, params
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_none(node.value):
                    fields.append((len(fields), node.target.id))
                elif node.value is None or "ClassVar" not in ast.unparse(node.annotation):
                    fields.append((len(fields), None))
        fields = [(i, name) for i, name in fields if name is not None]
        if fields:
            yield cls.name, cls.name, fields
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node not in methods:
            yield node.name, node.name, list(_none_defaults(node.args, False))


def _calls(trees):
    """Every call in trees by the name it calls: a Name's id or an Attribute's attr."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, position, name: str) -> bool:
    """Whether call passes the parameter; *args or **kwargs count as omitting it."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return False
    return (position is not None and len(call.args) > position) or any(
        kw.arg == name for kw in call.keywords
    )


def test_no_none_default_is_omitted_only_by_tests():
    """A None default that every package and bench call passes serves only tests.

    Its `is None` branch is a second code path that nothing but the tests
    runs, so the default and the branch go, and tests pass the value too.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    calls = _calls(trees.values())
    assert "conv2d_forward" in calls and "forward_bag" in calls
    always_passed = []
    for path in PACKAGE:
        for qualified, call_name, params in _callables(trees[path]):
            found = calls.get(call_name, [])
            for position, name in params:
                if found and all(_passes(call, position, name) for call in found):
                    always_passed.append(f"{path.stem}.{qualified}({name})")
    assert always_passed == [], f"None defaults that only tests omit: {always_passed}"


# --- names in prose that no code has ------------------------------------------

# a lower-case word with at least one underscore, such as grad_out or _bias_row
_SNAKE_CASE = re.compile(r"\b_*[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b")


def _docstrings(tree):
    """The docstring constant of the module and of every class and function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def _code_names(tree) -> set:
    """Every name the code defines, binds or refers to, and every string it holds
    but its docstrings."""
    docstrings = set(map(id, _docstrings(tree)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update((node.asname or node.name).split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            names.add(node.value)
    return names


def _prose(path, tree):
    """(line, text) of every docstring and comment of a module."""
    for doc in _docstrings(tree):
        yield doc.lineno, doc.value
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def test_every_name_in_a_docstring_or_comment_is_one_the_code_has():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + BENCH}
    known = set().union(*map(_code_names, trees.values()))
    for namespace in (np, np.ndarray, np.lib.stride_tricks, np.random.Generator, np.linalg):
        known.update(dir(namespace))
    mentioned, stale = 0, []
    for path in PACKAGE:
        for line, text in _prose(path, trees[path]):
            for match in _SNAKE_CASE.finditer(text):
                mentioned += 1
                if match.group() not in known:
                    at = line + text.count("\n", 0, match.start())
                    stale.append(f"{path.stem}:{at} {match.group()}")
    assert mentioned > 150  # the walk reads the package's prose
    assert stale == [], f"named in prose, but no code has them: {stale}"
