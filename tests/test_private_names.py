import ast
from collections import Counter
from pathlib import Path

import kch

SOURCES = sorted(Path(kch.__file__).parent.glob("*.py"))


def reads(node):
    """How often each name is read under ``node``: bare names, and the
    attribute names of ``a.name`` apart."""
    names, attributes = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            attributes[child.attr] += 1
    return names, attributes


def private_definitions(tree):
    """The module-level functions and classes named ``_name`` (not dunder)."""
    for definition in tree.body:
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
            if definition.name.startswith("_") and not definition.name.startswith("__"):
                yield definition


def test_every_private_function_and_class_has_a_caller_in_the_library():
    # a private helper that only tests use belongs in the tests.  A bare
    # name is read in its own module or under the name a sibling module
    # imports it as; an attribute read counts for a definition of that name
    # in any module; reads inside the definition itself (a recursion) do not
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    counts = {module: reads(tree) for module, tree in trees.items()}
    names = {module: bare for module, (bare, _) in counts.items()}
    attributes = sum((attribute for _, attribute in counts.values()), Counter())
    imported = Counter()  # (module, name) -> bare reads under every imported alias
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[node.module, alias.name] += names[module][alias.asname or alias.name]
    unused = []
    for module, tree in trees.items():
        for definition in private_definitions(tree):
            name = definition.name
            own_names, own_attributes = reads(definition)
            count = names[module][name] - own_names[name] + imported[module, name]
            count += attributes[name] - own_attributes[name]
            if not count:
                unused.append(f"{module}.{name}")
    assert unused == []


def imported_names(tree, lines):
    """The names a module's imports bind, apart from ``__future__`` features
    and imports on lines marked ``# noqa``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if not any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            yield from bound


def test_every_imported_name_is_read_in_its_module():
    # there is no linter to catch an import left behind by a deletion; the
    # package ``__init__`` imports in order to export
    unread = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        names = reads(tree)[0]
        unread += [
            f"{path.stem}.{name}"
            for name in imported_names(tree, text.splitlines())
            if not names[name]
        ]
    assert unread == []
