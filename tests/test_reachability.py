"""Every definition in src/connsum is reached from a program entry point.

The walk starts at `connsum.cli` (its `main` and its module-level code),
the demos, `perfbench/` and `tools/`, and follows references with `ast`:
a bare name resolves in its own module or through a `from .x import`, an
attribute of a module alias resolves in that module, and any other
attribute reaches every method of that name in a reached class.  A
definition that only tests reach belongs in `tests/`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "connsum"
ENTRY_DIRS = ("demos", "perfbench", "tools")


def parse_package() -> dict[str, ast.Module]:
    """{module name: syntax tree} of src/connsum (`__init__` included)."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _aliases(tree: ast.AST, package: dict):
    """(names, modules): each bare name bound by `from connsum... import`
    to its (module, name), and each name bound to a whole connsum module."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = node.module or ""
        if node.level == 1 or mod == "connsum" or mod.startswith("connsum."):
            base = mod.removeprefix("connsum").lstrip(".")
            for a in node.names:
                bound = a.asname or a.name
                if not base and a.name in package:
                    modules[bound] = a.name
                else:
                    names[bound] = (base or "__init__", a.name)
    return names, modules


def definitions(package: dict) -> dict[str, ast.AST]:
    """{qualified name: node} of the top-level functions, classes and
    constants of every module and the methods of its classes."""
    defs = {}
    for mod, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defs[f"{mod}.{node.name}.{item.name}"] = item
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        defs[f"{mod}.{t.id}"] = node
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                defs[f"{mod}.{node.target.id}"] = node
    return defs


def _own_nodes(node: ast.AST):
    """The nodes of a definition, without the bodies of its methods."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if cur is node and isinstance(node, ast.ClassDef) \
                    and isinstance(child, ast.FunctionDef):
                continue
            stack.append(child)


def _references(nodes, mod, names, modules, package):
    """(qualified names, attribute names) that the nodes refer to."""
    quals, attrs = set(), set()
    for n in nodes:
        if isinstance(n, ast.Name):
            quals.add("{}.{}".format(*names[n.id]) if n.id in names
                      else f"{mod}.{n.id}")
        elif isinstance(n, ast.Attribute):
            v = n.value
            if isinstance(v, ast.Name) and v.id in modules:
                quals.add(f"{modules[v.id]}.{n.attr}")
            else:
                attrs.add(n.attr)
        elif isinstance(n, ast.Tuple):
            # perfbench/layertrace.py names its targets as a string pair
            # (connsum module, attribute path)
            elts = [e.value for e in n.elts if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)]
            for target, path in zip(elts, elts[1:]):
                if target in package:
                    head, _, method = path.partition(".")
                    quals.add(f"{target}.{head}")
                    attrs.add(method)
    return quals, attrs


def unreached() -> list[str]:
    """Qualified names of the src/connsum definitions that no entry point
    reaches."""
    package = parse_package()
    defs = definitions(package)
    aliases = {mod: _aliases(tree, package) for mod, tree in package.items()}
    reached, attrs = {"cli.main"}, set()

    def visit(nodes, mod, names, modules):
        q, a = _references(nodes, mod, names, modules, package)
        reached.update(q & set(defs))
        attrs.update(a)

    top = [n for n in package["cli"].body
           if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    visit([x for n in top for x in ast.walk(n)], "cli", *aliases["cli"])
    for d in ENTRY_DIRS:
        for path in sorted((ROOT / d).glob("*.py")):
            tree = ast.parse(path.read_text())
            visit(ast.walk(tree), "", *_aliases(tree, package))

    done = set()
    while True:
        for qual in defs:
            mod, *cls, name = qual.split(".")
            if cls and f"{mod}.{cls[0]}" in reached \
                    and (name in attrs or name.startswith("__")):
                reached.add(qual)
        todo = reached - done
        if not todo:
            return sorted(set(defs) - reached)
        for qual in todo:
            done.add(qual)
            mod = qual.split(".")[0]
            visit(_own_nodes(defs[qual]), mod, *aliases[mod])


def test_every_src_definition_is_reached_from_an_entry_point():
    missing = unreached()
    assert not missing, "reached from no entry point:\n" + "\n".join(missing)


def test_src_imports_nothing_from_tests():
    test_modules = {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    for mod, tree in parse_package().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                heads = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                heads = [(node.module or "").split(".")[0]]
            else:
                continue
            assert not set(heads) & test_modules, mod
