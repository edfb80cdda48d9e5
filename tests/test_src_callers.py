"""Every function, class and method that ``src/vidtext`` defines is used by
the program: its name is referenced in ``src/`` or ``benchmarks/`` outside
its own definition, as an identifier, an attribute or a whole string (the
traced benchmark wraps functions by name).  Code that only tests reach
belongs in ``tests/``."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vidtext"

# kept with no caller: it records the paper's model size
EXEMPT = {"ModelConfig.full_scale"}


def _definitions(tree):
    """(qualified name, node) of every function, class and method."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _references(tree):
    """(name, line) of every identifier, attribute and identifier-like string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def test_every_src_definition_is_referenced_by_the_program():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in (SRC, ROOT / "benchmarks")
        for path in sorted(folder.rglob("*.py"))
    }
    spans = defaultdict(list)  # name -> (file, first line, last line) of each definition
    defined = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            spans[node.name].append((path, node.lineno, node.end_lineno))
            if path.is_relative_to(SRC):
                defined.append((f"{path.stem}.{qualname}", qualname, node.name))
    used = {
        name
        for path, tree in trees.items()
        for name, line in _references(tree)
        if name in spans and not any(p == path and lo <= line <= hi for p, lo, hi in spans[name])
    }
    unused = [
        where
        for where, qualname, name in defined
        if name not in used and qualname not in EXEMPT
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
