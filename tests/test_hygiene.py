"""Static hygiene of the package source, read with the standard ``ast`` module only.

Two rules: every name a module imports is used in that module, and every
private function or method is referenced somewhere in the package outside
its own body.  Code that nothing reads is deleted, not kept.
"""

import ast
import os

import mixhom

ROOT = os.path.dirname(mixhom.__file__)


def _modules() -> dict[str, ast.Module]:
    out = {}
    for name in sorted(os.listdir(ROOT)):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
                out[name] = ast.parse(fh.read(), name)
    return out


def _annotation_names(node: ast.AST) -> set[str]:
    """The names inside string annotations such as ``-> "ExactMatrix"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            for ann in [a.annotation for a in args] + [node.returns]:
                if ann is not None:
                    used |= _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def _unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    unused = []
    for name, tree in modules.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    return unused


def _references(tree: ast.Module) -> list[tuple[str, frozenset]]:
    """(referenced name, the function definitions enclosing the reference) for every Name and Attribute."""
    out = []

    def visit(node: ast.AST, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _unreferenced_private(modules: dict[str, ast.Module]) -> list[str]:
    """Private functions and methods (not dunders) that no Name or Attribute outside their own body reads."""
    references = [ref for tree in modules.values() for ref in _references(tree)]
    unreferenced = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fn = node.name
            if not fn.startswith("_") or (fn.startswith("__") and fn.endswith("__")):
                continue
            if not any(ref == fn and id(node) not in enclosing for ref, enclosing in references):
                unreferenced.append(f"{name}:{node.lineno} {fn}")
    return unreferenced


def test_every_import_is_used():
    assert _unused_imports(_modules()) == []


def test_every_private_function_is_referenced():
    assert _unreferenced_private(_modules()) == []


def test_the_rules_find_what_they_claim():
    tree = ast.parse(
        "from .linalg import ExactMatrix, _accumulate, _cancel\n"
        "import math\n"
        "def _loop(n):\n"
        "    return _loop(n - 1) if n else _accumulate({}, {})\n"
        "def _used():\n"
        "    return 1\n"
        "class C:\n"
        "    def _method(self):\n"
        "        return self._other()\n"
        "    def _other(self):\n"
        "        return _used()\n"
        "def f(x: 'ExactMatrix'):\n"
        "    return x\n"
    )
    assert _unused_imports({"m.py": tree}) == ["m.py:1 _cancel", "m.py:2 math"]
    assert _unreferenced_private({"m.py": tree}) == ["m.py:3 _loop", "m.py:8 _method"]
