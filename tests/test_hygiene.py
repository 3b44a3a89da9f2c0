"""Static hygiene of the package source, read with the standard ``ast`` module only.

Ten rules: every name a module imports is used in that module, every
private function or method is referenced somewhere in the package outside
its own body, every public one is referenced outside its own body in the
package or the benchmark scripts or is named in backticks in README.md,
every defaulted parameter of a package function or method is passed, by
keyword or by position, by some call in the package, the tests or the
benchmark scripts, no module imports a name from a sibling module under a
second name, no module but ``algebra.py`` calls ``GradedAlgebra(`` or names
``OUT_OF_WINDOW``, no module but ``calculus.py`` catches
``(WindowError, DualityError)`` or assigns ``_FAILURE_LIMIT``, and nothing
outside ``linalg.py`` calls ``_over_one_denominator``, while
``gravity.py`` and ``calculus.py`` import nothing from ``fractions``, and no
``Q(…)`` or ``Fraction(…)`` call takes an integer literal as its only
argument, and the packed monomial words are laid out in ``poisson.py`` alone
(no other module names ``_FIELD``, ``_LIMIT`` or ``_MASK`` or calls
``.bit_count(``, ``.pack(``, ``.unpack(``, ``.from_bytes(`` or
``.to_bytes(``), where the tuple ``.mul_monomials(`` and ``.partial(`` are
called only by ``algebra._free_truncation`` and the element-level API
(``poisson.modular_vector_field``).  A method is referenced through an attribute, a module function
through an attribute or through a bare name in its own module or in one
that imports it, and a name that is bound or deleted is no reference.  Code
that
nothing reads is deleted, not kept (a public function only the tests call
is a test helper, unless README documents it), a knob that only ever takes
its default is not a knob, a package helper has one name, the product table
and its out-of-window rule are written once, in ``algebra.build_algebra``,
what counts as unavailable and where a failure list stops are decided
once, in ``calculus._available`` and ``calculus._FAILURE_LIMIT``, and a
homology class vector is made in one place, from the integer read of
``linalg``, with no Fraction form beside it in the gravity layer, and a
coefficient whose value is an integer is an ``int``: a ``Fraction`` is kept
for a value that is not integral and for what leaves the package, and the
Poisson operators take and give packed words, with exponent tuples at the
boundary only.
"""

import ast
import os
import re

import mixhom

ROOT = os.path.dirname(mixhom.__file__)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse_dir(path: str) -> dict[str, ast.Module]:
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                out[name] = ast.parse(fh.read(), name)
    return out


def _modules() -> dict[str, ast.Module]:
    return _parse_dir(ROOT)


def _callers() -> list[ast.Module]:
    """Every module whose calls may pass a package parameter: the package, the tests and the benchmark scripts."""
    trees = list(_modules().values())
    for sub in ("tests", "perfbench"):
        trees += _parse_dir(os.path.join(REPO, sub)).values()
    return trees


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


def _references(tree: ast.Module, module: str) -> list[tuple[tuple, frozenset]]:
    """(what is read, the function definitions enclosing the read) for every loaded Name and every Attribute.

    An Attribute reads ("attr", name).  A bare Name that the module binds by
    ``from source import name`` reads ("fn", source, name); any other reads
    ("fn", module, name), a function of the module itself.  Modules are
    named by their file's stem.  A Name that is bound or deleted is no read.
    """
    imported = {a.asname or a.name: ((node.module or "").rsplit(".", 1)[-1], a.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    out = []

    def visit(node: ast.AST, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((("fn",) + imported.get(node.id, (module, node.id)), enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((("attr", node.attr), enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _unread(modules: dict[str, ast.Module], readers: list[ast.Module], wanted) -> list[str]:
    """The functions and methods ``wanted(name)`` selects that nothing outside their own body reads.

    A method is read through an attribute only; any other function through an
    attribute or through a bare name in its own module or in a module that
    imports it (see ``_references``).  Reads are taken in ``modules`` and in
    ``readers``, modules outside the package.
    """
    references = [ref for name, tree in modules.items() for ref in _references(tree, name[:-3])]
    references += [ref for tree in readers for ref in _references(tree, "")]
    unread = []
    for name, tree in modules.items():
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not wanted(node.name):
                continue
            reads = {("attr", node.name)}
            if id(node) not in methods:
                reads.add(("fn", name[:-3], node.name))
            if not any(ref in reads and id(node) not in enclosing for ref, enclosing in references):
                unread.append(f"{name}:{node.lineno} {node.name}")
    return unread


def _unreferenced_private(modules: dict[str, ast.Module]) -> list[str]:
    """Private functions and methods (not dunders) that nothing in the package reads outside their own body."""
    return _unread(modules, [], lambda fn: fn.startswith("_") and not (fn.startswith("__") and fn.endswith("__")))


def _passed(calls: list[ast.Module]) -> dict[str, tuple[set[str], int]]:
    """For each called name: the keywords some call passes it, and the most positional arguments one passes.

    A call with ``*args`` or ``**kwargs`` counts as passing everything.
    """
    out: dict[str, tuple[set[str], int]] = {}
    for tree in calls:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            if name is None:
                continue
            keywords, most = out.get(name, (set(), 0))
            if any(k.arg is None for k in node.keywords):
                keywords = keywords | {"**"}
            keywords = keywords | {k.arg for k in node.keywords if k.arg}
            positional = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            out[name] = (keywords, max(most, positional))
    return out


def _unpassed_defaults(modules: dict[str, ast.Module], calls: list[ast.Module]) -> list[str]:
    """Defaulted parameters of package functions and methods that no call passes, by keyword or by position.

    A method is called through an attribute, so its first parameter (self
    or cls) takes no positional argument; ``__init__`` is called by its
    class's name.  Calls are matched by name alone, so a call to any
    function of the same name counts.
    """
    passed = _passed(calls)
    unpassed = []
    for name, tree in modules.items():
        methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            offset = 1 if id(node) in methods and not static else 0
            called = methods[id(node)] if node.name == "__init__" and id(node) in methods else node.name
            keywords, most = passed.get(called, (set(), 0))
            positional = node.args.posonlyargs + node.args.args
            defaulted = [(a, i) for i, a in enumerate(positional) if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(a, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            for arg, i in defaulted:
                by_position = i is not None and most > i - offset
                if not (by_position or arg.arg in keywords or "**" in keywords):
                    unpassed.append(f"{name}:{node.lineno} {node.name}({arg.arg})")
    return unpassed


def _renamed_imports(modules: dict[str, ast.Module]) -> list[str]:
    """``from .module import name as other``: a package name bound under a second name.

    Module aliases (``from . import poisson as po``) and aliases of names
    from outside the package stay allowed.
    """
    renamed = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                renamed += [f"{name}:{node.lineno} {a.name} as {a.asname}"
                            for a in node.names if a.asname and a.asname != a.name]
    return renamed


def _tables_outside_algebra(modules: dict[str, ast.Module]) -> list[str]:
    """Calls of ``GradedAlgebra(`` and any use or import of ``OUT_OF_WINDOW`` outside ``algebra.py``."""
    found = []
    for name, tree in modules.items():
        if name == "algebra.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                if (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)) == "GradedAlgebra":
                    found.append(f"{name}:{node.lineno} GradedAlgebra(")
            elif isinstance(node, ast.Name) and node.id == "OUT_OF_WINDOW" or (
                    isinstance(node, ast.Attribute) and node.attr == "OUT_OF_WINDOW"):
                found.append(f"{name}:{node.lineno} OUT_OF_WINDOW")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "OUT_OF_WINDOW" for a in node.names):
                found.append(f"{name}:{node.lineno} import OUT_OF_WINDOW")
    return found


def _unavailable_rule_outside_calculus(modules: dict[str, ast.Module]) -> list[str]:
    """``except (WindowError, DualityError)`` and assignments to ``_FAILURE_LIMIT`` outside ``calculus.py``."""
    found = []
    for name, tree in modules.items():
        if name == "calculus.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
                caught = {getattr(e, "id", getattr(e, "attr", None)) for e in node.type.elts}
                if {"WindowError", "DualityError"} <= caught:
                    found.append(f"{name}:{node.lineno} except (WindowError, DualityError)")
            elif isinstance(node, ast.Name) and node.id == "_FAILURE_LIMIT" and isinstance(node.ctx, ast.Store):
                found.append(f"{name}:{node.lineno} _FAILURE_LIMIT =")
    return found


def _class_rows_outside_classes(modules: dict[str, ast.Module]) -> list[str]:
    """Calls of ``_over_one_denominator`` outside ``linalg.py``, and ``fractions`` in ``gravity.py`` or ``calculus.py``."""
    found = []
    for name, tree in modules.items():
        if name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                if (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)) == "_over_one_denominator":
                    found.append(f"{name}:{node.lineno} _over_one_denominator(")
            elif name in ("gravity.py", "calculus.py") and (
                    isinstance(node, ast.ImportFrom) and node.module == "fractions"
                    or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)):
                found.append(f"{name}:{node.lineno} import fractions")
    return found


def _integer_fractions(modules: dict[str, ast.Module]) -> list[str]:
    """Calls of ``Q(`` or ``Fraction(`` (a bare name or an attribute) whose only argument is an integer literal."""
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords):
                continue
            fn, arg = node.func, node.args[0]
            called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            literal = arg.operand if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, (ast.USub, ast.UAdd)) else arg
            if called in ("Q", "Fraction") and isinstance(literal, ast.Constant) and type(literal.value) is int:
                found.append(f"{name}:{node.lineno} {called}({ast.unparse(arg)})")
    return found


# the packed-word layout: its constants, and the attributes that pack, unpack and read a word's bits
_LAYOUT_NAMES = {"_FIELD", "_LIMIT", "_MASK"}
_LAYOUT_ATTRS = {"bit_count", "pack", "unpack", "from_bytes", "to_bytes"}
# the functions that may call the tuple kernel, by module: the truncations and the element-level API
_TUPLE_KERNEL_CALLERS = {"algebra.py": {"_free_truncation"}, "poisson.py": {"modular_vector_field"}}


def _packed_layout_outside_poisson(modules: dict[str, ast.Module]) -> list[str]:
    """The word layout read outside ``poisson.py``, and tuple ``mul_monomials``/``partial`` calls outside their users.

    Outside ``poisson.py`` a layout constant may not be imported or named, and
    no attribute in ``_LAYOUT_ATTRS`` read.  A call counts for the outermost
    function or method that holds it.
    """
    found = []

    def visit(name: str, node: ast.AST, owner: str | None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if name != "poisson.py":
            if isinstance(node, ast.ImportFrom):
                found.extend(f"{name}:{node.lineno} import {a.name}" for a in node.names if a.name in _LAYOUT_NAMES)
            elif isinstance(node, ast.Name) and node.id in _LAYOUT_NAMES:
                found.append(f"{name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in _LAYOUT_NAMES | _LAYOUT_ATTRS:
                found.append(f"{name}:{node.lineno} .{node.attr}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("mul_monomials", "partial") and owner not in _TUPLE_KERNEL_CALLERS.get(name, ()):
                found.append(f"{name}:{node.lineno} .{attr}( in {owner}")
        for child in ast.iter_child_nodes(node):
            visit(name, child, owner)

    for name, tree in modules.items():
        visit(name, tree, None)
    return found


def _readme_names() -> set[str]:
    """Every identifier inside a backtick span of README.md: the documented API."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return {w for span in re.findall(r"`([^`]+)`", fh.read()) for w in re.findall(r"\w+", span)}


def _unreferenced_public(modules: dict[str, ast.Module], readers: list[ast.Module], documented: set[str]) -> list[str]:
    """Public functions and methods that nothing outside their own body reads and no document names.

    Reads are taken in ``modules`` and in ``readers`` (the benchmark
    scripts); a name in ``documented`` is public API that only its users call.
    """
    return _unread(modules, readers, lambda fn: not fn.startswith("_") and fn not in documented)


def test_every_import_is_used():
    assert _unused_imports(_modules()) == []


def test_every_private_function_is_referenced():
    assert _unreferenced_private(_modules()) == []


def test_every_default_is_passed_somewhere():
    assert _unpassed_defaults(_modules(), _callers()) == []


def test_every_package_helper_has_one_name():
    assert _renamed_imports(_modules()) == []


def test_only_algebra_builds_a_product_table():
    assert _tables_outside_algebra(_modules()) == []


def test_only_calculus_decides_what_is_unavailable():
    assert _unavailable_rule_outside_calculus(_modules()) == []


def test_only_mixed_makes_a_class_row():
    assert _class_rows_outside_classes(_modules()) == []


def test_no_fraction_of_an_integer_literal():
    assert _integer_fractions(_modules()) == []


def test_only_poisson_lays_out_a_packed_word():
    assert _packed_layout_outside_poisson(_modules()) == []


def test_every_public_function_is_read_or_documented():
    readers = list(_parse_dir(os.path.join(REPO, "perfbench")).values())
    assert _unreferenced_public(_modules(), readers, _readme_names()) == []


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
    package = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return a\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        pass\n"
        "    def m(self, p=0, q=0):\n"
        "        return f(p, d=q)\n"
    )
    calls = ast.parse("K(1)\nK(y=2).m(5)\nf(1, 2)\n")
    assert _unpassed_defaults({"m.py": package}, [package, calls]) == ["m.py:1 f(c)", "m.py:6 m(q)"]
    aliases = ast.parse(
        "from .linalg import _expand, _accumulate as add_into\n"
        "from . import poisson as po\n"
        "from itertools import product as iproduct\n"
        "from .mixed import WindowError as WindowError\n"
    )
    assert _renamed_imports({"m.py": aliases}) == ["m.py:1 _accumulate as add_into"]
    tables = ast.parse(
        "from .algebra import OUT_OF_WINDOW, GradedAlgebra, build_algebra\n"
        "from . import algebra\n"
        "A = GradedAlgebra([], [], [], 0, {})\n"
        "B = algebra.GradedAlgebra([], [], [], 0, {})\n"
        "C = build_algebra([], [], [], None, 1, None, 'c')\n"
        "def f(p):\n"
        "    return p is algebra.OUT_OF_WINDOW or p is OUT_OF_WINDOW\n"
    )
    assert _tables_outside_algebra({"m.py": tables, "algebra.py": tables}) == [
        "m.py:1 import OUT_OF_WINDOW", "m.py:3 GradedAlgebra(", "m.py:4 GradedAlgebra(",
        "m.py:7 OUT_OF_WINDOW", "m.py:7 OUT_OF_WINDOW"]
    unavailable = ast.parse(
        "from . import calculus\n"
        "from .calculus import _FAILURE_LIMIT\n"
        "_FAILURE_LIMIT = 6\n"
        "def f(g):\n"
        "    try:\n"
        "        return g()\n"
        "    except (calculus.DualityError, WindowError, KeyError):\n"
        "        return _FAILURE_LIMIT\n"
        "    except WindowError:\n"
        "        return None\n"
    )
    assert _unavailable_rule_outside_calculus({"m.py": unavailable, "calculus.py": unavailable}) == [
        "m.py:3 _FAILURE_LIMIT =", "m.py:7 except (WindowError, DualityError)"]
    rows = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "from . import linalg\n"
        "from .linalg import _over_one_denominator\n"
        "def _classes(piece, coords):\n"
        "    return _over_one_denominator({(piece, j): c for j, c in enumerate(coords)})\n"
        "def pi_star(vec):\n"
        "    return linalg._over_one_denominator(vec)\n"
    )
    assert _class_rows_outside_classes({"mixed.py": rows, "gravity.py": rows, "calculus.py": rows,
                                        "linalg.py": rows}) == [
        "mixed.py:6 _over_one_denominator(", "mixed.py:8 _over_one_denominator(", "gravity.py:1 import fractions",
        "gravity.py:2 import fractions", "gravity.py:6 _over_one_denominator(", "gravity.py:8 _over_one_denominator(",
        "calculus.py:1 import fractions", "calculus.py:2 import fractions", "calculus.py:6 _over_one_denominator(",
        "calculus.py:8 _over_one_denominator("]
    literals = ast.parse(
        "import fractions\n"
        "from fractions import Fraction\n"
        "Q = Fraction\n"
        "ONE = {0: Q(1)}\n"
        "def f(n, c):\n"
        "    return Fraction(-2), fractions.Fraction(+3), Q(n), Q(c, n), Fraction(1, 3), Q('1'), Q(True), Q(1.5)\n"
    )
    assert _integer_fractions({"m.py": literals}) == [
        "m.py:4 Q(1)", "m.py:6 Fraction(-2)", "m.py:6 Fraction(+3)"]
    words = ast.parse(
        "from functools import partial\n"
        "from . import poisson as po\n"
        "from .poisson import _FIELD\n"
        "def _truncation(F, a, b):\n"
        "    return F.mul_monomials(a, b), partial(F.pack, a)\n"
        "def _free_truncation(F, a, b):\n"
        "    def product():\n"
        "        return F.mul_monomials(a, b), F.partial(0, a)\n"
        "    return product(), F.pack(a), (a >> po._MASK).bit_count()\n"
        "class FreeGCA:\n"
        "    def multiply(self, a, b):\n"
        "        return self.mul_monomials(a, b), self.unpack(_FIELD)\n"
        "    def partial_word(self, i, w):\n"
        "        return self.partial(i, w), int.from_bytes(bytes(w), 'big')\n"
    )
    assert _packed_layout_outside_poisson({"algebra.py": words, "poisson.py": words}) == [
        "algebra.py:3 import _FIELD", "algebra.py:5 .mul_monomials( in _truncation", "algebra.py:5 .pack",
        "algebra.py:9 .pack", "algebra.py:9 .bit_count", "algebra.py:9 ._MASK",
        "algebra.py:12 .mul_monomials( in multiply", "algebra.py:12 .unpack", "algebra.py:12 _FIELD",
        "algebra.py:14 .partial( in partial_word", "algebra.py:14 .from_bytes",
        "poisson.py:5 .mul_monomials( in _truncation", "poisson.py:8 .mul_monomials( in _free_truncation",
        "poisson.py:8 .partial( in _free_truncation", "poisson.py:12 .mul_monomials( in multiply",
        "poisson.py:14 .partial( in partial_word"]
    public = ast.parse(
        "def read():\n"
        "    return 1\n"
        "def documented():\n"
        "    return 2\n"
        "def benched():\n"
        "    return 3\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else read()\n"
        "class C:\n"
        "    def method(self):\n"
        "        def helper():\n"
        "            return self.other()\n"
        "        return helper()\n"
        "    def other(self):\n"
        "        return self.__len__()\n"
        "    def _private(self):\n"
        "        return 0\n"
    )
    bench = ast.parse("from mixhom import m\nm.benched()\n")
    assert _unreferenced_public({"m.py": public}, [bench], {"documented"}) == [
        "m.py:7 recursive", "m.py:10 method"]
    # what counts as a read: a Name that is bound or deleted does not; a method
    # is read through an attribute only; a module function through an attribute,
    # or through a bare name in its own module or in a module that imports it
    reads = {
        "a.py": ast.parse(
            "def bound():\n"
            "    return 0\n"
            "def _deleted():\n"
            "    return 0\n"
            "def imported():\n"
            "    return 0\n"
            "def closure():\n"
            "    return 0\n"
            "def through_attribute():\n"
            "    return 0\n"
            "class C:\n"
            "    def pair(self):\n"
            "        return 0\n"
            "    def _called(self):\n"
            "        return 0\n"
            "for bound in range(2):\n"
            "    pass\n"
            "_deleted = 1\n"
            "del _deleted\n"
            "pair = C()._called()\n"
            "print(pair)\n"
        ),
        "b.py": ast.parse(
            "from .a import imported\n"
            "from . import a\n"
            "def _check():\n"
            "    def closure():\n"
            "        return imported()\n"
            "    return closure() + a.through_attribute()\n"
            "print(_check())\n"
        ),
    }
    assert _unreferenced_public(reads, [], set()) == ["a.py:1 bound", "a.py:7 closure", "a.py:12 pair"]
    assert _unreferenced_private(reads) == ["a.py:3 _deleted"]
