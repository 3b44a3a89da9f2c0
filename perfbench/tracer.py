"""Per-layer tracing of mixhom from outside the package.

``Tracer.install()`` wraps the public functions and methods of the nine
modules (plus the constructors of their classes) and rebinds every name that
refers to them: module globals bound through ``from .linalg import ...`` and
function references held in module-level dicts such as ``cli.TASK_RUNNERS``.
Nothing under ``src/`` changes; ``uninstall()`` restores the originals.

Span boundaries are chosen deliberately.  A wrapped call costs roughly a
microsecond, so the per-element accessors in ``COUNT_ONLY`` (millions of
calls per op) are only counted: their time stays with the caller, and
``SKIPPED`` ones are not wrapped at all.  Every other wrapped call is a span
``(name, start, end, parent, op)``; spans stay in memory and ``dump()``
writes them out when the run ends.  A layer's self time is its spans' time
minus the time covered by their child spans.  The cost that remains shows
up as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "algebra", "hochschild", "poisson", "koszul", "mixed", "calculus", "gravity", "cli")

# called millions of times per op: a span each would dominate the trace
COUNT_ONLY = {
    "gravity.GravityStructure.table_lookup",
    "algebra.GradedAlgebra.multiply",
    "hochschild.Cochain.__init__",
    "poisson.FreeGCA.multiply",
    "poisson.contraction",
    "poisson.contract_monomial",
    "poisson.FreeGCA.partial_element",
    "hochschild.DualCochain.evaluate",
}
# per-element accessors whose call count nobody reads
SKIPPED = {
    "hochschild.Cochain.value",
    "algebra.GradedAlgebra.mult_basis",
    "algebra.GradedAlgebra.basis_element",
    "algebra.GradedAlgebra.one",
    "algebra.GradedAlgebra.element_degree",
    "algebra.FrobeniusPairing.value",
    "poisson.FreeGCA.degree",
    "poisson.FreeGCA.weight",
    "poisson.FreeGCA.mul_monomials",
    "poisson.FreeGCA.partial",
    "poisson.add_into",
    "poisson.scale",
    "poisson.is_zero",
    "linalg.ExactMatrix.column",
    "mixed.MixedComplexSlice.dim",
    "mixed.MixedComplexSlice.b_matrix",
    "mixed.MixedComplexSlice.B_matrix",
    "gravity.GravityStructure.degree",
}
# spans whose combined (outermost) time is reported under one name
GROUPS = {
    "mixed.slice": (
        "mixed.slice_from_hochschild",
        "mixed.slice_from_hochschild_dual",
        "mixed.slice_from_poisson",
        "mixed.slice_from_poisson_dual",
    ),
    "calculus.bundle": (
        "calculus.hochschild_bundle",
        "calculus.hochschild_dual_bundle",
        "calculus.poisson_bundle",
        "calculus.poisson_dual_bundle",
    ),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}
REDUCE = "linalg.HomologyPresentation.reduce"
CUP_CLASSES = "calculus.CalculusBundle.cup_classes"
OPS_CUP = ("calculus.HochschildCochainOps.cup", "calculus.MultivectorOps.cup")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, op)
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)  # by span name
        self.incl_s: defaultdict = defaultdict(float)  # outermost activations only
        self.active: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        keys = (name, GROUP_OF[name]) if name in GROUP_OF else (name,)
        spans, stack, active, incl, self_s = self.spans, self._stack, self.active, self.incl_s, self.self_s
        counts = self.counts
        clock = time.perf_counter
        rref = name == "linalg.rref"
        none_key = name + ".none" if name == CUP_CLASSES else None
        miss_key = CUP_CLASSES + ".misses" if name in OPS_CUP else None

        def span(*args, **kwargs):
            if rref:
                rows = list(args[0])
                args = (rows,) + args[1:]
                counts["linalg.rref.rows"] += len(rows)
                if active[REDUCE]:
                    counts[REDUCE + ".rows"] += len(rows)
            if miss_key and active[CUP_CLASSES]:
                counts[miss_key] += 1
            counts[name] += 1
            for k in keys:
                active[k] += 1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                for k in keys:
                    active[k] -= 1
                    if not active[k]:
                        incl[k] += dur
                spans[index] = (name, start, end, stack[-1][0] if stack else -1, self.op)
            if none_key and result is None:
                counts[none_key] += 1
            return result

        return span

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        wrapper = self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"mixhom.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper, for rebinding importers
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    if name not in SKIPPED:
                        replaced[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            self._saved.append((obj, key, value))
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, layer: str, cls):
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIPPED:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def run_op(self, op):
        """Run one op under a root span ``bench.op`` with a fresh op id."""
        self.op += 1
        return self._span("bench.op", op)()

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out

    def dump(self, path: str):
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op per-layer metrics as {name: (value, unit)}."""
        c = self.counts

        def calls(span):
            return c[span] / n_ops, "count"

        def incl(key):
            return self.incl_s[key] / n_ops, "s"

        def ratio(part, whole):
            return (1 - c[part] / c[whole] if c[whole] else 0.0), "ratio"

        out = {f"{layer}.self_s": (s / n_ops, "s") for layer, s in self.layer_self_s().items()}
        out.update({
            "linalg.rref.calls": calls("linalg.rref"),
            "linalg.rref.rows": calls("linalg.rref.rows"),
            "linalg.rref.self_s": (self.self_s["linalg.rref"] / n_ops, "s"),
            "linalg.solve_in_span.calls": calls("linalg.solve_in_span"),
            "linalg.reduce.calls": calls(REDUCE),
            "linalg.reduce.rows_per_call": (c[REDUCE + ".rows"] / c[REDUCE] if c[REDUCE] else 0.0, "ratio"),
            "linalg.homology_presentation.calls": calls("linalg.homology_presentation"),
            "linalg.homology_presentation.s": incl("linalg.homology_presentation"),
            "calculus.delta_classes.calls": calls("calculus.DualityData.delta_classes"),
            "calculus.pd_inverse.calls": calls("calculus.DualityData.pd_inverse"),
            "calculus.cup_classes.calls": calls(CUP_CLASSES),
            "calculus.cup_classes.hit_ratio": ratio(CUP_CLASSES + ".misses", CUP_CLASSES),
            "calculus.cup_classes.escapes": calls(CUP_CLASSES + ".none"),
            "calculus.verify_bv_axioms.s": incl("calculus.verify_bv_axioms"),
            "calculus.attach_duality.s": incl("calculus.attach_duality"),
            "calculus.bundle.s": incl("calculus.bundle"),
            "hochschild.circle.calls": calls("hochschild.circle"),
            "hochschild.dual_of_operator.calls": calls("hochschild.dual_of_operator"),
            "hochschild.boundary_b.calls": calls("hochschild.boundary_b"),
            "hochschild.connes_B.calls": calls("hochschild.connes_B"),
            "gravity.table_lookup.calls": calls("gravity.GravityStructure.table_lookup"),
            "gravity.bracket.calls": calls("gravity.GravityStructure.bracket"),
            "gravity.table_lookup.hit_ratio": ratio(
                "gravity.GravityStructure.bracket", "gravity.GravityStructure.table_lookup"
            ),
            "gravity.verify_gravity_axioms.s": incl("gravity.verify_gravity_axioms"),
            "gravity.compare_across_iso.s": incl("gravity.compare_across_iso"),
            "poisson.DualSide.contract.calls": calls("poisson.DualSide.contract"),
            "poisson.contraction.calls": calls("poisson.contraction"),
            "poisson.DualSide.coboundary.calls": calls("poisson.DualSide.coboundary"),
            "poisson.DualSide.d_star.calls": calls("poisson.DualSide.d_star"),
            "poisson.schouten.calls": calls("poisson.schouten"),
            "mixed.slice.s": incl("mixed.slice"),
            "mixed.NegativeCyclic.s": incl("mixed.NegativeCyclic.__init__"),
            "mixed.les_check.s": incl("mixed.les_check"),
            "mixed.cyclic_homology.s": incl("mixed.cyclic_homology"),
            "koszul.fit_dual_product_twist.s": incl("koszul.fit_dual_product_twist"),
            "koszul.poisson_hc_iso.s": incl("koszul.poisson_hc_iso"),
            "koszul.is_koszul.s": incl("koszul.is_koszul"),
            "koszul.small_hochschild_models.s": incl("koszul.small_hochschild_models"),
            "algebra.multiply.calls": calls("algebra.GradedAlgebra.multiply"),
        })
        for task in ("hh", "hc-minus", "poisson", "gravity", "koszul", "check"):
            out[f"cli.task.{task}.s"] = incl("cli.task_" + task.replace("-", "_"))
        return out
