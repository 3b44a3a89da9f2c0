"""Batch command-line front end.

Reads a job specification (a line-oriented block format), runs the
requested computations, and writes one JSON result file plus a plain-text
summary per task.  Every numeric value is an exact rational rendered
canonically; two runs on the same input produce byte-identical artifacts.

The tasks of one job share a :class:`JobContext`: the algebra, its
Hochschild slice, HC⁻ with its long-exact-sequence report, the Poisson data
with both unimodularity reports, and the Koszul structure (dual data, TV/(R)
and verdict) are each built once, by the first task that needs them, and
dropped once no later task reads them.  A build that fails is not kept, so
every task that needs it fails with its own error artifact.  Each task
writes the same artifact it writes when run alone.

Job file format::

    [algebra]
    kind exterior          # exterior | polynomial | quadratic
    n 2
    # polynomial algebras take a weight cutoff:
    # cutoff 4

    [poisson]              # optional; polynomial-side quadratic bivector
    c 1 2 1 2 1            # c^{j1 j2}_{i1 i2}: i1 i2 j1 j2 value

    [window]
    p_max 4
    w_max 4
    u_trunc 3
    arity_max 3

    [tasks]
    hh
    hc-minus
    check

Exit codes: 0 all checks pass, 2 verification failure, 3 window too small,
4 parse error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebra import (
    WindowError,
    _relation_vector,
    check_frobenius_pairing,
    exterior_pairing,
    exterior_presentation,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
    polynomial_presentation,
    QuadraticPresentation,
)
from .calculus import (
    DualityError,
    attach_duality,
    hochschild_dual_bundle,
    poisson_bundle,
    polyvector_pd_twist,
    verify_bv_axioms,
)
from .gravity import GravityStructure, verify_gravity_axioms
from .koszul import (
    dual_bivector_coeffs,
    koszul_dual_algebra,
    koszul_poisson_identification,
    small_hochschild_models,
)
from .linalg import _accumulate
from .mixed import (
    NegativeCyclic,
    cyclic_homology,
    default_truncation,
    les_check,
    slice_from_hochschild,
    slice_from_hochschild_dual,
    slice_from_poisson,
)
from . import poisson as po


SCHEMA = "mixhom-result@1"

TASKS = ("hh", "hc-minus", "poisson", "gravity", "koszul", "check")
KINDS = ("exterior", "polynomial", "quadratic")
# the algebra kinds each task can run on
TASK_KINDS = {
    "hh": ("exterior", "polynomial"),
    "hc-minus": ("exterior", "polynomial"),
    "poisson": ("polynomial",),
    "gravity": ("polynomial",),
    "koszul": KINDS,
    "check": KINDS,
}


class ParseError(Exception):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class JobSpecification:
    kind: str
    n: int
    cutoff: int | None = None
    relations: list | None = None
    poisson_coeffs: dict | None = None
    p_max: int = 4
    w_max: int = 4
    u_trunc: int | None = None
    arity_max: int = 3
    tasks: list[str] = field(default_factory=list)


def parse_rational(token: str, line_no: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"not an exact rational: {token!r}")


def parse_job(text: str) -> JobSpecification:
    """Parse a job file; raises ParseError with a line position on failure."""
    section = None
    algebra: dict = {}
    coeffs: dict = {}
    coeff_lines: list[tuple[int, tuple]] = []  # (line, indices) of each poisson entry
    window: dict = {}
    tasks: list[str] = []
    relations: list = []
    relation_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("algebra", "poisson", "window", "tasks"):
                raise ParseError(line_no, f"unknown section {section!r}")
            continue
        if section is None:
            raise ParseError(line_no, "content before any [section] header")
        parts = line.split()
        if section == "algebra":
            key = parts[0].lower()
            if key == "kind":
                if len(parts) != 2 or parts[1] not in KINDS:
                    raise ParseError(line_no, "kind must be exterior | polynomial | quadratic")
                algebra["kind"] = parts[1]
            elif key in ("n", "cutoff"):
                try:
                    (token,) = parts[1:]
                    algebra[key] = int(token)
                except ValueError:
                    raise ParseError(line_no, f"{key} takes one integer")
                if key == "cutoff" and algebra[key] <= 0:
                    raise ParseError(line_no, "cutoff must be positive")
            elif key == "relation":
                # relation i j c [i j c ...]: a vector in the tensor basis
                body = parts[1:]
                if len(body) % 3:
                    raise ParseError(line_no, "relation takes triples: i j coeff")
                terms = []
                for t in range(0, len(body), 3):
                    try:
                        i, j = int(body[t]), int(body[t + 1])
                    except ValueError:
                        raise ParseError(line_no, f"bad generator index in {body[t]!r} {body[t + 1]!r}")
                    c = parse_rational(body[t + 2], line_no)
                    terms.append((i, j, c))
                relations.append(terms)
                relation_lines.append(line_no)
            else:
                raise ParseError(line_no, f"unknown algebra key {key!r}")
        elif section == "poisson":
            if parts[0].lower() != "c" or len(parts) != 6:
                raise ParseError(line_no, "poisson lines are: c i1 i2 j1 j2 value")
            idx = []
            for tok in parts[1:5]:
                try:
                    idx.append(int(tok))
                except ValueError:
                    raise ParseError(line_no, f"bad generator index {tok!r}")
            coeffs[tuple(idx)] = coeffs.get(tuple(idx), 0) + parse_rational(parts[5], line_no)
            coeff_lines.append((line_no, tuple(idx)))
        elif section == "window":
            key = parts[0].lower()
            if key not in ("p_max", "w_max", "u_trunc", "arity_max"):
                raise ParseError(line_no, f"unknown window key {key!r}")
            try:
                (token,) = parts[1:]
                val = int(token)
            except ValueError:
                raise ParseError(line_no, f"{key} takes one integer")
            if val <= 0:
                raise ParseError(line_no, f"{key} must be positive")
            window[key] = val
        elif section == "tasks":
            task = parts[0].lower()
            if task not in TASKS:
                raise ParseError(line_no, f"unknown task {task!r}")
            if len(parts) > 1:
                raise ParseError(line_no, "a task line names one task")
            tasks.append(task)
    if "kind" not in algebra:
        raise ParseError(0, "missing [algebra] kind")
    n = algebra.get("n", 0)
    if n < 1:
        raise ParseError(0, "algebra needs n >= 1")
    spec = JobSpecification(
        kind=algebra["kind"],
        n=n,
        cutoff=algebra.get("cutoff"),
        relations=relations or None,
        poisson_coeffs=coeffs or None,
        tasks=tasks,
    )
    for k, v in window.items():
        setattr(spec, k, v)
    for line_no, idx in coeff_lines:
        for t in idx:
            if not (1 <= t <= n):
                raise ParseError(line_no, f"poisson coefficient index {t} out of range 1..{n}")
    if spec.kind == "quadratic":
        for terms, line_no in zip(relations, relation_lines):
            for (i, j, _c) in terms:
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ParseError(line_no, f"relation index ({i},{j}) out of range 1..{n}")
        try:
            _presentation(spec)
        except ValueError as exc:
            # no relation lines, or linearly dependent ones
            raise ParseError(relation_lines[-1] if relation_lines else 0, str(exc))
    check_tasks(spec)
    return spec


def check_tasks(spec: JobSpecification):
    """Raise ParseError for a task that cannot run on the job's algebra kind."""
    for task in spec.tasks:
        if spec.kind not in TASK_KINDS[task]:
            kinds = " | ".join(TASK_KINDS[task])
            raise ParseError(0, f"task {task} needs kind {kinds}, not {spec.kind}")


# -- the runner -----------------------------------------------------------------


def _sorted_dims(dims: dict) -> list:
    return [[d, w, dims[(d, w)]] for (d, w) in sorted(dims)]


def _presentation(spec: JobSpecification) -> QuadraticPresentation:
    if spec.kind == "polynomial":
        return polynomial_presentation(spec.n)
    if spec.kind == "exterior":
        return exterior_presentation(spec.n)
    if spec.kind == "quadratic":
        if not spec.relations:
            raise ValueError("quadratic algebras need relation lines")
        rels = []
        for terms in spec.relations:
            # parse_job has checked every index against n
            acc = {}
            for (i, j, c) in terms:
                _accumulate(acc, {(i - 1, j - 1): c})
            rels.append(_relation_vector(spec.n, acc))
        return QuadraticPresentation(spec.n, (0,) * spec.n, tuple(rels), name="input")
    raise ValueError(f"no presentation for kind {spec.kind}")


# the shared structures each task reads, and the ones each structure is built from;
# check also reads the algebra of an exterior job (``JobContext.release``)
TASK_READS = {
    "hh": ("algebra", "hh_dims"),
    "hc-minus": ("algebra", "slice", "hc_minus", "les"),
    "poisson": ("poisson", "unimodularity", "dual_frobenius"),
    "gravity": ("poisson",),
    "koszul": ("koszul",),
    "check": ("les", "poisson", "unimodularity", "dual_frobenius"),
}
BUILT_FROM = {
    "slice": ("algebra",),
    "hh_dims": ("slice",),
    "hc_minus": ("slice",),
    "les": ("hc_minus",),
    "unimodularity": ("poisson",),
}


class JobContext:
    """The structures a job's tasks share, each built the first time a task asks.

    A ``cached_property`` keeps a value only when its builder returns, so a
    build that raises is attempted again, and raises again, for every task
    that asks for it; each task still writes its own error artifact.  A
    context lives for one ``run_job`` call.
    """

    def __init__(self, spec: JobSpecification):
        self.spec = spec

    def release(self, tasks) -> None:
        """Drop every built structure that none of ``tasks`` will read.

        A structure still to be built keeps the ones it is built from, so
        nothing is built twice.  Without this, a job would hold its slice
        and HC⁻ through every later task and raise its peak memory.
        """
        keep: set[str] = set()
        todo = [name for task in tasks for name in TASK_READS[task]]
        if "koszul" in tasks and _bar_reads_the_slice(self.spec):
            todo.append("hh_dims")
        if "check" in tasks and self.spec.kind == "exterior":
            todo.append("algebra")
        while todo:
            name = todo.pop()
            if name not in keep:
                keep.add(name)
                if name not in vars(self):
                    todo.extend(BUILT_FROM.get(name, ()))
        for name in [name for name in vars(self) if name not in keep | {"spec"}]:
            delattr(self, name)

    @cached_property
    def algebra(self):
        spec = self.spec
        if spec.kind == "exterior":
            return make_exterior_algebra(spec.n)
        if spec.kind == "polynomial":
            return make_truncated_polynomial_algebra(spec.n, spec.cutoff or spec.w_max)
        raise ValueError("structure-constant algebras are driven through presentations")

    @cached_property
    def slice(self):
        return slice_from_hochschild(self.algebra, self.spec.w_max)

    @cached_property
    def hh_dims(self):
        return self.slice.hh_dims()

    @cached_property
    def hc_minus(self):
        return NegativeCyclic(self.slice, self.spec.u_trunc or default_truncation(self.slice))

    @cached_property
    def les(self):
        return les_check(self.hc_minus)

    @cached_property
    def poisson(self):
        """(ctx, π) on the polynomial side."""
        if self.spec.kind != "polynomial":
            raise ValueError("poisson tasks need a polynomial algebra")
        ctx = po.PoissonContext.make(self.spec.n, "poly")
        return ctx, po.quadratic_bivector(ctx, self.spec.poisson_coeffs or {})

    @cached_property
    def unimodularity(self):
        ctx, pi = self.poisson
        return po.unimodularity_check(ctx, pi, w_max=min(self.spec.w_max, 3))

    @cached_property
    def dual_frobenius(self):
        """The Frobenius-side unimodularity report of the Koszul-dual bivector."""
        ctxe = po.PoissonContext.make(self.spec.n, "ext")
        pid = po.quadratic_bivector(ctxe, dual_bivector_coeffs(self.spec.poisson_coeffs or {}))
        return po.frobenius_poisson_check(po.DualSide(ctxe, pid, w_max=self.spec.n + 2))

    @cached_property
    def koszul(self):
        """The presentation's Koszul structure up to w_max; it builds TV/(R) and the verdict on first read."""
        return koszul_dual_algebra(_presentation(self.spec), self.spec.w_max)


def task_hh(job: JobContext) -> dict:
    hh = {k: v for k, v in job.hh_dims.items() if v}
    return {
        "algebra": job.algebra.name,
        "hochschild_homology_dims": _sorted_dims(hh),
    }


def task_hc_minus(job: JobContext) -> dict:
    hc = job.hc_minus
    # HC before the LES check, so that its eliminations do not run while hc
    # holds the π* and β columns the check memoizes
    cyclic = cyclic_homology(job.slice)
    les = job.les
    return {
        "algebra": job.algebra.name,
        "truncation": hc.N,
        "hc_minus_dims_stable": _sorted_dims({k: v for k, v in hc.stable_dims().items() if v}),
        "unstable_pieces": [[d, w] for (d, w), ok in sorted(hc.stable.items()) if not ok],
        "cyclic_dims": _sorted_dims({k: v for k, v in cyclic.items() if v}),
        "les": {
            "beta_after_pi_zero": les.beta_after_pi_zero,
            "pi_after_beta_is_B": les.pi_after_beta_is_B,
            "kernel_beta_is_image_pi": les.kernel_beta_is_image_pi,
            "failures": les.failures,
        },
    }


def task_poisson(job: JobContext) -> dict:
    spec = job.spec
    ctx, pi = job.poisson
    rep = job.unimodularity
    sl = slice_from_poisson(ctx, pi, spec.w_max)
    hp = {k: v for k, v in sl.hh_dims().items() if v}
    out = {
        "poisson_homology_dims": _sorted_dims(hp),
        "unimodular": rep.unimodular,
        "volume_is_cycle": rep.boundary_of_volume_zero,
        "diagram_commutes": rep.diagram_commutes,
        "modular_field_zero": rep.modular_field_zero,
    }
    frep = job.dual_frobenius
    out["dual_unimodular_frobenius"] = frep.unimodular
    out["equivalence_holds"] = frep.unimodular == rep.unimodular
    return out


def _gravity_structure(job: JobContext):
    spec = job.spec
    ctx, pi = job.poisson
    w_slice = max(spec.w_max + 1, 2 * spec.n)
    sl = slice_from_poisson(ctx, pi, w_slice)
    N = spec.u_trunc or default_truncation(sl)
    hc = NegativeCyclic(sl, N)
    bundle = poisson_bundle(
        ctx, pi, sl, w_shift_min=-spec.n, w_shift_max=w_slice - spec.n, coeff_wmax=w_slice
    )
    vol = (0,) * spec.n + (1,) * spec.n
    piece = (spec.n, spec.n)
    vec = sl.element_vector(piece, {vol: 1})
    try:
        coords = sl.hh(piece).reduce(vec)
    except ValueError:
        # the volume form is a Poisson cycle exactly when π is unimodular
        raise DualityError("the volume form is not a cycle: π is not unimodular") from None
    eta = (piece, [i for i, c in enumerate(coords) if c][0])
    duality = attach_duality(bundle, eta, pd_twist=polyvector_pd_twist(1))
    # bracket tables stay inside the slice for low weights; out-of-window
    # tuples are reported as skips rather than silently dropped
    basis = [
        k
        for k in GravityStructure(hc, duality).basis
        if k[0][1] <= spec.w_max // 2 + 1
    ]
    return GravityStructure(hc, duality, basis)


def task_gravity(job: JobContext) -> dict:
    spec = job.spec
    g = _gravity_structure(job)
    report = verify_gravity_axioms(g, n_max=spec.arity_max, check_max=spec.arity_max + 1)
    tables = {}
    for arity in range(2, spec.arity_max + 1):
        tables[str(arity)] = {
            ",".join(map(str, tup)): {
                f"{k[0][0]},{k[0][1]},{k[1]}": str(Fraction(v, val[1])) for k, v in sorted(val[0].items())
            }
            for tup, val in g.entries(arity).items()
            if val is not None
        }
    return {
        "basis": [[k[0][0], k[0][1], k[1]] for k in g.basis],
        "basis_degrees": [g.degree(k) for k in g.basis],
        "tables": tables,
        "skew_checked": report.skew_checked,
        "jacobi_checked": report.jacobi_checked,
        "violations": report.skew_failures + report.jacobi_failures,
        "window_skips": report.window_skips,
        "nonzero_brackets": {str(k): v for k, v in sorted(report.nonzero_brackets.items())},
    }


def _bar_reads_the_slice(spec: JobSpecification) -> bool:
    """Whether the koszul task's bar dims are the job's HH dims: chains of weight <= w_max never meet an
    element above w_max, so k[x1..xn] truncated at any cutoff >= w_max gives the same complex."""
    return spec.kind == "polynomial" and (spec.cutoff or spec.w_max) >= spec.w_max


def task_koszul(job: JobContext) -> dict:
    spec = job.spec
    data = job.koszul
    W = spec.w_max
    verdict = data.verdict
    out = {
        "presentation": data.source.name,
        "koszul_up_to_weight": {str(w): ok for w, ok in sorted(verdict.per_weight.items())},
        "koszul_up_to_cutoff": verdict.koszul_up_to_cutoff,
    }
    out["dual_piece_dims"] = {str(w): data.piece_dim(w) for w in range(W + 1)}
    if verdict.koszul_up_to_cutoff:
        models = small_hochschild_models(data)
        out["small_model_chain_dims"] = [
            [s, t, d] for (s, t), d in sorted(models.chain_dims.items())
        ]
        out["small_model_cochain_dims"] = [
            [s, t, d] for (s, t), d in sorted(models.cochain_dims.items())
        ]
        if spec.kind == "polynomial":
            hh = job.hh_dims if _bar_reads_the_slice(spec) else (
                slice_from_hochschild(make_truncated_polynomial_algebra(spec.n, W), W).hh_dims())
            bar = {k: v for k, v in hh.items() if v}
            conv = {}
            for (s, t), d in models.chain_dims.items():
                _accumulate(conv, {(t, s + t): d})
            out["bar_dims"] = _sorted_dims(bar)
            out["cross_model_dims_match"] = conv == bar
    if spec.poisson_coeffs and spec.kind == "polynomial":
        ident = koszul_poisson_identification(spec.n)
        failures = ident.check_chain_map(spec.poisson_coeffs, w_max=min(spec.w_max, 4))
        out["poisson_identification_chain_map"] = not failures
    return out


def task_check(job: JobContext) -> dict:
    """Run every verification relevant to the specified algebra."""
    spec = job.spec
    out: dict = {"passed": True, "checks": {}}

    def record(name, ok, detail=None):
        out["checks"][name] = {"passed": bool(ok)}
        if detail:
            out["checks"][name]["detail"] = detail
        if not ok:
            out["passed"] = False

    if spec.kind in ("exterior", "polynomial"):
        record("mixed_complex_axioms", True)  # validated at construction
        les = job.les
        record("long_exact_sequence", les.passed, les.failures[:4] or None)
    if spec.kind == "exterior":
        Ae = job.algebra
        pairing = exterior_pairing(Ae)
        rep = check_frobenius_pairing(Ae, pairing)
        record("frobenius_pairing", rep.passed)
        if spec.n <= 2:
            if spec.w_max < spec.n:
                raise WindowError(
                    f"the volume element has weight {spec.n}, above w_max {spec.w_max}"
                )
            sld = slice_from_hochschild_dual(Ae, spec.w_max)
            # PD sends weight shift ω to hom weight n - ω, so ω stays above
            # n - w_max to keep every target inside the slice
            bundle = hochschild_dual_bundle(
                Ae, sld, q_max=spec.p_max + 1,
                coh_window=lambda p: spec.n - spec.w_max <= p[1] <= spec.n
                and -spec.n <= p[0] <= 0,
            )
            top = Ae.dim - 1
            piece = (spec.n, spec.n)
            coords = sld.hh(piece).reduce(sld.element_vector(piece, {(top,): 1}))
            eta = (piece, [i for i, c in enumerate(coords) if c][0])
            try:
                duality = attach_duality(bundle, eta)
                bv = verify_bv_axioms(duality, max_classes=24, quartic_limit=60)
                record(
                    "bv_suite",
                    bv.passed,
                    {
                        "seven_term_checked": bv.seven_term_checked,
                        "quartic_checked": bv.quartic_checked,
                        "failures": (bv.seven_term_failures + bv.bracket_failures)[:4] or None,
                    },
                )
            except DualityError as exc:
                record("bv_suite", False, str(exc))
    if spec.poisson_coeffs and spec.kind == "polynomial":
        ctx, pi = job.poisson
        try:
            po.check_jacobi(ctx, pi)
            record("jacobi", True)
        except po.JacobiError as exc:
            record("jacobi", False, str(exc))
            return out
        rep = job.unimodularity
        agreement = rep.boundary_of_volume_zero == rep.diagram_commutes == rep.modular_field_zero
        record("unimodularity_diagnostics_agree", agreement)
        record("primal_dual_unimodularity_equivalence", job.dual_frobenius.unimodular == rep.unimodular)
    return out


TASK_RUNNERS = {
    "hh": task_hh,
    "hc-minus": task_hc_minus,
    "poisson": task_poisson,
    "gravity": task_gravity,
    "koszul": task_koszul,
    "check": task_check,
}


def _atomic_write(path: str, content: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-mixhom-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _summary_lines(prefix: str, value):
    """``key.path: value`` lines of a result, keys sorted at every level."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _summary_lines(f"{prefix}{k}.", value[k])
    elif isinstance(value, list):
        yield f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}"
    else:
        yield f"{prefix[:-1]}: {value}"


def _summarize(task: str, result: dict) -> str:
    return "\n".join([f"task: {task}", *_summary_lines("", result)]) + "\n"


def run_job(spec: JobSpecification, out_dir: str) -> int:
    """Run the job's tasks, write artifacts, and return the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    exit_code = 0
    job = JobContext(spec)
    tasks = spec.tasks or ["check"]
    for i, task in enumerate(tasks):
        try:
            result = TASK_RUNNERS[task](job)
        except WindowError as exc:
            result = {"error": "window too small", "detail": str(exc)}
            exit_code = max(exit_code, 3)
        except (DualityError, po.JacobiError) as exc:
            result = {"error": "verification failure", "detail": str(exc)}
            exit_code = max(exit_code, 2)
        job.release(tasks[i + 1:])
        payload = {"schema": SCHEMA, "task": task, "result": result}
        blob = json.dumps(payload, sort_keys=True, indent=1, default=str) + "\n"
        _atomic_write(os.path.join(out_dir, f"{task}.json"), blob)
        _atomic_write(os.path.join(out_dir, f"{task}.txt"), _summarize(task, result))
        if task == "check" and isinstance(result, dict) and not result.get("passed", True):
            exit_code = max(exit_code, 2)
        if task == "gravity" and isinstance(result, dict) and result.get("violations"):
            exit_code = max(exit_code, 2)
    return exit_code


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="mixhom",
        description="Exact homological calculus for small graded algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="job specification file")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--pmax", type=int, help="override p_max")
    common.add_argument("--wmax", type=int, help="override w_max")
    common.add_argument("--utrunc", type=int, help="override u-truncation order")
    common.add_argument("--nmax", "--arity-check", dest="nmax", type=int, help="override arity_max")
    sub.add_parser("run", parents=[common], help="run the task list from the job file")
    for task in TASKS:
        sub.add_parser(task, parents=[common], help=f"run the {task} task")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 4
    try:
        spec = parse_job(text)
        if args.command != "run":
            spec.tasks = [args.command]
            check_tasks(spec)
        for flag, key in (("pmax", "p_max"), ("wmax", "w_max"), ("utrunc", "u_trunc"), ("nmax", "arity_max")):
            value = getattr(args, flag)
            if value is not None:
                if value <= 0:
                    raise ParseError(0, f"--{flag} must be positive")
                setattr(spec, key, value)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    if not spec.tasks:
        print("job file lists no tasks", file=sys.stderr)
        return 4
    try:
        code = run_job(spec, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 4
    # A job leaves reference cycles (argparse, json) and filled free lists
    # that only a full collection releases.  Integer elimination allocates
    # few collector-tracked objects, so without this one a full collection
    # comes rarely, and a process that runs many jobs keeps raising its peak
    # memory.
    gc.collect()
    return code


if __name__ == "__main__":
    sys.exit(main())
