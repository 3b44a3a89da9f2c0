"""The benchmark's three workloads: inputs from a seed, one op, its checks.

Every op rebuilds its structures from the generated inputs, because
``CalculusBundle``, ``DualityData``, ``GravityStructure`` and
``NegativeCyclic`` memoize on the instance: reusing one would time warm
caches that no user gets.  Each ``run_*`` function returns
``(start, setup_end, end, result)`` as ``time.perf_counter`` stamps, where
``setup_end`` closes the part of the op spent building structures before the
first verifier call and ``result`` is the op's checked output, compared against the recorded reference by
``check_*``.  The ``run_*`` functions import mixhom names on every call so
that a traced run picks up the wrappers ``tracer.py`` installs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

Q = Fraction


def scale_for_seed(seed: int) -> Fraction:
    """The nonzero rational scale c of π; seed 0 gives c = 1."""
    if seed == 0:
        return Q(1)
    rng = random.Random(seed)
    c = Q(rng.randint(1, 9), rng.randint(1, 9))
    return c if rng.random() < 0.5 else -c


def circulant(c: Fraction) -> dict:
    """c·π with π = x1x2∂1∧∂2 + x2x3∂2∧∂3 + x3x1∂3∧∂1, which is unimodular."""
    return {(1, 2, 1, 2): c, (2, 3, 2, 3): c, (3, 1, 3, 1): c}


def _class_of(sl, piece, element) -> tuple:
    """The first homology basis class in the support of ``element``."""
    coords = sl.hh(piece).reduce(sl.element_vector(piece, element))
    return (piece, [i for i, v in enumerate(coords) if v][0])


# -- bv-check ---------------------------------------------------------------------


def run_bv(c: Fraction):
    from mixhom.algebra import make_exterior_algebra
    from mixhom.calculus import (
        attach_duality,
        hochschild_dual_bundle,
        poisson_bundle,
        polyvector_pd_twist,
        verify_bv_axioms,
    )
    from mixhom.mixed import slice_from_hochschild_dual, slice_from_poisson
    from mixhom.poisson import PoissonContext, quadratic_bivector

    t0 = time.perf_counter()
    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    bundle = hochschild_dual_bundle(
        A, sl, q_max=6, coh_window=lambda p: -3 <= p[1] <= 2 and -3 <= p[0] <= 0
    )
    frob = attach_duality(bundle, _class_of(sl, (2, 2), {(A.index["ξ1ξ2"],): Q(1)}))

    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, circulant(c))
    slp = slice_from_poisson(ctx, pi, 8)
    bundle_p = poisson_bundle(ctx, pi, slp, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    eta = _class_of(slp, (3, 3), {(0, 0, 0, 1, 1, 1): Q(1)})
    pois = attach_duality(bundle_p, eta, pd_twist=polyvector_pd_twist(1))
    t1 = time.perf_counter()

    reports = [verify_bv_axioms(d, max_classes=12, quartic_limit=60) for d in (frob, pois)]
    t2 = time.perf_counter()
    result = [(r.passed, r.seven_term_checked, r.quartic_checked) for r in reports]
    return t0, t1, t2, result


BV_REFERENCE = [(True, 1728, 60), (True, 1728, 60)]


def check_bv(result, seed: int) -> list[str]:
    if result != BV_REFERENCE:
        return [f"bv reports (passed, seven-term, quartic) {result} != {BV_REFERENCE}"]
    return []


# -- gravity-check ----------------------------------------------------------------


def run_gravity(c: Fraction):
    from mixhom.calculus import (
        attach_duality,
        poisson_bundle,
        poisson_dual_bundle,
        polyvector_pd_twist,
    )
    from mixhom.gravity import GravityStructure, compare_across_iso, verify_gravity_axioms
    from mixhom.koszul import (
        dual_bivector_coeffs,
        fit_dual_product_twist,
        koszul_poisson_identification,
        poisson_hc_iso,
    )
    from mixhom.mixed import (
        NegativeCyclic,
        default_truncation,
        slice_from_poisson,
        slice_from_poisson_dual,
    )
    from mixhom.poisson import DualSide, quadratic_bivector

    def gravity_structure(hc, duality):
        # K = 14: the degree-one classes alone (K = 10) have only zero brackets
        basis = [
            k for k in GravityStructure(hc, duality).basis if k[0][1] <= 3 and k[0][0] > -2
        ]
        return GravityStructure(hc, duality, basis)

    coeffs = circulant(c)
    piece = (3, 3)
    t0 = time.perf_counter()
    ident = koszul_poisson_identification(3)
    pi = quadratic_bivector(ident.ctx_poly, coeffs)
    sl = slice_from_poisson(ident.ctx_poly, pi, 8)
    hc = NegativeCyclic(sl, default_truncation(sl))
    bundle = poisson_bundle(ident.ctx_poly, pi, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    eta = _class_of(sl, piece, {(0, 0, 0, 1, 1, 1): Q(1)})
    dp = attach_duality(bundle, eta, pd_twist=polyvector_pd_twist(1))
    gp = gravity_structure(hc, dp)

    pid = quadratic_bivector(ident.ctx_ext, dual_bivector_coeffs(coeffs))
    duals = DualSide(ident.ctx_ext, pid, w_max=8)
    sld = slice_from_poisson_dual(duals)
    hcd = NegativeCyclic(sld, default_truncation(sld))
    bd = poisson_dual_bundle(duals, sld, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    eta_d = _class_of(sld, piece, {(1, 1, 1, 0, 0, 0): Q(1)})
    dd = attach_duality(bd, eta_d, pd_twist=fit_dual_product_twist(ident, dp, bd, eta_d))
    gd = gravity_structure(hcd, dd)
    iso = poisson_hc_iso(ident, gp, gd)
    t1 = time.perf_counter()

    g = verify_gravity_axioms(gp, n_max=4, check_max=5)
    i = compare_across_iso(gp, gd, iso, arity_max=4)
    t2 = time.perf_counter()
    result = {
        "basis": len(gp.basis),
        "passed": g.passed,
        "skew": g.skew_checked,
        "jacobi": g.jacobi_checked,
        "window_skips": g.window_skips,
        "nonzero": dict(g.nonzero_brackets),
        "iso_passed": i.passed,
        "compared": i.compared,
        "skipped": i.skipped,
    }
    return t0, t1, t2, result


GRAVITY_REFERENCE = {
    "basis": 14,
    "passed": True,
    "skew": 120932,
    "jacobi": 2272032,
    "window_skips": 0,
    "nonzero": {2: 24, 3: 72, 4: 144},
    "iso_passed": True,
    "compared": 41356,
    "skipped": 0,
}


def check_gravity(result, seed: int) -> list[str]:
    return [
        f"gravity {k} = {result.get(k)!r}, reference {v!r}"
        for k, v in GRAVITY_REFERENCE.items()
        if result.get(k) != v
    ]


# -- cli-batch --------------------------------------------------------------------


def cli_jobs(c: Fraction) -> dict[str, str]:
    """The four job files of one cli-batch op, with π scaled by c."""
    pi_lines = "\n".join(f"c {i1} {i2} {j1} {j2} {v}" for (i1, i2, j1, j2), v in circulant(c).items())
    return {
        "poly2": f"""[algebra]
kind polynomial
n 2
cutoff 4

[poisson]
c 1 2 1 2 {c}

[window]
p_max 2
w_max 3
arity_max 2

[tasks]
hh
hc-minus
poisson
koszul
check
""",
        "ext3": """[algebra]
kind exterior
n 3

[window]
p_max 3
w_max 4

[tasks]
hh
hc-minus
koszul
check
""",
        "poly3": f"""[algebra]
kind polynomial
n 3
cutoff 4

[poisson]
{pi_lines}

[window]
p_max 3
w_max 3
arity_max 3

[tasks]
hh
hc-minus
poisson
gravity
koszul
check
""",
        "quad2": """[algebra]
kind quadratic
n 2
relation 1 2 1 2 1 -2

[window]
w_max 5

[tasks]
koszul
""",
    }


def write_jobs(jobs: dict[str, str], job_dir: str) -> dict[str, str]:
    os.makedirs(job_dir, exist_ok=True)
    paths = {}
    for name, text in jobs.items():
        paths[name] = os.path.join(job_dir, f"{name}.job")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


def run_cli(job_paths: dict[str, str], out_dir: str):
    """One op: every job through ``mixhom.cli.main`` into a fresh directory.

    Set-up is not part of the op: it is the interpreter start-up and import
    that every CLI invocation pays, measured by ``cli_startup``.
    """
    from mixhom.cli import main

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    codes = {name: main(["run", "--input", path, "--out", os.path.join(out_dir, name)])
             for name, path in job_paths.items()}
    t1 = time.perf_counter()
    artifacts = {}
    for name in job_paths:
        job_out = os.path.join(out_dir, name)
        for fname in sorted(os.listdir(job_out)):
            with open(os.path.join(job_out, fname), "rb") as fh:
                artifacts[f"{name}/{fname}"] = fh.read()
    return t0, None, t1, {"codes": codes, "artifacts": artifacts}


def cli_startup(src_dir: str) -> tuple[float, float]:
    """Start and end stamps of a fresh interpreter that imports ``mixhom.cli``."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mixhom.cli"], env=env, check=True)
    return t0, time.perf_counter()


DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")


def artifact_digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in artifacts.items()}


def check_cli(result, seed: int) -> list[str]:
    """Exit codes, the check and gravity verdicts, and (seed 0) the digests."""
    problems = [f"cli job {name} exited {code}" for name, code in result["codes"].items() if code]
    for name, blob in result["artifacts"].items():
        if name.endswith("/check.json") and not json.loads(blob)["result"].get("passed"):
            problems.append(f"{name}: passed is not true")
        if name.endswith("/gravity.json") and json.loads(blob)["result"].get("violations"):
            problems.append(f"{name}: gravity violations reported")
    if seed == 0:
        with open(DIGESTS_FILE) as fh:
            want = json.load(fh)
        got = artifact_digests(result["artifacts"])
        if got != want:
            changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            problems.append(f"cli artifacts differ from the recorded digests: {changed}")
    return problems


def prepare(workload: str, c: Fraction, work_dir: str):
    """The op callable of ``workload`` for scale c, and its check."""
    if workload == "bv-check":
        return (lambda: run_bv(c)), check_bv
    if workload == "gravity-check":
        return (lambda: run_gravity(c)), check_gravity
    if workload == "cli-batch":
        paths = write_jobs(cli_jobs(c), os.path.join(work_dir, "jobs"))
        return (lambda: run_cli(paths, os.path.join(work_dir, "artifacts"))), check_cli
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bv-check", "gravity-check", "cli-batch")
