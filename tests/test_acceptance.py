"""Acceptance suite: every criterion exact, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; all tolerances are equalities over the rationals.
"""

import os
from fractions import Fraction
from math import comb

import pytest

from mixhom.algebra import (
    exterior_pairing,
    exterior_presentation,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
    polynomial_presentation,
)
from mixhom.calculus import (
    MultivectorOps,
    attach_duality,
    hochschild_dual_bundle,
    poisson_bundle,
    poisson_dual_bundle,
    polyvector_pd_twist,
    verify_bv_axioms,
)
from mixhom.cli import parse_job, run_job
from mixhom.gravity import GravityStructure, compare_across_iso, verify_gravity_axioms
from mixhom.hochschild import (
    boundary_b,
    chain_basis,
    connes_B,
    unit_cochain,
)
from mixhom.koszul import (
    dual_bivector_coeffs,
    fit_dual_product_twist,
    koszul_dual_algebra,
    koszul_poisson_identification,
    poisson_hc_iso,
    small_hochschild_models,
)
from mixhom.mixed import (
    MixedComplexSlice,
    NegativeCyclic,
    _transpose,
    default_truncation,
    les_check,
    slice_from_hochschild,
    slice_from_hochschild_dual,
    slice_from_poisson,
    slice_from_poisson_dual,
)
from mixhom.poisson import (
    DualSide,
    PoissonContext,
    frobenius_poisson_check,
    modular_vector_field,
    quadratic_bivector,
    unimodularity_check,
)
from test_calculus import assert_pd_inverse_matches_solve, fractions_of
from test_gravity import assert_derived_twist_matches_fitted
from test_hochschild import dual_coboundary, frobenius_pd
from test_linalg import from_columns, kernel_basis
from test_mixed import assert_les_matches_oracle, assert_u_stacked_squares_to_zero, hh_dims_oracle
from test_poisson import (FastPathError, assert_squares_match_the_monomial_loops, delta_by_monomials, oracle_engine,
    poisson_complex_by_forms)

Q = Fraction

CIRCULANT = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}
NON_UNIMODULAR = [{(1, 2, 1, 2): Q(1)}, {(1, 1, 1, 2): Q(1)}]


def report(num, name, passed, detail=""):
    line = f"CRITERION {num:02d} [{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# -- shared heavyweight structures ------------------------------------------------


@pytest.fixture(scope="module")
def frobenius_gravity():
    """Λ(ξ1,ξ2) Frobenius: dual slice, bundle, duality, gravity structure."""
    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    hc = NegativeCyclic(sl, default_truncation(sl))
    bundle = hochschild_dual_bundle(
        A, sl, q_max=6, coh_window=lambda p: -3 <= p[1] <= 2 and -3 <= p[0] <= 0
    )
    top = A.index["ξ1ξ2"]
    piece = (2, 2)
    coords = sl.hh(piece).reduce(sl.element_vector(piece, {(top,): Q(1)}))
    eta = (piece, [i for i, c in enumerate(coords) if c][0])
    duality = attach_duality(bundle, eta)
    basis = [
        k
        for k in GravityStructure(hc, duality).basis
        if k[0][1] <= 2 and k[0][0] >= 0
    ]
    return GravityStructure(hc, duality, basis)


def derive_unimodular_bivector():
    """The divergence-free solve over the log-canonical family on 3 variables.

    π(λ) = λ12 x1x2 ∂1∧∂2 + λ23 x2x3 ∂2∧∂3 + λ31 x3x1 ∂3∧∂1 has Jacobi
    automatically; unimodularity is the linear condition that the modular
    vector field vanishes.  The kernel of that linear map is computed
    exactly and its canonical basis vector is returned as a coefficient
    table.
    """
    ctx = PoissonContext.make(3, "poly")
    family = [
        {(1, 2, 1, 2): Q(1)},
        {(2, 3, 2, 3): Q(1)},
        {(3, 1, 3, 1): Q(1)},
    ]
    columns = []
    support = set()
    images = []
    for coeffs in family:
        mod = modular_vector_field(ctx, quadratic_bivector(ctx, coeffs))
        images.append(mod)
        support |= set(mod)
    support = sorted(support)
    for mod in images:
        columns.append(tuple(mod.get(m, Q(0)) for m in support))
    M = from_columns(columns)
    kernel = kernel_basis(M)
    assert kernel, "the divergence-free solve found no unimodular member"
    lam = kernel[0]
    coeffs = {}
    for l, table in zip(lam, family):
        for k, v in table.items():
            coeffs[k] = coeffs.get(k, Q(0)) + l * v
    return {k: v for k, v in coeffs.items() if v}


@pytest.fixture(scope="module")
def derived_pi():
    return derive_unimodular_bivector()


@pytest.fixture(scope="module")
def poisson_pair(derived_pi):
    return _poisson_pair(derived_pi)


def _poisson_pair(derived_pi):
    """Primal and dual gravity structures for the derived unimodular π."""
    ident = koszul_poisson_identification(3)
    ctx = ident.ctx_poly
    pi = quadratic_bivector(ctx, derived_pi)
    sl = slice_from_poisson(ctx, pi, 8)
    hc = NegativeCyclic(sl, default_truncation(sl))
    bundle = poisson_bundle(ctx, pi, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    piece = (3, 3)
    coords = sl.hh(piece).reduce(sl.element_vector(piece, {(0, 0, 0, 1, 1, 1): Q(1)}))
    dp = attach_duality(
        bundle, (piece, [i for i, c in enumerate(coords) if c][0]),
        pd_twist=polyvector_pd_twist(1),
    )
    basis_p = [
        k for k in GravityStructure(hc, dp).basis if k[0][1] <= 3 and k[0][0] > -2
    ]
    gp = GravityStructure(hc, dp, basis_p)

    pid = quadratic_bivector(ident.ctx_ext, dual_bivector_coeffs(derived_pi))
    duals = DualSide(ident.ctx_ext, pid, w_max=8)
    sld = slice_from_poisson_dual(duals)
    hcd = NegativeCyclic(sld, default_truncation(sld))
    bd = poisson_dual_bundle(duals, sld, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    coords = sld.hh(piece).reduce(sld.element_vector(piece, {(1, 1, 1, 0, 0, 0): Q(1)}))
    eta_d = (piece, [i for i, c in enumerate(coords) if c][0])
    twist = fit_dual_product_twist(ident, dp, bd, eta_d)
    dd = attach_duality(bd, eta_d, pd_twist=twist)
    basis_d = [
        k for k in GravityStructure(hcd, dd).basis if k[0][1] <= 3 and k[0][0] > -2
    ]
    gd = GravityStructure(hcd, dd, basis_d)
    return ident, dp, dd, gp, gd


# -- the criteria -----------------------------------------------------------------


def test_criterion_01_complex_axioms(derived_pi):
    algebras = [
        make_exterior_algebra(1),
        make_exterior_algebra(2),
        make_truncated_polynomial_algebra(2, 4),
    ]
    violations = 0
    for A in algebras:
        for p in range(5):
            for w in range(5):
                for t in chain_basis(A, p, w):
                    c = {t: Q(1)}
                    if boundary_b(A, boundary_b(A, c)):
                        violations += 1
                    if connes_B(A, connes_B(A, c)):
                        violations += 1
                    anti = boundary_b(A, connes_B(A, c))
                    for k, v in connes_B(A, boundary_b(A, c)).items():
                        anti[k] = anti.get(k, Q(0)) + v
                    if any(v != 0 for v in anti.values()):
                        violations += 1
    # Poisson slices validate (∂, d) axioms at construction for every π;
    # the dual slices validate (δ, d*) the same way
    pis = [({}, 2), ({(1, 2, 1, 2): Q(1)}, 2), ({(1, 1, 1, 2): Q(1)}, 2), (derived_pi, 3)]
    built = 0
    for coeffs, n in pis:
        ctx = PoissonContext.make(n, "poly")
        slice_from_poisson(ctx, quadratic_bivector(ctx, coeffs), 4)
        ctxe = PoissonContext.make(n, "ext")
        pid = quadratic_bivector(ctxe, dual_bivector_coeffs(coeffs))
        slice_from_poisson_dual(DualSide(ctxe, pid, w_max=4))
        built += 1
    report(
        1,
        "mixed-complex axioms on Hochschild and Poisson slices",
        violations == 0 and built == len(pis),
        f"{built} Poisson structures",
    )


def test_criterion_02_hkr_dimension_oracle():
    A = make_truncated_polynomial_algebra(2, 4)
    sl = slice_from_hochschild(A, 4)
    ok = True
    for p in range(3):
        for w in range(5):
            # monomial p-forms of weight w on two variables: the coefficient
            # is a monomial of degree w - p times a strictly increasing dx-set
            want = comb(2, p) * (w - p + 1) if w >= p else 0
            got = sl.hh((p, w)).dim if sl.dim((p, w)) else 0
            if got != want:
                ok = False
    report(2, "HKR dimension oracle for k[x1,x2]", ok)


def test_criterion_03_koszul_cross_model():
    mp = small_hochschild_models(koszul_dual_algebra(polynomial_presentation(2), 4))
    me = small_hochschild_models(koszul_dual_algebra(exterior_presentation(2), 4))
    bar_p = {
        k: v
        for k, v in slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 4)
        .hh_dims()
        .items()
        if v
    }
    bar_e = {
        k: v
        for k, v in slice_from_hochschild(make_exterior_algebra(2), 4).hh_dims().items()
        if v
    }
    conv_p = {}
    for (s, t), d in mp.chain_dims.items():
        conv_p[(t, s + t)] = conv_p.get((t, s + t), 0) + d
    conv_e = {}
    for (s, t), d in me.chain_dims.items():
        conv_e[(-s, s + t)] = conv_e.get((-s, s + t), 0) + d
    chain_ok = conv_p == bar_p and conv_e == bar_e
    # cohomology dims match across the duality: the piece at (weight s,
    # dual weight t) of one side corresponds to (t, s) of the other
    flip_ok = True
    for s in range(4):
        for t in range(4):
            if me.cochain_dims.get((t, s), 0) != mp.cochain_dims.get((s, t), 0):
                flip_ok = False
    report(
        3,
        "Koszul small models equal bar dims; dual cohomology dims match",
        chain_ok and flip_ok,
    )


def test_criterion_04_frobenius_validation():
    from mixhom.algebra import check_frobenius_pairing

    ok = True
    for n in (1, 2, 3):
        A = make_exterior_algebra(n)
        pairing = exterior_pairing(A)
        rep = check_frobenius_pairing(A, pairing)
        if not rep.passed:
            ok = False
        chains = [
            t
            for p in range(3)
            for w in range(2 * n + 1)
            for t in chain_basis(A, p, w)
        ]
        eta = frobenius_pd(unit_cochain(A), pairing, chains)
        if dual_coboundary(eta, chains).table:
            ok = False
    report(4, "exterior Frobenius pairings pass; δ(η) = 0 for n ≤ 3", ok)


def test_criterion_05_bv_suite(frobenius_gravity, poisson_pair, derived_pi):
    # (a) the Frobenius Hochschild bundle of Λ(ξ1,ξ2)
    rep_a = verify_bv_axioms(frobenius_gravity.duality, max_classes=30, quartic_limit=300)
    # (b) the derived unimodular quadratic structure on three variables
    ident, dp, dd, gp, gd = poisson_pair
    rep_b = verify_bv_axioms(dp, max_classes=30, quartic_limit=300)
    detail = (
        f"7-term {rep_a.seven_term_checked}+{rep_b.seven_term_checked}, "
        f"quartic {rep_a.quartic_checked}+{rep_b.quartic_checked}"
    )
    passed = (
        rep_a.passed
        and rep_b.passed
        and rep_a.seven_term_checked > 1000
        and rep_b.seven_term_checked > 1000
        and rep_a.quartic_checked > 50
        and rep_b.quartic_checked > 50
    )
    report(5, "BV suite: Δ²=0, second-order identity, bracket = native table", passed, detail)


def test_pd_inverse_matches_per_class_solve_on_criterion_05_dualities(frobenius_gravity, poisson_pair):
    assert assert_pd_inverse_matches_solve(frobenius_gravity.duality) > 10
    assert assert_pd_inverse_matches_solve(poisson_pair[1]) > 10


@pytest.fixture(scope="module")
def les_sources(derived_pi):
    """HC⁻ of one slice of each of the four sources, at its default truncation."""
    sources = []
    sources.append(slice_from_hochschild(make_exterior_algebra(2), 4))
    sources.append(slice_from_hochschild_dual(make_exterior_algebra(2), 4))
    ctx = PoissonContext.make(3, "poly")
    sources.append(slice_from_poisson(ctx, quadratic_bivector(ctx, derived_pi), 4))
    ctxe = PoissonContext.make(3, "ext")
    pid = quadratic_bivector(ctxe, dual_bivector_coeffs(derived_pi))
    sources.append(slice_from_poisson_dual(DualSide(ctxe, pid, w_max=4)))
    return [NegativeCyclic(sl, default_truncation(sl)) for sl in sources]


def test_criterion_06_les_suite(les_sources):
    ok = True
    details = []
    for hc in les_sources:
        rep = les_check(hc)
        stable = len(hc.stable_dims())
        if not rep.passed or stable == 0:
            ok = False
            details.append(f"{hc.slice.name}: {rep.failures[:2]}")
    report(6, "β∘π* = 0, π*∘β = B, ker β = im π*, truncation stable", ok, "; ".join(details))


def test_les_matches_oracle_on_criterion_06_sources(les_sources):
    # the memoized π*/β columns and the column-based les_check against the
    # coordinate-taking maps they replaced, on every class of every piece
    for hc in les_sources:
        assert_les_matches_oracle(hc)


def test_hh_dims_match_presentations_on_acceptance_slices(les_sources, frobenius_gravity, poisson_pair):
    # the rank dimensions against one presentation per piece, on every
    # slice of criteria 05 to 08
    gp, gd = poisson_pair[3:]
    for sl in [*(hc.slice for hc in les_sources), frobenius_gravity.hc.slice, gp.hc.slice, gd.hc.slice]:
        assert sl.hh_dims() == hh_dims_oracle(sl), sl.name


def test_u_stacked_complexes_square_to_zero_on_acceptance_slices(les_sources, frobenius_gravity, poisson_pair):
    # the proof that lets _u_dims and every presentation skip the d∘d check,
    # checked by products on every slice of criteria 05 to 08 at its truncation
    gp, gd = poisson_pair[3:]
    for hc in [*les_sources, frobenius_gravity.hc, gp.hc, gd.hc]:
        assert_u_stacked_squares_to_zero(hc.slice, hc.N)


def test_criterion_07_gravity_suite(frobenius_gravity, poisson_pair):
    ident, dp, dd, gp, gd = poisson_pair
    reports = {}
    for name, g in (
        ("frobenius-cyclic-cohomology", frobenius_gravity),
        ("negative-cyclic-poisson", gp),
        ("frobenius-poisson-dual", gd),
    ):
        reports[name] = verify_gravity_axioms(g, n_max=4, check_max=5)
    ok = True
    details = []
    for name, rep in reports.items():
        nz = sum(rep.nonzero_brackets.values())
        details.append(
            f"{name}: jacobi {rep.jacobi_checked}, nonzero {nz}, skips {rep.window_skips}"
        )
        if not rep.passed or rep.jacobi_checked < 1000 or nz == 0:
            ok = False
    report(7, "gravity axioms exhaustive for n + m ≤ 5 on all three structures", ok,
           "; ".join(details))


def test_gravity_check_counts(frobenius_gravity, poisson_pair):
    """The exact counts behind criteria 7 and 8, as the enumeration gave them."""
    ident, dp, dd, gp, gd = poisson_pair
    poisson_nonzero = {2: 24, 3: 72, 4: 144}
    expected = {
        "frobenius-cyclic-cohomology": (frobenius_gravity, 7938, 75117, {2: 14, 3: 42, 4: 84}),
        "negative-cyclic-poisson": (gp, 120932, 2272032, poisson_nonzero),
        "frobenius-poisson-dual": (gd, 120932, 2272032, poisson_nonzero),
    }
    for name, (g, skew, jacobi, nonzero) in expected.items():
        rep = verify_gravity_axioms(g, n_max=4, check_max=5)
        got = (rep.passed, rep.skew_checked, rep.jacobi_checked, rep.window_skips, rep.nonzero_brackets)
        assert got == (True, skew, jacobi, 0, nonzero), name
    rep = compare_across_iso(gp, gd, poisson_hc_iso(ident, gp, gd), arity_max=4)
    assert (rep.passed, rep.compared, rep.skipped) == (True, 41356, 0)


def test_gravity_tables_hold_only_their_support(poisson_pair):
    """The K=14 primal tables keep their nonzero and unavailable entries only."""
    ident, dp, dd, gp, gd = poisson_pair
    g = GravityStructure(gp.hc, gp.duality, gp.basis)
    rep = verify_gravity_axioms(g, n_max=4, check_max=5)
    for n in (2, 3, 4):
        table = g._tables[n]
        unavailable = sum(1 for v in table.values() if v is None)
        assert all(v is None or v[0] for v in table.values()), n
        assert len(table) == rep.nonzero_brackets[n] + unavailable, n


def test_hc_minus_presentations_are_built_for_read_pieces_only(derived_pi):
    """Each HC⁻ of a fresh pair holds the presentations of the pieces it was read in, and no other."""
    ident, dp, dd, gp, gd = _poisson_pair(derived_pi)
    assert [len(g.hc._pres) for g in (gp, gd)] == [0, 0]
    # the iso reads a representative (primal) and reduces (dual) in every basis piece
    poisson_hc_iso(ident, gp, gd)
    for g in (gp, gd):
        assert set(g.hc._pres) == {piece for piece, _ in g.basis}
        assert (len(g.hc._pres), len(g.hc.dims()), len(g.basis)) == (6, 81, 14)
    # β reduces in the piece one degree above each class whose B image is nonzero
    verify_gravity_axioms(gp, n_max=3, check_max=3)
    hc, sl = gp.hc, gp.hc.slice
    targets = {(d + 1, w) for ((d, w), i) in hc._beta if sl.B_matrix((d, w)).apply(sl.hh((d, w)).cycle(i))[0]}
    assert set(hc._pres) == {piece for piece, _ in gp.basis} | targets
    assert (len(hc._beta), len(targets), len(hc._pres)) == (26, 5, 6)


def test_derived_dual_twist_matches_fitted(poisson_pair):
    # the derived dual volume sign against the GF(2) fitter it replaced
    ident, dp, dd, gp, gd = poisson_pair
    assert assert_derived_twist_matches_fitted(ident, dp, dd) > 0


def _as_triples(mats: dict) -> dict:
    return {key: (M.rows, M.cols, M.entries) for key, M in mats.items()}


def _poisson_pair_operators(derived_pi):
    """The operator matrices under ``poisson_pair``: its w 8 slice, the δ of its
    Poisson bundle's polyvectors and the δ and d* of its dual side's transposed
    triple, and the polyvector pieces."""
    ident = koszul_poisson_identification(3)
    ctx = ident.ctx_poly
    pi = quadratic_bivector(ctx, derived_pi)
    sl = slice_from_poisson(ctx, pi, 8)
    # the ops of its Poisson bundle, whose construction would reject a δ with δ² ≠ 0
    ops = MultivectorOps(ctx, pi, -3, 5, 8)
    duals = DualSide(ident.ctx_ext, quadratic_bivector(ident.ctx_ext, dual_bivector_coeffs(derived_pi)), w_max=8)
    mats = {}
    for piece in sorted(sl.pieces):
        mats[("b", piece)], mats[("B", piece)] = sl.b_matrix(piece), sl.B_matrix(piece)
    for piece in sorted(ops.pieces()):
        mats[("δ", piece)] = ops.delta_matrix(piece)
    for kind, dual_mats in (("δ*", duals.b_mats), ("d*", duals.B_mats)):
        for piece in sorted(dual_mats):
            mats[(kind, piece)] = dual_mats[piece]
    return _as_triples(mats), ops.pieces()


def _poisson_pair_operators_by_monomials(derived_pi, polyvector_pieces):
    """The same matrices from the per-form ∂ and the per-monomial odd-Laplacian δ."""
    ident = koszul_poisson_identification(3)
    ctx = ident.ctx_poly
    pi = quadratic_bivector(ctx, derived_pi)
    pieces, b_mats, B_mats = poisson_complex_by_forms(ctx, pi, 8)
    sl = MixedComplexSlice(pieces, b_mats, B_mats)
    mats = {}
    for piece in sorted(sl.pieces):
        mats[("b", piece)], mats[("B", piece)] = sl.b_matrix(piece), sl.B_matrix(piece)
    for piece in sorted(polyvector_pieces):
        mats[("δ", piece)] = delta_by_monomials(ctx, pi, polyvector_pieces, piece)
    pid = quadratic_bivector(ident.ctx_ext, dual_bivector_coeffs(derived_pi))
    _, db_mats, dB_mats = _transpose(*poisson_complex_by_forms(ident.ctx_ext, pid, 8))
    for kind, dual_mats in (("δ*", db_mats), ("d*", dB_mats)):
        for piece in sorted(dual_mats):
            mats[(kind, piece)] = dual_mats[piece]
    return _as_triples(mats)


def test_poisson_engine_matches_oracle_on_poisson_pair(derived_pi):
    # the matrix-product ∂, the tabulated δ = [π, -] and the one-pass
    # contraction against the per-form ∂, the odd-Laplacian bracket and the
    # chained contraction they replaced
    import mixhom.poisson

    got, polyvector_pieces = _poisson_pair_operators(derived_pi)
    ctx = koszul_poisson_identification(3).ctx_poly
    with oracle_engine():
        # the fast paths cannot run on the oracle side
        with pytest.raises(FastPathError):
            mixhom.poisson._bracket_columns(ctx, {})
        with pytest.raises(FastPathError):
            slice_from_poisson(ctx, {}, 2)
        want = _poisson_pair_operators_by_monomials(derived_pi, polyvector_pieces)
    mixhom.poisson._bracket_columns(ctx, {})
    assert got == want
    nonzero = {kind for (kind, _), (_, _, entries) in got.items() if entries}
    assert nonzero == {"b", "B", "δ", "δ*", "d*"}


def test_criterion_08_gravity_isomorphism(poisson_pair):
    ident, dp, dd, gp, gd = poisson_pair
    iso = poisson_hc_iso(ident, gp, gd)
    rep = compare_across_iso(gp, gd, iso, arity_max=4)
    # negative control: flip a class that feeds a nonzero bracket without
    # appearing in its output
    flip_key = None
    for a in gp.basis:
        for b in gp.basis:
            got = fractions_of(gp.table_lookup([a, b]))
            if got and a not in got:
                flip_key = a
                break
        if flip_key:
            break
    control_ok = False
    if flip_key is not None:
        flipped = {
            k: (({kk: -vv for kk, vv in v[0].items()}, v[1]) if k == flip_key else v)
            for k, v in iso.items()
        }
        control = compare_across_iso(gp, gd, flipped, arity_max=2)
        control_ok = bool(control.mismatches)
    report(
        8,
        "the quadratic-dual identification intertwines bracket tables (arity ≤ 4)",
        rep.passed and rep.compared > 1000 and control_ok,
        f"compared {rep.compared}, control mismatch reported: {control_ok}",
    )


def test_criterion_09_unimodularity_equivalence(derived_pi):
    cases = [(3, derived_pi, True)] + [(2, t, False) for t in NON_UNIMODULAR]
    ok = True
    for n, coeffs, expect in cases:
        ctx = PoissonContext.make(n, "poly")
        pi = quadratic_bivector(ctx, coeffs)
        rep = unimodularity_check(ctx, pi, w_max=3)
        oracle = not modular_vector_field(ctx, pi)
        ctxe = PoissonContext.make(n, "ext")
        pid = quadratic_bivector(ctxe, dual_bivector_coeffs(coeffs))
        dual_rep = frobenius_poisson_check(DualSide(ctxe, pid, w_max=n + 2))
        if not (rep.unimodular == dual_rep.unimodular == oracle == expect):
            ok = False
    report(9, "primal, dual, and divergence unimodularity verdicts agree", ok,
           f"{len(cases)} bivectors")


def test_criterion_09_squares_match_the_monomial_loops(derived_pi):
    # the integer-column squares behind criterion 09 against the per-monomial
    # loops they replaced, on the same bivectors: reports and failure lists
    failures = [assert_squares_match_the_monomial_loops(n, coeffs)
                for n, coeffs in [(3, derived_pi)] + [(2, t) for t in NON_UNIMODULAR]]
    assert failures == [0, 18, 18]


def test_criterion_10_cli_determinism(tmp_path):
    job = """
[algebra]
kind polynomial
n 2
cutoff 4

[poisson]
c 1 2 1 2 1

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
"""
    spec1 = parse_job(job)
    spec2 = parse_job(job)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = run_job(spec1, str(out1))
    code2 = run_job(spec2, str(out2))
    same = code1 == code2 == 0
    names = sorted(os.listdir(out1))
    for name in names:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            same = False
    report(10, "two CLI runs produce byte-identical artifacts", same, f"{len(names)} files")
