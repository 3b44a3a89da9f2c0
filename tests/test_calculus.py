import gc
import re
from fractions import Fraction
from itertools import product as iproduct

import pytest

from mixhom.algebra import QuadraticPresentation, make_exterior_algebra
from mixhom.calculus import (
    CalculusBundle,
    DualityError,
    HochschildCochainOps,
    MultivectorOps,
    WindowError,
    attach_duality,
    delta_pairs,
    hochschild_dual_bundle,
    poisson_bundle,
    polyvector_pd_twist,
    verify_bv_axioms,
)
from mixhom.hochschild import Cochain, all_tuples_up_to_weight
from mixhom.koszul import quadratic_algebra
from mixhom.linalg import ExactMatrix, NotAComplexError, _accumulate, _expand
from mixhom.mixed import slice_from_hochschild_dual, slice_from_poisson
from mixhom.poisson import PoissonContext, quadratic_bivector
from test_hochschild import coboundary_scan
from test_linalg import _bv_check_bundles, solve_in_span
from test_poisson import delta_by_monomials

Q = Fraction

CIRCULANT = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}


@pytest.fixture(scope="module")
def frobenius_duality():
    return _frobenius_duality()


def _frobenius_duality():
    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 4)
    bundle = hochschild_dual_bundle(
        A, sl, q_max=5, coh_window=lambda p: -2 <= p[1] <= 2 and -2 <= p[0] <= 0
    )
    top = A.index["ξ1ξ2"]
    piece = (2, 2)
    coords = sl.hh(piece).reduce(sl.element_vector(piece, {(top,): Q(1)}))
    eta = (piece, [i for i, c in enumerate(coords) if c][0])
    return bundle, attach_duality(bundle, eta)


@pytest.fixture(scope="module")
def poisson_duality():
    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, CIRCULANT)
    sl = slice_from_poisson(ctx, pi, 5)
    bundle = poisson_bundle(ctx, pi, sl, w_shift_min=-3, w_shift_max=2, coeff_wmax=5)
    vol = (0, 0, 0, 1, 1, 1)
    piece = (3, 3)
    coords = sl.hh(piece).reduce(sl.element_vector(piece, {vol: Q(1)}))
    eta = (piece, [i for i, c in enumerate(coords) if c][0])
    return bundle, attach_duality(bundle, eta, pd_twist=polyvector_pd_twist(1))


class TestBundleAxioms:
    def test_frobenius_calculus_axioms(self, frobenius_duality):
        bundle, _ = frobenius_duality
        report = bundle.verify_calculus_axioms(max_classes=18)
        assert report.checked > 500
        assert report.passed, report.failures[:5]

    def test_unit_class_identified(self, frobenius_duality):
        bundle, _ = frobenius_duality
        assert bundle.unit_class() == ((0, 0), 0)

    def test_poisson_calculus_axioms(self, poisson_duality):
        bundle, _ = poisson_duality
        report = bundle.verify_calculus_axioms(max_classes=14)
        assert report.checked > 300
        assert report.passed, report.failures[:5]


class TestDuality:
    def test_pd_invertible_on_every_window_piece(self, frobenius_duality):
        bundle, duality = frobenius_duality
        assert set(duality.pd) == set(bundle.coh_pres)

    def test_zero_volume_rejected(self, frobenius_duality):
        bundle, _ = frobenius_duality
        # a non-volume class: the unit's piece holds no top class; use a
        # homology class that is not PD-invertible, e.g. weight-1 class
        bad = ((1, 1), 0)
        with pytest.raises(DualityError):
            attach_duality(bundle, bad)

    def test_delta_of_unit_vanishes(self, frobenius_duality):
        bundle, duality = frobenius_duality
        assert duality.delta_classes(bundle.unit_class()) == {}

    def test_divergence_example(self, poisson_duality):
        # Δ of the class of a coordinate Hamiltonian-like field has a
        # constant-function component: the divergence
        bundle, duality = poisson_duality
        found_nonzero = False
        for key in bundle.coh_classes():
            if key[0] == (-1, 0) and key[0] in duality.pd:
                img = duality.delta_classes(key)
                if img:
                    found_nonzero = True
                    assert all(k[0] == (0, 0) for k in img)
        assert found_nonzero

    def test_pd_intertwines_B_and_delta(self, frobenius_duality):
        bundle, duality = frobenius_duality
        for key in bundle.coh_classes():
            if key[0] not in duality.pd:
                continue
            lhs = {}
            for kz, vz in duality.pd_of(key).items():
                for kb, vb in bundle.B_classes(kz).items():
                    lhs[kb] = lhs.get(kb, Q(0)) + vz * vb
            rhs = {}
            for kf, vf in duality.delta_classes(key).items():
                for kz, vz in duality.pd_of(kf).items():
                    rhs[kz] = rhs.get(kz, Q(0)) + vf * vz
            diff = dict(lhs)
            for k, v in rhs.items():
                diff[k] = diff.get(k, Q(0)) - v
            assert all(v == 0 for v in diff.values())


class TestBVReports:
    def test_frobenius_bv_passes(self, frobenius_duality):
        _, duality = frobenius_duality
        rep = verify_bv_axioms(duality, max_classes=20, quartic_limit=80)
        assert rep.delta_squared_zero
        assert rep.seven_term_checked > 100
        assert rep.passed, (rep.seven_term_failures + rep.bracket_failures)[:4]

    def test_poisson_bv_passes_with_native_schouten(self, poisson_duality):
        _, duality = poisson_duality
        rep = verify_bv_axioms(duality, max_classes=20, quartic_limit=80)
        assert rep.delta_squared_zero
        assert rep.bracket_matches_native, rep.bracket_failures[:4]
        assert rep.passed


def _nonzero_product_duality(which):
    """A bv-check structure on a window where triples without the unit have nonzero products.

    Frobenius: Λ(2), η = [ξ1ξ2], weight shifts -3..-1 and the unit, so that
    (0, -1)³ lands in (0, -3).  Poisson: c·π with c = 1, weight shifts -2..3,
    where the class of weight shift 3 and degree 0 multiplies.  Both windows
    hold every degree -2..0 of their weights, so Δ stays inside.
    """
    def class_of(sl, piece, element):
        coords = sl.hh(piece).reduce(sl.element_vector(piece, element))
        return (piece, [i for i, c in enumerate(coords) if c][0])

    if which == "frobenius":
        A = make_exterior_algebra(2)
        sl = slice_from_hochschild_dual(A, 5)
        bundle = hochschild_dual_bundle(
            A, sl, q_max=6, coh_window=lambda p: p == (0, 0) or (-2 <= p[0] <= 0 and -3 <= p[1] <= -1)
        )
        return attach_duality(bundle, class_of(sl, (2, 2), {(A.index["ξ1ξ2"],): Q(1)}))
    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, CIRCULANT)
    sl = slice_from_poisson(ctx, pi, 8)
    b = poisson_bundle(ctx, pi, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    bundle = CalculusBundle(b.name, b.ops, b.slice, b.act, coh_window=lambda p: -2 <= p[0] <= 0 and -2 <= p[1] <= 3)
    return attach_duality(bundle, class_of(sl, (3, 3), {(0, 0, 0, 1, 1, 1): Q(1)}), pd_twist=polyvector_pd_twist(1))


@pytest.mark.parametrize("which", ["frobenius", "poisson"])
def test_bv_identities_hold_on_nonzero_products(monkeypatch, which):
    duality = _nonzero_product_duality(which)
    bundle = duality.bundle
    coh = [k for k in bundle.coh_classes() if k[0] in duality.pd]
    rep = verify_bv_axioms(duality, max_classes=len(coh), quartic_limit=60)
    assert rep.passed and rep.seven_term_checked > 10000
    unit = bundle.unit_class()
    products = [t for t in iproduct(coh, repeat=3)
                if _expand(bundle.cup_classes(t[0], t[1]), lambda k: bundle.cup_classes(k, t[2]))]
    assert sum(unit not in t for t in products) > 0
    # negative control: Δ negated on one class where it is nonzero.  Only a
    # nonzero product without the unit lets the seven-term identity see it
    flip = next(k for k in coh if duality.delta_classes(k))
    delta = duality.delta_classes
    monkeypatch.setattr(duality, "delta_classes",
                        lambda k: {c: -v for c, v in delta(k).items()} if k == flip else delta(k))
    assert verify_bv_axioms(duality, max_classes=len(coh), quartic_limit=60).seven_term_failures


def test_bv_skips_a_delta_that_leaves_the_window():
    # Λ(2) with η = [ξ1ξ2] on a window holding (−2, −2) but not (−1, −2),
    # where Δ of a (−2, −2) class lands: PD⁻¹ has no piece there, so every
    # instance that needs that Δ is skipped, and the rest are still checked
    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    window = {(0, 0), (0, -1), (-2, -2)}
    bundle = hochschild_dual_bundle(A, sl, q_max=6, coh_window=lambda p: p in window)
    piece = (2, 2)
    coords = sl.hh(piece).reduce(sl.element_vector(piece, {(A.index["ξ1ξ2"],): Q(1)}))
    duality = attach_duality(bundle, (piece, [i for i, c in enumerate(coords) if c][0]))
    coh = [k for k in bundle.coh_classes() if k[0] in duality.pd]
    escaping = [k for k in coh if k[0] == (-2, -2)]
    assert len(coh) == 8 and escaping
    with pytest.raises(DualityError, match=r"piece \(-1, -2\)"):
        duality.delta_classes(escaping[0])
    rep = verify_bv_axioms(duality, max_classes=len(coh), quartic_limit=60)
    assert rep.passed
    assert (rep.seven_term_checked, rep.quartic_checked) == (7, 9)


class TestCalabiYauCase:
    def test_polynomial_duality_with_hkr_volume(self):
        # the two-variable polynomial algebra with the volume class of the
        # antisymmetrized weight-2 chain; the cochain side is windowed to
        # non-positive weight shifts, where every operation probe stays
        # inside verified tables
        from mixhom.algebra import make_truncated_polynomial_algebra
        from mixhom.calculus import hochschild_bundle
        from mixhom.mixed import slice_from_hochschild

        A = make_truncated_polynomial_algebra(2, 5)
        sl = slice_from_hochschild(A, 5)
        bundle = hochschild_bundle(
            A, sl, q_max=3, v_max=3,
            coh_window=lambda p: -2 <= p[0] <= 0 and -1 <= p[1] <= 0,
        )
        x1, x2 = A.index["x1"], A.index["x2"]
        piece = (2, 2)
        vec = sl.element_vector(piece, {(A.unit, x1, x2): Q(1), (A.unit, x2, x1): Q(-1)})
        coords = sl.hh(piece).reduce(vec)
        eta = (piece, [i for i, c in enumerate(coords) if c][0])
        duality = attach_duality(bundle, eta)
        assert set(duality.pd) == set(bundle.coh_pres)
        rep = verify_bv_axioms(duality, max_classes=16, quartic_limit=60)
        assert rep.passed and rep.seven_term_checked > 10
        # the derived operator acts as a divergence: some degree-(-1) class
        # maps to a constant-function class
        found = False
        for key in bundle.coh_classes():
            if key[0] == (-1, 0):
                img = duality.delta_classes(key)
                if img:
                    found = True
                    assert all(k[0][0] == 0 for k in img)
        assert found


def _cap_star_full_domain(f, g, chains):
    """The dual action as it was: g∘ι_f evaluated on every chain of the window."""
    from mixhom.hochschild import cap
    from test_hochschild import DualCochain

    A = g.algebra
    sign = -1 if (f.degree % 2) and (g.degree % 2) else 1
    table = {}
    for t in chains:
        val = g.evaluate(cap(f, {t: Q(1)}))
        if val:
            table[t] = sign * val
    return DualCochain(A, g.degree - f.degree, table)


def _recorded_cap_pairs(bundle, attach):
    """The (f, z) pairs that ``cap_classes`` sees while ``attach(bundle)`` runs."""
    pairs = []
    cap_classes = bundle.cap_classes

    def recording(f, z):
        pairs.append((f, z))
        return cap_classes(f, z)

    bundle.cap_classes = recording
    try:
        attach(bundle)
    finally:
        del bundle.cap_classes
    return pairs


def assert_dual_action_matches(bundle, pairs, oracle):
    """cap_classes(f, z) is the class of Σ_j c_j·oracle(rep of f, label j) for z = Σ_j c_j·(label j)*.

    Returns the number of pairs with a nonzero image.
    """
    nonzero = 0
    for f, z in pairs:
        rep = bundle.coh_rep(f)
        labels = bundle.slice.pieces[z[0]]
        want = {}
        for j, c in bundle.hom_rep_vector(z).items():
            _accumulate(want, oracle(rep, labels[j]), c)
        target = (z[0][0] + f[0][0], z[0][1] - f[0][1])
        got = bundle.cap_classes(f, z)
        if want:
            coords = bundle.slice.hh(target).reduce(bundle.slice.element_vector(target, want))
            want = {(target, i): c for i, c in enumerate(coords) if c}
        assert got == want, (f, z)
        nonzero += bool(want)
    return nonzero


def test_dual_action_matches_full_domain_on_bv_check_bundle():
    # the bv-check Frobenius bundle: the pairs attach_duality evaluates, where
    # |φ| = 2, and every pair of odd-degree classes, where the sign
    # (-1)^{|f||φ|} is -1; against g∘ι_f on every chain of the window
    from mixhom.hochschild import shifted_degree
    from test_hochschild import DualCochain

    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    bundle = hochschild_dual_bundle(
        A, sl, q_max=6, coh_window=lambda p: -3 <= p[1] <= 2 and -3 <= p[0] <= 0
    )
    coords = sl.hh((2, 2)).reduce(sl.element_vector((2, 2), {(A.index["ξ1ξ2"],): Q(1)}))
    eta = ((2, 2), [i for i, c in enumerate(coords) if c][0])
    pairs = _recorded_cap_pairs(bundle, lambda b: attach_duality(b, eta))
    assert len(pairs) > 50
    pairs += [(f, z) for f in bundle.coh_classes() if f[0][0] % 2
              for z in bundle.hom_classes() if z[0][0] % 2]
    chains = [t for labels in sl.pieces.values() for t in labels]

    def oracle(f, label):
        return _cap_star_full_domain(f, DualCochain(A, -shifted_degree(A, label), {label: Q(1)}), chains).table

    assert assert_dual_action_matches(bundle, pairs, oracle) > 300


def test_dual_action_matches_full_domain_on_gravity_check_bundle():
    # the gravity-check Poisson-dual bundle: the pairs attach_duality
    # evaluates and those of the first 12 × 12 classes, against φ∘ι_P on
    # every form of the domain
    from mixhom.calculus import poisson_dual_bundle
    from mixhom.koszul import dual_bivector_coeffs
    from mixhom.mixed import slice_from_poisson_dual
    from mixhom.poisson import DualSide
    from test_poisson import _contract_full_domain

    ctx = PoissonContext.make(3, "ext")
    dual = DualSide(ctx, quadratic_bivector(ctx, dual_bivector_coeffs(CIRCULANT)), w_max=8)
    sl = slice_from_poisson_dual(dual)
    bundle = poisson_dual_bundle(dual, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    coords = sl.hh((3, 3)).reduce(sl.element_vector((3, 3), {(1, 1, 1, 0, 0, 0): Q(1)}))
    eta = ((3, 3), [i for i, c in enumerate(coords) if c][0])
    pairs = _recorded_cap_pairs(bundle, lambda b: attach_duality(b, eta))
    assert len(pairs) > 50
    pairs += [(f, z) for f in bundle.coh_classes()[:12] for z in bundle.hom_classes()[:12]]

    def oracle(P, label):
        return _contract_full_domain(dual, P, {label: Q(1)})

    assert assert_dual_action_matches(bundle, pairs, oracle) > 20


@pytest.mark.parametrize("workload", ["bv-check", "gravity-check"])
def test_poisson_bundle_action_matches_the_element_contraction(workload):
    # the bundles act through one integer ι column per (polyvector monomial,
    # form monomial); a bundle acting by the element-level contraction oracle
    # gives the same caps on the first 12 × 12 classes and on the pairs
    # attach_duality evaluates, on chains (bv-check) and on functionals,
    # where the action is pulled back (gravity-check)
    from mixhom.calculus import poisson_dual_bundle
    from mixhom.koszul import dual_bivector_coeffs
    from mixhom.mixed import slice_from_poisson_dual
    from mixhom.poisson import DualSide
    from test_poisson import contraction

    if workload == "bv-check":
        ctx = PoissonContext.make(3, "poly")
        pi = quadratic_bivector(ctx, CIRCULANT)
        sl = slice_from_poisson(ctx, pi, 8)
        bundle = poisson_bundle(ctx, pi, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
        volume = (0, 0, 0, 1, 1, 1)
    else:
        ctx = PoissonContext.make(3, "ext")
        dual = DualSide(ctx, quadratic_bivector(ctx, dual_bivector_coeffs(CIRCULANT)), w_max=8)
        sl = slice_from_poisson_dual(dual)
        bundle = poisson_dual_bundle(dual, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
        volume = (1, 1, 1, 0, 0, 0)
    coords = sl.hh((3, 3)).reduce(sl.element_vector((3, 3), {volume: Q(1)}))
    eta = ((3, 3), [i for i, c in enumerate(coords) if c][0])
    pairs = [(f, z) for f in bundle.coh_classes()[:12] for z in bundle.hom_classes()[:12]]
    pairs += _recorded_cap_pairs(bundle, lambda b: attach_duality(b, eta))
    oracle = CalculusBundle(bundle.name, bundle.ops, bundle.slice,
                            lambda P, label: contraction(ctx, P, {label: Q(1)}), weight_sign=bundle.weight_sign)
    got = [bundle.cap_classes(f, z) for f, z in pairs]
    assert got == [oracle.cap_classes(f, z) for f, z in pairs]
    assert sum(bool(g) for g in got) > 20


def _memo_arguments(bundle, duality):
    coh = [k for k in bundle.coh_classes() if k[0] in duality.pd]
    hom = bundle.hom_classes()
    return ((duality.delta_classes, coh), (bundle.B_classes, hom), (duality.pd_inverse, hom))


def test_memo_results_are_copies(frobenius_duality):
    bundle, duality = frobenius_duality
    for method, keys in _memo_arguments(bundle, duality):
        nonempty = 0
        for key in keys:
            try:
                first = method(key)
            except DualityError:
                # failures are not memoized: the next call raises again
                with pytest.raises(DualityError):
                    method(key)
                continue
            want = dict(first)
            nonempty += bool(want)
            first.clear()
            first[("junk", 0)] = Q(7)
            assert method(key) == want
        assert nonempty, method.__name__


def test_fresh_dualities_share_no_cache():
    (bundle1, duality1), (bundle2, duality2) = _frobenius_duality(), _frobenius_duality()
    # B on homology classes is memoized on the bundle's slice
    B1, B2 = bundle1.slice._B, bundle2.slice._B
    # the per-piece PD⁻¹ tables are built by attach_duality, equal and unshared
    assert duality1.pd == duality2.pd and duality1.pd is not duality2.pd
    assert not any(a is b for p in duality1.pd for a, b in zip(duality1.pd[p], duality2.pd[p]))
    before = (dict(duality2._delta), {p: [dict(c) for c in cols] for p, cols in duality2.pd.items()}, dict(B2))
    for method, keys in _memo_arguments(bundle1, duality1):
        for key in keys:
            try:
                method(key)
            except DualityError:
                pass
    assert duality1._delta and len(B1) > len(before[2])
    assert (duality2._delta, duality2.pd, B2) == before
    assert duality1._delta is not duality2._delta and B1 is not B2


# -- PD⁻¹ against the per-class solve ---------------------------------------------


def pd_inverse_by_solve(duality, key):
    """PD⁻¹ of a homology class as it was: one solve_in_span per class, on the dense twisted PD columns."""
    (d, w), i = key
    (de, we) = duality.eta[0]
    src = (d - de, duality.bundle.weight_sign * (w - we))
    if src not in duality.pd:
        raise DualityError(f"PD not invertible into piece {src}")
    dim = duality.bundle.slice.hh(key[0]).dim
    cols = []
    for j in range(duality.bundle.coh_pres[src].dim):
        img = duality.pd_of((src, j))
        cols.append(tuple(img.get((key[0], k), Q(0)) for k in range(dim)))
    coeffs = solve_in_span(cols, tuple(Q(int(k == i)) for k in range(dim)))
    if coeffs is None:
        raise DualityError(f"PD not surjective onto {key}")
    return {(src, j): c for j, c in enumerate(coeffs) if c}


def assert_pd_inverse_matches_solve(duality) -> int:
    """On every homology class, pd_inverse equals the per-class solve and PD(pd_inverse(z)) = z.

    Returns the number of classes with an inverse; on the others both raise DualityError.
    """
    checked = 0
    for key in duality.bundle.hom_classes():
        try:
            want = pd_inverse_by_solve(duality, key)
        except DualityError:
            with pytest.raises(DualityError):
                duality.pd_inverse(key)
            continue
        got = duality.pd_inverse(key)
        assert got == want, key
        back = {}
        for k, v in got.items():
            _accumulate(back, duality.pd_of(k), v)
        assert back == {key: 1}, key
        checked += 1
    return checked


def test_pd_inverse_matches_per_class_solve_on_bv_check_dualities():
    frob, pois = _bv_check_bundles()
    assert assert_pd_inverse_matches_solve(frob) > 10
    assert assert_pd_inverse_matches_solve(pois) > 10


@pytest.mark.parametrize("which", ["frobenius", "poisson"])
def test_equal_pd_images_make_the_piece_singular(request, monkeypatch, which):
    bundle, duality = request.getfixturevalue(f"{which}_duality")
    unit_piece = bundle.unit_class()[0]
    piece = next(p for p in sorted(duality.pd) if len(duality.pd[p]) >= 2 and p != unit_piece)
    cap = CalculusBundle.cap_classes

    def doubled(self, f, z):
        # class 1 of the piece gets the image of class 0
        return cap(self, (piece, 0) if self is bundle and f == (piece, 1) else f, z)

    monkeypatch.setattr(CalculusBundle, "cap_classes", doubled)
    with pytest.raises(DualityError, match=re.escape(f"PD singular in piece {piece}")):
        attach_duality(bundle, duality.eta, pd_twist=duality.pd_twist)


def test_cochain_ops_leave_no_reference_cycle():
    A = make_exterior_algebra(2)
    gc.collect()
    gc.disable()
    try:
        ops = HochschildCochainOps(A, 3)
        del ops
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cochain_ops_keep_no_tuple_table():
    # δ visits only the tuples a cochain's support reaches; the algebra's
    # inverse multiplication table, filled by the first δ, holds no reference
    # back to the algebra
    A = make_exterior_algebra(2)
    ops = HochschildCochainOps(A, 3)
    assert not hasattr(ops, "tuples")
    assert sum(len(ops.delta_matrix(piece).entries) for piece in ops.pieces()) > 0
    assert A.factorizations
    gc.collect()
    gc.disable()
    try:
        del ops, A
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the build-once δ against the two-build delta_pair it replaced ----------------
#
# Each piece used to build its outgoing δ and, a second time, the incoming δ
# out of the piece above, capped at arity q_max - 1.  That code is kept here
# verbatim as the reference for ``delta_pairs``.


def _hochschild_delta_matrix_oracle(self, piece, into_ext=True, src_arity_cap=None):
    D, om = piece
    src = self._pieces.get(piece, [])
    tgt = (self._pieces_ext if into_ext else self._pieces).get((D - 1, om), [])
    tgt_idx = {lab: i for i, lab in enumerate(tgt)}
    tuples = {q: all_tuples_up_to_weight(self.A, q, self.v_max) for q in range(self.q_max + 2)}
    entries = {}
    for j, (t, k) in enumerate(src):
        if src_arity_cap is not None and len(t) > src_arity_cap:
            continue
        f = Cochain(self.A, len(t), D, {t: {k: Q(1)}})
        df = coboundary_scan(f, tuples)
        for tt, val in df.table.items():
            for kk, c in val.items():
                key = (tt, kk)
                if c:
                    if key not in tgt_idx:
                        raise WindowError(f"coboundary escapes tables at {key!r}")
                    entries[(tgt_idx[key], j)] = c
    return ExactMatrix(len(tgt), len(src), entries)


def _hochschild_delta_pair_oracle(self, piece):
    D, om = piece
    d_out = _hochschild_delta_matrix_oracle(self, piece, into_ext=True)
    d_in = _hochschild_delta_matrix_oracle(self, (D + 1, om), into_ext=True, src_arity_cap=self.q_max - 1)
    # restrict incoming rows from the extended target to the piece basis
    ext = self._pieces_ext.get(piece, [])
    keep = {i for i, lab in enumerate(ext) if len(lab[0]) <= self.q_max}
    row_map = {}
    for i in sorted(keep):
        row_map[i] = len(row_map)
    entries = {}
    for (i, j), v in d_in.entries.items():
        if i not in keep:
            raise WindowError("restricted incoming differential escapes the piece")
        entries[(row_map[i], j)] = v
    d_in_r = ExactMatrix(len(keep), d_in.cols, entries)
    return d_in_r, d_out


def _multivector_delta_pair_oracle(self, piece):
    D, om = piece
    return (delta_by_monomials(self.ctx, self.pi, self._pieces, (D + 1, om)),
            delta_by_monomials(self.ctx, self.pi, self._pieces, piece))


def _delta_case(case, q_max=6, coeff_wmax=8):
    """(ops, pieces, two-build oracle) of the bv-check cochain sides, and of k[x] ⊗ Λ(ξ).

    Every piece of Λ(ξ1, ξ2) holds cochains of one arity, so the arity cap
    of the incoming map drops nothing there.  On k[x] ⊗ Λ(ξ) (weights <= 3)
    it drops sources in every piece of degree < 0 and weight shift <= 0.
    """
    if case == "hochschild":
        ops = HochschildCochainOps(make_exterior_algebra(2), q_max)
        pieces = {p for p in ops.pieces() if -3 <= p[1] <= 2 and -3 <= p[0] <= 0}
        return ops, pieces, _hochschild_delta_pair_oracle
    if case == "capped":
        # x of degree 0 and ξ of degree -1: xξ = ξx, ξξ = 0
        rels = ((0, -1, 1, 0), (0, 0, 0, 1))
        pres = QuadraticPresentation(2, (0, -1), tuple(tuple(Q(c) for c in r) for r in rels))
        ops = HochschildCochainOps(quadratic_algebra(pres, 3)[0], 2)
        return ops, {p for p in ops.pieces() if p[1] <= 0}, _hochschild_delta_pair_oracle
    ctx = PoissonContext.make(3, "poly")
    ops = MultivectorOps(ctx, quadratic_bivector(ctx, CIRCULANT), -3, coeff_wmax - 3, coeff_wmax)
    return ops, set(ops.pieces()), _multivector_delta_pair_oracle


@pytest.mark.parametrize("case", ["hochschild", "capped", "polyvectors"])
def test_delta_pairs_match_the_two_build_oracle(case):
    ops, pieces, oracle = _delta_case(case)
    got = list(delta_pairs(ops, pieces))
    assert [piece for piece, _, _ in got] == sorted(pieces)
    for piece, d_in, d_out in got:
        assert (d_in, d_out) == oracle(ops, piece), piece


def test_a_flipped_delta_entry_is_not_a_complex(monkeypatch):
    # no slice validates a cochain δ, so delta_pairs checks each pair: one
    # entry of δ out of (D + 1, ω) with its sign flipped, in a row that δ
    # out of (D, ω) reads, makes d∘d nonzero on that entry's column alone
    ops, pieces, _ = _delta_case("polyvectors", coeff_wmax=5)
    delta = {p: ops.delta_matrix(p) for p in pieces}
    above, (i, j) = next(
        ((D + 1, om), (i, j))
        for (D, om) in sorted(pieces)
        for (i, j) in sorted(ops.delta_matrix((D + 1, om)).entries)
        if any(c == i for (_, c) in delta[(D, om)].entries)
    )
    build = MultivectorOps.delta_matrix

    def flipped(self, piece):
        M = build(self, piece)
        if piece == above:
            M.entries[(i, j)] = -M.entries[(i, j)]
        return M

    monkeypatch.setattr(MultivectorOps, "delta_matrix", flipped)
    with pytest.raises(NotAComplexError) as exc:
        CalculusBundle("flipped", ops, None, None, coh_window=lambda p: p in pieces)
    assert exc.value.column == j


@pytest.mark.parametrize("case", ["hochschild", "polyvectors"])
def test_a_bundle_builds_each_delta_once(monkeypatch, case):
    ops, pieces, _ = _delta_case(case, q_max=4, coeff_wmax=5)
    built = []
    original = type(ops).delta_matrix

    def counting(self, piece):
        built.append(piece)
        return original(self, piece)

    monkeypatch.setattr(type(ops), "delta_matrix", counting)
    bundle = CalculusBundle(case, ops, None, None, coh_window=lambda p: p in pieces)
    assert set(bundle.coh_pres) == pieces
    assert sorted(built) == sorted(pieces | {(D + 1, om) for (D, om) in pieces})
