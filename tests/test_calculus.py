import gc
import re
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from functools import partial
from itertools import product as iproduct

import pytest

import mixhom.calculus as calculus
from mixhom.algebra import QuadraticPresentation, koszul_sign, make_exterior_algebra, make_truncated_polynomial_algebra
from mixhom.calculus import (
    AxiomReport,
    BVReport,
    CalculusBundle,
    DualityData,
    DualityError,
    HochschildCochainOps,
    MultivectorOps,
    WindowError,
    _signed_sum,
    attach_duality,
    delta_pairs,
    hochschild_dual_bundle,
    poisson_bundle,
    poisson_dual_bundle,
    polyvector_pd_twist,
    verify_bv_axioms,
)
from mixhom.hochschild import Cochain
from mixhom.koszul import dual_bivector_coeffs, fit_dual_product_twist, koszul_poisson_identification, quadratic_algebra
from mixhom.linalg import (ZERO_ROW, ExactMatrix, NotAComplexError, Row, _accumulate, _expand, _fractions, _iexpand,
                           _pullback)
from mixhom.mixed import ClassKey, slice_from_hochschild_dual, slice_from_poisson, slice_from_poisson_dual
from mixhom.poisson import DualSide, PoissonContext, quadratic_bivector
from test_hochschild import all_tuples_up_to_weight, coboundary_scan
from test_linalg import _bv_check_bundles, apply_fractions, solve_in_span
from test_mixed import _as_classes
from test_poisson import delta_by_monomials

Q = Fraction

CIRCULANT = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}


def fractions_of(row):
    """A class row as the {class key: Fraction} it stands for; None (unavailable) stays None."""
    return None if row is None else _fractions(*row)


def _fraction_view(method):
    """``method`` with its class rows read as Fractions: the form the oracles below take."""
    return lambda *args: fractions_of(method(*args))


def coh_rep_fractions(bundle, key):
    """A class's cochain representative with Fraction coefficients: the cochain of its cycle read as Fractions."""
    piece, i = key
    return bundle.ops.rep(piece, _fractions(*bundle.coh_pres[piece].cycle(i)))


def hom_rep_vector(bundle, key):
    """A homology class's representative as sparse Fractions {basis index: Fraction}."""
    piece, i = key
    return _fractions(*bundle.slice.hh(piece).cycle(i))

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
    return _poisson_duality()


def _poisson_duality():
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
        assert fractions_of(duality.delta_classes(bundle.unit_class())) == {}

    def test_divergence_example(self, poisson_duality):
        # Δ of the class of a coordinate Hamiltonian-like field has a
        # constant-function component: the divergence
        bundle, duality = poisson_duality
        found_nonzero = False
        for key in bundle.coh_classes():
            if key[0] == (-1, 0) and key[0] in duality.pd:
                img = fractions_of(duality.delta_classes(key))
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
            for kz, vz in fractions_of(duality.pd_of(key)).items():
                for kb, vb in fractions_of(bundle.slice.B_class(kz)).items():
                    lhs[kb] = lhs.get(kb, Q(0)) + vz * vb
            rhs = {}
            for kf, vf in fractions_of(duality.delta_classes(key)).items():
                for kz, vz in fractions_of(duality.pd_of(kf)).items():
                    rhs[kz] = rhs.get(kz, Q(0)) + vf * vz
            diff = dict(lhs)
            for k, v in rhs.items():
                diff[k] = diff.get(k, Q(0)) - v
            assert all(v == 0 for v in diff.values())


@pytest.mark.parametrize("which, ops_class", [("frobenius", HochschildCochainOps), ("poisson", MultivectorOps)])
def test_representatives_are_built_once_per_class_and_never_edited(monkeypatch, which, ops_class):
    # the fixtures' structures, built fresh: every cup, bracket and action of the set-up and of both
    # verifiers shares one memoized cochain per class, and none of them edits it
    built, rep = Counter(), ops_class.rep

    def counted(ops, piece, vec):
        built[piece, frozenset(vec.items())] += 1
        return rep(ops, piece, vec)

    monkeypatch.setattr(ops_class, "rep", counted)
    bundle, duality = {"frobenius": _frobenius_duality, "poisson": _poisson_duality}[which]()
    assert bundle.verify_calculus_axioms(max_classes=14).passed
    assert verify_bv_axioms(duality, max_classes=20, quartic_limit=80).passed
    assert built and max(built.values()) == 1
    for piece, i in bundle.coh_classes():
        num, den = bundle.coh_pres[piece].cycle(i)
        assert bundle.coh_rep((piece, i)) == (rep(bundle.ops, piece, num), den)


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
                if fractions_of(_iexpand(bundle.cup_classes(t[0], t[1]), lambda k: bundle.cup_classes(k, t[2])))]
    assert sum(unit not in t for t in products) > 0
    # negative control: Δ negated on one class where it is nonzero.  Only a
    # nonzero product without the unit lets the seven-term identity see it
    flip = next(k for k in coh if fractions_of(duality.delta_classes(k)))
    monkeypatch.setattr(duality, "delta_classes", _negated(duality.delta_classes, (flip,)))
    assert verify_bv_axioms(duality, max_classes=len(coh), quartic_limit=60).seven_term_failures


def test_bv_table_reads_stay_linear_in_the_pairs(monkeypatch):
    # the bv-check Frobenius calculus: one BV run reads cup and Δ a bounded number of times per pair of
    # classes, where re-expanding the pair products for every third class reads cup about 11,000 times
    duality = _bv_check_bundles()[0]
    calls = Counter()

    def counted(name, method):
        def wrapped(*args):
            calls[name] += 1
            return method(*args)
        return wrapped

    monkeypatch.setattr(duality.bundle, "cup_classes", counted("cup", duality.bundle.cup_classes))
    monkeypatch.setattr(duality, "delta_classes", counted("delta", duality.delta_classes))
    rep = verify_bv_axioms(duality, max_classes=12, quartic_limit=60)
    assert (rep.passed, rep.seven_term_checked, rep.quartic_checked) == (True, 1728, 60)
    pairs = len([k for k in duality.bundle.coh_classes() if k[0] in duality.pd][:12]) ** 2
    assert 0 < calls["cup"] <= 10 * pairs and 0 < calls["delta"] <= 10 * pairs


def _escaping_delta_duality():
    """Λ(2) with η = [ξ1ξ2] on a window holding (−2, −2) but not (−1, −2).

    Δ of a (−2, −2) class lands in (−1, −2), where PD⁻¹ has no piece.
    """
    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    window = {(0, 0), (0, -1), (-2, -2)}
    bundle = hochschild_dual_bundle(A, sl, q_max=6, coh_window=lambda p: p in window)
    piece = (2, 2)
    coords = sl.hh(piece).reduce(sl.element_vector(piece, {(A.index["ξ1ξ2"],): Q(1)}))
    return attach_duality(bundle, (piece, [i for i, c in enumerate(coords) if c][0]))


def test_bv_skips_a_delta_that_leaves_the_window():
    # PD⁻¹ has no piece where Δ of a (−2, −2) class lands, so every instance
    # that needs that Δ is skipped, and the rest are still checked
    duality = _escaping_delta_duality()
    bundle = duality.bundle
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
                img = fractions_of(duality.delta_classes(key))
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
        rep = coh_rep_fractions(bundle, f)
        labels = bundle.slice.pieces[z[0]]
        want = {}
        for j, c in hom_rep_vector(bundle, z).items():
            _accumulate(want, oracle(rep, labels[j]), c)
        target = (z[0][0] + f[0][0], z[0][1] - f[0][1])
        got = fractions_of(bundle.cap_classes(f, z))
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
    assert sum(bool(fractions_of(g)) for g in got) > 20


def _memo_arguments(bundle, duality):
    coh = [k for k in bundle.coh_classes() if k[0] in duality.pd]
    hom = bundle.hom_classes()
    return ((duality.delta_classes, coh), (bundle.slice.B_class, hom), (duality.pd_inverse, hom))


def test_memo_results_are_copies(frobenius_duality):
    # a memo table hands out read-only rows: editing one raises, and the next call returns an equal row
    bundle, duality = frobenius_duality
    for method, keys in _memo_arguments(bundle, duality):
        nonempty = 0
        for key in keys:
            try:
                num, den = method(key)
            except DualityError:
                # failures are not memoized: the next call raises again
                with pytest.raises(DualityError):
                    method(key)
                continue
            want = dict(num), den
            nonempty += bool(num)
            with pytest.raises(TypeError):
                num[("junk", 0)] = 7
            for k in want[0]:
                with pytest.raises(TypeError):
                    del num[k]
            assert method(key) == want
        assert nonempty, method.__name__


def test_fresh_dualities_share_no_cache():
    (bundle1, duality1), (bundle2, duality2) = _frobenius_duality(), _frobenius_duality()
    # B on homology classes is memoized on the bundle's slice
    B1, B2 = bundle1.slice._B, bundle2.slice._B
    # the per-piece PD⁻¹ tables are built by attach_duality, equal and unshared
    assert duality1.pd == duality2.pd and duality1.pd is not duality2.pd
    assert not any(a is b for p in duality1.pd for a, b in zip(duality1.pd[p], duality2.pd[p]))
    before = (dict(duality2._delta), {p: [(dict(num), den) for num, den in cols] for p, cols in duality2.pd.items()},
              dict(B2))
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


def pd_inverse_by_solve(duality, key, pd_of=None):
    """PD⁻¹ of a homology class as it was: one solve_in_span per class, on the dense twisted PD columns.

    ``pd_of`` gives a column as {class key: Fraction}; by default the duality's own, read as Fractions.
    """
    (d, w), i = key
    (de, we) = duality.eta[0]
    src = (d - de, duality.bundle.weight_sign * (w - we))
    if src not in duality.pd:
        raise DualityError(f"PD not invertible into piece {src}")
    dim = duality.bundle.slice.hh(key[0]).dim
    cols = []
    for j in range(duality.bundle.coh_pres[src].dim):
        img = pd_of((src, j)) if pd_of else fractions_of(duality.pd_of((src, j)))
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
        got = fractions_of(duality.pd_inverse(key))
        assert got == want, key
        back = {}
        for k, v in got.items():
            _accumulate(back, fractions_of(duality.pd_of(k)), v)
        assert back == {key: 1}, key
        checked += 1
    return checked


def test_pd_inverse_matches_per_class_solve_on_bv_check_dualities():
    frob, pois = _bv_check_bundles()
    assert assert_pd_inverse_matches_solve(frob) > 10
    assert assert_pd_inverse_matches_solve(pois) > 10


# -- class rows against the Fraction class vectors they replaced -------------------
#
# The tables, B on classes and Δ used to hold {class key: Fraction}.  That form
# is computed here straight from the presentations' ``reduce``, with its own
# chain-level cap and a per-class PD⁻¹ solve, and every class row must stand for it.


def _cap_fractions(bundle, f, z):
    """ι_f on a homology class as {class key: Fraction}; None where it leaves the window."""
    (D1, o1), (dz, wz) = f[0], z[0]
    target = (dz + D1, wz + bundle.weight_sign * o1)
    act = partial(bundle.act, coh_rep_fractions(bundle, f))
    labels = bundle.slice.pieces[z[0]]
    z_rep = {labels[j]: c for j, c in hom_rep_vector(bundle, z).items()}
    try:
        if bundle.weight_sign == 1:
            out = _expand(z_rep, act)
        else:
            out = _pullback(z_rep, bundle.slice.pieces.get(target, ()), act, -1 if (D1 * dz) % 2 else 1)
    except WindowError:
        return None
    if not out:
        return {}
    if not bundle.slice.dim(target):
        return None
    return _as_classes(target, bundle.slice.hh(target).reduce(bundle.slice.element_vector(target, out)))


def _B_fractions(sl, key):
    """B on a b-homology basis class as {class key: Fraction}."""
    (d, w), i = key
    img = apply_fractions(sl.B_matrix((d, w)), _fractions(*sl.hh((d, w)).cycle(i)))
    return _as_classes((d + 1, w), sl.hh((d + 1, w)).reduce(img)) if img else {}


def _delta_fractions(duality, key):
    """Δ = PD⁻¹∘B∘PD on a cohomology class as {class key: Fraction}, or the error type it raises."""
    def pd_of(k):
        got = _cap_fractions(duality.bundle, k, duality.eta)
        if got is None:
            raise WindowError(f"PD image of {k} escapes the window")
        t = duality._twist(k[0])
        return {kc: t * v for kc, v in got.items()}

    try:
        out = {}
        for kz, vz in pd_of(key).items():
            for kb, vb in _B_fractions(duality.bundle.slice, kz).items():
                _accumulate(out, pd_inverse_by_solve(duality, kb, pd_of), vz * vb)
        return out
    except (WindowError, DualityError) as exc:
        return type(exc)


def _workload_duality(which, c):
    """The duality of one bundle of the bv-check and gravity-check workloads, π scaled by c.

    "poisson" is the c·π bundle that both workloads build; "poisson-dual" is the
    gravity-check dual side under its derived twist; "frobenius" does not read c.
    """
    if which == "frobenius":
        return _bv_check_bundles()[0]
    coeffs = {k: c * v for k, v in CIRCULANT.items()}
    ident = koszul_poisson_identification(3)
    pi = quadratic_bivector(ident.ctx_poly, coeffs)
    sl = slice_from_poisson(ident.ctx_poly, pi, 8)
    bundle = poisson_bundle(ident.ctx_poly, pi, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    coords = sl.hh((3, 3)).reduce(sl.element_vector((3, 3), {(0, 0, 0, 1, 1, 1): Q(1)}))
    dp = attach_duality(bundle, ((3, 3), [i for i, v in enumerate(coords) if v][0]), pd_twist=polyvector_pd_twist(1))
    if which == "poisson":
        return dp
    dual = DualSide(ident.ctx_ext, quadratic_bivector(ident.ctx_ext, dual_bivector_coeffs(coeffs)), w_max=8)
    sld = slice_from_poisson_dual(dual)
    bd = poisson_dual_bundle(dual, sld, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    coords = sld.hh((3, 3)).reduce(sld.element_vector((3, 3), {(1, 1, 1, 0, 0, 0): Q(1)}))
    eta = ((3, 3), [i for i, v in enumerate(coords) if v][0])
    return attach_duality(bd, eta, pd_twist=fit_dual_product_twist(ident, dp, bd, eta))


@pytest.mark.parametrize("which, c", [("frobenius", Q(1)), ("poisson", Q(1)), ("poisson", Q(-7, 3)),
                                      ("poisson-dual", Q(1)), ("poisson-dual", Q(-7, 3))],
                         ids=["frobenius", "poisson-c=1", "poisson-c=-7/3", "poisson-dual-c=1", "poisson-dual-c=-7/3"])
def test_class_rows_match_the_fraction_form(which, c):
    duality = _workload_duality(which, c)
    bundle = duality.bundle
    coh, hom = bundle.coh_classes(), bundle.hom_classes()
    nonzero = Counter()
    for name, degree in (("cup", 0), ("bracket", 1)):
        op, got = getattr(bundle.ops, name), getattr(bundle, f"{name}_classes")
        for a, b in iproduct(coh, repeat=2):
            want = _product_classes_oracle(bundle, op, degree, a, b)
            assert fractions_of(got(a, b)) == want, (name, a, b)
            nonzero[name] += bool(want)
    for f, z in iproduct(coh, hom):
        want = _cap_fractions(bundle, f, z)
        assert fractions_of(bundle.cap_classes(f, z)) == want, (f, z)
        nonzero["cap"] += bool(want)
    for z in hom:
        want = _B_fractions(bundle.slice, z)
        assert fractions_of(bundle.slice.B_class(z)) == want, z
        nonzero["B"] += bool(want)
    for key in coh:
        want = _delta_fractions(duality, key)
        try:
            got = fractions_of(duality.delta_classes(key))
        except (WindowError, DualityError) as exc:
            got = type(exc)
        assert got == want, key
        nonzero["Δ"] += want not in ({}, WindowError, DualityError)
    assert all(nonzero[k] for k in ("cup", "bracket", "cap", "B", "Δ")), nonzero


def test_the_reference_caps_see_the_sign_of_the_dual_action(monkeypatch):
    # on the bv-check Frobenius bundle, ι_f φ = (-1)^{|f||φ|} φ∘ι_f is -φ∘ι_f for odd f and φ: the reference
    # matches cap_classes there, and a cap_classes whose pullback drops that sign fails it
    def mismatches():
        bundle = _bv_check_bundles()[0].bundle
        odd = [(f, z) for f in bundle.coh_classes() if f[0][0] % 2 for z in bundle.hom_classes() if z[0][0] % 2]
        want = [_cap_fractions(bundle, f, z) for f, z in odd]
        assert sum(bool(w) for w in want) > 20
        return sum(fractions_of(bundle.cap_classes(f, z)) != w for (f, z), w in zip(odd, want))

    assert mismatches() == 0
    monkeypatch.setattr(calculus, "_pullback", lambda phi, sources, apply, sign: _pullback(phi, sources, apply, 1))
    assert mismatches() > 20


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


# -- labels listed on first read against the eager constructor ------------------
#
# HochschildCochainOps used to list every piece in its constructor; that
# enumeration is kept here verbatim as the reference for ``_CochainPieces``.


def _eager_pieces(A, q_max, v_max):
    """The (_pieces, _pieces_ext) that the constructor listed before pieces were built on first read."""
    pieces, pieces_ext = {}, {}
    for q in range(q_max + 2):
        for t in all_tuples_up_to_weight(A, q, v_max):
            wt = sum(A.weights[i] for i in t)
            st = sum(A.degrees[i] + 1 for i in t)
            for k in range(A.dim):
                if A.weight_cutoff is not None and A.weights[k] > A.weight_cutoff:
                    continue
                D = A.degrees[k] - st
                om = A.weights[k] - wt
                pieces_ext.setdefault((D, om), []).append((t, k))
                if q <= q_max:
                    pieces.setdefault((D, om), []).append((t, k))
    for labels in (*pieces.values(), *pieces_ext.values()):
        labels.sort()
    return pieces, pieces_ext


def _capped_algebra():
    # x of degree 0 and ξ of degree -1: xξ = ξx, ξξ = 0
    rels = ((0, -1, 1, 0), (0, 0, 0, 1))
    pres = QuadraticPresentation(2, (0, -1), tuple(tuple(Q(c) for c in r) for r in rels))
    return quadratic_algebra(pres, 3)[0]


LABEL_CASES = {
    **{f"lambda2-q{q}": (lambda: make_exterior_algebra(2), q, None) for q in range(2, 7)},
    "calabi-yau": (lambda: make_truncated_polynomial_algebra(2, 5), 3, 3),
    "capped": (_capped_algebra, 2, None),
}


@pytest.mark.parametrize("case", sorted(LABEL_CASES))
def test_labels_built_on_first_read_match_the_eager_enumeration(case):
    maker, q_max, v_max = LABEL_CASES[case]
    ops = HochschildCochainOps(maker(), q_max, v_max)
    assert not ops._pieces._built and not ops._pieces_ext._built
    for store, want in zip((ops._pieces, ops._pieces_ext), _eager_pieces(ops.A, q_max, ops.v_max)):
        assert set(store) == set(want) and len(store) == len(want)
        assert all(piece in store for piece in want)
        # indexing and get build a piece alike; label lists are compared in order
        assert {piece: store.get(piece) if i % 2 else store[piece] for i, piece in enumerate(sorted(want))} == want
        assert store.get((99, 99)) is None and (99, 99) not in store


def test_bv_check_bundle_lists_and_differentiates_only_its_window(monkeypatch):
    # the bv-check Frobenius bundle reads its window, the pieces one degree above it and the extended pieces
    # one degree below: 237 and 230 labels, of the 4,372 and 13,120 an eager constructor lists
    delta = HochschildCochainOps._delta
    evaluated = []

    def counting(self, label):
        evaluated.append(label)
        return delta(self, label)

    monkeypatch.setattr(HochschildCochainOps, "_delta", counting)
    A = make_exterior_algebra(2)
    bundle = hochschild_dual_bundle(A, slice_from_hochschild_dual(A, 5), q_max=6,
                                    coh_window=lambda p: -3 <= p[1] <= 2 and -3 <= p[0] <= 0)
    ops = bundle.ops
    assert [sum(map(len, store._built.values())) for store in (ops._pieces, ops._pieces_ext)] == [237, 230]
    assert len(evaluated) == len(set(evaluated)) == 237
    assert [sum(map(len, labels.values())) for labels in _eager_pieces(A, 6, ops.v_max)] == [4372, 13120]


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
        ops = HochschildCochainOps(_capped_algebra(), 2)
        return ops, {p for p in ops.pieces() if p[1] <= 0}, _hochschild_delta_pair_oracle
    ctx = PoissonContext.make(3, "poly")
    # c·π with c = -7/3 puts a denominator on δ and on its incoming restriction
    c = Q(-7, 3) if case == "polyvectors-c=-7_3" else Q(1)
    pi = quadratic_bivector(ctx, {k: c * v for k, v in CIRCULANT.items()})
    ops = MultivectorOps(ctx, pi, -3, coeff_wmax - 3, coeff_wmax)
    return ops, set(ops.pieces()), _multivector_delta_pair_oracle


@pytest.mark.parametrize("case", ["hochschild", "capped", "polyvectors", "polyvectors-c=-7_3"])
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
            # flip the stored integer: ``entries`` is a fresh rational view
            M.num[(i, j)] = -M.num[(i, j)]
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


# -- the unit's piece outside the window ------------------------------------------


def _unitless_bundle():
    """Λ(2) on a cochain window of degrees <= −1, which leaves out the unit's piece (0, 0), and η = [ξ1ξ2]."""
    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    bundle = hochschild_dual_bundle(A, sl, q_max=3, coh_window=lambda p: p[0] <= -1)
    coords = sl.hh((2, 2)).reduce(sl.element_vector((2, 2), {(A.index["ξ1ξ2"],): Q(1)}))
    return bundle, ((2, 2), [i for i, c in enumerate(coords) if c][0])


def test_a_window_without_the_unit_has_no_duality():
    bundle, eta = _unitless_bundle()
    assert (0, 0) not in bundle.coh_pres
    with pytest.raises(DualityError, match="unit class"):
        attach_duality(bundle, eta)


def test_a_window_without_the_unit_fails_the_unit_rule():
    bundle, _ = _unitless_bundle()
    report = bundle.verify_calculus_axioms(max_classes=6)
    assert report.failures == ["unit class not identifiable"]
    assert report.checked > 0


# -- product reduction against the is_zero-first reduction it replaced ------------
#
# Each cochain side used to write its own is_zero and vector, and a product was
# reduced by asking is_zero first.  Both are kept here verbatim as the reference
# for ``CalculusBundle._reduce_coh``, which reads the one shared ``vector``.


def _hochschild_is_zero_oracle(self, f):
    return not f.table or all(
        c == 0 for val in f.table.values() for c in val.values()
    )


def _multivector_is_zero_oracle(self, P):
    return not P or all(c == 0 for c in P.values())


def _hochschild_vector_oracle(self, piece, f):
    idx = {lab: i for i, lab in enumerate(self._pieces.get(piece, []))}
    vec = {}
    for t, val in f.table.items():
        for k, c in val.items():
            if c == 0:
                continue
            key = (t, k)
            if key not in idx:
                raise WindowError(f"cochain entry {key!r} escapes piece {piece}")
            vec[idx[key]] = c
    return vec


def _multivector_vector_oracle(self, piece, P):
    idx = {m: i for i, m in enumerate(self._pieces.get(piece, []))}
    vec = {}
    for m, c in P.items():
        if c == 0:
            continue
        if m not in idx:
            raise WindowError(f"polyvector monomial escapes piece {piece}")
        vec[idx[m]] = c
    return vec


def _reduce_coh_oracle(self, piece, cochain):
    hochschild = isinstance(self.ops, HochschildCochainOps)
    if (_hochschild_is_zero_oracle if hochschild else _multivector_is_zero_oracle)(self.ops, cochain):
        return {}
    pres = self.coh_pres.get(piece)
    if pres is None:
        return None
    try:
        vec = (_hochschild_vector_oracle if hochschild else _multivector_vector_oracle)(self.ops, piece, cochain)
    except WindowError:
        return None
    return _as_classes(piece, pres.reduce(vec))


def _product_classes_oracle(bundle, op, degree, a, b):
    (D1, o1), (D2, o2) = a[0], b[0]
    try:
        val = op(coh_rep_fractions(bundle, a), coh_rep_fractions(bundle, b))
    except WindowError:
        return None
    return _reduce_coh_oracle(bundle, (D1 + D2 + degree, o1 + o2), val)


@pytest.mark.parametrize("which, kinds", [
    ("frobenius", {"cup": (837, 2151, 733), "bracket": (1406, 1137, 1178)}),
    ("poisson", {"cup": (81, 3915, 229), "bracket": (206, 3541, 478)}),
])
def test_product_classes_match_the_is_zero_first_oracle(which, kinds):
    # every pair of classes of a bv-check bundle, the first 12 (which the BV
    # gate reads: all zero products into pieces outside the window) included;
    # kinds counts (unavailable, no classes, some classes) per product
    duality = dict(zip(["frobenius", "poisson"], _bv_check_bundles()))[which]
    bundle = duality.bundle
    coh = bundle.coh_classes()
    for name, degree in (("cup", 0), ("bracket", 1)):
        op, got = getattr(bundle.ops, name), getattr(bundle, f"{name}_classes")
        seen = Counter()
        for a, b in iproduct(coh, repeat=2):
            want = _product_classes_oracle(bundle, op, degree, a, b)
            assert fractions_of(got(a, b)) == want, (name, a, b)
            seen[None if want is None else bool(want)] += 1
        assert (seen[None], seen[False], seen[True]) == kinds[name], name
        assert all(got(a, b) == ZERO_ROW for a, b in iproduct(coh[:12], repeat=2))


def test_a_product_outside_the_window_reduces_by_whether_it_is_zero():
    bundle = _bv_check_bundles()[0].bundle
    ops, rep = bundle.ops, partial(coh_rep_fractions, bundle)
    a = ((-2, -3), 0)
    for b, piece, zero in [(a, (-4, -6), True), (((0, -3), 0), (-2, -6), False), (((0, -1), 0), (-2, -4), False)]:
        table = ops.cup(rep(a), rep(b)).table
        assert piece not in bundle.coh_pres
        assert zero == (not any(c for val in table.values() for c in val.values()))
        assert fractions_of(bundle.cup_classes(a, b)) == ({} if zero else None), b
    # (−2, −6) lies outside the cochain side itself: the product's entries escape its basis
    assert (-2, -6) not in ops.pieces() and (-2, -4) in ops.pieces()


# -- the instance rule against the hand-counted verifiers it replaced -----------
#
# The verifiers before every identity instance went through ``_count``, kept
# here verbatim as the reference: equal reports, failure lists in order.


def verify_calculus_axioms_oracle(self, max_classes: int = 64) -> AxiomReport:
    """Exhaustive checks of the calculus axioms on basis classes.

    Cup associativity and graded commutativity, bracket antisymmetry
    and Jacobi, the biderivation rule, the contraction composition rule
    (recorded as ι_f ι_g = (-1)^{|f||g|} ι_{g∪f}), the Lie-derivative
    compatibilities [L_f, L_g] = L_{{f,g}} and the mixed rule relating
    ι of a bracket with [L_f, ι_g].  Window-escaping instances are
    skipped, not failed.
    """
    cup_classes, bracket_classes, cap_classes = map(_fraction_view, (self.cup_classes, self.bracket_classes,
                                                                     self.cap_classes))
    rep = AxiomReport()
    coh = self.coh_classes()[:max_classes]
    hom = self.hom_classes()[:max_classes]
    deg = {k: k[0][0] for k in coh}

    # cup: graded commutativity and associativity
    for a, b in iproduct(coh, repeat=2):
        ab = cup_classes(a, b)
        ba = cup_classes(b, a)
        if ab is None or ba is None:
            continue
        rep.checked += 1
        s = -1 if (deg[a] % 2) and (deg[b] % 2) else 1
        if _accumulate(dict(ab), ba, -s):
            rep.failures.append(f"cup not graded-commutative on {a}, {b}")
    for a, b, c in iproduct(coh[: max(8, len(coh) // 2)], repeat=3):
        ab = cup_classes(a, b)
        bc = cup_classes(b, c)
        if ab is None or bc is None:
            continue
        left = _expand(ab, lambda k: cup_classes(k, c))
        right = _expand(bc, lambda k: cup_classes(a, k))
        if left is None or right is None:
            continue
        rep.checked += 1
        if _accumulate(left, right, -1):
            rep.failures.append(f"cup not associative on {a}, {b}, {c}")
    # bracket: antisymmetry and Jacobi
    for a, b in iproduct(coh, repeat=2):
        ab = bracket_classes(a, b)
        ba = bracket_classes(b, a)
        if ab is None or ba is None:
            continue
        rep.checked += 1
        s = -1 if ((deg[a] + 1) % 2) and ((deg[b] + 1) % 2) else 1
        if _accumulate(dict(ab), ba, s):
            rep.failures.append(f"bracket not antisymmetric on {a}, {b}")
    for a, b, c in iproduct(coh[: max(6, len(coh) // 3)], repeat=3):
        ab_c = _expand(bracket_classes(a, b), lambda k: bracket_classes(k, c))
        a_bc = _expand(bracket_classes(b, c), lambda k: bracket_classes(a, k))
        b_ac = _expand(bracket_classes(a, c), lambda k: bracket_classes(b, k))
        if ab_c is None or a_bc is None or b_ac is None:
            continue
        rep.checked += 1
        s = -1 if ((deg[a] + 1) % 2) and ((deg[b] + 1) % 2) else 1
        if _accumulate(_accumulate(a_bc, ab_c, -1), b_ac, -s):
            rep.failures.append(f"bracket Jacobi fails on {a}, {b}, {c}")
    # biderivation: {a, b∪c} = {a,b}∪c + (-1)^{(|a|+1)|b|} b∪{a,c}
    for a, b, c in iproduct(coh[: max(6, len(coh) // 3)], repeat=3):
        lhs = _expand(cup_classes(b, c), lambda k: bracket_classes(a, k))
        t1 = _expand(bracket_classes(a, b), lambda k: cup_classes(k, c))
        t2 = _expand(bracket_classes(a, c), lambda k: cup_classes(b, k))
        if lhs is None or t1 is None or t2 is None:
            continue
        rep.checked += 1
        s = -1 if ((deg[a] + 1) % 2) and (deg[b] % 2) else 1
        if _accumulate(_accumulate(lhs, t1, -1), t2, -s):
            rep.failures.append(f"biderivation fails on {a}, {b}, {c}")
    # contraction composition on homology
    for a, b in iproduct(coh, repeat=2):
        ba = cup_classes(b, a)
        if ba is None:
            continue
        for z in hom:
            inner = cap_classes(b, z)
            if inner is None:
                continue
            lhs = _expand(inner, lambda k: cap_classes(a, k))
            rhs = _expand(ba, lambda k: cap_classes(k, z))
            if lhs is None or rhs is None:
                continue
            rep.checked += 1
            s = -1 if (deg[a] % 2) and (deg[b] % 2) else 1
            if _accumulate(lhs, rhs, -s):
                rep.failures.append(f"ι_f ι_g ≠ ±ι_(g∪f) on {a}, {b}, {z}")
    # unit acts as identity
    try:
        u = self.unit_class()
        for z in hom:
            got = cap_classes(u, z)
            rep.checked += 1
            if got != {z: Q(1)}:
                rep.failures.append(f"unit does not act as identity on {z}")
    except WindowError:
        rep.failures.append("unit class not identifiable")
    # Lie derivative rules on homology
    _verify_lie_rules_oracle(self, rep, coh, hom)
    return rep

def _verify_lie_rules_oracle(self, rep: AxiomReport, coh, hom):
    bracket_classes, cap_classes, B_classes = map(_fraction_view, (self.bracket_classes, self.cap_classes,
                                                                   self.slice.B_class))

    def L(f: ClassKey, z: ClassKey):
        first_in = _expand(cap_classes(f, z), B_classes)
        if first_in is None:
            return None
        second = _expand(B_classes(z), lambda k: cap_classes(f, k))
        if second is None:
            return None
        return _accumulate(first_in, second, -1 if f[0][0] % 2 else 1)

    for a, b in iproduct(coh[: max(6, len(coh) // 3)], repeat=2):
        br = bracket_classes(a, b)
        if br is None:
            continue
        for z in hom[: max(8, len(hom) // 2)]:
            lba = _expand(L(b, z), lambda k: L(a, k))
            lab2 = _expand(L(a, z), lambda k: L(b, k))
            lbr = _expand(br, lambda k: L(k, z))
            if lba is None or lab2 is None or lbr is None:
                continue
            rep.checked += 1
            s = -1 if ((a[0][0] + 1) % 2) and ((b[0][0] + 1) % 2) else 1
            if _accumulate(_accumulate(lba, lab2, -s), lbr, -1):
                rep.failures.append(f"[L_f, L_g] ≠ L_(f,g) on {a}, {b}, {z}")


def generated_bracket(self, a: ClassKey, b: ClassKey) -> Row | None:
    """[a,b] = (-1)^{|a|+1} (Δ(a∪b) - Δa∪b - (-1)^{|a|} a∪Δb); None where a product escapes."""
    cup, lead = self.bundle.cup_classes, koszul_sign(a[0][0] + 1, 1)

    def terms():
        yield _iexpand(cup(a, b), self.delta_classes), lead
        yield _iexpand(self.delta_classes(a), lambda k: cup(k, b)), -lead
        yield _iexpand(self.delta_classes(b), lambda k: cup(a, k)), -lead * koszul_sign(a[0][0], 1)

    return _signed_sum(terms())


def verify_bv_axioms_oracle(data: DualityData, max_classes: int = 48, quartic_limit: int = 2000) -> BVReport:
    """BV diagnostics: Δ² = 0, the seven-term second-order identity on all
    basis triples in window, the quartic expansion of Δ on 4-fold products,
    and agreement of the generated bracket with the native bracket table.
    An instance where a product, PD or PD⁻¹ leaves the window is skipped.
    """
    bundle = data.bundle
    coh = [k for k in bundle.coh_classes() if k[0] in data.pd][:max_classes]
    deg = {k: k[0][0] for k in coh}

    def available(fn, *args):
        """fn(*args), or None where PD or PD⁻¹ leaves the window on the way."""
        try:
            return fn(*args)
        except (WindowError, DualityError):
            return None

    delta = partial(available, _fraction_view(data.delta_classes))
    d2_ok = not any(_expand(delta(a), delta) for a in coh)

    cup2 = _fraction_view(bundle.cup_classes)

    def cup_table(table, b, left=False):
        return _expand(table, (lambda k: cup2(b, k)) if left else (lambda k: cup2(k, b)))

    def delta_table(table):
        return _expand(table, delta)

    seven_checked = 0
    seven_failures: list[str] = []
    for a, b, c in iproduct(coh, repeat=3):
        ab = cup2(a, b)
        bc = cup2(b, c)
        ac = cup2(a, c)
        if ab is None or bc is None or ac is None:
            continue
        abc = cup_table(ab, c)
        if abc is None:
            continue
        lhs = delta_table(abc)
        dc = delta(c)
        # the seven displayed terms
        t_ab_c = cup_table(delta_table(ab), c)
        t_a_bc = cup_table(delta_table(bc), a, left=True)
        t_b_ac = cup_table(delta_table(ac), b, left=True)
        t_da_bc = cup_table(cup_table(delta(a), b), c)
        t_a_db_c = cup_table(cup_table(delta(b), c), a, left=True)
        abdc = _expand(ab, lambda k: _expand(dc, lambda kc: cup2(k, kc)))
        if any(t is None for t in (lhs, t_ab_c, t_a_bc, t_b_ac, t_da_bc, t_a_db_c, abdc)):
            continue
        seven_checked += 1
        sa = -1 if deg[a] % 2 else 1
        sb = -1 if ((deg[a] + 1) * deg[b]) % 2 else 1
        sab = -1 if (deg[a] + deg[b]) % 2 else 1
        total = dict(lhs)
        for term, s in ((t_ab_c, -1), (t_a_bc, -sa), (t_b_ac, -sb), (t_da_bc, 1), (t_a_db_c, sa), (abdc, sab)):
            _accumulate(total, term, s)
        if total:
            seven_failures.append(f"second-order identity fails on {a}, {b}, {c}")
            if len(seven_failures) > 5:
                break
    # quartic expansion of Δ
    quartic_checked = 0
    quartic_failures: list[str] = []
    quartet_pool = sorted(coh, key=lambda k: (abs(k[0][0]) + abs(k[0][1]), k))[: min(len(coh), 10)]
    for quad in iproduct(quartet_pool, repeat=4):
        if quartic_checked >= quartic_limit:
            break
        x = list(quad)
        prods = cup2(x[0], x[1])
        prods = cup_table(prods, x[2])
        prods = cup_table(prods, x[3])
        if prods is None:
            continue
        lhs = delta_table(prods)
        if lhs is None:
            continue
        degs = [deg[k] for k in x]
        total: dict[ClassKey, Fraction] = dict(lhs)
        ok = True
        for i in range(4):
            for j in range(i + 1, 4):
                eps = (
                    sum(degs[:i]) * degs[i]
                    + sum(degs[:j]) * degs[j]
                    - degs[i] * degs[j]
                )
                dij = delta_table(cup2(x[i], x[j]))
                rest = [x[t] for t in range(4) if t not in (i, j)]
                term = dij
                for r in rest:
                    term = cup_table(term, r)
                if term is None:
                    ok = False
                    break
                _accumulate(total, term, -((-1) ** (eps % 2)))
            if not ok:
                break
        if not ok:
            continue
        # the single-Δ terms enter with multiplicity n - 2 (= 2 here); the
        # unit quartet (1,1,1,a) pins the coefficient
        for i in range(4):
            pref = sum(degs[:i])
            term: dict[ClassKey, Fraction] | None = delta(x[i])
            for t in range(i - 1, -1, -1):
                term = cup_table(term, x[t], left=True)
                if term is None:
                    break
            if term is not None:
                for t in range(i + 1, 4):
                    term = cup_table(term, x[t])
                    if term is None:
                        break
            if term is None:
                ok = False
                break
            _accumulate(total, term, 2 * (-1) ** (pref % 2))
        if not ok:
            continue
        quartic_checked += 1
        if total:
            quartic_failures.append(f"quartic expansion fails on {x}")
            if len(quartic_failures) > 5:
                break
    # generated bracket vs native bracket
    br_ok = True
    br_failures: list[str] = []
    for a, b in iproduct(coh, repeat=2):
        native = fractions_of(bundle.bracket_classes(a, b))
        gen = available(_fraction_view(partial(generated_bracket, data)), a, b)
        if native is None or gen is None:
            continue
        if _accumulate(dict(gen), native, -1):
            br_ok = False
            br_failures.append(f"generated ≠ native bracket on {a}, {b}")
            if len(br_failures) > 5:
                break
    return BVReport(d2_ok, seven_checked, seven_failures, quartic_checked, quartic_failures, br_ok, br_failures)


def _negated(method, key):
    """``method`` with its class row negated at ``key`` alone."""
    def negated(*args):
        got = method(*args)
        return ({k: -v for k, v in got[0].items()}, got[1]) if args == key else got

    return negated


def assert_calculus_matches(bundle, max_classes, checked, failures):
    """The calculus report equals the oracle's; ``checked`` and ``failures`` are its counts."""
    rep = bundle.verify_calculus_axioms(max_classes)
    assert asdict(rep) == asdict(verify_calculus_axioms_oracle(bundle, max_classes))
    assert (rep.checked, len(rep.failures)) == (checked, failures)


def assert_bv_matches(duality, max_classes, quartic_limit, counts):
    """The BV report equals the oracle's; ``counts`` are its checked counts and failure-list lengths."""
    rep = verify_bv_axioms(duality, max_classes, quartic_limit)
    assert asdict(rep) == asdict(verify_bv_axioms_oracle(duality, max_classes, quartic_limit))
    assert (rep.seven_term_checked, rep.quartic_checked, len(rep.seven_term_failures), len(rep.quartic_failures),
            len(rep.bracket_failures)) == counts


@pytest.mark.parametrize("which, max_classes, checked, failures", [
    ("frobenius", 18, 7855, 0), ("frobenius", 41, 74950, 149), ("poisson", 14, 4382, 0), ("poisson", 39, 76864, 12)])
def test_calculus_reports_match_the_oracle(request, which, max_classes, checked, failures):
    # 41 and 39 are all the classes: the contraction rule fails there
    bundle, _ = request.getfixturevalue(f"{which}_duality")
    assert_calculus_matches(bundle, max_classes, checked, failures)


@pytest.mark.parametrize("which, seven_term", [("frobenius", 4993), ("poisson", 8000)])
def test_bv_reports_match_the_oracle(request, which, seven_term):
    _, duality = request.getfixturevalue(f"{which}_duality")
    assert_bv_matches(duality, 20, 80, (seven_term, 80, 0, 0, 0))


def test_reports_match_the_oracle_where_delta_leaves_the_window():
    duality = _escaping_delta_duality()
    assert_bv_matches(duality, 8, 60, (7, 9, 0, 0, 0))
    assert_calculus_matches(duality.bundle, 8, 1093, 4)


def test_reports_match_the_oracle_with_one_bracket_negated(monkeypatch):
    bundle, duality = _frobenius_duality()
    first = next(p for p in iproduct(bundle.coh_classes()[:18], repeat=2) if fractions_of(bundle.bracket_classes(*p)))
    monkeypatch.setattr(bundle, "bracket_classes", _negated(bundle.bracket_classes, first))
    assert_calculus_matches(bundle, 18, 7855, 2)
    assert_bv_matches(duality, 20, 80, (4993, 80, 0, 0, 1))


@pytest.mark.parametrize("which, method, flip, quartic_limit, counts", [
    ("poisson", "delta_classes", None, 60, (13843, 60, 6, 0, 6)),
    # the one control that reaches the quartic failure path
    ("frobenius", "delta_classes", ((-1, -1), 0), 10000, (7324, 133, 6, 6, 6)),
    # the cup table, which the seven-term join reads most
    ("frobenius", "cup_classes", None, 60, (12518, 60, 6, 0, 3))], ids=["poisson", "frobenius", "frobenius-cup"])
def test_bv_reports_match_the_oracle_with_delta_negated(monkeypatch, which, method, flip, quartic_limit, counts):
    duality = _nonzero_product_duality(which)
    coh = [k for k in duality.bundle.coh_classes() if k[0] in duality.pd]
    if method == "delta_classes":
        owner, flip = duality, (flip or next(k for k in coh if fractions_of(duality.delta_classes(k))),)
    else:
        # one nonzero product of two classes other than the unit
        unit = duality.bundle.unit_class()
        owner, flip = duality.bundle, next(p for p in iproduct(coh, repeat=2)
                                           if unit not in p and fractions_of(duality.bundle.cup_classes(*p)))
    monkeypatch.setattr(owner, method, _negated(getattr(owner, method), flip))
    assert_bv_matches(duality, len(coh), quartic_limit, counts)
