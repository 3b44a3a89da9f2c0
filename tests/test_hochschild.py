from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from mixhom.algebra import (
    WindowOverflowError,
    exterior_pairing,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
)
from mixhom.hochschild import (
    ChainKey,
    Cochain,
    _bar_tuples,
    boundary_b,
    cap,
    chain_basis,
    circle,
    coboundary,
    connes_B,
    cup,
    gerstenhaber_bracket,
    lie_derivative,
    shifted_degree,
    unit_cochain,
)
from mixhom.linalg import ExactMatrix
from test_linalg import from_columns, kernel_basis, solve_in_span

Q = Fraction


def _tuples_of_weight(A, q, w):
    out = []
    if w >= q:
        _bar_tuples(A, A.augmentation_indices(), (), w, q, out)
    return sorted(out)


def all_tuples_up_to_weight(A, q, w_max):
    """Every bar tuple of arity q and chain weight <= w_max, in (chain weight, tuple) order."""
    out = []
    for w in range(q, w_max + 1):
        out.extend(_tuples_of_weight(A, q, w))
    if q == 0:
        out = [()]
    return out


def chains_in_window(A, p_max, w_max):
    return [t for p in range(p_max + 1) for w in range(w_max + 1) for t in chain_basis(A, p, w)]


def chain_eq(a, b):
    d = dict(a)
    for k, v in b.items():
        d[k] = d.get(k, Q(0)) - v
    return all(v == 0 for v in d.values())


def multiplication_cochain(A) -> Cochain:
    """The product as a 2-cochain (degree -2).

    Out-of-window pairs are omitted: a chain of in-window weight never
    probes them, since adjacent entries of a weight-w chain multiply to
    weight at most w.
    """
    table = {}
    aug = A.augmentation_indices()
    for i in aug:
        for j in aug:
            prod = A.mult_basis(i, j)
            if isinstance(prod, dict) and prod:
                table[(i, j)] = dict(prod)
    return Cochain(A, 2, -2, table)


def elementary(A, q, t, k):
    deg = A.degrees[k] - sum(A.degrees[i] + 1 for i in t)
    return Cochain(A, q, deg, {t: {k: Q(1)}})


@pytest.fixture(scope="module")
def lam2():
    # bar entries have weight <= 2, so a weight bound 2a keeps every tuple of arity <= a
    return make_exterior_algebra(2)


@pytest.fixture(scope="module")
def poly1():
    return make_truncated_polynomial_algebra(1, 6)


class TestMixedComplexAxioms:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: make_exterior_algebra(1),
            lambda: make_exterior_algebra(2),
            lambda: make_truncated_polynomial_algebra(2, 4),
        ],
    )
    def test_b2_B2_anticommute(self, maker):
        A = maker()
        for t in chains_in_window(A, 4, 4):
            c = {t: Q(1)}
            assert not boundary_b(A, boundary_b(A, c))
            assert not connes_B(A, connes_B(A, c))
            anti = boundary_b(A, connes_B(A, c))
            for k, v in connes_B(A, boundary_b(A, c)).items():
                anti[k] = anti.get(k, Q(0)) + v
            assert all(v == 0 for v in anti.values())


class TestBoundaryAndB:
    def test_b_kills_zero_chains(self, poly1):
        x = poly1.index["x1"]
        assert boundary_b(poly1, {(x,): Q(1)}) == {}

    def test_b_three_term_expansion(self, poly1):
        # b(1, x̄, x̄) = (x, x̄) - (1, x̄²) + (x, x̄), expanded by hand
        A = poly1
        one, x, x2 = A.unit, A.index["x1"], A.index["x1^2"]
        out = boundary_b(A, {(one, x, x): Q(1)})
        assert out == {(x, x): Q(2), (one, x2): Q(-1)}

    def test_B_on_zero_chain(self, poly1):
        A = poly1
        x = A.index["x1"]
        assert connes_B(A, {(x,): Q(1)}) == {(A.unit, x): Q(1)}

    def test_B_of_unit_is_zero(self, poly1):
        assert connes_B(poly1, {(poly1.unit,): Q(1)}) == {}

    def test_B_two_cyclic_terms_cancel(self, poly1):
        # B((x, x̄)) = (1, x̄, x̄) - (1, x̄, x̄) = 0
        A = poly1
        x = A.index["x1"]
        assert connes_B(A, {(x, x): Q(1)}) == {}

    def test_an_out_of_window_rotation_face_raises_the_needed_weight(self):
        # on k[x1, x2]/(weight > 3) both merging faces of (x1², x̄1, x̄2²) stay in window, x1³ and x1x2²,
        # but the rotation face x2²·x1² needs weight 4: it raises as a merging face does
        A = make_truncated_polynomial_algebra(2, 3)
        x1, x1sq, x2sq = A.index["x1"], A.index["x1^2"], A.index["x2^2"]
        with pytest.raises(WindowOverflowError) as exc:
            boundary_b(A, {(x1sq, x1, x2sq): 1})
        assert exc.value.needed_weight == 4
        # in window the same three faces: (x1², x̄2²) - (x1, x̄1x̄2²) + (x2²x1, x̄1)
        x1x2sq = A.index["x1x2^2"]
        assert boundary_b(A, {(x1, x1, x2sq): 1}) == {(x1sq, x2sq): 1, (x1, x1x2sq): -1, (x1x2sq, x1): 1}

    def test_b_preserves_weight_and_drops_degree(self, lam2):
        A = lam2
        for t in chains_in_window(A, 3, 4):
            for k in boundary_b(A, {t: Q(1)}):
                assert sum(A.weights[i] for i in k) == sum(A.weights[i] for i in t)
                assert shifted_degree(A, k) == shifted_degree(A, t) - 1


class TestCupAndBracket:
    def test_cup_with_unit(self, poly1):
        A = poly1
        x = A.index["x1"]
        f = elementary(A, 1, (x,), x)
        left = cup(unit_cochain(A), f)
        right = cup(f, unit_cochain(A))
        assert left.table == f.table
        assert right.table == f.table

    def test_cup_sign_on_arity_one(self, poly1):
        # f = g = (x̄ ↦ x): (f∪g)(x̄, x̄) = (-1)^{1·1} x·x = -x²
        A = poly1
        x, x2 = A.index["x1"], A.index["x1^2"]
        f = elementary(A, 1, (x,), x)
        fg = cup(f, f)
        assert fg.table[(x, x)] == {x2: Q(-1)}

    def test_bracket_mu_mu_zero(self, lam2):
        A = lam2
        mu = multiplication_cochain(A)
        assert not gerstenhaber_bracket(mu, mu, 10).table

    def test_bracket_antisymmetry_exhaustive(self, lam2):
        A = lam2
        cochains = [elementary(A, 1, t, k) for t in all_tuples_up_to_weight(A, 1, 2) for k in range(A.dim)]
        cochains += [elementary(A, 0, (), k) for k in range(A.dim)]
        for f, g in iproduct(cochains, repeat=2):
            fg = gerstenhaber_bracket(f, g, 10)
            gf = gerstenhaber_bracket(g, f, 10)
            sign = -1 if ((f.degree + 1) % 2) and ((g.degree + 1) % 2) else 1
            merged = {k: dict(v) for k, v in fg.table.items()}
            for key, val in gf.table.items():
                acc = merged.setdefault(key, {})
                for k, c in val.items():
                    acc[k] = acc.get(k, Q(0)) + sign * c
            assert all(c == 0 for v in merged.values() for c in v.values())

    def test_self_bracket_odd_shifted_is_double_circle(self, poly1):
        # for ‖f‖ odd, {f, f} = 2 f∘f
        from mixhom.hochschild import circle

        A = poly1
        x = A.index["x1"]
        f = elementary(A, 1, (x,), x)  # degree -1, shifted degree 0... use arity-2
        g = Cochain(A, 2, -2, {(x, x): {A.index["x1^2"]: Q(1)}})
        assert (g.degree + 1) % 2 == 1
        br = gerstenhaber_bracket(g, g, 5)
        cc = circle(g, g, 5)
        doubled = {k: {a: 2 * b for a, b in v.items()} for k, v in cc.table.items()}
        assert br.table == doubled

    def test_coboundary_squares_to_zero(self, lam2):
        A = lam2
        for q in (0, 1, 2):
            for t in all_tuples_up_to_weight(A, q, 2 * q):
                for k in range(A.dim):
                    f = elementary(A, q, t, k)
                    assert not coboundary(coboundary(f, 10), 10).table

    def test_cup_leibniz_right_convention(self, lam2):
        # δ(f∪g) = (-1)^{|g|} δf∪g + f∪δg, exhaustively on arity-1 pairs
        A = lam2
        cochains = [elementary(A, 1, t, k) for t in all_tuples_up_to_weight(A, 1, 2) for k in range(A.dim)]
        for f, g in iproduct(cochains, repeat=2):
            lhs = coboundary(cup(f, g), 12)
            s = -1 if g.degree % 2 else 1
            acc = {k: dict(v) for k, v in lhs.table.items()}
            for key, val in cup(coboundary(f, 12), g).table.items():
                a = acc.setdefault(key, {})
                for k, c in val.items():
                    a[k] = a.get(k, Q(0)) - s * c
            for key, val in cup(f, coboundary(g, 12)).table.items():
                a = acc.setdefault(key, {})
                for k, c in val.items():
                    a[k] = a.get(k, Q(0)) - c
            assert all(c == 0 for v in acc.values() for c in v.values())


class TestCap:
    def test_unit_cap_is_identity(self, lam2):
        A = lam2
        for t in chains_in_window(A, 3, 4):
            assert cap(unit_cochain(A), {t: Q(1)}) == {t: Q(1)}

    def test_cap_formula_example(self, poly1):
        A = poly1
        x = A.index["x1"]
        f = elementary(A, 1, (x,), x)
        assert cap(f, {(A.unit, x): Q(1)}) == {(x,): Q(1)}

    def test_cap_zero_when_arity_exceeds_length(self, poly1):
        A = poly1
        x = A.index["x1"]
        f = Cochain(A, 3, -3, {(x, x, x): {A.index["x1^3"]: Q(1)}})
        assert cap(f, {(A.unit, x): Q(1)}) == {}

    def test_contraction_composition_rule(self, lam2):
        # ι_f ι_g = (-1)^{|f||g|} ι_{g∪f} exhaustively in window
        A = lam2
        tba = {q: all_tuples_up_to_weight(A, q, 2 * q if q else 0) for q in range(6)}
        cochains = [elementary(A, 1, t, k) for t in tba[1] for k in range(A.dim)]
        cochains += [elementary(A, 2, t, k) for t in tba[2] for k in range(A.dim)]
        chains = chains_in_window(A, 4, 6)
        for f, g in iproduct(cochains[:24], cochains[:24]):
            gf = cup(g, f)
            sign = -1 if (f.degree % 2) and (g.degree % 2) else 1
            for t in chains:
                lhs = cap(f, cap(g, {t: Q(1)}))
                rhs = {k: sign * v for k, v in cap(gf, {t: Q(1)}).items()}
                assert chain_eq(lhs, rhs)

    def test_cap_descends_to_homology(self, lam2):
        # b(ι_f α) - (-1)^{|f|} ι_f(b α) = -(-1)^{|f|} ι_{δf} α
        A = lam2
        chains = chains_in_window(A, 3, 6)
        for q in (1, 2):
            for t in all_tuples_up_to_weight(A, q, 2 * q):
                for k in range(A.dim):
                    f = elementary(A, q, t, k)
                    df = coboundary(f, 10)
                    s = -1 if f.degree % 2 else 1
                    for c in chains:
                        av = {c: Q(1)}
                        lhs = boundary_b(A, cap(f, av))
                        for kk, v in cap(f, boundary_b(A, av)).items():
                            lhs[kk] = lhs.get(kk, Q(0)) - s * v
                        rhs = {kk: -s * v for kk, v in cap(df, av).items()}
                        assert chain_eq(lhs, rhs)


class TestLieDerivative:
    def test_L_unit_vanishes(self, lam2):
        A = lam2
        for t in chains_in_window(A, 3, 4):
            assert lie_derivative(unit_cochain(A), {t: Q(1)}) == {}

    def test_L_f_on_zero_chain_is_B_then_contract(self, poly1):
        A = poly1
        x = A.index["x1"]
        f = elementary(A, 1, (x,), x)
        z = {(x,): Q(1)}
        expect = cap(f, connes_B(A, z))
        sign = -1 if f.degree % 2 else 1
        got = lie_derivative(f, z)
        # ι_f kills 0-chains, so L_f = B ι_f - (-1)^{|f|} ι_f B = -(-1)^{|f|} ι_f B
        assert got == {k: -sign * v for k, v in expect.items()}

    def test_L_mu_is_boundary_on_cycles(self, lam2):
        # the product cochain's Lie derivative agrees with b on homology:
        # on every b-cycle it lands in the image of b
        A = lam2
        mu = multiplication_cochain(A)
        for p in range(4):
            for w in range(5):
                basis = chain_basis(A, p, w)
                if not basis:
                    continue
                below = chain_basis(A, p - 1, w) if p else []
                above = chain_basis(A, p + 1, w)
                idx = {t: i for i, t in enumerate(basis)}
                bidx = {t: i for i, t in enumerate(below)}
                cols = []
                for t in basis:
                    col = [Q(0)] * len(below)
                    for k, v in boundary_b(A, {t: Q(1)}).items():
                        col[bidx[k]] = v
                    cols.append(col)
                # kernel of b on this piece
                M = from_columns(cols) if below else ExactMatrix.zero(0, len(basis))

                # L_mu has degree -1: on a cycle z in (p, w), L_mu(z) lives in
                # (p-1, w) and must be a boundary of this piece
                img_cols = [tuple(col) for col in cols]
                for kv in kernel_basis(M):
                    z = {t: c for t, c in zip(basis, kv) if c}
                    lz = lie_derivative(mu, z)
                    vec = [Q(0)] * len(below)
                    for k, v in lz.items():
                        vec[bidx[k]] = v
                    if img_cols:
                        assert solve_in_span(img_cols, vec) is not None
                    else:
                        assert all(v == 0 for v in vec)


# -- dual cochains by evaluation ----------------------------------------------------
#
# The dual Hochschild slice is the signed transpose of the primal matrices
# (mixed._transpose), and the dual cap action is the pullback of the primal
# one (calculus.CalculusBundle.cap_classes).  The functional-by-functional
# duals they replaced are kept here as references, for these tests, for the
# slice oracle in test_mixed.py and for the dual-action oracle in
# test_calculus.py.


@dataclass
class DualCochain:
    """Mode A-dual cochain: a linear functional on chains.

    ``table`` maps chain basis tuples to rationals; ``degree`` is the
    functional degree (minus the shifted degree of the chains it pairs
    with).  Under the identification Hom(Ā^q, A*) = Hom(A ⊗ Ā^q, k) this is
    exactly a reduced cochain with values in the dual bimodule.
    """

    algebra: object
    degree: int
    table: dict[ChainKey, Fraction]

    def evaluate(self, chain) -> Fraction:
        total = Q(0)
        for t, c in chain.items():
            v = self.table.get(t)
            if v:
                total += c * v
        return total


def cap_star(f: Cochain, g: DualCochain, chains: list[ChainKey]) -> DualCochain:
    """(f, g) ↦ (-1)^{|f||g|} g∘ι_f, tabulated on the given chains."""
    A = g.algebra
    sign = -1 if (f.degree % 2) and (g.degree % 2) else 1
    table: dict[ChainKey, Fraction] = {}
    for t in chains:
        val = g.evaluate(cap(f, {t: Q(1)}))
        if val:
            table[t] = sign * val
    return DualCochain(A, g.degree - f.degree, table)


def frobenius_pd(f: Cochain, pairing, chains: list[ChainKey]) -> DualCochain:
    """Composition with the Frobenius pairing: mode A -> mode A-dual.

    (PD f)(a_0, ā_1, .., ā_q) = (-1)^{|f||a_0|} <a_0, f(ā_1..ā_q)>.

    Satisfies δ(PD f) = (-1)^{|f|} PD(δf), so cocycles map to cocycles and
    the map descends to cohomology.  PD of the unit cochain is the pairing
    itself, viewed as a functional on 0-chains.
    """
    A = f.algebra
    q = f.arity
    table: dict[ChainKey, Fraction] = {}
    for t in chains:
        if len(t) - 1 != q:
            continue
        val = f.value(t[1:])
        if not val:
            continue
        a0 = t[0]
        tot = Q(0)
        for k, c in val.items():
            tot += c * pairing.value(a0, k)
        if tot:
            sign = -1 if (f.degree % 2) and (A.degrees[a0] % 2) else 1
            table[t] = sign * tot
    # a chain it pairs with has degree -(|f| + n), so the functional degree
    # is |f| + n regardless of the table being empty
    return DualCochain(A, f.degree + pairing.degree, table)


def dual_of_operator(g: DualCochain, op, chains: list[ChainKey], op_degree: int) -> DualCochain:
    """Twisted dual T*(g) = (-1)^{|g|} g∘T, tabulated on the given chains."""
    A = g.algebra
    sign = -1 if g.degree % 2 else 1
    table: dict[ChainKey, Fraction] = {}
    for t in chains:
        img = op(A, {t: Q(1)})
        val = g.evaluate(img)
        if val:
            table[t] = sign * val
    return DualCochain(A, g.degree - op_degree, table)


def dual_coboundary(g: DualCochain, chains: list[ChainKey]) -> DualCochain:
    """δ on mode A-dual cochains: the twisted dual of the boundary b."""
    return dual_of_operator(g, boundary_b, chains, op_degree=-1)


def B_star(g: DualCochain, chains: list[ChainKey]) -> DualCochain:
    """B*(g) = (-1)^{|g|} g∘B."""
    return dual_of_operator(g, connes_B, chains, op_degree=+1)


class TestDualCochains:
    def test_B_star_definition_unfolds(self, lam2):
        A = lam2
        chains = chains_in_window(A, 4, 6)
        g = DualCochain(A, 1, {(A.index["ξ1"],): Q(1)})
        bs = B_star(g, chains)
        sign = -1 if g.degree % 2 else 1
        for t in chains:
            assert bs.table.get(t, Q(0)) == sign * g.evaluate(connes_B(A, {t: Q(1)}))

    def test_dual_mixed_axioms(self, lam2):
        # δ² = 0, B*² = 0, δB* + B*δ = 0 on elementary functionals
        A = lam2
        chains = chains_in_window(A, 4, 6)
        for t in chains_in_window(A, 3, 4):
            g = DualCochain(A, -shifted_degree(A, t), {t: Q(1)})
            assert not dual_coboundary(dual_coboundary(g, chains), chains).table
            assert not B_star(B_star(g, chains), chains).table
            anti = dual_coboundary(B_star(g, chains), chains).table
            for k, v in B_star(dual_coboundary(g, chains), chains).table.items():
                anti[k] = anti.get(k, Q(0)) + v
            assert all(v == 0 for v in anti.values())

    def test_cap_star_unit_is_identity(self, lam2):
        A = lam2
        chains = chains_in_window(A, 3, 5)
        g = DualCochain(A, 1, {(A.index["ξ1"],): Q(1), (A.index["ξ2"],): Q(2)})
        assert cap_star(unit_cochain(A), g, chains).table == g.table

    def test_cap_star_adjointness(self, lam2):
        # <cap_star(f, g), α> = (-1)^{|f||g|} <g, cap(f, α)>
        A = lam2
        chains = chains_in_window(A, 3, 5)
        x1 = A.index["ξ1"]
        f = elementary(A, 1, (x1,), A.index["ξ1ξ2"])
        g = DualCochain(A, 2, {(A.unit, x1, x1): Q(1)})
        cs = cap_star(f, g, chains)
        sign = -1 if (f.degree % 2) and (g.degree % 2) else 1
        for t in chains:
            assert cs.table.get(t, Q(0)) == sign * g.evaluate(cap(f, {t: Q(1)}))


class TestFrobeniusPD:
    def test_pd_of_unit_is_pairing_functional(self):
        A = make_exterior_algebra(2)
        pairing = exterior_pairing(A)
        chains = chains_in_window(A, 0, 2)
        eta = frobenius_pd(unit_cochain(A), pairing, chains)
        top = A.index["ξ1ξ2"]
        assert eta.table == {(top,): Q(1)}

    def test_pd_is_chain_map_and_eta_closed(self):
        A = make_exterior_algebra(2)
        pairing = exterior_pairing(A)
        chains = chains_in_window(A, 4, 8)
        for q in (0, 1, 2):
            for t in all_tuples_up_to_weight(A, q, 2 * q):
                for k in range(A.dim):
                    f = elementary(A, q, t, k)
                    lhs = dual_coboundary(frobenius_pd(f, pairing, chains), chains).table
                    s = -1 if f.degree % 2 else 1
                    rhs = {
                        kk: s * v
                        for kk, v in frobenius_pd(coboundary(f, 8), pairing, chains).table.items()
                    }
                    assert lhs == {kk: v for kk, v in rhs.items() if v}
        # δ(η) = 0 for the exterior pairing
        eta = frobenius_pd(unit_cochain(A), pairing, chains)
        assert not dual_coboundary(eta, chains).table


def _circle_dense(f, g, tuples_by_arity):
    """The insertion f∘g as it was: every tabulated tuple × every slot of f."""
    from mixhom.hochschild import _bar_project
    from mixhom.linalg import _accumulate

    A = f.algebra
    n, m = f.arity, g.arity
    if n == 0:
        return Cochain(A, 0, f.degree + g.degree + 1, {})
    arity = n + m - 1
    g_shift = (g.degree + 1) % 2
    table = {}
    for key in tuples_by_arity[arity]:
        acc = {}
        for i in range(n):
            inner = key[i : i + m]
            gval = g.value(inner)
            if not gval:
                continue
            passed = sum(A.degrees[k] + 1 for k in key[:i]) % 2
            sign = -1 if (g_shift and passed) else 1
            gbar = _bar_project(A, gval)
            for gk, gc in gbar.items():
                outer = key[:i] + (gk,) + key[i + m :]
                _accumulate(acc, f.value(outer), sign * gc)
        if acc:
            table[key] = acc
    return Cochain(A, arity, f.degree + g.degree + 1, table)


def test_sparse_circle_matches_dense_on_bv_check_brackets():
    # every bracket pair verify_bv_axioms evaluates on the bv-check
    # Frobenius bundle, in both orders; key order is compared too
    from mixhom.calculus import attach_duality, hochschild_dual_bundle, verify_bv_axioms
    from mixhom.mixed import slice_from_hochschild_dual

    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    bundle = hochschild_dual_bundle(
        A, sl, q_max=6, coh_window=lambda p: -3 <= p[1] <= 2 and -3 <= p[0] <= 0
    )
    coords = sl.hh((2, 2)).reduce(sl.element_vector((2, 2), {(A.index["ξ1ξ2"],): Q(1)}))
    eta = ((2, 2), [i for i, c in enumerate(coords) if c][0])
    pairs = []
    bracket = bundle.ops.bracket

    def recording(f, g):
        pairs.append((f, g))
        return bracket(f, g)

    bundle.ops.bracket = recording
    assert verify_bv_axioms(attach_duality(bundle, eta), max_classes=12, quartic_limit=60).passed
    assert len(pairs) > 100
    arities = {x.arity + y.arity - 1 for f, g in pairs for x, y in ((f, g), (g, f)) if x.arity}
    tuples = {q: all_tuples_up_to_weight(A, q, bundle.ops.v_max) for q in arities}
    for f, g in pairs:
        for x, y in ((f, g), (g, f)):
            got, want = circle(x, y, bundle.ops.v_max), _circle_dense(x, y, tuples)
            assert (got.arity, got.degree) == (want.arity, want.degree)
            assert list(got.table.items()) == list(want.table.items())


@pytest.mark.parametrize(
    "maker", [lambda: make_exterior_algebra(2), lambda: make_truncated_polynomial_algebra(1, 4)],
    ids=["lambda2", "k[x]"],
)
def test_sparse_circle_matches_dense_on_elementary_cochains(maker):
    # circle is bilinear, so pairs of elementary cochains cover every entry;
    # the bound of the cochains' own tuples, and a lower one that cuts some products off
    A = maker()
    cochains = [elementary(A, q, t, k) for q in range(3) for t in all_tuples_up_to_weight(A, q, 4)
                for k in range(A.dim)]
    for v_max in (4, 3):
        tuples = {q: all_tuples_up_to_weight(A, q, v_max) for q in range(4)}
        nonzero = 0
        for f, g in iproduct(cochains, repeat=2):
            got, want = circle(f, g, v_max), _circle_dense(f, g, tuples)
            assert (got.arity, got.degree) == (want.arity, want.degree)
            assert list(got.table.items()) == list(want.table.items())
            nonzero += bool(want.table)
        assert nonzero > 50


def test_sparse_circle_orders_keys_by_weight_then_tuple():
    # f∘id = 2f; its keys (x, x⁴) and (x², x) are listed the way
    # all_tuples_up_to_weight lists them, weight 3 before weight 5, which is
    # not the order of the tuples alone
    A = make_truncated_polynomial_algebra(1, 4)
    x, x2, x4 = (A.index[label] for label in ("x1", "x1^2", "x1^4"))
    f = Cochain(A, 2, -2, {(x, x4): {x: Q(1)}, (x2, x): {x: Q(1)}})
    ident = Cochain(A, 1, -1, {(i,): {i: Q(1)} for i in A.augmentation_indices()})
    got = circle(f, ident, 5)
    assert list(got.table.items()) == [((x2, x), {x: Q(2)}), ((x, x4), {x: Q(2)})]
    want = _circle_dense(f, ident, {q: all_tuples_up_to_weight(A, q, 5) for q in range(3)})
    assert list(got.table.items()) == list(want.table.items())


# -- the coboundary as a join over the cochain's support, against the scan ---------


def coboundary_scan(f, tuples_by_arity):
    """The coboundary as it was: every tabulated tuple of arity q + 1 is evaluated."""
    from mixhom.linalg import _accumulate

    A = f.algebra
    q = f.arity
    table = {}
    for key in tuples_by_arity[q + 1]:
        acc = {}
        fa = f.value(key[1:])
        if fa:
            sign = -1 if (A.degrees[key[0]] * f.degree) % 2 else 1
            _accumulate(acc, A.multiply(A.basis_element(key[0]), fa), sign)
        run = 0
        for i in range(1, q + 1):
            run += A.degrees[key[i - 1]] + 1
            prod = A.mult_basis(key[i - 1], key[i])
            if isinstance(prod, dict):
                sign = -1 if run % 2 else 1
                for m, cm in prod.items():
                    if m == A.unit:
                        continue
                    _accumulate(acc, f.value(key[: i - 1] + (m,) + key[i + 1 :]), sign * cm)
        fb = f.value(key[:q])
        if fb:
            run_all = sum(A.degrees[i] + 1 for i in key[:q])
            sign = -1 if (run_all + 1) % 2 else 1
            _accumulate(acc, A.multiply(fb, A.basis_element(key[q])), sign)
        if acc:
            table[key] = acc
    return Cochain(A, q + 1, f.degree - 1, table)


def coboundary_pull(f, v_max):
    """The coboundary in pull form, as it was: each candidate tuple of the window reads f at the tuples it reaches.

    The candidates are (a,) + t, t + (a,) and the splits of t for every input
    tuple t of f, clipped to the window and evaluated in (chain weight,
    tuple) order.
    """
    from mixhom.hochschild import chain_weight
    from mixhom.linalg import _accumulate

    A = f.algebra
    q = f.arity
    aug = A.augmentation_indices()
    factorizations = A.factorizations
    candidates = set()
    for t in f.table:
        if len(t) != q or A.unit in t:  # never read by a tuple of the window
            continue
        for a in aug:
            candidates.add((a,) + t)
            candidates.add(t + (a,))
        for j, m in enumerate(t):
            for pair in factorizations.get(m, ()):
                candidates.add(t[:j] + pair + t[j + 1 :])
    window = sorted((w, key) for key in candidates if (w := chain_weight(A, key)) <= v_max)
    table = {}
    for _, key in window:
        acc = {}
        fa = f.value(key[1:])
        if fa:
            sign = -1 if (A.degrees[key[0]] * f.degree) % 2 else 1
            _accumulate(acc, A.multiply(A.basis_element(key[0]), fa), sign)
        run = 0
        for i in range(1, q + 1):
            run += A.degrees[key[i - 1]] + 1
            prod = A.mult_basis(key[i - 1], key[i])
            if isinstance(prod, dict):
                sign = -1 if run % 2 else 1
                for m, cm in prod.items():
                    if m == A.unit:
                        continue
                    _accumulate(acc, f.value(key[: i - 1] + (m,) + key[i + 1 :]), sign * cm)
        fb = f.value(key[:q])
        if fb:
            run_all = sum(A.degrees[i] + 1 for i in key[:q])
            sign = -1 if (run_all + 1) % 2 else 1
            _accumulate(acc, A.multiply(fb, A.basis_element(key[q])), sign)
        if acc:
            table[key] = acc
    return Cochain(A, q + 1, f.degree - 1, table)


def _outcome(fn, *args):
    """``fn(*args)`` as (arity, degree, table items), or the type and message of its WindowOverflowError."""
    try:
        got = fn(*args)
    except WindowOverflowError as e:
        return type(e), str(e)
    return got.arity, got.degree, list(got.table.items())


def _scan_tuples(A, q_top, v_max):
    return {q: all_tuples_up_to_weight(A, q, v_max) for q in range(q_top + 1)}


# Λ(ξ1, ξ2) at arity <= 3, and the window of TestCalabiYauCase (truncated k[x1, x2], W = 5, v_max 3)
COBOUNDARY_CASES = {
    "lambda2": (lambda: make_exterior_algebra(2), 3, 8),
    "k[x1,x2]": (lambda: make_truncated_polynomial_algebra(2, 5), 3, 3),
}


@pytest.mark.parametrize("case", sorted(COBOUNDARY_CASES))
def test_sparse_coboundary_matches_scan_on_elementary_cochains(case):
    # δ is linear, so elementary cochains cover every entry; key order and
    # every WindowOverflowError (type and message) are compared too
    maker, q_max, v_max = COBOUNDARY_CASES[case]
    A = maker()
    cochains = [elementary(A, q, t, k) for q in range(q_max + 1) for t in all_tuples_up_to_weight(A, q, v_max)
                for k in range(A.dim)]
    tuples = _scan_tuples(A, q_max + 1, v_max)
    raised = nonzero = 0
    for f in cochains:
        want = _outcome(coboundary_scan, f, tuples)
        assert _outcome(coboundary, f, v_max) == want
        assert _outcome(coboundary_pull, f, v_max) == want
        raised += want[0] is WindowOverflowError
        nonzero += want[0] is not WindowOverflowError and bool(want[2])
    assert nonzero > 50
    assert raised > 0 if case == "k[x1,x2]" else raised == 0


def _matrix_items(m):
    return m.rows, m.cols, list(m.entries.items())


@pytest.mark.parametrize("case", ["bv-check", "calabi-yau"])
def test_sparse_coboundary_matches_scan_on_delta_pairs(case):
    # the δ matrices of the bv-check Frobenius bundle and of TestCalabiYauCase's bundle; the scan side is a
    # second ops whose δ on a label is the scan itself, whatever the package's δ calls
    from mixhom import calculus

    def ops_and_pieces():
        if case == "bv-check":
            ops = calculus.HochschildCochainOps(make_exterior_algebra(2), 6)
            return ops, {p for p in ops.pieces() if -3 <= p[1] <= 2 and -3 <= p[0] <= 0}
        ops = calculus.HochschildCochainOps(make_truncated_polynomial_algebra(2, 5), 3, 3)
        return ops, {p for p in ops.pieces() if -2 <= p[0] <= 0 and -1 <= p[1] <= 0}

    ops, pieces = ops_and_pieces()
    got = [(p, _matrix_items(d_in), _matrix_items(d_out)) for p, d_in, d_out in calculus.delta_pairs(ops, pieces)]
    scan, pieces = ops_and_pieces()
    tuples = _scan_tuples(scan.A, scan.q_max + 1, scan.v_max)
    scanned = []

    def scan_delta(label):
        scanned.append(label)
        t, k = label
        f = elementary(scan.A, len(t), t, k)
        return {(tt, kk): c for tt, val in coboundary_scan(f, tuples).table.items() for kk, c in val.items()}

    scan._delta = scan_delta
    want = [(p, _matrix_items(d_in), _matrix_items(d_out)) for p, d_in, d_out in calculus.delta_pairs(scan, pieces)]
    assert got == want
    assert sum(len(d_out[2]) for _, _, d_out in want) > 100
    assert len(scanned) == sum(map(len, scan._pieces._built.values())) > 100


@pytest.mark.parametrize(
    "maker, v_max", [(lambda: make_exterior_algebra(2), 8), (lambda: make_truncated_polynomial_algebra(2, 5), 5)],
    ids=["lambda2", "k[x1,x2]"],
)
def test_sparse_coboundary_matches_scan_on_random_cochains(maker, v_max):
    # 1-4 entries of one arity and one degree with random rational values;
    # δf and δδf agree with the scan, raises included, and δδf = 0
    A = maker()
    q_max = 3
    tuples = _scan_tuples(A, q_max + 2, v_max)
    labels = {q: [(t, k) for t in all_tuples_up_to_weight(A, q, v_max) for k in range(A.dim)]
              for q in range(q_max + 1)}
    values = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        q = data.draw(st.integers(0, q_max))
        entries = data.draw(st.lists(st.tuples(st.sampled_from(labels[q]), values), min_size=1, max_size=4,
                                     unique_by=lambda e: e[0]))
        degree = elementary(A, q, *entries[0][0]).degree
        table = {}
        for (t, k), c in entries:
            if elementary(A, q, t, k).degree == degree:
                table.setdefault(t, {})[k] = c
        f = Cochain(A, q, degree, table)
        df = _outcome(coboundary, f, v_max)
        assert df == _outcome(coboundary_scan, f, tuples) == _outcome(coboundary_pull, f, v_max)
        if df[0] is WindowOverflowError:
            return
        df = coboundary(f, v_max)
        ddf = _outcome(coboundary, df, v_max)
        assert ddf == _outcome(coboundary_scan, df, tuples) == _outcome(coboundary_pull, df, v_max)
        assert ddf[0] is WindowOverflowError or ddf[2] == []

    check()
