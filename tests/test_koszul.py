from fractions import Fraction
from math import comb

import pytest

from mixhom.algebra import (
    QuadraticPresentation,
    exterior_presentation,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
    polynomial_presentation,
)
from mixhom import koszul as ko
from mixhom.koszul import (
    NotKoszulError,
    dual_bivector_coeffs,
    is_koszul,
    koszul_complex,
    koszul_dual_algebra,
    koszul_poisson_identification,
    quadratic_algebra,
    small_hochschild_models,
)
from mixhom.linalg import solve_in_span
from mixhom.mixed import slice_from_hochschild

Q = Fraction

# a frozen non-Koszul witness found by brute-force search over binomial
# relation spaces: R = span{e1⊗e1, e1⊗e2, e1⊗e3 + e3⊗e3} fails acyclicity
# of the Koszul complex at weight 4


def _vec(n, *terms):
    v = [Q(0)] * (n * n)
    for (i, j), c in terms:
        v[i * n + j] += Q(c)
    return tuple(v)


def non_koszul_presentation() -> QuadraticPresentation:
    rels = (
        _vec(3, ((0, 0), 1)),
        _vec(3, ((0, 1), 1)),
        _vec(3, ((0, 2), 1), ((2, 2), 1)),
    )
    return QuadraticPresentation(3, (0, 0, 0), rels, name="nonkoszul3")


class TestDualAlgebra:
    def test_polynomial_dual_is_exterior(self):
        data = koszul_dual_algebra(polynomial_presentation(2), 4)
        D = data.dual_algebra
        dims = {w: sum(1 for i in range(D.dim) if D.weights[i] == w) for w in range(5)}
        assert dims == {0: 1, 1: 2, 2: 1, 3: 0, 4: 0}
        gens = [i for i in range(D.dim) if D.weights[i] == 1]
        assert all(D.degrees[i] == -1 for i in gens)
        a, b = gens
        assert D.mult_basis(a, a) == {}
        ab = D.mult_basis(a, b)
        ba = D.mult_basis(b, a)
        assert ab == {k: -c for k, c in ba.items()} and ab

    def test_one_variable_dual_is_dual_numbers(self):
        # R = 0 for k[x] on one generator: R^perp = everything, dual = k[ξ]/ξ²
        pres = QuadraticPresentation(1, (0,), (), name="kx")
        data = koszul_dual_algebra(pres, 3)
        assert {w: data.piece_dim(w) for w in range(4)} == {0: 1, 1: 1, 2: 0, 3: 0}

    def test_full_relation_space_truncates(self):
        # R = V⊗V: A = k ⊕ V, dual pieces grow like the full tensor algebra
        n = 2
        rels = tuple(_vec(n, ((i, j), 1)) for i in range(n) for j in range(n))
        pres = QuadraticPresentation(n, (0, 0), rels, name="full")
        data = koszul_dual_algebra(pres, 3)
        assert [data.piece_dim(w) for w in range(4)] == [1, 2, 4, 8]
        A, _ = quadratic_algebra(pres, 3)
        assert sorted(A.weights) == [0, 1, 1]

    def test_exterior_dual_weight_growth(self):
        data = koszul_dual_algebra(exterior_presentation(2), 3)
        # dual of the exterior algebra is polynomial: dims 1, 2, 3, 4
        assert [data.piece_dim(w) for w in range(4)] == [1, 2, 3, 4]
        # and its generators have degree 0
        D = data.dual_algebra
        gens = [i for i in range(D.dim) if D.weights[i] == 1]
        assert all(D.degrees[i] == 0 for i in gens)


class TestKoszulness:
    def test_polynomials_are_koszul(self):
        assert is_koszul(polynomial_presentation(2), 4).koszul_up_to_cutoff

    def test_exterior_is_koszul(self):
        assert is_koszul(exterior_presentation(2), 4).koszul_up_to_cutoff

    def test_weight_one_piece_always_exact(self):
        v = is_koszul(non_koszul_presentation(), 2)
        assert v.per_weight[1]

    def test_non_koszul_witness_fails_at_weight_four(self):
        v = is_koszul(non_koszul_presentation(), 4)
        assert v.per_weight[1] and v.per_weight[2] and v.per_weight[3]
        assert not v.per_weight[4]
        assert not v.koszul_up_to_cutoff

    def test_small_models_refuse_non_koszul(self):
        with pytest.raises(NotKoszulError):
            small_hochschild_models(non_koszul_presentation(), 4)


class TestSmallModels:
    def test_polynomial_chain_model_matches_bar_and_hkr(self):
        models = small_hochschild_models(polynomial_presentation(2), 4)
        A = make_truncated_polynomial_algebra(2, 4)
        bar = {k: v for k, v in slice_from_hochschild(A, 4).hh_dims().items() if v}
        conv = {}
        for (s, t), d in models.chain_dims.items():
            conv[(t, s + t)] = conv.get((t, s + t), 0) + d
        assert conv == bar
        for p in (0, 1, 2):
            for w in range(5):
                want = comb(2, p) * (w - p + 1) if w >= p else 0
                assert conv.get((p, w), 0) == want

    def test_exterior_chain_model_matches_bar(self):
        models = small_hochschild_models(exterior_presentation(2), 4)
        bar = {k: v for k, v in slice_from_hochschild(make_exterior_algebra(2), 4).hh_dims().items() if v}
        conv = {}
        for (s, t), d in models.chain_dims.items():
            conv[(-s, s + t)] = conv.get((-s, s + t), 0) + d
        assert conv == bar

    def test_cochain_models_flip_symmetric(self):
        mp = small_hochschild_models(polynomial_presentation(2), 4)
        me = small_hochschild_models(exterior_presentation(2), 4)
        for s in range(3):
            for t in range(3):
                assert me.cochain_dims.get((t, s), 0) == mp.cochain_dims.get((s, t), 0)

    def test_kx_small_model_hkr_line(self):
        models = small_hochschild_models(QuadraticPresentation(1, (0,), (), name="kx"), 4)
        # HH^0 weight-s dims are 1 (powers of x); HH^1 similarly
        assert models.cochain_dims.get((1, 0)) == 1
        assert models.cochain_dims.get((1, 1)) == 1
        assert models.chain_dims.get((0, 0)) == 1


class TestBivectorDuality:
    def test_zero_maps_to_zero(self):
        assert dual_bivector_coeffs({}) == {}

    def test_index_pattern(self):
        got = dual_bivector_coeffs({(1, 2, 1, 2): Q(1)})
        assert got == {(1, 2, 1, 2): Q(1)}
        got = dual_bivector_coeffs({(1, 1, 1, 2): Q(3)})
        assert got == {(1, 2, 1, 1): Q(3)}

    def test_involution(self):
        table = {(1, 2, 1, 2): Q(1), (1, 1, 2, 3): Q(-2)}
        assert dual_bivector_coeffs(dual_bivector_coeffs(table)) == table


class TestPoissonIdentification:
    def test_volume_to_volume(self):
        ident = koszul_poisson_identification(2)
        vol = (0, 0, 1, 1)  # dx1 dx2
        assert ident.form_to_dual(vol) == (1, 1, 0, 0)  # functional dual to ξ1ξ2
        assert ident.coefficient(vol) == Q(-1)  # p = 2 carries the period-4 unit

    def test_unit_to_unit(self):
        ident = koszul_poisson_identification(2)
        assert ident.form_to_dual((0, 0, 0, 0)) == (0, 0, 0, 0)
        assert ident.coefficient((0, 0, 0, 0)) == Q(1)

    def test_chain_map_for_log_canonical(self):
        ident = koszul_poisson_identification(2)
        assert ident.check_chain_map({(1, 2, 1, 2): Q(1)}, w_max=4) == []

    def test_chain_map_for_circulant(self):
        ident = koszul_poisson_identification(3)
        circ = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}
        assert ident.check_chain_map(circ, w_max=3) == []


# -- differential oracles: the dual product by deconcatenation, the per-call solve --
#
# The dual product used to apply u_i^* ⊗ u_j^* to the whole deconcatenated
# vector of each c_k, and every one-letter transfer solved for its
# coordinates in U_below from scratch.  Both are kept here verbatim as
# references for the pivot lookups that replaced them.


def _pair_deconcat(ui, uj, target, n: int, p: int, q: int) -> Fraction:
    """(u_i^* ⊗ u_j^*) applied to the (p, q)-deconcatenation of target."""
    # the U bases are reduced echelon with unit pivots, so the dual basis
    # functional of u_i reads off u_i's pivot coordinate; both legs of the
    # deconcatenation stay inside the respective spans
    piv_i = _pivot_functional(ui)
    piv_j = _pivot_functional(uj)
    total = Q(0)
    dim_q = n**q
    for idx, c in enumerate(target):
        if not c:
            continue
        left, right = divmod(idx, dim_q)
        total += c * piv_i.get(left, Q(0)) * piv_j.get(right, Q(0))
    return total


def _pivot_functional(vec) -> dict[int, Fraction]:
    """The dual functional of an echelon basis vector, as {word index: coeff}.

    For reduced-echelon bases the dual basis functional of the k-th vector
    reads off the k-th pivot coordinate; representing it sparsely as the
    indicator of the pivot suffices because the other basis vectors vanish
    there.
    """
    for i, c in enumerate(vec):
        if c != 0:
            return {i: Q(1) / c}
    return {}


def dual_table_by_deconcatenation(data):
    """The dual algebra's multiplication table, rebuilt from the U pieces."""
    n, W, U = data.source.n, data.cutoff, data.dual_weight_pieces
    index_of = {label: k for k, label in enumerate(data.dual_labels)}
    table = {}
    for p in range(W + 1):
        for q in range(W + 1):
            for i in range(len(U[p])):
                for j in range(len(U[q])):
                    key = (index_of[(p, i)], index_of[(q, j)])
                    if p + q > W:
                        table[key] = {}
                        continue
                    # (u_i^* u_j^*)(c) = (u_i^* ⊗ u_j^*)(Δ_{p,q} c)
                    val = {}
                    for k, c_vec in enumerate(U[p + q]):
                        coeff = _pair_deconcat(U[p][i], U[q][j], c_vec, n, p, q)
                        if coeff:
                            val[index_of[(p + q, k)]] = coeff
                    table[key] = val
    return table


def transfer_by_solve(out: dict, U_below: list, stripped, prod, scale, end: str) -> None:
    """out += scale · prod ⊗ (stripped in the coordinates of the basis U_below).

    ``stripped`` is a dual-coalgebra vector with one letter removed at
    ``end``; it must lie in the span of U_below.  ``prod`` is a product of
    algebra basis elements, or a non-dict marker when it leaves the window.
    """
    if not any(c != 0 for c in stripped):
        return
    coords = solve_in_span(U_below, stripped)
    if coords is None:
        raise ko.NotAComplex(f"{end}-letter strip leaves U")
    if isinstance(prod, dict):
        for ka, ca in prod.items():
            ko._accumulate(out, {(ka, j): cu for j, cu in enumerate(coords) if cu}, scale * ca)


# the presentations and cutoffs of the cli-batch jobs poly2, ext3, poly3 and quad2
CLI_BATCH_PRESENTATIONS = {
    "poly2": (lambda: polynomial_presentation(2), 3),
    "ext3": (lambda: exterior_presentation(3), 4),
    "poly3": (lambda: polynomial_presentation(3), 3),
    "quad2": (lambda: QuadraticPresentation(2, (0, 0), (_vec(2, ((0, 1), 1), ((1, 0), -2)),), name="input"), 5),
}


# the dual product also on a presentation with every relation and on a non-Koszul one
DUAL_PRODUCT_CASES = {
    **CLI_BATCH_PRESENTATIONS,
    "full": (lambda: QuadraticPresentation(2, (0, 0), tuple(_vec(2, ((i, j), 1)) for i in range(2) for j in range(2))), 3),
    "nonkoszul3": (non_koszul_presentation, 4),
}


class TestPivotLookupsAgainstOracle:
    @pytest.mark.parametrize("name", sorted(DUAL_PRODUCT_CASES))
    def test_dual_product_matches_deconcatenation(self, name):
        make, W = DUAL_PRODUCT_CASES[name]
        data = koszul_dual_algebra(make(), W)
        assert data.dual_algebra.table == dual_table_by_deconcatenation(data)

    @pytest.mark.parametrize("name", sorted(CLI_BATCH_PRESENTATIONS))
    def test_transfers_match_the_per_call_solve(self, monkeypatch, name):
        make, W = CLI_BATCH_PRESENTATIONS[name]
        pres = make()
        got = (koszul_complex(pres, W)[0], small_hochschild_models(pres, W))
        monkeypatch.setattr(ko, "_transfer", transfer_by_solve)
        want = (koszul_complex(pres, W)[0], small_hochschild_models(pres, W))
        assert got == want

    def test_a_strip_outside_the_span_is_not_a_complex(self):
        U_below = [(Q(1), Q(0), Q(2)), (Q(0), Q(1), Q(-1))]
        inside, outside = (Q(3), Q(1), Q(5)), (Q(0), Q(0), Q(1))
        for transfer in (ko._transfer, transfer_by_solve):
            out = {}
            transfer(out, U_below, inside, {7: Q(2)}, -1, "last")
            assert out == {(7, 0): Q(-6), (7, 1): Q(-2)}
            with pytest.raises(ko.NotAComplex, match="last-letter strip leaves U"):
                transfer({}, U_below, outside, {7: Q(1)}, 1, "last")
