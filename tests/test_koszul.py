import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mixhom.algebra import (
    OUT_OF_WINDOW,
    GradedAlgebra,
    QuadraticPresentation,
    WindowOverflowError,
    exterior_presentation,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
    polynomial_presentation,
)
from mixhom import koszul as ko
from mixhom import poisson as po
from mixhom.calculus import polyvector_pd_twist
from mixhom.koszul import (
    NotKoszulError,
    dual_bivector_coeffs,
    is_koszul,
    koszul_dual_algebra,
    koszul_poisson_identification,
    quadratic_algebra,
    small_hochschild_models,
)
from mixhom.linalg import ExactMatrix, homology_presentation, operator_matrix
from mixhom.mixed import slice_from_hochschild
from test_linalg import from_columns, kernel_basis, solve_in_span, span_basis

Q = Fraction

# a frozen non-Koszul witness found by brute-force search over binomial
# relation spaces: R = span{e1⊗e1, e1⊗e2, e1⊗e3 + e3⊗e3} fails acyclicity
# of the Koszul complex at weight 4


def _vec(n, *terms):
    v = [Q(0)] * (n * n)
    for (i, j), c in terms:
        v[i * n + j] += Q(c)
    return tuple(v)


def kx_presentation() -> QuadraticPresentation:
    return QuadraticPresentation(1, (0,), (), name="kx")


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

    def test_products_above_the_cutoff_leave_the_window(self):
        # like the truncated polynomial algebra it matches, the dual at cutoff 3
        # refuses a product of weight 4 instead of reading it as zero
        D = koszul_dual_algebra(exterior_presentation(2), 3).dual_algebra
        y1 = D.basis_element(D.labels.index("u1.0"))
        with pytest.raises(WindowOverflowError):
            D.multiply(D.multiply(y1, y1), D.multiply(y1, y1))
        assert {k: v for k, v in slice_from_hochschild(D, 3).hh_dims().items() if v}
        for A in (D, make_truncated_polynomial_algebra(2, 3)):
            with pytest.raises(WindowOverflowError):
                slice_from_hochschild(A, 5)


def verdict(pres, W):
    return koszul_dual_algebra(pres, W).verdict


def small_models(pres, W):
    return small_hochschild_models(koszul_dual_algebra(pres, W))


class TestKoszulness:
    def test_polynomials_are_koszul(self):
        assert verdict(polynomial_presentation(2), 4).koszul_up_to_cutoff

    def test_exterior_is_koszul(self):
        assert verdict(exterior_presentation(2), 4).koszul_up_to_cutoff

    def test_weight_one_piece_always_exact(self):
        v = verdict(non_koszul_presentation(), 2)
        assert v.per_weight[1]

    def test_non_koszul_witness_fails_at_weight_four(self):
        v = is_koszul(koszul_dual_algebra(non_koszul_presentation(), 4))
        assert v.per_weight[1] and v.per_weight[2] and v.per_weight[3]
        assert not v.per_weight[4]
        assert not v.koszul_up_to_cutoff

    def test_small_models_refuse_non_koszul(self):
        with pytest.raises(NotKoszulError):
            small_models(non_koszul_presentation(), 4)


class TestSmallModels:
    def test_polynomial_chain_model_matches_bar_and_hkr(self):
        models = small_models(polynomial_presentation(2), 4)
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
        models = small_models(exterior_presentation(2), 4)
        bar = {k: v for k, v in slice_from_hochschild(make_exterior_algebra(2), 4).hh_dims().items() if v}
        conv = {}
        for (s, t), d in models.chain_dims.items():
            conv[(-s, s + t)] = conv.get((-s, s + t), 0) + d
        assert conv == bar

    def test_cochain_models_flip_symmetric(self):
        mp = small_models(polynomial_presentation(2), 4)
        me = small_models(exterior_presentation(2), 4)
        for s in range(3):
            for t in range(3):
                assert me.cochain_dims.get((t, s), 0) == mp.cochain_dims.get((s, t), 0)

    def test_kx_small_model_hkr_line(self):
        models = small_models(kx_presentation(), 4)
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
        # in every dimension dx1…dxn goes to the functional dual to ξ1…ξn, with the orientation unit of degree n
        for n in range(1, 6):
            ident = koszul_poisson_identification(n)
            assert ident.form_to_dual((0,) * n + (1,) * n) == (1,) * n + (0,) * n
            assert ident.coefficient((0,) * n + (1,) * n) == po._orientation(n)

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

    def test_chain_map_check_sees_one_flipped_coefficient(self, monkeypatch):
        # the dual side is read at w_max, not w_max + 2: a wrong coefficient
        # on a form of the top weight must still show
        ident = koszul_poisson_identification(3)
        circ = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}
        top = (2, 0, 0, 0, 0, 1)  # x1²dx3, weight 3
        coefficient = ko.PoissonIdentification.coefficient
        monkeypatch.setattr(ko.PoissonIdentification, "coefficient",
                            lambda self, m: -coefficient(self, m) if m == top else coefficient(self, m))
        failures = ident.check_chain_map(circ, w_max=3)
        # δ and d* on the functional of x1²dx3, and on those that ∂ and d send onto it
        assert failures == ["boundary fails at x1dx1dx3", "boundary fails at x1^2dx3",
                            "de Rham fails at x1^2dx3", "de Rham fails at x1^2x3"]


# -- the volume-orientation unit, stated once ------------------------------------


def test_the_orientation_unit_has_period_four():
    assert [po._orientation(p) for p in range(8)] == [1, 1, -1, -1, 1, 1, -1, -1]


def test_both_readers_of_the_orientation_unit_see_one_definition(monkeypatch):
    # the unit negated wherever a mixhom module binds it: the primal PD twist and the identification's
    # coefficient both follow, so neither keeps a copy of its own
    unit = po._orientation
    for modname, mod in list(sys.modules.items()):
        if (modname == "mixhom" or modname.startswith("mixhom.")) and getattr(mod, "_orientation", None) is unit:
            monkeypatch.setattr(mod, "_orientation", lambda p: -unit(p))
    twist, ident = polyvector_pd_twist(1), koszul_poisson_identification(3)
    for p in range(4):
        # polyvector degree p is the piece (-p, ω); x1²·dx1…dxp carries the factorial 2
        assert twist((-p, 0)) == twist((-p, 5)) == -unit(p)
        assert ident.coefficient((2, 0, 0) + (1,) * p + (0,) * (3 - p)) == -2 * unit(p)


# -- differential oracles: the dual product by deconcatenation, the per-call solve --
#
# The dual product used to apply u_i^* ⊗ u_j^* to the whole deconcatenated
# vector of each c_k, and every one-letter transfer solved for its
# coordinates in U_below from scratch.  Both are kept here verbatim as
# references for the pivot lookups that replaced them.  They read the
# sparse U rows densified.


def dense(vec, dim):
    """A sparse vector {index: coefficient} as a dense tuple of length dim."""
    return tuple(vec.get(j, Q(0)) for j in range(dim))


def dense_pieces(data):
    """The dual weight pieces U_w as dense vectors of length n^w."""
    n = data.source.n
    return {w: [dense(u, n**w) for u in rows] for w, rows in data.dual_weight_pieces.items()}


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


def dual_table_by_deconcatenation(data, U=None):
    """The dual algebra's multiplication table, rebuilt from the U pieces (dense; data's by default)."""
    n, W = data.source.n, data.cutoff
    U = dense_pieces(data) if U is None else U
    index_of = {label: k for k, label in enumerate(data.dual_labels)}
    table = {}
    for p in range(W + 1):
        for q in range(W + 1):
            for i in range(len(U[p])):
                for j in range(len(U[q])):
                    key = (index_of[(p, i)], index_of[(q, j)])
                    if p + q > W:
                        table[key] = OUT_OF_WINDOW
                        continue
                    # (u_i^* u_j^*)(c) = (u_i^* ⊗ u_j^*)(Δ_{p,q} c)
                    val = {}
                    for k, c_vec in enumerate(U[p + q]):
                        coeff = _pair_deconcat(U[p][i], U[q][j], c_vec, n, p, q)
                        if coeff:
                            val[index_of[(p + q, k)]] = coeff
                    table[key] = val
    return table


def transfer_by_solve(out: dict, below: list, stripped, prod, scale, end: str) -> None:
    """out += scale · prod ⊗ (stripped in the basis ``below`` of a U piece).

    ``below`` lists (key, U row) pairs or (key, pivot word, U row) triples, as ``ko._transfer`` takes
    them; ``stripped`` is a dual-coalgebra
    vector with one letter removed at ``end`` and must lie in the span of
    the rows.  ``prod`` is a product of algebra basis elements.  The sparse
    rows are densified on the indices they use.
    """
    keys, rows = [x for x, *_ in below], [u for *_, u in below]
    dim = 1 + max((j for v in [stripped, *rows] for j in v), default=-1)
    rows, stripped = [dense(u, dim) for u in rows], dense(stripped, dim)
    if not any(c != 0 for c in stripped):
        return
    coords = solve_in_span(rows, stripped)
    if coords is None:
        raise ko.NotAComplex(f"{end}-letter strip leaves U")
    for ka, ca in prod.items():
        ko._accumulate(out, {(ka, x): cu for x, cu in zip(keys, coords) if cu}, scale * ca)


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

        def run():
            # the pieces and matrices of the Koszul complex and both small models
            built = []
            build = ko._tensor_slice

            def recording(*args):
                built.append(build(*args))
                return built[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ko, "_tensor_slice", recording)
                data = koszul_dual_algebra(pres, W)
                small_hochschild_models(data)
            return [(sl.name, sl.pieces, sl.b_mats) for sl in built]

        got = run()
        monkeypatch.setattr(ko, "_transfer", transfer_by_solve)
        want = run()
        assert [name for name, _, _ in got] == [f"{k}({pres.name})" for k in ("koszul", "chain-model", "cochain-model")]
        assert sum(len(mats) for _, _, mats in got) > 10
        assert got == want

    def test_a_strip_outside_the_span_is_not_a_complex(self):
        U_below = [(0, 0, {0: Q(1), 2: Q(2)}), (1, 1, {1: Q(1), 2: Q(-1)})]
        inside, outside = {0: Q(3), 1: Q(1), 2: Q(5)}, {2: Q(1)}
        for transfer in (ko._transfer, transfer_by_solve):
            out = {}
            transfer(out, U_below, inside, {7: Q(2)}, -1, "last")
            assert out == {(7, 0): Q(-6), (7, 1): Q(-2)}
            with pytest.raises(ko.NotAComplex, match="last-letter strip leaves U"):
                transfer({}, U_below, outside, {7: Q(1)}, 1, "last")


# -- differential oracles: the presentation-based Koszul dimensions -----------------
#
# The Koszul verdict and both small models used to build a homology
# presentation per piece, from a d_in and a d_out built for that piece (so a
# map was built again as the d_out of its neighbour), with zero maps padded
# by ExactMatrix.zero.  That route is kept here as the reference for the
# rank dimensions of the slices that replaced it.  It keeps its own labels
# (algebra basis index, index within U_t) and solves every transfer.


def _tensor_basis(index_of, U, s: int, t: int) -> list[tuple[int, int]]:
    """Labels (algebra basis index, U_t index) of A_s ⊗ U_t; empty for a negative weight."""
    if s < 0 or t < 0:
        return []
    return [(gi, u) for (w, _k), gi in index_of.items() if w == s for u in range(len(U.get(t, ())))]


def _presented_dim(d_in, d_out) -> int:
    return homology_presentation(d_in, d_out).dim


def koszul_dims_oracle(pres: QuadraticPresentation, W: int):
    """(Koszul verdict per weight, chain dims, cochain dims), the dims None unless Koszul up to W."""
    data = koszul_dual_algebra(pres, W)
    A, index_of = quadratic_algebra(pres, W)
    n, U, dual = pres.n, data.dual_weight_pieces, data.dual_algebra
    below = {t: list(enumerate(rows)) for t, rows in U.items()}

    def piece(s, t):
        return _tensor_basis(index_of, U, s, t)

    def koszul_delta(label, m):
        a_g, u = label
        out = {}
        for letter in range(n):
            transfer_by_solve(out, below.get(m - 1, []), ko._strip_last(U[m][u], n, letter),
                              A.mult_basis(index_of[(1, letter)], a_g), 1, "last")
        return out

    per_weight = {}
    for w in range(1, W + 1):
        mats = [operator_matrix(piece(w - m, m), piece(w - m + 1, m - 1), lambda label: koszul_delta(label, m))
                for m in range(w, 0, -1)]
        per_weight[w] = not any(
            _presented_dim(mats[i - 1] if i else ExactMatrix.zero(mats[0].cols, 0),
                           mats[i] if i < len(mats) else ExactMatrix.zero(0, mats[-1].rows))
            for i in range(len(mats) + 1)
        )
    if not all(per_weight.values()):
        return per_weight, None, None
    g = pres.generator_degrees[0] % 2
    dual_index = {}
    for i in range(dual.dim):
        dual_index.setdefault(dual.weights[i], []).append(i)
    dual_local = {gi: j for gis in dual_index.values() for j, gi in enumerate(gis)}

    def b(label, t):
        a_g, u = label
        sgn = -1 if ((g + 1) * t + g * (1 + A.degrees[a_g])) % 2 else 1
        out = {}
        for letter in range(n):
            e_g = index_of[(1, letter)]
            transfer_by_solve(out, below[t - 1], ko._strip_first(U[t][u], n, t, letter), A.mult_basis(a_g, e_g), 1, "first")
            transfer_by_solve(out, below[t - 1], ko._strip_last(U[t][u], n, letter), A.mult_basis(e_g, a_g), sgn, "last")
        return out

    def delta(label, t):
        a_g, u = label
        x_g = dual_index[t][u]
        sgn = -1 if (1 + (g + 1) * t + g * A.degrees[a_g]) % 2 else 1
        out = {}
        for letter in range(n):
            e_g, ei_d = index_of[(1, letter)], dual_index[1][letter]
            for la, lx, scale in ((A.mult_basis(e_g, a_g), dual.mult_basis(ei_d, x_g), 1),
                                  (A.mult_basis(a_g, e_g), dual.mult_basis(x_g, ei_d), sgn)):
                for ka, ca in la.items():
                    ko._accumulate(out, {(ka, dual_local[kx]): cx for kx, cx in lx.items()}, scale * ca)
        return out

    def b_matrix(s, t):
        return operator_matrix(piece(s, t), piece(s + 1, t - 1), lambda label: b(label, t))

    def delta_matrix(s, t):
        return operator_matrix(piece(s, t), piece(s + 1, t + 1), lambda label: delta(label, t))

    chain, cochain = {}, {}
    for s in range(W + 1):
        for t in range(W + 1 - s):
            d_out = b_matrix(s, t) if t >= 1 else ExactMatrix.zero(0, len(piece(s, t)))
            d_in = b_matrix(s - 1, t + 1) if s >= 1 else ExactMatrix.zero(len(piece(s, t)), 0)
            if dim := _presented_dim(d_in, d_out):
                chain[(s, t)] = dim
    for s in range(W):
        for t in range(W):
            if piece(s, t):
                d_out = delta_matrix(s, t)
                d_in = delta_matrix(s - 1, t - 1) if s >= 1 and t >= 1 else ExactMatrix.zero(len(piece(s, t)), 0)
                if dim := _presented_dim(d_in, d_out):
                    cochain[(s, t)] = dim
    return per_weight, chain, cochain


# every presentation the tests above use, and those of the cli-batch jobs
ORACLE_CASES = {
    **CLI_BATCH_PRESENTATIONS,
    "poly2-w4": (lambda: polynomial_presentation(2), 4),
    "ext2": (lambda: exterior_presentation(2), 4),
    "nonkoszul3": (non_koszul_presentation, 4),
    "nonkoszul3-w2": (non_koszul_presentation, 2),
    "kx": (kx_presentation, 4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_rank_dims_match_the_presentation_oracle(name):
    make, W = ORACLE_CASES[name]
    per_weight, chain, cochain = koszul_dims_oracle(make(), W)
    data = koszul_dual_algebra(make(), W)
    assert data.verdict.per_weight == per_weight
    if chain is None:
        with pytest.raises(NotKoszulError):
            small_hochschild_models(data)
    else:
        got = small_hochschild_models(data)
        assert (got.chain_dims, got.cochain_dims) == (chain, cochain)
        assert chain and cochain


def _expected_map_count(data) -> int:
    """The maps the Koszul layer needs, one per source piece whose target has chains.

    The Koszul complex and the chain model both send A_s ⊗ U_t to
    A_{s+1} ⊗ U_{t-1} (s + t <= W); the cochain model sends it to
    A_{s+1} ⊗ U_{t+1} (s, t < W).
    """
    W = data.cutoff
    A, _ = data.quotient
    dim = {(s, t): A.weights.count(s) * data.piece_dim(t) for s in range(W + 1) for t in range(W + 1)}
    down = sum(1 for s in range(W) for t in range(1, W + 1 - s) if dim[(s, t)] and dim[(s + 1, t - 1)])
    up = sum(1 for s in range(W) for t in range(W) if dim[(s, t)] and dim[(s + 1, t + 1)])
    return 2 * down + up


@pytest.mark.parametrize("name", sorted(CLI_BATCH_PRESENTATIONS))
def test_a_koszul_task_builds_each_map_once_and_no_presentation(tmp_path, monkeypatch, name):
    from mixhom import cli, linalg, mixed

    jobs = {
        "poly2": "kind polynomial\nn 2\n[window]\nw_max 3\n",
        "ext3": "kind exterior\nn 3\n[window]\nw_max 4\n",
        "poly3": "kind polynomial\nn 3\n[window]\nw_max 3\n",
        "quad2": "kind quadratic\nn 2\nrelation 1 2 1 2 1 -2\n[window]\nw_max 5\n",
    }
    job = cli.JobContext(cli.parse_job(f"[algebra]\n{jobs[name]}[tasks]\nkoszul\n"))
    if cli._bar_reads_the_slice(job.spec):
        job.hh_dims  # the job's hh task would have built them
    calls = {"operator_matrix": [], "homology_presentation": []}
    for module in (mixed, linalg):
        for fn in calls:
            build = getattr(module, fn)
            monkeypatch.setattr(module, fn, lambda *args, fn=fn, build=build: calls[fn].append(args) or build(*args))
    result = cli.task_koszul(job)
    assert result["koszul_up_to_cutoff"] and "small_model_chain_dims" in result
    assert result.get("cross_model_dims_match", True)
    assert len(calls["operator_matrix"]) == _expected_map_count(job.koszul)
    assert calls["homology_presentation"] == []


# -- differential oracles: the dense Koszul layer ---------------------------------
#
# U_w used to be the pairwise intersection of the relation layers, span by
# span, and TV/(R) reduced each product as a dense tensor against the RREF
# of the relation layers.  Both are kept here verbatim as references for the
# common kernel and the normal forms that replaced them.


def _pivot(vec) -> int:
    """The index of the first nonzero coordinate of a vector."""
    return next(i for i, c in enumerate(vec) if c)


def _relation_layer(pres: QuadraticPresentation, w: int, i: int) -> list[tuple[Fraction, ...]]:
    """The vectors e_pre ⊗ r ⊗ e_post spanning V^{⊗i} ⊗ R ⊗ V^{⊗(w-i-2)}, in V^{⊗w} coordinates.

    A relation r is indexed like the two-letter words, so the word
    pre·(a, b)·post sits at ((pre·n² + ab)·n^{w-i-2} + post).
    """
    n = pres.n
    tail = n ** (w - i - 2)
    vecs = []
    for pre in range(n**i):
        for rel in pres.relations:
            for post in range(tail):
                vec = [Q(0)] * n**w
                for ab, c in enumerate(rel):
                    if c:
                        vec[(pre * n * n + ab) * tail + post] += c
                vecs.append(tuple(vec))
    return vecs


def _subspace_intersection(bases: list[list[tuple[Fraction, ...]]], dim: int):
    """Canonical basis of the intersection of spans (each given by vectors)."""
    if not bases:
        return [tuple(Q(1) if i == j else Q(0) for i in range(dim)) for j in range(dim)]
    current = span_basis(bases[0], dim)
    for nxt in bases[1:]:
        other = span_basis(nxt, dim)
        if not current or not other:
            return []
        # x in span(current) ∩ span(other): kernel of [current | -other]
        cols = [list(v) for v in current] + [[-c for c in v] for v in other]
        M = from_columns([tuple(c) for c in cols])
        inter = []
        for kv in kernel_basis(M):
            vec = [Q(0)] * dim
            for c, v in zip(kv[: len(current)], current):
                if c:
                    for i, x in enumerate(v):
                        vec[i] += c * x
            inter.append(tuple(vec))
        current = span_basis(inter, dim)
    return current


def quadratic_algebra_oracle(pres: QuadraticPresentation, W: int) -> tuple[GradedAlgebra, dict]:
    """The algebra TV/(R) up to weight W, with projection data per weight.

    Returns (algebra, sections) where sections[w] holds the canonical
    section vectors (in V^{⊗w} coordinates) of the chosen basis of A_w and
    sections["index_of"] maps (weight, local index) to the algebra's basis.
    """
    n = pres.n
    sections: dict[int, dict] = {}
    labels: list[str] = []
    degrees: list[int] = []
    weights: list[int] = []
    index_of: dict[tuple[int, int], int] = {}
    for w in range(W + 1):
        dim = n**w
        vecs = [v for i in range(max(0, w - 1)) for v in _relation_layer(pres, w, i)]
        span = span_basis(vecs, dim) if vecs else []
        pivots = {_pivot(v) for v in span}
        free = [i for i in range(dim) if i not in pivots]
        sections[w] = {"free": free, "span": span, "dim": dim}
        for k, idx in enumerate(free):
            word = ko._word(idx, n, w)
            index_of[(w, k)] = len(labels)
            labels.append("·".join(f"e{i+1}" for i in word) if word else "1")
            degrees.append(sum(pres.generator_degrees[i] for i in word))
            weights.append(w)

    def reduce_tensor(w: int, vec):
        """Project a tensor to quotient coordinates over the free words."""
        span = sections[w]["span"]
        free = sections[w]["free"]
        out = list(vec)
        for sv in span:
            piv = _pivot(sv)
            c = out[piv]
            if c:
                for i, x in enumerate(sv):
                    out[i] -= c * x
        return {k: out[idx] for k, idx in enumerate(free) if out[idx]}

    table: dict[tuple[int, int], dict] = {}

    for (w1, k1), i1 in index_of.items():
        for (w2, k2), i2 in index_of.items():
            if w1 + w2 > W:
                table[(i1, i2)] = OUT_OF_WINDOW
                continue
            dim2 = n**w2
            idx = sections[w1]["free"][k1] * dim2 + sections[w2]["free"][k2]
            vec = [Q(0)] * (n ** (w1 + w2))
            vec[idx] = Q(1)
            red = reduce_tensor(w1 + w2, vec)
            table[(i1, i2)] = {index_of[(w1 + w2, k)]: c for k, c in red.items()}

    algebra = GradedAlgebra(
        labels,
        degrees,
        weights,
        unit=index_of[(0, 0)],
        table=table,
        commutativity=None,
        weight_cutoff=W,
        name=f"TV/R({pres.name})",
    )
    sections["index_of"] = index_of
    return algebra, sections


def dual_pieces_oracle(pres: QuadraticPresentation, W: int):
    """U_w for w <= W, as the pairwise intersection of the relation layers."""
    return {w: _subspace_intersection([_relation_layer(pres, w, i) for i in range(w - 1)], pres.n**w)
            for w in range(W + 1)}


@st.composite
def quadratic_presentations(draw):
    """A random presentation with independent relations: n = 2 with W <= 4, or n = 3 with W <= 3."""
    n, W = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]))
    coeffs = st.sampled_from([Q(0), Q(0), Q(0), Q(1), Q(-1), Q(2), Q(-1, 3)])
    rels = []
    for row in draw(st.lists(st.lists(coeffs, min_size=n * n, max_size=n * n), max_size=n * n)):
        if ExactMatrix.from_rows(rels + [row]).rank() == len(rels) + 1:
            rels.append(tuple(row))
    degree = draw(st.sampled_from([0, -1, 1]))
    return QuadraticPresentation(n, (degree,) * n, tuple(rels), name="random"), W


def _algebra_data(A):
    return A.labels, A.degrees, A.weights, A.unit, A.table


def assert_koszul_layer_matches_oracle(pres, W):
    """U pieces, dual table and quotient algebra equal the dense pipeline's."""
    data = koszul_dual_algebra(pres, W)
    U = dual_pieces_oracle(pres, W)
    assert dense_pieces(data) == U
    for rows in data.dual_weight_pieces.values():
        # reduced echelon rows with unit pivots, no zeros, keys ascending
        assert all(list(u) == sorted(u) and u[min(u)] == 1 and all(u.values()) for u in rows)
    assert data.dual_algebra.table == dual_table_by_deconcatenation(data, U)
    A, index_of = quadratic_algebra(pres, W)
    want, sections = quadratic_algebra_oracle(pres, W)
    assert index_of == sections["index_of"]
    assert _algebra_data(A) == _algebra_data(want)


@settings(max_examples=60, deadline=None)
@given(quadratic_presentations())
def test_koszul_layer_matches_dense_oracle_on_random_presentations(drawn):
    assert_koszul_layer_matches_oracle(*drawn)


@pytest.mark.parametrize("name", sorted(DUAL_PRODUCT_CASES))
def test_koszul_layer_matches_dense_oracle_on_named_presentations(name):
    make, W = DUAL_PRODUCT_CASES[name]
    assert_koszul_layer_matches_oracle(make(), W)
