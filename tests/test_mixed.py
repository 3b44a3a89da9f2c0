import copy
from fractions import Fraction

import pytest

from mixhom.algebra import make_exterior_algebra, make_truncated_polynomial_algebra
from mixhom.linalg import ExactMatrix, _fractions, homology_presentation
from mixhom.mixed import (
    LESReport,
    MixedComplexSlice,
    NegativeCyclic,
    SliceAxiomError,
    cyclic_homology,
    default_truncation,
    les_check,
    periodic_homology,
    slice_from_hochschild,
    slice_from_hochschild_dual,
    slice_from_poisson,
    slice_from_poisson_dual,
    WindowError,
    _u_complex,
)
from mixhom.poisson import DualSide, PoissonContext, quadratic_bivector
from test_linalg import (
    apply_fractions,
    column,
    dense_boundaries,
    dense_cycles,
    from_columns,
    oracle_rank,
    oracle_row_echelon,
    sparse_vec,
)
from test_poisson import (
    DualSideByFunctionals,
    de_rham,
    delta_by_monomials,
    dual_domain,
    poisson_boundary,
    poisson_complex_by_forms,
)

Q = Fraction

CIRCULANT = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}


def trivial_slice(dims: dict[int, int]) -> MixedComplexSlice:
    pieces = {(d, 0): [f"e{d}_{i}" for i in range(k)] for d, k in dims.items() if k}
    return MixedComplexSlice(pieces, {}, {})


class TestSliceValidation:
    def test_axiom_failure_reported_with_element(self):
        pieces = {(0, 0): ["a"], (1, 0): ["b"], (2, 0): ["c"]}
        # b that fails b² = 0: b(c) = b, b(b) = a
        b_mats = {
            (2, 0): ExactMatrix.from_rows([[1]]),
            (1, 0): ExactMatrix.from_rows([[1]]),
        }
        with pytest.raises(SliceAxiomError) as exc:
            MixedComplexSlice(pieces, b_mats, {})
        assert exc.value.identity == "b²=0"
        assert exc.value.label == "c"

    def test_anticommutator_sums_terms_over_different_denominators(self):
        # out of (1, 0), bB = [[0, 0], [-1/2, 0]] and Bb = [[0, 0], [1, 0]]: their integer entries cancel
        # (-1 over 2, 1 over 1) but the sum is 1/2 at the column of "x"; b² = B² = 0 everywhere
        pieces = {(0, 0): ["a"], (1, 0): ["x", "y"], (2, 0): ["c"]}
        b_mats = {(1, 0): ExactMatrix.from_rows([[1, 0]]), (2, 0): ExactMatrix.from_rows([[0], [1]])}
        B_mats = {(0, 0): ExactMatrix.from_rows([[0], [1]]), (1, 0): ExactMatrix.from_rows([[Q(-1, 2), 0]])}
        with pytest.raises(SliceAxiomError) as exc:
            MixedComplexSlice(pieces, b_mats, B_mats)
        assert (exc.value.identity, exc.value.piece, exc.value.label) == ("bB+Bb=0", (1, 0), "x")

    @pytest.mark.parametrize("which,piece,identity,at,label", [
        ("B", (-1, 2), "B²=0", (-2, 2), (3,)),
        ("b", (0, 3), "bB+Bb=0", (-1, 3), (1, 1, 1)),
    ], ids=["B-squared", "anticommutator"])
    def test_corrupted_slice_reports_axiom_and_label(self, monkeypatch, which, piece, identity, at, label):
        sl = slice_from_hochschild(make_exterior_algebra(2), 3)
        b_mats, B_mats = dict(sl.b_mats), dict(sl.B_mats)
        mats = b_mats if which == "b" else B_mats
        m = mats[piece]
        mats[piece] = ExactMatrix(m.rows, m.cols, {(i, j): 1 for i in range(m.rows) for j in range(m.cols)})
        products = []  # every (left, right) pair multiplied, kept alive so that ids stay unique
        matmul = ExactMatrix.matmul

        def recorded(left, right):
            products.append((left, right))
            return matmul(left, right)

        monkeypatch.setattr(ExactMatrix, "matmul", recorded)
        with pytest.raises(SliceAxiomError) as exc:
            MixedComplexSlice(sl.pieces, b_mats, B_mats)
        assert (exc.value.identity, exc.value.piece, exc.value.label) == (identity, at, label)
        pairs = [(id(left), id(right)) for left, right in products]
        assert pairs and len(set(pairs)) == len(pairs)

    def test_all_four_sources_validate(self):
        slice_from_hochschild(make_exterior_algebra(1), 3)
        slice_from_hochschild_dual(make_exterior_algebra(2), 3)
        ctx = PoissonContext.make(2, "poly")
        slice_from_poisson(ctx, {}, 3)
        ctxe = PoissonContext.make(2, "ext")
        slice_from_poisson_dual(DualSide(ctxe, {}, w_max=3))


class TestNegativeCyclic:
    def test_zero_differentials_dims(self):
        # b = B = 0: HC⁻ degree d dim = Σ_i dim C_{d+2i}, i <= N
        sl = trivial_slice({0: 2, 1: 1, 2: 3, 3: 1, 4: 1})
        hc = NegativeCyclic(sl, N=4)
        dims = hc.dims()
        assert dims[(0, 0)] == 2 + 3 + 1  # C_0 + C_2 + C_4
        assert dims[(1, 0)] == 1 + 1  # C_1 + C_3
        assert dims[(4, 0)] == 1

    def test_one_dimensional_piece_u_tower(self):
        sl = trivial_slice({0: 1})
        hc = NegativeCyclic(sl, N=3)
        dims = hc.dims()
        assert dims[(0, 0)] == 1
        assert dims[(-2, 0)] == 1  # the class u·e, |u| = -2
        assert dims[(-4, 0)] == 1

    def test_zero_complex(self):
        sl = trivial_slice({})
        hc = NegativeCyclic(sl, N=2)
        assert hc.dims() == {}

    def test_kx_weight_one_pattern(self):
        # the (x, dx)-pair is contractible in HC⁻: only degree 1 survives
        P1 = make_truncated_polynomial_algebra(1, 3)
        sl = slice_from_hochschild(P1, 3)
        hc = NegativeCyclic(sl, default_truncation(sl))
        dims = {k: v for k, v in hc.stable_dims().items() if v}
        # weight 0 carries the ground field's u-tower; in positive weights
        # only the degree-1 classes survive
        assert dims == {
            (0, 0): 1,
            (-2, 0): 1,
            (-4, 0): 1,
            (-6, 0): 1,
            (1, 1): 1,
            (1, 2): 1,
            (1, 3): 1,
        }

    def test_stabilization_flags_truncation_artifacts(self):
        P1 = make_truncated_polynomial_algebra(1, 3)
        sl = slice_from_hochschild(P1, 3)
        hc = NegativeCyclic(sl, default_truncation(sl))
        d_lo = min(sl.degrees())
        # every piece inside the slice's own degree range is stable; the
        # u-tower artifacts below it are flagged
        for (d, w), ok in hc.stable.items():
            if d >= d_lo:
                assert ok, (d, w)
        unstable = [p for p, ok in hc.stable.items() if not ok]
        for (d, w) in unstable:
            assert d < d_lo


@pytest.fixture(scope="module")
def hc_lambda1():
    sl = slice_from_hochschild(make_exterior_algebra(1), 4)
    return NegativeCyclic(sl, default_truncation(sl))


@pytest.fixture(scope="module")
def hc_poly2():
    sl = slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 3)
    return NegativeCyclic(sl, default_truncation(sl))


class TestLESMaps:

    def test_pi_star_kills_u_multiples(self, hc_lambda1):
        hc = hc_lambda1
        # a class with zero constant term maps to zero
        for piece in hc.dims():
            d, w = piece
            n0 = hc.slice.dim((d, w))
            pres = hc.presentation(piece)
            for i in range(pres.dim):
                if all(j >= n0 for j in pres.cycle(i)[0]):
                    assert _fractions(*hc.pi_star((piece, i))) == {}

    def test_beta_of_unit_class_vanishes(self, hc_lambda1):
        hc = hc_lambda1
        # B(1) = 0 in the reduced complex, so β of the unit class is 0
        piece = (0, 0)
        hh = hc.slice.hh(piece)
        assert hh.dim == 1
        assert _fractions(*hc.beta((piece, 0))) == {}

    def test_les_all_sources(self):
        sources = []
        sources.append(slice_from_hochschild(make_exterior_algebra(2), 3))
        sources.append(slice_from_hochschild_dual(make_exterior_algebra(2), 3))
        ctx = PoissonContext.make(2, "poly")
        pi = quadratic_bivector(ctx, {(1, 2, 1, 2): Q(1)})
        sources.append(slice_from_poisson(ctx, pi, 4))
        ctx3e = PoissonContext.make(3, "ext")
        pid = quadratic_bivector(ctx3e, {(j1, j2, i1, i2): c for (i1, i2, j1, j2), c in CIRCULANT.items()})
        sources.append(slice_from_poisson_dual(DualSide(ctx3e, pid, w_max=4)))
        for sl in sources:
            hc = NegativeCyclic(sl, default_truncation(sl))
            report = les_check(hc)
            assert report.passed, (sl.name, report.failures[:4])

    def test_beta_representative_independence(self, hc_poly2):
        hc = hc_poly2
        # β[x] = β[x + b(y)]: perturb each homology representative by the sum
        # of its piece's boundary basis, apply B to the perturbed cycle and
        # reduce it one degree up; the memoized column and the
        # coordinate-taking oracle on the reduced perturbed cycle must both
        # give that class, also where B moves the perturbation off zero
        sl = hc.slice
        checked = moved = 0
        for piece in hc.dims():
            d, w = piece
            up = (d + 1, w)
            if up not in hc.dims():
                continue
            hh = sl.hh(piece)
            if not hh.dim or not hh.boundaries:
                continue
            shift = [sum(col) for col in zip(*dense_boundaries(hh))]
            moved += bool(apply_fractions(sl.B_matrix(piece), sparse_vec(shift)))
            target = hc.presentation(up)
            for i in range(hh.dim):
                coords = _unit(i, hh.dim)
                rep = sparse_vec(x + y for x, y in zip(hh_class_vector_oracle(hc, piece, coords), shift))
                direct = target.reduce(apply_fractions(sl.B_matrix(piece), rep))
                assert _as_classes(up, direct) == _fractions(*hc.beta((piece, i)))
                assert beta_oracle(hc, piece, hh.reduce(rep)) == direct
                checked += 1
        assert checked and moved


def _mutant(hc):
    """A copy of ``hc`` and its slice with memos of their own, so that a
    corrupted column stays in the copy."""
    h = copy.copy(hc)
    h.slice = copy.copy(hc.slice)
    h.slice._B = dict(hc.slice._B)
    h._pi, h._beta = dict(hc._pi), dict(hc._beta)
    return h


def _checked_classes(hc, dim_of):
    """(piece, i) over the pieces les_check checks, with i < dim_of(piece)."""
    return [
        (piece, i)
        for piece in hc.stable_dims()
        if hc.stable.get((piece[0] + 1, piece[1]))
        for i in range(dim_of(piece))
    ]


def _column_rank(cols, piece, dim):
    """The rank of class rows as dense Fraction columns over a piece's basis."""
    cols = [_fractions(*col) for col in cols]
    vecs = [tuple(col.get((piece, j), Q(0)) for j in range(dim)) for col in cols]
    return from_columns(vecs).rank() if any(any(v) for v in vecs) else 0


def _ranks(hc, piece):
    """(dim HH, rank β, rank π*) at a piece, from dense columns."""
    up = (piece[0] + 1, piece[1])
    hh_dim = hc.slice.hh(piece).dim
    beta = [hc.beta((piece, j)) for j in range(hh_dim)]
    pi = [hc.pi_star((piece, j)) for j in range(hc.dims()[piece])]
    return hh_dim, _column_rank(beta, up, hc.dims()[up]), _column_rank(pi, piece, hh_dim)


class TestLESNegativeControls:
    """Each corrupted column must turn its LESReport flag false with its message."""

    def test_beta_column_with_one_sign_flipped(self, hc_poly2):
        hc = hc_poly2
        sl = hc.slice
        # a class whose β column has an entry that π* does not kill
        (piece, i), k = next(
            (key, k)
            for key in _checked_classes(hc, lambda p: sl.hh(p).dim)
            for k in hc.beta(key)[0]
            if hc.pi_star(k)[0]
        )
        h = _mutant(hc)
        # β is memoized as a class row: integers over one denominator
        num, den = hc.beta((piece, i))
        col = dict(num)
        col[k] = -col[k]
        h._beta[(piece, i)] = col, den
        rep = les_check(h)
        assert not rep.pi_after_beta_is_B and not rep.passed
        assert [f for f in rep.failures if f.startswith("π*∘β")] == [f"π*∘β ≠ B at {piece} class {i}"]

    def test_B_with_a_dropped_sign(self, hc_poly2):
        hc = hc_poly2
        sl = hc.slice
        piece, i = next(key for key in _checked_classes(hc, lambda p: sl.hh(p).dim) if sl.B_class(key)[0])
        h = _mutant(hc)
        num, den = sl.B_class((piece, i))
        h.slice._B[(piece, i)] = {k: -v for k, v in num.items()}, den
        assert les_check(h) == LESReport(True, False, True, [f"π*∘β ≠ B at {piece} class {i}"])

    def test_pi_star_column_zeroed(self, hc_poly2):
        hc = hc_poly2
        # a class whose π* column is not in the span of the others
        for piece, i in _checked_classes(hc, lambda p: hc.dims()[p]):
            h = _mutant(hc)
            h._pi[(piece, i)] = {}, 1
            if _ranks(h, piece)[2] < _ranks(hc, piece)[2]:
                break
        else:
            pytest.fail("no π* column carries rank")
        hh_dim, rank_beta, rank_pi = _ranks(h, piece)
        rep = les_check(h)
        assert not rep.kernel_beta_is_image_pi and not rep.passed
        assert f"ker β ≠ im π* at {piece}: dim HH {hh_dim}, rk β {rank_beta}, rk π* {rank_pi}" in rep.failures

    def test_pi_star_column_zeroed_at_a_top_piece(self, hc_poly2):
        hc = hc_poly2
        sl = hc.slice
        # stable pieces with no chains one degree up at N or N + 1: HC⁻ is 0 there,
        # so β = 0 and exactness says π* is onto HH
        top = [p for p in hc.stable_dims() if not _stacked_basis_oracle(sl, p[0] + 1, p[1], hc.N + 1)]
        assert len(top) == 7 and any(sl.hh(p).dim for p in top)
        for piece in top:
            hh_dim = sl.hh(piece).dim
            assert all(_fractions(*hc.beta((piece, i))) == {} for i in range(hh_dim))
            assert _column_rank([hc.pi_star((piece, i)) for i in range(hc.dims()[piece])], piece, hh_dim) == hh_dim
        # a π* column not in the span of the others
        for piece, i in ((p, i) for p in top for i in range(hc.dims()[p])):
            h = _mutant(hc)
            h._pi[(piece, i)] = {}, 1
            hh_dim = sl.hh(piece).dim
            rank_pi = _column_rank([h.pi_star((piece, j)) for j in range(hc.dims()[piece])], piece, hh_dim)
            if rank_pi < hh_dim:
                break
        else:
            pytest.fail("no π* column carries rank at a top piece")
        rep = les_check(h)
        assert not rep.kernel_beta_is_image_pi and not rep.passed
        assert rep.failures == [f"ker β ≠ im π* at {piece}: dim HH {hh_dim}, rk β 0, rk π* {rank_pi}"]


class TestCyclicPeriodic:
    def test_zero_differential_cyclic_dims(self):
        sl = trivial_slice({0: 1, 1: 2, 2: 1})
        dims = cyclic_homology(sl)
        assert dims[(2, 0)] == 1 + 1  # C_2 + C_0
        assert dims[(1, 0)] == 2
        assert dims[(4, 0)] == 1 + 1  # C_4(=0) + C_2 + C_0

    def test_kx_weight_one_cyclic(self):
        P1 = make_truncated_polynomial_algebra(1, 2)
        sl = slice_from_hochschild(P1, 2)
        dims = cyclic_homology(sl)
        # weight 1: only HC_0 survives (the pair (x, (1,x̄)) cancels upstairs)
        assert dims.get((0, 1), 0) == 1
        assert dims.get((1, 1), 0) == 0
        assert dims.get((2, 1), 0) == 0

    def test_euler_characteristic_bookkeeping(self):
        # per weight, the alternating sum of HC dims in the reliable range
        # equals the alternating sum of the truncated complex dimensions
        P1 = make_truncated_polynomial_algebra(1, 2)
        sl = slice_from_hochschild(P1, 2)
        dims = cyclic_homology(sl)
        for w in sl.weights():
            if w == 0:
                continue
            d_lo = min(d for (d, _w) in sl.pieces)
            d_hi = max(d for (d, _w) in sl.pieces)
            top = d_hi + 2 * (d_hi - d_lo)
            chi_h = sum((-1) ** d * dims.get((d, w), 0) for d in range(d_lo, top + 1))
            chi_c = 0
            for d in range(d_lo, top + 1):
                i = 0
                while d - 2 * i >= d_lo:
                    chi_c += (-1) ** d * sl.dim((d - 2 * i, w))
                    i += 1
            assert chi_h == chi_c

    def test_periodic_window_and_margin(self):
        sl = trivial_slice({0: 1})
        dims, edge = periodic_homology(sl, N=2)
        assert dims[(0, 0)] == 1
        assert dims[(-2, 0)] == 1 and dims[(2, 0)] == 1
        assert 0 in edge  # a height-0 slice is all edge


# -- differential oracles: the builders that _transpose and _u_complex replaced --
#
# The dual slices used to be rebuilt functional by functional, applying the
# primal operator to every chain, and HC⁻, HC and HP each had their own
# u-stacked builder that scanned a block's entries once per column.  They are
# kept here verbatim as references for the transposes and the one builder.


def _hochschild_dual_by_functionals(A, w_max):
    from mixhom.hochschild import chain_basis, shifted_degree
    from mixhom.mixed import _mats_from_operator
    from test_hochschild import B_star, DualCochain, dual_coboundary

    chain_pieces = {}
    for w in range(w_max + 1):
        for p in range(w + 1):
            for t in chain_basis(A, p, w):
                chain_pieces.setdefault((shifted_degree(A, t), w), []).append(t)
    for labels in chain_pieces.values():
        labels.sort()
    pieces = {(-d, w): labels for (d, w), labels in chain_pieces.items()}
    all_chains = [t for labels in chain_pieces.values() for t in labels]

    def dual_b(t):
        deg = -shifted_degree(A, t)
        phi = DualCochain(A, deg, {t: Q(1)})
        return dual_coboundary(phi, all_chains).table

    def dual_B(t):
        deg = -shifted_degree(A, t)
        phi = DualCochain(A, deg, {t: Q(1)})
        return B_star(phi, all_chains).table

    b_mats = _mats_from_operator(pieces, dual_b, -1)
    B_mats = _mats_from_operator(pieces, dual_B, +1)
    return MixedComplexSlice(pieces, b_mats, B_mats)


def _poisson_dual_by_functionals(dual):
    from mixhom.mixed import _mats_from_operator

    F = dual.ctx.forms
    boundary_img = {m: poisson_boundary(dual.ctx, dual.pi, {m: Q(1)}) for m in dual_domain(dual)}
    d_img = {m: de_rham(dual.ctx, {m: Q(1)}) for m in dual_domain(dual)}

    def twisted(images, phi):
        degs = {-F.degree(m) for m, c in phi.items() if c}
        deg = degs.pop() if degs else 0
        sign = Q(-1) if deg % 2 else Q(1)
        out = {}
        for m in dual_domain(dual):
            total = Q(0)
            for mm, c in images[m].items():
                v = phi.get(mm)
                if v:
                    total += c * v
            if total:
                out[m] = sign * total
        return out

    pieces = {}
    for m in dual_domain(dual):
        pieces.setdefault((-F.degree(m), F.weight(m)), []).append(m)
    for labels in pieces.values():
        labels.sort()
    b_mats = _mats_from_operator(pieces, lambda m: twisted(boundary_img, {m: Q(1)}), -1)
    B_mats = _mats_from_operator(pieces, lambda m: twisted(d_img, {m: Q(1)}), +1)
    return MixedComplexSlice(pieces, b_mats, B_mats)


def _assert_same_slice(got, want):
    assert got.pieces == want.pieces
    for (d, w) in want.pieces:
        for piece in ((d, w), (d - 1, w), (d + 1, w)):
            assert got.b_matrix(piece) == want.b_matrix(piece), ("b", piece)
            assert got.B_matrix(piece) == want.B_matrix(piece), ("B", piece)


def _stacked_basis_oracle(sl, d, w, N):
    return [(i, k) for i in range(N + 1) for k in range(sl.dim((d + 2 * i, w)))]


def _hc_minus_matrix_oracle(sl, d, w, N):
    src = _stacked_basis_oracle(sl, d, w, N)
    tgt = _stacked_basis_oracle(sl, d - 1, w, N)
    tgt_idx = {t: i for i, t in enumerate(tgt)}
    entries = {}
    for j, (i, k) in enumerate(src):
        bm = sl.b_matrix((d + 2 * i, w))
        for (r, c), v in bm.entries.items():
            if c == k and (i, r) in tgt_idx:
                entries[(tgt_idx[(i, r)], j)] = v
        if i + 1 <= N:
            Bm = sl.B_matrix((d + 2 * i, w))
            for (r, c), v in Bm.entries.items():
                if c == k and (i + 1, r) in tgt_idx:
                    entries[(tgt_idx[(i + 1, r)], j)] = v
    return ExactMatrix(len(tgt), len(src), entries)


def _cyclic_homology_oracle(sl):
    degrees = sl.degrees()
    dims = {}
    if not degrees:
        return dims
    d_lo, d_hi = min(degrees), max(degrees)

    def basis(d, w):
        out = []
        i = 0
        while d - 2 * i >= d_lo:
            for k in range(sl.dim((d - 2 * i, w))):
                out.append((i, k))
            i += 1
        return out

    def matrix(d, w):
        src = basis(d, w)
        tgt = basis(d - 1, w)
        tgt_idx = {t: i for i, t in enumerate(tgt)}
        entries = {}
        for j, (i, k) in enumerate(src):
            for (r, c), v in sl.b_matrix((d - 2 * i, w)).entries.items():
                if c == k and (i, r) in tgt_idx:
                    entries[(tgt_idx[(i, r)], j)] = v
            if i - 1 >= 0:
                for (r, c), v in sl.B_matrix((d - 2 * i, w)).entries.items():
                    if c == k and (i - 1, r) in tgt_idx:
                        entries[(tgt_idx[(i - 1, r)], j)] = v
        return ExactMatrix(len(tgt), len(src), entries)

    for w in sl.weights():
        for d in range(d_lo, d_hi + 2 * (d_hi - d_lo) + 1):
            if not basis(d, w):
                continue
            dims[(d, w)] = homology_presentation(matrix(d + 1, w), matrix(d, w)).dim
    return dims


def _periodic_homology_oracle(sl, N):
    degrees = sl.degrees()
    dims = {}
    if not degrees:
        return dims, []
    d_lo, d_hi = min(degrees), max(degrees)

    def basis(d, w):
        out = []
        for i in range(-N, N + 1):
            for k in range(sl.dim((d + 2 * i, w))):
                out.append((i, k))
        return out

    def matrix(d, w):
        src = basis(d, w)
        tgt = basis(d - 1, w)
        tgt_idx = {t: i for i, t in enumerate(tgt)}
        entries = {}
        for j, (i, k) in enumerate(src):
            for (r, c), v in sl.b_matrix((d + 2 * i, w)).entries.items():
                if c == k and (i, r) in tgt_idx:
                    entries[(tgt_idx[(i, r)], j)] = v
            if i + 1 <= N:
                for (r, c), v in sl.B_matrix((d + 2 * i, w)).entries.items():
                    if c == k and (i + 1, r) in tgt_idx:
                        entries[(tgt_idx[(i + 1, r)], j)] = v
        return ExactMatrix(len(tgt), len(src), entries)

    for w in sl.weights():
        for d in range(d_lo - 2 * N, d_hi + 2 * N + 1):
            if not basis(d, w):
                continue
            dims[(d, w)] = homology_presentation(matrix(d + 1, w), matrix(d, w)).dim
    edge = [d for d in range(d_lo - 2 * N, d_hi + 2 * N + 1) if abs(d - d_lo) <= 2 or abs(d - d_hi) <= 2]
    return dims, edge


def _circulant_sides(c, w_max):
    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, {k: c * v for k, v in CIRCULANT.items()})
    ctxe = PoissonContext.make(3, "ext")
    pid = quadratic_bivector(ctxe, {(j1, j2, i1, i2): c * v for (i1, i2, j1, j2), v in CIRCULANT.items()})
    return slice_from_poisson(ctx, pi, w_max), DualSideByFunctionals(ctxe, pid, w_max=w_max)


class TestTransposeOracles:
    @pytest.mark.parametrize("n", [1, 2])
    def test_hochschild_dual_matches_functionals(self, n):
        A = make_exterior_algebra(n)
        _assert_same_slice(slice_from_hochschild_dual(A, 5), _hochschild_dual_by_functionals(A, 5))

    @pytest.mark.parametrize("c", [Q(1), Q(-7, 3)])
    def test_poisson_dual_matches_functionals(self, c):
        _, dual = _circulant_sides(c, 8)
        _assert_same_slice(slice_from_poisson_dual(dual), _poisson_dual_by_functionals(dual))

    def test_dual_side_operators_match_functionals(self):
        _, dual = _circulant_sides(Q(-7, 3), 5)
        want = _poisson_dual_by_functionals(dual)
        for (d, w), labels in want.pieces.items():
            for j, m in enumerate(labels):
                for got, matrix, shift in ((dual.coboundary({m: Q(1)}), want.b_matrix((d, w)), -1),
                                           (dual.d_star({m: Q(1)}), want.B_matrix((d, w)), 1)):
                    col = column(matrix, j)
                    tgt = want.pieces.get((d + shift, w), [])
                    assert got == {t: v for t, v in zip(tgt, col) if v}


def _counting(monkeypatch, module, names):
    """Replace each named function of a module by one that logs its arguments; {name: log}."""
    logs = {name: [] for name in names}
    for name, log in logs.items():
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, log=log: log.append(args) or fn(*args))
    return logs


def test_dual_poisson_slice_is_made_of_the_dual_side_matrices(monkeypatch):
    from mixhom import poisson as po

    _, dual = _circulant_sides(Q(1), 4)
    calls = _counting(monkeypatch, po, ("schouten", "_bracket_columns", "_d", "contract_monomial"))
    sl = slice_from_poisson_dual(dual)
    assert sl.pieces == dual.pieces
    assert sl.b_mats is dual.b_mats and sl.B_mats is dual.B_mats
    for piece in sl.pieces:
        for got, held in ((sl.b_matrix(piece), dual.b_mats), (sl.B_matrix(piece), dual.B_mats)):
            assert got is held[piece] if piece in held else not got.entries
    po.frobenius_poisson_check(dual)
    # the slice and the Frobenius square read the matrices the dual side
    # already holds; the one bracket taken is the Jacobi check [π, π], and
    # π is tabulated for it and once more for the square's δ
    assert calls["schouten"] == [(dual.ctx, dual.pi, dual.pi)]
    assert len(calls["_bracket_columns"]) == 2
    assert calls["_d"] == [] and not hasattr(po, "contraction")


_POISSON_ORACLE_CASES = {
    "poly2-c1": (2, "poly", {(1, 2, 1, 2): Q(1)}),
    "poly2-c-7/3": (2, "poly", {(1, 2, 1, 2): Q(-7, 3)}),
    "poly3-c1": (3, "poly", CIRCULANT),
    "poly3-c-7/3": (3, "poly", {k: Q(-7, 3) * v for k, v in CIRCULANT.items()}),
    "ext3-c1": (3, "ext", {(j1, j2, i1, i2): v for (i1, i2, j1, j2), v in CIRCULANT.items()}),
    "ext3-c-7/3": (3, "ext", {(j1, j2, i1, i2): Q(-7, 3) * v for (i1, i2, j1, j2), v in CIRCULANT.items()}),
    "zero": (3, "poly", {}),
    "not-poisson": (3, "poly", {(1, 1, 1, 2): Q(1), (2, 2, 2, 3): Q(1)}),
}


@pytest.mark.parametrize("case", sorted(_POISSON_ORACLE_CASES))
def test_poisson_operator_matrices_match_the_per_monomial_builds(case):
    # ∂ and d from the integer form columns against ∂ and d form by form, and δ from the
    # tabulated bracket against the odd-Laplacian bracket monomial by monomial
    from mixhom.calculus import MultivectorOps
    from mixhom.mixed import _poisson_complex

    n, side, coeffs = _POISSON_ORACLE_CASES[case]
    ctx = PoissonContext.make(n, side)
    pi = quadratic_bivector(ctx, coeffs)
    got, want = _poisson_complex(ctx, pi, 8), poisson_complex_by_forms(ctx, pi, 8)
    assert got == want
    ops = MultivectorOps(ctx, pi, -3, 5, 8)
    deltas = {piece: ops.delta_matrix(piece) for piece in ops.pieces()}
    assert deltas == {piece: delta_by_monomials(ctx, pi, ops.pieces(), piece) for piece in ops.pieces()}
    nonzero = any(M.entries for M in got[1].values()), any(M.entries for M in deltas.values())
    assert nonzero == ((False, False) if case == "zero" else (True, True))


def _assert_form_columns_once(calls, pi):
    """Within one weight, each form met d once and each (P, form) pair met contract_monomial at most once.

    The element-level contraction and d are gone from the package.
    """
    from mixhom import poisson as po

    for logged, key in ((calls["_d"], lambda ctx, m: (m,)),
                        (calls["contract_monomial"], lambda ctx, P, m: (P, m))):
        by_weight = {}
        for args in logged:
            k = key(*args)
            by_weight.setdefault(args[0].forms.weight(k[-1]), []).append(k)
        assert by_weight and all(len(keys) == len(set(keys)) for keys in by_weight.values())
    assert {P for _ctx, P, _m in calls["contract_monomial"]} <= set(pi)
    assert not hasattr(po, "contraction") and not hasattr(po, "de_rham")


def test_poisson_operator_matrices_count_their_work(monkeypatch):
    # exact work counts, so a return to per-column builds fails without timing:
    # δ tabulates π once for every piece, as integer columns that nothing
    # turns into Fractions, and ∂ and d read the integer form
    # columns, which apply d and each monomial of π to a form once per weight
    from mixhom import poisson as po
    from mixhom.calculus import MultivectorOps, poisson_bundle

    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, CIRCULANT)
    calls = _counting(monkeypatch, po, ("_bracket_columns", "schouten", "_d", "contract_monomial"))
    ops = MultivectorOps(ctx, pi, -3, 5, 8)
    for piece in ops.pieces():
        ops.delta_matrix(piece)
    assert [len(calls[name]) for name in ("_bracket_columns", "schouten")] == [1, 0]
    sl = slice_from_poisson(ctx, pi, 8)
    _assert_form_columns_once(calls, pi)
    # every form with forms one degree up is differentiated
    raised = {m for (e, w), labels in sl.pieces.items() if (e + 1, w) in sl.pieces for m in labels}
    assert raised <= {m for _ctx, m in calls["_d"]}
    # the one bracket taken is the Jacobi check [π, π]
    assert calls["schouten"] == [(ctx, pi, pi)] and len(calls["_bracket_columns"]) == 2
    poisson_bundle(ctx, pi, sl, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    assert [len(calls[name]) for name in ("_bracket_columns", "schouten")] == [3, 1]


def _circulant_dual_bivector(ctxe):
    return quadratic_bivector(ctxe, {(j1, j2, i1, i2): c for (i1, i2, j1, j2), c in CIRCULANT.items()})


def _one_entry(B_mats, m):
    return ExactMatrix(m.rows, m.cols, {(0, 0): 1})


def _exact_column(B_mats, m):
    # d(ξ1ξ2ξ3) added to the column of ξ3dξ2dξ3, which ∂ reaches: since
    # d∘d = 0, bB + Bb out of the dual piece (1, 3), checked first, still
    # vanishes, and b² out of (2, 3) is the first identity that fails
    return B_mats[(-3, 3)].matmul(ExactMatrix(1, m.cols, {(0, 1): 1}))


@pytest.mark.parametrize("source,which,piece,extra,identity,at,label", [
    ("hochschild", "b", (-1, 2), _one_entry, "b²=0", (2, 2), (3,)),
    ("hochschild", "B", (-1, 2), _one_entry, "B²=0", (0, 2), (0, 1, 1)),
    ("hochschild", "b", (0, 1), _one_entry, "bB+Bb=0", (1, 1), (1,)),
    ("poisson", "b", (-1, 3), _exact_column, "b²=0", (2, 3), (0, 1, 1, 1, 0, 0)),
    ("poisson", "B", (-3, 3), _one_entry, "B²=0", (1, 3), (0, 0, 1, 0, 1, 1)),
    ("poisson", "b", (0, 1), _one_entry, "bB+Bb=0", (0, 1), (0, 0, 0, 0, 0, 1)),
], ids=["hochschild-b2", "hochschild-B2", "hochschild-anti", "poisson-b2", "poisson-B2", "poisson-anti"])
def test_corrupted_raw_triple_fails_its_dual(monkeypatch, source, which, piece, extra, identity, at, label):
    # the primal triple is never validated on its own: a broken primal matrix
    # must surface in the one validation of the dual, at the dual piece
    from mixhom import mixed
    from mixhom.linalg import _accumulate

    raw = getattr(mixed, f"_{source}_complex")

    def corrupted(*args):
        pieces, b_mats, B_mats = raw(*args)
        mats = b_mats if which == "b" else B_mats
        m = mats[piece]
        mats[piece] = ExactMatrix(m.rows, m.cols, _accumulate(dict(m.entries), extra(B_mats, m).entries))
        return pieces, b_mats, B_mats

    monkeypatch.setattr(mixed, f"_{source}_complex", corrupted)
    if source == "hochschild":
        with pytest.raises(SliceAxiomError) as exc:
            slice_from_hochschild_dual(make_exterior_algebra(2), 3)
    else:
        ctxe = PoissonContext.make(3, "ext")
        dual = DualSide(ctxe, _circulant_dual_bivector(ctxe), w_max=3)  # holds the triple, checks nothing
        with pytest.raises(SliceAxiomError) as exc:
            slice_from_poisson_dual(dual)
    assert (exc.value.identity, exc.value.piece, exc.value.label) == (identity, at, label)


def test_each_dual_is_validated_once_and_each_boundary_taken_once(monkeypatch):
    from mixhom import poisson as po

    validated = []
    validate = MixedComplexSlice._validate
    monkeypatch.setattr(MixedComplexSlice, "_validate", lambda self: validated.append(self.name) or validate(self))
    calls = _counting(monkeypatch, po, ("schouten", "_d", "contract_monomial"))

    A = make_exterior_algebra(2)
    slice_from_hochschild_dual(A, 4)
    assert validated == [f"hochschild-dual({A.name})"]
    ctxe = PoissonContext.make(3, "ext")
    dual = DualSide(ctxe, _circulant_dual_bivector(ctxe), w_max=4)
    assert len(validated) == 1
    # ∂ and d are the integer form columns, d and each monomial of π applied
    # to a form once per weight
    _assert_form_columns_once(calls, dual.pi)
    work = {name: len(calls[name]) for name in ("_d", "contract_monomial")}
    assert calls["schouten"] == []
    slice_from_poisson_dual(dual)
    assert validated == [f"hochschild-dual({A.name})", "poisson-dual(3)"]
    # validating reads the held matrices; the one bracket is the Jacobi check [π, π]
    assert {name: len(calls[name]) for name in work} == work
    assert calls["schouten"] == [(ctxe, dual.pi, dual.pi)]


def _u_sources():
    yield slice_from_hochschild(make_exterior_algebra(1), 4)
    yield slice_from_hochschild(make_exterior_algebra(2), 4)
    yield slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 4)
    primal, dual = _circulant_sides(Q(1), 8)
    yield primal
    yield slice_from_poisson_dual(dual)


def _u_dims_oracle(sl, lo, hi, d_from, d_to):
    """Homology dimensions of the u-stacked complex over [lo, hi] alone, by Fraction elimination.

    The [lo, hi] matrix out of degree d is the HC⁻ matrix over [0, hi - lo]
    out of degree d + 2·lo.
    """
    dims = {}
    for w in sl.weights():
        for d in range(d_from, d_to + 1):
            d_out = _hc_minus_matrix_oracle(sl, d + 2 * lo, w, hi - lo)
            if d_out.cols:
                d_in = _hc_minus_matrix_oracle(sl, d + 1 + 2 * lo, w, hi - lo)
                dims[(d, w)] = d_out.cols - oracle_rank(d_out) - oracle_rank(d_in)
    return dims


class TestUComplexOracles:
    @pytest.fixture(scope="class")
    def sources(self):
        return list(_u_sources())

    def test_hc_minus_matrices_and_presentations(self, sources):
        from mixhom.mixed import _u_complex

        for sl in sources:
            N = default_truncation(sl)
            hc = NegativeCyclic(sl, N)
            d_lo, d_hi = min(sl.degrees()), max(sl.degrees())
            dims, stable = {}, {}
            for w in sl.weights():
                for d in range(d_lo - 2 * N - 1, d_hi + 2):
                    for M in (N, N + 1):
                        assert _u_complex(sl, d, w, 0, M) == _hc_minus_matrix_oracle(sl, d, w, M), (sl.name, d, w)
                    assert hc.stacked_basis(d, w) == _stacked_basis_oracle(sl, d, w, N)
                    if d < d_lo - 2 * N or d > d_hi or not _stacked_basis_oracle(sl, d, w, N):
                        with pytest.raises(WindowError):
                            hc.presentation((d, w))
                        continue
                    pres = homology_presentation(
                        _hc_minus_matrix_oracle(sl, d + 1, w, N), _hc_minus_matrix_oracle(sl, d, w, N)
                    )
                    assert hc.presentation((d, w)) == pres, (sl.name, d, w)
                    upper = homology_presentation(
                        _hc_minus_matrix_oracle(sl, d + 1, w, N + 1), _hc_minus_matrix_oracle(sl, d, w, N + 1)
                    )
                    dims[(d, w)] = pres.dim
                    stable[(d, w)] = pres.dim == upper.dim
            assert hc.dims() == dims, sl.name
            assert hc.stable == stable, sl.name

    def test_u_dims_halves_match_two_eliminations(self, sources):
        # both truncations from one elimination per matrix, against each
        # truncation eliminated on its own, over the HC⁻, HC and HP ranges
        from mixhom.mixed import _u_dims

        for sl in sources:
            N = default_truncation(sl)
            d_lo, d_hi = min(sl.degrees()), max(sl.degrees())
            d_top = d_hi + 2 * (d_hi - d_lo)
            K = (d_top + 1 - d_lo) // 2
            ranges = {
                "HC⁻": (0, N + 1, d_lo - 2 * (N + 1), d_hi),
                "HC": (-K, 0, d_lo, d_top),
                "HP": (-N, N, d_lo - 2 * N, d_hi + 2 * N),
            }
            for name, (lo, hi, d_from, d_to) in ranges.items():
                lower, upper = _u_dims(sl, lo, hi, d_from, d_to)
                assert lower == _u_dims_oracle(sl, lo, hi - 1, d_from, d_to), (sl.name, name)
                assert upper == _u_dims_oracle(sl, lo, hi, d_from, d_to), (sl.name, name)
                assert any(lower.values()), (sl.name, name)

    def test_cyclic_and_periodic_dims(self, sources):
        for sl in sources:
            assert cyclic_homology(sl) == _cyclic_homology_oracle(sl), sl.name
            assert periodic_homology(sl, 2) == _periodic_homology_oracle(sl, 2), sl.name


def hh_dims_oracle(sl):
    """b-homology dimensions from one presentation per piece, built outside the slice's memo."""
    return {(d, w): homology_presentation(sl.b_matrix((d + 1, w)), sl.b_matrix((d, w))).dim
            for (d, w) in sorted(sl.pieces)}


def test_hh_dims_match_presentations():
    for sl in [*_u_sources(), *(make() for make in CLI_BATCH_SLICES.values())]:
        assert sl.hh_dims() == hh_dims_oracle(sl), sl.name


def test_reading_dims_builds_no_presentation(monkeypatch):
    from mixhom import mixed

    built = []
    build = mixed.homology_presentation
    monkeypatch.setattr(mixed, "homology_presentation", lambda *args: built.append(args) or build(*args))
    sl = slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 3)
    assert any(sl.hh_dims().values())
    hc = NegativeCyclic(sl, default_truncation(sl))
    assert hc.dims() and hc.stable_dims()
    assert built == [] and hc._pres == {} and sl._hh == {}
    piece = next(p for p, dim in hc.stable_dims().items() if dim)
    hc.pi_star((piece, 0))
    assert set(hc._pres) == {piece}


def u_ranges(sl, N):
    """The u-ranges [lo, hi] that ``_u_dims`` reads: HC⁻ [0, N + 1], HC [-K, 0], HP [-N, N] and HH [0, 0]."""
    d_lo, d_hi = min(sl.degrees()), max(sl.degrees())
    K = (d_hi + 2 * (d_hi - d_lo) + 1 - d_lo) // 2  # as in cyclic_homology
    return [(0, N + 1), (-K, 0), (-N, N), (0, 0)]


def assert_u_stacked_squares_to_zero(sl, N):
    """(b + uB)² = 0 by products, on every u-range and stacked degree: the proof in ``mixed._u_dims``, checked."""
    d_lo, d_hi = min(sl.degrees()), max(sl.degrees())
    for lo, hi in u_ranges(sl, N):
        for w in sl.weights():
            # component i of stacked degree d is the slice degree d + 2i
            for d in range(d_lo - 2 * hi - 1, d_hi - 2 * lo + 1):
                square = _u_complex(sl, d, w, lo, hi).matmul(_u_complex(sl, d + 1, w, lo, hi))
                assert square.is_zero(), (sl.name, (lo, hi), d, w)


def test_u_stacked_homology_multiplies_no_matrices(monkeypatch):
    # d∘d = 0 is checked once, when the slice is validated: the dimensions,
    # presentations, HC and HP read off it multiply no matrix
    primal, dual = _circulant_sides(Q(1), 5)
    slices = [slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 3), primal, slice_from_poisson_dual(dual)]
    products = []
    matmul = ExactMatrix.matmul
    monkeypatch.setattr(ExactMatrix, "matmul", lambda *args: products.append(args) or matmul(*args))
    for sl in slices:
        N = default_truncation(sl)
        hc = NegativeCyclic(sl, N)
        assert any(hc.dims().values()) and any(sl.hh_dims().values())
        for piece in sorted(sl.pieces):
            sl.hh(piece)
        for piece in hc.dims():
            hc.presentation(piece)
        assert any(cyclic_homology(sl).values()) and any(periodic_homology(sl, N)[0].values())
        assert products == [], sl.name


# -- differential oracle: _u_dims on matrices, as it was ------------------------------
#
# _u_dims used to build the ExactMatrix of each stacked degree, read its
# rows back with row_dicts and split them at component hi, eliminating with
# the arrival-order echelon.  It is kept here verbatim as the reference for
# the rows that _u_rows hands to the pivot-indexed echelon.


def oracle_u_dims(sl, lo, hi, d_from, d_to):
    lower, upper = {}, {}  # {piece: dimension} over [lo, hi - 1] and over [lo, hi]

    def ranks(M, d, w):
        rows = M.row_dicts()
        split = M.rows - sl.dim((d - 1 + 2 * hi, w))
        echelon = oracle_row_echelon(rows[:split])
        r_lower = len(echelon)
        return r_lower, len(oracle_row_echelon(rows[split:], echelon))

    for w in sl.weights():
        d_out = _u_complex(sl, d_from, w, lo, hi)
        r_out = ranks(d_out, d_from, w)
        for d in range(d_from, d_to + 1):
            d_in = _u_complex(sl, d + 1, w, lo, hi)
            r_in = ranks(d_in, d + 1, w)
            if d_out.cols:
                upper[(d, w)] = d_out.cols - r_out[1] - r_in[1]
                cols = d_out.cols - sl.dim((d + 2 * hi, w))
                if cols:
                    lower[(d, w)] = cols - r_out[0] - r_in[0]
            d_out, r_out = d_in, r_in
    return lower, upper


def test_u_dims_match_the_matrix_path_on_every_u_range():
    from mixhom.mixed import _u_dims

    for sl in [*_u_sources(), *(make() for make in CLI_BATCH_SLICES.values())]:
        d_lo, d_hi = min(sl.degrees()), max(sl.degrees())
        for lo, hi in u_ranges(sl, default_truncation(sl)):
            # every stacked degree with chains, and one past each end
            d_from, d_to = d_lo - 2 * hi - 1, d_hi - 2 * lo + 1
            got = _u_dims(sl, lo, hi, d_from, d_to)
            assert got == oracle_u_dims(sl, lo, hi, d_from, d_to), (sl.name, lo, hi)
            assert any(got[1].values()), (sl.name, lo, hi)


def test_hc_minus_hc_and_hh_ranks_build_no_stacked_matrix(monkeypatch):
    # the gravity-check primal slice (π, w 8): the ranks eliminate the stacked rows as they are built, and
    # make as many row combinations as the arrival-order kernel on the built matrices did
    from mixhom import linalg, mixed

    ctx = PoissonContext.make(3, "poly")
    sl = slice_from_poisson(ctx, quadratic_bivector(ctx, CIRCULANT), 8)
    calls = {"_cancel": 0, "_u_complex": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    count(linalg, "_cancel")
    count(mixed, "_u_complex")
    hc = NegativeCyclic(sl, default_truncation(sl))
    assert calls == {"_cancel": 2526, "_u_complex": 0}
    assert any(hc.dims().values()) and any(cyclic_homology(sl).values()) and any(sl.hh_dims().values())
    assert calls == {"_cancel": 5228, "_u_complex": 0}


# -- differential oracles: the coordinate-taking LES maps ---------------------------
#
# π*, β and the b-homology class vector used to take a coordinate tuple and
# run a dense Fraction loop over a whole cycle basis; les_check called them
# once per class and per check.  They are kept here as references for
# NegativeCyclic's memoized per-class columns and the les_check built on them,
# on dense cycle bases densified from the stored rows (test_linalg.dense_cycles).
# les_check_oracle also checks the rank at the stable top pieces, whose piece
# one degree up has no chains at N or N + 1.


def _unit(i, n):
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def _as_classes(piece, coords):
    return {(piece, j): c for j, c in enumerate(coords) if c}


def pi_star_oracle(hc, piece, coords):
    """HC⁻ class (coordinates in pres) -> b-homology class of the u⁰ part."""
    d, w = piece
    pres = hc.presentation(piece)
    vec = [Q(0)] * pres.ambient_dim
    for c, rep in zip(coords, dense_cycles(pres)):
        if c:
            for i, v in enumerate(rep):
                vec[i] += c * v
    x0 = vec[: hc.slice.dim((d, w))]
    return hc.slice.hh((d, w)).reduce(sparse_vec(x0))


def beta_oracle(hc, piece, coords):
    """b-homology class -> HC⁻ class of B(representative) one degree up."""
    d, w = piece
    hh = hc.slice.hh((d, w))
    rep = [Q(0)] * hh.ambient_dim
    for c, r in zip(coords, dense_cycles(hh)):
        if c:
            for i, v in enumerate(r):
                rep[i] += c * v
    img = apply_fractions(hc.slice.B_matrix((d, w)), sparse_vec(rep))
    if (d + 1, w) not in hc.dims():
        # B(x) ≠ 0 would lie in a piece with chains, and that piece has an HC⁻ presentation
        assert not img
        return ()
    # the u⁰ component comes first in the stacked basis
    target = hc.presentation((d + 1, w))
    vec = [Q(0)] * target.ambient_dim
    for idx, val in img.items():
        vec[idx] = val
    return target.reduce(sparse_vec(vec))


def hh_class_vector_oracle(hc, piece, coords):
    hh = hc.slice.hh(piece)
    rep = [Q(0)] * hh.ambient_dim
    for c, r in zip(coords, dense_cycles(hh)):
        if c:
            for i, v in enumerate(r):
                rep[i] += c * v
    return tuple(rep)


def les_check_oracle(hc):
    """Long-exact-sequence diagnostics on every stable piece, class by class."""
    sl = hc.slice
    failures: list[str] = []
    ok_bp = ok_pb = ok_rank = True
    for piece in hc.stable_dims():
        d, w = piece
        # no chains one degree up at N or N + 1: HC⁻ is 0 there, so only the rank check applies
        top = not _stacked_basis_oracle(sl, d + 1, w, hc.N + 1)
        if not hc.stable.get((d + 1, w), top):
            continue
        pres = hc.presentation(piece)
        # β∘π* on every HC⁻ basis class
        for i in range(pres.dim):
            coords = tuple(Q(1) if j == i else Q(0) for j in range(pres.dim))
            hh_coords = pi_star_oracle(hc, piece, coords)
            if any(hh_coords) and (d + 1, w) in hc.dims():
                img = beta_oracle(hc, piece, hh_coords)
                if any(img):
                    ok_bp = False
                    failures.append(f"β∘π* ≠ 0 at {piece} class {i}")
        # π*∘β = B on every HH basis class
        hh = sl.hh(piece)
        if (d + 1, w) in hc.dims():
            for i in range(hh.dim):
                coords = tuple(Q(1) if j == i else Q(0) for j in range(hh.dim))
                bcls = beta_oracle(hc, piece, coords)
                lhs = pi_star_oracle(hc, (d + 1, w), bcls)
                rep = hh_class_vector_oracle(hc, piece, coords)
                rhs = sl.hh((d + 1, w)).reduce(apply_fractions(sl.B_matrix(piece), sparse_vec(rep)))
                if lhs != rhs:
                    ok_pb = False
                    failures.append(f"π*∘β ≠ B at {piece} class {i}")
        # rank bookkeeping: dim ker β = rank π* on HH at this piece
        if (d + 1, w) in hc.dims() or top:
            beta_cols = []
            for i in range(hh.dim):
                coords = tuple(Q(1) if j == i else Q(0) for j in range(hh.dim))
                beta_cols.append(beta_oracle(hc, piece, coords))
            rank_beta = (
                from_columns(beta_cols).rank() if beta_cols and any(any(c) for c in beta_cols) else 0
            )
            pi_cols = []
            for i in range(pres.dim):
                coords = tuple(Q(1) if j == i else Q(0) for j in range(pres.dim))
                pi_cols.append(pi_star_oracle(hc, piece, coords))
            rank_pi = (
                from_columns(pi_cols).rank() if pi_cols and any(any(c) for c in pi_cols) else 0
            )
            if hh.dim - rank_beta != rank_pi:
                ok_rank = False
                failures.append(f"ker β ≠ im π* at {piece}: dim HH {hh.dim}, rk β {rank_beta}, rk π* {rank_pi}")
    return LESReport(ok_bp, ok_pb, ok_rank, failures)


def assert_les_matches_oracle(hc):
    """π* on every HC⁻ class, β and B on every b-homology class, and the
    whole report, against the oracles; returns the report."""
    sl = hc.slice
    for piece, dim in hc.dims().items():
        for i in range(dim):
            assert _fractions(*hc.pi_star((piece, i))) == _as_classes(piece, pi_star_oracle(hc, piece, _unit(i, dim)))
    for piece in sl.pieces:
        d, w = piece
        hh = sl.hh(piece)
        for i in range(hh.dim):
            coords = _unit(i, hh.dim)
            assert _fractions(*hc.beta((piece, i))) == _as_classes((d + 1, w), beta_oracle(hc, piece, coords)), (piece, i)
            img = apply_fractions(sl.B_matrix(piece), sparse_vec(hh_class_vector_oracle(hc, piece, coords)))
            assert _fractions(*sl.B_class((piece, i))) == _as_classes((d + 1, w), sl.hh((d + 1, w)).reduce(img))
    report = les_check(hc)
    assert report == les_check_oracle(hc)
    return report


# the Hochschild slices of the cli-batch jobs poly2, ext3 and poly3
CLI_BATCH_SLICES = {
    "poly2": lambda: slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 3),
    "ext3": lambda: slice_from_hochschild(make_exterior_algebra(3), 4),
    "poly3": lambda: slice_from_hochschild(make_truncated_polynomial_algebra(3, 4), 3),
}


@pytest.mark.parametrize("name", sorted(CLI_BATCH_SLICES))
def test_les_matches_oracle_on_cli_batch_slices(name):
    sl = CLI_BATCH_SLICES[name]()
    report = assert_les_matches_oracle(NegativeCyclic(sl, default_truncation(sl)))
    assert report.passed


def test_pi_star_outside_the_window_raises():
    sl = slice_from_hochschild(make_exterior_algebra(1), 2)
    hc = NegativeCyclic(sl, default_truncation(sl))
    with pytest.raises(WindowError):
        hc.pi_star(((0, 99), 0))
