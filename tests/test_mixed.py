from fractions import Fraction

import pytest

from mixhom.algebra import make_exterior_algebra, make_truncated_polynomial_algebra
from mixhom.linalg import ExactMatrix, homology_presentation
from mixhom.mixed import (
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
)
from mixhom.poisson import DualSide, PoissonContext, quadratic_bivector

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


class TestLESMaps:

    def test_pi_star_kills_u_multiples(self, hc_lambda1):
        hc = hc_lambda1
        # a class with zero constant term maps to zero
        for piece, pres in hc.pres.items():
            d, w = piece
            n0 = hc.slice.dim((d, w))
            for i in range(pres.dim):
                rep = pres.cycle_basis[i]
                if all(c == 0 for c in rep[:n0]):
                    coords = tuple(Q(1) if j == i else Q(0) for j in range(pres.dim))
                    assert not any(hc.pi_star(piece, coords))

    def test_beta_of_unit_class_vanishes(self, hc_lambda1):
        hc = hc_lambda1
        # B(1) = 0 in the reduced complex, so β of the unit class is 0
        piece = (0, 0)
        hh = hc.slice.hh(piece)
        assert hh.dim == 1
        assert not any(hc.beta(piece, (Q(1),)))

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

    def test_beta_representative_independence(self, hc_lambda1):
        hc = hc_lambda1
        # β[x] = β[x + b(y)]: perturb each homology representative by boundaries
        sl = hc.slice
        for piece in sorted(hc.pres):
            d, w = piece
            if (d + 1, w) not in hc.pres:
                continue
            hh = sl.hh(piece)
            if not hh.dim or not hh.boundary_basis:
                continue
            for i in range(hh.dim):
                coords = tuple(Q(1) if j == i else Q(0) for j in range(hh.dim))
                base = hc.beta(piece, coords)
                # perturbation: reduce(rep + boundary) has the same coordinates,
                # so β computed through the presentation is representative-free;
                # verify by reducing the perturbed cycle first
                rep = list(hc.hh_class_vector(piece, coords))
                for k, v in enumerate(hh.boundary_basis[0]):
                    rep[k] += v
                again = hh.reduce(tuple(rep))
                assert hc.beta(piece, again) == base


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


# -- differential oracles: the builders that dual_slice and _u_complex replaced --
#
# The dual slices used to be rebuilt functional by functional, applying the
# primal operator to every chain, and HC⁻, HC and HP each had their own
# u-stacked builder that scanned a block's entries once per column.  They are
# kept here verbatim as references for the transposes and the one builder.


def _hochschild_dual_by_functionals(A, w_max):
    from mixhom.hochschild import B_star, DualCochain, chain_basis, dual_coboundary, shifted_degree
    from mixhom.mixed import _mats_from_operator

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
    from mixhom.poisson import de_rham, poisson_boundary

    F = dual.ctx.forms
    boundary_img = {m: poisson_boundary(dual.ctx, dual.pi, {m: Q(1)}) for m in dual.domain}
    d_img = {m: de_rham(dual.ctx, {m: Q(1)}) for m in dual.domain}

    def twisted(images, phi):
        degs = {-F.degree(m) for m, c in phi.items() if c}
        deg = degs.pop() if degs else 0
        sign = Q(-1) if deg % 2 else Q(1)
        out = {}
        for m in dual.domain:
            total = Q(0)
            for mm, c in images[m].items():
                v = phi.get(mm)
                if v:
                    total += c * v
            if total:
                out[m] = sign * total
        return out

    pieces = {}
    for m in dual.domain:
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
    return slice_from_poisson(ctx, pi, w_max), DualSide(ctxe, pid, w_max=w_max)


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
                    col = matrix.column(j)
                    tgt = want.pieces.get((d + shift, w), [])
                    assert got == {t: v for t, v in zip(tgt, col) if v}


def test_dual_poisson_slice_is_made_of_the_dual_side_matrices(monkeypatch):
    from mixhom import poisson as po

    _, dual = _circulant_sides(Q(1), 4)
    calls = []
    boundary = po.poisson_boundary
    monkeypatch.setattr(po, "poisson_boundary", lambda *args: calls.append(args) or boundary(*args))
    sl = slice_from_poisson_dual(dual)
    for piece in sl.pieces:
        assert sl.b_matrix(piece) is dual.coboundary_matrix(piece)
        assert sl.B_matrix(piece) is dual.d_star_matrix(piece)
    for m in dual.domain:
        dual.coboundary({m: Q(1)})
    # ∂ of a form is taken at most once, for the one δ matrix it is a row of
    forms = [next(iter(omega)) for _ctx, _pi, omega in calls]
    assert len(forms) == len(set(forms)) > 0


def _u_sources():
    yield slice_from_hochschild(make_exterior_algebra(1), 4)
    yield slice_from_hochschild(make_exterior_algebra(2), 4)
    yield slice_from_hochschild(make_truncated_polynomial_algebra(2, 4), 4)
    primal, dual = _circulant_sides(Q(1), 8)
    yield primal
    yield slice_from_poisson_dual(dual)


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
            stable = {}
            for w in sl.weights():
                for d in range(d_lo - 2 * N - 1, d_hi + 2):
                    for M in (N, N + 1):
                        assert _u_complex(sl, d, w, 0, M) == _hc_minus_matrix_oracle(sl, d, w, M), (sl.name, d, w)
                    assert hc.stacked_basis(d, w) == _stacked_basis_oracle(sl, d, w, N)
                    if d < d_lo - 2 * N or d > d_hi or not _stacked_basis_oracle(sl, d, w, N):
                        continue
                    pres = homology_presentation(
                        _hc_minus_matrix_oracle(sl, d + 1, w, N), _hc_minus_matrix_oracle(sl, d, w, N)
                    )
                    assert hc.pres[(d, w)] == pres, (sl.name, d, w)
                    upper = homology_presentation(
                        _hc_minus_matrix_oracle(sl, d + 1, w, N + 1), _hc_minus_matrix_oracle(sl, d, w, N + 1)
                    )
                    stable[(d, w)] = pres.dim == upper.dim
            assert set(hc.pres) == set(stable)
            assert hc.stable == stable

    def test_cyclic_and_periodic_dims(self, sources):
        for sl in sources:
            assert cyclic_homology(sl) == _cyclic_homology_oracle(sl), sl.name
            assert periodic_homology(sl, 2) == _periodic_homology_oracle(sl, 2), sl.name
