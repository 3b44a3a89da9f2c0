import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import mixhom.linalg as linalg
from mixhom.linalg import (
    DimensionMismatchError,
    ExactMatrix,
    HomologyPresentation,
    NotAComplexError,
    _accumulate,
    _cancel,
    _check_complex,
    _denominator,
    _fractions,
    _iaccumulate_over,
    _iexpand,
    _image_rows,
    _integer_row,
    _integer_rref,
    _kernel_rows,
    _lowest,
    _positive,
    _primitive,
    _row_echelon,
    _sparse_rank,
    homology_presentation,
)

Q = Fraction
ZERO = Q(0)
ONE = Q(1)


# -- dense Fraction views of the integer kernel ----------------------------------
#
# The package passes sparse rows only.  The tests and their oracles still
# speak dense Fraction vectors, so these views of the integer kernel live
# here: the dense front end the package had, on the same private routines.


def _rational_vec(p, r, n):
    """The rational row proportional to the integer row r, with 1 at its pivot p, as a dense vector of length n."""
    a = r[p]
    return tuple(Fraction(r[j], a) if j in r else ZERO for j in range(n))


def from_columns(columns, rows=None):
    """The matrix with the given dense columns."""
    if rows is None:
        rows = len(columns[0]) if columns else 0
    entries = {}
    for j, col in enumerate(columns):
        if len(col) != rows:
            raise DimensionMismatchError("ragged columns")
        for i, v in enumerate(col):
            if v != 0:
                entries[(i, j)] = Q(v)
    return ExactMatrix(rows, len(columns), entries)


def column(M, j):
    """Column j of M as a dense vector."""
    return tuple(M.entries.get((i, j), ZERO) for i in range(M.rows))


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows: (nonzero rows sorted by pivot, pivot columns)."""
    reduced = _integer_rref(_integer_row(row) for row in rows)
    return [_fractions(r, r[p]) for p, r in reduced], [p for p, _ in reduced]


def kernel_basis(M):
    """Canonical basis of ker M, ordered by free column index."""
    return [_rational_vec(f, v, M.cols) for f, v in _kernel_rows(M.row_dicts(), M.cols)]


def span_basis(vectors, dim):
    """Canonical (RREF) basis of the span of the given vectors."""
    rows = []
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError("vector length mismatch")
        rows.append({j: Q(c) for j, c in enumerate(v) if c != 0})
    return [_rational_vec(p, r, dim) for p, r in _integer_rref(_integer_row(row) for row in rows)]


def image_basis(M):
    """Canonical basis of the column space of M."""
    return [_rational_vec(p, r, M.rows) for p, r in _image_rows(M)]


def solve_in_span(vectors, target):
    """Coefficients expressing target in the span of vectors, or None.

    Raises DimensionMismatchError if the vectors and target do not share a
    dimension.  Eliminates the rows of [v | e_k], so that the augmented part
    tracks the coefficients.
    """
    if not vectors:
        if any(Q(c) != 0 for c in target):
            return None
        return ()
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError("span vectors of unequal dimension")
    if len(target) != dim:
        raise DimensionMismatchError("target dimension mismatch")
    n = len(vectors)
    rows = []
    for k, v in enumerate(vectors):
        r = {j: Q(c) for j, c in enumerate(v) if c != 0}
        r[dim + k] = ONE
        rows.append(r)
    reduced, pivots = rref(rows, dim + n)
    t = {j: Q(c) for j, c in enumerate(target) if c != 0}
    coeffs = [ZERO] * n
    for p, row in zip(pivots, reduced):
        if p >= dim:
            continue
        c = t.get(p)
        if not c:
            continue
        for j, v in row.items():
            if j < dim:
                s = t.get(j, ZERO) - c * v
                if s == 0:
                    t.pop(j, None)
                else:
                    t[j] = s
            else:
                coeffs[j - dim] += c * v
    if t:
        return None
    return tuple(coeffs)


def sparse_vec(v):
    """A dense vector as the sparse {index: coefficient} that crosses module boundaries."""
    return {j: c for j, c in enumerate(v) if c}


def row_of(vec):
    """A sparse rational vector as the integer row (num, den) that ``ExactMatrix.apply`` takes."""
    den = _denominator(vec.values())
    return {j: int(c * den) for j, c in vec.items() if c}, den


def apply_fractions(M, vec):
    """M·vec for a sparse rational vector, as the sparse Fractions of the integer row ``ExactMatrix.apply`` returns."""
    return _fractions(*M.apply(row_of(vec)))


def dense_rows(rows, n):
    """Stored (pivot, integer row) pairs as dense Fraction vectors with 1 at the pivot."""
    return [tuple(Q(r.get(j, 0), r[p]) for j in range(n)) for p, r in rows]


def dense_cycles(pres):
    """The homology representatives of a presentation as dense vectors."""
    return dense_rows(pres.reps, pres.ambient_dim)


def dense_boundaries(pres):
    """The boundary basis of a presentation as dense vectors."""
    return dense_rows(pres.boundaries, pres.ambient_dim)


def assert_integer_rows(pres):
    """Every stored row is a primitive row of ints, keys ascending from a positive pivot entry."""
    for p, row in pres.boundaries + pres.reps:
        assert all(type(v) is int for v in row.values()), row
        assert list(row) == sorted(row) and min(row) == p and row[p] > 0, (p, row)
        assert gcd(*row.values()) == 1, row


def test_kernel_of_zero_map_is_identity_basis():
    M = ExactMatrix.zero(3, 3)
    basis = kernel_basis(M)
    assert basis == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(ExactMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])) == []


def test_kernel_of_1x2_row():
    # [[1, 2]] reduces to itself; free column 1 gives (-2, 1)
    M = ExactMatrix.from_rows([[1, 2]])
    assert kernel_basis(M) == [(Q(-2), Q(1))]


def test_solve_not_in_span():
    assert solve_in_span([(Q(1), Q(0))], (Q(0), Q(1))) is None


def test_solve_standard_basis():
    coeffs = solve_in_span([(Q(1), Q(0)), (Q(0), Q(1))], (Q(3), Q(5)))
    assert coeffs == (Q(3), Q(5))


def test_solve_scaling():
    coeffs = solve_in_span([(Q(2), Q(4))], (Q(1), Q(2)))
    assert coeffs == (Q(1, 2),)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_in_span([(Q(1), Q(0))], (Q(1),))


def test_homology_zero_maps():
    d_in = ExactMatrix.zero(2, 0)
    d_out = ExactMatrix.zero(0, 2)
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 2


def test_homology_identity_in():
    d_in = ExactMatrix.from_rows([[1, 0], [0, 1]])
    d_out = ExactMatrix.zero(0, 2)
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 0


def test_two_step_complex():
    # k -> k^2 -> k with d_in = (1,1)^T, d_out = (1,-1): exact in the middle
    d_in = from_columns([(Q(1), Q(1))])
    d_out = ExactMatrix.from_rows([[1, -1]])
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 0


def test_not_a_complex_reports_column():
    # homology_presentation trusts its inputs; the check lives where a complex is built
    d_in = ExactMatrix.from_rows([[1, 0], [0, 1]])
    d_out = ExactMatrix.from_rows([[1, 0]])
    with pytest.raises(NotAComplexError) as exc:
        _check_complex(d_in, d_out)
    assert exc.value.column == 0


def test_presentation_reduction_properties():
    # circle-like complex: d_out = 0, d_in has rank 1 inside k^3
    d_in = from_columns([(Q(1), Q(1), Q(0)), (Q(2), Q(2), Q(0))])
    d_out = ExactMatrix.zero(0, 3)
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 2
    for b in dense_boundaries(pres):
        assert all(c == 0 for c in pres.reduce(sparse_vec(b)))
    for i in range(pres.dim):
        coords = pres.reduce(_fractions(*pres.cycle(i)))
        assert coords == tuple(Q(int(j == i)) for j in range(pres.dim))
    assert [sparse_vec(v) for v in dense_cycles(pres)] == [_fractions(*pres.cycle(i)) for i in range(pres.dim)]


def test_stored_rows_are_integers_with_positive_pivots():
    # the image of (-2, 4, 0) is spanned by (1, -2, 0): stored as the row {0: 1, 1: -2}
    d_in = from_columns([(Q(-2), Q(4), Q(0)), (Q(0), Q(0), Q(-3, 2))])
    d_out = ExactMatrix.zero(0, 3)
    pres = homology_presentation(d_in, d_out)
    assert pres.boundaries == ((0, {0: 1, 1: -2}), (2, {2: 1}))
    assert pres.reps == ((1, {1: 1}),)
    assert_integer_rows(pres)
    # a representative with a negative leading kernel entry is stored with a positive pivot
    pres = homology_presentation(ExactMatrix.zero(2, 0), ExactMatrix.from_rows([[2, 6]]))
    assert pres.reps == ((0, {0: 3, 1: -1}),)
    assert _fractions(*pres.cycle(0)) == {0: Q(1), 1: Q(-1, 3)}
    assert_integer_rows(pres)


def test_rank_nullity_checked():
    M = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert M.rank() + len(kernel_basis(M)) == M.cols


small_fracs = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fracs, min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_kernel_vectors_really_in_kernel(rows):
    M = ExactMatrix.from_rows(rows)
    for v in kernel_basis(M):
        assert M.apply(row_of(sparse_vec(v))) == ({}, 1)
    # determinism: same input, same output
    assert kernel_basis(M) == kernel_basis(ExactMatrix.from_rows(rows))


def apply_by_scan(M, vec):
    """M·vec for a sparse rational vector by a scan of every entry, in Fractions: the reference for ``apply``."""
    out = {}
    for (i, j), v in M.entries.items():
        out[i] = out.get(i, 0) + v * vec.get(j, 0)
    return {i: c for i, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_apply_matches_a_scan_of_every_entry(rows, vectors):
    # one matrix applied to several rows: the first call indexes its entries by column, the rest read the index
    M = ExactMatrix.from_rows(rows)
    for v in vectors:
        assert apply_fractions(M, sparse_vec(v)) == apply_by_scan(M, sparse_vec(v))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(small_fracs, min_size=1, max_size=3),
)
def test_solve_reproduces_target(vectors, coeffs):
    n = min(len(vectors), len(coeffs))
    vectors = [tuple(v) for v in vectors[:n]]
    coeffs = coeffs[:n]
    target = [sum((c * v[j] for c, v in zip(coeffs, vectors)), Q(0)) for j in range(4)]
    sol = solve_in_span(vectors, target)
    assert sol is not None
    rebuilt = [sum((c * v[j] for c, v in zip(sol, vectors)), Q(0)) for j in range(4)]
    assert rebuilt == target


def test_image_basis_canonical():
    M = from_columns([(Q(1), Q(1)), (Q(2), Q(2)), (Q(0), Q(1))])
    basis = image_basis(M)
    assert basis == [(Q(1), Q(0)), (Q(0), Q(1))]


# -- differential oracle: HomologyPresentation.reduce as it was ----------------


def reduce_by_solve_in_span(pres, vec):
    """The reduction as it was: one solve_in_span, with a fresh RREF, per call, on the
    dense form of a sparse vector."""
    n = pres.ambient_dim
    if any(not 0 <= j < n for j in vec):
        raise DimensionMismatchError("vector index outside the ambient dimension")
    boundaries = dense_boundaries(pres)
    coeffs = solve_in_span(boundaries + dense_cycles(pres), tuple(Q(vec.get(j, 0)) for j in range(n)))
    if coeffs is None:
        raise ValueError("vector is not a cycle of this presentation")
    return tuple(coeffs[len(boundaries):])


def _combine(coeffs, vectors, dim):
    return tuple(sum((c * v[j] for c, v in zip(coeffs, vectors)), Q(0)) for j in range(dim))


def assert_reduce_matches_oracle(pres, rng, combos=3):
    """reduce = oracle on every representative and on random in-span vectors;
    both paths raise ValueError on a vector outside the span."""
    gens = dense_boundaries(pres) + dense_cycles(pres)
    n = pres.ambient_dim
    vecs = dense_cycles(pres)
    for _ in range(combos if gens else 0):
        vecs.append(_combine([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in gens], gens, n))
    for v in vecs:
        assert pres.reduce(sparse_vec(v)) == reduce_by_solve_in_span(pres, sparse_vec(v))
    if len(gens) < n:
        base = vecs[-1] if vecs else (Q(0),) * n
        for j in range(n):
            unit = tuple(Q(int(k == j)) for k in range(n))
            if solve_in_span(gens, unit) is None:
                bad = sparse_vec(a + b for a, b in zip(base, unit))
                with pytest.raises(ValueError):
                    pres.reduce(bad)
                with pytest.raises(ValueError):
                    reduce_by_solve_in_span(pres, bad)
                break
        else:
            raise AssertionError("span is the whole space although it has fewer generators")
    return len(vecs)


def test_reduce_rejects_wrong_length():
    pres = homology_presentation(ExactMatrix.zero(2, 0), ExactMatrix.zero(0, 2))
    for bad in ({2: Q(1)}, {-1: Q(1)}, {0: Q(1), 5: Q(0)}):
        with pytest.raises(DimensionMismatchError):
            pres.reduce(bad)
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.from_rows([[1, 0], [0, 1]]).apply(({2: 1}, 1))


small_ints = st.integers(min_value=-3, max_value=3)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_reduce_matches_oracle_on_random_complexes(n, data):
    rows = data.draw(st.lists(st.lists(small_fracs, min_size=n, max_size=n), min_size=1, max_size=4))
    d_out = ExactMatrix.from_rows(rows)
    kernel = kernel_basis(d_out)
    # boundaries are combinations of kernel vectors, so d_out o d_in = 0
    combos = data.draw(st.lists(st.lists(small_ints, min_size=len(kernel), max_size=len(kernel)), max_size=3))
    boundaries = [_combine(cs, kernel, n) for cs in combos]
    d_in = from_columns(boundaries, rows=n)
    pres = homology_presentation(d_in, d_out)
    for b in boundaries:
        assert pres.reduce(sparse_vec(b)) == (Q(0),) * pres.dim
    cycles = list(kernel)
    cycles.append(_combine(data.draw(st.lists(small_fracs, min_size=len(kernel), max_size=len(kernel))), kernel, n))
    for v in cycles:
        assert pres.reduce(sparse_vec(v)) == reduce_by_solve_in_span(pres, sparse_vec(v))
    for j in range(n):
        if any(column(d_out, j)):
            unit = {j: Q(1)}
            with pytest.raises(ValueError):
                pres.reduce(unit)
            with pytest.raises(ValueError):
                reduce_by_solve_in_span(pres, unit)


def _outcome(fn, *args):
    """fn(*args), or the type of the ValueError or DimensionMismatchError it raised."""
    try:
        return fn(*args)
    except (ValueError, DimensionMismatchError) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_sparse_reduce_matches_oracle_raises_included(n, data):
    rows = data.draw(st.lists(st.lists(small_fracs, min_size=n, max_size=n), min_size=1, max_size=4))
    d_out = ExactMatrix.from_rows(rows)
    kernel = kernel_basis(d_out)
    combos = data.draw(st.lists(st.lists(small_ints, min_size=len(kernel), max_size=len(kernel)), max_size=3))
    d_in = from_columns([_combine(cs, kernel, n) for cs in combos], rows=n)
    pres = homology_presentation(d_in, d_out)
    cycle = sparse_vec(_combine(data.draw(st.lists(small_fracs, min_size=len(kernel), max_size=len(kernel))), kernel, n))
    # noise on indices -1..n: off the cycles, or outside the ambient dimension (zero coefficients too)
    noise = data.draw(st.dictionaries(st.integers(min_value=-1, max_value=n), small_fracs, max_size=3))
    noisy = dict(cycle)
    for j, c in noise.items():
        noisy[j] = noisy.get(j, Q(0)) + c
    for vec in (cycle, noisy, noise):
        got = _outcome(pres.reduce, vec)
        assert got == _outcome(reduce_by_solve_in_span, pres, vec)
        if not isinstance(got, type):
            assert_fractions(got)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_rref_matches_sympy(ncols, data):
    import sympy

    rows = data.draw(st.lists(st.lists(small_fracs, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    reduced, pivots = rref([{j: c for j, c in enumerate(r) if c} for r in rows], ncols)
    want, want_pivots = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in r] for r in rows]
    ).rref()
    assert tuple(pivots) == tuple(want_pivots)
    assert [[row.get(j, Q(0)) for j in range(ncols)] for row in reduced] == [
        [Q(int(x.p), int(x.q)) for x in want.row(i)] for i in range(len(want_pivots))
    ]


def _bv_check_bundles():
    """The two dualities the bv-check benchmark workload builds, at c = 1."""
    from mixhom.algebra import make_exterior_algebra
    from mixhom.calculus import (attach_duality, hochschild_dual_bundle, poisson_bundle,
                                 polyvector_pd_twist)
    from mixhom.mixed import slice_from_hochschild_dual, slice_from_poisson
    from mixhom.poisson import PoissonContext, quadratic_bivector

    def class_of(sl, piece, element):
        coords = sl.hh(piece).reduce(sl.element_vector(piece, element))
        return (piece, [i for i, v in enumerate(coords) if v][0])

    A = make_exterior_algebra(2)
    sl = slice_from_hochschild_dual(A, 5)
    bundle = hochschild_dual_bundle(
        A, sl, q_max=6, coh_window=lambda p: -3 <= p[1] <= 2 and -3 <= p[0] <= 0
    )
    frob = attach_duality(bundle, class_of(sl, (2, 2), {(A.index["ξ1ξ2"],): Q(1)}))
    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)})
    slp = slice_from_poisson(ctx, pi, 8)
    bundle_p = poisson_bundle(ctx, pi, slp, w_shift_min=-3, w_shift_max=5, coeff_wmax=8)
    eta = class_of(slp, (3, 3), {(0, 0, 0, 1, 1, 1): Q(1)})
    pois = attach_duality(bundle_p, eta, pd_twist=polyvector_pd_twist(1))
    return frob, pois


def test_reduce_matches_oracle_on_bv_check_presentations():
    import random

    rng = random.Random(0)
    checked = 0
    for duality in _bv_check_bundles():
        bundle = duality.bundle
        for pres in bundle.coh_pres.values():
            checked += assert_reduce_matches_oracle(pres, rng)
        for piece in bundle.slice.pieces:
            checked += assert_reduce_matches_oracle(bundle.slice.hh(piece), rng)
    assert checked > 400


def test_reduce_matches_oracle_on_hc_minus_presentations():
    import random

    from mixhom.mixed import NegativeCyclic, default_truncation, slice_from_poisson
    from mixhom.poisson import PoissonContext, quadratic_bivector

    rng = random.Random(1)
    ctx = PoissonContext.make(3, "poly")
    pi = quadratic_bivector(ctx, {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)})
    sl = slice_from_poisson(ctx, pi, 8)
    hc = NegativeCyclic(sl, default_truncation(sl))
    checked = sum(assert_reduce_matches_oracle(hc.presentation(piece), rng) for piece in hc.dims())
    assert checked > 100


# -- differential oracle: the Fraction kernel as it was ------------------------
#
# mixhom.linalg eliminates and multiplies on integers.  Below is the kernel it
# replaced, which did every step in Fraction arithmetic: rref and matmul
# verbatim, and the routines built on them as they were.


def oracle_rref(rows, ncols):
    """Reduced row echelon form of sparse rows, by Gauss-Jordan elimination over Q."""
    reduced = []  # rows with pivots, kept normalized
    pivots = []
    for row in rows:
        r = dict(row)
        # eliminate against existing pivots
        for p, pr in zip(pivots, reduced):
            c = r.get(p)
            if c:
                for j, v in pr.items():
                    s = r.get(j, ZERO) - c * v
                    if s == 0:
                        r.pop(j, None)
                    else:
                        r[j] = s
        if not r:
            continue
        p = min(r)
        inv = ONE / r[p]
        r = {j: v * inv for j, v in r.items()}
        # back-substitute into existing rows
        for idx, (q, pr) in enumerate(zip(pivots, reduced)):
            c = pr.get(p)
            if c:
                for j, v in r.items():
                    s = pr.get(j, ZERO) - c * v
                    if s == 0:
                        pr.pop(j, None)
                    else:
                        pr[j] = s
        pivots.append(p)
        reduced.append(r)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [reduced[k] for k in order], sorted(pivots)


def oracle_matmul(self, other):
    if self.cols != other.rows:
        raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
    # group other's entries by row for sparse accumulation
    by_row = {}
    for (k, j), v in other.entries.items():
        by_row.setdefault(k, []).append((j, v))
    acc = {}
    for (i, k), a in self.entries.items():
        for j, b in by_row.get(k, ()):
            key = (i, j)
            s = acc.get(key, ZERO) + a * b
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s
    return ExactMatrix(self.rows, other.cols, acc)


def oracle_rank(self):
    reduced, pivots = oracle_rref(self.row_dicts(), self.cols)
    return len(pivots)


def _row_to_vec(row, n):
    return tuple(row.get(j, ZERO) for j in range(n))


def _oracle_kernel_rows(M):
    reduced, pivots = oracle_rref(M.row_dicts(), M.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(M.cols):
        if f in pivot_set:
            continue
        vec = {f: ONE}
        for p, row in zip(pivots, reduced):
            c = row.get(f)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def oracle_kernel_basis(M):
    return [_row_to_vec(v, M.cols) for v in _oracle_kernel_rows(M)]


def oracle_span_basis(vectors, dim):
    rows = []
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError("vector length mismatch")
        rows.append({j: Q(c) for j, c in enumerate(v) if c != 0})
    reduced, _ = oracle_rref(rows, dim)
    return [_row_to_vec(r, dim) for r in reduced]


def _stored_rows(rows, pivots):
    """Rational RREF rows as (pivot, primitive integer row) pairs, keys ascending."""
    out = []
    for p, r in zip(pivots, rows):
        den = lcm(*(v.denominator for v in r.values()))
        ints = {j: r[j].numerator * (den // r[j].denominator) for j in sorted(r)}
        g = gcd(*ints.values())
        out.append((p, {j: v // g for j, v in ints.items()}))
    return tuple(out)


def _oracle_image_rows(M):
    columns = [dict() for _ in range(M.cols)]
    for (i, j), v in M.entries.items():
        columns[j][i] = v
    return oracle_rref(columns, M.rows)


def oracle_image_basis(M):
    return [_row_to_vec(r, M.rows) for r in _oracle_image_rows(M)[0]]


def oracle_check_complex(d_in, d_out):
    if d_in.cols and d_out.rows is not None:
        if d_in.rows != d_out.cols:
            raise DimensionMismatchError("d_in target dimension != d_out source dimension")
        comp = oracle_matmul(d_out, d_in)
        if not comp.is_zero():
            raise NotAComplexError(min(j for (_, j) in comp.entries))


def oracle_homology_presentation(d_in, d_out):
    dim = d_out.cols
    kernel = _oracle_kernel_rows(d_out)
    brows, bpivots = _oracle_image_rows(d_in)
    candidates = []
    for r in kernel:
        for p, row in zip(bpivots, brows):
            c = r.get(p)
            if c:
                _accumulate(r, row, -c)
        if r:
            candidates.append(r)
    reps = _stored_rows(*oracle_rref(candidates, dim))
    if len(reps) != len(kernel) - len(brows):
        raise AssertionError("homology dimension bookkeeping failed")
    return HomologyPresentation(dim, _stored_rows(brows, bpivots), reps)


ORACLE = {
    "rref": oracle_rref,
    "kernel_basis": oracle_kernel_basis,
    "image_basis": oracle_image_basis,
    "span_basis": oracle_span_basis,
    "homology_presentation": oracle_homology_presentation,
}


@contextmanager
def oracle_kernel():
    """mixhom and the dense views above with the Fraction kernel in place of the integer one, wherever it is bound."""
    here = sys.modules[__name__]
    current = {name: getattr(linalg, name, None) or getattr(here, name) for name in ORACLE}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "matmul", oracle_matmul)
        mp.setattr(ExactMatrix, "rank", oracle_rank)
        for modname, mod in list(sys.modules.items()):
            if modname == "mixhom" or modname.startswith("mixhom.") or mod is here:
                for name, fn in current.items():
                    if getattr(mod, name, None) is fn:
                        mp.setattr(mod, name, ORACLE[name])
        yield


def assert_fractions(obj):
    """Every number in a returned structure is a Fraction (an int would print as 2, not "2")."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            assert_fractions(x)
    else:
        assert type(obj) is Fraction, repr(obj)


def _vectors(rows):
    return [tuple(r) for r in rows]


def _sparse(rows):
    return [{j: c for j, c in enumerate(r) if c} for r in rows]


def _matrix(rows, ncols):
    return ExactMatrix(len(rows), ncols, {(i, j): c for i, r in enumerate(rows) for j, c in enumerate(r) if c})


# entries with real denominators and both signs, zero about a third of the time
rationals = st.one_of(
    st.just(Q(0)),
    st.builds(Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=7)),
)
nonzero_rationals = st.builds(
    Fraction, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=7)
).map(lambda x: x if x.numerator % 2 else -x)


@st.composite
def rational_rows(draw, ncols, max_rows=5):
    """Dense rows of length ncols: random rows plus zero rows, repeated rows and multiples."""
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(("zero", "repeat", "multiple")))
        if kind == "zero" or not rows:
            row = [Q(0)] * ncols
        else:
            scale = ONE if kind == "repeat" else draw(nonzero_rationals)
            row = [scale * c for c in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows


ncols_st = st.integers(min_value=0, max_value=6)


@settings(max_examples=150, deadline=None)
@given(ncols_st.flatmap(lambda n: st.tuples(st.just(n), rational_rows(n))))
def test_rref_and_rank_match_oracle(drawn):
    ncols, rows = drawn
    got = rref(_sparse(rows), ncols)
    assert got == oracle_rref(_sparse(rows), ncols)
    assert_fractions(got[0])
    M = _matrix(rows, ncols)
    assert M.rank() == oracle_rank(M) == len(got[1])


@st.composite
def products(draw):
    """A pair (A, B) of matrices with A·B defined."""
    n = draw(ncols_st)
    b_rows = draw(rational_rows(n))
    a_rows = draw(rational_rows(len(b_rows)))
    return _matrix(a_rows, len(b_rows)), _matrix(b_rows, n)


@settings(max_examples=150, deadline=None)
@given(products())
def test_matmul_matches_oracle(pair):
    A, B = pair
    got = A.matmul(B)
    want = oracle_matmul(A, B)
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
    assert_fractions(got.entries)
    # A·(a basis of ker A) = 0: the d∘d = 0 shape that _check_complex tests
    kernel = kernel_basis(A)
    assert A.matmul(from_columns(kernel, rows=A.cols)).is_zero()


@settings(max_examples=150, deadline=None)
@given(ncols_st.flatmap(lambda n: st.tuples(st.just(n), rational_rows(n))))
def test_kernel_image_span_match_oracle(drawn):
    ncols, rows = drawn
    M = _matrix(rows, ncols)
    for got, want in (
        (kernel_basis(M), oracle_kernel_basis(M)),
        (image_basis(M), oracle_image_basis(M)),
        (span_basis(_vectors(rows), ncols), oracle_span_basis(_vectors(rows), ncols)),
    ):
        assert got == want
        assert_fractions(got)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(rational_rows(n), st.lists(rationals, min_size=n, max_size=n),
                        st.lists(rationals, min_size=7, max_size=7))
))
def test_solve_in_span_matches_oracle(drawn):
    rows, noise, coeffs = drawn
    vectors = _vectors(rows)
    n = len(noise)
    in_span = tuple(sum((c * v[j] for c, v in zip(coeffs, vectors)), ZERO) for j in range(n))
    for target in (in_span, tuple(noise)):
        got = solve_in_span(vectors, target)
        with oracle_kernel():
            want = solve_in_span(vectors, target)
        assert got == want
        if got is not None:
            assert_fractions(got)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), rational_rows(n), st.lists(st.lists(rationals, min_size=6, max_size=6), max_size=4))
))
def test_homology_presentation_matches_oracle(drawn):
    n, rows, combos = drawn
    d_out = _matrix(rows, n)
    kernel = kernel_basis(d_out)
    # boundaries are combinations of kernel vectors (zero, repeated, dependent ones too)
    boundaries = [tuple(sum((c * v[j] for c, v in zip(cs, kernel)), ZERO) for j in range(n)) for cs in combos]
    d_in = ExactMatrix(n, len(boundaries), {(i, j): b[i] for j, b in enumerate(boundaries) for i in range(n) if b[i]})
    _check_complex(d_in, d_out)
    got = homology_presentation(d_in, d_out)
    want = oracle_homology_presentation(d_in, d_out)
    assert got == want
    assert_integer_rows(got)
    # a representative is an integer row over its positive pivot entry, in lowest terms
    for num, den in map(got.cycle, range(got.dim)):
        assert all(type(v) is int for v in num.values()) and type(den) is int and den > 0
        assert gcd(den, *num.values()) == 1
    if boundaries and d_out.rows and any(d_out.entries):
        # a column outside ker d_out makes d_in no boundary map: both kernels name the same column
        j = min(j for (_, j) in d_out.entries)
        bad = ExactMatrix(n, 1, {(j, 0): ONE})
        with pytest.raises(NotAComplexError) as got_exc:
            _check_complex(bad, d_out)
        with pytest.raises(NotAComplexError) as want_exc:
            oracle_check_complex(bad, d_out)
        assert got_exc.value.column == want_exc.value.column == 0


# -- the integer kernel against the oracle on the acceptance structures --------


def _acceptance_slices():
    from mixhom.algebra import make_exterior_algebra
    from mixhom.koszul import dual_bivector_coeffs
    from mixhom.mixed import slice_from_hochschild_dual, slice_from_poisson, slice_from_poisson_dual
    from mixhom.poisson import DualSide, PoissonContext, quadratic_bivector

    def circulant(c):
        return {(1, 2, 1, 2): c, (2, 3, 2, 3): c, (3, 1, 3, 1): c}

    yield "frobenius", lambda: slice_from_hochschild_dual(make_exterior_algebra(2), 5)
    ctx = PoissonContext.make(3, "poly")
    for name, c in (("poisson-c=1", Q(1)), ("poisson-c=-7_3", Q(-7, 3))):
        yield name, lambda c=c: slice_from_poisson(ctx, quadratic_bivector(ctx, circulant(c)), 8)
    ctx_ext = PoissonContext.make(3, "ext")
    pi_dual = quadratic_bivector(ctx_ext, dual_bivector_coeffs(circulant(Q(1))))
    yield "dual-poisson", lambda: slice_from_poisson_dual(DualSide(ctx_ext, pi_dual, w_max=8))


def _slice_results(build):
    from mixhom.mixed import NegativeCyclic, cyclic_homology, default_truncation

    sl = build()
    hh = {p: sl.hh(p) for p in sorted(sl.pieces)}
    return hh, NegativeCyclic(sl, default_truncation(sl)).dims(), cyclic_homology(sl)


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in _acceptance_slices()])
def test_integer_kernel_matches_oracle_on_acceptance_slices(build):
    import mixhom.mixed

    got = _slice_results(build)
    with oracle_kernel():
        assert mixhom.mixed.homology_presentation is oracle_homology_presentation
        assert ExactMatrix.matmul is oracle_matmul and ExactMatrix.rank is oracle_rank
        want = _slice_results(build)
    assert rref is not oracle_rref and mixhom.mixed.homology_presentation is homology_presentation
    assert got == want
    hh, hc_minus, hc = got
    for pres in hh.values():
        assert_integer_rows(pres)
    assert sum(pres.dim for pres in hh.values()) > 0 and any(hc_minus.values()) and any(hc.values())


# -- differential oracle: the Fraction-entry matrix as it was ---------------------
#
# ExactMatrix stores integer entries over one denominator.  Below is the matrix
# it replaced, which stored Fraction entries: its constructor, matmul, transpose
# and rank verbatim, with the u-stacking that read it.  The raw complexes are
# built through it by giving the slice builders this operator_matrix, which
# wraps each coefficient of a column over den in a Fraction, as the Poisson
# builder did.


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class FractionMatrix:
    """Sparse matrix over Q; entries stored as {(row, col): Fraction}, no zeros."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) out of range for {rows}x{cols}")
                v = _as_fraction(v)
                if v != 0:
                    self.entries[(i, j)] = v

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self, sign=1):
        """The transpose, every entry multiplied by sign."""
        return FractionMatrix(self.cols, self.rows, {(j, i): sign * v for (i, j), v in self.entries.items()})

    def matmul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        da = _denominator(self.entries.values())
        db = _denominator(other.entries.values())
        # group other's entries by row for sparse accumulation, scaled by db
        by_row = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v.numerator * (db // v.denominator)))
        acc = {}
        for (i, k), a in self.entries.items():
            row = by_row.get(k)
            if row:
                a = a.numerator * (da // a.denominator)
                for j, b in row:
                    key = (i, j)
                    s = acc.get(key, 0) + a * b
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        d = da * db
        for key, s in acc.items():
            acc[key] = Fraction(s, d)
        return FractionMatrix(self.rows, other.cols, acc)

    def rank(self):
        return _sparse_rank(self.row_dicts())


def oracle_operator_matrix(src_labels, tgt_labels, apply, den=1, escape=KeyError):
    index = {t: i for i, t in enumerate(tgt_labels)}
    entries = {}
    for j, s in enumerate(src_labels):
        for t, c in apply(s).items():
            if c:
                i = index.get(t)
                if i is None:
                    raise escape(f"operator image {t!r} of {s!r} leaves the target basis")
                entries[(i, j)] = Q(c, den)
    return FractionMatrix(len(tgt_labels), len(src_labels), entries)


class OracleSlice:
    """The pieces and the Fraction b and B matrices of a raw complex, read as the parent's u-stacking read a slice."""

    def __init__(self, pieces, b_mats, B_mats):
        self.pieces = {k: list(v) for k, v in pieces.items() if v}
        self.b_mats, self.B_mats = b_mats, B_mats

    def dim(self, piece):
        return len(self.pieces.get(piece, ()))

    def b_matrix(self, piece):
        return self._matrix(self.b_mats, piece, -1)

    def B_matrix(self, piece):
        return self._matrix(self.B_mats, piece, +1)

    def _matrix(self, mats, piece, shift):
        got = mats.get(piece)
        return got if got is not None else FractionMatrix.zero(self.dim((piece[0] + shift, piece[1])), self.dim(piece))


def oracle_u_complex(sl, d, w, lo, hi):
    """b + uB from the stacked degree-d chains to the stacked degree-(d-1) ones."""
    rows = cols = 0  # where component i starts in the target and source bases
    entries = {}
    for i in range(lo, hi + 1):
        piece = (d + 2 * i, w)
        for (r, c), v in sl.b_matrix(piece).entries.items():
            entries[(rows + r, cols + c)] = v
        rows += sl.dim((d - 1 + 2 * i, w))
        if i < hi:
            for (r, c), v in sl.B_matrix(piece).entries.items():
                entries[(rows + r, cols + c)] = v
        cols += sl.dim(piece)
    return FractionMatrix(rows, cols, entries)


def _raw_acceptance_complexes():
    """(name, slice builder, raw (pieces, b, B) builder) for the acceptance slices of the integer-kernel test."""
    from mixhom.algebra import make_exterior_algebra
    from mixhom.koszul import dual_bivector_coeffs
    from mixhom.mixed import (
        _hochschild_complex,
        _poisson_complex,
        _transpose,
        slice_from_hochschild_dual,
        slice_from_poisson,
        slice_from_poisson_dual,
    )
    from mixhom.poisson import DualSide, PoissonContext, quadratic_bivector

    def circulant(c):
        return {(1, 2, 1, 2): c, (2, 3, 2, 3): c, (3, 1, 3, 1): c}

    A = make_exterior_algebra(2)
    yield ("frobenius", lambda: slice_from_hochschild_dual(A, 5),
           lambda: _transpose(*_hochschild_complex(A, 5)))
    ctx = PoissonContext.make(3, "poly")
    for name, c in (("poisson-c=1", Q(1)), ("poisson-c=-7_3", Q(-7, 3))):
        pi = quadratic_bivector(ctx, circulant(c))
        yield (name, lambda pi=pi: slice_from_poisson(ctx, pi, 8), lambda pi=pi: _poisson_complex(ctx, pi, 8))
    ctx_ext = PoissonContext.make(3, "ext")
    pi_dual = quadratic_bivector(ctx_ext, dual_bivector_coeffs(circulant(Q(1))))
    yield ("dual-poisson", lambda: slice_from_poisson_dual(DualSide(ctx_ext, pi_dual, w_max=8)),
           lambda: _transpose(*_poisson_complex(ctx_ext, pi_dual, 8)))


def _same(got, want):
    """An ExactMatrix and a FractionMatrix with the same shape and rational entries."""
    return (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


@pytest.mark.parametrize("case", [pytest.param(b, id=b[0]) for b in _raw_acceptance_complexes()])
def test_integer_matrices_match_the_fraction_matrices_on_acceptance_slices(case):
    import mixhom.mixed as mixed

    name, build_slice, build_raw = case
    sl = build_slice()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixed, "operator_matrix", oracle_operator_matrix)
        pieces, b_mats, B_mats = build_raw()
    assert all(type(M) is FractionMatrix for M in [*b_mats.values(), *B_mats.values()])
    oracle = OracleSlice(pieces, b_mats, B_mats)
    # every b and B matrix; on the cochain sides these are the duals, signed transposes
    assert sl.pieces == oracle.pieces and set(sl.b_mats) == set(b_mats) and set(sl.B_mats) == set(B_mats)
    for got, want in ((sl.b_mats, b_mats), (sl.B_mats, B_mats)):
        for piece, M in want.items():
            assert _same(got[piece], M), piece
    # c = -7/3 puts a denominator on ∂; the other slices have integer matrices
    assert ({M.den for M in [*sl.b_mats.values(), *sl.B_mats.values()]} != {1}) == (name == "poisson-c=-7_3")
    # every product _validate forms: b², B², bB and Bb out of each piece
    nonzero = 0
    for (d, w) in sl.pieces:
        for (lk, lp), (rk, rp) in ((("b", (d - 1, w)), ("b", (d, w))), (("B", (d + 1, w)), ("B", (d, w))),
                                   (("b", (d + 1, w)), ("B", (d, w))), (("B", (d - 1, w)), ("b", (d, w)))):
            got = getattr(sl, f"{lk}_matrix")(lp).matmul(getattr(sl, f"{rk}_matrix")(rp))
            want = getattr(oracle, f"{lk}_matrix")(lp).matmul(getattr(oracle, f"{rk}_matrix")(rp))
            assert _same(got, want), (d, w, lk, rk)
            nonzero += bool(want.entries)
    # the u-stacked matrices of HH, HC⁻ at N and N + 1, and HC, on the degrees each is built on
    degrees = sl.degrees()
    lo, hi = min(degrees), max(degrees)
    N = mixed.default_truncation(sl)
    top = hi + 2 * (hi - lo)
    K = (top + 1 - lo) // 2
    stacked = 0
    for u_lo, u_hi, d_from, d_to in ((0, 0, lo, hi), (0, N, lo - 2 * (N + 1), hi), (0, N + 1, lo - 2 * (N + 1), hi),
                                     (-K, 0, lo, top)):
        for w in sl.weights():
            for d in range(d_from, d_to + 2):
                got = mixed._u_complex(sl, d, w, u_lo, u_hi)
                assert _same(got, oracle_u_complex(oracle, d, w, u_lo, u_hi)), (u_lo, u_hi, d, w)
                stacked += bool(got.num)
    assert nonzero > 0 and stacked > 0


@st.composite
def entry_dicts(draw, rows, cols):
    """Sparse rational entries on a rows x cols grid, zeros included, from a small set so that matrices coincide."""
    small = st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2, 3)))
    return draw(st.dictionaries(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), small, max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.integers(1, 3).flatmap(
    lambda c: st.tuples(st.just((r, c)), entry_dicts(r, c), entry_dicts(r, c), st.integers(1, 6)))))
def test_construction_gives_lowest_terms_and_eq_compares_rational_entries(drawn):
    (rows, cols), a, b, k = drawn
    A, B = ExactMatrix(rows, cols, a), ExactMatrix(rows, cols, b)
    for M, given_entries in ((A, a), (B, b)):
        assert all(type(v) is int and v for v in M.num.values()) and M.den > 0
        assert gcd(M.den, *M.num.values()) == 1
        assert M.entries == {key: v for key, v in given_entries.items() if v}
        assert_fractions(M.entries)
        # the same matrix over a k-fold denominator comes back in the same lowest terms
        assert ExactMatrix._integers(rows, cols, {key: k * v for key, v in M.num.items()}, k * M.den) == M
        assert FractionMatrix(rows, cols, given_entries).entries == M.entries
    assert (A == B) == (A.entries == B.entries)
    # products and transposes stay in lowest terms, with the Fraction matrix's entries
    for got, want in ((A.matmul(B.transpose(-1)), FractionMatrix(rows, cols, a).matmul(
            FractionMatrix(rows, cols, b).transpose(-1))), (A.transpose(), FractionMatrix(rows, cols, a).transpose())):
        assert gcd(got.den, *got.num.values()) == 1 and _same(got, want)
    assert A.rank() == FractionMatrix(rows, cols, a).rank()


# sparse integer rows over a denominator, as the gravity layer holds its class vectors
integer_rows = st.tuples(st.dictionaries(st.integers(0, 5), st.integers(-9, 9).filter(bool), max_size=5),
                         st.integers(min_value=1, max_value=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(integer_rows, st.integers(-5, 5)), max_size=6), st.lists(integer_rows, min_size=6, max_size=6))
def test_integer_rows_accumulate_as_fractions(terms, steps):
    # Σ scale·row/den over rows with their own denominators, accumulated in place over the lcm,
    # and the same sum as one expansion, against the Fraction sums
    acc, den = {}, 1
    want: dict = {}
    for (row, d), scale in terms:
        den = _iaccumulate_over(acc, den, dict(row), d, scale)
        _accumulate(want, {k: Q(v, d) for k, v in row.items()}, scale)
    num, low = _lowest(acc, den)
    assert _fractions(num, low) == want
    assert low > 0 and gcd(low, *num.values()) == 1
    # Σ v·steps[k] over the entries k: v of one row over its denominator
    (row, d), _ = terms[0] if terms else (({}, 1), 0)
    want = {}
    for k, v in row.items():
        _accumulate(want, _fractions(*steps[k]), Q(v, d))
    assert _fractions(*_iexpand((row, d), steps.__getitem__)) == want


# -- reduce on integers against the Fraction reduce it replaced --------------------
#
# HomologyPresentation.reduce used to eliminate in Fraction arithmetic, with
# the Fraction accumulate of that time.  Both are kept here verbatim as the
# reference for the integer elimination.


def fraction_accumulate(acc, terms, scale=ONE):
    """acc += scale · terms for sparse vectors, dropping coefficients that cancel; returns acc."""
    for k, v in terms.items():
        s = acc.get(k, ZERO) + scale * v
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def fraction_reduce(pres, vec):
    """Coordinates of a sparse cycle in the homology basis, in Fractions."""
    if any(not 0 <= j < pres.ambient_dim for j in vec):
        raise DimensionMismatchError("vector index outside the ambient dimension")
    t = {j: _as_fraction(c) for j, c in vec.items() if c}
    for p, row in pres.boundaries:
        c = t.get(p)
        if c:
            fraction_accumulate(t, row, -c / row[p])
    coords = []
    for p, row in pres.reps:
        c = t.get(p, ZERO)
        if c:
            fraction_accumulate(t, row, -c / row[p])
        coords.append(c)
    if t:
        raise ValueError("vector is not a cycle of this presentation")
    return tuple(coords)


def _reduce_calls(monkeypatch, tmp_path, workload, c):
    """Every (presentation, vector, denominator) that one op of a benchmark workload reads, with π scaled by c.

    The capture wraps the integer read, which ``reduce`` and every class row go through.
    """
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    calls = []
    read = HomologyPresentation._read

    def recording(self, vec, den):
        calls.append((self, dict(vec), den))
        return read(self, vec, den)

    with monkeypatch.context() as mp:
        mp.setattr(HomologyPresentation, "_read", recording)
        op, check = workloads.prepare(workload, c, str(tmp_path / workload))
        result = op()[3]
    if c == 1:
        assert check(result, 0) == []
    return calls


def _not_a_unit(pres):
    return any(abs(row[p]) != 1 for p, row in pres.boundaries + pres.reps)


@pytest.mark.parametrize("c", [Q(1), Q(-7, 3)], ids=["c=1", "c=-7_3"])
@pytest.mark.parametrize("workload", ["bv-check", "gravity-check", "cli-batch"])
def test_integer_reduce_matches_the_fraction_reduce_on_the_workloads(monkeypatch, tmp_path, workload, c):
    calls = _reduce_calls(monkeypatch, tmp_path, workload, c)
    reduce = HomologyPresentation.reduce
    for pres, vec, den in calls:
        rational = _fractions(vec, den)
        got, want = reduce(pres, rational), fraction_reduce(pres, rational)
        assert got == want and all(type(x) is Fraction for x in got + want)
        assert _fractions(*pres._read(vec, den)) == {i: x for i, x in enumerate(want) if x}
    # pieces whose pivot entries are not units are among them
    assert len(calls) > 100 and any(_not_a_unit(pres) for pres, _, _ in calls)
    # negative controls on every presentation: an index out of range, and each unit vector, a cycle or not
    refused = 0
    for pres in {id(pres): pres for pres, _, _ in calls}.values():
        for bad in ({pres.ambient_dim: Q(1)}, {-1: Q(1), 0: Q(2)}):
            for fn in (reduce, fraction_reduce):
                with pytest.raises(DimensionMismatchError):
                    fn(pres, bad)
        for j in range(pres.ambient_dim):
            got = _outcome(reduce, pres, {j: 1})
            assert got == _outcome(fraction_reduce, pres, {j: 1})
            refused += got is ValueError
    assert refused > 0


def _clearing_steps(monkeypatch, reads):
    """The (pivot entry, terms_den, scale) of every ``_iaccumulate_over`` step that ``_read`` takes on the reads.

    A clearing row is in reduced echelon form with ascending keys, so its pivot is its first key.
    """
    steps = []
    accumulate = linalg._iaccumulate_over

    def recording(acc, den, terms, terms_den, scale):
        steps.append((terms[next(iter(terms))], terms_den, scale))
        return accumulate(acc, den, terms, terms_den, scale)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_iaccumulate_over", recording)
        for pres, vec, den in reads:
            pres._read(vec, den)
    return steps


def test_every_clearing_step_of_a_read_is_in_lowest_terms(monkeypatch, tmp_path):
    # t ← a·t − c·row with c/a = t[p]/row[p] in lowest terms: the pair (row[p]//g, t[p]//g) is coprime
    # (a, c as recorded here); cli-batch is the workload whose reads take steps with g > 1
    reads = _reduce_calls(monkeypatch, tmp_path, "cli-batch", Q(1))
    steps = _clearing_steps(monkeypatch, reads)
    assert all(gcd(a, c) == 1 and a > 0 for _, a, c in steps)
    assert any(_not_a_unit(pres) for pres, _, _ in reads) and any(a != pivot for pivot, a, _ in steps)
    # hand-made presentations whose boundary pivot entry is 2 and whose representative pivot entry is 3
    pres = homology_presentation(ExactMatrix(3, 1, {(0, 0): Q(2), (1, 0): Q(1)}), ExactMatrix(0, 3))
    made = homology_presentation(ExactMatrix(2, 0), ExactMatrix(1, 2, {(0, 0): Q(1), (0, 1): Q(-3)}))
    assert [row[p] for p, row in pres.boundaries + made.reps] == [2, 3]
    steps = _clearing_steps(monkeypatch, [(pres, {0: Q(4), 1: Q(2), 2: Q(6)}, 1), (pres, {0: Q(2, 3), 2: Q(5)}, 1),
                                          (made, {0: Q(9), 1: Q(3)}, 1)])
    assert all(gcd(a, c) == 1 and a > 0 for _, a, c in steps)
    assert [pivot // a for pivot, a, _ in steps] == [2, 1, 2, 1, 1, 3]  # the g of each step


keys = st.integers(min_value=0, max_value=7)
ints = st.integers(min_value=-6, max_value=6)
values = st.one_of(ints, small_fracs)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(keys, values.filter(bool), max_size=8), st.dictionaries(keys, values, max_size=8),
       st.one_of(st.none(), ints.filter(bool), nonzero_rationals), st.sets(keys))
def test_accumulate_is_one_sparse_sum_on_ints_and_fractions(start, terms, scale, cancel):
    # acc += scale·terms on ints, Fractions, an int scale on Fraction values, and terms that hold zeros;
    # the keys in ``cancel`` that acc holds get the term that cancels them
    s = 1 if scale is None else scale
    for k in cancel & start.keys():
        q = -start[k] / Q(s)
        terms[k] = q.numerator if q.denominator == 1 and type(start[k]) is int else q
    acc = dict(start)
    got = _accumulate(acc, terms) if scale is None else _accumulate(acc, terms, scale)
    assert got is acc
    want = {k: start.get(k, 0) + s * terms.get(k, 0) for k in start.keys() | terms.keys()}
    assert got == {k: v for k, v in want.items() if v}
    assert not cancel & start.keys() & got.keys()
    for k, v in got.items():
        operands = [start[k]] if k not in terms else [s, terms[k]] + ([start[k]] if k in start else [])
        assert type(v) is (int if all(type(x) is int for x in operands) else Fraction)


# -- the pivot-indexed kernel against the arrival-order kernel it replaced ------------
#
# _row_echelon used to check every earlier pivot against each incoming row,
# and a row combination went through _subtract and _accumulate before
# _primitive divided out the content; _integer_rref back-substituted a row
# against every later pivot.  They are kept here verbatim as the reference.


def oracle_subtract(r, row, p):
    """Replace r in place by a·r − c·row, the least integer multiples with a zero at p; returns a.

    r/den − (r[p]/row[p])·row equals the new r over a·den.
    """
    a, c = row[p], r[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a != 1:
        for j, v in r.items():
            r[j] = a * v
    _accumulate(r, row, -c)
    return a


def oracle_cancel(r, row, p):
    """Replace r in place by the primitive integer row proportional to row[p]·r − r[p]·row (zero at p)."""
    oracle_subtract(r, row, p)
    _primitive(r)


def oracle_row_echelon(rows, echelon=None):
    """Forward elimination of integer rows (consumed): nonzero (pivot, row) in arrival order, after ``echelon``'s.

    Each kept row vanishes at the pivots of the rows kept before it, and its
    pivot is its least column.  A given ``echelon`` is extended in place.
    """
    echelon = [] if echelon is None else echelon
    for r in rows:
        for p, pr in echelon:
            if p in r:
                oracle_cancel(r, pr, p)
        if r:
            echelon.append((min(r), r))
    return echelon


def oracle_integer_rref(rows):
    """The reduced row echelon form of integer rows (consumed), as (pivot, row) sorted by pivot.

    Row i, divided by its pivot entry, is row i of the rational RREF.
    """
    out = sorted(oracle_row_echelon(rows), key=lambda pr: pr[0])
    for i in range(len(out) - 2, -1, -1):
        r = out[i][1]
        for p, row in out[i + 1:]:
            if p in r:
                oracle_cancel(r, row, p)
    return out


def class_key(j):
    """An integer column as a class key ((degree, weight), index), ordered as the columns are."""
    return ((j // 4 - 1, j // 2 % 2), j % 2)


@st.composite
def integer_batches(draw, class_keys=None, max_rows=7):
    """Sparse integer rows: random rows plus empty rows, duplicates, integer combinations and large contents.

    With ``class_keys`` (drawn when None) the columns are class keys, as ``_sparse_rank`` gets them.
    """
    entries = st.integers(-40, 40).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, 9), entries, max_size=6), max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("empty", "duplicate", "combination", "content")))
        if kind == "empty" or not rows:
            row = {}
        elif kind == "duplicate":
            row = dict(draw(st.sampled_from(rows)))
        elif kind == "combination":
            row = {}
            for _ in range(draw(st.integers(1, 3))):
                _accumulate(row, draw(st.sampled_from(rows)), draw(st.integers(-5, 5).filter(bool)))
        else:
            k = draw(st.sampled_from((-(10**12) - 39, 2**61, 6 * 35 * 11)))
            row = {j: k * v for j, v in draw(st.sampled_from(rows)).items()}
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.booleans()) if class_keys is None else class_keys:
        rows = [{class_key(j): v for j, v in r.items()} for r in rows]
    return rows


def _copies(rows):
    return [dict(r) for r in rows]


@settings(max_examples=400, deadline=None)
@given(integer_batches())
def test_pivot_kernel_matches_the_arrival_order_kernel(rows):
    echelon = _row_echelon(_copies(rows))
    assert len(echelon) == len(oracle_row_echelon(_copies(rows)))
    # every stored row is nonzero, and its pivot is its least column
    assert all(r and p == min(r) for p, r in echelon.items())
    got = [_positive(p, r) for p, r in _integer_rref(_copies(rows))]
    assert got == [_positive(p, r) for p, r in oracle_integer_rref(_copies(rows))]
    assert [p for p, _ in got] == sorted(echelon)
    # _sparse_rank gets its rows as integer maps, class keys included
    assert _sparse_rank(_copies(rows)) == len(echelon)


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda keyed: st.tuples(integer_batches(keyed), integer_batches(keyed))))
def test_extending_an_echelon_gives_the_rank_of_one_pass(batches):
    first, second = batches
    echelon = _row_echelon(_copies(first))
    assert _row_echelon(_copies(second), echelon) is echelon
    assert len(echelon) == len(_row_echelon(_copies(first) + _copies(second)))
    assert len(echelon) == len(oracle_row_echelon(_copies(second), oracle_row_echelon(_copies(first))))
    assert all(r and p == min(r) for p, r in echelon.items())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 6), st.integers(-(10**9), 10**9).filter(bool), min_size=1, max_size=6),
       st.dictionaries(st.integers(0, 6), st.integers(-(10**9), 10**9).filter(bool), min_size=1, max_size=6),
       st.integers(1, 10**6))
def test_fused_cancel_is_subtract_then_primitive(r, row, content):
    p = min(row)
    r = {j: content * v for j, v in r.items()}
    r.setdefault(p, content)
    want = dict(r)
    oracle_cancel(want, row, p)
    _cancel(r, row, p)
    assert r == want and p not in r
    assert gcd(*r.values()) in (0, 1)


# -- the one integer read and the indexed kernel against the scans they replaced --------
#
# HomologyPresentation.reduce checked every boundary pivot against the cycle and
# subtracted with _subtract (oracle_subtract above), and _kernel_rows scanned every
# RREF row for each free column.  They are kept here verbatim as the reference.


def oracle_reduce(self, vec):
    """Coordinates of a sparse cycle in the homology basis.

    One elimination pass on integers and no new factorization: the
    cycle is scaled to an integer row over one denominator, and each
    boundary row is subtracted at its pivot, then each representative at
    its own pivot, by cross-multiplication, so only the running
    denominator grows.  A coordinate, the cycle's value at a
    representative's pivot, becomes a Fraction when it is read.
    The representatives are independent modulo the boundaries, so these
    coordinates are the unique ones.  Raises DimensionMismatchError on an
    index outside the ambient dimension, and ValueError if a remainder
    is left (vec is not a cycle of this presentation).
    """
    if any(not 0 <= j < self.ambient_dim for j in vec):
        raise DimensionMismatchError("vector index outside the ambient dimension")
    t, den = linalg._over_one_denominator(vec)
    for p, row in self.boundaries:
        if p in t:
            den *= oracle_subtract(t, row, p)
    coords = []
    for p, row in self.reps:
        c = t.get(p, 0)
        coords.append(Fraction(c, den))
        if c:
            den *= oracle_subtract(t, row, p)
    if t:
        raise ValueError("vector is not a cycle of this presentation")
    return tuple(coords)


def oracle_kernel_rows(rows, ncols):
    """The canonical basis of the null space of sparse integer rows (consumed) on ncols columns, as (free column, row).

    One vector per free column f of the rows' RREF, ordered by f: 1 at f
    and, at each pivot, minus that pivot row's entry at f, scaled to a
    primitive integer row.
    """
    reduced = _integer_rref(rows)
    pivot_set = {p for p, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        hits = [(p, row) for p, row in reduced if f in row]
        scale = lcm(*(row[p] for p, row in hits))
        vec = {f: scale}
        for p, row in hits:
            vec[p] = -row[f] * (scale // row[p])
        _primitive(vec)
        basis.append((f, vec))
    return basis


def _raised(fn, *args):
    """fn(*args), or the (type, message) of the ValueError or DimensionMismatchError it raised."""
    try:
        return fn(*args)
    except (ValueError, DimensionMismatchError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_integer_read_matches_the_scanning_reduce(n, data):
    # integer rows with entries up to 40 give representatives and boundaries with non-unit pivot entries
    entries = st.integers(min_value=-40, max_value=40)
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    d_out = ExactMatrix.from_rows(rows)
    kernel = kernel_basis(d_out)
    combo = st.lists(entries, min_size=len(kernel), max_size=len(kernel))
    boundaries = [_combine(cs, kernel, n) for cs in data.draw(st.lists(combo, max_size=3))]
    pres = homology_presentation(from_columns(boundaries, rows=n), d_out)
    cycle = sparse_vec(_combine(data.draw(st.lists(small_fracs, min_size=len(kernel), max_size=len(kernel))), kernel, n))
    # noise on indices -1..n: off the cycles, or outside the ambient dimension (zero coefficients too)
    noise = data.draw(st.dictionaries(st.integers(min_value=-1, max_value=n), small_fracs, max_size=3))
    noisy = dict(cycle)
    for j, c in noise.items():
        noisy[j] = noisy.get(j, Q(0)) + c
    for vec in [cycle, noisy, noise] + [sparse_vec(b) for b in boundaries]:
        want = _raised(oracle_reduce, pres, vec)
        assert _raised(pres.reduce, vec) == want
        got = _raised(pres._read, vec, 1)
        if want and isinstance(want[0], type):
            assert got == want
            continue
        num, den = got
        assert _fractions(num, den) == {i: c for i, c in enumerate(want) if c}
        assert den > 0 and gcd(den, *num.values()) == 1 and all(type(v) is int for v in num.values())


@settings(max_examples=300, deadline=None)
@given(integer_batches(class_keys=False), st.integers(min_value=10, max_value=12))
def test_indexed_kernel_matches_the_scanning_kernel(rows, ncols):
    got = _kernel_rows(_copies(rows), ncols)
    # the same vectors, free columns and key order
    assert [(f, list(v.items())) for f, v in got] == [
        (f, list(v.items())) for f, v in oracle_kernel_rows(_copies(rows), ncols)]


@pytest.mark.parametrize("key", [lambda j: j, class_key], ids=["int", "class-key"])
def test_a_cancellation_that_leaves_the_pivot_raises(monkeypatch, key):
    calls = []

    def stuck(r, row, p):
        calls.append(p)
        if len(calls) > 100:
            raise RuntimeError("_row_echelon kept cancelling at one column")

    monkeypatch.setattr(linalg, "_cancel", stuck)
    with pytest.raises(AssertionError, match="left the pivot entry"):
        _row_echelon([{key(0): 1, key(2): 5}, {key(0): 2, key(1): 1}])
    assert calls == [key(0)]
