from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixhom.linalg import (
    DimensionMismatchError,
    ExactMatrix,
    NotAComplexError,
    homology_presentation,
    image_basis,
    kernel_basis,
    rref,
    solve_in_span,
)

Q = Fraction


def test_kernel_of_zero_map_is_identity_basis():
    M = ExactMatrix.zero(3, 3)
    basis = kernel_basis(M)
    assert basis == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(ExactMatrix.identity(4)) == []


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
    d_in = ExactMatrix.identity(2)
    d_out = ExactMatrix.zero(0, 2)
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 0


def test_two_step_complex():
    # k -> k^2 -> k with d_in = (1,1)^T, d_out = (1,-1): exact in the middle
    d_in = ExactMatrix.from_columns([(Q(1), Q(1))])
    d_out = ExactMatrix.from_rows([[1, -1]])
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 0


def test_not_a_complex_reports_column():
    d_in = ExactMatrix.identity(2)
    d_out = ExactMatrix.from_rows([[1, 0]])
    with pytest.raises(NotAComplexError) as exc:
        homology_presentation(d_in, d_out)
    assert exc.value.column == 0


def test_presentation_reduction_properties():
    # circle-like complex: d_out = 0, d_in has rank 1 inside k^3
    d_in = ExactMatrix.from_columns([(Q(1), Q(1), Q(0)), (Q(2), Q(2), Q(0))])
    d_out = ExactMatrix.zero(0, 3)
    pres = homology_presentation(d_in, d_out)
    assert pres.dim == 2
    for b in pres.boundary_basis:
        assert all(c == 0 for c in pres.reduce(b))
    for i, rep in enumerate(pres.cycle_basis):
        coords = pres.reduce(rep)
        assert coords == tuple(Q(int(j == i)) for j in range(pres.dim))


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
        assert all(c == 0 for c in M.apply(v))
    # determinism: same input, same output
    assert kernel_basis(M) == kernel_basis(ExactMatrix.from_rows(rows))


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
    M = ExactMatrix.from_columns([(Q(1), Q(1)), (Q(2), Q(2)), (Q(0), Q(1))])
    basis = image_basis(M)
    assert basis == [(Q(1), Q(0)), (Q(0), Q(1))]


# -- differential oracle: HomologyPresentation.reduce as it was ----------------


def reduce_by_solve_in_span(pres, vec):
    """The reduction as it was: one solve_in_span, with a fresh RREF, per call."""
    gens = list(pres.boundary_basis) + list(pres.cycle_basis)
    coeffs = solve_in_span(gens, vec)
    if coeffs is None:
        raise ValueError("vector is not a cycle of this presentation")
    nb = len(pres.boundary_basis)
    return tuple(coeffs[nb:])


def _combine(coeffs, vectors, dim):
    return tuple(sum((c * v[j] for c, v in zip(coeffs, vectors)), Q(0)) for j in range(dim))


def assert_reduce_matches_oracle(pres, rng, combos=3):
    """reduce = oracle on every representative and on random in-span vectors;
    both paths raise ValueError on a vector outside the span."""
    gens = list(pres.boundary_basis) + list(pres.cycle_basis)
    n = pres.ambient_dim
    vecs = list(pres.cycle_basis)
    for _ in range(combos if gens else 0):
        vecs.append(_combine([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in gens], gens, n))
    for v in vecs:
        assert pres.reduce(v) == reduce_by_solve_in_span(pres, v)
    if len(gens) < n:
        base = vecs[-1] if vecs else (Q(0),) * n
        for j in range(n):
            unit = tuple(Q(int(k == j)) for k in range(n))
            if solve_in_span(gens, unit) is None:
                bad = tuple(a + b for a, b in zip(base, unit))
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
    with pytest.raises(DimensionMismatchError):
        pres.reduce((Q(1),))


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
    d_in = ExactMatrix.from_columns(boundaries, rows=n)
    pres = homology_presentation(d_in, d_out)
    for b in boundaries:
        assert pres.reduce(b) == (Q(0),) * pres.dim
    cycles = list(kernel)
    cycles.append(_combine(data.draw(st.lists(small_fracs, min_size=len(kernel), max_size=len(kernel))), kernel, n))
    for v in cycles:
        assert pres.reduce(v) == reduce_by_solve_in_span(pres, v)
    for j in range(n):
        if any(d_out.column(j)):
            unit = tuple(Q(int(k == j)) for k in range(n))
            with pytest.raises(ValueError):
                pres.reduce(unit)
            with pytest.raises(ValueError):
                reduce_by_solve_in_span(pres, unit)


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
    checked = sum(assert_reduce_matches_oracle(pres, rng) for pres in hc.pres.values())
    assert checked > 100
