from fractions import Fraction

import pytest

from mixhom.algebra import (
    OUT_OF_WINDOW,
    AlgebraValidationError,
    Element,
    FrobeniusPairing,
    GradedAlgebra,
    WindowError,
    WindowOverflowError,
    _OutOfWindow,
    check_frobenius_pairing,
    exterior_pairing,
    exterior_presentation,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
    polynomial_presentation,
)

Q = Fraction


# -- oracles: the exterior and truncated polynomial constructors on bit masks
# and exponent tuples, with their own sign rule, kept as they were before both
# became truncations of FreeGCA


def _exterior_label(mask: int, n: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"ξ{i + 1}" for i in range(n) if mask & (1 << i))


def _merge_sign(mask_a: int, mask_b: int, n: int) -> int:
    """Sign from sorting the concatenation of two disjoint index sets."""
    inv = 0
    for i in range(n):
        if mask_b & (1 << i):
            # count elements of mask_a strictly greater than i
            inv += bin(mask_a >> (i + 1)).count("1")
    return -1 if inv % 2 else 1


def oracle_exterior_algebra(n: int) -> GradedAlgebra:
    """Exterior algebra on n generators of degree -1 and weight 1.

    Basis: the 2^n square-free monomials in generator order, graded
    commutative, 2^n-dimensional with one-dimensional top component.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), _sorted_indices(m)))
    labels = [_exterior_label(m, n) for m in masks]
    degrees = [-bin(m).count("1") for m in masks]
    weights = [bin(m).count("1") for m in masks]
    pos = {m: i for i, m in enumerate(masks)}
    table: dict[tuple[int, int], Element] = {}
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            if ma & mb:
                table[(a, b)] = {}
            else:
                sign = _merge_sign(ma, mb, n)
                table[(a, b)] = {pos[ma | mb]: Q(sign)}
    return GradedAlgebra(
        labels,
        degrees,
        weights,
        unit=0,
        table=table,
        commutativity="graded-commutative",
        name=f"exterior({n})",
    )


def _sorted_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask & (1 << i))


def _mono_label(exps: tuple[int, ...]) -> str:
    if not any(exps):
        return "1"
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "".join(parts)


def _monomials_up_to(n: int, W: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(W + 1 - sum(m))]
    return sorted(out, key=lambda m: (sum(m), tuple(-e for e in m)))


def oracle_truncated_polynomial_algebra(n: int, W: int) -> GradedAlgebra:
    """Polynomials in n degree-0 variables, truncated above total weight W.

    Products of total weight > W are flagged out-of-window.
    """
    if n < 1 or W < 1:
        raise ValueError("n >= 1 and W >= 1 required")
    monos = _monomials_up_to(n, W)
    pos = {m: i for i, m in enumerate(monos)}
    labels = [_mono_label(m) for m in monos]
    weights = [sum(m) for m in monos]
    degrees = [0] * len(monos)
    table: dict[tuple[int, int], Element | _OutOfWindow] = {}
    for a, ma in enumerate(monos):
        for b, mb in enumerate(monos):
            tot = sum(ma) + sum(mb)
            if tot > W:
                table[(a, b)] = OUT_OF_WINDOW
            else:
                m = tuple(x + y for x, y in zip(ma, mb))
                table[(a, b)] = {pos[m]: Q(1)}
    return GradedAlgebra(
        labels,
        degrees,
        weights,
        unit=0,
        table=table,
        commutativity="graded-commutative",
        weight_cutoff=W,
        name=f"poly({n},W={W})",
    )


def fields(A: GradedAlgebra) -> tuple:
    """The eight fields a GradedAlgebra is built from."""
    return (A.labels, A.degrees, A.weights, A.unit, A.table, A.commutativity, A.weight_cutoff, A.name)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exterior_algebra_matches_the_mask_oracle(n):
    assert fields(make_exterior_algebra(n)) == fields(oracle_exterior_algebra(n))


@pytest.mark.parametrize("W", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncated_polynomial_algebra_matches_the_monomial_oracle(n, W):
    assert fields(make_truncated_polynomial_algebra(n, W)) == fields(oracle_truncated_polynomial_algebra(n, W))


def test_the_oracle_comparison_sees_one_flipped_sign():
    A = make_exterior_algebra(3)
    oracle = fields(oracle_exterior_algebra(3))
    key = (A.index["ξ1"], A.index["ξ2ξ3"])
    flipped = dict(oracle[4])
    flipped[key] = {k: -c for k, c in flipped[key].items()}
    assert flipped[key]
    assert fields(A) == oracle
    assert fields(A) != oracle[:4] + (flipped,) + oracle[5:]


def test_a_window_overflow_is_a_window_error():
    assert issubclass(WindowOverflowError, WindowError)


def indices_of_weight(A, w):
    return [i for i in range(A.dim) if A.weights[i] == w]


class TestExterior:
    def test_rank_one_square_is_zero(self):
        A = make_exterior_algebra(1)
        assert [A.labels[i] for i in range(A.dim)] == ["1", "ξ1"]
        xi = A.index["ξ1"]
        assert A.multiply(A.basis_element(xi), A.basis_element(xi)) == {}

    def test_anticommutativity_and_degree(self):
        A = make_exterior_algebra(2)
        x1, x2 = A.index["ξ1"], A.index["ξ2"]
        ab = A.multiply(A.basis_element(x1), A.basis_element(x2))
        ba = A.multiply(A.basis_element(x2), A.basis_element(x1))
        assert ab == {k: -c for k, c in ba.items()}
        (k,) = ab
        assert A.degrees[k] == -2

    def test_degree_minus2_component_is_one_dimensional(self):
        A = make_exterior_algebra(2)
        assert sum(1 for d in A.degrees if d == -2) == 1

    def test_total_dimension_and_top(self):
        for n in (1, 2, 3):
            A = make_exterior_algebra(n)
            assert A.dim == 2**n
            assert sum(1 for w in A.weights if w == n) == 1


class TestTruncatedPolynomial:
    def test_basis_and_out_of_window(self):
        A = make_truncated_polynomial_algebra(1, 2)
        assert list(A.labels) == ["1", "x1", "x1^2"]
        x = A.index["x1"]
        x2 = A.index["x1^2"]
        assert A.multiply(A.basis_element(x), A.basis_element(x)) == {x2: Q(1)}
        with pytest.raises(WindowOverflowError) as exc:
            A.multiply(A.basis_element(x), A.basis_element(x2))
        assert exc.value.needed_weight == 3

    def test_dimension_two_vars(self):
        A = make_truncated_polynomial_algebra(2, 2)
        assert A.dim == 6  # C(2+2, 2)

    def test_weight_component_count(self):
        A = make_truncated_polynomial_algebra(2, 3)
        assert len(indices_of_weight(A, 3)) == 4

    def test_cube_in_window(self):
        A = make_truncated_polynomial_algebra(1, 3)
        x = A.index["x1"]
        x2 = A.index["x1^2"]
        assert A.multiply(A.basis_element(x), A.basis_element(x2)) == {A.index["x1^3"]: Q(1)}


class TestMultiplyGenerics:
    def test_unit_acts_trivially(self):
        A = make_exterior_algebra(2)
        for i in range(A.dim):
            assert A.multiply(A.one(), A.basis_element(i)) == A.basis_element(i)

    def test_graded_commutator_vanishes(self):
        A = make_exterior_algebra(2)
        a = {A.index["ξ1"]: Q(1)}
        b = {A.index["ξ2"]: Q(1)}
        lhs = A.multiply(a, b)
        rhs = A.multiply(b, a)
        combined = dict(lhs)
        for k, c in rhs.items():
            combined[k] = combined.get(k, Q(0)) + c
        assert all(v == 0 for v in combined.values())


class TestPresentations:
    def test_polynomial_relation_count(self):
        pres = polynomial_presentation(3)
        assert len(pres.relations) == 3

    def test_exterior_relation_count(self):
        pres = exterior_presentation(2)
        assert len(pres.relations) == 3


class TestFrobenius:
    def test_exterior_pairing_passes(self):
        for n in (1, 2, 3):
            A = make_exterior_algebra(n)
            p = exterior_pairing(A)
            report = check_frobenius_pairing(A, p)
            assert report.passed, (n, report.cyclic_violations[:3])

    def test_zero_pairing_fails_nondegeneracy(self):
        A = make_exterior_algebra(1)
        zero = FrobeniusPairing(((Q(0), Q(0)), (Q(0), Q(0))), degree=1)
        report = check_frobenius_pairing(A, zero)
        assert not report.nondegenerate

    def test_skewed_pairing_cyclic_verdict(self):
        # <1, ξ1> = 1, <ξ1, 1> = -1: check the sign rule on all 8 triples.
        # cyclic invariance demands <1*1, ξ1> = (-1)^{|ξ1|*0}<ξ1*1, 1> i.e.
        # <1, ξ1> = <ξ1, 1>, which this pairing violates.
        A = make_exterior_algebra(1)
        p = FrobeniusPairing(((Q(0), Q(1)), (Q(-1), Q(0))), degree=1)
        report = check_frobenius_pairing(A, p)
        assert report.nondegenerate
        assert report.cyclic_violations  # computed exhaustively, fails somewhere
        # and the symmetric version passes
        sym = FrobeniusPairing(((Q(0), Q(1)), (Q(1), Q(0))), degree=1)
        assert check_frobenius_pairing(A, sym).passed


# -- validation: associativity on generators against the full triple loop ------


def full_associativity(A: GradedAlgebra):
    """The associativity check on every triple of total weight inside the cutoff, as the validator made it."""
    n = A.dim
    cutoff = A.weight_cutoff
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cutoff is not None and (
                    A.weights[i] + A.weights[j] + A.weights[k] > cutoff
                ):
                    continue
                ab = A.mult_basis(i, j)
                bc = A.mult_basis(j, k)
                if ab is OUT_OF_WINDOW or bc is OUT_OF_WINDOW:
                    raise AlgebraValidationError("window not multiplicatively closed")
                lhs = A.multiply(ab, A.basis_element(k))
                rhs = A.multiply(A.basis_element(i), bc)
                if lhs != rhs:
                    raise AlgebraValidationError(
                        f"associativity fails on ({A.labels[i]},{A.labels[j]},{A.labels[k]})"
                    )


def with_table(A: GradedAlgebra, changes: dict) -> GradedAlgebra:
    """A with some products replaced, not validated."""
    B = object.__new__(GradedAlgebra)
    B.__dict__.update(A.__dict__, table={**A.table, **changes})
    return B


def _cli_batch_algebras():
    """(name, builder) for every algebra the four cli-batch jobs build: the job algebras, and the
    Koszul dual and TV/(R) of each job's presentation up to its w_max."""
    from mixhom.algebra import QuadraticPresentation, _relation_vector
    from mixhom.koszul import koszul_dual_algebra

    yield "poly(2,W=4)", lambda: make_truncated_polynomial_algebra(2, 4)
    yield "poly(3,W=4)", lambda: make_truncated_polynomial_algebra(3, 4)
    yield "exterior(3)", lambda: make_exterior_algebra(3)
    quad2 = QuadraticPresentation(2, (0, 0), (_relation_vector(2, {(0, 1): 1, (1, 0): -2}),), name="input")
    for job, pres, w_max in (("poly2", lambda: polynomial_presentation(2), 3),
                             ("ext3", lambda: exterior_presentation(3), 4),
                             ("poly3", lambda: polynomial_presentation(3), 3),
                             ("quad2", lambda: quad2, 5)):
        yield f"dual({job})", lambda pres=pres, w_max=w_max: koszul_dual_algebra(pres(), w_max).dual_algebra
        yield f"TV/R({job})", lambda pres=pres, w_max=w_max: koszul_dual_algebra(pres(), w_max).quotient[0]


@pytest.mark.parametrize("build", [pytest.param(b, id=name) for name, b in _cli_batch_algebras()])
def test_generator_check_agrees_with_the_full_triple_loop(build):
    # each algebra is generated in weight 1, so the validator took the generator path, and the
    # full loop accepts what it accepted
    A = build()
    assert A._generated_in_weight_one()
    full_associativity(A)


def test_a_corrupted_product_of_weight_two_elements_fails_the_generator_check():
    A = make_truncated_polynomial_algebra(2, 4)
    i, j, k = A.index["x1^2"], A.index["x2^2"], A.index["x1^2x2^2"]
    B = with_table(A, {(i, j): {k: Q(2)}})
    assert B._generated_in_weight_one()
    with pytest.raises(AlgebraValidationError, match="associativity fails on"):
        B._validate()
    with pytest.raises(AlgebraValidationError, match="associativity fails on"):
        full_associativity(B)


def test_a_table_not_generated_in_weight_one_takes_the_full_loop():
    # k[x, y] with |x| = 1, |y| = 2: weight 2 is x² and y, and only x² is a product of weight-1 elements
    from mixhom.algebra import _free_truncation
    from mixhom.poisson import FreeGCA, Generator

    A = _free_truncation(FreeGCA([Generator("x", 0, 1), Generator("y", 0, 2)]), 4, 4, "k[x,y]")
    assert not A._generated_in_weight_one()
    full_associativity(A)
    # x²·y doubled on one side only: no triple with a weight-1 third sees it, (x, x, y) does
    i, j = A.index["x^2"], A.index["y"]
    B = with_table(A, {(i, j): {A.index["x^2y"]: Q(2)}})
    W = B.weights
    assert all(B.multiply(B.mult_basis(a, b), {g: Q(1)}) == B.multiply({a: Q(1)}, B.mult_basis(b, g))
               for a in range(B.dim) for b in range(B.dim) for g in range(B.dim)
               if W[g] == 1 and W[a] + W[b] + W[g] <= 4)
    assert not B._generated_in_weight_one()
    with pytest.raises(AlgebraValidationError, match=r"associativity fails on \(x,x,y\)"):
        B._validate()


@pytest.mark.parametrize("make, change, message", [
    (lambda: make_exterior_algebra(1), lambda A: {(0, 1): {1: Q(2)}}, "unit law fails at ξ1"),
    (lambda: make_truncated_polynomial_algebra(1, 2), lambda A: {(1, 1): {1: Q(1)}}, "weight not additive on x1\\*x1"),
    (lambda: make_truncated_polynomial_algebra(1, 2), lambda A: {(1, 1): OUT_OF_WINDOW},
     "window not multiplicatively closed"),
    (lambda: make_exterior_algebra(2), lambda A: {(2, 1): {3: Q(1)}}, r"graded commutativity fails on \(ξ1,ξ2\)"),
], ids=["unit-law", "additivity", "closure", "graded-commutativity"])
def test_each_invariant_has_its_failure(make, change, message):
    A = make()
    A._validate()
    with pytest.raises(AlgebraValidationError, match=message):
        with_table(A, change(A))._validate()
