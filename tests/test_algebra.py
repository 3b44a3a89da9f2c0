from fractions import Fraction

import pytest

from mixhom.algebra import (
    OUT_OF_WINDOW,
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
