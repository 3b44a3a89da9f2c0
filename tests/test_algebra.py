from fractions import Fraction

import pytest

from mixhom.algebra import (
    FrobeniusPairing,
    WindowOverflowError,
    check_frobenius_pairing,
    exterior_pairing,
    exterior_presentation,
    make_exterior_algebra,
    make_truncated_polynomial_algebra,
    polynomial_presentation,
)

Q = Fraction


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
