"""Finite presentations of graded algebras.

A :class:`GradedAlgebra` is a finite table of basis elements with homological
degree, non-negative weight and rational structure constants (an int where
integral, else a Fraction), validated at construction.  Every algebra in the
package is built by :func:`build_algebra` from a basis and a product of basis
indices.  Λ(n) and k[x_1..x_n]/(weight > W) are truncations of
:class:`~mixhom.poisson.FreeGCA`, so its ``mul_monomials`` is the one monomial
sign rule, shared with Kähler forms and polyvector fields.

Weight truncation is explicit: a product whose weight exceeds the cutoff is
a distinct out-of-window signal, written only by :func:`build_algebra`, never
a silent zero; multiplying across it raises ``WindowOverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import ExactMatrix, _accumulate, _sparse_rank
from .poisson import FreeGCA, Generator

Element = dict[int, int | Fraction]  # basis index -> coefficient: an int where it is integral, else a Fraction


class WindowError(Exception):
    """A result leaves the computed window."""


class WindowOverflowError(WindowError):
    """A product escaped the weight window; carries the weight needed."""

    def __init__(self, needed_weight: int):
        self.needed_weight = needed_weight
        super().__init__(f"product escapes weight window; needs weight {needed_weight}")


class _OutOfWindow:
    __slots__ = ()

    def __repr__(self):
        return "OUT_OF_WINDOW"


OUT_OF_WINDOW = _OutOfWindow()


class AlgebraValidationError(Exception):
    pass


def koszul_sign(degrees_left: int, degrees_right: int) -> int:
    """Sign (-1)^{ab} for transposing homogeneous symbols of the given degrees."""
    return -1 if (degrees_left % 2) and (degrees_right % 2) else 1


class GradedAlgebra:
    """Unital weight-graded algebra given by structure constants on a basis.

    ``table[(i, j)]`` is either an Element (the product of basis elements i
    and j) or OUT_OF_WINDOW when the product's weight exceeds the cutoff.
    Invariants (associativity, unit laws, degree/weight additivity,
    connectedness, graded commutativity when flagged) are checked at
    construction.
    """

    def __init__(
        self,
        labels: list[str],
        degrees: list[int],
        weights: list[int],
        unit: int,
        table: dict[tuple[int, int], Element | _OutOfWindow],
        commutativity: str | None = None,
        weight_cutoff: int | None = None,
        name: str = "",
    ):
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.weights = tuple(weights)
        self.unit = unit
        self.table = table
        self.commutativity = commutativity
        self.weight_cutoff = weight_cutoff
        self.name = name or "algebra"
        self.dim = len(labels)
        self.index = {lab: i for i, lab in enumerate(labels)}
        self._validate()

    # -- basic accessors ---------------------------------------------------

    def basis_element(self, i: int) -> Element:
        return {i: 1}

    def one(self) -> Element:
        return {self.unit: 1}

    def augmentation_indices(self) -> list[int]:
        return [i for i in range(self.dim) if i != self.unit]

    def mult_basis(self, i: int, j: int) -> Element | _OutOfWindow:
        return self.table.get((i, j), {})

    @cached_property
    def factorizations(self) -> dict[int, list[tuple[int, int]]]:
        """{m: [(x, y), ...]}: the augmentation pairs whose in-window product holds m."""
        out: dict[int, list[tuple[int, int]]] = {}
        aug = self.augmentation_indices()
        for x in aug:
            for y in aug:
                prod = self.mult_basis(x, y)
                if prod is not OUT_OF_WINDOW:
                    for m in prod:
                        out.setdefault(m, []).append((x, y))
        return out

    def multiply(self, a: Element, b: Element) -> Element:
        """Bilinear extension of the table; raises on out-of-window products."""
        out: Element = {}
        for i, ca in a.items():
            if ca == 0:
                continue
            for j, cb in b.items():
                if cb == 0:
                    continue
                prod = self.mult_basis(i, j)
                if prod is OUT_OF_WINDOW:
                    raise WindowOverflowError(self.weights[i] + self.weights[j])
                _accumulate(out, prod, ca * cb)
        return out

    # -- validation --------------------------------------------------------

    def _validate(self):
        """Check the invariants; raise AlgebraValidationError on the first that fails.

        Associativity is checked on the triples (x, y, g) with g of weight 1
        when the weight-1 elements generate: every weight w >= 2 inside the
        cutoff is spanned by products of weight w - 1 with weight 1
        (``_generated_in_weight_one``).  Then (xy)z = x(yz) on every triple of
        total weight inside the cutoff, by induction on the weight of z.  At
        weight 0, z is the unit and the unit laws give it; at weight 1 it is
        checked.  At weight w >= 2, write z = Σ c·a·g with |a| = w - 1, |g| = 1:
        (xy)(ag) = ((xy)a)g = (x(ya))g = x((ya)g) = x(y(ag)), by the weight-1
        case, the induction, the weight-1 case and the weight-1 case.  Every
        product there has weight at most |x| + |y| + w, so the truncation
        keeps each intermediate inside the cutoff, where the closure check
        has made every pair of basis elements multiply in window.  When the
        weight-1 elements do not generate, every triple is checked.
        """
        n = self.dim
        if not (0 <= self.unit < n):
            raise AlgebraValidationError("unit index out of range")
        if self.degrees[self.unit] != 0 or self.weights[self.unit] != 0:
            raise AlgebraValidationError("unit must have degree 0 and weight 0")
        for i in range(n):
            if self.weights[i] < 0:
                raise AlgebraValidationError(f"negative weight at {self.labels[i]}")
            if self.weights[i] == 0 and i != self.unit:
                raise AlgebraValidationError("weight-0 component must be spanned by the unit")
        # unit laws
        for i in range(n):
            left = self.mult_basis(self.unit, i)
            right = self.mult_basis(i, self.unit)
            if left is OUT_OF_WINDOW or right is OUT_OF_WINDOW:
                raise AlgebraValidationError("unit products cannot be out of window")
            if left != {i: 1} or right != {i: 1}:
                raise AlgebraValidationError(f"unit law fails at {self.labels[i]}")
        # degree/weight additivity
        for (i, j), prod in self.table.items():
            if prod is OUT_OF_WINDOW:
                continue
            for k, c in prod.items():
                if c == 0:
                    continue
                if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                    raise AlgebraValidationError(
                        f"degree not additive on {self.labels[i]}*{self.labels[j]}"
                    )
                if self.weights[k] != self.weights[i] + self.weights[j]:
                    raise AlgebraValidationError(
                        f"weight not additive on {self.labels[i]}*{self.labels[j]}"
                    )
        # closure: every pair of total weight inside the cutoff multiplies in window
        W, cutoff = self.weights, self.weight_cutoff
        for i in range(n):
            for j in range(n):
                if (cutoff is None or W[i] + W[j] <= cutoff) and self.mult_basis(i, j) is OUT_OF_WINDOW:
                    raise AlgebraValidationError("window not multiplicatively closed")
        # associativity on triples whose total weight stays in window, the third of weight 1 if that generates
        thirds = [k for k in range(n) if W[k] == 1] if self._generated_in_weight_one() else range(n)
        for i in range(n):
            for j in range(n):
                for k in thirds:
                    if cutoff is not None and W[i] + W[j] + W[k] > cutoff:
                        continue
                    lhs = self.multiply(self.mult_basis(i, j), self.basis_element(k))
                    rhs = self.multiply(self.basis_element(i), self.mult_basis(j, k))
                    if lhs != rhs:
                        raise AlgebraValidationError(
                            f"associativity fails on ({self.labels[i]},{self.labels[j]},{self.labels[k]})"
                        )
        if self.commutativity == "graded-commutative":
            for i in range(n):
                for j in range(n):
                    ij = self.mult_basis(i, j)
                    ji = self.mult_basis(j, i)
                    if ij is OUT_OF_WINDOW or ji is OUT_OF_WINDOW:
                        continue
                    sign = koszul_sign(self.degrees[i], self.degrees[j])
                    expect = {k: sign * c for k, c in ji.items()}
                    if ij != expect:
                        raise AlgebraValidationError(
                            f"graded commutativity fails on ({self.labels[i]},{self.labels[j]})"
                        )

    def _generated_in_weight_one(self) -> bool:
        """Whether each weight w >= 2 inside the cutoff is spanned by products of weight w - 1 with weight 1.

        One rank per weight; the products are in window by the closure check.
        """
        by_weight: dict[int, list[int]] = {}
        for i, w in enumerate(self.weights):
            by_weight.setdefault(w, []).append(i)
        gens = by_weight.get(1, [])
        return all(
            _sparse_rank(self.mult_basis(a, g) for a in by_weight.get(w - 1, ()) for g in gens) == len(members)
            for w, members in by_weight.items()
            if w >= 2 and (self.weight_cutoff is None or w <= self.weight_cutoff)
        )


# -- the one builder, and the free graded-commutative truncations -------------


def build_algebra(labels: list[str], degrees: list[int], weights: list[int], product,
                  cutoff: int | None, commutativity: str | None, name: str) -> GradedAlgebra:
    """The algebra on the given basis, unit at index 0, with table ``product(i, j)``.

    A pair whose weight exceeds ``cutoff`` is OUT_OF_WINDOW in the table, and
    ``product`` is never called on it.
    """
    table = {}
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            out = cutoff is not None and wi + wj > cutoff
            table[(i, j)] = OUT_OF_WINDOW if out else product(i, j)
    return GradedAlgebra(labels, degrees, weights, unit=0, table=table, commutativity=commutativity,
                         weight_cutoff=cutoff, name=name)


def _free_truncation(F: FreeGCA, max_exponent: int, cutoff: int | None, name: str) -> GradedAlgebra:
    """The monomials of F with exponents <= max_exponent and weight <= cutoff, under F's product.

    Ordered by (weight, -exponents) and labelled by ``format_monomial``; ``mul_monomials`` gives every sign.
    """
    monos = sorted(
        F.monomials([max_exponent] * F.n, -math.inf, math.inf if cutoff is None else cutoff),
        key=lambda m: (F.weight(m), tuple(-e for e in m)),
    )
    pos = {m: i for i, m in enumerate(monos)}

    def product(i: int, j: int) -> Element:
        got = F.mul_monomials(monos[i], monos[j])
        return {} if got is None else {pos[got[1]]: got[0]}

    return build_algebra([F.format_monomial(m) for m in monos], [F.degree(m) for m in monos],
                         [F.weight(m) for m in monos], product, cutoff, "graded-commutative", name)


def make_exterior_algebra(n: int) -> GradedAlgebra:
    """Exterior algebra Λ(n): the free graded-commutative algebra on n generators ξ_i of degree -1, weight 1.

    Basis: the 2^n square-free monomials, graded commutative, with a
    one-dimensional top component ξ_1…ξ_n, which sorts last.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    gens = [Generator(f"ξ{i + 1}", -1, 1) for i in range(n)]
    return _free_truncation(FreeGCA(gens), 1, None, f"exterior({n})")


def make_truncated_polynomial_algebra(n: int, W: int) -> GradedAlgebra:
    """Polynomials in n degree-0, weight-1 variables x_i, truncated above total weight W.

    Products of total weight > W are flagged out-of-window.
    """
    if n < 1 or W < 1:
        raise ValueError("n >= 1 and W >= 1 required")
    gens = [Generator(f"x{i + 1}", 0, 1) for i in range(n)]
    return _free_truncation(FreeGCA(gens), W, W, f"poly({n},W={W})")


# -- quadratic presentations -------------------------------------------------


@dataclass(frozen=True)
class QuadraticPresentation:
    """A quadratic algebra TV/(R): generator degrees and a basis of R in V⊗V.

    Relation vectors are coordinates in the n^2 tensor basis e_i⊗e_j, indexed
    by i*n + j.  They must be linearly independent.
    """

    n: int
    generator_degrees: tuple[int, ...]
    relations: tuple[tuple[Fraction, ...], ...]
    name: str = "quadratic"

    def __post_init__(self):
        if len(self.generator_degrees) != self.n:
            raise ValueError("one degree per generator required")
        for r in self.relations:
            if len(r) != self.n * self.n:
                raise ValueError("relation vectors live in the n^2 tensor basis")
        if self.relations:
            M = ExactMatrix.from_rows(self.relations)
            if M.rank() != len(self.relations):
                raise ValueError("relation vectors must be linearly independent")


def _relation_vector(n: int, terms: dict[tuple[int, int], Fraction]) -> tuple[Fraction, ...]:
    """Σ c·e_i⊗e_j over the entries (i, j): c of terms, in the n^2 tensor basis (0-based letters)."""
    return tuple(terms.get(divmod(k, n), 0) for k in range(n * n))


def polynomial_presentation(n: int) -> QuadraticPresentation:
    """k[x_1..x_n]: commutators x_i⊗x_j - x_j⊗x_i span the relations."""
    rels = tuple(_relation_vector(n, {(i, j): 1, (j, i): -1}) for i, j in combinations(range(n), 2))
    return QuadraticPresentation(n, (0,) * n, rels, name=f"poly({n})")


def exterior_presentation(n: int) -> QuadraticPresentation:
    """Exterior algebra on degree -1 generators: symmetric tensors as relations."""
    rels = [_relation_vector(n, {(i, i): 1}) for i in range(n)]
    rels += [_relation_vector(n, {(i, j): 1, (j, i): 1}) for i, j in combinations(range(n), 2)]
    return QuadraticPresentation(n, (-1,) * n, tuple(rels), name=f"exterior_pres({n})")


# -- Frobenius pairings ------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusPairing:
    """A bilinear pairing on the algebra basis, of homogeneous degree -n."""

    matrix: tuple[tuple[Fraction, ...], ...]
    degree: int

    def value(self, i: int, j: int) -> Fraction:
        return self.matrix[i][j]


@dataclass
class PairingReport:
    nondegenerate: bool
    cyclic_violations: list[tuple[int, int, int]] = field(default_factory=list)
    degree_violations: list[tuple[int, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.nondegenerate and not self.cyclic_violations and not self.degree_violations


def check_frobenius_pairing(A: GradedAlgebra, pairing: FrobeniusPairing) -> PairingReport:
    """Exhaustive nondegeneracy and cyclic-invariance check.

    Cyclic invariance: <a*b, c> = (-1)^{|c|(|a|+|b|)} <c*a, b> on all basis
    triples.  Failures are collected, not raised.
    """
    n = A.dim
    if len(pairing.matrix) != n or any(len(row) != n for row in pairing.matrix):
        raise ValueError("pairing matrix dimensions do not match the algebra")
    M = ExactMatrix.from_rows(pairing.matrix)
    nondeg = M.rank() == n
    report = PairingReport(nondegenerate=nondeg)
    for i in range(n):
        for j in range(n):
            if pairing.matrix[i][j] != 0 and A.degrees[i] + A.degrees[j] != -pairing.degree:
                report.degree_violations.append((i, j))
    for a in range(n):
        for b in range(n):
            ab = A.mult_basis(a, b)
            if ab is OUT_OF_WINDOW:
                continue
            for c in range(n):
                ca = A.mult_basis(c, a)
                if ca is OUT_OF_WINDOW:
                    continue
                lhs = sum((coef * pairing.matrix[k][c] for k, coef in ab.items()), 0)
                rhs = sum((coef * pairing.matrix[k][b] for k, coef in ca.items()), 0)
                sign = koszul_sign(A.degrees[c], A.degrees[a] + A.degrees[b])
                if lhs != sign * rhs:
                    report.cyclic_violations.append((a, b, c))
    return report


def exterior_pairing(A: GradedAlgebra) -> FrobeniusPairing:
    """The pairing (α, β) -> coefficient of ξ_1…ξ_n in α∧β on A = ``make_exterior_algebra(n)``."""
    top = A.dim - 1  # the top monomial sorts last
    rows = tuple(tuple(A.mult_basis(i, j).get(top, 0) for j in range(A.dim)) for i in range(A.dim))
    return FrobeniusPairing(rows, degree=-A.degrees[top])
