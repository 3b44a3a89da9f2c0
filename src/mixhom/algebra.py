"""Finite presentations of graded algebras.

A :class:`GradedAlgebra` is a finite table of basis elements with homological
degree, non-negative weight and rational structure constants.  Constructors
are provided for exterior algebras and weight-truncated polynomial algebras;
general structure-constant input is accepted and validated the same way.

Weight truncation is explicit: a product whose weight exceeds the cutoff is
a distinct out-of-window signal, never a silent zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import ExactMatrix

Q = Fraction

Element = dict[int, Fraction]  # basis index -> coefficient


class WindowOverflowError(Exception):
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
        return {i: Q(1)}

    def one(self) -> Element:
        return {self.unit: Q(1)}

    def augmentation_indices(self) -> list[int]:
        return [i for i in range(self.dim) if i != self.unit]

    def mult_basis(self, i: int, j: int) -> Element | _OutOfWindow:
        got = self.table.get((i, j))
        if got is None:
            return {}
        return got

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
                c = ca * cb
                for k, ck in prod.items():
                    s = out.get(k, Q(0)) + c * ck
                    if s == 0:
                        out.pop(k, None)
                    else:
                        out[k] = s
        return out

    def format_element(self, a: Element) -> str:
        if not a:
            return "0"
        parts = []
        for i in sorted(a):
            c = a[i]
            parts.append(f"{c}*{self.labels[i]}")
        return " + ".join(parts)

    # -- validation --------------------------------------------------------

    def _validate(self):
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
            if left != {i: Q(1)} or right != {i: Q(1)}:
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
        # associativity on triples whose total weight stays in window
        cutoff = self.weight_cutoff
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if cutoff is not None and (
                        self.weights[i] + self.weights[j] + self.weights[k] > cutoff
                    ):
                        continue
                    ab = self.mult_basis(i, j)
                    bc = self.mult_basis(j, k)
                    if ab is OUT_OF_WINDOW or bc is OUT_OF_WINDOW:
                        raise AlgebraValidationError("window not multiplicatively closed")
                    lhs = self.multiply(ab, self.basis_element(k))
                    rhs = self.multiply(self.basis_element(i), bc)
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


# -- exterior algebras -----------------------------------------------------


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


def make_exterior_algebra(n: int) -> GradedAlgebra:
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


# -- truncated polynomial algebras ------------------------------------------


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


def make_truncated_polynomial_algebra(n: int, W: int) -> GradedAlgebra:
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
    return tuple(Q(terms.get(divmod(k, n), 0)) for k in range(n * n))


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

    def pair(self, a: Element, b: Element) -> Fraction:
        total = Q(0)
        for i, ca in a.items():
            row = self.matrix[i]
            for j, cb in b.items():
                total += ca * cb * row[j]
        return total


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
                lhs = sum((coef * pairing.matrix[k][c] for k, coef in ab.items()), Q(0))
                rhs = sum((coef * pairing.matrix[k][b] for k, coef in ca.items()), Q(0))
                sign = koszul_sign(A.degrees[c], A.degrees[a] + A.degrees[b])
                if lhs != sign * rhs:
                    report.cyclic_violations.append((a, b, c))
    return report


def exterior_pairing(A: GradedAlgebra) -> FrobeniusPairing:
    """The pairing (α, β) -> coefficient of ξ_1…ξ_n in α∧β on A = ``make_exterior_algebra(n)``."""
    top = A.dim - 1  # full mask sorts last
    rows = tuple(tuple(A.mult_basis(i, j).get(top, Q(0)) for j in range(A.dim)) for i in range(A.dim))
    return FrobeniusPairing(rows, degree=-A.degrees[top])
