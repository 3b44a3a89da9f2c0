"""Quadratic duality: dual algebras, Koszul complexes, small models.

For a quadratic presentation TV/(R) the dual coalgebra pieces are the
intersections U_w = ∩ V^i ⊗ R ⊗ V^j inside V^{⊗w}, computed as one common
kernel: the vectors annihilated by every V^i ⊗ R^⊥ ⊗ V^j, where R^⊥ is the
annihilator of R under the standard pairing of V ⊗ V.  The dual algebra is
their graded dual, with multiplication dual to deconcatenation.  Vectors in
V^{⊗w} are sparse rows {word index: coefficient}, and U_w is kept as the
reduced row echelon basis with unit pivots.  The Koszul complex and the two
small Hochschild models are weight-homogeneous complexes built from
one-letter transfers between the algebra and the (co)algebra sides.  Each is
a :class:`~mixhom.mixed.MixedComplexSlice` with B = 0: its matrices are
built once, validated to square to zero, and its homology dimensions come
from ranks (``hh_dims``), as for every other complex here.
:class:`KoszulDualData` is the one structure of a presentation: the U_w and
A^!, and, built on first read, TV/(R) and the Koszulness verdict.

The correspondence between quadratic bivectors on the polynomial side and
on the exterior side swaps coefficient roles, and the basis
identifications between Kähler forms and dual polyvectors are relabeling
bijections on canonical monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import starmap
from math import factorial

from .algebra import Element, GradedAlgebra, QuadraticPresentation, build_algebra
from .calculus import DualityError
from .linalg import (
    _accumulate,
    _denominator,
    _integer_row,
    _integer_rref,
    _kernel_rows,
    _positive,
)
from . import poisson as po
from .mixed import MixedComplexSlice, _classes, _coordinates, _mats_from_operator

Word = tuple[int, ...]


def _word(idx: int, n: int, w: int) -> Word:
    """The word of length w at index idx of V^{⊗w}, whose first letter is the most significant digit."""
    word = []
    for _ in range(w):
        idx, letter = divmod(idx, n)
        word.append(letter)
    return tuple(reversed(word))


def _relation_layers(n: int, rels: list[dict], w: int) -> list[dict]:
    """The vectors e_pre ⊗ r ⊗ e_post spanning Σ_i V^{⊗i} ⊗ span(rels) ⊗ V^{⊗(w-i-2)}, in V^{⊗w} coordinates.

    A two-letter vector r is indexed like the two-letter words, so the word
    pre·(a, b)·post sits at ((pre·n² + ab)·n^{w-i-2} + post).
    """
    vecs = []
    for i in range(w - 1):
        tail = n ** (w - i - 2)
        for pre in range(n**i):
            for rel in rels:
                for post in range(tail):
                    vecs.append({(pre * n * n + ab) * tail + post: c for ab, c in rel.items()})
    return vecs


def _echelon_basis(rows) -> list[dict[int, int | Fraction]]:
    """The reduced row echelon basis of the span of integer rows (consumed), with unit pivots and keys ascending.

    An entry is exact: the int v // r[p] where the pivot entry r[p] divides v, else the Fraction v / r[p].
    """
    return [{j: v // r[p] if v % r[p] == 0 else Fraction(v, r[p]) for j, v in r.items()}
            for p, r in starmap(_positive, _integer_rref(rows))]


def _relations(pres: QuadraticPresentation) -> list[dict[int, Fraction]]:
    """The relations as sparse two-letter vectors."""
    return [{ab: c for ab, c in enumerate(rel) if c} for rel in pres.relations]


@dataclass
class KoszulDualData:
    """Dual weight pieces U_w and the dual algebra of a quadratic presentation up to its cutoff.

    TV/(R) and the Koszulness verdict are built the first time they are read.
    """

    source: QuadraticPresentation
    cutoff: int
    dual_weight_pieces: dict[int, list[dict[int, Fraction]]]
    dual_algebra: GradedAlgebra
    # label (w, index) per dual algebra basis element, in order
    dual_labels: list[tuple[int, int]]

    def piece_dim(self, w: int) -> int:
        return len(self.dual_weight_pieces.get(w, ()))

    @cached_property
    def quotient(self) -> tuple[GradedAlgebra, dict]:
        """TV/(R) up to the cutoff, with its basis index (``quadratic_algebra``)."""
        return quadratic_algebra(self.source, self.cutoff)

    @cached_property
    def verdict(self) -> KoszulVerdict:
        """Koszulness up to the cutoff (``is_koszul``)."""
        return is_koszul(self)


def koszul_dual_algebra(pres: QuadraticPresentation, W: int) -> KoszulDualData:
    """Dual weight pieces and the dual algebra, by exact linear algebra.

    U_w = ∩_{i+j+2=w} V^i⊗R⊗V^j is the common kernel of the vectors
    V^i⊗R^⊥⊗V^j (so U_0 = k and U_1 = V); the dual algebra's weight-w piece
    is the dual of U_w, with product dual to deconcatenation
    (U_{p+q} ⊆ U_p ⊗ U_q).  A weight-w element built on generators of
    degrees d_i carries homological degree Σ(-d_i - 1) over its word.
    """
    n = pres.n
    perp = [v for _, v in _kernel_rows((_integer_row(r) for r in _relations(pres)), n * n)]
    U = {
        w: _echelon_basis(v for _, v in _kernel_rows(_relation_layers(n, perp, w), n**w))
        for w in range(W + 1)
    }

    # assemble the dual algebra on the dual bases of the U_w
    labels = []
    degrees = []
    weights = []
    index_of = {}
    for w in range(W + 1):
        for i, vec in enumerate(U[w]):
            index_of[(w, i)] = len(labels)
            labels.append(f"u{w}.{i}")
            weights.append(w)
            # degree from the words in the support (all agree when the
            # generators are degree-homogeneous per letter count)
            degs = {sum(-pres.generator_degrees[i] - 1 for i in _word(idx, n, w)) for idx in vec}
            if len(degs) > 1:
                raise ValueError("inhomogeneous dual piece")
            degrees.append(degs.pop())
    # the U bases are in reduced echelon form with unit pivots, so the dual
    # basis functional u_i^* reads off u_i's pivot coordinate, and
    # (u_i^* u_j^*)(c) = (u_i^* ⊗ u_j^*)(Δ_{p,q} c) is the entry of c at the
    # word piv(u_i)·piv(u_j)
    pivots = {w: [min(u) for u in U[w]] for w in U}
    keys = list(index_of)

    def product(a: int, b: int) -> Element:
        (p, i), (q, j) = keys[a], keys[b]
        at = pivots[p][i] * n**q + pivots[q][j]
        return {index_of[(p + q, k)]: c[at] for k, c in enumerate(U[p + q]) if at in c}

    dual = build_algebra(labels, degrees, weights, product, W, None, f"dual({pres.name})")
    data = KoszulDualData(pres, W, U, dual, keys)
    _check_annihilator_dimensions(pres, data)
    return data


class NotAComplex(Exception):
    pass


def _check_annihilator_dimensions(pres: QuadraticPresentation, data: KoszulDualData):
    if 2 in data.dual_weight_pieces:
        dim_u2 = len(data.dual_weight_pieces[2])
        if dim_u2 != len(pres.relations):
            raise ValueError(
                f"U_2 dimension {dim_u2} does not match the relation count {len(pres.relations)}"
            )


# -- the quotient algebra of a presentation ------------------------------------


def quadratic_algebra(pres: QuadraticPresentation, W: int) -> tuple[GradedAlgebra, dict]:
    """The algebra TV/(R) up to weight W.

    The basis of A_w is the free words: those that are not a pivot of the
    reduced row echelon basis of (R) in V^{⊗w}.  A free word is its own
    normal form, and a pivot word reduces to minus its echelon row on the
    free words.  Returns (algebra, index_of), where index_of maps (weight,
    local index) to the algebra's basis.
    """
    n = pres.n
    rels = _relations(pres)
    labels: list[str] = []
    degrees: list[int] = []
    weights: list[int] = []
    index_of: dict[tuple[int, int], int] = {}
    free: dict[int, list[int]] = {}
    normal_form: dict[int, dict[int, Element]] = {}
    for w in range(W + 1):
        rows = {min(r): r for r in _echelon_basis(_integer_row(v) for v in _relation_layers(n, rels, w))}
        free[w] = [idx for idx in range(n**w) if idx not in rows]
        for k, idx in enumerate(free[w]):
            word = _word(idx, n, w)
            index_of[(w, k)] = len(labels)
            labels.append("·".join(f"e{i+1}" for i in word) if word else "1")
            degrees.append(sum(pres.generator_degrees[i] for i in word))
            weights.append(w)
        basis = {idx: index_of[(w, k)] for k, idx in enumerate(free[w])}
        normal_form[w] = {idx: {gi: 1} for idx, gi in basis.items()}
        for p, row in rows.items():
            normal_form[w][p] = {basis[j]: -c for j, c in row.items() if j != p}

    keys = list(index_of)

    def product(a: int, b: int) -> Element:
        (w1, k1), (w2, k2) = keys[a], keys[b]
        return dict(normal_form[w1 + w2][free[w1][k1] * n**w2 + free[w2][k2]])

    algebra = build_algebra(labels, degrees, weights, product, W, None, f"TV/R({pres.name})")
    return algebra, index_of


# -- Koszul complex and Koszulness ----------------------------------------------


@dataclass
class KoszulVerdict:
    per_weight: dict[int, bool]

    @property
    def koszul_up_to_cutoff(self) -> bool:
        return all(self.per_weight.values())


def _tensor_slice(data: KoszulDualData, piece_of, apply, name: str) -> MixedComplexSlice:
    """A complex on the pieces A_s ⊗ U_t (s, t <= W), as a slice with B = 0.

    ``piece_of(s, t)`` is the slice piece of A_s ⊗ U_t, or None to leave it
    out; the differential lowers the slice degree by one.  A basis label is
    (A basis index, A^! basis index), the dual basis element of a U_t row
    standing for that row.  ``apply`` is applied once per label of a piece
    whose target has chains, and the slice checks d∘d = 0 on every piece.
    """
    A, _ = data.quotient
    dual = data.dual_algebra
    pieces: dict = {}
    for a in range(A.dim):
        for x in range(dual.dim):
            piece = piece_of(A.weights[a], dual.weights[x])
            if piece is not None:
                pieces.setdefault(piece, []).append((a, x))
    return MixedComplexSlice(pieces, _mats_from_operator(pieces, apply, -1), {}, f"{name}({data.source.name})")


def _dual_rows(data: KoszulDualData) -> dict[int, list[tuple[int, int, dict[int, int | Fraction]]]]:
    """Per dual weight t, the triples (A^! basis index, pivot word, U_t row), in order."""
    rows: dict = {}
    for x, (t, i) in enumerate(data.dual_labels):
        u = data.dual_weight_pieces[t][i]
        rows.setdefault(t, []).append((x, min(u), u))
    return rows


def koszul_complex(data: KoszulDualData) -> MixedComplexSlice:
    """The Koszul complex: the piece (m, w) is A_{w-m} ⊗ U_m, with the one-letter transfer.

    δ(r ⊗ f) = Σ_i e_i r ⊗ (f with its last letter paired against e_i^*)
    lowers m by one; it squares to zero because the trailing two letters of
    every U_m lie in R.
    """
    A, index_of = data.quotient
    n, U = data.source.n, data.dual_weight_pieces
    rows = _dual_rows(data)

    def delta(label):
        a, x = label
        m, u = data.dual_labels[x]
        out: dict = {}
        for letter in range(n):
            _transfer(out, rows[m - 1], _strip_last(U[m][u], n, letter),
                      A.mult_basis(index_of[(1, letter)], a), 1, "last")
        return out

    W = data.cutoff
    return _tensor_slice(data, lambda s, t: (t, s + t) if s + t <= W else None, delta, "koszul")


def _transfer(out: dict, below: list, stripped, prod, scale, end: str) -> None:
    """out += scale · prod ⊗ (stripped in the basis ``below`` of a U piece).

    ``stripped`` is a sparse dual-coalgebra vector with one letter removed
    at ``end``; it must lie in the span of the U rows.  ``below`` lists
    (A^! basis index, pivot word, U row) triples, the rows in reduced
    echelon form with unit pivots, so the coordinates are the entries of
    ``stripped`` at the pivots, and what they leave over must vanish.
    ``prod`` is a product of algebra basis elements.
    """
    if not stripped:
        return
    coords = {}
    rest = dict(stripped)
    for x, p, u in below:
        c = stripped.get(p)
        if c:
            coords[x] = c
            _accumulate(rest, u, -c)
    if rest:
        raise NotAComplex(f"{end}-letter strip leaves U")
    for ka, ca in prod.items():
        _accumulate(out, {(ka, x): c for x, c in coords.items()}, scale * ca)


def _strip_last(u: dict[int, Fraction], n: int, letter: int) -> dict[int, Fraction]:
    """(id ⊗ e_letter^*)(u): drop words not ending in the letter."""
    return {idx // n: c for idx, c in u.items() if idx % n == letter}


def _strip_first(u: dict[int, Fraction], n: int, m: int, letter: int) -> dict[int, Fraction]:
    """(e_letter^* ⊗ id)(u): drop words not starting with the letter."""
    dim_out = n ** (m - 1)
    return {idx % dim_out: c for idx, c in u.items() if idx // dim_out == letter}


def is_koszul(data: KoszulDualData) -> KoszulVerdict:
    """Acyclicity of the Koszul complex in every positive weight <= W, from ranks.

    The verdict is bounded: it certifies Koszulness up to the cutoff only.
    """
    acyclic = {w: True for w in range(1, data.cutoff + 1)}
    for (_m, w), dim in koszul_complex(data).hh_dims().items():
        if dim and w:
            acyclic[w] = False
    return KoszulVerdict(acyclic)


# -- small Hochschild models ------------------------------------------------------


class NotKoszulError(Exception):
    pass


@dataclass
class SmallModels:
    """Homology of (A⊗A^!, δ) and (A⊗A^¡, b) per (algebra weight, dual weight)."""

    cochain_dims: dict[tuple[int, int], int]
    chain_dims: dict[tuple[int, int], int]


def small_hochschild_models(data: KoszulDualData) -> SmallModels:
    """The two one-letter-transfer models of Hochschild (co)homology, dimensions from ranks.

    Requires the presentation to be Koszul up to the cutoff (checked).  The
    cochain model differential transfers a letter into both sides of the
    dual-algebra factor, (s, t) -> (s + 1, t + 1); the chain model strips a
    letter off either end of the dual-coalgebra factor, (s, t) -> (s + 1, t - 1),
    on the pieces of the Koszul complex.  The relative sign between the two
    transfer terms is (-1)^{(g+1)t + g(1+|a|)} for chains and an extra
    global -1 for cochains, where g is the generator-degree parity, t the
    dual weight and |a| the algebra factor's degree.  For degree-zero
    generators these collapse to the ungraded (-1)^t and -(-1)^t; both
    choices are pinned by agreement with the bar complex on every
    overlapping piece.  Cochain dimensions are reported for s, t < W, where
    δ stays inside the window.
    """
    verdict = data.verdict
    if not verdict.koszul_up_to_cutoff:
        bad = sorted(w for w, ok in verdict.per_weight.items() if not ok)
        raise NotKoszulError(f"presentation is not Koszul in weights {bad}")
    pres, W = data.source, data.cutoff
    A, index_of = data.quotient
    n = pres.n
    g = pres.generator_degrees[0] % 2
    if any(d % 2 != g for d in pres.generator_degrees):
        raise ValueError("mixed generator-degree parity is not supported")
    dual, U = data.dual_algebra, data.dual_weight_pieces
    rows = _dual_rows(data)

    def b(label):
        a, x = label
        t, u = data.dual_labels[x]
        row = U[t][u]
        sgn = -1 if ((g + 1) * t + g * (1 + A.degrees[a])) % 2 else 1
        out: dict = {}
        for letter in range(n):
            e = index_of[(1, letter)]
            _transfer(out, rows[t - 1], _strip_first(row, n, t, letter), A.mult_basis(a, e), 1, "first")
            _transfer(out, rows[t - 1], _strip_last(row, n, letter), A.mult_basis(e, a), sgn, "last")
        return out

    def delta(label):
        a, x = label
        sgn = -1 if (1 + (g + 1) * dual.weights[x] + g * A.degrees[a]) % 2 else 1
        out: dict = {}
        for letter in range(n):
            e, xi = index_of[(1, letter)], rows[1][letter][0]
            for la, lx, scale in ((A.mult_basis(e, a), dual.mult_basis(xi, x), 1),
                                  (A.mult_basis(a, e), dual.mult_basis(x, xi), sgn)):
                for ka, ca in la.items():
                    _accumulate(out, {(ka, kx): cx for kx, cx in lx.items()}, scale * ca)
        return out

    chain = _tensor_slice(data, lambda s, t: (t, s + t) if s + t <= W else None, b, "chain-model")
    cochain = _tensor_slice(data, lambda s, t: (-s, t - s), delta, "cochain-model")
    return SmallModels(
        {(-d, w - d): dim for (d, w), dim in cochain.hh_dims().items() if dim and -d < W and w - d < W},
        {(w - d, d): dim for (d, w), dim in chain.hh_dims().items() if dim},
    )


# -- bivector duality and Poisson identification -----------------------------------


def dual_bivector_coeffs(coeffs: dict[tuple[int, int, int, int], Fraction]):
    """Swap the coefficient roles: c_{i1 i2}^{j1 j2} acts on the dual side
    with the lower indices on the derivations and the upper on the
    generators.  Applying the swap twice returns the normalized input.
    """
    return {(j1, j2, i1, i2): c for (i1, i2, j1, j2), c in coeffs.items()}


@dataclass
class PoissonIdentification:
    """The mixed-complex isomorphism Ω(A) ≅ dual polyvectors of A^!.

    On canonical monomials: x^a dx_J maps to the functional dual to
    ξ_J (dξ)^a with coefficient (-1)^{p(p-1)/2} Π a_i! where p = |J|; the
    factorials are the polynomial/divided-power duality, the period-four
    sign is the volume-orientation unit ``poisson._orientation``.  With these
    coefficients the map intertwines the Poisson boundary with the dual
    coboundary and the de Rham differential with its dual exactly (verified
    monomial by monomial), so it induces isomorphisms on every cyclic
    theory of the two mixed complexes.
    """

    n: int
    ctx_poly: po.PoissonContext
    ctx_ext: po.PoissonContext

    def form_to_dual(self, m):
        a = m[: self.n]
        J = m[self.n :]
        return J + a

    def coefficient(self, m) -> int:
        c = po._orientation(sum(m[self.n :]))
        for e in m[: self.n]:
            c *= factorial(e)
        return c

    def push(self, labels, num) -> dict:
        """The identification on an integer row {index into labels: c}, as {dual label: coefficient·c}."""
        return {self.form_to_dual(labels[j]): self.coefficient(labels[j]) * c for j, c in num.items()}

    def check_chain_map(self, pi_coeffs, w_max: int = 4) -> list[str]:
        """Verify the intertwining on every form monomial in the window; π need not be Poisson.

        Two squares of integer columns (``poisson._square``) for the signed
        diagonal map m ↦ coefficient(m)·form_to_dual(m): ∂ against δ, both
        over one denominator of π and π^!, and d against d*.  ∂, d and
        form_to_dual preserve weight, so the dual side stops at w_max.
        """
        pi = po.quadratic_bivector(self.ctx_poly, pi_coeffs)
        pid = po.quadratic_bivector(self.ctx_ext, dual_bivector_coeffs(pi_coeffs))
        dual = po.DualSide(self.ctx_ext, pid, w_max=w_max)
        den = _denominator([*pi.values(), *pid.values()])
        coboundary, d_star = dual._columns(dual.b_mats, -1, den), dual._columns(dual.B_mats, 1, 1)
        F = self.ctx_poly.forms

        def iso(m):
            return {self.form_to_dual(m): self.coefficient(m)}

        def maps():
            _, d, boundary = po._form_columns(self.ctx_poly, pi, den)
            return [(iso, boundary, coboundary, lambda m: 1), (iso, d, d_star, lambda m: 1)]

        labels = F.monomials([w_max] * self.n + [1] * self.n, 0, w_max)
        return [f"{('boundary', 'de Rham')[k]} fails at {F.format_monomial(m)}"
                for m, k in po._square(labels, F.weight, maps)]


def koszul_poisson_identification(n: int) -> PoissonIdentification:
    return PoissonIdentification(n, po.PoissonContext.make(n, "poly"), po.PoissonContext.make(n, "ext"))


def hh_class_image(ident: PoissonIdentification, primal_slice, dual_slice, key):
    """Push one b-homology class through the identification, as coordinates."""
    piece, i = key
    num, den = primal_slice.hh(piece).cycle(i)
    image = ident.push(primal_slice.pieces[piece], num)
    return tuple(c / den for c in dual_slice.hh(piece).reduce(dual_slice.element_vector(piece, image)))


def fit_dual_product_twist(ident: PoissonIdentification, primal_duality, dual_bundle, eta_dual):
    """The dual side's PD twist, derived from the identification.

    The identification sends the primal volume class η to c·η^! with
    c = ``ident.coefficient`` of the volume monomial = (-1)^{n(n-1)/2}, and
    scaling a volume class by c scales its transported product by 1/c = c.
    So the twist is the constant c on every piece: derived, not fitted from
    products, and checked again by every bracket comparison across the iso.
    Raises DualityError unless η maps to exactly ±1 times ``eta_dual``.
    """
    piece, i = eta_dual
    if piece != primal_duality.eta[0]:
        raise DualityError(f"dual volume class {eta_dual} is not in the primal volume piece")
    img = hh_class_image(ident, primal_duality.bundle.slice, dual_bundle.slice, primal_duality.eta)
    c = img[i]
    if c not in (1, -1) or any(v for j, v in enumerate(img) if j != i):
        raise DualityError(f"the identification sends η to {img}, not to ±{eta_dual}")
    return lambda _piece: c


def poisson_hc_iso(ident: PoissonIdentification, g_primal, g_dual):
    """Push the identification to a basis map between two HC⁻ gravity bases.

    For each stable class of the primal structure, push its representative's
    stacked components through the identification and reduce in the dual
    presentation.  Each u-power of a piece is a different form degree, so
    a stacked basis lists distinct labels.  Returns {primal basis key:
    class row of dual basis keys}, the map ``gravity.compare_across_iso``
    reads.
    """
    iso = {}
    for key in g_primal.basis:
        (d, w), i = key
        labels, labels2 = ([hc.slice.pieces[(d + 2 * u, w)][j] for u, j in hc.stacked_basis(d, w)]
                           for hc in (g_primal.hc, g_dual.hc))
        num, den = g_primal.hc.presentation((d, w)).cycle(i)
        vec = _coordinates(labels2, ident.push(labels, num).items(), KeyError)
        iso[key] = _classes((d, w), g_dual.hc.presentation((d, w)), vec, den)
    return iso
