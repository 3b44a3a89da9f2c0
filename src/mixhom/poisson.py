"""Poisson chain and cochain complexes for polynomial and exterior algebras.

Kähler forms and polyvector fields are represented inside free graded-
commutative algebras on explicit generators:

  forms, polynomial side:    x_i (deg 0, wt 1),  dx_i (deg 1, wt 1)
  polyvectors, polynomial:   x_i (deg 0, wt 1),  ∂_i  (deg -1, wt -1)
  forms, exterior side:      ξ_i (deg -1, wt 1), dξ_i (deg 0, wt 1)
  polyvectors, exterior:     ξ_i (deg -1, wt 1), ∂ξ_i (deg 0, wt -1)

The free-algebra degree is the total homological degree (a polyvector's
arity shift is already carried by the ∂ generators), so the Poisson
coboundary has degree -1 and the de Rham differential degree +1 on every
side, and for a quadratic bivector all four differentials preserve weight.
Λ(n) and k[x_1..x_n]/(weight > W) are truncations of :class:`FreeGCA` too
(``algebra.make_exterior_algebra`` and ``make_truncated_polynomial_algebra``),
so ``FreeGCA.mul_monomials`` is the one monomial sign rule of the package.
Its sign depends on the odd exponents alone, two 0/1 patterns a and b:
(-1)^#{(j, i): j odd in b, i odd in a, i > j}, and no product when they share
a generator.  ``_koszul_sign`` reads it off the pair of patterns, and a partial
by an odd generator reads the same sign; an odd exponent above 1 is outside
the contract and raises ``ValueError``.

Operators are built from one Koszul-signed engine: contraction by a
polyvector monomial is coefficient multiplication after the form-side
partial derivatives, the Poisson boundary is the contraction/de Rham
commutator ∂ = ι_π∘d - d∘ι_π, and the coboundary δ = [π, -] is the Schouten
bracket, the first-order Leibniz expansion of the bracket the odd Laplacian
generates.  Derivative factors and Koszul signs are plain ints.  ι is one
integer column per (polyvector monomial, form monomial), ``contract_monomial``,
which the Poisson calculus bundles extend linearly in the polyvector; d and ∂
on forms are written once over it, as integer columns (``_form_columns``),
which the slices and the chain-map squares (``_square``) read.  π is tabulated
once for every δ (``_bracket_columns``), and :class:`DualSide` holds the signed
transposes of ∂ and d.  The odd-Laplacian bracket, element-level ι, d and ∂,
the per-functional dual actions, per-monomial squares and ungraded shuffle
sums live in the tests as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import add, itemgetter, mul

from .linalg import _accumulate, _denominator, _pullback

Q = Fraction

Monomial = tuple[int, ...]  # exponents aligned with the generator list
GCAElement = dict[Monomial, Fraction]


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    weight: int


class FreeGCA:
    """Free graded-commutative algebra on homogeneous generators.

    Monomials are exponent tuples in generator order; odd generators square
    to zero, so an odd exponent is 0 or 1; a product or an odd derivative of
    a monomial with a larger one raises ``ValueError``.  Products and
    derivatives carry the Koszul sign ``_koszul_sign``.
    """

    def __init__(self, generators: list[Generator]):
        self.gens = tuple(generators)
        self.n = len(self.gens)
        self.degrees = tuple(g.degree for g in self.gens)
        self.weights = tuple(g.weight for g in self.gens)
        self.odd = tuple(d % 2 == 1 for d in self.degrees)
        self.one: Monomial = (0,) * self.n
        self.units: tuple[Monomial, ...] = tuple(
            tuple(int(j == i) for j in range(self.n)) for i in range(self.n)
        )
        # the odd exponents of a monomial, always a tuple: a slice when the odd generators are contiguous
        # (itemgetter of a single index would give a bare int)
        at = [i for i in range(self.n) if self.odd[i]]
        lo, hi = (at[0], at[-1] + 1) if at else (0, 0)
        self._odd_part = itemgetter(slice(lo, hi)) if at == list(range(lo, hi)) else itemgetter(*at)
        self._odd_units = tuple(map(self._odd_part, self.units))

    def degree(self, m: Monomial) -> int:
        return sum(map(mul, m, self.degrees))

    def weight(self, m: Monomial) -> int:
        return sum(map(mul, m, self.weights))

    def mul_monomials(self, a: Monomial, b: Monomial):
        """(sign, monomial) or None if an odd generator repeats."""
        sign = _koszul_sign(self._odd_part(a), self._odd_part(b))
        # a list-built tuple: tuple(map(...)) kept more memory live in the Poisson builds
        return (sign, tuple([*map(add, a, b)])) if sign else None

    def multiply(self, a: GCAElement, b: GCAElement) -> GCAElement:
        out: GCAElement = {}
        for ma, ca in a.items():
            # distinct monomials of b give distinct products with ma
            acc: GCAElement = {}
            for mb, cb in b.items():
                got = self.mul_monomials(ma, mb)
                if got is not None:
                    acc[got[1]] = got[0] * cb
            _accumulate(out, acc, ca)
        return out

    def partial(self, i: int, m: Monomial):
        """Left partial derivative by generator i: (int coeff, monomial) or None.

        An odd generator passes the odd ones before it: the sign is that of g_i·(∂_i m) = ±m.
        """
        e = m[i]
        if not e:
            return None
        out = m[:i] + (e - 1,) + m[i + 1 :]
        if not self.odd[i]:
            return e, out
        sign = _koszul_sign(self._odd_units[i], self._odd_part(out))
        if not sign:
            raise ValueError(f"odd exponent {e} at generator {i} of {m}")
        return sign, out

    def monomials(self, max_exponents: list[int], w_min: float, w_max: float) -> list[Monomial]:
        """The monomials with exponent i at most max_exponents[i] (1 for an odd generator) and weight in
        [w_min, w_max], in lexicographic order.

        Built one generator at a time, a head is dropped as soon as no choice of the exponents still open
        brings its weight into the range, so no monomial outside it is listed.  Infinite bounds list all.
        """
        caps = [min(1, c) if odd else c for c, odd in zip(max_exponents, self.odd)]
        # the least and the greatest weight the generators from i on can still add
        low, high = [0] * (self.n + 1), [0] * (self.n + 1)
        for i in range(self.n - 1, -1, -1):
            w = caps[i] * self.weights[i]
            low[i], high[i] = low[i + 1] + min(w, 0), high[i + 1] + max(w, 0)
        heads: list[tuple[Monomial, int]] = [((), 0)]
        for i, (cap, w) in enumerate(zip(caps, self.weights)):
            lo, hi = w_min - high[i + 1], w_max - low[i + 1]
            heads = [(m + (e,), v + e * w) for m, v in heads for e in range(cap + 1) if lo <= v + e * w <= hi]
        return [m for m, _ in heads]

    def format_monomial(self, m: Monomial) -> str:
        parts = []
        for e, g in zip(m, self.gens):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "".join(parts) if parts else "1"

    def format_element(self, el: GCAElement) -> str:
        if not el:
            return "0"
        return " + ".join(f"{c}*{self.format_monomial(m)}" for m, c in sorted(el.items()))


@cache
def _koszul_sign(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The sign of a·b from the odd exponents a, b of two monomials, 0 if they share an odd generator.

    b's odd generators pass a's later ones: the sign is (-1)^#{(j, i): b_j = a_i = 1, i > j}.  It depends
    on the two 0/1 patterns only, so one memo serves every algebra, filled one pair at a time as pairs
    are met (64 pairs in a benchmark op); a pattern with an entry above 1 raises ``ValueError``, which
    is never memoized.
    """
    if max(a + b, default=0) > 1:
        raise ValueError(f"odd exponent above 1 in {a} or {b}")
    passed = later = 0
    for x, y in zip(reversed(a), reversed(b)):
        if x and y:
            return 0
        if y:
            passed += later
        later += x
    return -1 if passed % 2 else 1


# -- the four spaces ---------------------------------------------------------


def form_space(n: int, side: str = "poly") -> FreeGCA:
    if side == "poly":
        gens = [Generator(f"x{i+1}", 0, 1) for i in range(n)]
        gens += [Generator(f"dx{i+1}", 1, 1) for i in range(n)]
    else:
        gens = [Generator(f"ξ{i+1}", -1, 1) for i in range(n)]
        gens += [Generator(f"dξ{i+1}", 0, 1) for i in range(n)]
    return FreeGCA(gens)


def multivector_space(n: int, side: str = "poly") -> FreeGCA:
    if side == "poly":
        gens = [Generator(f"x{i+1}", 0, 1) for i in range(n)]
        gens += [Generator(f"∂{i+1}", -1, -1) for i in range(n)]
    else:
        gens = [Generator(f"ξ{i+1}", -1, 1) for i in range(n)]
        gens += [Generator(f"∂ξ{i+1}", 0, -1) for i in range(n)]
    return FreeGCA(gens)


@dataclass
class PoissonContext:
    """The paired form/polyvector spaces for one side of the duality."""

    n: int
    side: str
    forms: FreeGCA
    vectors: FreeGCA

    @classmethod
    def make(cls, n: int, side: str = "poly") -> "PoissonContext":
        return cls(n, side, form_space(n, side), multivector_space(n, side))


# -- core operators ----------------------------------------------------------


def _d(ctx: PoissonContext, m: Monomial) -> dict[Monomial, int]:
    """d of one form monomial, with integer coefficients; each coordinate gives its own monomial."""
    F = ctx.forms
    acc: dict[Monomial, int] = {}
    for i in range(ctx.n):
        got = F.partial(i, m)
        if got is not None:
            prod = F.mul_monomials(F.units[ctx.n + i], got[1])
            if prod is not None:
                acc[prod[1]] = got[0] * prod[0]
    return acc


def contract_monomial(ctx: PoissonContext, P: Monomial, m: Monomial) -> dict[Monomial, int]:
    """ι_P m for one polyvector monomial P and one form monomial m, as an integer column.

    ι for ∂_{k_1}∧..∧∂_{k_p} (k_1 < .. < k_p) applies the form-side partial
    with respect to dg_{k_1} first; the coefficient part multiplies on the
    left afterwards.  This matches the displayed shuffle-sum convention.
    The iterated partial of a form monomial is one signed monomial, so the
    column {monomial: ±k} is empty or has one entry.  It is the one ι on
    forms: the slices and squares (``_form_columns``), the Frobenius square
    and the Poisson calculus bundles all read it.
    """
    F = ctx.forms
    n = ctx.n
    k = 1
    for i in range(n, 2 * n):
        for _ in range(P[i]):
            got = F.partial(i, m)
            if got is None:
                return {}
            k *= got[0]
            m = got[1]
    prod = F.mul_monomials(P[:n] + (0,) * n, m)
    return {} if prod is None else {prod[1]: k * prod[0]}


# -- the Schouten bracket -------------------------------------------------------


def _bracket_columns(ctx: PoissonContext, P: GCAElement):
    """(den, m ↦ den·[P, m]): the bracket as integer columns, over one denominator den of P.

    The bracket is generated by the odd Laplacian Δ₀ = Σ_i ∂_{g_i}∂_{θ_i}:
    [P, Q] = -(-1)^{|P|} (Δ₀(PQ) - Δ₀(P)Q - (-1)^{|P|} P Δ₀(Q)).  Δ₀ is second
    order, so only the cross terms of the Leibniz expansion of Δ₀(PQ) remain:

    [P, Q] = -(-1)^{|P|} Σ_i ((-1)^{|g_i|(|P|+|θ_i|)} ∂_{θ_i}P·∂_{g_i}Q
                              + (-1)^{|θ_i||P|} ∂_{g_i}P·∂_{θ_i}Q).

    P's partials and signs are tabulated here, over integer coefficients; a
    column may hold zeros where terms cancel.  This matches the displayed
    two-shuffle-sum bracket: [∂_i, f ∂_j] = ∂_i(f) ∂_j.
    """
    V = ctx.vectors
    n = ctx.n
    den = _denominator(P.values())
    # per coordinate i: the (signed integer, monomial) terms ∂_{θ_i}P meeting ∂_{g_i}m and ∂_{g_i}P meeting ∂_{θ_i}m
    table: list[tuple[list, list]] = [([], []) for _ in range(n)]
    for mp, cp in P.items():
        if not cp:
            continue
        k = cp.numerator * (den // cp.denominator)
        p_odd = V.degree(mp) % 2
        s = k if p_odd else -k  # -(-1)^{|P|}
        for i, (with_g, with_th) in enumerate(table):
            th_p, g_p = V.partial(n + i, mp), V.partial(i, mp)
            if th_p is not None:
                with_g.append(((-s if V.odd[i] and (p_odd + V.odd[n + i]) % 2 else s) * th_p[0], th_p[1]))
            if g_p is not None:
                with_th.append(((-s if V.odd[n + i] and p_odd else s) * g_p[0], g_p[1]))

    def apply(m: Monomial) -> dict[Monomial, int]:
        acc: dict[Monomial, int] = {}
        for i, (with_g, with_th) in enumerate(table):
            for terms, right in ((with_g, V.partial(i, m)), (with_th, V.partial(n + i, m))):
                if right is None:
                    continue
                kr, mr = right
                for kl, ml in terms:
                    prod = V.mul_monomials(ml, mr)
                    if prod is not None:
                        acc[prod[1]] = acc.get(prod[1], 0) + kl * kr * prod[0]
        return acc

    return den, apply


def schouten(ctx: PoissonContext, P: GCAElement, Q_: GCAElement) -> GCAElement:
    """Schouten bracket [P, Q] = Σ_q (c_q/den)·den[P, m_q] over the monomials of Q, read off ``_bracket_columns``."""
    (den, apply), out = _bracket_columns(ctx, P), {}
    for mq, cq in Q_.items():
        _accumulate(out, apply(mq), Q(cq, den))
    return out


# -- quadratic bivectors -------------------------------------------------------


class JacobiError(Exception):
    pass


def quadratic_bivector(ctx: PoissonContext, coeffs: dict[tuple[int, int, int, int], Fraction]) -> GCAElement:
    """Build Σ c_{i1 i2}^{j1 j2} g_{i1} g_{i2} ∂_{j1}∧∂_{j2} from a coefficient table.

    Keys are (i1, i2, j1, j2) with 1-based indices.  The table is
    normalized on the fly: coefficient parts symmetrize or antisymmetrize
    according to the parity of the generators of the side.
    """
    V = ctx.vectors
    n = ctx.n
    out: GCAElement = {}
    for (i1, i2, j1, j2), c in coeffs.items():
        if not all(1 <= t <= n for t in (i1, i2, j1, j2)):
            raise ValueError(f"generator index out of range in {(i1, i2, j1, j2)}")
        if c == 0:
            continue
        gi1 = tuple(1 if t == i1 - 1 else 0 for t in range(n)) + (0,) * n
        gi2 = tuple(1 if t == i2 - 1 else 0 for t in range(n)) + (0,) * n
        tj1 = (0,) * n + tuple(1 if t == j1 - 1 else 0 for t in range(n))
        tj2 = (0,) * n + tuple(1 if t == j2 - 1 else 0 for t in range(n))
        term = {gi1: c}
        for m in (gi2, tj1, tj2):
            term = V.multiply(term, {m: Q(1)})
        _accumulate(out, term)
    return out


def check_jacobi(ctx: PoissonContext, pi: GCAElement):
    ob = schouten(ctx, pi, pi)
    if ob:
        raise JacobiError(f"[π, π] ≠ 0: {ctx.vectors.format_element(ob)}")


def modular_vector_field(ctx: PoissonContext, pi: GCAElement) -> GCAElement:
    """Divergence oracle: the modular field of π against the flat volume.

    Δ₀(π) for the odd Laplacian Δ₀ = Σ_i ∂²/∂g_i ∂θ_i on polyvectors (the
    divergence of the flat volume); π is unimodular for the coordinate
    volume form exactly when this vanishes.
    """
    V, n = ctx.vectors, ctx.n
    out: GCAElement = {}
    for m, c in pi.items():
        for i in range(n):
            got = V.partial(n + i, m)
            got2 = V.partial(i, got[1]) if got is not None else None
            if got2 is not None:
                _accumulate(out, {got2[1]: got[0] * got2[0]}, c)
    return out


# -- the dual side: functionals on exterior-side forms ------------------------


class DualSide:
    """𝔛(A^!; A^¡) realized as linear functionals on the exterior-side forms.

    A functional is supported on form monomials of weight <= w_max; its
    degree is minus their form degree.  A dual operator is the twisted
    transpose T*(φ) = (-1)^{|T||φ|} φ∘T of T on the forms: δ and d* are the
    raw triple ``pieces``, ``b_mats``, ``B_mats`` that ``mixed._transpose``
    makes of ∂ and d, where the dual piece (-e, w) holds the functionals
    dual to the forms (e, w).  Nothing is validated or Jacobi-checked, so a
    π that is not Poisson has a dual side too (``check_chain_map`` reads
    one); ``slice_from_poisson_dual`` checks both.  The squares read δ and d*
    as integer columns (``_columns``); δ, d* and the action of polyvectors
    on one functional at a time are test oracles.
    """

    def __init__(self, ctx: PoissonContext, pi: GCAElement, w_max: int):
        from .mixed import _poisson_complex, _transpose

        if ctx.side != "ext":
            raise ValueError("dual side is built over an exterior context")
        self.ctx = ctx
        self.pi = pi
        self.pieces, self.b_mats, self.B_mats = _transpose(*_poisson_complex(ctx, pi, w_max))

    def _columns(self, mats: dict, shift: int, den: int):
        """den·T* as integer columns keyed by form, each matrix read once; ``mats`` maps (d, w) to (d + shift, w).

        Each matrix's denominator divides den.
        """
        cols: dict[Monomial, dict[Monomial, int]] = {}
        for (d, w), M in mats.items():
            src, tgt = self.pieces[(d, w)], self.pieces[(d + shift, w)]
            scale = den // M.den
            for (i, j), v in M.num.items():
                cols.setdefault(src[j], {})[tgt[i]] = scale * v
        return lambda m: cols.get(m, {})


# -- chain-map squares ---------------------------------------------------------


def _square(labels, weight, maps, stop: int | None = None) -> list:
    """The first ``stop`` failures (s, k), labels in order, of squares k: d_tgt(F(s)) ≠ sign(s)·F(d_src(s)).

    ``maps()`` gives each square's (F, d_src, d_tgt, sign), maps to integer
    columns {label: int} with d_src, d_tgt scaled alike and F, d_tgt cached.
    They preserve ``weight``, so each weight gets fresh maps: an operator
    meets a label once, and no column outlives its weight.
    """
    groups: dict = {}
    for i, s in enumerate(labels):
        groups.setdefault(weight(s), []).append((i, s))
    bad = []
    for group in groups.values():
        squares = maps()
        for i, s in group:
            for k, (F, d_src, d_tgt, sign) in enumerate(squares):
                diff: dict = {}
                for t, c in F(s).items():
                    _accumulate(diff, d_tgt(t), c)
                e = -sign(s)
                for u, c in d_src(s).items():
                    _accumulate(diff, F(u), e * c)
                if diff:
                    bad.append((i, k, s))
    return [(s, k) for _, k, s in sorted(bad)[:stop]]


def _form_columns(ctx: PoissonContext, pi: GCAElement, den: int):
    """Cached integer columns on forms: (ι_P ω for a polyvector monomial P, dω, den·∂ω).

    The one definition of d and ∂ = ι_π∘d - d∘ι_π on forms, over the
    integer bivector den·π, so d and each ι_P meet a form at most once; the
    slices (``mixed._poisson_complex``) and the squares read it per weight.
    """
    scaled = {P: c.numerator * (den // c.denominator) for P, c in pi.items()}
    contract = cache(lambda P, m: contract_monomial(ctx, P, m))
    d = cache(lambda m: _d(ctx, m))

    @cache
    def iota(m):
        out: dict[Monomial, int] = {}
        for P, k in scaled.items():
            _accumulate(out, contract(P, m), k)
        return out

    def boundary(m):
        out: dict[Monomial, int] = {}
        for t, c in d(m).items():
            _accumulate(out, iota(t), c)
        for t, c in iota(m).items():
            _accumulate(out, d(t), -c)
        return out

    return contract, d, boundary


@dataclass
class FrobeniusPoissonReport:
    volume_is_cycle: bool
    diagram_commutes: bool
    failures: list[str]

    @property
    def unimodular(self) -> bool:
        return self.volume_is_cycle and self.diagram_commutes


def frobenius_poisson_check(dual: DualSide) -> FrobeniusPoissonReport:
    """Unimodular-Frobenius diagnostics on the exterior side.

    Checks that the dual volume functional is a Poisson cycle (δη^! = 0) and
    that contraction into η^! intertwines δ on polyvectors with δ on the
    dual module, δ(η^!∘ι_m) = η^!∘ι_{[π, m]} on each polyvector monomial m
    of the window, as integer columns (``_square``) over den·π.  With the
    frozen conventions this square commutes on the nose, unlike the primal.
    """
    ctx = dual.ctx
    V, n = ctx.vectors, ctx.n
    top = (1,) * n + (0,) * n  # η^! picks the coefficient of ξ_1…ξ_n
    if (n, n) not in dual.pieces:
        raise ValueError(f"the dual side stops below the weight {n} of η^!")
    den, delta = _bracket_columns(ctx, dual.pi)
    coboundary = dual._columns(dual.b_mats, -1, den)

    def contract(m):
        # (-1)^{|m||η^!|} η^!∘ι_m, pulled back from the one piece of forms ι_m sends onto η^!
        dp = V.degree(m)
        return _pullback({top: 1}, dual.pieces.get((n + dp, n - V.weight(m)), ()),
                         lambda om: contract_monomial(ctx, m, om), -1 if dp % 2 and n % 2 else 1)

    bad = [m for m, _ in _square(V.monomials([1] * n + [max(2, n)] * n, -math.inf, math.inf), V.weight,
                                 lambda: [(cache(contract), delta, coboundary, lambda m: 1)], stop=9)]
    # η^!∘ι_1 = η^! and [π, 1] = 0: the unit, the first label, fails exactly when δη^! ≠ 0
    return FrobeniusPoissonReport(V.one not in bad, not bad,
                                  [f"dual diagram fails on {V.format_monomial(m)}" for m in bad])


# -- unimodularity -------------------------------------------------------------


@dataclass
class UnimodularityReport:
    boundary_of_volume_zero: bool
    diagram_commutes: bool
    modular_field_zero: bool
    failures: list[str]

    @property
    def unimodular(self) -> bool:
        return self.boundary_of_volume_zero and self.diagram_commutes and self.modular_field_zero


def unimodularity_check(ctx: PoissonContext, pi: GCAElement, w_max: int = 4) -> UnimodularityReport:
    """Three unimodularity diagnostics for a polynomial-side Poisson structure.

    (1) ∂η = 0; (2) the contraction diagram ∂(ι_P η) = (-1)^{p+1} ι_{δP} η
    on every polyvector monomial in the window, as integer columns
    (``_square``) over den·π (the sign is what the frozen contraction and
    coboundary conventions put into the square, the same on every tested
    structure); (3) the divergence oracle (modular vector field vanishes).
    All three verdicts must agree for honest π and η; discrepancies are
    reported.
    """
    check_jacobi(ctx, pi)
    V, n = ctx.vectors, ctx.n
    eta = (0,) * n + (1,) * n  # the volume form dx_1…dx_n
    den, delta = _bracket_columns(ctx, pi)

    def maps():
        contract, _, boundary = _form_columns(ctx, pi, den)
        return [(lambda m: contract(m, eta), delta, boundary, lambda m: 1 if sum(m[n:]) % 2 else -1)]

    bad = [m for m, _ in _square(V.monomials([w_max] * n + [1] * n, -math.inf, math.inf), V.weight, maps, stop=9)]
    # ι_1 η = η and [π, 1] = 0: the unit, the first label, fails exactly when ∂η ≠ 0
    return UnimodularityReport(V.one not in bad, not bad, not modular_vector_field(ctx, pi),
                               [f"diagram fails on {V.format_monomial(m)}" for m in bad])
