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

Operators are built from one Koszul-signed engine: contraction by a
polyvector monomial is coefficient multiplication after the form-side
partial derivatives, the Poisson boundary is the contraction/de Rham
commutator, the coboundary is the Schouten bracket with the bivector, and
the Schouten bracket is the bracket generated by the odd Laplacian of the
standard coordinates, computed as its first-order Leibniz expansion.  Each
operator works one monomial at a time: derivative factors and Koszul signs
are plain ints, summed per input monomial and added into the result with
its coefficient once (``add_into``).  The odd-Laplacian form of the
bracket, and the displayed shuffle-sum formulas evaluated argument by
argument on the ungraded side, live in the tests as independent oracles.
The dual side (:class:`DualSide`) holds the signed transposes of ∂ and d
that ``mixed._transpose`` makes, and pulls functionals back through ι.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import _pullback
from .linalg import _accumulate as add_into

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
    to zero.  Products and derivatives carry Koszul signs computed from the
    generator degrees.
    """

    def __init__(self, generators: list[Generator]):
        self.gens = tuple(generators)
        self.n = len(self.gens)
        self.degrees = tuple(g.degree for g in self.gens)
        self.weights = tuple(g.weight for g in self.gens)
        self.odd = tuple(d % 2 == 1 for d in self.degrees)
        # the odd generators before position i, which an odd derivative passes
        self.odd_before = tuple(tuple(j for j in range(i) if self.odd[j]) for i in range(self.n))
        self.one: Monomial = (0,) * self.n
        self.units: tuple[Monomial, ...] = tuple(
            tuple(int(j == i) for j in range(self.n)) for i in range(self.n)
        )

    def degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self.degrees))

    def weight(self, m: Monomial) -> int:
        return sum(e * w for e, w in zip(m, self.weights))

    def mul_monomials(self, a: Monomial, b: Monomial):
        """(sign, monomial) or None if an odd generator repeats."""
        sign = 1
        out = list(a)
        # parity of odd-generator content of a at positions > j, scanned once
        odd_tail = 0
        tails = [0] * self.n  # number of odd exponents of a strictly after i
        for i in range(self.n - 1, -1, -1):
            tails[i] = odd_tail
            if self.odd[i] and a[i] % 2:
                odd_tail += 1
        for j in range(self.n):
            e = b[j]
            if not e:
                continue
            if self.odd[j]:
                if a[j]:
                    return None
                if e > 1:
                    return None
                if tails[j] % 2:
                    sign = -sign
                out[j] = 1
            else:
                out[j] = a[j] + e
        return sign, tuple(out)

    def multiply(self, a: GCAElement, b: GCAElement) -> GCAElement:
        out: GCAElement = {}
        for ma, ca in a.items():
            # distinct monomials of b give distinct products with ma
            acc: GCAElement = {}
            for mb, cb in b.items():
                got = self.mul_monomials(ma, mb)
                if got is not None:
                    acc[got[1]] = got[0] * cb
            add_into(out, acc, ca)
        return out

    def partial(self, i: int, m: Monomial):
        """Left partial derivative by generator i: (int coeff, monomial) or None."""
        e = m[i]
        if not e:
            return None
        out = m[:i] + (e - 1,) + m[i + 1 :]
        if self.odd[i]:
            return (-1 if sum(m[j] for j in self.odd_before[i]) % 2 else 1), out
        return e, out

    def monomials(self, max_exponents: list[int]) -> list[Monomial]:
        out = [()]
        for i in range(self.n):
            cap = min(1, max_exponents[i]) if self.odd[i] else max_exponents[i]
            out = [m + (e,) for m in out for e in range(cap + 1)]
        return [tuple(m) for m in out]

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


def scale(el: GCAElement, c: Fraction) -> GCAElement:
    return {m: c * v for m, v in el.items()} if c else {}


def sub(a: GCAElement, b: GCAElement) -> GCAElement:
    out = dict(a)
    add_into(out, b, Q(-1))
    return out


def is_zero(el: GCAElement) -> bool:
    return all(v == 0 for v in el.values())


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


def de_rham(ctx: PoissonContext, omega: GCAElement) -> GCAElement:
    """d: sends each coordinate generator to its differential (odd derivation)."""
    F = ctx.forms
    out: GCAElement = {}
    for m, c in omega.items():
        acc: dict[Monomial, int] = {}
        for i in range(ctx.n):
            got = F.partial(i, m)
            if got is not None:
                prod = F.mul_monomials(F.units[ctx.n + i], got[1])
                if prod is not None:
                    acc[prod[1]] = acc.get(prod[1], 0) + got[0] * prod[0]
        add_into(out, acc, c)
    return out


def contract_monomial(ctx: PoissonContext, P: Monomial, omega: GCAElement) -> GCAElement:
    """Contraction by one polyvector monomial.

    ι for ∂_{k_1}∧..∧∂_{k_p} (k_1 < .. < k_p) applies the form-side partial
    with respect to dg_{k_1} first; the coefficient part multiplies on the
    left afterwards.  This matches the displayed shuffle-sum convention.
    The iterated partial of a form monomial is one signed monomial, so ω is
    contracted a monomial at a time, and distinct monomials of ω contract
    to distinct monomials.
    """
    F = ctx.forms
    n = ctx.n
    steps = [n + k for k in range(n) for _ in range(P[n + k])]
    coeff_m = P[:n] + (0,) * n
    out: GCAElement = {}
    for m, c in omega.items():
        if not c:
            continue
        k = 1
        for i in steps:
            got = F.partial(i, m)
            if got is None:
                break
            k *= got[0]
            m = got[1]
        else:
            prod = F.mul_monomials(coeff_m, m)
            if prod is not None:
                out[prod[1]] = k * prod[0] * c
    return out


def contraction(ctx: PoissonContext, P: GCAElement, omega: GCAElement) -> GCAElement:
    out: GCAElement = {}
    for m, c in P.items():
        add_into(out, contract_monomial(ctx, m, omega), c)
    return out


def poisson_boundary(ctx: PoissonContext, pi: GCAElement, omega: GCAElement) -> GCAElement:
    """∂ = ι_π∘d - d∘ι_π (for the even-degree bivectors used here)."""
    first = contraction(ctx, pi, de_rham(ctx, omega))
    second = de_rham(ctx, contraction(ctx, pi, omega))
    return sub(first, second)


def bracket_of_functions(ctx: PoissonContext, pi: GCAElement, f: GCAElement, g: GCAElement) -> GCAElement:
    """{f, g} = ι_π(df ∧ dg) for coefficient-only elements f, g."""
    F = ctx.forms
    return contraction(ctx, pi, F.multiply(de_rham(ctx, f), de_rham(ctx, g)))


# -- the Schouten bracket -------------------------------------------------------


def odd_laplacian(ctx: PoissonContext, P: GCAElement) -> GCAElement:
    """Δ₀ = Σ_i ∂²/∂g_i ∂θ_i on polyvectors (divergence of the flat volume)."""
    V = ctx.vectors
    out: GCAElement = {}
    for m, c in P.items():
        acc: dict[Monomial, int] = {}
        for i in range(ctx.n):
            got = V.partial(ctx.n + i, m)
            got2 = V.partial(i, got[1]) if got is not None else None
            if got2 is not None:
                acc[got2[1]] = acc.get(got2[1], 0) + got[0] * got2[0]
        add_into(out, acc, c)
    return out


def schouten(ctx: PoissonContext, P: GCAElement, Q_: GCAElement) -> GCAElement:
    """Schouten bracket, the bracket generated by the odd Laplacian:

    [P, Q] = -(-1)^{|P|} (Δ₀(PQ) - Δ₀(P)Q - (-1)^{|P|} P Δ₀(Q)).

    Δ₀ = Σ_i ∂_{g_i}∂_{θ_i} is second order, so the Leibniz expansion of
    Δ₀(PQ) leaves only the cross terms, and the bracket is computed as

    [P, Q] = -(-1)^{|P|} Σ_i ((-1)^{|g_i|(|P|+|θ_i|)} ∂_{θ_i}P·∂_{g_i}Q
                              + (-1)^{|θ_i||P|} ∂_{g_i}P·∂_{θ_i}Q),

    one partial of each monomial and one monomial product per coordinate.
    The odd-Laplacian form is the differential oracle in the tests.

    Calibrated against the displayed two-shuffle-sum bracket: [∂_i, f ∂_j]
    = ∂_i(f) ∂_j, with graded antisymmetry [P,Q] = -(-1)^{(p-1)(q-1)}[Q,P]
    in the polyvector grading.
    """
    V = ctx.vectors
    n = ctx.n
    g_odd = [V.degrees[i] % 2 for i in range(n)]
    th_odd = [V.degrees[n + i] % 2 for i in range(n)]
    # per monomial of Q and coordinate i: (∂_{g_i}Q, ∂_{θ_i}Q)
    q_parts = [(cq, [(V.partial(i, mq), V.partial(n + i, mq)) for i in range(n)])
               for mq, cq in Q_.items() if cq]
    out: GCAElement = {}
    for mp, cp in P.items():
        if not cp:
            continue
        p_odd = V.degree(mp) % 2
        s = 1 if p_odd else -1  # -(-1)^{|P|}
        # per coordinate i: the signs of the two cross terms, ∂_{θ_i}P and ∂_{g_i}P
        terms = [(-s if g_odd[i] and (p_odd + th_odd[i]) % 2 else s, -s if th_odd[i] and p_odd else s,
                  V.partial(n + i, mp), V.partial(i, mp)) for i in range(n)]
        for cq, parts in q_parts:
            acc: dict[Monomial, int] = {}
            for (s_a, s_b, th_p, g_p), (g_q, th_q) in zip(terms, parts):
                for sign, left, right in ((s_a, th_p, g_q), (s_b, g_p, th_q)):
                    if left is None or right is None:
                        continue
                    prod = V.mul_monomials(left[1], right[1])
                    if prod is not None:
                        acc[prod[1]] = acc.get(prod[1], 0) + sign * left[0] * right[0] * prod[0]
            add_into(out, acc, cp * cq)
    return out


def poisson_coboundary(ctx: PoissonContext, pi: GCAElement, P: GCAElement) -> GCAElement:
    """δ = [π, -] (Lichnerowicz); degree -1 in the total grading."""
    return schouten(ctx, pi, P)


def wedge(ctx: PoissonContext, P: GCAElement, Q_: GCAElement) -> GCAElement:
    return ctx.vectors.multiply(P, Q_)


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
        add_into(out, term, Q(1))
    return out


def jacobi_obstruction(ctx: PoissonContext, pi: GCAElement) -> GCAElement:
    return schouten(ctx, pi, pi)


def check_jacobi(ctx: PoissonContext, pi: GCAElement):
    ob = jacobi_obstruction(ctx, pi)
    if not is_zero(ob):
        raise JacobiError(f"[π, π] ≠ 0: {ctx.vectors.format_element(ob)}")


def modular_vector_field(ctx: PoissonContext, pi: GCAElement) -> GCAElement:
    """Divergence oracle: the modular field of π against the flat volume.

    Computed as Δ₀(π); π is unimodular for the coordinate volume form
    exactly when this vanishes.
    """
    return odd_laplacian(ctx, pi)


# -- the dual side: functionals on exterior-side forms ------------------------


class DualSide:
    """𝔛(A^!; A^¡) realized as linear functionals on the exterior-side forms.

    A functional is a dict keyed by exterior-side form monomials of weight
    <= w_max.  Its degree is minus the form degree of its support, its
    weight the form weight.  Every dual operator is the twisted transpose
    T*(φ) = (-1)^{|T||φ|} φ∘T of an operator T on the forms: T moves a
    form's (degree, weight) by its own, so only the one piece of forms that
    T sends onto a piece of φ contributes.  δ and d* are held as the raw
    triple ``pieces``, ``b_mats``, ``B_mats`` that ``mixed._transpose`` makes
    of the forms' ∂ and d: the dual piece (-e, w) holds the functionals dual
    to the forms (e, w), and δ out of it is (-1)^e ∂(e+1, w)ᵀ, d* is
    (-1)^e d(e-1, w)ᵀ.  Nothing is validated or Jacobi-checked, so a π that
    is not Poisson has a dual side too (``check_chain_map`` reads one);
    ``slice_from_poisson_dual`` makes both checks on the same matrices.
    The action of a polyvector P builds no matrix: φ is pulled
    back through the contraction ι_m of one monomial m of P at a time
    (``linalg._pullback``), the rule ``CalculusBundle.cap_classes`` uses on
    every functional side.  A functional must be supported on ``domain``.
    """

    def __init__(self, ctx: PoissonContext, pi: GCAElement, w_max: int):
        from .mixed import _poisson_complex, _transpose

        if ctx.side != "ext":
            raise ValueError("dual side is built over an exterior context")
        self.ctx = ctx
        self.pi = pi
        self.pieces, self.b_mats, self.B_mats = _transpose(*_poisson_complex(ctx, pi, w_max))
        # form -> its index in the dual piece that carries it
        self._index = {m: i for labels in self.pieces.values() for i, m in enumerate(labels)}

    @property
    def domain(self) -> list[Monomial]:
        """Every form a functional may be supported on."""
        return list(self._index)

    def _act(self, mats: dict, shift: int, phi: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        """T*(φ) for a weight-preserving T, one dual piece of φ at a time.

        ``mats`` holds T*'s matrix out of each dual piece (d, w), into the
        dual piece (d + shift, w).
        """
        F = self.ctx.forms
        parts: dict[tuple[int, int], dict[int, Fraction]] = {}
        for m, c in phi.items():
            if c:
                parts.setdefault((-F.degree(m), F.weight(m)), {})[self._index[m]] = c
        out: dict[Monomial, Fraction] = {}
        for (d, w), part in parts.items():
            if (d, w) in mats:
                # each piece of φ lands in a piece of its own, so no two parts share a label
                labels = self.pieces[(d + shift, w)]
                for i, c in mats[(d, w)].apply(part).items():
                    out[labels[i]] = c
        return out

    def coboundary(self, phi: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        """δ with values in the dual module: (-1)^{|φ|} φ∘∂."""
        return self._act(self.b_mats, -1, phi)

    def d_star(self, phi: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        """Dual de Rham differential: (-1)^{|φ|} φ∘d."""
        return self._act(self.B_mats, 1, phi)

    def contract(self, P: GCAElement, phi: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        """Module action of polyvectors: (ι_P φ)(ω) = (-1)^{|P||φ|} φ(ι_P ω).

        φ is pulled back through ι_m for each monomial m of P, over the one
        piece of forms that ι_m sends onto each piece of φ.  The sign is
        taken per monomial of P, so the action is linear in P.
        """
        F, V = self.ctx.forms, self.ctx.vectors
        pieces = {(-F.degree(m), F.weight(m)) for m, c in phi.items() if c}
        out: dict[Monomial, Fraction] = {}
        for pm, c in P.items():
            if c:
                dp, wp = V.degree(pm), V.weight(pm)
                for d, w in pieces:
                    # φ on forms of degree -d pulls back from the forms ι_pm sends there
                    add_into(out, _pullback(phi, self.pieces.get((d + dp, w - wp), ()),
                                            lambda om: contract_monomial(self.ctx, pm, {om: Q(1)}),
                                            -1 if (dp % 2) and (d % 2) else 1), c)
        return out

    def dual_volume(self) -> dict[Monomial, Fraction]:
        """η^!: the functional picking the top ξ-coefficient of A^!."""
        top = (1,) * self.ctx.n + (0,) * self.ctx.n
        return {top: Q(1)}


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
    dual module.  With the frozen conventions the dual square commutes on
    the nose (no sign), unlike the primal one.
    """
    ctx = dual.ctx
    eta_dual = dual.dual_volume()
    failures: list[str] = []
    cycle = not dual.coboundary(eta_dual)
    V = ctx.vectors
    diagram = True
    cap = max(2, ctx.n)
    for m in V.monomials([1] * ctx.n + [cap] * ctx.n):
        P = {m: Q(1)}
        lhs = dual.contract(poisson_coboundary(ctx, dual.pi, P), eta_dual)
        rhs = dual.coboundary(dual.contract(P, eta_dual))
        if sub(lhs, rhs):
            diagram = False
            failures.append(f"dual diagram fails on {V.format_monomial(m)}")
            if len(failures) > 8:
                break
    return FrobeniusPoissonReport(cycle, diagram, failures)


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


def volume_form(ctx: PoissonContext) -> GCAElement:
    m = (0,) * ctx.n + (1,) * ctx.n
    return {m: Q(1)}


def unimodularity_check(ctx: PoissonContext, pi: GCAElement, w_max: int = 4) -> UnimodularityReport:
    """Three unimodularity diagnostics for a polynomial-side Poisson structure.

    (1) ∂η = 0; (2) the contraction diagram ∂(ι_P η) = (-1)^{p+1} ι_{δP} η
    on every polyvector monomial in the window (the sign is what the frozen
    contraction and coboundary conventions put into the square; it is
    recorded here once and is the same on every tested structure);
    (3) the divergence oracle (modular vector field vanishes).  All three
    verdicts must agree for honest π and η; discrepancies are reported.
    """
    check_jacobi(ctx, pi)
    eta = volume_form(ctx)
    failures: list[str] = []
    closed = is_zero(poisson_boundary(ctx, pi, eta))
    V = ctx.vectors
    diagram = True
    for m in V.monomials([w_max] * ctx.n + [1] * ctx.n):
        p = sum(m[ctx.n :])
        P = {m: Q(1)}
        lhs = poisson_boundary(ctx, pi, contraction(ctx, P, eta))
        rhs = contraction(ctx, poisson_coboundary(ctx, pi, P), eta)
        eps = Q(1) if (p + 1) % 2 == 0 else Q(-1)
        if not is_zero(sub(lhs, scale(rhs, eps))):
            diagram = False
            failures.append(f"diagram fails on {V.format_monomial(m)}")
            if len(failures) > 8:
                break
    mod = modular_vector_field(ctx, pi)
    return UnimodularityReport(closed, diagram, is_zero(mod), failures)
