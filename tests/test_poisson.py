from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from itertools import product as iproduct
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from mixhom import poisson as po
from mixhom.linalg import ExactMatrix, _accumulate, _denominator, _expand, _pullback, operator_matrix
from mixhom.mixed import WindowError, _mats_from_operator
from mixhom.poisson import (
    DualSide,
    FrobeniusPoissonReport,
    GCAElement,
    JacobiError,
    Monomial,
    PoissonContext,
    UnimodularityReport,
    _bracket_columns,
    check_jacobi,
    contract_monomial,
    frobenius_poisson_check,
    modular_vector_field,
    quadratic_bivector,
    schouten,
    unimodularity_check,
)
from test_linalg import apply_fractions

Q = Fraction


# -- literal shuffle-sum formulas (ungraded oracles) ---------------------------
#
# The displayed shuffle sums, evaluated argument by argument.  The Koszul-signed
# engine of mixhom.poisson must agree with them on the ungraded side.


def _multider_eval(ctx: PoissonContext, P: Monomial, args: list[int]) -> GCAElement:
    """Evaluate a polyvector monomial on coordinate generators (by index)."""
    V = ctx.vectors
    n = ctx.n
    ks = [k for k in range(n) for _ in range(P[n + k])]
    p = len(ks)
    if p != len(args):
        return {}
    coeff = {P[:n] + (0,) * n: Q(1)}
    total: GCAElement = {}
    for tau in permutations(range(p)):
        sgn = _perm_sign(tau)
        ok = all(ks[tau[j]] == args[j] for j in range(p))
        if ok:
            _accumulate(total, coeff, Q(sgn))
    return total


def _perm_sign(tau) -> int:
    sgn = 1
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                sgn = -sgn
    return sgn


def contraction_shuffle(ctx: PoissonContext, P: Monomial, f0: Monomial, dargs: list[int]) -> GCAElement:
    """ι_P(f_0 df_{a_1}∧..∧df_{a_m}) per the displayed shuffle sum (ungraded side)."""
    F = ctx.forms
    V = ctx.vectors
    n = ctx.n
    p = sum(P[n:])
    m = len(dargs)
    if m < p:
        return {}
    out: GCAElement = {}
    for subset in combinations(range(m), p):
        rest = [i for i in range(m) if i not in subset]
        sgn = _shuffle_sign(subset, rest)
        val = _multider_eval(ctx, P, [dargs[i] for i in subset])
        if not val:
            continue
        # rebuild the remaining form part
        tail = {tuple(0 for _ in range(2 * n)): Q(1)}
        for i in rest:
            dg = tuple(1 if j == n + dargs[i] else 0 for j in range(2 * n))
            tail = F.multiply(tail, {dg: Q(1)})
        # coefficient f0 and P's coefficients are x-monomials on the poly side
        piece = F.multiply({f0 + (0,) * n: Q(1)}, F.multiply({k + (0,) * n: v for k2, v in val.items() for k in (k2[:n],)}, tail))
        _accumulate(out, piece, Q(sgn))
    return out


def _shuffle_sign(first: tuple[int, ...], rest: list[int]) -> int:
    seq = list(first) + list(rest)
    return _perm_sign(tuple(seq))


def schouten_shuffle(ctx: PoissonContext, Pm: Monomial, Qm: Monomial) -> GCAElement:
    """[P, Q] per the displayed two-shuffle-sum formula (polynomial side).

    Evaluated as a multiderivation on coordinate functions and re-assembled;
    valid when all generators are even coordinates (the ungraded case).
    """
    V = ctx.vectors
    n = ctx.n
    p = sum(Pm[n:])
    q = sum(Qm[n:])
    r = p + q - 1
    if r < 0:
        return {}
    out: GCAElement = {}
    # evaluate on all argument tuples of coordinate functions; reconstruct by
    # skew-symmetry: the value on (x_{k_1},..,x_{k_r}) with k_1<..<k_r gives
    # the coefficient of ∂_{k_1}∧..∧∂_{k_r}
    for ks in combinations(range(n), r):
        val: GCAElement = {}
        for subset in combinations(range(r), q):
            rest = [i for i in range(r) if i not in subset]
            sgn = _shuffle_sign(subset, rest)
            inner = _multider_eval(ctx, Qm, [ks[i] for i in subset])
            for mono, c in inner.items():
                # P(Q(..), rest): first argument is a polynomial; expand by
                # derivation-in-first-argument over its variables
                outer = _multider_eval_first_poly(ctx, Pm, mono[:n], [ks[i] for i in rest])
                _accumulate(val, outer, Q(sgn) * c)
        sgn2 = -1 if ((p - 1) * (q - 1)) % 2 else 1
        for subset in combinations(range(r), p):
            rest = [i for i in range(r) if i not in subset]
            sgn = _shuffle_sign(subset, rest)
            inner = _multider_eval(ctx, Pm, [ks[i] for i in subset])
            for mono, c in inner.items():
                outer = _multider_eval_first_poly(ctx, Qm, mono[:n], [ks[i] for i in rest])
                _accumulate(val, outer, -Q(sgn2 * sgn) * c)
        if val:
            tm = tuple(0 for _ in range(n)) + tuple(1 if k in ks else 0 for k in range(n))
            for mono, c in val.items():
                m_out = V.mul_monomials(mono[:n] + (0,) * n, tm)
                if m_out is not None:
                    s, mo = m_out
                    _accumulate(out, {mo: c}, s)
    return out


def _multider_eval_first_poly(ctx: PoissonContext, Pm: Monomial, first_poly: tuple[int, ...], rest_args: list[int]) -> GCAElement:
    """P(g, x_{rest}) with a polynomial first slot, expanded by Leibniz."""
    V = ctx.vectors
    n = ctx.n
    out: GCAElement = {}
    for k in range(n):
        if first_poly[k] == 0:
            continue
        dg = list(first_poly)
        dg[k] -= 1
        coeff = Q(first_poly[k])
        val = _multider_eval(ctx, Pm, [k] + rest_args)
        piece = V.multiply({tuple(dg) + (0,) * n: coeff}, val)
        _accumulate(out, piece, Q(1))
    return out


def bracket_of_functions(ctx: PoissonContext, pi: GCAElement, f: GCAElement, g: GCAElement) -> GCAElement:
    """{f, g} = ι_π(df ∧ dg) for coefficient-only elements f, g."""
    F = ctx.forms
    return contraction(ctx, pi, F.multiply(de_rham(ctx, f), de_rham(ctx, g)))


def poisson_boundary_literal(ctx: PoissonContext, pi: GCAElement, f0: Monomial, dargs: list[int]) -> GCAElement:
    """Def-style ∂(f_0 df_{a_1}∧..∧df_{a_p}): the two displayed sums (ungraded)."""
    F = ctx.forms
    n = ctx.n
    p = len(dargs)
    out: GCAElement = {}
    f0el = {f0 + (0,) * n: Q(1)}
    for i in range(1, p + 1):
        xi = {tuple(1 if j == dargs[i - 1] else 0 for j in range(n)) + (0,) * n: Q(1)}
        br = bracket_of_functions(ctx, pi, f0el, xi)
        tail = {F.one: Q(1)}
        for j in range(1, p + 1):
            if j == i:
                continue
            dg = tuple(1 if t == n + dargs[j - 1] else 0 for t in range(2 * n))
            tail = F.multiply(tail, {dg: Q(1)})
        _accumulate(out, F.multiply(br, tail), Q((-1) ** (i - 1)))
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            xi = {tuple(1 if t == dargs[i - 1] else 0 for t in range(n)) + (0,) * n: Q(1)}
            xj = {tuple(1 if t == dargs[j - 1] else 0 for t in range(n)) + (0,) * n: Q(1)}
            br = bracket_of_functions(ctx, pi, xi, xj)
            dbr = de_rham(ctx, br)
            tail = {F.one: Q(1)}
            for t in range(1, p + 1):
                if t in (i, j):
                    continue
                dg = tuple(1 if s == n + dargs[t - 1] else 0 for s in range(2 * n))
                tail = F.multiply(tail, {dg: Q(1)})
            piece = F.multiply(f0el, F.multiply(dbr, tail))
            _accumulate(out, piece, Q((-1) ** (j - i)))
    return out


def poisson_coboundary_literal(ctx: PoissonContext, pi: GCAElement, Pm: Monomial) -> GCAElement:
    """Def-style δ(P)(f_0,..,f_p): the two displayed sums (ungraded side)."""
    V = ctx.vectors
    n = ctx.n
    p = sum(Pm[n:])
    out: GCAElement = {}
    for ks in combinations(range(n), p + 1):
        val: GCAElement = {}
        for i in range(p + 1):
            others = [ks[t] for t in range(p + 1) if t != i]
            inner = _multider_eval(ctx, Pm, others)
            xi = {tuple(1 if t == ks[i] else 0 for t in range(n)) + (0,) * n: Q(1)}
            for mono, c in inner.items():
                br = bracket_of_functions(ctx, pi, xi, {mono[:n] + (0,) * n: Q(1)})
                _accumulate(val, {m[:n] + (0,) * n: v for m, v in br.items()}, Q((-1) ** i) * c)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                xi = {tuple(1 if t == ks[i] else 0 for t in range(n)) + (0,) * n: Q(1)}
                xj = {tuple(1 if t == ks[j] else 0 for t in range(n)) + (0,) * n: Q(1)}
                br = bracket_of_functions(ctx, pi, xi, xj)
                others = [ks[t] for t in range(p + 1) if t not in (i, j)]
                for mono, c in br.items():
                    piece = _multider_eval_first_poly(ctx, Pm, mono[:n], others)
                    _accumulate(val, piece, Q((-1) ** (i + j)) * c)
        tm = tuple(0 for _ in range(n)) + tuple(1 if k in ks else 0 for k in range(n))
        for mono, c in val.items():
            got = V.mul_monomials(mono[:n] + (0,) * n, tm)
            if got is not None:
                s, mo = got
                _accumulate(out, {mo: c}, s)
    return out


# -- the odd-Laplacian bracket and the chained contraction (oracles) -------------
#
# The engine computes the Schouten bracket as the first-order expansion of the
# odd-Laplacian formula and contracts one form monomial at a time.  The code
# they replaced is kept here verbatim as their differential oracle; only the
# partial derivative of an element, which the package no longer needs, moved
# out of FreeGCA into ``_partial_element``.


def _partial_element(F, i: int, el: GCAElement) -> GCAElement:
    out: GCAElement = {}
    for m, c in el.items():
        got = F.partial(i, m)
        if got is None:
            continue
        coeff, mm = got
        v = out.get(mm, Q(0)) + coeff * c
        if v == 0:
            out.pop(mm, None)
        else:
            out[mm] = v
    return out


def contract_monomial_chained(ctx: PoissonContext, P: Monomial, m: Monomial) -> GCAElement:
    """Contraction of one form monomial by one polyvector monomial, through element-level partials.

    ι for ∂_{k_1}∧..∧∂_{k_p} (k_1 < .. < k_p) applies the form-side partial
    with respect to dg_{k_1} first; the coefficient part multiplies on the
    left afterwards.  This matches the displayed shuffle-sum convention.
    """
    F = ctx.forms
    n = ctx.n
    acc = {m: Q(1)}
    for k in range(n):
        for _ in range(P[n + k]):
            acc = _partial_element(F, n + k, acc)
            if not acc:
                return {}
    coeff_m = P[:n] + (0,) * n
    coeff = {coeff_m: Q(1)}
    return F.multiply(coeff, acc)


def schouten_odd_laplacian(ctx: PoissonContext, P: GCAElement, Q_: GCAElement) -> GCAElement:
    """Schouten bracket, generated by the odd Laplacian:

    [P, Q] = -(-1)^{|P|} (Δ₀(PQ) - Δ₀(P)Q - (-1)^{|P|} P Δ₀(Q)),

    with the odd Laplacian Δ₀ that ``modular_vector_field`` applies to π.

    Calibrated against the displayed two-shuffle-sum bracket: [∂_i, f ∂_j]
    = ∂_i(f) ∂_j, with graded antisymmetry [P,Q] = -(-1)^{(p-1)(q-1)}[Q,P]
    in the polyvector grading.
    """
    V = ctx.vectors
    out: GCAElement = {}
    for m1, c1 in P.items():
        s = -1 if V.degree(m1) % 2 else 1
        for m2, c2 in Q_.items():
            c = -c1 * c2
            prod = V.mul_monomials(m1, m2)
            if prod is not None:
                sg, mm = prod
                _accumulate(out, modular_vector_field(ctx, {mm: Q(1)}), s * sg * c)
            _accumulate(out, V.multiply(modular_vector_field(ctx, {m1: Q(1)}), {m2: Q(1)}), -s * c)
            _accumulate(out, V.multiply({m1: Q(1)}, modular_vector_field(ctx, {m2: Q(1)})), -c)
    return out


class FastPathError(AssertionError):
    """A fast path ran where only the oracles may."""


def _fast_path(*args):
    raise FastPathError("a fast path ran inside the oracle engine")


def contract_words_chained(ctx: PoissonContext, P: int, m: int) -> dict[int, Fraction]:
    """``contract_monomial_chained`` on packed words, the signature of ``poisson.contract_monomial``."""
    F = ctx.forms
    return {F.pack(t): c for t, c in contract_monomial_chained(ctx, ctx.vectors.unpack(P), F.unpack(m)).items()}


# name -> (the mixhom module that defines it, its stand-in)
ORACLE = {
    "schouten": ("poisson", schouten_odd_laplacian),
    "contract_monomial": ("poisson", contract_words_chained),
    # the packed builders of the tabulated bracket and of the integer-column ∂ and d must not run at all
    "_bracket_columns": ("poisson", _fast_path),
    "_d": ("poisson", _fast_path),
    "_form_columns": ("poisson", _fast_path),
    "_poisson_complex": ("mixed", _fast_path),
}


@contextmanager
def oracle_engine():
    """mixhom with the oracle bracket and contraction in place, wherever they are bound.

    The packed builders ``_bracket_columns``, ``_d``, ``_form_columns`` and
    ``mixed._poisson_complex``, which builds ∂ and d from integer columns,
    raise FastPathError inside the block: the oracle side builds its ∂, d
    and δ a form and a monomial at a time, and ι is the chained contraction
    on the words ``contract_monomial`` takes.
    """
    import mixhom.poisson

    current = {name: getattr(getattr(mixhom, home), name) for name, (home, _) in ORACLE.items()}
    with pytest.MonkeyPatch.context() as mp:
        for modname, mod in list(sys.modules.items()):
            if modname == "mixhom" or modname.startswith("mixhom."):
                for name, fn in current.items():
                    if getattr(mod, name, None) is fn:
                        mp.setattr(mod, name, ORACLE[name][1])
        yield


# -- the chain-map squares monomial by monomial (oracles) ------------------------
#
# Before the squares and the slices read the integer form columns
# (``poisson._form_columns``, ``poisson._square``), d and ∂ were taken one
# form element at a time, the dual module acted one functional at a
# time, and each square was compared on Fraction vectors, monomial by monomial.
# That code is kept here verbatim as the differential oracle; the dual actions
# live on a subclass of DualSide, which builds the form index they read.


def is_zero(el: GCAElement) -> bool:
    """Every coefficient is 0: the oracles below may keep zero entries, which the package's sums drop."""
    return all(v == 0 for v in el.values())


def scale(el: GCAElement, c: Fraction) -> GCAElement:
    return {m: c * v for m, v in el.items()} if c else {}


def sub(a: GCAElement, b: GCAElement) -> GCAElement:
    out = dict(a)
    _accumulate(out, b, Q(-1))
    return out


def contraction(ctx: PoissonContext, P: GCAElement, omega: GCAElement) -> GCAElement:
    """ι_P ω on elements: ``contract_monomial`` extended bilinearly, as the package once had it.

    The monomial ι is read through the module, on packed words, so inside
    ``oracle_engine`` this is the chained contraction.
    """
    F, V = ctx.forms, ctx.vectors
    out: GCAElement = {}
    for m, c in P.items():
        for om, v in omega.items():
            column = po.contract_monomial(ctx, V.pack(m), F.pack(om))
            _accumulate(out, {F.unpack(t): k for t, k in column.items()}, c * v)
    return out


def de_rham(ctx: PoissonContext, omega: GCAElement) -> GCAElement:
    """d = Σ_i dg_i·∂/∂g_i: sends each coordinate generator to its differential (odd derivation)."""
    F = ctx.forms
    out: GCAElement = {}
    for i in range(ctx.n):
        _accumulate(out, F.multiply({F.unpack(F.units[ctx.n + i]): Q(1)}, _partial_element(F, i, omega)))
    return out


def poisson_boundary(ctx: PoissonContext, pi: GCAElement, omega: GCAElement) -> GCAElement:
    """∂ = ι_π∘d - d∘ι_π (for the even-degree bivectors used here)."""
    first = contraction(ctx, pi, de_rham(ctx, omega))
    second = de_rham(ctx, contraction(ctx, pi, omega))
    return sub(first, second)


def dual_domain(dual: DualSide) -> list[Monomial]:
    """Every form a functional of the dual side may be supported on."""
    return [m for labels in dual.pieces.values() for m in labels]


class DualSideByFunctionals(DualSide):
    """A DualSide whose δ, d* and polyvector action take one functional at a time, with η^! as a functional."""

    def __init__(self, ctx: PoissonContext, pi: GCAElement, w_max: int):
        super().__init__(ctx, pi, w_max)
        # form -> its index in the dual piece that carries it
        self._index = {m: i for labels in self.pieces.values() for i, m in enumerate(labels)}

    def dual_volume(self) -> dict[Monomial, Fraction]:
        """η^!: the functional picking the top ξ-coefficient of A^!."""
        top = (1,) * self.ctx.n + (0,) * self.ctx.n
        return {top: Q(1)}

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
                for i, c in apply_fractions(mats[(d, w)], part).items():
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
                    _accumulate(out, _pullback(phi, self.pieces.get((d + dp, w - wp), ()),
                                            lambda om: contraction(self.ctx, {pm: 1}, {om: 1}),
                                            -1 if (dp % 2) and (d % 2) else 1), c)
        return out


def frobenius_poisson_check_by_monomials(dual: DualSideByFunctionals) -> FrobeniusPoissonReport:
    ctx = dual.ctx
    eta_dual = dual.dual_volume()
    failures: list[str] = []
    cycle = not dual.coboundary(eta_dual)
    V = ctx.vectors
    delta = lambda m: schouten(ctx, dual.pi, {m: Q(1)})
    diagram = True
    cap = max(2, ctx.n)
    for m in V.monomials([1] * ctx.n + [cap] * ctx.n, -math.inf, math.inf):
        lhs = dual.contract(delta(m), eta_dual)
        rhs = dual.coboundary(dual.contract({m: Q(1)}, eta_dual))
        if sub(lhs, rhs):
            diagram = False
            failures.append(f"dual diagram fails on {V.format_monomial(m)}")
            if len(failures) > 8:
                break
    return FrobeniusPoissonReport(cycle, diagram, failures)


def volume_form(ctx: PoissonContext) -> GCAElement:
    m = (0,) * ctx.n + (1,) * ctx.n
    return {m: Q(1)}


def unimodularity_check_by_monomials(ctx: PoissonContext, pi: GCAElement, w_max: int = 4) -> UnimodularityReport:
    check_jacobi(ctx, pi)
    eta = volume_form(ctx)
    failures: list[str] = []
    closed = is_zero(poisson_boundary(ctx, pi, eta))
    V = ctx.vectors
    delta = lambda m: schouten(ctx, pi, {m: Q(1)})
    diagram = True
    for m in V.monomials([w_max] * ctx.n + [1] * ctx.n, -math.inf, math.inf):
        lhs = poisson_boundary(ctx, pi, contraction(ctx, {m: Q(1)}, eta))
        rhs = contraction(ctx, delta(m), eta)
        eps = Q(1) if sum(m[ctx.n :]) % 2 else Q(-1)  # (-1)^{p+1}
        if not is_zero(sub(lhs, scale(rhs, eps))):
            diagram = False
            failures.append(f"diagram fails on {V.format_monomial(m)}")
            if len(failures) > 8:
                break
    mod = modular_vector_field(ctx, pi)
    return UnimodularityReport(closed, diagram, is_zero(mod), failures)


def check_chain_map_by_monomials(self, pi_coeffs, w_max: int = 4) -> list[str]:
    """``PoissonIdentification.check_chain_map`` as it was; ``self`` is the identification."""
    from mixhom.koszul import dual_bivector_coeffs

    pi = po.quadratic_bivector(self.ctx_poly, pi_coeffs)
    pid = po.quadratic_bivector(self.ctx_ext, dual_bivector_coeffs(pi_coeffs))
    dual = DualSideByFunctionals(self.ctx_ext, pid, w_max=w_max)
    F = self.ctx_poly.forms
    failures = []
    for m in F.monomials([w_max] * self.n + [1] * self.n, -math.inf, math.inf):
        if F.weight(m) > w_max:
            continue
        for op_primal, op_dual, name in (
            (lambda x: poisson_boundary(self.ctx_poly, pi, x),
             dual.coboundary, "boundary"),
            (lambda x: de_rham(self.ctx_poly, x), dual.d_star, "de Rham"),
        ):
            img = op_primal({m: Q(1)})
            phi = {self.form_to_dual(m): self.coefficient(m)}
            dphi = op_dual(phi)
            expect = {
                self.form_to_dual(m2): self.coefficient(m2) * c
                for m2, c in img.items()
            }
            if _accumulate(expect, dphi, -1):
                failures.append(f"{name} fails at {F.format_monomial(m)}")
    return failures


def poisson_complex_by_forms(ctx: PoissonContext, pi: GCAElement, w_max: int):
    """The raw Poisson triple (pieces, ∂, d) with ∂ applied to one form at a time.

    The reference for ``mixed._poisson_complex``, which reads the integer
    columns of ``poisson._form_columns`` instead.
    """
    F = ctx.forms
    pieces = {}
    for m in F.monomials([w_max] * (2 * ctx.n), -math.inf, math.inf):
        if F.weight(m) <= w_max:
            pieces.setdefault((F.degree(m), F.weight(m)), []).append(m)
    for labels in pieces.values():
        labels.sort()
    b_mats = _mats_from_operator(pieces, lambda m: poisson_boundary(ctx, pi, {m: Q(1)}), -1)
    B_mats = _mats_from_operator(pieces, lambda m: de_rham(ctx, {m: Q(1)}), +1)
    return pieces, b_mats, B_mats


def delta_by_monomials(ctx: PoissonContext, pi: GCAElement, pieces: dict, piece):
    """δ = [π, -] out of one polyvector piece, by the odd-Laplacian bracket on one monomial at a time.

    The reference for ``MultivectorOps.delta_matrix``, which reads the integer columns of ``_bracket_columns(ctx, π)``.
    """
    D, om = piece
    src = pieces.get(piece, [])
    tgt_idx = {m: i for i, m in enumerate(pieces.get((D - 1, om), []))}
    entries = {}
    for j, m in enumerate(src):
        for mm, c in schouten_odd_laplacian(ctx, pi, {m: Q(1)}).items():
            if c == 0:
                continue
            if mm not in tgt_idx:
                raise WindowError(f"coboundary escapes the polyvector window at {mm!r}")
            entries[(tgt_idx[mm], j)] = c
    return ExactMatrix(len(tgt_idx), len(src), entries)


CONTEXTS = {(n, side): PoissonContext.make(n, side) for n in (1, 2, 3) for side in ("poly", "ext")}
# coefficients with real denominators and both signs, zero now and then
rationals = st.one_of(
    st.just(Q(0)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)),
)


def elements(A, max_exponent: int = 2, max_terms: int = 4):
    """Random elements of a free GCA: exponents up to max_exponent, odd ones up to 1."""
    monomials = st.tuples(*(st.integers(0, 1 if odd else max_exponent) for odd in A.odd))
    return st.dictionaries(monomials, rationals, max_size=max_terms)


def test_partial_sign_is_read_off_the_generator_degrees():
    # an odd partial passes the generators before it: its sign is the parity of their degrees
    for ctx in CONTEXTS.values():
        for A in (ctx.forms, ctx.vectors):
            for m in A.monomials([2] * A.n, -math.inf, math.inf):
                for i in range(A.n):
                    want = None
                    if m[i]:
                        passed = sum(m[j] * A.gens[j].degree for j in range(i))
                        want = ((-1 if passed % 2 else 1) if A.odd[i] else m[i]), m[:i] + (m[i] - 1,) + m[i + 1 :]
                    assert A.partial(i, m) == want


# -- the per-generator FreeGCA primitives (oracles) ------------------------------
#
# FreeGCA's degree, weight, product and partial as they were written before the sign kernel, one
# generator at a time; the odd generators before i are read off ``A.odd``.


def oracle_degree(A, m):
    return sum(e * d for e, d in zip(m, A.degrees))


def oracle_weight(A, m):
    return sum(e * w for e, w in zip(m, A.weights))


def oracle_mul_monomials(A, a, b):
    """(sign, monomial) or None if an odd generator repeats."""
    sign = 1
    out = list(a)
    # parity of odd-generator content of a at positions > j, scanned once
    odd_tail = 0
    tails = [0] * A.n  # number of odd exponents of a strictly after i
    for i in range(A.n - 1, -1, -1):
        tails[i] = odd_tail
        if A.odd[i] and a[i] % 2:
            odd_tail += 1
    for j in range(A.n):
        e = b[j]
        if not e:
            continue
        if A.odd[j]:
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


def oracle_partial(A, i, m):
    """Left partial derivative by generator i: (int coeff, monomial) or None."""
    e = m[i]
    if not e:
        return None
    out = m[:i] + (e - 1,) + m[i + 1 :]
    if A.odd[i]:
        return (-1 if sum(m[j] for j in range(i) if A.odd[j]) % 2 else 1), out
    return e, out


def assert_primitives_match_the_oracles(A, monos, pairs):
    for m in monos:
        assert A.degree(m) == oracle_degree(A, m) and A.weight(m) == oracle_weight(A, m)
        for i in range(A.n):
            assert A.partial(i, m) == oracle_partial(A, i, m)
    for a, b in pairs:
        assert A.mul_monomials(a, b) == oracle_mul_monomials(A, a, b)


def test_primitives_match_the_oracles_on_every_pair_of_the_contexts():
    for ctx in CONTEXTS.values():
        for A in (ctx.forms, ctx.vectors):
            monos = A.monomials([2] * A.n, -math.inf, math.inf)
            assert_primitives_match_the_oracles(A, monos, iproduct(monos, repeat=2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), min_size=1, max_size=10), st.data())
def test_primitives_match_the_oracles_on_random_generators(gens, data):
    # k = 0 … 10 odd generators, contiguous or not; k = 1 is where itemgetter of one index gives a bare int
    A = po.FreeGCA([po.Generator(f"g{i}", d, w) for i, (d, w) in enumerate(gens)])
    monomial = st.tuples(*(st.integers(0, 1 if odd else 3) for odd in A.odd))
    monos = data.draw(st.lists(monomial, min_size=1, max_size=6))
    assert_primitives_match_the_oracles(A, monos, iproduct(monos, repeat=2))


def test_truncated_product_tables_match_the_oracle(monkeypatch):
    from mixhom.algebra import make_exterior_algebra, make_truncated_polynomial_algebra

    builds = [lambda n=n: make_exterior_algebra(n) for n in (1, 2, 3, 4)]
    builds.append(lambda: make_truncated_polynomial_algebra(3, 4))
    kernel = [build() for build in builds]
    monkeypatch.setattr(po.FreeGCA, "mul_monomials", oracle_mul_monomials)
    for got, build in zip(kernel, builds):
        want = build()
        assert (got.labels, got.table) == (want.labels, want.table)


def test_an_odd_exponent_above_one_is_outside_the_contract():
    A = po.FreeGCA([po.Generator("x", 0, 1), po.Generator("θ", 1, 1), po.Generator("η", -1, 1)])
    for a, b in [((0, 2, 0), (1, 0, 0)), ((1, 0, 0), (0, 0, 2)), ((0, 2, 0), (0, 0, 1))]:
        with pytest.raises(ValueError, match="odd exponent"):
            A.mul_monomials(a, b)
    for i, m in [(1, (0, 2, 0)), (2, (0, 2, 1)), (2, (0, 0, 2))]:
        with pytest.raises(ValueError, match="odd exponent"):
            A.partial(i, m)
    # and one within it still multiplies: θ·η = θη, η·θ = -θη
    assert A.mul_monomials((0, 1, 0), (0, 0, 1)) == (1, (0, 1, 1))
    assert A.mul_monomials((0, 0, 1), (0, 1, 0)) == (-1, (0, 1, 1))


def test_products_on_many_odd_generators_allocate_no_sign_table():
    # 20 odd generators among 4 even ones: a sign table eager in the 4^20 odd-pattern pairs cannot fit
    import random
    import tracemalloc

    rng = random.Random(0)
    degrees = [1] * 10 + [0] * 4 + [-1] * 10
    rng.shuffle(degrees)
    pairs = []
    for t in range(100):
        # disjoint odd patterns give a sign; every fourth pair shares one odd generator and gives None
        a, b = zip(*[rng.choice([(0, 0), (1, 0), (0, 1)]) if d % 2 else (rng.randint(0, 3), rng.randint(0, 3))
                     for d in degrees])
        if t % 4 == 0:
            i = rng.choice([i for i, d in enumerate(degrees) if d % 2])
            a, b = a[:i] + (1,) + a[i + 1 :], b[:i] + (1,) + b[i + 1 :]
        pairs.append((a, b))
    tracemalloc.start()
    try:
        A = po.FreeGCA([po.Generator(f"g{i}", d, 1) for i, d in enumerate(degrees)])
        got = [A.mul_monomials(a, b) for a, b in pairs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [oracle_mul_monomials(A, a, b) for a, b in pairs]
    assert sum(g is not None for g in got) >= 50 and {g[0] for g in got if g} == {-1, 1}
    assert peak < 1 << 20, f"{peak} bytes allocated"


# every space of the four, at n = 1, 2, 3: (n, side, "forms" or "vectors")
SPACES = {(*key, kind): getattr(ctx, kind) for key, ctx in CONTEXTS.items() for kind in ("forms", "vectors")}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SPACES)), st.data())
def test_packed_words_match_the_tuple_oracle(space, data):
    # the word product and partial against the per-generator tuple oracles on all four spaces, with
    # exponents up to the field limit, pairs that share an odd generator, and int order against tuple order
    A = SPACES[space]
    exponent = st.one_of(st.integers(0, 3), st.integers(po._LIMIT - 3, po._LIMIT))
    monomial = st.tuples(*(st.integers(0, 1) if odd else exponent for odd in A.odd))
    a, b = data.draw(monomial), data.draw(monomial)
    odd = [i for i in range(A.n) if A.odd[i]]
    if data.draw(st.booleans()):
        i = data.draw(st.sampled_from(odd))
        a, b = a[:i] + (1,) + a[i + 1 :], b[:i] + (1,) + b[i + 1 :]
    wa, wb = A.pack(a), A.pack(b)
    assert (A.unpack(wa), A.unpack(wb)) == (a, b)
    assert (wa < wb, wa == wb) == (a < b, a == b)
    overlap = any(a[i] and b[i] for i in odd)
    if not overlap and any(x + y > po._LIMIT for x, y in zip(a, b)):
        with pytest.raises(ValueError, match=f"above {po._LIMIT}"):
            A.mul_words(wa, wb)
    else:
        got = A.mul_words(wa, wb)
        assert (got and (got[0], A.unpack(got[1]))) == oracle_mul_monomials(A, a, b)
        assert A.mul_monomials(a, b) == oracle_mul_monomials(A, a, b)
    for i in range(A.n):
        got = A.partial_word(i, wa)
        assert (got and (got[0], A.unpack(got[1]))) == oracle_partial(A, i, a) == A.partial(i, a)


def test_a_field_never_carries_into_its_neighbour():
    # x1, x2, dx1, dx2: an exponent past the limit has no word, and a product that would carry raises
    A = CONTEXTS[(2, "poly")].forms
    for m in [(po._LIMIT + 1, 0, 0, 0), (1 << po._FIELD, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 2, 0), (1, 1)]:
        with pytest.raises(ValueError, match="is no monomial of 4 exponents"):
            A.pack(m)
    with pytest.raises(ValueError, match=f"above {po._LIMIT}"):
        A.mul_words(A.pack((0, po._LIMIT, 0, 0)), A.units[1])
    with pytest.raises(ValueError, match=f"above {po._LIMIT}"):
        A.mul_monomials((po._LIMIT, 0, 0, 0), (1, 0, 0, 0))
    assert A.mul_monomials((po._LIMIT, 0, 0, 0), (0, po._LIMIT, 0, 0)) == (1, (po._LIMIT, po._LIMIT, 0, 0))
    assert A.partial(1, (po._LIMIT, po._LIMIT, 0, 1)) == (po._LIMIT, (po._LIMIT, po._LIMIT - 1, 0, 1))
    # the bracket's own product loop guards its fields too: [x1^h x2 ∂2, x1^h x2] holds x1^2h, past the limit
    ctx, h = CONTEXTS[(2, "poly")], po._LIMIT // 2 + 1
    _, apply = _bracket_columns(ctx, {(h, 1, 0, 1): Q(1)})
    with pytest.raises(ValueError, match=f"above {po._LIMIT}"):
        apply(ctx.vectors.pack((h, 1, 0, 0)))
    within = schouten_odd_laplacian(ctx, {(h, 1, 0, 1): Q(1)}, {(20, 1, 0, 0): Q(1)})
    assert apply(ctx.vectors.pack((20, 1, 0, 0))) == {ctx.vectors.pack((h + 20, 1, 0, 0)): 1} == _words_of(ctx.vectors, within)


def monomials_by_filter(A, max_exponents, w_min, w_max):
    """Every monomial up to the exponent caps, then the weight filter: the enumeration ``FreeGCA.monomials`` pruned."""
    out = [()]
    for i in range(A.n):
        cap = min(1, max_exponents[i]) if A.odd[i] else max_exponents[i]
        out = [m + (e,) for m in out for e in range(cap + 1)]
    return [m for m in out if w_min <= A.weight(m) <= w_max]


# a weight bound: the θ of the polyvectors have weight -1 on the polynomial side
weight_bounds = st.one_of(st.integers(min_value=-8, max_value=10), st.sampled_from([-math.inf, math.inf]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CONTEXTS)), st.booleans(), st.data())
def test_monomials_by_weight_match_the_filter(key, vectors, data):
    # the pruned enumeration against enumerate-then-filter, in the same (lexicographic) order
    A = CONTEXTS[key].vectors if vectors else CONTEXTS[key].forms
    caps = data.draw(st.lists(st.integers(min_value=0, max_value=4), min_size=A.n, max_size=A.n))
    w_min, w_max = data.draw(weight_bounds), data.draw(weight_bounds)
    assert A.monomials(caps, w_min, w_max) == monomials_by_filter(A, caps, w_min, w_max)


def _all_fractions(el: GCAElement) -> bool:
    return all(type(v) is Fraction for v in el.values())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CONTEXTS)), st.data())
def test_schouten_matches_odd_laplacian_oracle(key, data):
    ctx = CONTEXTS[key]
    P = data.draw(elements(ctx.vectors))
    R = data.draw(elements(ctx.vectors))
    got = schouten(ctx, P, R)
    assert got == schouten_odd_laplacian(ctx, P, R)
    assert _all_fractions(got)
    # the integer columns, one word at a time, over their denominator; a column may hold zeros
    V = ctx.vectors
    den, apply = _bracket_columns(ctx, P)
    for m in R:
        got = apply(V.pack(m))
        assert all(type(v) is int for v in got.values())
        assert {V.unpack(mm): Q(v, den) for mm, v in got.items() if v} == schouten_odd_laplacian(ctx, P, {m: Q(1)})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CONTEXTS)), st.data())
def test_contraction_matches_chained_oracle(key, data):
    # one form word at a time: an integer column of at most one entry; the
    # Poisson bundles' action extends it over P, in Fractions and in P's order
    from mixhom.poisson import _contraction_of

    ctx = CONTEXTS[key]
    P = data.draw(elements(ctx.vectors))
    forms = data.draw(elements(ctx.forms, max_exponent=3, max_terms=6))
    act = _contraction_of(ctx)
    for om in forms:
        want: GCAElement = {}
        for m, c in P.items():
            got = contract_monomial(ctx, ctx.vectors.pack(m), ctx.forms.pack(om))
            assert got == contract_words_chained(ctx, ctx.vectors.pack(m), ctx.forms.pack(om))
            assert len(got) <= 1 and all(type(v) is int for v in got.values())
            _accumulate(want, contract_monomial_chained(ctx, m, om), c)
        got = act(P, om)
        assert list(got.items()) == list(want.items()) and _all_fractions(got)


def test_engine_matches_oracles_on_small_monomials():
    # exhaustive on n = 2, both sides: every pair of polyvector monomials with
    # exponents <= 1, and each of them against every form monomial with exponents <= 2
    nonzero = contracted = 0
    for side in ("poly", "ext"):
        ctx = CONTEXTS[(2, side)]
        V, F = ctx.vectors, ctx.forms
        monos = V.monomials([1] * 4, -math.inf, math.inf)
        for m1, m2 in iproduct(monos, repeat=2):
            got = schouten(ctx, {m1: Q(2)}, {m2: Q(-1, 3)})
            assert got == schouten_odd_laplacian(ctx, {m1: Q(2)}, {m2: Q(-1, 3)}), (side, m1, m2)
            nonzero += bool(got)
        for m, om in iproduct(monos, F.monomials([2] * 4, -math.inf, math.inf)):
            got = contract_monomial(ctx, V.pack(m), F.pack(om))
            assert {F.unpack(t): k for t, k in got.items()} == contract_monomial_chained(ctx, m, om), (side, m, om)
            contracted += bool(got)
    assert nonzero > 100 and contracted > 100


CIRCULANT = {(1, 2, 1, 2): Q(1), (2, 3, 2, 3): Q(1), (3, 1, 3, 1): Q(1)}


def swap_roles(coeffs):
    return {(j1, j2, i1, i2): c for (i1, i2, j1, j2), c in coeffs.items()}


@pytest.fixture(scope="module")
def ctx2():
    return PoissonContext.make(2, "poly")


@pytest.fixture(scope="module")
def ctx3():
    return PoissonContext.make(3, "poly")


def mono(ctx, **kw):
    names = [g.name for g in ctx.gens]
    m = [0] * len(names)
    for k, v in kw.items():
        m[names.index(k)] = v
    return tuple(m)


class TestWedgeAndContraction:
    def test_wedge_anticommutes_on_odd(self, ctx2):
        V = ctx2.vectors
        d1 = {mono(V, **{"∂1": 1}): Q(1)}
        d2 = {mono(V, **{"∂2": 1}): Q(1)}
        assert V.multiply(d1, d2) == scale(V.multiply(d2, d1), Q(-1))

    def test_wedge_unital(self, ctx2):
        V = ctx2.vectors
        P = {mono(V, x1=1, **{"∂2": 1}): Q(3)}
        assert V.multiply({V.one: Q(1)}, P) == P

    def test_wedge_of_hamiltonian_like(self, ctx2):
        V = ctx2.vectors
        a = {mono(V, x1=1, **{"∂1": 1}): Q(1)}
        b = {mono(V, x2=1, **{"∂2": 1}): Q(1)}
        assert V.multiply(a, b) == {mono(V, x1=1, x2=1, **{"∂1": 1, "∂2": 1}): Q(1)}

    def test_contraction_by_function_multiplies(self, ctx2):
        F, V = ctx2.forms, ctx2.vectors
        f = {mono(V, x1=1): Q(1)}
        om = {mono(F, dx1=1, dx2=1): Q(1)}
        assert contraction(ctx2, f, om) == {mono(F, x1=1, dx1=1, dx2=1): Q(1)}

    def test_contraction_single(self, ctx2):
        F, V = ctx2.forms, ctx2.vectors
        d1 = {mono(V, **{"∂1": 1}): Q(1)}
        om = {mono(F, dx1=1, dx2=1): Q(1)}
        assert contraction(ctx2, d1, om) == {mono(F, dx2=1): Q(1)}

    def test_contraction_top_sign_frozen(self, ctx2):
        F, V = ctx2.forms, ctx2.vectors
        d12 = {mono(V, **{"∂1": 1, "∂2": 1}): Q(1)}
        om = {mono(F, dx1=1, dx2=1): Q(1)}
        assert contraction(ctx2, d12, om) == {F.one: Q(1)}

    def test_contraction_matches_shuffle_formula(self, ctx2):
        # the engine equals the displayed shuffle sum on the ungraded side
        V, F = ctx2.vectors, ctx2.forms
        vm = [m for m in V.monomials([2, 2, 1, 1], -math.inf, math.inf) if V.weight(m) <= 2]
        cases = [((0, 0), [0, 1]), ((1, 0), [0]), ((1, 1), [1, 0]), ((2, 0), [0, 1])]
        for P in vm:
            for f0, dargs in cases:
                om_m = tuple(f0) + tuple(1 if i in dargs else 0 for i in range(2))
                if len(set(dargs)) != len(dargs):
                    continue
                # build the decomposable with the dargs order baked into the sign
                base = {tuple(f0) + (0, 0): Q(1)}
                om = dict(base)
                for a in dargs:
                    om = F.multiply(om, {mono(F, **{f"dx{a+1}": 1}): Q(1)})
                eng = contraction(ctx2, {P: Q(1)}, om)
                lit = contraction_shuffle(ctx2, P, tuple(f0), dargs)
                assert is_zero(sub(eng, lit)), (P, f0, dargs)


class TestSchouten:
    def test_spec_example(self, ctx2):
        V = ctx2.vectors
        d1 = {mono(V, **{"∂1": 1}): Q(1)}
        x1d1 = {mono(V, x1=1, **{"∂1": 1}): Q(1)}
        assert schouten(ctx2, d1, x1d1) == d1

    def test_graded_antisymmetry(self, ctx2):
        V = ctx2.vectors
        monos = [m for m in V.monomials([2, 2, 1, 1], -math.inf, math.inf) if V.weight(m) <= 3]
        for m1, m2 in iproduct(monos, repeat=2):
            p, q = sum(m1[2:]), sum(m2[2:])
            lhs = schouten(ctx2, {m1: Q(1)}, {m2: Q(1)})
            rhs = schouten(ctx2, {m2: Q(1)}, {m1: Q(1)})
            s = -1 if ((p - 1) * (q - 1)) % 2 else 1
            tot = dict(lhs)
            _accumulate(tot, rhs, Q(s))
            assert is_zero(tot), (m1, m2)

    def test_matches_shuffle_formula_up_to_recorded_sign(self, ctx2):
        # engine = (-1)^{(p-1)(q-1)} * displayed formula; they agree whenever
        # both arguments have positive polyvector arity
        V = ctx2.vectors
        monos = [m for m in V.monomials([2, 2, 1, 1], -math.inf, math.inf) if V.weight(m) <= 3]
        for m1, m2 in iproduct(monos, repeat=2):
            p, q = sum(m1[2:]), sum(m2[2:])
            eng = schouten(ctx2, {m1: Q(1)}, {m2: Q(1)})
            lit = schouten_shuffle(ctx2, m1, m2)
            s = -1 if ((p - 1) * (q - 1)) % 2 else 1
            assert is_zero(sub(eng, scale(lit, Q(s)))), (m1, m2)
            if p >= 1 and q >= 1:
                assert is_zero(sub(eng, lit))

    def test_jacobi_on_samples(self, ctx2):
        V = ctx2.vectors
        monos = [m for m in V.monomials([2, 2, 1, 1], -math.inf, math.inf) if V.weight(m) <= 2 and sum(m[2:]) <= 2]
        sample = monos[:: max(1, len(monos) // 9)]
        for m1, m2, m3 in iproduct(sample, repeat=3):
            p, q, r = (sum(m[2:]) for m in (m1, m2, m3))
            P, Qv, R = {m1: Q(1)}, {m2: Q(1)}, {m3: Q(1)}
            # graded Jacobi in the shifted grading: signs (p-1)(r-1) style
            t1 = schouten(ctx2, P, schouten(ctx2, Qv, R))
            t2 = schouten(ctx2, schouten(ctx2, P, Qv), R)
            t3 = schouten(ctx2, Qv, schouten(ctx2, P, R))
            s = -1 if ((p - 1) * (q - 1)) % 2 else 1
            tot = dict(t1)
            _accumulate(tot, t2, Q(-1))
            _accumulate(tot, t3, Q(-s))
            assert is_zero(tot), (m1, m2, m3)

    def test_jacobi_obstruction_of_log_canonical(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        assert is_zero(schouten(ctx2, pi, pi))

    def test_jacobi_error_raised(self, ctx3):
        # a quadratic bivector violating Jacobi
        bad = quadratic_bivector(ctx3, {(1, 1, 1, 2): Q(1), (2, 2, 2, 3): Q(1)})
        if not is_zero(schouten(ctx3, bad, bad)):
            with pytest.raises(JacobiError):
                check_jacobi(ctx3, bad)


class TestDifferentials:
    def test_de_rham_basics(self, ctx2):
        F = ctx2.forms
        x1 = {mono(F, x1=1): Q(1)}
        assert de_rham(ctx2, x1) == {mono(F, dx1=1): Q(1)}
        x1dx1 = {mono(F, x1=1, dx1=1): Q(1)}
        assert de_rham(ctx2, x1dx1) == {}

    def test_boundary_of_functions_vanishes(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        F = ctx2.forms
        for m in F.monomials([3, 3, 0, 0], -math.inf, math.inf):
            assert poisson_boundary(ctx2, pi, {m: Q(1)}) == {}

    def test_zero_pi_gives_zero_boundary(self, ctx2):
        F = ctx2.forms
        for m in F.monomials([2, 2, 1, 1], -math.inf, math.inf):
            assert poisson_boundary(ctx2, {}, {m: Q(1)}) == {}

    def test_boundary_matches_literal_formula(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        cases = [((1, 0), [0]), ((0, 1), [0]), ((1, 1), [0, 1]), ((2, 0), [1]), ((0, 0), [0, 1])]
        for f0, dargs in cases:
            om = {tuple(f0) + tuple(1 if i in dargs else 0 for i in range(2)): Q(1)}
            eng = poisson_boundary(ctx2, pi, om)
            lit = poisson_boundary_literal(ctx2, pi, tuple(f0), dargs)
            assert is_zero(sub(eng, lit))

    def test_coboundary_matches_literal_formula(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        V = ctx2.vectors
        for m in V.monomials([2, 2, 1, 1], -math.inf, math.inf):
            if V.weight(m) > 3:
                continue
            eng = schouten(ctx2, pi, {m: Q(1)})
            lit = poisson_coboundary_literal(ctx2, pi, m)
            assert is_zero(sub(eng, lit)), m

    def test_coboundary_unit_and_double(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        V = ctx2.vectors
        assert schouten(ctx2, {}, {V.one: Q(1)}) == {}
        x1 = {mono(V, x1=1): Q(1)}
        dd = schouten(ctx2, pi, schouten(ctx2, pi, x1))
        assert is_zero(dd)

    def test_mixed_complex_axioms_per_pi(self, ctx2):
        # ∂² = 0, d² = 0, ∂d + d∂ = 0 on all basis forms in window
        F = ctx2.forms
        for coeffs in ({}, {(1, 2, 1, 2): Q(1)}, {(1, 1, 1, 2): Q(1)}):
            pi = quadratic_bivector(ctx2, coeffs) if coeffs else {}
            for m in F.monomials([3, 3, 1, 1], -math.inf, math.inf):
                if F.weight(m) > 5:
                    continue
                om = {m: Q(1)}
                assert is_zero(poisson_boundary(ctx2, pi, poisson_boundary(ctx2, pi, om)))
                assert is_zero(de_rham(ctx2, de_rham(ctx2, om)))
                anti = poisson_boundary(ctx2, pi, de_rham(ctx2, om))
                _accumulate(anti, de_rham(ctx2, poisson_boundary(ctx2, pi, om)))
                assert is_zero(anti)

    def test_weight_preserved_by_quadratic_pi(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        F = ctx2.forms
        for m in F.monomials([2, 2, 1, 1], -math.inf, math.inf):
            w = F.weight(m)
            for mm in poisson_boundary(ctx2, pi, {m: Q(1)}):
                assert F.weight(mm) == w


class TestUnimodularity:
    def test_zero_pi_unimodular(self, ctx2):
        rep = unimodularity_check(ctx2, {}, w_max=3)
        assert rep.unimodular

    def test_log_canonical_on_two_vars_fails(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        rep = unimodularity_check(ctx2, pi, w_max=3)
        assert not rep.unimodular
        assert not rep.modular_field_zero
        assert not rep.boundary_of_volume_zero

    def test_circulant_unimodular(self, ctx3):
        pi = quadratic_bivector(ctx3, CIRCULANT)
        rep = unimodularity_check(ctx3, pi, w_max=3)
        assert rep.unimodular, rep.failures

    def test_three_diagnostics_agree(self, ctx2, ctx3):
        cases = [
            (ctx3, CIRCULANT),
            (ctx2, {(1, 2, 1, 2): Q(1)}),
            (ctx2, {(1, 1, 1, 2): Q(1)}),
        ]
        for ctx, coeffs in cases:
            pi = quadratic_bivector(ctx, coeffs)
            rep = unimodularity_check(ctx, pi, w_max=3)
            assert rep.boundary_of_volume_zero == rep.diagram_commutes == rep.modular_field_zero

    def test_divergence_oracle_values(self, ctx2):
        pi = quadratic_bivector(ctx2, {(1, 2, 1, 2): Q(1)})
        V = ctx2.vectors
        mod = modular_vector_field(ctx2, pi)
        assert mod == {
            mono(V, x2=1, **{"∂2": 1}): Q(1),
            mono(V, x1=1, **{"∂1": 1}): Q(-1),
        }


class TestDualSide:
    def test_shoikhet_jacobi_transfer(self):
        # (A, π) Poisson iff (A^!, π^!) Poisson, instantiated on the circulant
        ctxe = PoissonContext.make(3, "ext")
        pid = quadratic_bivector(ctxe, swap_roles(CIRCULANT))
        assert is_zero(schouten(ctxe, pid, pid))

    def test_dual_mixed_axioms(self):
        ctxe = PoissonContext.make(3, "ext")
        pid = quadratic_bivector(ctxe, swap_roles(CIRCULANT))
        dual = DualSideByFunctionals(ctxe, pid, w_max=5)
        for m in dual_domain(dual):
            phi = {m: Q(1)}
            assert not dual.coboundary(dual.coboundary(phi))
            assert not dual.d_star(dual.d_star(phi))
            anti = dual.coboundary(dual.d_star(phi))
            for k, v in dual.d_star(dual.coboundary(phi)).items():
                anti[k] = anti.get(k, Q(0)) + v
            assert all(v == 0 for v in anti.values())

    def test_dual_contract_unit(self):
        ctxe = PoissonContext.make(2, "ext")
        dual = DualSideByFunctionals(ctxe, {}, w_max=4)
        phi = {m: Q(i + 1) for i, m in enumerate(dual_domain(dual)[:3])}
        got = dual.contract({ctxe.vectors.one: Q(1)}, phi)
        assert got == {m: v for m, v in phi.items() if v}

    def test_dual_contract_degree_mismatch_zero(self):
        ctxe = PoissonContext.make(2, "ext")
        dual = DualSideByFunctionals(ctxe, {}, w_max=4)
        V = ctxe.vectors
        # contracting the degree-0 dual volume by a 2-vector lands in
        # functionals on 2-forms; against a functional supported on A^! it dies
        P = {mono(V, **{"∂ξ1": 1, "∂ξ2": 1}): Q(1)}
        eta = dual.dual_volume()
        out = dual.contract(P, eta)
        F = ctxe.forms
        assert all(F.degree(m) != 0 for m in out), "support moved off the function degree"

    def test_unimodular_equivalence_primal_dual(self, ctx3, ctx2):
        cases = [
            (3, CIRCULANT, True),
            (2, {(1, 2, 1, 2): Q(1)}, False),
            (2, {(1, 1, 1, 2): Q(1)}, False),
        ]
        for n, coeffs, expect in cases:
            ctx = PoissonContext.make(n, "poly")
            pi = quadratic_bivector(ctx, coeffs)
            prim = unimodularity_check(ctx, pi, w_max=3)
            ctxe = PoissonContext.make(n, "ext")
            pid = quadratic_bivector(ctxe, swap_roles(coeffs))
            rep = frobenius_poisson_check(DualSide(ctxe, pid, w_max=n + 2))
            assert prim.unimodular == rep.unimodular == expect

    def test_frobenius_check_needs_the_dual_volume_in_its_window(self):
        # below weight n the window holds no η^!, and no verdict is made
        ctxe = PoissonContext.make(2, "ext")
        with pytest.raises(ValueError, match="weight 2 of η"):
            frobenius_poisson_check(DualSide(ctxe, {}, w_max=1))
        assert frobenius_poisson_check(DualSide(ctxe, {}, w_max=2)).unimodular

    def test_zero_bracket_dual_unimodular(self):
        ctxe = PoissonContext.make(2, "ext")
        rep = frobenius_poisson_check(DualSide(ctxe, {}, w_max=4))
        assert rep.unimodular


def _contract_full_domain(dual, P, phi):
    """The dual action as it was: φ∘ι_P evaluated on every form of the domain,
    with the sign taken from one degree of P."""
    F = dual.ctx.forms
    deg_p = {dual.ctx.vectors.degree(m) for m, c in P.items() if c}
    dp = deg_p.pop() if deg_p else 0
    degs = {-F.degree(m) for m, c in phi.items() if c}
    dphi = degs.pop() if degs else 0
    sign = Q(-1) if (dp % 2) and (dphi % 2) else Q(1)
    out = {}
    for m in dual_domain(dual):
        total = Q(0)
        for mm, c in contraction(dual.ctx, P, {m: Q(1)}).items():
            v = phi.get(mm)
            if v:
                total += c * v
        if total:
            out[m] = sign * total
    return out


class TestDualContractOracle:
    def test_frobenius_check_pairs_match_full_domain(self):
        n = 3
        ctxe = PoissonContext.make(n, "ext")
        pid = quadratic_bivector(ctxe, swap_roles(CIRCULANT))
        dual = DualSideByFunctionals(ctxe, pid, w_max=n + 2)
        eta = dual.dual_volume()
        V = ctxe.vectors
        checked = 0
        for m in V.monomials([1] * n + [max(2, n)] * n, -math.inf, math.inf):
            for P in ({m: Q(1)}, schouten(ctxe, pid, {m: Q(1)})):
                assert dual.contract(P, eta) == _contract_full_domain(dual, P, eta)
                checked += 1
        assert checked == 2 * 8 * 64

    def test_contract_is_linear_in_inhomogeneous_P(self):
        # ξ1 (degree -1) and ∂ξ2 (degree 0) contract φ = (ξ1dξ2)* with
        # opposite signs, so one sign for the whole of P is wrong
        ctxe = PoissonContext.make(2, "ext")
        dual = DualSideByFunctionals(ctxe, {}, w_max=4)
        F, V = ctxe.forms, ctxe.vectors
        phi = {mono(F, ξ1=1, dξ2=1): Q(1)}
        xi1 = {mono(V, ξ1=1): Q(1)}
        d2 = {mono(V, **{"∂ξ2": 1}): Q(1)}
        got = dual.contract({**xi1, **d2}, phi)
        parts = dual.contract(xi1, phi)
        _accumulate(parts, dual.contract(d2, phi))
        assert got == parts
        assert got == {mono(F, dξ2=1): Q(-1), mono(F, ξ1=1, dξ2=2): Q(2)}


# -- the tuple-path builders (oracles) --------------------------------------------
#
# The Poisson operators as they were built before they moved onto packed words: one exponent tuple at
# a time, through the tuple ``FreeGCA.partial`` and ``mul_monomials``.  That code is kept here verbatim
# as the differential oracle of the packed builders, with two edits: ``d_by_tuples`` unpacks the
# generator's unit, now a word, and ``DualSide._columns`` is a function of the dual side.  The
# Frobenius square reads η^!∘ι_m by pulling η^! back over a whole piece of forms.


def d_by_tuples(ctx: PoissonContext, m: Monomial) -> dict[Monomial, int]:
    """d of one form monomial, with integer coefficients; each coordinate gives its own monomial."""
    F = ctx.forms
    acc: dict[Monomial, int] = {}
    for i in range(ctx.n):
        got = F.partial(i, m)
        if got is not None:
            prod = F.mul_monomials(F.unpack(F.units[ctx.n + i]), got[1])
            if prod is not None:
                acc[prod[1]] = got[0] * prod[0]
    return acc


def contract_monomial_by_tuples(ctx: PoissonContext, P: Monomial, m: Monomial) -> dict[Monomial, int]:
    """ι_P m for one polyvector monomial P and one form monomial m, as an integer column."""
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


def contraction_of_by_tuples(ctx: PoissonContext):
    """ι_P on one basis form, Σ c·ι_m over P's monomials: both Poisson bundles' action."""
    return lambda P, label: _expand(P, lambda m: contract_monomial_by_tuples(ctx, m, label))


def bracket_columns_by_tuples(ctx: PoissonContext, P: GCAElement):
    """(den, m ↦ den·[P, m]): the bracket as integer columns, over one denominator den of P."""
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


def delta_matrix_by_tuples(ops, piece) -> ExactMatrix:
    """``MultivectorOps.delta_matrix`` on the polyvector monomials themselves."""
    den, delta = bracket_columns_by_tuples(ops.ctx, ops.pi)
    D, om = piece
    return operator_matrix(ops._pieces.get(piece, []), ops._pieces_ext.get((D - 1, om), []), delta, den,
                           escape=WindowError)


def square_by_tuples(labels, weight, maps, stop: int | None = None) -> list:
    """The first ``stop`` failures (s, k), labels in order, of squares k: d_tgt(F(s)) ≠ sign(s)·F(d_src(s))."""
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


def form_columns_by_tuples(ctx: PoissonContext, pi: GCAElement, den: int):
    """Cached integer columns on forms: (ι_P ω for a polyvector monomial P, dω, den·∂ω)."""
    scaled = {P: c.numerator * (den // c.denominator) for P, c in pi.items()}
    contract = cache(lambda P, m: contract_monomial_by_tuples(ctx, P, m))
    d = cache(lambda m: d_by_tuples(ctx, m))

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


def poisson_complex_by_tuples(ctx: PoissonContext, pi: dict, w_max: int):
    """``mixed._poisson_complex`` on the form monomials themselves."""
    F = ctx.forms
    pieces: dict = {}
    # odd generators are capped at exponent 1, so this lists either side's forms
    for m in F.monomials([w_max] * (2 * ctx.n), 0, w_max):
        pieces.setdefault((F.degree(m), F.weight(m)), []).append(m)
    for labels in pieces.values():
        labels.sort()
    den = _denominator(pi.values())
    b_mats, B_mats = {}, {}
    for w in range(w_max + 1):
        layer = {piece: labels for piece, labels in pieces.items() if piece[1] == w}
        _, d, boundary = form_columns_by_tuples(ctx, pi, den)
        B_mats.update(_mats_from_operator(layer, d, +1))
        b_mats.update(_mats_from_operator(layer, boundary, -1, den))
    return pieces, b_mats, B_mats


def dual_columns_by_tuples(dual: DualSide, mats: dict, shift: int, den: int):
    """den·T* as integer columns keyed by form, each matrix read once; ``mats`` maps (d, w) to (d + shift, w)."""
    cols: dict[Monomial, dict[Monomial, int]] = {}
    for (d, w), M in mats.items():
        src, tgt = dual.pieces[(d, w)], dual.pieces[(d + shift, w)]
        scale = den // M.den
        for (i, j), v in M.num.items():
            cols.setdefault(src[j], {})[tgt[i]] = scale * v
    return lambda m: cols.get(m, {})


def frobenius_poisson_check_by_pullback(dual: DualSide) -> FrobeniusPoissonReport:
    """``frobenius_poisson_check`` with η^!∘ι_m pulled back over the whole piece of forms ι_m sends onto η^!."""
    ctx = dual.ctx
    V, n = ctx.vectors, ctx.n
    top = (1,) * n + (0,) * n  # η^! picks the coefficient of ξ_1…ξ_n
    if (n, n) not in dual.pieces:
        raise ValueError(f"the dual side stops below the weight {n} of η^!")
    den, delta = bracket_columns_by_tuples(ctx, dual.pi)
    coboundary = dual_columns_by_tuples(dual, dual.b_mats, -1, den)

    def contract(m):
        # (-1)^{|m||η^!|} η^!∘ι_m, pulled back from the one piece of forms ι_m sends onto η^!
        dp = V.degree(m)
        return _pullback({top: 1}, dual.pieces.get((n + dp, n - V.weight(m)), ()),
                         lambda om: contract_monomial_by_tuples(ctx, m, om), -1 if dp % 2 and n % 2 else 1)

    bad = [m for m, _ in square_by_tuples(V.monomials([1] * n + [max(2, n)] * n, -math.inf, math.inf), V.weight,
                                          lambda: [(cache(contract), delta, coboundary, lambda m: 1)], stop=9)]
    # η^!∘ι_1 = η^! and [π, 1] = 0: the unit, the first label, fails exactly when δη^! ≠ 0
    return FrobeniusPoissonReport(V.one not in bad, not bad,
                                  [f"dual diagram fails on {V.format_monomial(m)}" for m in bad])


def unimodularity_check_by_tuples(ctx: PoissonContext, pi: GCAElement, w_max: int = 4) -> UnimodularityReport:
    """``unimodularity_check`` on the polyvector and form monomials themselves."""
    check_jacobi(ctx, pi)
    V, n = ctx.vectors, ctx.n
    eta = (0,) * n + (1,) * n  # the volume form dx_1…dx_n
    den, delta = bracket_columns_by_tuples(ctx, pi)

    def maps():
        contract, _, boundary = form_columns_by_tuples(ctx, pi, den)
        return [(lambda m: contract(m, eta), delta, boundary, lambda m: 1 if sum(m[n:]) % 2 else -1)]

    bad = [m for m, _ in square_by_tuples(V.monomials([w_max] * n + [1] * n, -math.inf, math.inf), V.weight, maps,
                                          stop=9)]
    # ι_1 η = η and [π, 1] = 0: the unit, the first label, fails exactly when ∂η ≠ 0
    return UnimodularityReport(V.one not in bad, not bad, not modular_vector_field(ctx, pi),
                               [f"diagram fails on {V.format_monomial(m)}" for m in bad])


def check_chain_map_by_tuples(self, pi_coeffs, w_max: int = 4) -> list[str]:
    """``PoissonIdentification.check_chain_map`` on the form monomials themselves; ``self`` is the identification."""
    from mixhom.koszul import dual_bivector_coeffs

    pi = po.quadratic_bivector(self.ctx_poly, pi_coeffs)
    pid = po.quadratic_bivector(self.ctx_ext, dual_bivector_coeffs(pi_coeffs))
    dual = po.DualSide(self.ctx_ext, pid, w_max=w_max)
    den = _denominator([*pi.values(), *pid.values()])
    coboundary = dual_columns_by_tuples(dual, dual.b_mats, -1, den)
    d_star = dual_columns_by_tuples(dual, dual.B_mats, 1, 1)
    F = self.ctx_poly.forms

    def iso(m):
        return {self.form_to_dual(m): self.coefficient(m)}

    def maps():
        _, d, boundary = form_columns_by_tuples(self.ctx_poly, pi, den)
        return [(iso, boundary, coboundary, lambda m: 1), (iso, d, d_star, lambda m: 1)]

    labels = F.monomials([w_max] * self.n + [1] * self.n, 0, w_max)
    return [f"{('boundary', 'de Rham')[k]} fails at {F.format_monomial(m)}"
            for m, k in square_by_tuples(labels, F.weight, maps)]


def _words_of(A, column: dict) -> dict:
    return {A.pack(t): c for t, c in column.items()}


# π on each space: the circulant, its dual and a non-Poisson bivector with a real denominator
PACKED_CASES = {
    "poly2": (2, "poly", {(1, 2, 1, 2): Q(-5, 6), (1, 1, 1, 2): Q(2)}),
    "ext2": (2, "ext", {(1, 2, 1, 2): Q(3, 4), (2, 2, 1, 2): Q(-1)}),
    "poly3": (3, "poly", CIRCULANT),
    "ext3": (3, "ext", swap_roles(CIRCULANT)),
}


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_packed_builders_match_the_tuple_builders(case):
    # d, ι, the bracket columns, ∂, the bundles' action and δ on words against the tuple path, exhaustively
    # on a window of each space, columns compared on the words of the tuple columns
    from mixhom.calculus import MultivectorOps
    from mixhom.poisson import _contraction_of, _d, _form_columns

    n, side, coeffs = PACKED_CASES[case]
    ctx = PoissonContext.make(n, side)
    F, V = ctx.forms, ctx.vectors
    pi = quadratic_bivector(ctx, coeffs)
    forms = F.monomials([3] * (2 * n), 0, 4)
    vectors = V.monomials([2] * (2 * n), -2, 3)
    den, apply = _bracket_columns(ctx, pi)
    want_den, want_apply = bracket_columns_by_tuples(ctx, pi)
    assert den == want_den
    for m in vectors:
        assert apply(V.pack(m)) == _words_of(V, want_apply(m)), m
    act, want_act = _contraction_of(ctx), contraction_of_by_tuples(ctx)
    for m in forms:
        assert _d(ctx, F.pack(m)) == _words_of(F, d_by_tuples(ctx, m)), m
        for P in vectors:
            assert contract_monomial(ctx, V.pack(P), F.pack(m)) == _words_of(F, contract_monomial_by_tuples(ctx, P, m))
        assert act(pi, m) == want_act(pi, m)
    d, boundary = _form_columns(ctx, pi, den)
    _, want_d, want_boundary = form_columns_by_tuples(ctx, pi, den)
    for m in forms:
        assert (d(F.pack(m)), boundary(F.pack(m))) == (_words_of(F, want_d(m)), _words_of(F, want_boundary(m))), m
    ops = MultivectorOps(ctx, pi, -2, 3, 6)
    assert all(ops.delta_matrix(piece) == delta_matrix_by_tuples(ops, piece) for piece in ops.pieces())
    # coefficients of weight 4 at most: a δ that leaves the window raises on both paths, with the same
    # message on the same tuple labels
    ops = MultivectorOps(ctx, pi, -2, 3, 4)
    escapes = 0
    for piece in ops.pieces():
        try:
            want = delta_matrix_by_tuples(ops, piece)
        except WindowError as exc:
            escapes += 1
            with pytest.raises(WindowError) as got:
                ops.delta_matrix(piece)
            assert str(got.value) == str(exc) and "leaves the target basis" in str(exc)
        else:
            assert ops.delta_matrix(piece) == want
    assert escapes == {"poly2": 1, "poly3": 2}.get(case, 0)


# -- the integer squares against the monomial loops they replaced --------------

# the cli-batch bivectors at three scales, zero π, a non-unimodular π and one
# that is not Poisson (unimodularity_check raises JacobiError on it)
SQUARE_CASES = {
    **{f"poly2-c{c.numerator}_{c.denominator}": (2, {(1, 2, 1, 2): c}) for c in (Q(1), Q(-5, 6), Q(2))},
    **{f"poly3-c{c.numerator}_{c.denominator}": (3, {k: c * v for k, v in CIRCULANT.items()})
       for c in (Q(1), Q(-5, 6), Q(2))},
    "zero-n2": (2, {}),
    "zero-n3": (3, {}),
    "not-unimodular": (2, {(1, 1, 1, 2): Q(1)}),
    "not-poisson": (3, {(1, 1, 1, 2): Q(1), (2, 2, 2, 3): Q(1)}),
    "mixed-n3": (3, {(1, 2, 1, 3): Q(2, 3), (3, 3, 1, 2): Q(-1), (2, 3, 2, 3): Q(1, 4)}),
}


def assert_squares_match_the_monomial_loops(n: int, coeffs, w_max: int = 3):
    """The three squares against the loops they replaced and the tuple path: whole reports, failure lists included.

    The windows are the CLI's: unimodularity and the identification at w_max,
    the Frobenius square on a dual side of weight n + 2.  Returns the number
    of failures listed.
    """
    from mixhom.koszul import koszul_poisson_identification

    ctx, ctxe = PoissonContext.make(n, "poly"), PoissonContext.make(n, "ext")
    pi = quadratic_bivector(ctx, coeffs)
    try:
        want = unimodularity_check_by_monomials(ctx, pi, w_max=w_max)
    except JacobiError as exc:
        with pytest.raises(JacobiError) as got:
            unimodularity_check(ctx, pi, w_max=w_max)
        assert str(got.value) == str(exc)
        primal = []
    else:
        assert unimodularity_check(ctx, pi, w_max=w_max) == want == unimodularity_check_by_tuples(ctx, pi, w_max)
        primal = want.failures
    dual = DualSideByFunctionals(ctxe, quadratic_bivector(ctxe, swap_roles(coeffs)), w_max=n + 2)
    want_dual = frobenius_poisson_check_by_monomials(dual)
    assert frobenius_poisson_check(dual) == want_dual == frobenius_poisson_check_by_pullback(dual)
    ident = koszul_poisson_identification(n)
    want_ident = check_chain_map_by_monomials(ident, coeffs, w_max=w_max)
    assert ident.check_chain_map(coeffs, w_max=w_max) == want_ident == check_chain_map_by_tuples(ident, coeffs, w_max)
    return len(primal) + len(want_dual.failures) + len(want_ident)


@pytest.mark.parametrize("case", sorted(SQUARE_CASES))
def test_squares_match_the_monomial_loops(case):
    n, coeffs = SQUARE_CASES[case]
    failures = assert_squares_match_the_monomial_loops(n, coeffs)
    # the loops stop after nine failures per square; the unimodular cases have none
    assert failures == (0 if case.startswith(("poly3", "zero")) else 9 if "n3" in case or "poisson" in case else 18)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(1, 2)] * 4), rationals, max_size=4), st.integers(2, 4))
def test_squares_match_the_monomial_loops_on_random_bivectors(coeffs, w_max):
    assert_squares_match_the_monomial_loops(2, coeffs, w_max)


def test_chain_map_check_sees_one_flipped_coefficient_like_its_loop(monkeypatch):
    from mixhom import koszul as ko

    ident = ko.koszul_poisson_identification(3)
    top = (2, 0, 0, 0, 0, 1)
    coefficient = ko.PoissonIdentification.coefficient
    monkeypatch.setattr(ko.PoissonIdentification, "coefficient",
                        lambda self, m: -coefficient(self, m) if m == top else coefficient(self, m))
    got = ident.check_chain_map(CIRCULANT, w_max=3)
    assert got == check_chain_map_by_monomials(ident, CIRCULANT, w_max=3) and len(got) == 4


def test_each_square_applies_each_operator_once_per_label(monkeypatch):
    # noise-free work counts on the poly3 circulant π: a contraction ι_P ω
    # (into η, into η^!, or a term of ι_π), d and each bracket table meet
    # every label at most once, so no operator is applied to a sum again
    from mixhom.koszul import koszul_poisson_identification

    applied = []  # (operator, side, label, and the form monomial of a contraction)
    tables = iter(range(100))

    def counting(name, fn):
        def wrapper(ctx, *labels):
            applied.append((name, ctx.side, *labels))
            return fn(ctx, *labels)

        return wrapper

    def bracket_columns(ctx, P, build=po._bracket_columns):
        den, apply = build(ctx, P)
        return den, (lambda m, op=counting(f"δ{next(tables)}", lambda ctx, m: apply(m)): op(ctx, m))

    monkeypatch.setattr(po, "contract_monomial", counting("ι", po.contract_monomial))
    monkeypatch.setattr(po, "_d", counting("d", po._d))
    monkeypatch.setattr(po, "_bracket_columns", bracket_columns)
    ctx, ctxe = PoissonContext.make(3, "poly"), PoissonContext.make(3, "ext")
    pi = quadratic_bivector(ctx, CIRCULANT)
    dual = DualSide(ctxe, quadratic_bivector(ctxe, swap_roles(CIRCULANT)), w_max=5)
    ident = koszul_poisson_identification(3)
    squares = {
        "unimodularity": lambda: unimodularity_check(ctx, pi, w_max=3).unimodular,
        "frobenius": lambda: frobenius_poisson_check(dual).unimodular,
        "identification": lambda: ident.check_chain_map(CIRCULANT, w_max=3) == [],
    }
    work = {}
    for name, square in squares.items():
        applied.clear()
        assert square(), name
        assert len(applied) == len(set(applied)), name
        work[name] = {op: sum(1 for key in applied if key[0] == op) for op in {key[0] for key in applied}}
    # one table per square, applied to each of the 512 window monomials once;
    # the unimodularity check's other table is the Jacobi check [π, π]
    assert sorted(work["unimodularity"]) == ["d", "δ0", "δ1", "ι"] and work["unimodularity"]["δ1"] == 512
    assert sorted(work["frobenius"]) == ["δ2", "ι"] and work["frobenius"]["δ2"] == 512
    # the identification reads ∂ and d on its forms and δ, d* from its dual side
    assert sorted(work["identification"]) == ["d", "ι"]


class TestHomologyGolden:
    def test_hp_dims_log_canonical_two_vars(self):
        # golden file: HP of x1x2 ∂1∧∂2 on two variables, p <= 2, w <= 4
        from mixhom.mixed import slice_from_poisson

        ctx = PoissonContext.make(2, "poly")
        pi = quadratic_bivector(ctx, {(1, 2, 1, 2): Q(1)})
        sl = slice_from_poisson(ctx, pi, 4)
        dims = {k: v for k, v in sl.hh_dims().items() if v}
        assert dims == {
            (0, 0): 1,
            (0, 1): 2,
            (0, 2): 2,
            (0, 3): 2,
            (0, 4): 2,
            (1, 1): 2,
            (1, 2): 2,
            (1, 3): 2,
            (1, 4): 2,
        }

    def test_hp_zero_pi_equals_form_dims(self):
        from mixhom.mixed import slice_from_poisson

        ctx = PoissonContext.make(2, "poly")
        sl = slice_from_poisson(ctx, {}, 3)
        F = ctx.forms
        for (d, w), labels in sl.pieces.items():
            assert sl.hh((d, w)).dim == len(labels)
