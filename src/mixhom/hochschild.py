"""Reduced Hochschild chains and cochains of a weight-graded algebra.

Chains are linear combinations of tuples (a_0, ā_1, ..., ā_p) with the bar
entries in the augmentation.  For internally graded algebras every sign is
the Koszul sign computed with shifted degrees: a bar entry ā contributes
|ā| + 1, the leading entry a_0 contributes |a_0|.  With this discipline the
displayed ungraded signs ((-1)^i faces, (-1)^{mi} cyclic rotations,
(-1)^{nm} cup, (-1)^{(|g|+1)i} circle insertions) are recovered verbatim
when all internal degrees vanish, and the mixed-complex identities
b^2 = B^2 = bB + Bb = 0 hold exactly in every computed window.

Cochains here are mode A: tables with values in the algebra, supporting
cup / circle / bracket / cap.  Mode A-dual cochains, linear functionals on
chains, are not a type of their own: ``mixed._transpose`` transposes the
raw b and B matrices of the chains with the twisted rule
T*(g) = (-1)^{|g|} g∘T, which makes the dual of a mixed complex again a
mixed complex, validated once as the dual; the calculus pulls the cap
action back the same way (``CalculusBundle.cap_classes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .algebra import Element, GradedAlgebra, WindowOverflowError
from .linalg import _accumulate

ChainKey = tuple[int, ...]  # (i0, i1, ..., ip) basis indices; i1.. in augmentation
Chain = dict[ChainKey, int | Fraction]  # an int coefficient where it is integral, else a Fraction


def shifted_degree(A: GradedAlgebra, t: ChainKey) -> int:
    """Total degree |a_0| + sum(|ā_i| + 1) of a basis chain."""
    d = A.degrees[t[0]]
    for i in t[1:]:
        d += A.degrees[i] + 1
    return d


def chain_weight(A: GradedAlgebra, t: ChainKey) -> int:
    return sum(A.weights[i] for i in t)


def _bar_tuples(A: GradedAlgebra, aug: list[int], prefix: tuple[int, ...], remaining: int, slots: int,
                out: list[tuple[int, ...]]) -> None:
    """Append to out each prefix extended by ``slots`` augmentation indices of total weight ``remaining``."""
    if slots == 0:
        if remaining == 0:
            out.append(prefix)
        return
    for i in aug:
        wi = A.weights[i]
        if wi <= remaining - (slots - 1):  # each further slot needs weight >= 1
            _bar_tuples(A, aug, prefix + (i,), remaining - wi, slots - 1, out)


def chain_basis(A: GradedAlgebra, p: int, w: int) -> list[ChainKey]:
    """All basis chains of tensor length p and total weight w, sorted."""
    aug = A.augmentation_indices()
    out: list[ChainKey] = []
    for i0 in range(A.dim):
        if w - A.weights[i0] >= p:
            _bar_tuples(A, aug, (i0,), w - A.weights[i0], p, out)
    return sorted(out)


def _bar_project(A: GradedAlgebra, a: Element) -> Element:
    """Project an algebra element to the augmentation (drop the unit part)."""
    return {k: c for k, c in a.items() if k != A.unit}


def boundary_b(A: GradedAlgebra, chain: Chain) -> Chain:
    """Hochschild boundary; lowers tensor length by one, preserves weight."""
    out: Chain = {}
    for t, coeff in chain.items():
        p = len(t) - 1
        if p == 0:
            continue
        # merging faces d_0 .. d_{p-1}
        sgn_exp = A.degrees[t[0]]
        for i in range(p):
            sign = -1 if sgn_exp % 2 else 1
            prod = A.mult_basis(t[i], t[i + 1])
            if not isinstance(prod, dict):
                raise WindowOverflowError(A.weights[t[i]] + A.weights[t[i + 1]])
            if i == 0:
                _accumulate(out, {(k,) + t[2:]: c for k, c in prod.items()}, coeff * sign)
            else:
                # reduced complex: unit in a bar slot dies
                _accumulate(out, {t[:i] + (k,) + t[i + 2 :]: c for k, c in prod.items() if k != A.unit},
                            coeff * sign)
            sgn_exp += A.degrees[t[i + 1]] + 1
        # rotation face d_p: (a_p a_0, ā_1, ..., ā_{p-1}); the constant -1 is
        # what survives of the classical (-1)^p after the Koszul block sign
        rest = A.degrees[t[0]] + sum(A.degrees[i] + 1 for i in t[1 : p])
        last = A.degrees[t[p]] + 1
        sign = -1 if (last * rest + 1) % 2 else 1
        prod = A.mult_basis(t[p], t[0])
        if not isinstance(prod, dict):
            raise WindowOverflowError(A.weights[t[p]] + A.weights[t[0]])
        _accumulate(out, {(k,) + t[1:p]: c for k, c in prod.items()}, coeff * sign)
    return out


def connes_B(A: GradedAlgebra, chain: Chain) -> Chain:
    """Connes operator; raises tensor length by one, preserves weight."""
    out: Chain = {}
    for t, coeff in chain.items():
        m = len(t) - 1
        # shifted degrees with a_0 entering the bar zone
        shifts = [A.degrees[i] + 1 for i in t]
        for i in range(m + 1):
            if i > 0 and t[0] == A.unit:
                continue  # ā_0 lands in a bar slot and dies
            front = sum(shifts[:i]) % 2
            back = sum(shifts[i:]) % 2
            sign = -1 if (front and back) else 1
            if i == 0:
                if t[0] == A.unit:
                    continue  # (1, 1̄, ...) dies in the reduced complex
                key = (A.unit,) + t
            else:
                key = (A.unit,) + t[i:] + t[:i]
            _accumulate(out, {key: coeff}, sign)
    return out


# -- mode A cochains ---------------------------------------------------------


@dataclass
class Cochain:
    """Mode-A cochain: a table on bar tuples with values in the algebra.

    ``arity`` is the number of bar inputs; ``table`` maps input tuples (of
    augmentation indices) to Elements.  ``degree`` is the total degree
    (value degree minus the shifted degree of the inputs) and must be
    uniform across the table; it is supplied because the zero table has no
    intrinsic degree.
    """

    algebra: GradedAlgebra
    arity: int
    degree: int
    table: dict[tuple[int, ...], Element]

    def value(self, key: tuple[int, ...]) -> Element:
        return self.table.get(key, {})


def unit_cochain(A: GradedAlgebra) -> Cochain:
    return Cochain(A, 0, 0, {(): A.one()})


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Cup product; arities add.  Sign: Koszul for g passing the f inputs."""
    A = f.algebra
    if g.algebra is not A:
        raise ValueError("cochains over different algebras")
    table: dict[tuple[int, ...], Element] = {}
    for kf, vf in f.table.items():
        shift_f = sum(A.degrees[i] + 1 for i in kf)
        sign = -1 if (g.degree % 2) and (shift_f % 2) else 1
        for kg, vg in g.table.items():
            val = A.multiply(vf, vg)
            if not val:
                continue
            key = kf + kg
            if not _accumulate(table.setdefault(key, {}), val, sign):
                table.pop(key, None)
    return Cochain(A, f.arity + g.arity, f.degree + g.degree, table)


def circle(f: Cochain, g: Cochain, v_max: int) -> Cochain:
    """Insertion f∘g: sum of g plugged into each slot of f, with Koszul signs.

    Tabulated on the input tuples of arity a = f.arity + g.arity - 1 and
    chain weight at most v_max, in (chain weight, tuple) order.  Evaluated
    as a join over nonzero entries: g's entries are indexed by each
    bar-projected output, and every slot of every nonzero f entry takes the
    g entries whose output it holds; only the nonzero keys in the window
    are sorted.
    """
    A = f.algebra
    n, m = f.arity, g.arity
    if n == 0:
        return Cochain(A, 0, f.degree + g.degree + 1, {})
    arity = n + m - 1
    g_shift = (g.degree + 1) % 2
    by_output: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for inner, gval in g.table.items():
        if len(inner) == m:
            for gk, gc in _bar_project(A, gval).items():
                by_output.setdefault(gk, []).append((inner, gc))
    acc: dict[tuple[int, ...], Element] = {}
    for outer, fval in f.table.items():
        if len(outer) != n or not fval:
            continue
        passed = 0
        for i, gk in enumerate(outer):
            sign = -1 if (g_shift and passed % 2) else 1
            for inner, gc in by_output.get(gk, ()):
                _accumulate(acc.setdefault(outer[:i] + inner + outer[i + 1 :], {}), fval, sign * gc)
            passed += A.degrees[gk] + 1
    window = sorted((w, key) for key, val in acc.items() if val and (w := chain_weight(A, key)) <= v_max)
    return Cochain(A, arity, f.degree + g.degree + 1, {key: acc[key] for _, key in window})


def gerstenhaber_bracket(f: Cochain, g: Cochain, v_max: int) -> Cochain:
    """{f, g} = f∘g - (-1)^{(|f|+1)(|g|+1)} g∘f, on the window of ``circle``."""
    fg = circle(f, g, v_max)
    gf = circle(g, f, v_max)
    sign = -1 if ((f.degree + 1) % 2) and ((g.degree + 1) % 2) else 1
    table = {k: dict(v) for k, v in fg.table.items()}
    for key, val in gf.table.items():
        if not _accumulate(table.setdefault(key, {}), val, -sign):
            table.pop(key, None)
    return Cochain(f.algebra, fg.arity, f.degree + g.degree + 1, table)


def coboundary(f: Cochain, v_max: int) -> Cochain:
    """Hochschild coboundary on mode-A cochains.

    δf(ā_1..ā_{q+1}) = (-1)^{|a_1||f|} a_1 f(ā_2..)
                     + Σ_i (-1)^{‖ā_1‖+..+‖ā_i‖} f(.., ā_i ā_{i+1}, ..)
                     - (-1)^{‖ā_1‖+..+‖ā_q‖} f(ā_1..ā_q) a_{q+1}

    The graded commutator with the contraction recovers the coboundary:
    b∘ι_f - (-1)^{|f|} ι_f∘b = -(-1)^{|f|} ι_{δf}, so cap descends to
    homology; the ungraded shadow is the classical normalized formula.

    Tabulated on the input tuples of arity q + 1 and chain weight at most
    v_max, in (chain weight, tuple) order, as ``circle`` is.  Evaluated in
    push form: each nonzero entry (t, v) of f emits its own terms, a·v on
    (a,) + t and v·a on t + (a,) for every augmentation index a, and v on t
    with one entry m split into a pair (x, y) whose product holds m
    (``GradedAlgebra.factorizations``).  A term is clipped to the window
    before it is evaluated, and an outer product that escapes the algebra's
    weight cutoff raises ``WindowOverflowError`` at the first tuple of the
    window where one escapes (a·v before v·a), and at no tuple outside it.
    """
    A = f.algebra
    q = f.arity
    deg, W = A.degrees, A.weights
    aug = A.augmentation_indices()
    factorizations = A.factorizations
    acc: dict[tuple[int, tuple[int, ...]], Element] = {}  # (chain weight, tuple) -> value
    escape = None  # (chain weight, tuple, side, error) of the first escaping product in window order

    def outer(key, side, a, v, sign):
        """acc[key] += sign · a·v (side 0) or sign · v·a (side 1); an escaping product is kept in ``escape``."""
        nonlocal escape
        prods = []
        for k, c in v.items():
            if c:
                prod = A.mult_basis(a, k) if side == 0 else A.mult_basis(k, a)
                if not isinstance(prod, dict):
                    if escape is None or (*key, side) < escape[:3]:
                        escape = (*key, side, WindowOverflowError(W[a] + W[k]))
                    return
                if prod:
                    prods.append((prod, c if sign == 1 else -c))
        if prods:
            row = acc.setdefault(key, {})
            for prod, c in prods:
                _accumulate(row, prod, c)

    for t, v in f.table.items():
        wt = sum(W[i] for i in t)
        if len(t) != q or not v or A.unit in t or wt > v_max:  # read by no tuple of the window
            continue
        shift = sum(deg[i] + 1 for i in t)
        for a in aug:
            if wt + W[a] <= v_max:
                outer((wt + W[a], (a,) + t), 0, a, v, -1 if (deg[a] * f.degree) % 2 else 1)
        run = 0
        for j, m in enumerate(t):
            for x, y in factorizations.get(m, ()):
                sign = -1 if (run + deg[x] + 1) % 2 else 1
                _accumulate(acc.setdefault((wt, t[:j] + (x, y) + t[j + 1 :]), {}), v, sign * A.mult_basis(x, y)[m])
            run += deg[m] + 1
        for a in aug:
            if wt + W[a] <= v_max:
                outer((wt + W[a], t + (a,)), 1, a, v, -1 if (shift + 1) % 2 else 1)
    if escape is not None:
        raise escape[3]
    return Cochain(A, q + 1, f.degree - 1, {key: val for (_, key), val in sorted(acc.items()) if val})


def cap(f: Cochain, chain: Chain) -> Chain:
    """Cap product f∩(a_0, ā_1, ..) = ±(a_0·f(ā_1..ā_n), ā_{n+1}, ..)."""
    A = f.algebra
    n = f.arity
    out: Chain = {}
    for t, coeff in chain.items():
        m = len(t) - 1
        if m < n:
            continue
        fval = f.value(t[1 : n + 1])
        if not fval:
            continue
        sign = -1 if (f.degree % 2) and (A.degrees[t[0]] % 2) else 1
        head = A.multiply(A.basis_element(t[0]), fval)
        _accumulate(out, {(k,) + t[n + 1 :]: c for k, c in head.items()}, coeff * sign)
    return out


def lie_derivative(f: Cochain, chain: Chain) -> Chain:
    """L_f = B∘ι_f - (-1)^{|f|} ι_f∘B on chains."""
    A = f.algebra
    first = connes_B(A, cap(f, chain))
    second = cap(f, connes_B(A, chain))
    sign = -1 if f.degree % 2 else 1
    return _accumulate(dict(first), second, -sign)

