"""Differential calculi on homology bases, duality data and BV operators.

A :class:`CalculusBundle` packages, for one of the four sources, the
cohomology ring (basis per (degree, weight-shift) piece with cup and
bracket tables), the homology side (a mixed-complex slice with its B
matrices) and the contraction action between them, everything tabulated on
chosen homology bases in exact arithmetic.

Attaching a volume class inverts Poincaré duality piece by piece and gives
the operator Δ = PD⁻¹∘B∘PD, the transported product on the homology side, and
the bracket generated by Δ; the generated bracket is compared entry by
entry against the native Gerstenhaber/Schouten table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product as iproduct
from typing import Iterator

from .algebra import GradedAlgebra, WindowError
from .hochschild import (
    Cochain,
    all_tuples_up_to_weight,
    cap,
    coboundary,
    cup,
    gerstenhaber_bracket,
    unit_cochain,
)
from .linalg import (
    ExactMatrix,
    HomologyPresentation,
    _accumulate,
    _check_complex,
    _expand,
    _integer_row,
    _integer_rref,
    _positive,
    _pullback,
    _rational_row,
    homology_presentation,
    operator_matrix,
)
from .mixed import ClassKey, MixedComplexSlice, Piece, _classes
from . import poisson as po

Q = Fraction


class DualityError(Exception):
    pass


# -- cochain-side operation providers -----------------------------------------


class HochschildCochainOps:
    """Mode-A Hochschild cochains of a graded algebra, windowed by arity/weight.

    Pieces are indexed by (total degree D, weight shift ω); the basis of a
    piece is the list of elementary cochains (input tuple, value index)
    with matching invariants and arity <= q_max.
    """

    def __init__(self, A: GradedAlgebra, q_max: int, v_max: int | None = None):
        self.A = A
        self.q_max = q_max
        if v_max is None:
            # finite-dimensional algebras admit complete tables
            if A.weight_cutoff is None:
                v_max = (q_max + 1) * max(A.weights)
            else:
                v_max = A.weight_cutoff
        # one window for the coboundary and the bracket: chain weight <= v_max at every arity
        self.v_max = v_max
        # the coboundary raises arity by exactly one, so each (degree, shift)
        # piece splits by arity; kernels at the arity ceiling are computed
        # against an extended basis that includes arity q_max + 1
        self._pieces: dict[Piece, list] = {}
        self._pieces_ext: dict[Piece, list] = {}
        for q in range(q_max + 2):
            for t in all_tuples_up_to_weight(A, q, v_max):
                wt = sum(A.weights[i] for i in t)
                st = sum(A.degrees[i] + 1 for i in t)
                for k in range(A.dim):
                    if A.weight_cutoff is not None and A.weights[k] > A.weight_cutoff:
                        continue
                    D = A.degrees[k] - st
                    om = A.weights[k] - wt
                    self._pieces_ext.setdefault((D, om), []).append((t, k))
                    if q <= q_max:
                        self._pieces.setdefault((D, om), []).append((t, k))
        for labels in self._pieces.values():
            labels.sort()
        for labels in self._pieces_ext.values():
            labels.sort()

    def pieces(self) -> dict[Piece, list]:
        return self._pieces

    def rep(self, piece: Piece, vec: dict[int, Fraction]) -> Cochain:
        D, om = piece
        labels = self._pieces[piece]
        table: dict = {}
        for j, c in vec.items():
            if c:
                t, k = labels[j]
                table.setdefault(t, {})[k] = c
        arities = {len(t) for t in table}
        if len(arities) > 1:
            raise WindowError("mixed-arity representative; refine the piece")
        return Cochain(self.A, arities.pop() if arities else 0, D, table)

    def vector(self, piece: Piece, f: Cochain) -> dict[int, Fraction]:
        idx = {lab: i for i, lab in enumerate(self._pieces.get(piece, []))}
        vec = {}
        for t, val in f.table.items():
            for k, c in val.items():
                if c == 0:
                    continue
                key = (t, k)
                if key not in idx:
                    raise WindowError(f"cochain entry {key!r} escapes piece {piece}")
                vec[idx[key]] = c
        return vec

    def delta_matrix(self, piece: Piece) -> ExactMatrix:
        """δ out of the piece, into the extended basis of (D - 1, ω)."""
        D, om = piece

        def delta(label):
            t, k = label
            df = coboundary(Cochain(self.A, len(t), D, {t: {k: Q(1)}}), self.v_max)
            return {(tt, kk): c for tt, val in df.table.items() for kk, c in val.items()}

        return operator_matrix(self._pieces.get(piece, []), self._pieces_ext.get((D - 1, om), []), delta,
                               escape=WindowError)

    def incoming(self, piece: Piece, above: ExactMatrix) -> ExactMatrix:
        """δ into the piece, from ``above`` = δ out of (D + 1, ω).

        The outgoing δ goes into the extended basis, so kernels at the arity
        ceiling are honest.  The incoming one drops the sources of arity
        q_max, whose coboundaries have arity q_max + 1 and bound classes
        outside this basis, and keeps the rows of the piece's own basis.
        """
        D, om = piece
        src = self._pieces.get((D + 1, om), [])
        ext = self._pieces_ext.get(piece, [])
        rows = {lab: i for i, lab in enumerate(self._pieces.get(piece, []))}
        entries = {}
        for (i, j), v in above.entries.items():
            if len(src[j][0]) < self.q_max:
                if ext[i] not in rows:
                    raise WindowError("restricted incoming differential escapes the piece")
                entries[(rows[ext[i]], j)] = v
        return ExactMatrix(len(rows), above.cols, entries)

    def cup(self, f: Cochain, g: Cochain) -> Cochain:
        return cup(f, g)

    def bracket(self, f: Cochain, g: Cochain) -> Cochain:
        return gerstenhaber_bracket(f, g, self.v_max)

    def is_zero(self, f: Cochain) -> bool:
        return not f.table or all(
            c == 0 for val in f.table.values() for c in val.values()
        )

    def unit(self) -> tuple[Piece, Cochain]:
        return (0, 0), unit_cochain(self.A)


class MultivectorOps:
    """Polyvector fields with the Lichnerowicz coboundary δ = [π, -], for either side.

    δ is ``bracket_op(ctx, π)``, which tabulates π once here for every δ matrix.
    """

    def __init__(self, ctx: po.PoissonContext, pi, w_shift_min: int, w_shift_max: int, coeff_wmax: int):
        self.ctx = ctx
        self.pi = pi
        self._delta = po.bracket_op(ctx, pi)
        V = ctx.vectors
        theta_cap = max(2, ctx.n, ctx.n - w_shift_min)
        self._pieces: dict[Piece, list] = {}
        for m in V.monomials([coeff_wmax] * ctx.n + [theta_cap] * ctx.n):
            w = V.weight(m)
            if w_shift_min <= w <= w_shift_max:
                self._pieces.setdefault((V.degree(m), w), []).append(m)
        for labels in self._pieces.values():
            labels.sort()

    def pieces(self) -> dict[Piece, list]:
        return self._pieces

    def rep(self, piece: Piece, vec: dict[int, Fraction]):
        labels = self._pieces[piece]
        return {labels[j]: c for j, c in vec.items() if c}

    def vector(self, piece: Piece, P) -> dict[int, Fraction]:
        idx = {m: i for i, m in enumerate(self._pieces.get(piece, []))}
        vec = {}
        for m, c in P.items():
            if c == 0:
                continue
            if m not in idx:
                raise WindowError(f"polyvector monomial escapes piece {piece}")
            vec[idx[m]] = c
        return vec

    def delta_matrix(self, piece: Piece) -> ExactMatrix:
        """δ out of the piece, into (D - 1, ω)."""
        D, om = piece
        return operator_matrix(self._pieces.get(piece, []), self._pieces.get((D - 1, om), []), self._delta,
                               escape=WindowError)

    def incoming(self, piece: Piece, above: ExactMatrix) -> ExactMatrix:
        """δ into the piece: ``above``, δ out of (D + 1, ω), as it is."""
        return above

    def cup(self, P, Q_):
        return self.ctx.vectors.multiply(P, Q_)

    def bracket(self, P, Q_):
        return po.schouten(self.ctx, P, Q_)

    def is_zero(self, P) -> bool:
        return not P or all(c == 0 for c in P.values())

    def unit(self):
        return (0, 0), {self.ctx.vectors.one: Q(1)}


def delta_pairs(ops, pieces) -> Iterator[tuple[Piece, ExactMatrix, ExactMatrix]]:
    """(piece, incoming, outgoing) differentials for each piece, in sorted order.

    Each δ is built once: δ out of (D + 1, ω) is the incoming map of (D, ω)
    and, kept until then, the outgoing map of (D + 1, ω).  No slice validates
    a δ, so each pair is checked here: NotAComplexError unless d∘d = 0.
    """
    above: dict[Piece, ExactMatrix] = {}
    for piece in sorted(pieces):
        D, om = piece
        d_out = above.pop(piece) if piece in above else ops.delta_matrix(piece)
        up = ops.delta_matrix((D + 1, om))
        if (D + 1, om) in pieces:
            above[(D + 1, om)] = up
        d_in = ops.incoming(piece, up)
        _check_complex(d_in, d_out)
        yield piece, d_in, d_out


# -- the bundle -----------------------------------------------------------------


@dataclass
class AxiomReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


class CalculusBundle:
    """Cohomology/homology operation tables over one mixed-complex slice.

    ``act(cochain_rep, label)`` is the primal contraction of one basis chain,
    a {label: coefficient} combination.  ``weight_sign`` is +1 when the
    homology side is the chains, where ι_f adds the cochain's weight shift.
    It is -1 on a functional (dual) side, whose labels stand for the dual
    basis functionals of chains of complementary weight: there the action
    is not applied but pulled back, as the signed transpose
    ι_f φ = (-1)^{|f||φ|} φ∘ι_f (see ``cap_classes``).
    """

    def __init__(self, name: str, ops, slice_: MixedComplexSlice, act, coh_window=None,
                 weight_sign: int = 1):
        self.name = name
        self.ops = ops
        self.slice = slice_
        self.act = act
        self.weight_sign = weight_sign
        pieces = {p for p in ops.pieces() if coh_window is None or coh_window(p)}
        self.coh_pres: dict[Piece, HomologyPresentation] = {
            piece: homology_presentation(d_in, d_out) for piece, d_in, d_out in delta_pairs(ops, pieces)
        }
        self._cup: dict[tuple[ClassKey, ClassKey], dict[ClassKey, Fraction] | None] = {}
        self._bracket: dict[tuple[ClassKey, ClassKey], dict[ClassKey, Fraction] | None] = {}
        self._cap: dict[tuple[ClassKey, ClassKey], dict[ClassKey, Fraction] | None] = {}

    # -- bases -------------------------------------------------------------

    def coh_classes(self) -> list[ClassKey]:
        return [(p, i) for p in sorted(self.coh_pres) for i in range(self.coh_pres[p].dim)]

    def hom_classes(self) -> list[ClassKey]:
        return [
            (p, i)
            for p in sorted(self.slice.pieces)
            for i in range(self.slice.hh(p).dim)
        ]

    def coh_rep(self, key: ClassKey):
        piece, i = key
        return self.ops.rep(piece, self.coh_pres[piece].cycle(i))

    def hom_rep_vector(self, key: ClassKey) -> dict[int, Fraction]:
        piece, i = key
        return self.slice.hh(piece).cycle(i)

    def unit_class(self) -> ClassKey:
        piece, u = self.ops.unit()
        coords = self.coh_pres[piece].reduce(self.ops.vector(piece, u))
        idxs = [i for i, c in enumerate(coords) if c]
        if len(idxs) != 1 or coords[idxs[0]] != 1:
            raise WindowError("unit class is not a basis vector of its piece")
        return (piece, idxs[0])

    # -- tables ------------------------------------------------------------

    def _reduce_coh(self, piece: Piece, cochain) -> dict[ClassKey, Fraction] | None:
        if self.ops.is_zero(cochain):
            return {}
        pres = self.coh_pres.get(piece)
        if pres is None:
            return None
        try:
            vec = self.ops.vector(piece, cochain)
        except WindowError:
            return None
        return _classes(piece, pres.reduce(vec))

    def _product_classes(self, memo: dict, op, degree: int, a: ClassKey, b: ClassKey):
        """op(a, b) of degree |a| + |b| + ``degree`` on homology classes, memoized; None on a window escape."""
        key = (a, b)
        if key not in memo:
            (D1, o1), (D2, o2) = a[0], b[0]
            try:
                val = op(self.coh_rep(a), self.coh_rep(b))
            except WindowError:
                memo[key] = None
            else:
                memo[key] = self._reduce_coh((D1 + D2 + degree, o1 + o2), val)
        return memo[key]

    def cup_classes(self, a: ClassKey, b: ClassKey) -> dict[ClassKey, Fraction] | None:
        return self._product_classes(self._cup, self.ops.cup, 0, a, b)

    def bracket_classes(self, a: ClassKey, b: ClassKey) -> dict[ClassKey, Fraction] | None:
        return self._product_classes(self._bracket, self.ops.bracket, 1, a, b)

    def cap_classes(self, f: ClassKey, z: ClassKey) -> dict[ClassKey, Fraction] | None:
        """ι_f on a homology class, memoized; None on a window escape.

        On chains (``weight_sign == 1``) the action is applied to the
        representative of z.  On a functional side the representative is
        φ, and ι_f φ = (-1)^{|f||φ|} φ∘ι_f is φ pulled back through the
        primal action over the one piece of chains that ι_f sends onto φ's.
        """
        key = (f, z)
        if key not in self._cap:
            (D1, o1), (dz, wz) = f[0], z[0]
            target = (dz + D1, wz + self.weight_sign * o1)
            act = partial(self.act, self.coh_rep(f))
            labels = self.slice.pieces[z[0]]
            z_rep = {labels[j]: c for j, c in self.hom_rep_vector(z).items()}
            try:
                if self.weight_sign == 1:
                    out = _expand(z_rep, act)
                else:
                    out = _pullback(z_rep, self.slice.pieces.get(target, ()), act, -1 if (D1 * dz) % 2 else 1)
            except WindowError:
                out = None
            if out and self.slice.dim(target):
                out = _classes(target, self.slice.hh(target).reduce(self.slice.element_vector(target, out)))
            elif out:
                out = None
            self._cap[key] = out
        return self._cap[key]

    def B_classes(self, z: ClassKey) -> dict[ClassKey, Fraction]:
        """B on a homology class, memoized on the slice; returns a fresh dict."""
        return dict(self.slice.B_class(z))

    # -- Def-style axiom verification --------------------------------------

    def verify_calculus_axioms(self, max_classes: int = 64) -> AxiomReport:
        """Exhaustive checks of the calculus axioms on basis classes.

        Cup associativity and graded commutativity, bracket antisymmetry
        and Jacobi, the biderivation rule, the contraction composition rule
        (recorded as ι_f ι_g = (-1)^{|f||g|} ι_{g∪f}), the Lie-derivative
        compatibilities [L_f, L_g] = L_{{f,g}} and the mixed rule relating
        ι of a bracket with [L_f, ι_g].  Window-escaping instances are
        skipped, not failed.
        """
        rep = AxiomReport()
        coh = self.coh_classes()[:max_classes]
        hom = self.hom_classes()[:max_classes]
        deg = {k: k[0][0] for k in coh}

        # cup: graded commutativity and associativity
        for a, b in iproduct(coh, repeat=2):
            ab = self.cup_classes(a, b)
            ba = self.cup_classes(b, a)
            if ab is None or ba is None:
                continue
            rep.checked += 1
            s = -1 if (deg[a] % 2) and (deg[b] % 2) else 1
            if _accumulate(dict(ab), ba, -s):
                rep.failures.append(f"cup not graded-commutative on {a}, {b}")
        for a, b, c in iproduct(coh[: max(8, len(coh) // 2)], repeat=3):
            ab = self.cup_classes(a, b)
            bc = self.cup_classes(b, c)
            if ab is None or bc is None:
                continue
            left = _expand(ab, lambda k: self.cup_classes(k, c))
            right = _expand(bc, lambda k: self.cup_classes(a, k))
            if left is None or right is None:
                continue
            rep.checked += 1
            if _accumulate(left, right, -1):
                rep.failures.append(f"cup not associative on {a}, {b}, {c}")
        # bracket: antisymmetry and Jacobi
        for a, b in iproduct(coh, repeat=2):
            ab = self.bracket_classes(a, b)
            ba = self.bracket_classes(b, a)
            if ab is None or ba is None:
                continue
            rep.checked += 1
            s = -1 if ((deg[a] + 1) % 2) and ((deg[b] + 1) % 2) else 1
            if _accumulate(dict(ab), ba, s):
                rep.failures.append(f"bracket not antisymmetric on {a}, {b}")
        for a, b, c in iproduct(coh[: max(6, len(coh) // 3)], repeat=3):
            ab_c = _expand(self.bracket_classes(a, b), lambda k: self.bracket_classes(k, c))
            a_bc = _expand(self.bracket_classes(b, c), lambda k: self.bracket_classes(a, k))
            b_ac = _expand(self.bracket_classes(a, c), lambda k: self.bracket_classes(b, k))
            if ab_c is None or a_bc is None or b_ac is None:
                continue
            rep.checked += 1
            s = -1 if ((deg[a] + 1) % 2) and ((deg[b] + 1) % 2) else 1
            if _accumulate(_accumulate(a_bc, ab_c, -1), b_ac, -s):
                rep.failures.append(f"bracket Jacobi fails on {a}, {b}, {c}")
        # biderivation: {a, b∪c} = {a,b}∪c + (-1)^{(|a|+1)|b|} b∪{a,c}
        for a, b, c in iproduct(coh[: max(6, len(coh) // 3)], repeat=3):
            lhs = _expand(self.cup_classes(b, c), lambda k: self.bracket_classes(a, k))
            t1 = _expand(self.bracket_classes(a, b), lambda k: self.cup_classes(k, c))
            t2 = _expand(self.bracket_classes(a, c), lambda k: self.cup_classes(b, k))
            if lhs is None or t1 is None or t2 is None:
                continue
            rep.checked += 1
            s = -1 if ((deg[a] + 1) % 2) and (deg[b] % 2) else 1
            if _accumulate(_accumulate(lhs, t1, -1), t2, -s):
                rep.failures.append(f"biderivation fails on {a}, {b}, {c}")
        # contraction composition on homology
        for a, b in iproduct(coh, repeat=2):
            ba = self.cup_classes(b, a)
            if ba is None:
                continue
            for z in hom:
                inner = self.cap_classes(b, z)
                if inner is None:
                    continue
                lhs = _expand(inner, lambda k: self.cap_classes(a, k))
                rhs = _expand(ba, lambda k: self.cap_classes(k, z))
                if lhs is None or rhs is None:
                    continue
                rep.checked += 1
                s = -1 if (deg[a] % 2) and (deg[b] % 2) else 1
                if _accumulate(lhs, rhs, -s):
                    rep.failures.append(f"ι_f ι_g ≠ ±ι_(g∪f) on {a}, {b}, {z}")
        # unit acts as identity
        try:
            u = self.unit_class()
            for z in hom:
                got = self.cap_classes(u, z)
                rep.checked += 1
                if got != {z: Q(1)}:
                    rep.failures.append(f"unit does not act as identity on {z}")
        except WindowError:
            rep.failures.append("unit class not identifiable")
        # Lie derivative rules on homology
        self._verify_lie_rules(rep, coh, hom)
        return rep

    def _verify_lie_rules(self, rep: AxiomReport, coh, hom):
        def L(f: ClassKey, z: ClassKey):
            first_in = _expand(self.cap_classes(f, z), self.B_classes)
            if first_in is None:
                return None
            second = _expand(self.B_classes(z), lambda k: self.cap_classes(f, k))
            if second is None:
                return None
            return _accumulate(first_in, second, -1 if f[0][0] % 2 else 1)

        for a, b in iproduct(coh[: max(6, len(coh) // 3)], repeat=2):
            br = self.bracket_classes(a, b)
            if br is None:
                continue
            for z in hom[: max(8, len(hom) // 2)]:
                lba = _expand(L(b, z), lambda k: L(a, k))
                lab2 = _expand(L(a, z), lambda k: L(b, k))
                lbr = _expand(br, lambda k: L(k, z))
                if lba is None or lab2 is None or lbr is None:
                    continue
                rep.checked += 1
                s = -1 if ((a[0][0] + 1) % 2) and ((b[0][0] + 1) % 2) else 1
                if _accumulate(_accumulate(lba, lab2, -s), lbr, -1):
                    rep.failures.append(f"[L_f, L_g] ≠ L_(f,g) on {a}, {b}, {z}")


# -- duality -------------------------------------------------------------------


@dataclass
class DualityData:
    bundle: CalculusBundle
    eta: ClassKey
    # per cohomology piece where PD is invertible: column i of PD⁻¹, the
    # cohomology class that PD sends to homology class i of the target piece
    pd: dict[Piece, list[dict[ClassKey, Fraction]]] = field(default_factory=dict)
    pd_twist: object = None  # callable(piece) -> ±1 normalization of PD
    # per-class memo table; only successful results are stored, and callers
    # get copies, so a failing class raises again and no caller can edit it
    _delta: dict[ClassKey, dict[ClassKey, Fraction]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _twist(self, piece: Piece) -> Fraction:
        if self.pd_twist is None:
            return Q(1)
        return Q(self.pd_twist(piece))

    def pd_of(self, key: ClassKey) -> dict[ClassKey, Fraction]:
        got = self.bundle.cap_classes(key, self.eta)
        if got is None:
            raise WindowError(f"PD image of {key} escapes the window")
        t = self._twist(key[0])
        return {k: t * v for k, v in got.items()}

    def pd_inverse(self, key: ClassKey) -> dict[ClassKey, Fraction]:
        """Homology class -> cohomology class with PD(result) = key: one column of PD⁻¹."""
        (d, w), i = key
        (de, we) = self.eta[0]
        src = (d - de, self.bundle.weight_sign * (w - we))
        inverse = self.pd.get(src)
        if inverse is None:
            raise DualityError(f"PD not invertible into piece {src}")
        return dict(inverse[i])

    # the transported product on the homology side
    def dot(self, a: ClassKey, b: ClassKey) -> dict[ClassKey, Fraction]:
        fa = self.pd_inverse(a)
        fb = self.pd_inverse(b)
        out: dict[ClassKey, Fraction] = {}
        for ka, va in fa.items():
            for kb, vb in fb.items():
                cupt = self.bundle.cup_classes(ka, kb)
                if cupt is None:
                    raise WindowError(f"transported product escapes window on {a}·{b}")
                for kc, vc in cupt.items():
                    _accumulate(out, self.pd_of(kc), va * vb * vc)
        return out

    def delta_classes(self, key: ClassKey) -> dict[ClassKey, Fraction]:
        """Δ = PD⁻¹ ∘ B ∘ PD on cohomology classes, memoized per class."""
        got = self._delta.get(key)
        if got is None:
            got = {}
            for kz, vz in self.pd_of(key).items():
                for kb, vb in self.bundle.B_classes(kz).items():
                    _accumulate(got, self.pd_inverse(kb), vz * vb)
            self._delta[key] = got
        return dict(got)

    def generated_bracket(self, a: ClassKey, b: ClassKey) -> dict[ClassKey, Fraction] | None:
        """[a,b] = (-1)^{|a|+1} (Δ(a∪b) - Δa∪b - (-1)^{|a|} a∪Δb)."""
        da = a[0][0]
        ab = self.bundle.cup_classes(a, b)
        if ab is None:
            return None
        out: dict[ClassKey, Fraction] = {}
        for k, v in ab.items():
            _accumulate(out, self.delta_classes(k), v)
        for k, v in self.delta_classes(a).items():
            step = self.bundle.cup_classes(k, b)
            if step is None:
                return None
            _accumulate(out, step, -v)
        s = -1 if da % 2 else 1
        for k, v in self.delta_classes(b).items():
            step = self.bundle.cup_classes(a, k)
            if step is None:
                return None
            _accumulate(out, step, -s * v)
        lead = -1 if (da + 1) % 2 else 1
        return {k: lead * v for k, v in out.items()}


def attach_duality(bundle: CalculusBundle, eta: ClassKey, pd_twist=None) -> DualityData:
    """Validate and attach duality data for a volume class η.

    Checks η∩1 = η, B(η) = 0, and invertibility of PD on every cohomology
    piece whose target piece lies in the window; failures are raised as
    DualityError naming the violated axiom.  ``pd_twist`` is an optional
    per-piece unit normalizing the volume identification.  It is applied
    after the axiom checks, so a -1 at the unit's piece is allowed: it
    rescales the volume class itself, as the derived dual twist does.
    """
    try:
        u = bundle.unit_class()
    except WindowError as exc:
        raise DualityError(str(exc))
    got = bundle.cap_classes(u, eta)
    if got != {eta: Q(1)}:
        raise DualityError("η∩1 ≠ η")
    if bundle.B_classes(eta):
        raise DualityError("volume class is not closed under B")
    # a -1 at the unit's piece rescales the volume class itself (PD of the
    # unit becomes -η); Δ is conjugation-invariant under that gauge
    data = DualityData(bundle, eta, pd_twist=pd_twist)
    (de, we) = eta[0]
    for piece, pres in sorted(bundle.coh_pres.items()):
        target = (piece[0] + de, we + bundle.weight_sign * piece[1])
        tgt_dim = bundle.slice.hh(target).dim if bundle.slice.dim(target) else 0
        m = pres.dim
        t = data._twist(piece)
        # row i of [PDᵀ | I]: the twisted image of class i, then 1 in column m + i
        rows = []
        for i in range(m):
            img = bundle.cap_classes((piece, i), eta)
            if img is None:
                break
            row = {m + i: Q(1)}
            for (tp, j), v in img.items():
                if tp != target:
                    raise DualityError(f"PD image off-piece at {piece}")
                row[j] = t * v
            rows.append(row)
        else:
            if m != tgt_dim:
                raise DualityError(f"PD singular in piece {piece}: dim {m} vs {tgt_dim}")
            # the RREF is [I | (PDᵀ)⁻¹], whose row j is column j of PD⁻¹,
            # unless PD is singular: then a pivot falls in the identity block
            reduced = _integer_rref(_integer_row(r) for r in rows)
            if any(p >= m for p, _ in reduced):
                raise DualityError(f"PD singular in piece {piece}")
            data.pd[piece] = [
                {(piece, j - m): c for j, c in _rational_row(*_positive(p, r)).items() if j >= m}
                for p, r in reduced
            ]
    return data


@dataclass
class BVReport:
    delta_squared_zero: bool
    seven_term_checked: int
    seven_term_failures: list[str]
    quartic_checked: int
    quartic_failures: list[str]
    bracket_matches_native: bool
    bracket_failures: list[str]

    @property
    def passed(self) -> bool:
        return (
            self.delta_squared_zero
            and not self.seven_term_failures
            and not self.quartic_failures
            and self.bracket_matches_native
        )


def verify_bv_axioms(data: DualityData, max_classes: int = 48, quartic_limit: int = 2000) -> BVReport:
    """BV diagnostics: Δ² = 0, the seven-term second-order identity on all
    basis triples in window, the quartic expansion of Δ on 4-fold products,
    and agreement of the generated bracket with the native bracket table.
    An instance where a product, PD or PD⁻¹ leaves the window is skipped.
    """
    bundle = data.bundle
    coh = [k for k in bundle.coh_classes() if k[0] in data.pd][:max_classes]
    deg = {k: k[0][0] for k in coh}

    def available(fn, *args):
        """fn(*args), or None where PD or PD⁻¹ leaves the window on the way."""
        try:
            return fn(*args)
        except (WindowError, DualityError):
            return None

    delta = partial(available, data.delta_classes)
    d2_ok = not any(_expand(delta(a), delta) for a in coh)

    cup2 = bundle.cup_classes

    def cup_table(table, b, left=False):
        return _expand(table, (lambda k: cup2(b, k)) if left else (lambda k: cup2(k, b)))

    def delta_table(table):
        return _expand(table, delta)

    seven_checked = 0
    seven_failures: list[str] = []
    for a, b, c in iproduct(coh, repeat=3):
        ab = cup2(a, b)
        bc = cup2(b, c)
        ac = cup2(a, c)
        if ab is None or bc is None or ac is None:
            continue
        abc = cup_table(ab, c)
        if abc is None:
            continue
        lhs = delta_table(abc)
        dc = delta(c)
        # the seven displayed terms
        t_ab_c = cup_table(delta_table(ab), c)
        t_a_bc = cup_table(delta_table(bc), a, left=True)
        t_b_ac = cup_table(delta_table(ac), b, left=True)
        t_da_bc = cup_table(cup_table(delta(a), b), c)
        t_a_db_c = cup_table(cup_table(delta(b), c), a, left=True)
        abdc = _expand(ab, lambda k: _expand(dc, lambda kc: cup2(k, kc)))
        if any(t is None for t in (lhs, t_ab_c, t_a_bc, t_b_ac, t_da_bc, t_a_db_c, abdc)):
            continue
        seven_checked += 1
        sa = -1 if deg[a] % 2 else 1
        sb = -1 if ((deg[a] + 1) * deg[b]) % 2 else 1
        sab = -1 if (deg[a] + deg[b]) % 2 else 1
        total = dict(lhs)
        for term, s in ((t_ab_c, -1), (t_a_bc, -sa), (t_b_ac, -sb), (t_da_bc, 1), (t_a_db_c, sa), (abdc, sab)):
            _accumulate(total, term, s)
        if total:
            seven_failures.append(f"second-order identity fails on {a}, {b}, {c}")
            if len(seven_failures) > 5:
                break
    # quartic expansion of Δ
    quartic_checked = 0
    quartic_failures: list[str] = []
    quartet_pool = sorted(coh, key=lambda k: (abs(k[0][0]) + abs(k[0][1]), k))[: min(len(coh), 10)]
    for quad in iproduct(quartet_pool, repeat=4):
        if quartic_checked >= quartic_limit:
            break
        x = list(quad)
        prods = cup2(x[0], x[1])
        prods = cup_table(prods, x[2])
        prods = cup_table(prods, x[3])
        if prods is None:
            continue
        lhs = delta_table(prods)
        if lhs is None:
            continue
        degs = [deg[k] for k in x]
        total: dict[ClassKey, Fraction] = dict(lhs)
        ok = True
        for i in range(4):
            for j in range(i + 1, 4):
                eps = (
                    sum(degs[:i]) * degs[i]
                    + sum(degs[:j]) * degs[j]
                    - degs[i] * degs[j]
                )
                dij = delta_table(cup2(x[i], x[j]))
                rest = [x[t] for t in range(4) if t not in (i, j)]
                term = dij
                for r in rest:
                    term = cup_table(term, r)
                if term is None:
                    ok = False
                    break
                _accumulate(total, term, -((-1) ** (eps % 2)))
            if not ok:
                break
        if not ok:
            continue
        # the single-Δ terms enter with multiplicity n - 2 (= 2 here); the
        # unit quartet (1,1,1,a) pins the coefficient
        for i in range(4):
            pref = sum(degs[:i])
            term: dict[ClassKey, Fraction] | None = delta(x[i])
            for t in range(i - 1, -1, -1):
                term = cup_table(term, x[t], left=True)
                if term is None:
                    break
            if term is not None:
                for t in range(i + 1, 4):
                    term = cup_table(term, x[t])
                    if term is None:
                        break
            if term is None:
                ok = False
                break
            _accumulate(total, term, 2 * (-1) ** (pref % 2))
        if not ok:
            continue
        quartic_checked += 1
        if total:
            quartic_failures.append(f"quartic expansion fails on {x}")
            if len(quartic_failures) > 5:
                break
    # generated bracket vs native bracket
    br_ok = True
    br_failures: list[str] = []
    for a, b in iproduct(coh, repeat=2):
        native = bundle.bracket_classes(a, b)
        gen = available(data.generated_bracket, a, b)
        if native is None or gen is None:
            continue
        if _accumulate(dict(gen), native, -1):
            br_ok = False
            br_failures.append(f"generated ≠ native bracket on {a}, {b}")
            if len(br_failures) > 5:
                break
    return BVReport(d2_ok, seven_checked, seven_failures, quartic_checked, quartic_failures, br_ok, br_failures)


# -- bundle builders for the four sources ----------------------------------------


def _cap_label(f: Cochain, label) -> dict:
    """The cap action on one basis chain; the primal action of both Hochschild bundles."""
    return cap(f, {label: Q(1)})


def _contraction_of(ctx: po.PoissonContext):
    """ι_P on one basis form, Σ c·ι_m over P's monomials (``po.contract_monomial``): both Poisson bundles' action."""
    return lambda P, label: _expand(P, lambda m: po.contract_monomial(ctx, m, label))


def hochschild_bundle(A: GradedAlgebra, slice_, q_max: int, v_max: int | None = None,
                      coh_window=None) -> CalculusBundle:
    """Calculus of (HH^•, HH_•) over the Hochschild chain slice."""
    return CalculusBundle(f"hochschild({A.name})", HochschildCochainOps(A, q_max, v_max), slice_, _cap_label,
                          coh_window)


def hochschild_dual_bundle(A: GradedAlgebra, slice_, q_max: int, coh_window=None) -> CalculusBundle:
    """Calculus of (HH^•(A), HH^•(A; A*)) over the dual cochain slice."""
    return CalculusBundle(f"hochschild-dual({A.name})", HochschildCochainOps(A, q_max), slice_, _cap_label,
                          coh_window, weight_sign=-1)


def poisson_bundle(ctx: po.PoissonContext, pi, slice_, w_shift_min: int, w_shift_max: int,
                   coeff_wmax: int) -> CalculusBundle:
    """Calculus of (HP^•, HP_•) over the Poisson chain slice."""
    ops = MultivectorOps(ctx, pi, w_shift_min, w_shift_max, coeff_wmax)
    return CalculusBundle(f"poisson({ctx.n})", ops, slice_, _contraction_of(ctx))


def poisson_dual_bundle(dual: po.DualSide, slice_, w_shift_min: int, w_shift_max: int,
                        coeff_wmax: int) -> CalculusBundle:
    """Calculus of (HP^•(A^!), HP^•(A^!; A^¡)) over the dual Poisson slice."""
    ops = MultivectorOps(dual.ctx, dual.pi, w_shift_min, w_shift_max, coeff_wmax)
    return CalculusBundle(f"poisson-dual({dual.ctx.n})", ops, slice_, _contraction_of(dual.ctx),
                          weight_sign=-1)


def polyvector_pd_twist(weight_sign: int = 1):
    """Per-piece unit for the Poisson volume identification.

    The contraction convention used here composes innermost-first, which
    differs from the order implicit in the commuting-diagram form of the
    duality by (-1)^{p(p-1)/2} on polyvector degree p; folding that unit
    into PD makes the derived operator the honest divergence class, so the
    generated bracket reproduces the Schouten table.
    """

    def twist(piece: Piece) -> int:
        D, om = piece
        p = -D if weight_sign == 1 else (-D - om)
        return -1 if (p * (p - 1) // 2) % 2 else 1

    return twist
